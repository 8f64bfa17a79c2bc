import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sartrace.imaging import HitLedger
from sartrace.learn import backward
from sartrace.scene import (PARAM_CHANNELS, PARAM_LOWER, PARAM_UPPER, Mesh, MeshError, ParamMap,
                            interpolate, interpolate_at_hits, load_mesh, load_param_map,
                            mesh_edges, save_param_map, write_obj)
from sartrace.scenes import box_mesh, building_scene, cube_plane_scene, merge_meshes, plane_mesh

from conftest import grid_mesh


def write(tmp_path, text, name="mesh.obj"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadMesh:
    def test_single_triangle(self, tmp_path):
        mesh = load_mesh(write(tmp_path, "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"))
        assert mesh.num_vertices == 3
        assert mesh.num_facets == 1
        np.testing.assert_allclose(mesh.facet_normals[0], [0, 0, 1], atol=1e-12)

    def test_cube_round_trip(self, tmp_path):
        path = tmp_path / "cube.obj"
        write_obj(box_mesh((1, 1, 1)), path)
        mesh = load_mesh(path)
        assert mesh.num_vertices == 8
        assert mesh.num_facets == 12
        distinct = {tuple(np.round(n, 9)) for n in mesh.facet_normals}
        assert len(distinct) == 6
        norms = np.linalg.norm(mesh.facet_normals, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    @pytest.mark.parametrize("text, cause", [
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 5\n",
         "facet 0 references vertex outside [0, 3): [0, 1, 4]"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 1 2\n", "facet 1 has zero area"),
        ("v 0 0 nan\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", "non-finite vertex coordinate"),
    ], ids=["index", "zero-area", "non-finite"])
    def test_mesh_error_names_file(self, tmp_path, text, cause):
        """Errors of Mesh.from_arrays name the file, as parse errors do."""
        path = write(tmp_path, text)
        with pytest.raises(MeshError) as info:
            load_mesh(path)
        assert str(info.value) == f"{path}: {cause}"

    def test_index_beyond_int64_names_file_and_facet(self, tmp_path):
        path = write(tmp_path, "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 9223372036854775809\n")
        with pytest.raises(MeshError, match=re.escape(
                f"{path}: facet 1 references vertex outside [0, 3): ")):
            load_mesh(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_mesh(tmp_path / "absent.obj")

    def test_quad_fan_triangulation(self, tmp_path):
        text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
        mesh = load_mesh(write(tmp_path, text))
        assert mesh.num_facets == 2

    def test_slash_indices_and_ignored_records(self, tmp_path):
        text = ("vn 0 0 1\nvt 0 0\no thing\ns off\n"
                "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/1 3/3/1\n")
        mesh = load_mesh(write(tmp_path, text))
        assert mesh.num_facets == 1

    def test_vertex_order_preserved(self, tmp_path):
        mesh = load_mesh(write(tmp_path, "v 5 0 0\nv 0 7 0\nv 0 0 9\nf 1 2 3\n"))
        np.testing.assert_array_equal(mesh.vertices[1], [0, 7, 0])


class TestFromArrays:
    @pytest.mark.parametrize("facets, cause", [
        ([[0, 1, 2], [0, 1.7, 2], [0, 5, 2]],
         "facet 1 has a vertex index that is not an integer: [0.0, 1.7, 2.0]"),
        ([[0, 1, 2], [2, 1, np.nan]], "facet 1 has a vertex index that is not an integer"),
        ([[0, 1, 2], [0, 5, 2], [0, 0.5, 1]], "facet 1 references vertex outside [0, 3)"),
        ([[0, 1, 2], [0, 2 ** 63, 2]], "facet 1 references vertex outside [0, 3)"),
        ([[0, 1, 2], [0, 2 ** 64, 2]], "facet 1 references vertex outside [0, 3): [0, 18446744073709551616, 2]"),
        (np.array([[0, 1, 2], [0, 2 ** 63, 2]], dtype=np.uint64),
         "facet 1 references vertex outside [0, 3): [0, 9223372036854775808, 2]"),
        ([["0", "1", "2"]], "facet indices must be numbers, got dtype <U1"),
    ], ids=["fraction", "nan", "outside-before-fraction", "2**63", "2**64", "uint64", "strings"])
    def test_first_bad_facet_named(self, facets, cause):
        """An index must be an integer in [0, n): none is truncated or wrapped to fit int64."""
        with pytest.raises(MeshError, match="^" + re.escape(cause)):
            Mesh.from_arrays(np.eye(3), facets)

    def test_integral_float_indices_accepted(self):
        mesh = Mesh.from_arrays(np.eye(3), [[0.0, 1.0, 2.0]])
        assert mesh.facets.dtype == np.int64
        np.testing.assert_array_equal(mesh.facets, [[0, 1, 2]])

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_normals_are_bitwise_cross_over_norm(self, scale):
        rng = np.random.default_rng(11)
        vertices = rng.normal(size=(900, 3)) * scale
        facets = rng.permutation(900).reshape(300, 3)
        mesh = Mesh.from_arrays(vertices, facets)
        p1, p2, p3 = (vertices[facets[:, k]] for k in range(3))
        cross = np.cross(p2 - p1, p3 - p1)
        expect = cross / np.linalg.norm(cross, axis=1)[:, None]
        np.testing.assert_array_equal(mesh.facet_normals.view(np.int64), expect.view(np.int64))


@pytest.mark.parametrize("parts", [
    [plane_mesh(4.0, 4.0), plane_mesh(1.0, 1.0, z=0.5), plane_mesh(2.0, 3.0, z=-0.25)],
    [box_mesh((1.0, 2.0, 3.0)), box_mesh((0.3, 0.3, 0.3), center=(2.0, -1.0, 0.7))],
    [grid_mesh(12), box_mesh((1.0, 1.0, 1.0), center=(5.0, 5.0, 0.5))],
], ids=["planes", "boxes", "grid"])
def test_merge_meshes_keeps_its_parts_normals(parts):
    """Bitwise the mesh from_arrays makes of the concatenated arrays."""
    offsets = np.cumsum([0] + [p.num_vertices for p in parts])
    expect = Mesh.from_arrays(np.concatenate([p.vertices for p in parts]),
                              np.concatenate([p.facets + o for p, o in zip(parts, offsets)]))
    merged = merge_meshes(parts)
    for name in ("vertices", "facets", "facet_normals"):
        got, want = getattr(merged, name), getattr(expect, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=name)


def test_merge_meshes_of_no_mesh():
    with pytest.raises(ValueError, match="at least one mesh"):
        merge_meshes([])


class TestMeshEdges:
    def test_two_facet_mesh(self, two_facet_mesh):
        edges = mesh_edges(two_facet_mesh)
        assert edges.dtype == np.int64
        np.testing.assert_array_equal(edges, [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]])

    @pytest.mark.parametrize("mesh, count", [
        (cube_plane_scene(8.0, 2.0)[0], 23),   # plane 5 + box 18 (12 sides, 6 face diagonals)
        (building_scene()[0], 41),             # plane 5 + two boxes of 18
    ], ids=["cube_plane", "building"])
    def test_scene_edge_counts(self, mesh, count):
        edges = mesh_edges(mesh)
        assert edges.shape == (count, 2)
        assert (edges[:, 0] < edges[:, 1]).all()
        want = {tuple(sorted(pair)) for f in mesh.facets.tolist()
                for pair in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0]))}
        assert [tuple(e) for e in edges.tolist()] == sorted(want)

    def test_mesh_without_facets(self):
        mesh = Mesh.from_arrays(np.eye(3), np.zeros((0, 3)))
        edges = mesh_edges(mesh)
        assert edges.shape == (0, 2) and edges.dtype == np.int64


def triangle_mesh():
    return Mesh.from_arrays(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])


def oracle_interpolate(mesh, values, facet_id, m1, m2):
    """Scalar barycentric interpolation: m1 to the facet's first vertex,
    m2 to the second, 1 - m1 - m2 to the third."""
    i, j, k = mesh.facets[facet_id]
    return m1 * values[i] + m2 * values[j] + (1.0 - m1 - m2) * values[k]


def interp(mesh, values, m1, m2):
    """interpolate_at_hits at one hit on facet 0 -> (4,)."""
    return interpolate_at_hits(mesh, np.asarray(values, dtype=float), np.array([0]),
                               np.array([m1]), np.array([m2]))[0]


def adjoint(mesh, m1, m2, d):
    """Interpolation adjoint through learn.backward: a one-hit ledger with
    unit weight, dsigma = d and dL/dI = 1 pulls d back onto the vertices."""
    ledger = HitLedger(mesh=mesh, radar=None, range_origin=0.0, image_shape=(1, 1),
                       row=np.array([0]), facet_id=np.array([0]), m1=np.array([m1]),
                       m2=np.array([m2]), theta=np.zeros(1), weight=np.array([1.0]),
                       ranges=np.zeros(1), range_bin=np.array([0]), sigma=np.array([0.0]),
                       dsigma=np.asarray(d, dtype=float)[None, :])
    return backward(ledger, np.ones((1, 1)))


class TestInterpolation:
    def test_vertex_coincidence(self):
        table = [[0.001, 0.01, 2.0, 0.1],
                 [0.002, 0.02, 4.0, 0.5],
                 [0.003, 0.03, 8.0, 0.9]]
        out = interp(triangle_mesh(), table, 1.0, 0.0)
        assert tuple(out) == (0.001, 0.01, 2.0, 0.1)

    def test_centroid(self):
        table = [[0.001, 0.01, 2.0, 0.0],
                 [0.002, 0.01, 2.0, 0.0],
                 [0.003, 0.01, 2.0, 0.0]]
        out = interp(triangle_mesh(), table, 1 / 3, 1 / 3)
        assert out[0] == pytest.approx(0.002, rel=1e-12)

    def test_hand_evaluated_combination(self):
        # 0.5*2 + 0.25*4 + 0.25*8 = 4.0
        table = [[0.001, 0.01, 2.0, 0.0],
                 [0.001, 0.01, 4.0, 0.0],
                 [0.001, 0.01, 8.0, 0.0]]
        out = interp(triangle_mesh(), table, 0.5, 0.25)
        assert out[2] == pytest.approx(4.0, rel=1e-14)


class TestAdjoint:
    def test_all_on_first_vertex(self):
        out = adjoint(triangle_mesh(), 1.0, 0.0, np.ones(4))
        np.testing.assert_array_equal(out[0], np.ones(4))
        np.testing.assert_array_equal(out[1], np.zeros(4))

    def test_symmetric_split(self):
        out = adjoint(triangle_mesh(), 1 / 3, 1 / 3, 3.0 * np.ones(4))
        np.testing.assert_allclose(out, np.ones((3, 4)), rtol=1e-12)

    def test_hand_weights(self):
        out = adjoint(triangle_mesh(), 0.5, 0.25, np.ones(4))
        np.testing.assert_allclose(out[:, 0], [0.5, 0.25, 0.25])


simplex = st.tuples(
    st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)
).map(lambda ab: (ab[0], ab[1] * (1.0 - ab[0])))

channel_values = st.lists(
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    min_size=3, max_size=3)


@given(simplex, channel_values, channel_values, st.floats(-2, 2), st.floats(-2, 2))
def test_interpolation_is_affine(weights, va, vb, alpha, beta):
    mesh = triangle_mesh()
    m1, m2 = weights
    a = np.tile(np.asarray(va)[:, None], (1, 4))
    b = np.tile(np.asarray(vb)[:, None], (1, 4))
    mix = interp(mesh, alpha * a + beta * b, m1, m2)
    ia = interp(mesh, a, m1, m2)
    ib = interp(mesh, b, m1, m2)
    np.testing.assert_allclose(mix, alpha * ia + beta * ib, rtol=1e-9, atol=1e-9)


@given(simplex, channel_values)
def test_interpolation_inside_vertex_hull(weights, col):
    m1, m2 = weights
    table = np.tile(np.asarray(col)[:, None], (1, 4))
    out = interp(triangle_mesh(), table, m1, m2)
    assert np.all(out >= min(col) - 1e-12)
    assert np.all(out <= max(col) + 1e-12)


@given(simplex,
       st.lists(st.floats(-5, 5), min_size=12, max_size=12),
       st.lists(st.floats(-5, 5), min_size=4, max_size=4))
def test_adjoint_dot_product_identity(weights, perturb, d):
    """<interp(dv), d> must equal <dv, adjoint(d)> to near machine precision."""
    mesh = triangle_mesh()
    m1, m2 = weights
    dv = np.asarray(perturb).reshape(3, 4)
    d = np.asarray(d)
    lhs = float(interp(mesh, dv, m1, m2) @ d)
    rhs = float(np.sum(dv * adjoint(mesh, m1, m2, d)))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_interpolate_at_hits_matches_scalar(two_facet_mesh):
    rng = np.random.default_rng(0)
    values = rng.uniform(0.5, 2.0, size=(6, 4))
    fids = np.array([0, 1, 1, 0])
    m1 = np.array([0.2, 0.0, 0.5, 1.0])
    m2 = np.array([0.3, 1.0, 0.25, 0.0])
    batch = interpolate_at_hits(two_facet_mesh, values, fids, m1, m2)
    for row, (f, a, b) in enumerate(zip(fids, m1, m2)):
        ref = oracle_interpolate(two_facet_mesh, values, f, a, b)
        np.testing.assert_allclose(batch[row], ref, rtol=1e-12)


VALID_ROW = [0.001, 0.01, 2.0, 0.5]


class TestParamMap:
    def test_csv_round_trip(self, tmp_path):
        pm = ParamMap(np.array([[0.001, 0.01, 25.0, 0.0],
                                [0.002, 0.02, 75.0, 1.0]]))
        path = tmp_path / "params.csv"
        save_param_map(pm, path)
        back = load_param_map(path)
        np.testing.assert_array_equal(back.values, pm.values)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("vid,h,l\n0,1,2\n")
        with pytest.raises(ValueError, match="header"):
            load_param_map(path)

    @pytest.mark.parametrize("body, cause", [
        ("0,0.001,0.01,2.0,0.5\n1,0.001,abc,2.0,0.5\n", r"bad\.csv:3: l 'abc' is not a number"),
        ("x,0.001,0.01,2.0,0.5\n", r"bad\.csv:2: vertex_id 'x' is not an integer"),
        ("0.5,0.001,0.01,2.0,0.5\n", r"bad\.csv:2: vertex_id '0\.5' is not an integer"),
        ("0,0.001,0.01,2.0,\n", r"bad\.csv:2: tau '' is not a number"),
        ("", r"bad\.csv: no parameter rows"),
        ("\n\n", r"bad\.csv: no parameter rows"),
    ], ids=["text-value", "text-id", "fractional-id", "empty-value", "header-only",
            "blank-rows-only"])
    def test_malformed_rows_name_line_and_field(self, tmp_path, body, cause):
        path = tmp_path / "bad.csv"
        path.write_text("vertex_id,h,l,eps_r,tau\n" + body)
        with pytest.raises(ValueError, match=cause):
            load_param_map(path)

    @pytest.mark.parametrize("row", [
        [0.0, 0.01, 2.0, 0.5],     # h = 0
        [0.001, -1.0, 2.0, 0.5],   # l < 0
        [0.001, 0.01, 0.5, 0.5],   # eps_r < 1
        [0.001, 0.01, 2.0, 1.5],   # tau > 1
    ] + [  # one float outside each end of each channel, then NaN and +-inf in each
        [np.nextafter(end[c], toward) if i == c else v for i, v in enumerate(VALID_ROW)]
        for c in range(4) for end, toward in ((PARAM_LOWER, -np.inf), (PARAM_UPPER, np.inf))
    ] + [
        [bad if i == c else v for i, v in enumerate(VALID_ROW)]
        for bad in (np.nan, np.inf, -np.inf) for c in range(4)
    ])
    def test_validate_rejects(self, row):
        """A row of VALID_ROW with one channel outside the box, at vertex 1
        between the box's two corners, which validate accepts: the error
        names vertex 1, that channel, the value and the channel's interval."""
        (c,) = np.flatnonzero(np.array(row) != VALID_ROW)
        value = float(row[c])
        what = "parameter value" if np.isfinite(value) else "non-finite parameter value"
        message = (f"vertex 1, {PARAM_CHANNELS[c]}: {what} {value!r} outside "
                   f"[{float(PARAM_LOWER[c])!r}, {float(PARAM_UPPER[c])!r}]")
        pm = ParamMap(np.array([PARAM_LOWER, row, PARAM_UPPER]))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pm.validate()

    def test_validate_names_first_vertex_and_channel(self):
        """The first bad cell in table order, whatever its cause."""
        pm = ParamMap.constant(4, 0.001, 0.01, 2.0, 0.5)
        pm.values[3, 0] = np.nan
        pm.values[2, 3] = 1.5
        pm.values[1, 1] = -1.0
        pm.values[1, 2] = 0.5
        with pytest.raises(ValueError, match=r"^vertex 1, l: parameter value -1\.0 outside "
                                             r"\[1e-07, 10\.0\]$"):
            pm.validate()
        pm.values[1] = [0.001, 0.01, 2.0, 0.5]
        with pytest.raises(ValueError, match=r"^vertex 2, tau: parameter value 1\.5 outside "
                                             r"\[0\.0, 1\.0\]$"):
            pm.validate()
        pm.values[2, 3] = 0.5
        with pytest.raises(ValueError, match=r"^vertex 3, h: non-finite parameter value nan "
                                             r"outside \[1e-07, 1\.0\]$"):
            pm.validate()

    def test_constant_broadcast(self):
        pm = ParamMap.constant(5, 0.001, 0.01, 2.0, 0.5)
        assert pm.num_vertices == 5
        pm.validate()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 40), num_vertices=st.integers(1, 9),
       zero_channels=st.sets(st.integers(0, 3)))
@example(seed=0, n=0, num_vertices=1, zero_channels=set())
@example(seed=1, n=1, num_vertices=1, zero_channels={0, 1, 2, 3})
def test_interpolate_is_bitwise_einsum(seed, n, num_vertices, zero_channels):
    """The channel-major kernel, and interpolate_at_hits through it, equal
    np.einsum("nj,njc->nc") bitwise on simplex weights, values over twelve
    decades and zero-valued channels and entries."""
    rng = np.random.default_rng(seed)
    values = 10.0 ** rng.uniform(-6, 6, (num_vertices, 4))
    values[:, sorted(zero_channels)] = 0.0
    values[rng.random(values.shape) < 0.2] = 0.0
    vids = rng.integers(num_vertices, size=(n, 3))
    m1 = rng.random(n)
    m1[rng.random(n) < 0.2] = 0.0                       # weights exactly 0 or 1
    m1[rng.random(n) < 0.1] = 1.0
    m2 = (1.0 - m1) * rng.random(n)
    bary = np.stack([m1, m2, 1.0 - m1 - m2], axis=1)
    want = np.einsum("nj,njc->nc", bary, values.take(vids, axis=0))
    got = interpolate(values, vids.T, bary.T)
    assert got.shape == (4, n) and got.flags.c_contiguous
    assert got.T.tobytes() == want.tobytes()

    mesh = Mesh(vertices=np.zeros((num_vertices, 3)), facets=vids,
                facet_normals=np.zeros((n, 3)))
    batch = interpolate_at_hits(mesh, values, np.arange(n), m1, m2)
    assert batch.shape == (n, 4) and batch.tobytes() == want.tobytes()
