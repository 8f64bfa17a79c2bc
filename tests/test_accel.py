import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sartrace import accel
from sartrace.accel import Bvh, build_bvh, intersect_rays
from sartrace.scene import Mesh
from sartrace.scenes import box_mesh

from conftest import grid_mesh, oracle_build_bvh, oracle_nearest_hit, run_script


def random_triangles(rng, n, scale=1.0):
    base = rng.uniform(-scale, scale, size=(n, 3))
    edges = rng.uniform(-0.3 * scale, 0.3 * scale, size=(n, 2, 3))
    vertices = np.concatenate([base, base + edges[:, 0], base + edges[:, 1]])
    facets = np.stack([np.arange(n), np.arange(n) + n, np.arange(n) + 2 * n], axis=1)
    return Mesh.from_arrays(vertices, facets)


def one_facet_mesh(p1, p2, p3):
    return Mesh.from_arrays([p1, p2, p3], [[0, 1, 2]])


def cast(mesh, origin, direction, bvh=None):
    """intersect_rays for a single ray -> (facet_id, t, m1, m2, cos_theta)."""
    out = intersect_rays(mesh, np.array([origin], dtype=float),
                         np.array([direction], dtype=float), bvh=bvh)
    return tuple(a[0] for a in out)


class TestIntersectTriangle:
    """intersect_rays on a one-facet mesh."""

    TRI = ([1, 0, 0], [0, 1, 0], [0, 0, 0])

    def test_axis_aligned_hand_solution(self):
        fid, t, m1, m2, cos_t = cast(one_facet_mesh(*self.TRI), [0.25, 0.25, 1.0], [0, 0, -1])
        assert fid == 0
        assert (t, m1, m2) == pytest.approx((1.0, 0.25, 0.25), rel=1e-12)
        assert cos_t == pytest.approx(1.0, rel=1e-12)

    def test_translation_along_ray(self):
        mesh = one_facet_mesh([1, 0, -5], [0, 1, -5], [0, 0, -5])
        fid, t, _, _, _ = cast(mesh, [0.25, 0.25, 1.0], [0, 0, -1])
        assert fid == 0
        assert t == pytest.approx(6.0, rel=1e-12)

    def test_parallel_ray_misses(self):
        fid, t, _, _, cos_t = cast(one_facet_mesh(*self.TRI), [0.0, 0.0, 1.0], [1, 0, 0])
        assert (fid, t, cos_t) == (-1, np.inf, 0.0)

    def test_behind_origin_misses(self):
        fid, t, _, _, _ = cast(one_facet_mesh(*self.TRI), [0.25, 0.25, -1.0], [0, 0, -1])
        assert (fid, t) == (-1, np.inf)

    def test_outside_simplex_misses(self):
        fid, t, _, _, _ = cast(one_facet_mesh(*self.TRI), [0.9, 0.9, 1.0], [0, 0, -1])
        assert (fid, t) == (-1, np.inf)


class TestBvhBuild:
    def test_single_triangle_single_leaf(self):
        mesh = Mesh.from_arrays([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        bvh = build_bvh(mesh)
        assert bvh.num_nodes == 1
        assert bvh.count[0] == 1

    def test_cube_root_box_and_coverage(self):
        mesh = box_mesh((2.0, 2.0, 2.0))
        bvh = build_bvh(mesh)
        np.testing.assert_allclose(bvh.box_min[0], [-1, -1, -1])
        np.testing.assert_allclose(bvh.box_max[0], [1, 1, 1])
        np.testing.assert_array_equal(np.sort(bvh.order), np.arange(12))
        leaves = bvh.count > 0
        assert bvh.count[leaves].sum() == 12

    def test_every_facet_in_exactly_one_leaf(self):
        mesh = random_triangles(np.random.default_rng(1), 300)
        bvh = build_bvh(mesh)
        assert np.all(bvh.count[bvh.count > 0] <= 4)
        seen = []
        for node in range(bvh.num_nodes):
            if bvh.count[node] > 0:
                seen.extend(bvh.order[bvh.start[node]:bvh.start[node] + bvh.count[node]])
        assert sorted(seen) == list(range(300))

    def test_deterministic(self):
        mesh = random_triangles(np.random.default_rng(2), 128)
        a = build_bvh(mesh)
        b = build_bvh(mesh)
        for field in dataclasses.fields(Bvh):
            np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name),
                                          err_msg=field.name)

    def test_empty_mesh_rejected(self):
        mesh = Mesh(vertices=np.zeros((3, 3)), facets=np.zeros((0, 3), dtype=np.int64),
                    facet_normals=np.zeros((0, 3)))
        with pytest.raises(ValueError):
            build_bvh(mesh)

    def test_more_facets_than_the_sort_key_holds_rejected(self):
        """A level's int64 key packs a node, a rank and a position: 2**31 facets at most."""
        facets = np.broadcast_to(np.arange(3), (2 ** 31 + 1, 3))     # no memory behind it
        mesh = Mesh(vertices=np.eye(3), facets=facets, facet_normals=np.zeros((1, 3)))
        with pytest.raises(ValueError, match=f"over {2 ** 31 + 1} facets: at most 2\\*\\*31"):
            build_bvh(mesh)


def node_ranges(bvh):
    """(lo, hi) range of `order` under every node, children before parents."""
    lo = np.empty(bvh.num_nodes, dtype=np.int64)
    hi = np.empty(bvh.num_nodes, dtype=np.int64)
    for node in range(bvh.num_nodes - 1, -1, -1):
        if bvh.count[node]:
            lo[node], hi[node] = bvh.start[node], bvh.start[node] + bvh.count[node]
        else:
            lo[node], hi[node] = lo[bvh.left[node]], hi[bvh.right[node]]
    return lo, hi


def node_map(bvh):
    """(lo, hi, is_leaf) -> (box_min, box_max) bytes; independent of node numbering."""
    lo, hi = node_ranges(bvh)
    return {(int(a), int(b), bool(c)): (bvh.box_min[k].tobytes(), bvh.box_max[k].tobytes())
            for k, (a, b, c) in enumerate(zip(lo, hi, bvh.count > 0))}


def bvh_test_mesh(rng, n, kind):
    """random: uniform facets; coincident: every centroid at (1, 2, 3), so
    the split axis and every sort key tie; integer: small integer corners,
    so many keys tie; overflow: corners of 0 and +-2**1022 and +-2**1023,
    so centroids tie at 0.0 through cancellation and at +-inf through
    overflow, and a range whose centroids are all inf on an axis has a NaN
    extent there.  (No -0.0 corners: the min of -0.0 and +0.0 depends on
    the order of reduction, and the oracle's boxes reduce in another.)"""
    if kind == "random":
        return random_triangles(rng, n)

    def draw():
        if kind == "integer":
            return rng.integers(-3, 4, (n, 3, 3)).astype(np.float64)
        if kind == "overflow":
            return rng.choice([-2.0 ** 1023, -2.0 ** 1022, 0.0, 2.0 ** 1022, 2.0 ** 1023],
                              (n, 3, 3))
        a, b = rng.integers(-3, 4, (2, n, 3)).astype(np.float64)
        center = np.array([1.0, 2.0, 3.0])
        return np.stack([center + a, center + b, center - a - b], axis=1)

    tri = draw()
    with np.errstate(over="ignore", invalid="ignore"):     # overflow's huge cross products
        while True:        # redraw zero-area facets, which Mesh rejects
            flat = np.all(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]) == 0.0, axis=1)
            if not flat.any():
                return Mesh.from_arrays(tri.reshape(-1, 3), np.arange(3 * n).reshape(n, 3))
            tri[flat] = draw()[flat]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n_facets=st.one_of(st.integers(1, 9), st.integers(257, 3000)),
       kind=st.sampled_from(["random", "coincident", "integer", "overflow"]))
def test_build_matches_oracle(seed, n_facets, kind):
    """The level-at-a-time build makes the oracle's tree, numbered in level order."""
    mesh = bvh_test_mesh(np.random.default_rng(seed), n_facets, kind)
    bvh = build_bvh(mesh)
    oracle = oracle_build_bvh(mesh)
    np.testing.assert_array_equal(bvh.order, oracle.order)
    assert bvh.num_nodes == oracle.num_nodes
    assert node_map(bvh) == node_map(oracle)

    inner = np.flatnonzero(bvh.count == 0)
    assert np.all(bvh.left[inner] > inner) and np.all(bvh.right[inner] > inner)
    np.testing.assert_array_equal(
        bvh.box_min[inner], np.minimum(bvh.box_min[bvh.left[inner]], bvh.box_min[bvh.right[inner]]))
    np.testing.assert_array_equal(
        bvh.box_max[inner], np.maximum(bvh.box_max[bvh.left[inner]], bvh.box_max[bvh.right[inner]]))
    leaves = np.flatnonzero(bvh.count)
    leaves = leaves[np.argsort(bvh.start[leaves])]
    bounds = np.append(bvh.start[leaves], mesh.num_facets)
    assert bounds[0] == 0
    np.testing.assert_array_equal(np.diff(bounds), bvh.count[leaves])
    np.testing.assert_array_equal(np.sort(bvh.order), np.arange(mesh.num_facets))


@pytest.mark.parametrize("kind", ["random", "integer", "overflow", "negative-zero"])
def test_facet_boxes_are_bitwise_the_corner_reductions(kind):
    """The build's facet min, max and centroid are bitwise those of min,
    max and mean over the (F, 3, 3) corners: infinite sums too, and three
    -0.0 corners, whose mean is +0.0."""
    mesh = bvh_test_mesh(np.random.default_rng(5), 600, kind.replace("negative-zero", "integer"))
    if kind == "negative-zero":
        mesh = Mesh.from_arrays(np.where(mesh.vertices == 0.0, -0.0, mesh.vertices), mesh.facets)
    tri = mesh.vertices[mesh.facets]
    assert kind != "negative-zero" or ((tri == 0.0) & np.signbit(tri)).all(axis=1).any()
    with np.errstate(over="ignore"):
        got = accel._facet_boxes(mesh)
        expect = tri.min(axis=1), tri.max(axis=1), tri.mean(axis=1)
    for a, b in zip(got, expect):
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def test_axis_ranks_keep_every_float_tie():
    """Equal coordinates share a rank: -0.0 and +0.0, and infinities of one sign."""
    row = np.array([0.0, -0.0, np.inf, 1.0, np.inf, -np.inf, -np.inf, -1.0])
    ranks = accel._axis_ranks(np.stack([row, row[::-1], np.zeros(8)])).reshape(3, 8)
    expect = [2, 2, 4, 3, 4, 0, 0, 1]
    np.testing.assert_array_equal(ranks, [expect, expect[::-1], np.zeros(8)])


@pytest.mark.parametrize("stage, bytes_per_facet", [("build_bvh", 280), ("from_arrays", 200)])
def test_setup_peak_memory_per_facet(stage, bytes_per_facet):
    """The set-up of the 20k-facet grid stays within a tracemalloc peak per
    facet, so that a faster set-up does not buy its speed with memory."""
    mesh = grid_mesh(100)
    run = {"build_bvh": lambda: build_bvh(mesh),
           "from_arrays": lambda: Mesh.from_arrays(mesh.vertices, mesh.facets)}[stage]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.num_facets == 20_000
    assert peak <= bytes_per_facet * mesh.num_facets, f"peak {peak / mesh.num_facets:.1f} B/facet"


def stacked_layers(rng, n_copies):
    """n_copies unit triangles stacked along z at random xy offsets, so
    a downward ray crosses several facets and the nearest one must win."""
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    shift = np.column_stack([rng.uniform(-0.2, 0.2, (n_copies, 2)),
                             -np.arange(n_copies) * 0.01])
    vertices = (tri[None, :, :] + shift[:, None, :]).reshape(-1, 3)
    facets = np.arange(3 * n_copies).reshape(n_copies, 3)
    return Mesh.from_arrays(vertices, facets)


def test_bvh_threshold(monkeypatch):
    """intersect_rays traverses a given BVH exactly on the meshes that
    uses_bvh names: those above 256 facets."""
    traversed = []
    traverse = accel._traverse
    monkeypatch.setattr(accel, "_traverse", lambda *args: traversed.append(1) or traverse(*args))
    for n, expect in ((256, False), (257, True)):
        mesh = random_triangles(np.random.default_rng(2), n)
        traversed.clear()
        intersect_rays(mesh, np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]), bvh=build_bvh(mesh))
        assert accel.uses_bvh(mesh) is expect
        assert bool(traversed) is expect


class TestIntersectScene:
    """intersect_rays through a BVH; every mesh is above the 256-facet
    threshold at which intersect_rays switches from the scan to the BVH."""

    def test_nearest_of_stacked_triangles(self):
        mesh = stacked_layers(np.random.default_rng(0), 300)
        bvh = build_bvh(mesh)
        fid, t, _, _, cos_t = cast(mesh, [0.3, 0.3, 2.0], [0, 0, -1], bvh=bvh)
        assert fid == 0
        assert t == pytest.approx(2.0, rel=1e-12)
        assert cos_t == pytest.approx(1.0)

    def test_miss_returns_none(self):
        mesh = stacked_layers(np.random.default_rng(1), 300)
        bvh = build_bvh(mesh)
        fid, t, m1, m2, cos_t = cast(mesh, [5.0, 5.0, 1.0], [0, 0, -1], bvh=bvh)
        assert (fid, t, m1, m2, cos_t) == (-1, np.inf, 0.0, 0.0, 0.0)

    def test_point_on_ray(self):
        mesh = random_triangles(np.random.default_rng(3), 300)
        bvh = build_bvh(mesh)
        rng = np.random.default_rng(4)
        centroids = mesh.vertices[mesh.facets].mean(axis=1)
        o = rng.uniform(2.5, 4, (200, 3)) * rng.choice([-1.0, 1.0], (200, 3))
        d = centroids[rng.integers(len(centroids), size=200)] - o
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        fid, t, m1, m2, cos_t = intersect_rays(mesh, o, d, bvh=bvh)
        hit = fid >= 0
        assert hit.sum() > 20
        point = o[hit] + t[hit, None] * d[hit]
        corners = mesh.vertices[mesh.facets[fid[hit]]]          # (k, 3, 3)
        recon = (m1[hit, None] * corners[:, 0] + m2[hit, None] * corners[:, 1]
                 + (1.0 - m1[hit] - m2[hit])[:, None] * corners[:, 2])
        np.testing.assert_allclose(recon, point, atol=1e-7)
        assert np.all((cos_t[hit] > 0.0) & (cos_t[hit] <= 1.0))


class TestBvhAgainstLinearScan:
    def test_random_scene_equivalence(self):
        mesh = random_triangles(np.random.default_rng(5), 400)
        bvh = build_bvh(mesh)
        rng = np.random.default_rng(6)
        origins = rng.uniform(-2, 2, size=(300, 3))
        dirs = rng.normal(size=(300, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        fid, t, _, _, _ = intersect_rays(mesh, origins, dirs, bvh=bvh)
        for i, (o, d) in enumerate(zip(origins, dirs)):
            expected = oracle_nearest_hit(mesh, o, d)
            if expected is None:
                assert fid[i] == -1
            else:
                assert fid[i] == expected[0]
                assert t[i] == pytest.approx(expected[1], rel=1e-9)

    def test_batch_paths_agree(self):
        mesh = random_triangles(np.random.default_rng(7), 500)
        bvh = build_bvh(mesh)
        rng = np.random.default_rng(8)
        origins = rng.uniform(-2, 2, size=(200, 3))
        dirs = rng.normal(size=(200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        fid_a, t_a, m1_a, m2_a, cos_a = intersect_rays(mesh, origins, dirs)
        fid_b, t_b, m1_b, m2_b, cos_b = intersect_rays(mesh, origins, dirs, bvh=bvh)
        np.testing.assert_array_equal(fid_a, fid_b)
        np.testing.assert_array_equal(t_a[fid_a >= 0], t_b[fid_b >= 0])
        np.testing.assert_array_equal(m1_a, m1_b)
        np.testing.assert_array_equal(cos_a, cos_b)


def assert_bvh_matches_scan(mesh, origins, directions):
    """The BVH wavefront and the linear scan agree bitwise on every output."""
    assert accel.uses_bvh(mesh)           # else intersect_rays ignores the BVH
    scan = intersect_rays(mesh, origins, directions)
    wave = intersect_rays(mesh, origins, directions, bvh=build_bvh(mesh))
    for name, a, b in zip(("fid", "t", "m1", "m2", "cos_theta"), scan, wave):
        np.testing.assert_array_equal(a, b, err_msg=name)
        np.testing.assert_array_equal(np.signbit(a), np.signbit(b), err_msg=name)
    return wave


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_facets=st.integers(257, 600),
       axis_parallel=st.booleans())
def test_bvh_wavefront_matches_scan(seed, n_facets, axis_parallel):
    """Rays from inside the root box, from outside it, and rays that miss it."""
    rng = np.random.default_rng(seed)
    mesh = random_triangles(rng, n_facets)
    n = 96
    inside = rng.uniform(-1.0, 1.0, (n // 3, 3))
    outside = rng.uniform(2.5, 4.0, (n - n // 3, 3)) * rng.choice([-1.0, 1.0], (n - n // 3, 3))
    origins = np.concatenate([inside, outside])
    directions = rng.normal(size=(n, 3))
    # the last third of the outside rays point away from the root box
    away = np.arange(n - n // 3, n)
    directions[away] = np.abs(directions[away]) * np.sign(origins[away])
    if axis_parallel:
        # zero components give +-inf slab times, NaN where an origin is on a face
        directions[np.arange(n), rng.integers(3, size=n)] = 0.0
        directions[::4, (rng.integers(3) + 1) % 3] = 0.0
        directions[np.all(directions == 0.0, axis=1), 2] = 1.0
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    fid = assert_bvh_matches_scan(mesh, origins, directions)[0]
    assert np.all(fid[away] == -1)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(12, 24))
def test_bvh_matches_scan_on_rays_in_face_planes(seed, n):
    """Rays with a zero direction component whose origin lies in a box face
    plane: side-looking tracks along x or y with rows on grid lines, and
    rays through a random BVH box in the plane of one of its faces."""
    rng = np.random.default_rng(seed)
    grid = grid_mesh(n)
    vertices = grid.vertices.copy()             # seeded heights; x and y stay on the lines
    vertices[:, 2] += rng.normal(0.0, 0.1, grid.num_vertices)
    mesh, lines = Mesh.from_arrays(vertices, grid.facets), np.linspace(0.0, 10.0, n + 1)
    bvh = build_bvh(mesh)
    # tracks: the fan of each row lies in the plane of a grid line
    rows = rng.choice(lines, 24)
    along = rng.integers(2, size=24)            # 0: track along x, 1: along y
    angle = rng.uniform(0.2, 1.3, 24)
    side = np.sin(angle) * rng.choice([-1.0, 1.0], 24)
    track_o = np.column_stack([rows, np.where(side > 0, -5.0, 15.0), np.full(24, 6.0)])
    track_d = np.column_stack([np.where(rng.random(24) < 0.5, 0.0, -0.0), side,
                               -np.cos(angle)])
    track_o[along == 1] = track_o[along == 1][:, [1, 0, 2]]
    track_d[along == 1] = track_d[along == 1][:, [1, 0, 2]]
    # boxes: a random face of a random node, crossed by a ray lying in its plane
    node = rng.integers(bvh.num_nodes, size=40)
    axis = rng.integers(3, size=40)
    lo, hi = bvh.box_min[node], bvh.box_max[node]
    target = lo + rng.random((40, 3)) * (hi - lo)
    face = np.where(rng.random((40, 1)) < 0.5, lo, hi)[np.arange(40), axis]
    target[np.arange(40), axis] = face
    box_d = rng.normal(size=(40, 3)) * [1.0, 1.0, 2.0] - [0.0, 0.0, 1.0]
    box_d[np.arange(40), axis] = 0.0
    box_d /= np.linalg.norm(box_d, axis=1, keepdims=True)
    box_o = target - 3.0 * box_d
    assert np.all(box_o[np.arange(40), axis] == face)
    fid = assert_bvh_matches_scan(mesh, np.concatenate([track_o, box_o]),
                                  np.concatenate([track_d, box_d]))[0]
    assert (fid >= 0).sum() >= 20


class TestBvhWavefront:
    def test_empty_ray_batch(self):
        mesh = random_triangles(np.random.default_rng(9), 300)
        for bvh in (build_bvh(mesh), None):
            out = intersect_rays(mesh, np.zeros((0, 3)), np.zeros((0, 3)), bvh=bvh)
            assert [a.shape for a in out] == [(0,)] * 5
            assert out[0].dtype == np.int64

    def test_mesh_without_facets_misses_every_ray(self):
        mesh = Mesh.from_arrays(np.eye(3), np.zeros((0, 3), dtype=np.int64))
        origins = np.array([[0.2, 0.2, 1.0], [0.0, 0.0, 0.0], [5.0, -1.0, 2.0]])
        directions = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.6, 0.0, -0.8]])
        fid, t, m1, m2, cos_theta = intersect_rays(mesh, origins, directions)
        assert fid.dtype == np.int64 and fid.tolist() == [-1, -1, -1]
        assert np.all(t == np.inf)
        for a in (m1, m2, cos_theta):
            assert a.dtype == np.float64 and a.tolist() == [0.0, 0.0, 0.0]

    @staticmethod
    def with_copies(rng, n_copies, n_facets=308):
        """Random facets plus n_copies of one flat triangle at z = 3, at
        random ids; downward rays from z = 5 hit every copy at t = 2."""
        copy_ids = np.sort(rng.choice(n_facets, size=n_copies, replace=False))
        tri = np.empty((n_facets, 3, 3))
        base = random_triangles(rng, n_facets - n_copies)
        tri[np.setdiff1d(np.arange(n_facets), copy_ids)] = base.vertices[base.facets]
        tri[copy_ids] = [[0.25, 0.25, 3.0], [1.25, 0.25, 3.0], [0.25, 1.25, 3.0]]
        mesh = Mesh.from_arrays(tri.reshape(-1, 3), np.arange(3 * n_facets).reshape(n_facets, 3))
        xy = 0.25 + rng.integers(1, 8, (50, 2)) / 32.0
        origins = np.column_stack([xy, np.full(50, 5.0)])
        return mesh, copy_ids, origins, np.tile([0.0, 0.0, -1.0], (50, 1))

    def test_duplicate_facets_in_different_leaves_lowest_id_wins(self):
        mesh, copy_ids, origins, directions = self.with_copies(np.random.default_rng(10), 8)
        bvh = build_bvh(mesh)
        leaf_of = np.empty(mesh.num_facets, dtype=np.int64)
        for node in np.flatnonzero(bvh.count > 0):
            leaf_of[bvh.order[bvh.start[node]:bvh.start[node] + bvh.count[node]]] = node
        assert len(set(leaf_of[copy_ids])) >= 2     # eight copies fill at least two leaves
        fid, t = assert_bvh_matches_scan(mesh, origins, directions)[:2]
        assert np.all(fid == copy_ids[0])
        assert np.all(t == 2.0)

    @pytest.mark.parametrize("lowest_id_deeper", [True, False])
    def test_tie_across_tree_levels_lowest_id_wins(self, lowest_id_deeper):
        """A hand-built tree puts one copy in a leaf at depth 1 and the other
        at depth 2, so the traversal meets the two equal-t hits in
        different steps, in either order."""
        mesh, (low, high), origins, directions = self.with_copies(np.random.default_rng(12), 2)
        shallow, deep = (high, low) if lowest_id_deeper else (low, high)
        rest = np.setdiff1d(np.arange(mesh.num_facets), [low, high])
        order = np.concatenate([[shallow, deep], rest])
        tri = mesh.vertices[mesh.facets]
        # root -> (leaf [shallow], inner -> (leaf [deep], leaf [rest]))
        spans = [order, order[:1], order[1:], order[1:2], order[2:]]
        bvh = Bvh(box_min=np.array([tri[ids].min(axis=(0, 1)) for ids in spans]),
                  box_max=np.array([tri[ids].max(axis=(0, 1)) for ids in spans]),
                  left=np.array([1, -1, 3, -1, -1]), right=np.array([2, -1, 4, -1, -1]),
                  start=np.array([0, 0, 1, 1, 2]), count=np.array([0, 1, 0, 1, len(rest)]),
                  order=order)
        fid, t, m1, m2, cos_t = intersect_rays(mesh, origins, directions, bvh=bvh)
        assert np.all(fid == low)
        assert np.all(t == 2.0)
        scan = intersect_rays(mesh, origins, directions)
        for a, b in zip(scan, (fid, t, m1, m2, cos_t)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("path", ["scan", "bvh"])
    @pytest.mark.parametrize("origins, directions", [
        (np.zeros((5, 3)), np.ones((4, 3))),
        (np.zeros(3), np.ones(3)),
        (np.zeros((4, 2)), np.ones((4, 2))),
        (np.zeros((4, 3)), np.ones((4, 3, 1))),
    ], ids=["different-n", "1-d", "two-columns", "3-d"])
    def test_malformed_rays_name_both_shapes(self, path, origins, directions):
        mesh = random_triangles(np.random.default_rng(9), 300)
        bvh = build_bvh(mesh) if path == "bvh" else None
        expect = f"origins {origins.shape} and directions {directions.shape} must be (n, 3)"
        with pytest.raises(ValueError, match=f"^{re.escape(expect)}"):
            intersect_rays(mesh, origins, directions, bvh=bvh)

    def test_allocates_for_the_rays_not_the_mesh(self):
        """16 rays into a 20k-facet grid: the traversal gathers the corners
        of the leaves it reaches, never an (F, 3) array per corner."""
        n = 100
        xs = np.linspace(0.0, 10.0, n + 1)
        x, y = np.meshgrid(xs, xs, indexing="ij")
        vertices = np.stack([x.ravel(), y.ravel(), 0.05 * np.sin(x + 2.0 * y).ravel()], axis=1)
        corner = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)[:n, :n].ravel()
        facets = np.concatenate([np.stack([corner, corner + n + 1, corner + n + 2], axis=1),
                                 np.stack([corner, corner + n + 2, corner + 1], axis=1)])
        mesh = Mesh.from_arrays(vertices, facets)
        bvh = build_bvh(mesh)
        rng = np.random.default_rng(13)
        origins = np.column_stack([rng.uniform(1.0, 9.0, (16, 2)), np.full(16, 5.0)])
        directions = np.tile([0.2, 0.1, -1.0], (16, 1)) / np.linalg.norm([0.2, 0.1, -1.0])
        tracemalloc.start()
        try:
            fid = intersect_rays(mesh, origins, directions, bvh=bvh)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mesh.num_facets == 20_000
        assert np.all(fid >= 0)
        assert peak < mesh.num_facets * 3 * 8, f"peak {peak} bytes"

    @pytest.mark.parametrize("built, used", [(20, 40), (40, 20)])
    def test_bvh_of_another_mesh_rejected(self, built, used):
        """A BVH over 800 facets used with 3,200 (and the reverse) would miss
        rays the scan hits, or index past the mesh."""
        bvh = build_bvh(grid_mesh(built))
        mesh = grid_mesh(used)
        rng = np.random.default_rng(14)
        origins = np.column_stack([rng.uniform(1.0, 9.0, (50, 2)), np.full(50, 5.0)])
        directions = np.tile([0.0, 0.0, -1.0], (50, 1))
        assert np.all(intersect_rays(mesh, origins, directions)[0] >= 0)
        expect = (f"BVH over {2 * built ** 2} facets does not fit a mesh of "
                  f"{2 * used ** 2} facets")
        with pytest.raises(ValueError, match=f"^{expect}$"):
            intersect_rays(mesh, origins, directions, bvh=bvh)

    def test_more_rays_than_one_traversal_batch(self):
        rng = np.random.default_rng(11)
        mesh = random_triangles(rng, 300)
        n = accel._TRAVERSE_BATCH + 37
        origins = rng.uniform(-2.0, 2.0, (n, 3))
        directions = rng.normal(size=(n, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        fid = assert_bvh_matches_scan(mesh, origins, directions)[0]
        assert (fid[accel._TRAVERSE_BATCH:] >= 0).any()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_brute_batch_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    mesh = random_triangles(rng, 40)
    o = rng.uniform(-2, 2, 3)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    fid, t, m1, m2, cos_t = intersect_rays(mesh, o[None, :], d[None, :])
    expected = oracle_nearest_hit(mesh, o, d)
    if expected is None:
        assert fid[0] == -1
    else:
        assert fid[0] == expected[0]
        assert t[0] == pytest.approx(expected[1], rel=1e-9)


class TestScanRuns:
    """The scan solves an origin's terms once per run of rays that share it;
    no ray's result depends on the runs or batches it comes in."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), runs=st.lists(st.integers(1, 40), min_size=1,
                                                           max_size=8),
           n_facets=st.sampled_from([1, 40, 700, 2000]), equal=st.booleans())
    def test_each_ray_as_if_alone(self, seed, runs, n_facets, equal):
        """Runs of equal or unequal length, from origins that differ only in
        the sign of a zero, with NaN directions among the rays; alone,
        shuffled and in the batch, every output is bitwise the same.  With
        700 or 2000 facets a scan batch holds 11 or 4 rays, so long runs are
        split."""
        rng = np.random.default_rng(seed)
        mesh = random_triangles(rng, n_facets)
        runs = [runs[0]] * len(runs) if equal else runs
        pool = np.array([[0.0, 0.0, 3.0], [-0.0, 0.0, 3.0], [0.0, -0.0, 3.0],
                         [1.5, -2.0, 2.5], [-1.0, 0.5, -3.0]])
        origins = np.repeat(pool[rng.integers(len(pool), size=len(runs))], runs, axis=0)
        n = origins.shape[0]
        # aimed at facet centroids, so that most rays hit
        targets = mesh.vertices.take(mesh.facets[rng.integers(n_facets, size=n)],
                                     axis=0).mean(axis=1)
        directions = targets + rng.normal(0.0, 0.1, (n, 3)) - origins
        directions[rng.random(n) < 0.1, rng.integers(3)] = np.nan
        batch = intersect_rays(mesh, origins, directions)
        order = rng.permutation(n)
        shuffled = intersect_rays(mesh, origins[order], directions[order])
        for i in range(n):
            alone = intersect_rays(mesh, origins[i:i + 1], directions[i:i + 1])
            for name, a, b in zip(("fid", "t", "m1", "m2", "cos_theta"), batch, alone):
                assert a[i:i + 1].tobytes() == b.tobytes(), (name, i)
        for name, a, b in zip(("fid", "t", "m1", "m2", "cos_theta"), batch, shuffled):
            assert a[order].tobytes() == b.tobytes(), name

    def test_scan_temporaries_stay_under_64_kib(self):
        """A (G, L, F) float64 temporary of a full batch is one request of at
        most 8 * _SCAN_PAIRS bytes.  glibc's chunk for a request of up to
        65,512 bytes (plus its 8-byte header, rounded to 16) is under 64 KiB,
        the size whose free consolidates and trims the heap."""
        assert accel._SCAN_PAIRS * 8 <= 65_512

    @pytest.mark.parametrize("scene", ["demo", "random"])
    def test_batch_size_changes_no_result(self, monkeypatch, tmp_path, scene):
        """The demo scene's 2,304 rays and runs of 48 rays on 200 random
        facets give bitwise the same hits in the batches of _SCAN_PAIRS and
        of the former 16,384 pairs."""
        if scene == "demo":
            from sartrace.cli import build_scene, parse_config
            from sartrace.imaging import generate_rays
            run_script(monkeypatch, "make_demo_scene.py", tmp_path)
            mesh, _, radars = build_scene(parse_config(tmp_path / "run.ini"), str(tmp_path))
            fans = [generate_rays(radar, np.arange(radar.num_azimuth)) for radar in radars]
            origins = np.concatenate([fan.origins for fan in fans])
            directions = np.concatenate([fan.directions for fan in fans])
            assert origins.shape == (2304, 3)
        else:
            rng = np.random.default_rng(23)
            mesh = random_triangles(rng, 200)
            origins = np.repeat(rng.uniform(-3.0, 3.0, (40, 3)), 48, axis=0)
            targets = mesh.vertices.take(mesh.facets[rng.integers(200, size=origins.shape[0])],
                                         axis=0).mean(axis=1)
            directions = targets + rng.normal(0.0, 0.1, origins.shape) - origins
        batches, mt = [], accel._mt

        def counted(*args):
            batches[-1] += 1
            return mt(*args)

        monkeypatch.setattr(accel, "_mt", counted)
        results = []
        for pairs in (accel._SCAN_PAIRS, 16_384):
            monkeypatch.setattr(accel, "_SCAN_PAIRS", pairs)
            batches.append(0)
            results.append(intersect_rays(mesh, origins, directions))
        assert batches[0] > batches[1] and (results[0][0] >= 0).sum() > origins.shape[0] // 2
        for name, a, b in zip(("fid", "t", "m1", "m2", "cos_theta"), *results):
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("lengths, most, run", [
        ([4, 4, 4], 100, 4), ([6, 4, 2], 100, 2), ([5, 3], 100, 1), ([12], 100, 12),
        ([1, 1, 1], 100, 1), ([12, 24], 5, 4), ([7, 7], 5, 1), ([48], 1, 1)])
    def test_run_length(self, lengths, most, run):
        """The largest divisor, up to most, of the gcd of the runs' lengths."""
        origins = np.repeat(np.arange(3.0 * len(lengths)).reshape(-1, 3), lengths, axis=0)
        assert accel._run_length(origins, most) == run

    def test_signed_zeros_never_share_a_run(self):
        origins = np.array([[0.0, 1.0, 2.0]] * 2 + [[-0.0, 1.0, 2.0]] * 2)
        assert accel._run_length(origins, 4) == 2
        origins[1, 0] = -0.0
        assert accel._run_length(origins, 4) == 1

    @pytest.mark.parametrize("n, rows", [(20, 3), (100, 2)])
    def test_scan_batches_bounded(self, monkeypatch, wave_hh, n, rows):
        """Each _mt call of the scan solves at most _SCAN_PAIRS (ray, facet)
        pairs, unless one ray alone needs more, and every pair once: on an
        800-facet grid at most 10 rays fit a batch, so a row of 16 is split
        into batches of 8, and on a 20,000-facet grid a batch is one ray."""
        from sartrace.scenes import side_looking_radar
        from sartrace.imaging import generate_rays
        mesh = grid_mesh(n)
        radar = side_looking_radar(wave_hh, distance=12.0, incidence=0.8, track_length=4.0,
                                   num_azimuth=rows, fan_halfwidth=0.2, num_angles=8,
                                   range_res=0.1, spua=2, seed=1, center=(5.0, 5.0, 0.0))
        fan = generate_rays(radar, np.arange(rows))
        pairs, mt = [], accel._mt

        def counted(*args):
            out = mt(*args)
            pairs.append(out[0].size)
            return out

        monkeypatch.setattr(accel, "_mt", counted)
        fid = intersect_rays(mesh, fan.origins, fan.directions)[0]
        assert (fid >= 0).all()
        assert all(p <= accel._SCAN_PAIRS or p == mesh.num_facets for p in pairs)
        assert sum(pairs) == fan.origins.shape[0] * mesh.num_facets
