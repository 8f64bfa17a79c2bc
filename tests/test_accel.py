import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sartrace.accel import build_bvh, intersect_rays
from sartrace.scene import Mesh
from sartrace.scenes import box_mesh

from conftest import oracle_nearest_hit


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
        np.testing.assert_array_equal(a.order, b.order)
        np.testing.assert_array_equal(a.box_min, b.box_min)

    def test_empty_mesh_rejected(self):
        mesh = Mesh(vertices=np.zeros((3, 3)), facets=np.zeros((0, 3), dtype=np.int64),
                    facet_normals=np.zeros((0, 3)))
        with pytest.raises(ValueError):
            build_bvh(mesh)


def stacked_layers(rng, n_copies):
    """n_copies unit triangles stacked along z at random xy offsets, so
    a downward ray crosses several facets and the nearest one must win."""
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    shift = np.column_stack([rng.uniform(-0.2, 0.2, (n_copies, 2)),
                             -np.arange(n_copies) * 0.01])
    vertices = (tri[None, :, :] + shift[:, None, :]).reshape(-1, 3)
    facets = np.arange(3 * n_copies).reshape(n_copies, 3)
    return Mesh.from_arrays(vertices, facets)


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
