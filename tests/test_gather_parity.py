"""The trace and shade paths against fancy-index and np.cross references.

The package reads rows with `take` on axis 0, which returns exactly the
rows fancy indexing returns.  The linear scan and the BVH wavefront both
read corners through `accel._edges` and solve through `accel._mt`, so
the BVH-vs-scan tests cannot see a change made on both sides.  These
references gather with fancy indexing in `_edges`, `_traverse`,
`intersect_rays`, `interpolate_at_hits` and `backward`, and solve with
the np.cross / np.einsum Moller-Trumbore kernel that `_mt` replaced;
every output must match them bitwise.
"""

import math

import numpy as np
import pytest

from sartrace import accel
from sartrace.accel import build_bvh, intersect_rays
from sartrace.imaging import HitLedger, generate_rays
from sartrace.learn import backward
from sartrace.scatter import WaveConfig
from sartrace.scene import Mesh, interpolate_at_hits
from sartrace.scenes import side_looking_radar


def cross_mt(origins, directions, p3, h1, h2):
    """The Moller-Trumbore kernel on (..., 3) operands, by np.cross and np.einsum."""
    f1 = np.cross(directions, h2)
    det = np.einsum("...k,...k->...", f1, h1)
    h = origins - p3
    f2 = np.cross(h, h1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / det
        m1 = np.einsum("...k,...k->...", f1, h) * inv
        m2 = np.einsum("...k,...k->...", f2, directions) * inv
        t = np.einsum("...k,...k->...", f2, h2) * inv
        valid = ((det != 0.0) & (m1 >= 0.0) & (m2 >= 0.0) & (m1 + m2 <= 1.0)
                 & (t > accel.EPS_T))
    t = np.where(valid, t, np.inf)
    return t, m1, m2


def fancy_edges(mesh, ids=slice(None)):
    f = mesh.facets[ids]
    p1, p2, p3 = mesh.vertices[f[:, 0]], mesh.vertices[f[:, 1]], mesh.vertices[f[:, 2]]
    return p3, p1 - p3, p2 - p3


def fancy_traverse(bvh, mesh, origins, directions):
    n = origins.shape[0]
    fid = np.full(n, -1, dtype=np.int64)
    t_best = np.full(n, np.inf)
    m1_best = np.zeros(n)
    m2_best = np.zeros(n)
    inv_d = 1.0 / np.where(directions == 0.0, accel._INV_DIR_NUDGE, directions)
    ray = np.arange(n)
    node = np.zeros(n, dtype=np.int64)
    while ray.size:
        o = origins[ray]
        t1 = (bvh.box_min[node] - o) * inv_d[ray]
        t2 = (bvh.box_max[node] - o) * inv_d[ray]
        near, far = np.minimum(t1, t2), np.maximum(t1, t2)
        tnear = np.maximum(np.maximum(near[:, 0], near[:, 1]), near[:, 2])
        tfar = np.minimum(np.minimum(far[:, 0], far[:, 1]), far[:, 2])
        keep = ~((tnear > tfar) | (tfar < accel.EPS_T) | (tnear > t_best[ray]))
        ray, node = ray[keep], node[keep]

        count = bvh.count[node]
        leaf = count > 0
        if leaf.any():
            lcount = count[leaf]
            pair_ray = np.repeat(ray[leaf], lcount)
            offset = np.arange(pair_ray.size) - np.repeat(np.cumsum(lcount) - lcount, lcount)
            ids = bvh.order[np.repeat(bvh.start[node[leaf]], lcount) + offset]
            t, m1, m2 = cross_mt(origins[pair_ray], directions[pair_ray],
                                 *fancy_edges(mesh, ids))
            hit = np.isfinite(t)
            pair_ray, ids, t, m1, m2 = pair_ray[hit], ids[hit], t[hit], m1[hit], m2[hit]
            first = np.lexsort((ids, t, pair_ray))
            first = first[np.diff(pair_ray[first], prepend=-1) != 0]
            r = pair_ray[first]
            better = (t[first] < t_best[r]) | ((t[first] == t_best[r]) & (ids[first] < fid[r]))
            r, first = r[better], first[better]
            fid[r], t_best[r], m1_best[r], m2_best[r] = ids[first], t[first], m1[first], m2[first]

        inner = ~leaf
        ray = np.concatenate([ray[inner], ray[inner]])
        node = np.concatenate([bvh.left[node[inner]], bvh.right[node[inner]]])
    return fid, t_best, m1_best, m2_best


def fancy_intersect_rays(mesh, origins, directions, bvh=None):
    """intersect_rays for at most _TRAVERSE_BATCH rays, scanned one ray per
    batch on meshes above _SCAN_PAIRS facets."""
    assert origins.shape[0] <= accel._TRAVERSE_BATCH and mesh.num_facets > accel._SCAN_PAIRS
    if bvh is not None:
        fid, t, m1, m2 = fancy_traverse(bvh, mesh, origins, directions)
    else:
        # the scan needs its own reference: a ray lying in a box's face plane
        # can reach a different facet through the traversal
        edges = fancy_edges(mesh)
        fid, t, m1, m2 = map(np.concatenate, zip(*(
            accel._scan(*edges, origins[i:i + 1], directions[i:i + 1])
            for i in range(origins.shape[0]))))
    cos_theta = np.zeros(fid.size)
    hit = fid >= 0
    cos_theta[hit] = np.abs(np.einsum("nk,nk->n", mesh.facet_normals[fid[hit]], directions[hit]))
    return fid, t, m1, m2, cos_theta


def fancy_interpolate_at_hits(mesh, values, facet_ids, m1, m2):
    w = np.stack([m1, m2, 1.0 - m1 - m2], axis=1)
    return np.einsum("nj,njc->nc", w, values[mesh.facets[facet_ids]])


def fancy_backward(ledger, dLdI, mesh):
    g_sigma = dLdI[ledger.row, ledger.range_bin] * ledger.weight
    contrib = g_sigma[:, None] * ledger.dsigma
    bary = np.stack([ledger.m1, ledger.m2, 1.0 - ledger.m1 - ledger.m2], axis=1)
    scatter = (bary[:, :, None] * contrib[:, None, :]).reshape(-1, 4)
    vids = mesh.facets[ledger.facet_id].ravel()
    return np.stack([np.bincount(vids, weights=scatter[:, c], minlength=mesh.num_vertices)
                     for c in range(4)], axis=1)


def heightfield(rng, n=100, extent=20.0):
    """n x n cells x 2 = 20,000 facets of seeded rough terrain."""
    xs = np.linspace(-extent / 2.0, extent / 2.0, n + 1)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    z = (0.4 * np.sin(0.7 * x + rng.uniform(0.0, 6.0)) * np.cos(0.5 * y)
         + rng.normal(0.0, 0.03, x.shape))
    vertices = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    corner = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)[:n, :n].ravel()
    facets = np.concatenate([np.stack([corner, corner + n + 1, corner + n + 2], axis=1),
                             np.stack([corner, corner + n + 2, corner + 1], axis=1)])
    return Mesh.from_arrays(vertices, facets)


@pytest.fixture(scope="module")
def traced():
    """A 20k-facet heightfield, 256 jittered view rays and 48 axis-parallel rays."""
    rng = np.random.default_rng(20_260)
    mesh = heightfield(rng)
    radar = side_looking_radar(WaveConfig(9.6e9), distance=25.0, incidence=math.radians(40.0),
                               track_length=12.0, num_azimuth=8,
                               fan_halfwidth=math.radians(12.0), num_angles=16,
                               range_res=0.1, spua=2, seed=5)
    fan = generate_rays(radar, np.arange(radar.num_azimuth))
    down = np.column_stack([rng.uniform(-9.0, 9.0, (32, 2)), np.full(32, 3.0)])
    level = np.column_stack([np.full(16, -12.0), rng.uniform(-9.0, 9.0, 16),
                             rng.uniform(-0.3, 0.3, 16)])
    origins = np.concatenate([fan.origins, down, level])
    directions = np.concatenate([fan.directions, np.tile([0.0, 0.0, -1.0], (32, 1)),
                                 np.tile([1.0, 0.0, 0.0], (16, 1))])
    return mesh, build_bvh(mesh), origins, directions


@pytest.mark.parametrize("path", ["scan", "bvh"])
def test_intersect_matches_fancy_gathers(traced, path):
    mesh, bvh, origins, directions = traced
    bvh = bvh if path == "bvh" else None
    got = intersect_rays(mesh, origins, directions, bvh=bvh)
    expect = fancy_intersect_rays(mesh, origins, directions, bvh=bvh)
    assert mesh.num_facets >= 20_000 and accel.uses_bvh(mesh)
    assert (got[0][:256] >= 0).sum() > 200 and (got[0][256:] >= 0).sum() > 40
    for name, a, b in zip(("fid", "t", "m1", "m2", "cos_theta"), got, expect):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_shade_gathers_match_fancy(traced):
    mesh, bvh, origins, directions = traced
    fid, t, m1, m2, _ = intersect_rays(mesh, origins, directions, bvh=bvh)
    hit = fid >= 0
    fid, m1, m2 = fid[hit], m1[hit], m2[hit]
    rng = np.random.default_rng(7)
    values = rng.uniform(0.5, 2.0, (mesh.num_vertices, 4))
    got = interpolate_at_hits(mesh, values, fid, m1, m2)
    assert got.tobytes() == fancy_interpolate_at_hits(mesh, values, fid, m1, m2).tobytes()

    k, shape = fid.size, (8, 40)
    ledger = HitLedger(image_shape=shape, row=rng.integers(0, shape[0], k),
                       range_bin=rng.integers(0, shape[1], k), facet_id=fid, m1=m1, m2=m2,
                       weight=rng.uniform(0.0, 1.0, k), sigma=rng.uniform(0.0, 1.0, k),
                       dsigma=rng.normal(size=(k, 4)))
    dLdI = rng.normal(size=shape)
    assert backward(ledger, dLdI, mesh).tobytes() == fancy_backward(ledger, dLdI, mesh).tobytes()


def assert_mt_matches_cross(origins, directions, triangles):
    """`_mt` against `cross_mt` on the scan's (R, 1, 3) x (F, 3) layout and on
    the BVH leaves' (P, 3) pair layout of every (ray, facet) pair: t bitwise
    everywhere, m1 and m2 bitwise wherever t is finite.  Returns the (R, F) t."""
    p3 = triangles[:, 2]
    edges = (p3, triangles[:, 0] - p3, triangles[:, 1] - p3)
    r, f = origins.shape[0], triangles.shape[0]
    pair_ray, pair_facet = np.repeat(np.arange(r), f), np.tile(np.arange(f), r)
    layouts = [
        ((origins[:, None, :], directions[:, None, :]) + edges, (r, f)),
        ((origins[pair_ray], directions[pair_ray]) + tuple(e[pair_facet] for e in edges),
         (r * f,)),
    ]
    for args, shape in layouts:
        got, expect = accel._mt(*args), cross_mt(*args)
        assert got[0].shape == shape and got[0].dtype == np.float64
        assert got[0].tobytes() == expect[0].tobytes(), "t"
        finite = np.isfinite(expect[0])
        for name, a, b in zip(("m1", "m2"), got[1:], expect[1:]):
            assert a.shape == shape and a[finite].tobytes() == b[finite].tobytes(), name
    return expect[0].reshape(r, f)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mt_matches_cross_on_random_inputs(seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(1, 3))
    origins = rng.normal(size=(97, 3)) * scale
    directions = rng.normal(size=(97, 3))
    triangles = rng.normal(size=(23, 3, 3)) * scale
    assert_mt_matches_cross(origins, directions, triangles)
    # a near-flat patch under a downward fan, so that most pairs hit
    base = np.column_stack([rng.uniform(-1.0, 1.0, (40, 2)), rng.normal(0.0, 0.01, 40)])
    triangles = base[:, None, :] + rng.uniform(-1.5, 1.5, (40, 3, 3)) * [1.0, 1.0, 0.02]
    origins = np.column_stack([rng.uniform(-1.0, 1.0, (64, 2)), rng.uniform(1.0, 3.0, 64)])
    directions = np.column_stack([rng.normal(0.0, 0.2, (64, 2)), -np.ones(64)])
    t = assert_mt_matches_cross(origins, directions, triangles)
    assert np.isfinite(t).sum() > 150


def test_mt_matches_cross_on_edge_cases():
    # two facets of the unit square in z = 0, sharing the edge (1, 0, 0)-(0, 1, 0)
    square = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                       [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]])
    down = [0.0, 0.0, -1.0]
    eps = accel.EPS_T
    rays = [
        ([0.25, 0.25, 1.0], down),                          # inside the first facet
        ([0.3, 0.2, 0.0], [1.0, 0.0, 0.0]),                 # in the plane: det = 0
        ([-1.0, 0.5, 0.0], [0.6, 0.8, 0.0]),                # in the plane: det = 0
        ([0.0, 0.0, 2.0], down),                            # through a vertex
        ([1.0, 0.0, 2.0], down),                            # through a shared vertex
        ([1.0, 1.0, 0.5], down),                            # through a vertex, t = 0.5
        ([0.5, 0.5, 1.0], down),                            # through the shared edge
        ([0.25, 0.75, 3.0], down),                          # through the shared edge
        ([0.5, 0.0, 1.0], down),                            # through an outer edge
        ([0.2, 0.3, eps], down),                            # t = EPS_T
        ([0.2, 0.3, eps * (1.0 + 1e-9)], down),             # t just above EPS_T
        ([0.2, 0.3, eps * (1.0 - 1e-9)], down),             # t just below EPS_T
        ([0.2, 0.3, 2.0 * eps], [0.0, 0.0, -2.0]),          # t = EPS_T, |d| = 2
        ([0.2, 0.3, -1.0], down),                           # facet behind the ray
        ([0.2, 0.3, 1.0], [0.0, 0.0, 0.0]),                 # zero direction
        ([-0.5, 0.4, 1.0], [0.8, 0.0, -0.6]),               # zero y component
        ([0.4, -0.5, 1.0], [0.0, 0.8, -0.6]),               # zero x component
        ([np.nan, 0.3, 1.0], down),                         # NaN origin
        ([0.2, 0.3, np.nan], down),                         # NaN origin
        ([0.2, 0.3, 1.0], [np.nan, 0.0, -1.0]),             # NaN direction
    ]
    origins, directions = (np.array(a, dtype=np.float64) for a in zip(*rays))
    t = assert_mt_matches_cross(origins, directions, square)
    hit = np.isfinite(t)
    assert hit[[0, 3, 4, 5, 6, 7, 8, 10, 15, 16]].any(axis=1).all()
    assert not hit[[1, 2, 9, 11, 12, 13, 14, 17, 18, 19]].any()
