"""The trace and shade paths against fancy-index and np.cross references.

The package reads rows with `take` on axis 0, which returns exactly the
rows fancy indexing returns.  The linear scan reads its triangles through
`accel._edges`, the BVH wavefront from `Bvh.corners`, and both solve
through `accel._mt`, so the BVH-vs-scan tests cannot see a change made
to the kernel.  These references gather with fancy indexing from the
mesh in `_edges`, `_traverse`, `intersect_rays`, `interpolate_at_hits`
and `backward`, and solve with the np.cross / np.einsum Moller-Trumbore
kernel that `_mt` replaced; every output must match them bitwise.  The
traversal reference starts at the root, goes down one tree level per
step, through `left` and `right`, and keeps each ray's nearest hit of a
step by a lexsort, where `_traverse` starts at the root's row, goes down
two levels through `Bvh.rows` and `Bvh.slots` and takes a segmented
minimum.  The reference slab-tests the exact float64 boxes (+-inf slab
times for a zero direction component, NaN skipped), where `_traverse`
runs a conservative float32 test, and the linear scan pins both
independently.  The backward reference reads the mesh from the ledger,
which is a shaded HitSet.
"""

import math

import numpy as np
import pytest

from sartrace import accel
from sartrace.accel import Bvh, build_bvh, intersect_rays
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
    """The wavefront one tree level per step: each inner-node pair becomes
    its two child pairs, and tnear > t_best is tested from the first step."""
    n = origins.shape[0]
    fid = np.full(n, -1, dtype=np.int64)
    t_best = np.full(n, np.inf)
    m1_best = np.zeros(n)
    m2_best = np.zeros(n)
    with np.errstate(divide="ignore"):
        inv_d = 1.0 / directions
    ray = np.arange(n)
    node = np.zeros(n, dtype=np.int64)
    while ray.size:
        o = origins[ray]
        with np.errstate(invalid="ignore"):
            t1 = (bvh.box_min[node] - o) * inv_d[ray]
            t2 = (bvh.box_max[node] - o) * inv_d[ray]
        near, far = np.minimum(t1, t2), np.maximum(t1, t2)
        tnear = np.fmax(np.fmax(near[:, 0], near[:, 1]), near[:, 2])
        tfar = np.fmin(np.fmin(far[:, 0], far[:, 1]), far[:, 2])
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
        # the scan needs its own reference: rounding can cull a box whose
        # face passes through a hit point, and the traversal then reaches
        # another facet
        edges = fancy_edges(mesh)
        fid, t, m1, m2 = map(np.concatenate, zip(*(
            accel._scan(*edges, origins[i:i + 1], directions[i:i + 1, None])
            for i in range(origins.shape[0]))))
    cos_theta = np.zeros(fid.size)
    hit = fid >= 0
    cos_theta[hit] = np.abs(np.einsum("nk,nk->n", mesh.facet_normals[fid[hit]], directions[hit]))
    return fid, t, m1, m2, cos_theta


def fancy_interpolate_at_hits(mesh, values, facet_ids, m1, m2):
    w = np.stack([m1, m2, 1.0 - m1 - m2], axis=1)
    return np.einsum("nj,njc->nc", w, values[mesh.facets[facet_ids]])


def fancy_backward(ledger, dLdI):
    mesh = ledger.mesh
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


def test_bvh_equals_scan_on_grid_aligned_track():
    """Rows at x = -6.0, -5.2, ... on the grid lines, directions with x = 0:
    every ray lies in box face planes, and the BVH gives the scan's facet."""
    mesh = heightfield(np.random.default_rng(0))
    radar = side_looking_radar(WaveConfig(9.6e9), distance=25.0, incidence=math.radians(40.0),
                               track_length=12.0, num_azimuth=16,
                               fan_halfwidth=math.radians(15.0), num_angles=16, range_res=0.1)
    fan = generate_rays(radar, np.arange(radar.num_azimuth))
    assert not fan.directions[:, 0].any()
    scan = intersect_rays(mesh, fan.origins, fan.directions)[0]
    wave = intersect_rays(mesh, fan.origins, fan.directions, bvh=build_bvh(mesh))[0]
    np.testing.assert_array_equal(wave, scan)


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
    ledger = HitLedger(mesh=mesh, radar=None, range_origin=0.0, image_shape=shape,
                       row=rng.integers(0, shape[0], k), range_bin=rng.integers(0, shape[1], k),
                       facet_id=fid, m1=m1, m2=m2, theta=np.zeros(k), ranges=np.zeros(k),
                       weight=rng.uniform(0.0, 1.0, k), sigma=rng.uniform(0.0, 1.0, k),
                       dsigma=rng.normal(size=(k, 4)))
    dLdI = rng.normal(size=shape)
    assert backward(ledger, dLdI).tobytes() == fancy_backward(ledger, dLdI).tobytes()


def assert_mt_matches_cross(origins, directions, triangles):
    """`_mt` against `cross_mt` on the scan's (F, 1, 3) x (R, 3) layout and on
    the BVH leaves' (P, 3) pair layout of every (ray, facet) pair: t bitwise
    everywhere, m1 and m2 bitwise wherever t is finite.  Returns the (R, F) t."""
    p3 = triangles[:, 2]
    edges = (p3, triangles[:, 0] - p3, triangles[:, 1] - p3)
    r, f = origins.shape[0], triangles.shape[0]
    pair_ray, pair_facet = np.repeat(np.arange(r), f), np.tile(np.arange(f), r)
    layouts = [
        ((origins, directions) + tuple(e[:, None, :] for e in edges), (f, r)),
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


def grandchild_oracle(bvh):
    """Each node's grandchildren as the rows of `Bvh.slots` list them (a
    leaf child for itself, -1 padding), by a loop over the nodes."""
    rows = []
    for j in range(bvh.num_nodes):
        row = []
        if bvh.count[j] == 0:
            for c in (bvh.left[j], bvh.right[j]):
                row += [c, -1] if bvh.count[c] > 0 else [bvh.left[c], bvh.right[c]]
        rows.append(row + [-1] * (4 - len(row)))
    return np.array(rows, dtype=np.int64)


def hand_bvh(mesh, tree):
    """A Bvh over a nested tree: a leaf is an array of facet ids, an inner
    node a (left, right) tuple.  Nodes are numbered in level order and
    every box is the exact bound of the facets below it."""
    queue, left = [tree], []
    for sub in queue:                      # the queue grows while it is read
        if isinstance(sub, tuple):
            left.append(len(queue))
            queue.extend(sub)
        else:
            left.append(-1)

    def below(sub):
        return np.concatenate([below(s) for s in sub]) if isinstance(sub, tuple) else sub

    left = np.array(left)
    count = np.array([0 if isinstance(s, tuple) else len(s) for s in queue])
    tri = mesh.vertices[mesh.facets]
    corners = [tri[np.asarray(below(s), dtype=np.int64)] for s in queue]
    # an empty leaf gets the empty box (inf, -inf)
    return Bvh(box_min=np.array([c.min(axis=(0, 1), initial=np.inf) for c in corners]),
               box_max=np.array([c.max(axis=(0, 1), initial=-np.inf) for c in corners]),
               left=left, right=np.where(left >= 0, left + 1, -1),
               start=np.where(count > 0, np.cumsum(count) - count, 0), count=count,
               order=np.concatenate([s for s in queue if not isinstance(s, tuple)]), mesh=mesh)


def soup(rng, n):
    """n random triangles in [-1, 1]^3, edges up to 0.3."""
    base = rng.uniform(-1.0, 1.0, (n, 1, 3))
    tri = np.concatenate([base, base + rng.uniform(-0.3, 0.3, (n, 2, 3))], axis=1)
    return Mesh.from_arrays(tri.reshape(-1, 3), np.arange(3 * n).reshape(n, 3))


def probe_rays(rng, mesh, n=160):
    """Rays aimed at random points of random facets, axis-parallel rays
    (zero direction components) through the mesh's box, rays that miss
    the whole box and rays with NaN origins."""
    lo, hi = mesh.bbox()
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0 + 1.0
    origins = mid + half * rng.uniform(-1.5, 1.5, (n, 3))
    corners = mesh.vertices[mesh.facets[rng.integers(mesh.num_facets, size=n)]]
    directions = np.einsum("nj,njk->nk", rng.dirichlet(np.ones(3), n), corners) - origins
    axis = rng.integers(3, size=n // 4)
    para_o = rng.uniform(lo, hi, (n // 4, 3))
    para_o[np.arange(n // 4), axis] = lo[axis] - 1.0
    para_d = np.zeros((n // 4, 3))
    para_d[np.arange(n // 4), axis] = 1.0
    away_o = hi + rng.uniform(1.0, 2.0, (n // 8, 3))
    away_d = rng.uniform(0.1, 1.0, (n // 8, 3))
    nan_o = rng.uniform(lo, hi, (8, 3)) + [0.0, 0.0, 3.0]
    nan_o[np.arange(8), np.arange(8) % 3] = np.nan
    nan_d = np.tile([0.1, 0.2, -1.0], (8, 1))
    return (np.concatenate([origins, para_o, away_o, nan_o]),
            np.concatenate([directions, para_d, away_d, nan_d]))


def copies(rng, n_facets=60, n_copies=6):
    """A soup holding n_copies of one flat triangle at z = 3 at random ids,
    so downward rays meet equal-t hits on different facets."""
    mesh = soup(rng, n_facets)
    copy_ids = np.sort(rng.choice(n_facets, size=n_copies, replace=False))
    tri = mesh.vertices[mesh.facets]
    tri[copy_ids] = [[0.25, 0.25, 3.0], [1.25, 0.25, 3.0], [0.25, 1.25, 3.0]]
    return Mesh.from_arrays(tri.reshape(-1, 3), mesh.facets), copy_ids


def split(ids, sizes):
    return np.split(np.asarray(ids, dtype=np.int64), np.cumsum(sizes)[:-1])


def balanced(parts):
    """A tree over the leaves `parts`, halved at each level."""
    half = len(parts) // 2
    return parts[0] if len(parts) == 1 else (balanced(parts[:half]), balanced(parts[half:]))


# Leaves at depths 1, 2 and 3, in either order under the root; then trees
# for the steps `_traverse` plans from the shallowest leaf's depth D: a
# root leaf (D = 0); D = 2, whose leaves the first step reaches, with -1
# padding in the rows of its last expansion; D = 3, odd, so the step at
# depth 2 is the last before a leaf step and its rows hold -1 padding;
# and D = 4, even, after an expansion without padding, with a deeper leaf.
HAND_SHAPES = {
    "depths-1-2-3": lambda ids: (lambda a, b, c, d: (a, (b, (c, d))))(*split(ids, [3, 5, 4, 8])),
    "depths-3-2-1": lambda ids: (lambda a, b, c, d: (((a, b), c), d))(*split(ids, [6, 2, 7, 5])),
    "depths-3-2-3": lambda ids: (lambda a, b, c, d, e, f, g: (((a, b), c), ((d, e), (f, g))))(
        *split(ids, [2, 3, 4, 3, 2, 3, 3])),
    "root-leaf": lambda ids: ids,
    "depths-2-3": lambda ids: (lambda a, b, c, d, e, f: ((a, b), ((c, d), (e, f))))(
        *split(ids, [3, 4, 3, 3, 4, 3])),
    "depths-3-4": lambda ids: (lambda a, b, c, d, e, f, g, h, i: (
        ((a, b), (c, (d, e))), ((f, g), (h, i))))(*split(ids, [2, 2, 3, 2, 2, 2, 3, 2, 2])),
    "depths-4-5": lambda ids: (lambda parts: balanced(parts[:5] + [tuple(parts[5:7])]
                                                      + parts[7:]))(np.array_split(ids, 17)),
}


def traverse_cases():
    """(name, mesh, bvh, origins, directions) of every parity case."""
    rng = np.random.default_rng(20_261)
    mesh = soup(rng, 3000)
    yield "soup", mesh, build_bvh(mesh), *probe_rays(rng, mesh)
    for name, shape in HAND_SHAPES.items():
        mesh = soup(rng, 20)
        yield name, mesh, hand_bvh(mesh, shape(rng.permutation(20))), *probe_rays(rng, mesh)
    mesh, copy_ids = copies(rng)
    rest = np.setdiff1d(np.arange(mesh.num_facets), copy_ids)
    down = (np.column_stack([0.3 + rng.integers(0, 12, (48, 2)) / 32.0, np.full(48, 5.0)]),
            np.tile([0.0, 0.0, -1.0], (48, 1)))
    yield "copies-built", mesh, build_bvh(mesh), *down
    # the copies in leaves at depths 1, 2 and 3, the lowest id deepest
    tree = ([copy_ids[5], copy_ids[4]], (list(copy_ids[2:4]) + list(rest[:30]),
                                         (copy_ids[:2], rest[30:])))
    yield "copies-hand", mesh, hand_bvh(mesh, tree), *down


def assert_traverse_matches_oracle_and_scan(bvh, mesh, origins, directions):
    """`_traverse` against `fancy_traverse`, and both against the linear
    scan, which pins the oracle's slab rule independently."""
    assert origins.shape[0] <= accel._TRAVERSE_BATCH
    got = accel._traverse(bvh, origins, directions)
    expect = fancy_traverse(bvh, mesh, origins, directions)
    scan = intersect_rays(mesh, origins, directions)
    for name, a, b, c in zip(("fid", "t", "m1", "m2"), got, expect, scan):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert a.tobytes() == c.tobytes(), f"{name} against the scan"
    return got


@pytest.mark.parametrize("case", traverse_cases(), ids=lambda case: case[0])
def test_traverse_matches_one_level_oracle(case):
    _, mesh, bvh, origins, directions = case
    got = assert_traverse_matches_oracle_and_scan(bvh, mesh, origins, directions)
    assert (got[0] >= 0).sum() >= 20


def test_traverse_matches_one_level_oracle_on_heightfield(traced):
    mesh, bvh, origins, directions = traced
    probe_o, probe_d = probe_rays(np.random.default_rng(3), mesh)
    origins, directions = np.concatenate([origins, probe_o]), np.concatenate([directions, probe_d])
    assert_traverse_matches_oracle_and_scan(bvh, mesh, origins, directions)


def test_copies_tie_to_the_lowest_id():
    case = {c[0]: c for c in traverse_cases()}
    for name in ("copies-built", "copies-hand"):
        _, mesh, bvh, origins, directions = case[name]
        fid, t = accel._traverse(bvh, origins, directions)[:2]
        lowest = np.flatnonzero(mesh.vertices[mesh.facets][:, 0, 2] == 3.0)[0]
        assert np.all(fid == lowest) and np.all(t == 2.0), name


def test_copies_in_sibling_leaves_across_two_batches():
    """Three equal-t copies in the four leaves of the root's grandchild row,
    which the first step reaches together: the highest id and the lowest
    in sibling leaves, the highest first.  More rays than one traversal
    batch, so intersect_rays splits them; every ray gets the lowest id,
    bitwise as the one-level oracle gives it per batch and as the scan."""
    rng = np.random.default_rng(20_263)
    mesh, copy_ids = copies(rng, n_facets=300, n_copies=3)
    rest = np.setdiff1d(np.arange(mesh.num_facets), copy_ids)
    tree = ((np.r_[copy_ids[2], rest[:40]], np.r_[copy_ids[0], rest[40:80]]),
            (np.r_[copy_ids[1], rest[80:200]], rest[200:]))
    bvh = hand_bvh(mesh, tree)
    assert accel.uses_bvh(mesh) and bvh.num_nodes == 7 and np.all(bvh.slots[0] < -1)
    n = accel._TRAVERSE_BATCH + 37
    origins = np.column_stack([0.3 + rng.integers(0, 12, (n, 2)) / 32.0, np.full(n, 5.0)])
    directions = np.tile([0.0, 0.0, -1.0], (n, 1))
    got = intersect_rays(mesh, origins, directions, bvh=bvh)
    batches = (slice(0, accel._TRAVERSE_BATCH), slice(accel._TRAVERSE_BATCH, n))
    expect = map(np.concatenate, zip(*(fancy_traverse(bvh, mesh, origins[b], directions[b])
                                       for b in batches)))
    scan = intersect_rays(mesh, origins, directions)
    for name, a, b, c in zip(("fid", "t", "m1", "m2"), got, expect, scan):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes() == c.tobytes(), name
    assert np.all(got[0] == copy_ids[0]) and np.all(got[1] == 2.0)


def two_step_mesh():
    """Nine facets for downward rays in four unit cells along x, each cell
    a case of a ray's hit in the first leaf step (a facet at z = 1 in the
    shallow leaf) met by one in the next step (in a deep leaf):
    - cell 0, nearer: facet 5 at z = 2;
    - cell 2, farther: facet 6 at z = 0.5, with facet 7, a vertical
      triangle at x = 3 that the rays miss, raising the leaf's box to
      z = 2, so the ray enters it before its first hit;
    - cell 4, a tie at equal t with a lower id: facet 0, a copy of 3;
    - cell 6, a tie at equal t with a higher id: facet 8, a copy of 4.
    The shallow leaf holds facets 1-4, one per cell."""
    def cell(x0, z):
        return [[x0, 0.0, z], [x0 + 1.0, 0.0, z], [x0, 1.0, z]]

    tri = [cell(4.0, 1.0), cell(0.0, 1.0), cell(2.0, 1.0), cell(4.0, 1.0), cell(6.0, 1.0),
           cell(0.0, 2.0), cell(2.0, 0.5), [[3.0, 0.0, 0.0], [3.0, 1.0, 0.0], [3.0, 0.5, 2.0]],
           cell(6.0, 1.0)]
    return Mesh.from_arrays(np.reshape(tri, (-1, 3)), np.arange(27).reshape(9, 3))


# (tree, leaf_depth): the shallow leaves at depth 1 or 2, the deep ones at
# depth 3, so the first leaf step is at d = 0 and the next one at d = 2
TWO_STEP_TREES = {
    "depths-1-3": (lambda shallow, deep: (shallow, balanced(deep)), 1),
    "depths-3-1": (lambda shallow, deep: (balanced(deep), shallow), 1),
    "depths-2-3": (lambda shallow, deep: (tuple(split(shallow, [2, 2])), balanced(deep)), 2),
}


@pytest.mark.parametrize("shape", TWO_STEP_TREES)
def test_second_leaf_step_compares_with_the_first_steps_hit(shape):
    """The first step with leaves takes each ray's nearest hit of the step
    as its best, with no comparison, as every best is still +inf there;
    a later step compares.  Against a first-step hit at t = 4 the next
    step's hit wins when it is nearer (cell 0) or ties with a lower id
    (cell 4), and loses when it is farther (cell 2) or ties with a higher
    id (cell 6), bitwise as the scan and the one-level oracle give it."""
    mesh = two_step_mesh()
    deep = [np.array(ids) for ids in ([5], [6, 7], [0], [8])]
    tree, leaf_depth = TWO_STEP_TREES[shape]
    bvh = hand_bvh(mesh, tree(np.arange(1, 5), deep))
    assert bvh.leaf_depth == leaf_depth
    spots = np.array([[0.25, 0.25], [0.5, 0.2], [0.1, 0.6]])
    x0 = np.repeat([0.0, 2.0, 4.0, 6.0], len(spots))
    origins = np.column_stack([x0 + np.tile(spots[:, 0], 4), np.tile(spots[:, 1], 4),
                               np.full(x0.size, 5.0)])
    directions = np.tile([0.0, 0.0, -1.0], (x0.size, 1))
    fid, t = assert_traverse_matches_oracle_and_scan(bvh, mesh, origins, directions)[:2]
    assert fid.tolist() == np.repeat([5, 2, 0, 4], len(spots)).tolist()
    assert t.tolist() == np.repeat([3.0, 4.0, 4.0, 4.0], len(spots)).tolist()


def test_tree_listing_a_facet_twice_or_never_is_rejected():
    """Bvh checks that `order` is a permutation of the facets and that the
    leaves' ranges cover each of its positions once, and names the first
    facet listed twice or never.  Two leaves that shared a facet used to
    pass, and a ray reaching both in one step raised an IndexError deep in
    `_traverse`."""
    mesh = soup(np.random.default_rng(20_264), 20)
    ids = np.arange(20)
    with pytest.raises(ValueError, match=r"^Bvh: the leaves list facet 0 2 times$"):
        hand_bvh(mesh, ((ids[:6], ids[6:12]), (ids[12:20], ids[:3])))
    with pytest.raises(ValueError, match=r"^Bvh: the leaves list facet 19 0 times$"):
        hand_bvh(mesh, ((ids[:6], ids[6:12]), ids[12:19]))
    tree = hand_bvh(mesh, ((ids[:6], ids[6:12]), ids[12:]))     # leaves at 8, 14 and 0
    fields = {name: getattr(tree, name).copy()
              for name in ("box_min", "box_max", "left", "right", "start", "count", "order")}
    for count, facet, times in ((7, 6, 2), (5, 5, 0)):     # the leaf at 8 overlaps or falls short
        fields["count"][3] = count
        with pytest.raises(ValueError, match=rf"^Bvh: the leaves list facet {facet} {times} "):
            Bvh(**fields, mesh=mesh)
    fields["count"][3] = 6
    for name, at, bad in (("order", 0, 20), ("order", 0, -1), ("start", 4, 15)):
        kept = fields[name][at]
        fields[name][at] = bad
        with pytest.raises(ValueError, match=r"^Bvh: a facet id or leaf range lies outside"):
            Bvh(**fields, mesh=mesh)
        fields[name][at] = kept
    assert Bvh(**fields, mesh=mesh).leaf_depth == 1


def test_leaf_without_facets_is_rejected():
    """Bvh tells leaves by their facet count in its derived tables, so a
    leaf with none (left = right = -1, count = 0) is refused, naming the
    node.  One above the other leaves' depth used to pass: its parent's
    -1 padding survived the repeat(4) expansion, wrapped to the last node,
    and `_traverse` raised an IndexError.  One at the deepest level is
    refused too."""
    mesh = soup(np.random.default_rng(20_265), 40)
    ids = np.arange(40)
    parts = np.array_split(ids, 15)

    def shape(first, last):
        """29 nodes: `first` a leaf at depth 3, fourteen leaves at depth 4,
        the last of them `last`."""
        rest = parts[1:14] + [last]
        return balanced([first] + [tuple(rest[2 * i:2 * i + 2]) for i in range(7)])

    assert hand_bvh(mesh, shape(parts[0], parts[14])).leaf_depth == 3
    for tree, node in ((shape(ids[:0], np.concatenate(parts[::14])), 7),
                       (shape(np.concatenate(parts[::14]), ids[:0]), 28)):
        with pytest.raises(ValueError, match=rf"^Bvh: leaf node {node} holds no facets$"):
            hand_bvh(mesh, tree)


def leaf_depth_oracle(bvh):
    """The depth of the shallowest leaf, by a walk from the root."""
    depth, stack = [], [(0, 0)]
    while stack:
        node, d = stack.pop()
        if bvh.count[node] > 0:
            depth.append(d)
        else:
            stack += [(bvh.left[node], d + 1), (bvh.right[node], d + 1)]
    return min(depth)


def assert_rows_match_the_tree(bvh):
    """`slots` and `rows` row by row from the root's, against
    `grandchild_oracle`: a row per node a step can hold (the root and the
    inner nodes at even depth, each once), each slot's box its node's
    padded by `_MARGIN` of the root box's magnitude and rounded outward to
    float32 (+inf for an empty slot), and a leaf root standing for itself
    in the root's row."""
    kids = grandchild_oracle(bvh)
    if bvh.count[0]:
        kids[0] = [0, -1, -1, -1]
    pad = accel._MARGIN * np.abs([bvh.box_min[0], bvh.box_max[0]]).max()
    node_of = {0: 0}
    assert bvh.slots.dtype == np.int64 and bvh.slots.shape[1] == 4
    assert bvh.rows.dtype == np.float32 and bvh.rows.shape == (2, 3, len(bvh.slots), 4)
    for row, codes in enumerate(bvh.slots):
        node = node_of[row]
        for slot, (code, kid) in enumerate(zip(codes, kids[node])):
            lo, hi = bvh.rows[0, :, row, slot], bvh.rows[1, :, row, slot]
            if kid < 0:
                assert code == -1 and np.all(lo == np.inf) and np.all(hi == np.inf)
                continue
            if bvh.count[kid]:
                assert code == -2 - kid
            else:
                assert code > row and code not in node_of
                node_of[code] = kid
            # outside the box padded by the margin, by at most two float32 steps
            for bound, edge, out in ((lo, bvh.box_min[kid] - pad, -np.inf),
                                     (hi, bvh.box_max[kid] + pad, np.inf)):
                inward = np.nextafter(np.nextafter(bound, -out), np.float32(-out))
                assert np.all(bound * np.sign(out) >= edge * np.sign(out))
                assert np.all(inward * np.sign(out) < edge * np.sign(out))
    even, stack = {0}, [(0, 0)]
    while stack:
        node, d = stack.pop()
        if bvh.count[node] == 0:
            even |= {node} if d % 2 == 0 else set()
            stack += [(bvh.left[node], d + 1), (bvh.right[node], d + 1)]
    assert sorted(node_of.values()) == sorted(even) and len(node_of) == len(bvh.slots)


def test_derived_arrays_match_the_tree(traced):
    """`rows` and `slots` against the tree's grandchildren; `box_min` and
    `box_max` stay the exact float64 boxes; `corners` holds each facet's
    (p3, p1 - p3, p2 - p3) in leaf order; `leaf_depth` is the shallowest
    leaf's depth."""
    rng = np.random.default_rng(20_262)
    trees = [traced[1], build_bvh(soup(rng, 3000)), build_bvh(soup(rng, 1)),
             build_bvh(soup(rng, 5)), build_bvh(soup(rng, 9))]
    trees += [case[2] for case in traverse_cases()]
    for bvh in trees:
        assert_rows_match_the_tree(bvh)
        assert bvh.box_min.dtype == bvh.box_max.dtype == np.float64
        assert bvh.box_min.shape == bvh.box_max.shape == (bvh.num_nodes, 3)
        p1, p2, p3 = bvh.mesh.vertices[bvh.mesh.facets][bvh.order].transpose(1, 0, 2)
        expect = np.stack([p3, p1 - p3, p2 - p3], axis=1)
        assert bvh.corners.dtype == np.float64 and bvh.corners.shape == (bvh.order.size, 3, 3)
        assert bvh.corners.tobytes() == expect.tobytes()
        assert bvh.leaf_depth == leaf_depth_oracle(bvh)
    depths = {case[0]: case[2].leaf_depth for case in traverse_cases()}
    assert depths["root-leaf"] == 0 and depths["depths-2-3"] == 2
    assert depths["depths-3-4"] == 3 and depths["depths-4-5"] == 4
    assert traced[1].leaf_depth == 12
