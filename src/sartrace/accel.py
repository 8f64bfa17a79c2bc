"""Ray-triangle intersection and a bounding volume hierarchy.

`build_bvh` builds a median-split BVH one tree level at a time: all
nodes of a level are split in one numpy step, and nodes are numbered in
level order, so children come after their parent.  The step sorts
integers, not floats: each facet's centroid coordinates are ranked once
per axis, ties kept, and a level sorts one int64 key per facet that
packs its node, its rank along the node's axis and its position in the
node's range.  The keys are unique and ordered as a stable lexsort of
(node, coordinate) orders the facets, so the tree is that lexsort's.

Intersections solve o + t*d = m1*p1 + m2*p2 + (1-m1-m2)*p3 for
(t, m1, m2); a hit requires the weights to lie in the simplex and
t > EPS_T.  The Moller-Trumbore kernel `_mt` works one coordinate plane
at a time: each cross and dot product is a few elementwise numpy ops on
the x, y and z views of its operands.  `intersect_rays` finds nearest
hits one ray batch at a time, by one of two paths that share `_mt`:

- a linear scan that solves every (ray, facet) pair of the batch; the
  terms of (origin, facet) alone are solved once per run of rays with
  one origin, such as an azimuth row, as coherent ray tracers share
  them across a packet (Wald, Slusallek, Benthin and Wagner, 2001);
- a breadth-first BVH traversal (a wavefront): every ray starts paired
  with the nodes of the root's `Bvh.grandchild` row, and each step
  slab-tests all live (ray, node) pairs at once, drops the pairs that
  miss or lie beyond the ray's nearest hit so far (one fused test,
  tnear > fmin(tfar, t_best)), solves the (ray, facet) pairs of the
  leaves reached, and replaces each inner-node pair by up to four pairs
  with the node's descendants two levels down, so a step goes down two
  tree levels.  The frontier stays sorted by ray, so each ray's nearest
  hit of a step is a segmented minimum, not a sort.  A step does only
  what its tree level needs, known from `Bvh.leaf_depth`, the depth of
  the shallowest leaf: a step whose nodes lie above it looks for no
  leaves; one whose nodes' children lie above it too expands every pair
  four-fold, with no -1 padding to drop; and until a step has solved
  leaves, every t_best is +inf and none is read.  A leaf pair reads its
  triangle from `Bvh.corners`, each facet's (p3, p1 - p3, p2 - p3) in
  leaf order, so the facets of one leaf are adjacent rows and no view
  forms the edges again; the facet ids are read only for the hits.

Both paths keep the smallest (t, facet_id) per ray, whatever the
traversal order; ties on t resolve to the lowest facet id.  They agree
bitwise on every pair both solve.  A zero direction component gives
+-inf slab times, or NaN, which the slab test skips, where the origin
lies on a face plane: a ray in a face plane (a track on a grid's lines)
is bounded by its other axes.  Rounding can still cull a box whose face
passes through the hit point, and then the BVH facet differs from the
scan's.  `uses_bvh` says on which meshes a BVH is traversed.

Watertightness is not claimed: rays grazing a shared edge may report
either adjacent facet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sartrace.scene import Mesh

# self-intersection guard along the ray, meters
EPS_T = 1e-6

# (ray, facet) pairs per linear-scan batch: `_mt` keeps at most about ten
# (F, R) float64 temporaries alive at once, with R * F at most this.  Each
# stays under 64 KiB (8 * 8000 bytes): freeing a chunk of 64 KiB or more lets
# glibc trim the heap top, and the next batch faults those pages back in
_SCAN_PAIRS = 8000

# rays per BVH traversal batch; bounds the (ray, node) frontier, which a
# step can grow four-fold
_TRAVERSE_BATCH = 1024

# facets per block of Bvh.corners filled at once
_CORNER_BLOCK = 4096

# most facets per BVH leaf
_LEAF_SIZE = 4

# meshes of at most this many facets are scanned even when a BVH is given
BVH_MIN_FACETS = 256


def _xyz(a):
    """The x, y and z views of a (..., 3) array, without np.moveaxis's overhead."""
    return a[..., 0], a[..., 1], a[..., 2]


def _mt(origins, directions, p3, h1, h2):
    """Moller-Trumbore solve over broadcast rays and triangles, one
    coordinate plane at a time.

    Triangles come as (p3, p1 - p3, p2 - p3), from `_edges` or as rows
    of `Bvh.corners`.  Returns (t, m1, m2) of the broadcast leading
    shape, with t = +inf marking misses.  The linear scan passes
    (F, 1, 1, 3) triangles, (1, G, 1, 3) origins and (1, G, L, 3)
    directions, G runs of L rays with one origin: h = o - p3, f2 = h x h1
    and t's numerator f2 . h2 are then (F, G, 1), and only the terms that
    read d are (F, G, L).  The facet axis comes first, so numpy's inner
    loops run over a run's rays, not over a small mesh's few facets.  The
    BVH leaves pass (P, 3) pairs and every product is (P,).  Every value
    comes from the same elementwise arithmetic in any layout.

    The cross and dot products are written out on the (..., 3) arrays'
    component views.  Their values are bitwise those of np.cross and of
    np.einsum("...k,...k->...") on the same operands: np.cross computes
    each component as a1*b2 - a2*b1, and numpy's einsum sums three
    products as (x0*y0 + x2*y2) + x1*y1.  Temporaries are dropped as
    soon as they are used up, to keep the scan's peak memory down.
    """
    dx, dy, dz = _xyz(directions)
    ax, ay, az = _xyz(h1)
    bx, by, bz = _xyz(h2)
    # f1 = d x h2
    f1x = dy * bz - dz * by
    f1y = dz * bx - dx * bz
    f1z = dx * by - dy * bx
    det = (f1x * ax + f1z * az) + f1y * ay
    # h = o - p3
    ox, oy, oz = _xyz(origins)
    px, py, pz = _xyz(p3)
    hx, hy, hz = ox - px, oy - py, oz - pz
    with np.errstate(divide="ignore", invalid="ignore"):
        valid = det != 0.0
        inv = np.divide(1.0, det, out=det)
        m1 = (f1x * hx + f1z * hz) + f1y * hy
        m1 *= inv
        del f1x, f1y, f1z
        # f2 = h x h1
        f2x = hy * az - hz * ay
        f2y = hz * ax - hx * az
        f2z = hx * ay - hy * ax
        del hx, hy, hz
        m2 = (f2x * dx + f2z * dz) + f2y * dy
        m2 *= inv
        t = np.multiply((f2x * bx + f2z * bz) + f2y * by, inv, out=inv)
        valid &= (m1 >= 0.0) & (m2 >= 0.0) & (m1 + m2 <= 1.0) & (t > EPS_T)
    t[~valid] = np.inf
    return t, m1, m2


@dataclass(frozen=True)
class Bvh:
    """Flat binary BVH; leaves hold ranges into the facet permutation.

    A Bvh answers only for `mesh`, the mesh object it was built over.
    Four things are derived from the tree.  `grandchild`: the row of an
    inner node lists (left's left, left's right, right's left, right's
    right), where a leaf child stands for itself in its pair of slots
    and -1 pads the other; leaf rows are all -1.  `slabs`: the boxes as
    zero-padded (min, max) rows of four, of which `box_min` and
    `box_max` become views; `take` gathers 32-byte rows about twice as
    fast as 24-byte ones.  `corners`: row j holds facet `order[j]` in
    the form `_mt` reads, (p3, p1 - p3, p2 - p3), 72 bytes per facet, so
    a leaf's triangles are adjacent rows and no view subtracts them
    again.  `leaf_depth`: the depth of the shallowest leaf (the root is
    at depth 0), so no node above it is a leaf; `build_bvh` splits at
    the facet-count median, so its leaves lie at one or two depths.

    A tree must hold each facet in exactly one leaf: `order` a
    permutation of the facets whose positions the leaves' [start, start +
    count) ranges cover once each.  Otherwise construction raises a
    ValueError naming the first facet listed twice or never, since a ray
    that reached two copies of a facet in one step would break the
    traversal's per-ray bookkeeping.
    """

    box_min: np.ndarray    # (n_nodes, 3)
    box_max: np.ndarray    # (n_nodes, 3)
    left: np.ndarray       # (n_nodes,) child index, -1 at leaves; children
    right: np.ndarray      #   are numbered after their parent
    start: np.ndarray      # (n_nodes,) leaf range start into `order`
    count: np.ndarray      # (n_nodes,) leaf facet count, 0 for inner nodes
    order: np.ndarray      # (n_facets,) facet permutation
    mesh: Mesh = field(repr=False, compare=False)
    grandchild: np.ndarray = field(init=False, repr=False, compare=False)  # (n_nodes, 4)
    slabs: np.ndarray = field(init=False, repr=False, compare=False)       # (2, n_nodes, 4)
    corners: np.ndarray = field(init=False, repr=False, compare=False)     # (n_facets, 3, 3)
    leaf_depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, m, leaf = self.mesh.num_facets, self.order.size, self.left < 0
        lo, hi = self.start[leaf], self.start[leaf] + self.count[leaf]
        if ((self.order < 0) | (self.order >= n)).any() or (lo < 0).any() or (hi > m).any():
            raise ValueError(f"Bvh: a facet id or leaf range lies outside the {n} facets")
        cover = np.cumsum(np.bincount(lo, minlength=m + 1) - np.bincount(hi, minlength=m + 1))
        listed = np.bincount(self.order, cover[:m], n)
        wrong = np.flatnonzero(listed != 1)
        if wrong.size:
            raise ValueError(f"Bvh: the leaves list facet {wrong[0]} {listed[wrong[0]]:.0f} times")
        slabs = np.zeros((2, self.num_nodes, 4))
        slabs[0, :, :3], slabs[1, :, :3] = self.box_min, self.box_max
        object.__setattr__(self, "slabs", slabs)
        object.__setattr__(self, "box_min", slabs[0, :, :3])
        object.__setattr__(self, "box_max", slabs[1, :, :3])
        node = np.flatnonzero(self.count == 0)
        kids = np.stack([self.left.take(node), self.right.take(node)], axis=1)
        deep = self.count.take(kids) == 0
        table = np.full((self.num_nodes, 2, 2), -1, dtype=np.int64)
        table[node] = np.stack([np.where(deep, self.left.take(kids), kids),
                                np.where(deep, self.right.take(kids), -1)], axis=2)
        object.__setattr__(self, "grandchild", table.reshape(-1, 4))
        # a block of facets at a time: one take of the whole table would hold
        # (n_facets, 3) ids beside it and raise build_bvh's peak
        corners = np.empty((self.order.size, 3, 3))
        with np.errstate(over="ignore", invalid="ignore"):     # edges of +-1e308 corners
            for lo in range(0, self.order.size, _CORNER_BLOCK):
                rows = corners[lo:lo + _CORNER_BLOCK]
                ids = self.mesh.facets.take(self.order[lo:lo + _CORNER_BLOCK], axis=0)
                rows[:, 0], rows[:, 1], rows[:, 2] = _edges(self.mesh.vertices, ids)
        object.__setattr__(self, "corners", corners)
        level, depth = np.zeros(1, dtype=np.int64), 0
        while not self.count.take(level).any():
            level = np.concatenate([self.left.take(level), self.right.take(level)])
            depth += 1
        object.__setattr__(self, "leaf_depth", depth)

    @property
    def num_nodes(self) -> int:
        return self.left.shape[0]


def build_bvh(mesh: Mesh) -> Bvh:
    """Median-split BVH on the longest centroid-bounds axis.

    Built one tree level per step.  Each node owns a contiguous range
    of `order`; every node of a level with more than `_LEAF_SIZE` facets
    is split at once: range centroid bounds by `reduceat`, the axis of
    largest extent (ties to the first axis), one sort that orders every
    range along its own axis, stable inside each range, and a split at
    the facet-count midpoint.  The sort is of one int64 key per facet,
    (node, rank of its centroid along the node's axis, position in the
    node's range): the ranks keep every tie of the float coordinates,
    and the position makes each key unique, so the sorted keys give the
    permutation of a stable lexsort of (node, coordinate).  Nodes are
    numbered in level order, so the children of the j-th inner node are
    nodes 2j+1 and 2j+2.  Leaf boxes are reduced over their ranges and
    inner boxes are the min/max of their children's, so every box is
    exact.  Deterministic for a given mesh of at most 2**31 facets.
    """
    # Bvh derives its grandchild and corner tables once the build's
    # temporaries are freed, so they add less than they would inside it
    return Bvh(**_median_split(mesh), mesh=mesh)


def _facet_boxes(mesh: Mesh):
    """Each facet's (min corner, max corner, centroid), each (F, 3).

    Elementwise over the corners p1, p2 and p3, and bitwise the
    reductions over axis 1 of the (F, 3, 3) corners: numpy's sum starts
    from +0.0, and ((+0.0 + p1) + p2) + p3 is (p1 + p2) + p3 except that
    three -0.0 corners sum to +0.0; the mean divides the sum by 3.
    """
    # (3, F, 3): contiguous corners; take, since fancy indexing costs 3-4x more
    p1, p2, p3 = mesh.vertices.take(mesh.facets.T, axis=0)
    centroids = p1 + p2
    centroids += p3
    centroids += 0.0
    centroids /= 3.0
    return (np.minimum(np.minimum(p1, p2), p3), np.maximum(np.maximum(p1, p2), p3),
            centroids)


def _axis_ranks(coords) -> np.ndarray:
    """Ranks of (3, F) coordinates along each row, flattened to (3 * F,)
    int64: equal values share a rank, -0.0 and +0.0 among them, as do
    two infinities of one sign (sorted neighbours compare with !=, not
    np.diff, whose inf - inf is NaN)."""
    ranks = np.empty(coords.shape, dtype=np.int64)
    for row, values in zip(ranks, coords):
        by_value = np.argsort(values)
        values = values.take(by_value)
        row[by_value[0]] = 0
        row[by_value[1:]] = np.cumsum(values[1:] != values[:-1])
    return ranks.ravel()


def _median_split(mesh: Mesh) -> dict:
    """The arrays of `build_bvh`'s tree, as Bvh keyword arguments."""
    n = mesh.num_facets
    if n == 0:
        raise ValueError("cannot build a BVH over an empty mesh")
    # a level's key packs a node, a rank and a position in 2 * rank_bits bits:
    # level L has at most 2**L ranges of at most ceil(n / 2**L) facets each
    rank_bits = (n - 1).bit_length()
    if rank_bits > 31:
        raise ValueError(f"cannot build a BVH over {n} facets: at most 2**31")
    facet_min, facet_max, centroids = _facet_boxes(mesh)
    centroids = np.ascontiguousarray(centroids.T)      # (3, F): one row per axis
    ranks = _axis_ranks(centroids)
    order = np.arange(n, dtype=np.int64)

    # (lo, hi) ranges of `order` of the nodes of each level
    lo, hi = [np.zeros(1, dtype=np.int64)], [np.full(1, n, dtype=np.int64)]
    while True:
        split = hi[-1] - lo[-1] > _LEAF_SIZE
        if not split.any():
            break
        a, b = lo[-1][split], hi[-1][split]
        size = b - a
        # the split nodes' ranges, back to back from `first`; `local` is the
        # position inside the range
        first = np.cumsum(size) - size
        base = np.repeat(first, size)
        local = np.arange(base.size) - base
        pos = np.repeat(a, size) + local
        ids = order.take(pos)
        c = centroids.take(ids, axis=1)
        extent = np.maximum.reduceat(c, first, axis=1) - np.minimum.reduceat(c, first, axis=1)
        # one unique key per facet, (node, rank along the node's axis, local);
        # the node is the top field, so a sorted key stays in its node's range
        # and its low bits give the range's stable order
        local_bits = int(size.max() - 1).bit_length()
        key = ranks.take(np.repeat(np.argmax(extent, axis=0) * n, size) + ids)
        key |= np.repeat(np.arange(size.size) << rank_bits, size)
        key <<= local_bits
        key |= local
        key.sort()
        key &= (1 << local_bits) - 1
        key += base
        order[pos] = ids.take(key)
        mid = a + size // 2
        # each split node's two children, side by side in the next level
        lo.append(np.array((a, mid)).T.ravel())
        hi.append(np.array((mid, b)).T.ravel())
    del centroids, ranks        # else they would set the peak at the leaf boxes

    level_start = np.cumsum([0] + [x.size for x in lo])
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    inner = hi - lo > _LEAF_SIZE
    left = np.full(lo.size, -1, dtype=np.int64)
    left[inner] = 1 + 2 * np.arange(np.count_nonzero(inner))
    right = np.where(inner, left + 1, -1)

    box_min = np.empty((lo.size, 3))
    box_max = np.empty((lo.size, 3))
    # leaves partition `order`, so one reduceat over the leaves by range start
    leaves = np.flatnonzero(~inner)
    leaves = leaves[np.argsort(lo[leaves])]
    box_min[leaves] = np.minimum.reduceat(facet_min.take(order, axis=0), lo[leaves])
    box_max[leaves] = np.maximum.reduceat(facet_max.take(order, axis=0), lo[leaves])
    # inner boxes level by level, from the deepest up
    inner_ids = np.flatnonzero(inner)
    cut = np.searchsorted(inner_ids, level_start)
    for begin, end in zip(cut[-2::-1], cut[:0:-1]):
        node = inner_ids[begin:end]
        lc, rc = left.take(node), right.take(node)
        box_min[node] = np.minimum(box_min.take(lc, axis=0), box_min.take(rc, axis=0))
        box_max[node] = np.maximum(box_max.take(lc, axis=0), box_max.take(rc, axis=0))
    return dict(box_min=box_min, box_max=box_max, left=left, right=right,
                start=np.where(inner, 0, lo), count=np.where(inner, 0, hi - lo), order=order)


def uses_bvh(mesh: Mesh) -> bool:
    """Whether intersect_rays traverses a BVH on this mesh or scans it."""
    return mesh.num_facets > BVH_MIN_FACETS


def _edges(vertices, facets):
    """(p3, p1 - p3, p2 - p3) of each (F, 3) facet row, each (F, 3)."""
    p1, p2, p3 = vertices.take(facets.T, axis=0)    # (3, F, 3): contiguous corners
    return p3, p1 - p3, p2 - p3


def _scan(p3, h1, h2, origins, directions):
    """Nearest hits of runs of rays against every facet.

    origins (G, 3) holds one origin per run and directions (G, L, 3) the
    rays of each run.  Returns (facet_id, t, m1, m2) of the G * L rays in
    order, with facet_id = -1 and t = +inf for misses.
    """
    t, m1, m2 = _mt(origins[None, :, None, :], directions[None], p3[:, None, None, :],
                    h1[:, None, None, :], h2[:, None, None, :])
    t, m1, m2 = (a.reshape(a.shape[0], -1) for a in (t, m1, m2))
    j = np.argmin(t, axis=0)          # first occurrence = lowest facet id
    # the winning row of each (F, R) column, as one flat take
    flat = j * t.shape[1] + np.arange(t.shape[1])
    tj = t.take(flat)
    hit = np.isfinite(tj)
    return (np.where(hit, j, -1), tj,
            np.where(hit, m1.take(flat), 0.0), np.where(hit, m2.take(flat), 0.0))


def _run_length(origins, most: int) -> int:
    """The largest L <= most such that the rays split into runs of L
    consecutive rays with bit-identical origins: a divisor of the gcd of
    the maximal runs' lengths.  +0.0 and -0.0 never share a run."""
    bits = origins.view(np.int64)
    starts = np.flatnonzero((bits[1:] != bits[:-1]).any(axis=1)) + 1
    runs = int(np.gcd.reduce(np.diff(starts, prepend=0, append=origins.shape[0])))
    return max(d for d in range(1, min(runs, most) + 1) if runs % d == 0)


def _traverse(bvh: Bvh, origins, directions):
    """Nearest hits of a ray batch through the BVH, two tree levels per step.

    The frontier is a pair of arrays (ray, node), sorted by ray.  It
    starts at the root's `grandchild` row (at the root when the root is a
    leaf), and a step replaces each inner-node pair by its pairs with the
    node's `grandchild` row; a leaf child stays in the frontier as
    itself.  So a step's frontier holds nodes at depth d (d = 2, 4, ...,
    or d = 0 at a leaf root) and leaves at depth d - 1.  Skipping the
    root's and the children's slab tests changes no result: an inner box
    is the exact min/max of its children's boxes and the slab arithmetic
    is monotone in the bounds, so a grandchild pair survives only where
    its parent pair would have, and the per-ray smallest (t, facet_id)
    does not depend on the order of the pairs.  A pair is dropped where
    tnear > fmin(tfar, t_best), which is (tnear > tfar) | (tnear >
    t_best), also for a NaN tfar, or where tfar < EPS_T.  Compaction and
    expansion keep the order of the pairs, so the frontier stays sorted
    by ray, and so do the (ray, facet) pairs of the leaves reached, which
    read their triangles from `Bvh.corners`: each ray's smallest t of a
    step, then its lowest facet id at that t, is a minimum over the ray's
    segment.

    A step does only the work its depth needs, from D = `leaf_depth`:
    while d < D the frontier holds no leaf, so the step does not look for
    one; while d + 1 < D no child of a frontier node is a leaf, so no
    `grandchild` row holds -1 padding and every pair becomes four by
    `repeat`; and until a step with leaves has run every t_best is +inf,
    where tnear > fmin(tfar, inf) is tnear > tfar, so the step reads no
    t_best.  Returns the same (facet_id, t, m1, m2) as `_scan`.
    """
    n = origins.shape[0]
    fid = np.full(n, -1, dtype=np.int64)
    t_best = np.full(n, np.inf)
    m1_best = np.zeros(n)
    m2_best = np.zeros(n)
    with np.errstate(divide="ignore"):
        inv_d = 1.0 / directions
    # rows of four like `slabs`: the padding column's t is (0 - 0) * 1
    o_pad, inv_pad = np.zeros((n, 4)), np.ones((n, 4))
    o_pad[:, :3], inv_pad[:, :3] = origins, inv_d
    depth = bvh.leaf_depth
    if depth == 0:
        d, top = 0, np.zeros(1, dtype=np.int64)
    else:
        d, top = 2, bvh.grandchild[0]
        top = top[top >= 0]
    ray, node = np.repeat(np.arange(n), top.size), np.tile(top, n)
    # 0 * inf in the slab test: a zero direction component, origin on a face
    with np.errstate(invalid="ignore"):
        while ray.size:
            # (2, P, 4) min and max rows, in place where an operand is used up
            slab = bvh.slabs.take(node, axis=1)
            slab -= o_pad.take(ray, axis=0)
            slab *= inv_pad.take(ray, axis=0)
            # elementwise over the three slabs: a length-3 axis reduction is slower;
            # fmax and fmin skip a NaN slab, so the other axes bound that ray
            near, far = np.minimum(slab[0], slab[1]), np.maximum(slab[0], slab[1], out=slab[0])
            tnear = np.fmax(near[:, 0], near[:, 1])
            np.fmax(tnear, near[:, 2], out=tnear)
            tfar = np.fmin(far[:, 0], far[:, 1])
            np.fmin(tfar, far[:, 2], out=tfar)
            miss = tfar < EPS_T
            if d >= depth + 2:      # a step with leaves has run
                np.fmin(tfar, t_best.take(ray), out=tfar)
            miss |= tnear > tfar
            keep = np.flatnonzero(~miss)
            ray, node = ray.take(keep), node.take(keep)

            if d >= depth:
                count = bvh.count.take(node)
                leaf = count > 0
                if leaf.any():
                    at = np.flatnonzero(leaf)
                    # expand each (ray, leaf) pair into its (ray, facet) pairs
                    lcount = count.take(at)
                    pair_ray = np.repeat(ray.take(at), lcount)
                    # each pair's row of `order` and `corners`: its leaf's start plus its offset
                    pos = np.repeat(bvh.start.take(node.take(at)) - (np.cumsum(lcount) - lcount),
                                    lcount)
                    pos += np.arange(pos.size)
                    t, m1, m2 = _mt(origins.take(pair_ray, axis=0),
                                    directions.take(pair_ray, axis=0),
                                    *bvh.corners.take(pos, axis=0).transpose(1, 0, 2))
                    hit = np.flatnonzero(t < np.inf)
                    pair_ray, t = pair_ray.take(hit), t.take(hit)
                    ids = bvh.order.take(pos.take(hit))
                    # each ray's smallest t of this step over its segment, then the lowest
                    # id at that t; a (ray, facet) pair occurs once, so one pair wins
                    seg = np.flatnonzero(np.diff(pair_ray, prepend=-1))
                    size = np.diff(seg, append=pair_ray.size)
                    t_min = np.minimum.reduceat(t, seg)
                    ids[t != np.repeat(t_min, size)] = np.iinfo(np.int64).max
                    id_min = np.minimum.reduceat(ids, seg)
                    win = hit.take(np.flatnonzero(ids == np.repeat(id_min, size)))
                    # then against the ray's best so far
                    r = pair_ray.take(seg)
                    better = (t_min < t_best[r]) | ((t_min == t_best[r]) & (id_min < fid[r]))
                    r, win = r[better], win[better]
                    fid[r], t_best[r], m1_best[r], m2_best[r] = (
                        id_min[better], t_min[better], m1.take(win), m2.take(win))
                    inner = np.flatnonzero(~leaf)
                    ray, node = ray.take(inner), node.take(inner)
            node = bvh.grandchild.take(node, axis=0).ravel()
            if d + 1 < depth:       # no -1 padding
                ray = ray.repeat(4)
            else:
                live = np.flatnonzero(node >= 0)
                ray, node = ray.take(live >> 2), node.take(live)
            d += 2
    return fid, t_best, m1_best, m2_best


def intersect_rays(mesh: Mesh, origins, directions, bvh: Bvh | None = None):
    """Nearest hits for a ray batch.

    origins and directions are (n, 3) arrays with the same n; anything
    else raises a ValueError naming both shapes.  Returns (facet_ids, t,
    m1, m2, cos_theta) arrays with facet_id = -1 and t = +inf for misses.
    A BVH built over another mesh object raises a ValueError.
    t is in units of |d| and cos_theta is |n . d|, the cosine of the
    incidence angle only for unit directions.  With a BVH and a mesh that
    `uses_bvh`, the rays go through the BVH as a breadth-first wavefront
    in batches of `_TRAVERSE_BATCH`, solving only the facets the leaves
    reach; otherwise a linear scan solves batches of at most
    `_SCAN_PAIRS` (ray, facet) pairs (one ray when it alone needs more)
    in runs of rays with one origin; a ray's result does not depend on its
    run or batch.  Both paths give bitwise identical results, except where
    rounding culls a box whose face passes through the hit point (see the
    module docstring).
    """
    origins = np.asarray(origins, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    if origins.ndim != 2 or origins.shape[1] != 3 or directions.shape != origins.shape:
        raise ValueError(f"origins {origins.shape} and directions {directions.shape} "
                         "must be (n, 3) arrays with the same n")
    if bvh is not None and bvh.mesh is not mesh:
        if bvh.order.size != mesh.num_facets:
            raise ValueError(f"BVH over {bvh.order.size} facets does not fit a mesh of "
                             f"{mesh.num_facets} facets")
        raise ValueError(f"BVH built over another mesh of {mesh.num_facets} facets "
                         "does not fit this one")
    n = origins.shape[0]
    fid = np.full(n, -1, dtype=np.int64)
    t_hit = np.full(n, np.inf)
    m1_hit = np.zeros(n)
    m2_hit = np.zeros(n)

    if bvh is not None and uses_bvh(mesh):
        for lo in range(0, n, _TRAVERSE_BATCH):
            batch = slice(lo, lo + _TRAVERSE_BATCH)
            fid[batch], t_hit[batch], m1_hit[batch], m2_hit[batch] = _traverse(
                bvh, origins[batch], directions[batch])
    elif n and mesh.num_facets:     # a mesh without facets is missed by every ray
        # as many whole runs per batch as _SCAN_PAIRS allows
        rays = max(1, _SCAN_PAIRS // mesh.num_facets)
        run = _run_length(origins, rays)
        step = rays // run * run
        edges = _edges(mesh.vertices, mesh.facets)      # once per call, not per batch
        for lo in range(0, n, step):
            batch = slice(lo, lo + step)
            fid[batch], t_hit[batch], m1_hit[batch], m2_hit[batch] = _scan(
                *edges, origins[batch][::run], directions[batch].reshape(-1, run, 3))

    cos_theta = np.zeros(n)
    hit = fid >= 0
    if hit.any():
        cos_theta[hit] = np.abs(
            np.einsum("nk,nk->n", mesh.facet_normals.take(fid[hit], axis=0), directions[hit]))
    return fid, t_hit, m1_hit, m2_hit, cos_theta
