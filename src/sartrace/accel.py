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
- a breadth-first BVH traversal (a wavefront) over four-wide rows, as a
  shallow BVH's nodes hold four boxes (Dammertz, Hanika and Keller,
  "Shallow Bounding Volume Hierarchies for Fast SIMD Ray Tracing of
  Incoherent Rays", 2008).  The root and every inner node at even depth
  own a row of `Bvh.rows`: the boxes of the node's descendants two
  levels down, where a leaf child stands for itself.  Every ray starts
  paired with the root's row, and each step slab-tests the four boxes of
  every live (ray, row) pair at once, drops the boxes that the ray
  misses or enters beyond its nearest hit so far, solves the (ray,
  facet) pairs of the leaves reached, and pairs the ray with the rows
  of the inner nodes reached, so a step goes down two tree levels.  The
  frontier stays sorted by ray, so each ray's nearest hit of a step is a
  segmented minimum, not a sort.  A step does only what its tree level
  needs, known from `Bvh.leaf_depth`, the depth of the shallowest leaf:
  a step whose boxes lie above it looks for no leaves, and until a step
  has solved leaves no ray has a nearest hit to cut at.  A leaf pair
  reads its triangle from `Bvh.corners`, each facet's (p3, p1 - p3,
  p2 - p3) in leaf order, so the facets of one leaf are adjacent rows
  and no view forms the edges again; the facet ids are read only for
  the hits.

The slab test is float32 and conservative (Ize, "Robust BVH Ray
Traversal", JCGT 2013): it never drops a box that the exact ray enters
past EPS_T and before its nearest hit.  The rows hold the exact float64
`box_min` and `box_max` padded by `_MARGIN` of the root box's magnitude
and rounded outward, and each origin is moved out by `_MARGIN` of its
own magnitude, then rounded up where it meets a min plane and down
where it meets a max plane, so b - o never errs toward the box but by
the float32 subtraction.  The three roundings of (b - o) * (1 / d) move
a slab time by at most a factor (1 + u)**3, u = 2**-24, and tfar and
the nearest hit are widened by `_WIDEN`, which covers them and its own
rounding.  Finite bounds stay within about +-2**126 (beyond, they round
outward to +-inf) and a ray whose origin lies beyond +-2**125 is
bounded by no axis, so no difference overflows.  A zero direction component gives +-inf slab times, or NaN,
which the test skips, where the origin lies on a face plane: a ray in a
face plane (a track on a grid's lines) is bounded by its other axes.
An axis whose 1 / d float32 holds to no relative u (a nonzero component
below 2**-126 or from 2**126 up) bounds nothing.  The test thus only ever
keeps extra pairs, and the leaves solve them in float64 with `_mt`, as
the scan does.

Both paths keep the smallest (t, facet_id) per ray, whatever the
traversal order; ties on t resolve to the lowest facet id.  So the
BVH's nearest hit is the scan's, bitwise, wherever `_mt` places it on
its facet to within the margins (2**-30 of the magnitudes across,
about 5e-7 t along the ray).  What still leaks is `_mt`'s own rounding at
edges and vertices: a ray through a shared edge may hit either adjacent
facet or neither, on both paths alike, and a grazing ray's hit may fall
far enough outside its facet's box to be culled.  Watertightness is not claimed.  `uses_bvh` says on which
meshes a BVH is traversed.
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

# finite float32 bounds lie within about +-2**126 and origins within
# +-2**125, so the difference of two cannot overflow
_BIG32 = 2.0 ** 126

# a slab time (b - o) * (1 / d) takes three float32 roundings, each of
# relative error at most u = 2**-24 (Ize's gamma_3), and widening it one
# more: (1 + u)**3 <= _WIDEN * (1 - u)**4
_WIDEN = np.float32(1.0 + 2.0 ** -21)

# an unbounded axis: origin at +inf for min planes and -inf for max ones, 1 / d = 1
_UNBOUNDED = np.array([np.inf, -np.inf, 1.0], dtype=np.float32)[:, None, None]

# the rows pad each box by this much of the root box's magnitude, and the
# slab test moves each origin out by this much of its own: `_mt` rounds a
# hit point by a few float64 steps of them, which can put it outside its
# facet's box, and a near-parallel axis turns that small distance into a
# long time
_MARGIN = 2.0 ** -30


def _round_up32(a):
    """A float32 above each value of float64 `a`: the next one above its
    nearest float32, so a value that float32 holds exactly gets a margin
    of one float32 step too, far wider than the float64 rounding of the
    points `_mt` hits.  A value above 2**126 goes to +inf and one below
    -2**126 counts as -2**126, so finite results lie within about
    +-2**126.  NaN stays NaN.  -_round_up32(-a) rounds down."""
    a = np.where(a > _BIG32, np.inf, np.maximum(a, -_BIG32))
    return np.nextafter(a.astype(np.float32), np.float32(np.inf))


# the self-intersection guard, rounded down
_EPS_T32 = -_round_up32(np.array(-EPS_T))[()]

# the facet id that no facet has, for the candidates that lose on t
_NO_ID = np.iinfo(np.int64).max


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
    `box_min` and `box_max` stay the exact float64 boxes.  Four things
    are derived from the tree for the traversal.  `rows`: one float32
    row for each node a wavefront step can hold, the root and the inner
    nodes at even depth, as component planes (min/max, axis, row,
    slot).  A row's four slots hold the node's grandchildren (left's
    left, left's right, right's left, right's right), where a leaf child
    stands for itself in its pair of slots and the other is empty; a
    leaf root stands for itself in the root's row.  Each box is padded
    by `_MARGIN` of the root box's magnitude and rounded outward to
    float32, and an empty slot's box is the point at +inf.  A (ray, row) pair reads its row's 96 bytes with one gather.
    `slots`: what each slot holds, the row of an inner node, -2 - node
    for a leaf or -1 for none.  `corners`: row j holds facet `order[j]`
    in the form `_mt` reads, (p3, p1 - p3, p2 - p3), 72 bytes per facet,
    so a leaf's triangles are adjacent rows and no view subtracts them
    again.  `leaf_depth`: the depth of the shallowest leaf (the root is
    at depth 0), so no node above it is a leaf; `build_bvh` splits at
    the facet-count median, so its leaves lie at one or two depths.

    A tree must hold each facet in exactly one leaf: `order` a
    permutation of the facets whose positions the leaves' [start, start +
    count) ranges cover once each.  Otherwise construction raises a
    ValueError naming the first facet listed twice or never, since a ray
    that reached two copies of a facet in one step would break the
    traversal's per-ray bookkeeping.  Every leaf holds a facet: the
    derived tables tell leaves by their count, so a ValueError names the
    first leaf with none.
    """

    box_min: np.ndarray    # (n_nodes, 3)
    box_max: np.ndarray    # (n_nodes, 3)
    left: np.ndarray       # (n_nodes,) child index, -1 at leaves; children
    right: np.ndarray      #   are numbered after their parent
    start: np.ndarray      # (n_nodes,) leaf range start into `order`
    count: np.ndarray      # (n_nodes,) leaf facet count, 0 for inner nodes
    order: np.ndarray      # (n_facets,) facet permutation
    mesh: Mesh = field(repr=False, compare=False)
    rows: np.ndarray = field(init=False, repr=False, compare=False)     # (2, 3, n_rows, 4)
    slots: np.ndarray = field(init=False, repr=False, compare=False)    # (n_rows, 4)
    corners: np.ndarray = field(init=False, repr=False, compare=False)  # (n_facets, 3, 3)
    leaf_depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, m, leaf = self.mesh.num_facets, self.order.size, self.left < 0
        lo, hi = self.start[leaf], self.start[leaf] + self.count[leaf]
        if ((self.order < 0) | (self.order >= n)).any() or (lo < 0).any() or (hi > m).any():
            raise ValueError(f"Bvh: a facet id or leaf range lies outside the {n} facets")
        empty = np.flatnonzero(leaf & (self.count == 0))
        if empty.size:
            raise ValueError(f"Bvh: leaf node {empty[0]} holds no facets")
        cover = np.cumsum(np.bincount(lo, minlength=m + 1) - np.bincount(hi, minlength=m + 1))
        listed = np.bincount(self.order, cover[:m], n)
        wrong = np.flatnonzero(listed != 1)
        if wrong.size:
            raise ValueError(f"Bvh: the leaves list facet {wrong[0]} {listed[wrong[0]]:.0f} times")
        # each inner node's grandchildren, a leaf child standing for itself in
        # its pair of slots and -1 padding the other
        node = np.flatnonzero(self.count == 0)
        kids = np.stack([self.left.take(node), self.right.take(node)], axis=1)
        deep = self.count.take(kids) == 0
        grandchild = np.full((self.num_nodes, 2, 2), -1, dtype=np.int64)
        grandchild[node] = np.stack([np.where(deep, self.left.take(kids), kids),
                                     np.where(deep, self.right.take(kids), -1)], axis=2)
        grandchild = grandchild.reshape(-1, 4)
        # the nodes that get a row, two levels at a time: the root, then the
        # inner nodes among the last ones' grandchildren
        level, levels = np.zeros(1, dtype=np.int64), []
        while level.size:
            levels.append(level)
            kids = grandchild.take(level, axis=0).ravel()
            kids = kids[kids >= 0]
            level = kids[self.count.take(kids) == 0]
        row_node = np.concatenate(levels)
        row_of = np.zeros(self.num_nodes, dtype=np.int64)
        row_of[row_node] = np.arange(row_node.size)
        kids = grandchild.take(row_node, axis=0)
        if self.count[0]:           # a leaf root stands for itself in its row
            kids[0, 0] = 0
        object.__setattr__(self, "slots", np.where(
            kids < 0, -1, np.where(self.count.take(kids) > 0, -2 - kids, row_of.take(kids))))
        # the slots' boxes padded and rounded outward; an empty slot's (kid
        # -1) at +inf
        pad = _MARGIN * np.abs([self.box_min[0], self.box_max[0]]).max()
        rows = np.empty((2, 3, row_node.size, 4), dtype=np.float32)
        for side, box, sign in ((0, self.box_min, -1.0), (1, self.box_max, 1.0)):
            bound = np.empty((self.num_nodes + 1, 3), dtype=np.float32)
            bound[:-1], bound[-1] = sign * _round_up32(sign * box + pad), np.inf
            rows[side] = bound.take(kids, axis=0).transpose(2, 0, 1)
        object.__setattr__(self, "rows", rows)
        # a block of facets at a time: one take of the whole table would hold
        # (n_facets, 3) ids beside it and raise build_bvh's peak
        corners = np.empty((self.order.size, 3, 3))
        with np.errstate(over="ignore", invalid="ignore"):     # edges of +-1e308 corners
            for lo in range(0, self.order.size, _CORNER_BLOCK):
                block = corners[lo:lo + _CORNER_BLOCK]
                ids = self.mesh.facets.take(self.order[lo:lo + _CORNER_BLOCK], axis=0)
                block[:, 0], block[:, 1], block[:, 2] = _edges(self.mesh.vertices, ids)
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
    # Bvh derives its row and corner tables once the build's
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
    with np.errstate(over="ignore", invalid="ignore"):      # centroids of +-1e308 corners
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
        with np.errstate(over="ignore", invalid="ignore"):     # centroids near +-1e308, or inf
            extent = (np.maximum.reduceat(c, first, axis=1)
                      - np.minimum.reduceat(c, first, axis=1))
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
    j = t.argmin(axis=0)              # first occurrence = lowest facet id
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
    starts = (bits[1:] != bits[:-1]).any(axis=1).nonzero()[0] + 1
    # the runs' lengths are the differences of 0, the starts and n: they share their gcd
    runs = int(np.gcd.reduce(starts, initial=origins.shape[0]))
    return max(d for d in range(1, min(runs, most) + 1) if runs % d == 0)


def _traverse(bvh: Bvh, origins, directions):
    """Nearest hits of a ray batch through the BVH, two tree levels per step.

    The frontier is a pair of arrays (ray, row), sorted by ray.  It
    starts at the root's row, and a step tests each pair's four slots:
    the (ray, facet) pairs of the leaves that pass are solved, and each
    inner node that passes gives the ray's pair with its row.  So a step
    at depth d (0, 2, 4, ...) tests boxes at depth d + 2 and leaves at
    depth d + 1.  Skipping the root's and the children's slab tests
    changes no result: an inner box holds its children's boxes, so the
    ray's hits beneath them lie in the grandchild boxes tested, and the
    per-ray smallest (t, facet_id) does not depend on the order of the
    pairs.  A slot is dropped where max(tnear, EPS_T) > fmin(tfar,
    t_best) * `_WIDEN` in float32, which holds for no slot whose box the
    exact ray enters between EPS_T and t_best (see the module
    docstring); an empty slot's box at +inf is dropped by most rays, and
    the others drop it by its slot code.  A slot that is NaN on every
    axis, as only a zero direction or a NaN origin makes it, may go
    either way: `_mt` hits nothing with those.  Compaction keeps the
    order of the pairs, so the frontier stays sorted by ray, and so do
    the (ray, facet) pairs of the leaves reached, which read their
    triangles from `Bvh.corners`: each ray's smallest t of a step, then
    its lowest facet id at that t, is a minimum over the ray's segment.

    A step does only the work its depth needs, from D = `leaf_depth`:
    while d + 2 < D no slot holds a leaf or is empty, so every slot that
    passes is a row; and until a step with leaves has run, every t_best
    is +inf, so the step reads none, and the first step with leaves (d <
    D) assigns each ray's nearest hit of the step without comparing it.
    A step writes the nearest hits into the per-ray rows only when inner
    pairs remain for a later step to cut at them.  Returns the same
    (facet_id, t, m1, m2) as `_scan`.
    """
    n = origins.shape[0]
    fid = np.full(n, -1, dtype=np.int64)
    t_best = np.full(n, np.inf)
    m1_best = np.zeros(n)
    m2_best = np.zeros(n)
    # per ray, as rows of four like a pair's slots: the origin moved out by
    # the margin and rounded up (for min planes) and down (for max planes),
    # 1 / d and the nearest hit so far
    mag = np.abs(origins.T)
    margin = np.maximum(np.maximum(mag[0], mag[1]), mag[2])
    huge = margin > _BIG32 / 2.0
    margin *= _MARGIN
    per_ray = np.empty((10, n), dtype=np.float32)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        per_ray[:3], per_ray[3:6] = origins.T + margin, margin - origins.T
        per_ray[6:9], per_ray[9] = 1.0 / directions.T, np.inf
    np.nextafter(per_ray[:6], np.float32(np.inf), out=per_ray[:6])
    np.negative(per_ray[3:6], out=per_ray[3:6])
    # an axis whose 1 / d float32 holds neither exactly (d = 0) nor to a
    # relative u (a normal number: |d| in [2**-126, 2**126)) bounds nothing,
    # and so does every axis of a ray whose origin lies beyond +-2**125
    loose = (np.frexp(directions.T)[1] + 125).view(np.uint32) > 251
    loose |= huge
    np.copyto(per_ray[:9].reshape(3, 3, n), _UNBOUNDED, where=loose)
    at_ray = per_ray.repeat(4, axis=1).reshape(10, n, 4)
    depth = bvh.leaf_depth
    d, ray, row = 0, np.arange(n), np.zeros(n, dtype=np.int64)
    # 0 * inf in the slab test: a zero direction component, origin on a face
    with np.errstate(invalid="ignore", over="ignore"):
        while ray.size:
            # (2, 3, P, 4): min and max planes of each pair's four slots
            box = bvh.rows.take(row, axis=2)
            pair = at_ray.take(ray, axis=1)
            box -= pair[:6].reshape(box.shape)
            box *= pair[6:9]
            # fmax and fmin skip a NaN slab, so the other axes bound that ray
            near, far = np.minimum(box[0], box[1]), np.maximum(box[0], box[1], out=box[0])
            tnear = np.fmax.reduce(near, axis=0, initial=_EPS_T32)
            tfar = np.fmin.reduce(far, axis=0)
            if d >= depth:          # a step with leaves has run
                np.fmin(tfar, pair[9], out=tfar)
            tfar *= _WIDEN
            keep = (tnear <= tfar).ravel().nonzero()[0]
            ray = ray.take(keep >> 2)
            code = bvh.slots.take(row, axis=0).ravel().take(keep)
            if d + 2 < depth:       # every slot an inner node
                row = code
            else:
                at = (code < -1).nonzero()[0]
                inner = (code >= 0).nonzero()[0]
                if at.size:
                    node = -2 - code.take(at)
                    # expand each (ray, leaf) pair into its (ray, facet) pairs
                    lcount = bvh.count.take(node)
                    pair_ray = ray.take(at).repeat(lcount)
                    # each pair's row of `order` and `corners`: its leaf's start plus its offset
                    pos = (bvh.start.take(node) - (lcount.cumsum() - lcount)).repeat(lcount)
                    pos += np.arange(pos.size)
                    t, m1, m2 = _mt(origins.take(pair_ray, axis=0),
                                    directions.take(pair_ray, axis=0),
                                    *bvh.corners.take(pos, axis=0).transpose(1, 0, 2))
                    hit = (t < np.inf).nonzero()[0]
                    pair_ray, t = pair_ray.take(hit), t.take(hit)
                    ids = bvh.order.take(pos.take(hit))
                    # each ray's smallest t of this step over its segment, then the lowest
                    # id at that t; a (ray, facet) pair occurs once, so one pair wins.
                    # `edge` holds each segment's start, then the pairs' count
                    edge = np.empty(pair_ray.size + 1, dtype=bool)
                    edge[0] = edge[-1] = True
                    np.not_equal(pair_ray[1:], pair_ray[:-1], out=edge[1:-1])
                    edge = edge.nonzero()[0]
                    seg, size = edge[:-1], edge[1:] - edge[:-1]
                    t_min = np.minimum.reduceat(t, seg)
                    ids[t != t_min.repeat(size)] = _NO_ID
                    id_min = np.minimum.reduceat(ids, seg)
                    win = hit.take((ids == id_min.repeat(size)).nonzero()[0])
                    r = pair_ray.take(seg)
                    if d >= depth:      # then against the ray's best so far, once there is one
                        better = (t_min < t_best[r]) | ((t_min == t_best[r]) & (id_min < fid[r]))
                        r, win, id_min, t_min = (a[better] for a in (r, win, id_min, t_min))
                    fid[r], t_best[r] = id_min, t_min
                    m1_best[r], m2_best[r] = m1.take(win), m2.take(win)
                    if inner.size:      # a later step cuts at them
                        at_ray[9, r] = t_min[:, None]
                ray, row = ray.take(inner), code.take(inner)
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
    run or batch.  Both paths give bitwise identical results, up to
    `_mt`'s own rounding at a facet's edges and vertices (see the module
    docstring).
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
    hit = (fid >= 0).nonzero()[0]
    cos_theta[hit] = np.abs(np.einsum("nk,nk->n", mesh.facet_normals.take(fid.take(hit), axis=0),
                                      directions.take(hit, axis=0)))
    return fid, t_hit, m1_hit, m2_hit, cos_theta
