"""Ray-triangle intersection and a bounding volume hierarchy.

Intersections solve o + t*d = m1*p1 + m2*p2 + (1-m1-m2)*p3 for
(t, m1, m2); a hit requires the weights to lie in the simplex and
t > EPS_T.  Both paths (batched linear scan, BVH leaves) share one
kernel so nearest-hit results are bitwise identical regardless of
traversal order; ties on t resolve to the lowest facet id.

Watertightness is not claimed: rays grazing a shared edge may report
either adjacent facet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sartrace.scene import Mesh

# self-intersection guard along the ray, meters
EPS_T = 1e-6

# directions with a zero component get a nudged inverse for slab tests only
_INV_DIR_NUDGE = 1e-300

# rays per linear-scan batch: each batch holds (64, F, 3) float64 temporaries
_SCAN_CHUNK = 64

# most facets per BVH leaf
_LEAF_SIZE = 4


def _mt_batch(origins, directions, p1, p2, p3):
    """Moller-Trumbore solve for R rays against F triangles.

    origins/directions are (R, 3); p1/p2/p3 are (F, 3).  Returns
    (t, m1, m2) arrays of shape (R, F) with t = +inf marking misses.
    """
    h1 = p1 - p3                                    # (F, 3)
    h2 = p2 - p3
    o = origins[:, None, :]                         # (R, 1, 3)
    d = directions[:, None, :]
    f1 = np.cross(d, h2[None, :, :])                # (R, F, 3)
    det = np.einsum("rfk,fk->rf", f1, h1)           # (R, F)
    h = o - p3[None, :, :]                          # (R, F, 3)
    f2 = np.cross(h, h1[None, :, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / det
        m1 = np.einsum("rfk,rfk->rf", f1, h) * inv
        m2 = np.einsum("rfk,rfk->rf", f2, d) * inv
        t = np.einsum("rfk,fk->rf", f2, h2) * inv
        valid = (det != 0.0) & (m1 >= 0.0) & (m2 >= 0.0) & (m1 + m2 <= 1.0) & (t > EPS_T)
    t = np.where(valid, t, np.inf)
    return t, m1, m2


@dataclass(frozen=True)
class Bvh:
    """Flat binary BVH; leaves hold ranges into the facet permutation."""

    box_min: np.ndarray    # (n_nodes, 3)
    box_max: np.ndarray    # (n_nodes, 3)
    left: np.ndarray       # (n_nodes,) child index, -1 at leaves
    right: np.ndarray
    start: np.ndarray      # (n_nodes,) leaf range start into `order`
    count: np.ndarray      # (n_nodes,) leaf facet count, 0 for inner nodes
    order: np.ndarray      # (n_facets,) facet permutation

    @property
    def num_nodes(self) -> int:
        return self.left.shape[0]


def build_bvh(mesh: Mesh) -> Bvh:
    """Median-split BVH on the longest centroid-bounds axis.

    Deterministic for a given mesh: stable sorts, fixed split at the
    facet-count midpoint.
    """
    if mesh.num_facets == 0:
        raise ValueError("cannot build a BVH over an empty mesh")
    tri = mesh.vertices[mesh.facets]                  # (F, 3, 3)
    fmin = tri.min(axis=1)
    fmax = tri.max(axis=1)
    centroids = tri.mean(axis=1)

    order = np.arange(mesh.num_facets, dtype=np.int64)
    box_min, box_max, left, right, start, count = [], [], [], [], [], []

    # (node_id, lo, hi) ranges over `order`; children appended after parent
    stack = [(0, 0, mesh.num_facets)]
    box_min.append(None); box_max.append(None)
    left.append(-1); right.append(-1); start.append(0); count.append(0)
    while stack:
        node, lo, hi = stack.pop()
        ids = order[lo:hi]
        box_min[node] = fmin[ids].min(axis=0)
        box_max[node] = fmax[ids].max(axis=0)
        if hi - lo <= _LEAF_SIZE:
            start[node] = lo
            count[node] = hi - lo
            continue
        c = centroids[ids]
        axis = int(np.argmax(c.max(axis=0) - c.min(axis=0)))
        perm = np.argsort(c[:, axis], kind="stable")
        order[lo:hi] = ids[perm]
        mid = lo + (hi - lo) // 2
        for child_lo, child_hi, side in ((lo, mid, "l"), (mid, hi, "r")):
            child = len(left)
            box_min.append(None); box_max.append(None)
            left.append(-1); right.append(-1); start.append(0); count.append(0)
            if side == "l":
                left[node] = child
            else:
                right[node] = child
            stack.append((child, child_lo, child_hi))
    return Bvh(
        box_min=np.asarray(box_min), box_max=np.asarray(box_max),
        left=np.asarray(left, dtype=np.int64), right=np.asarray(right, dtype=np.int64),
        start=np.asarray(start, dtype=np.int64), count=np.asarray(count, dtype=np.int64),
        order=order,
    )


def _traverse(bvh: Bvh, p1, p2, p3, origin, direction):
    """Nearest hit for one ray; returns (facet_id, t, m1, m2) or None."""
    safe_d = np.where(direction == 0.0, _INV_DIR_NUDGE, direction)
    inv_d = 1.0 / safe_d
    best = (np.inf, -1, 0.0, 0.0)   # (t, facet_id, m1, m2)
    stack = [0]
    while stack:
        node = stack.pop()
        t1 = (bvh.box_min[node] - origin) * inv_d
        t2 = (bvh.box_max[node] - origin) * inv_d
        tnear = np.minimum(t1, t2).max()
        tfar = np.maximum(t1, t2).min()
        if tnear > tfar or tfar < EPS_T or tnear > best[0]:
            continue
        c = bvh.count[node]
        if c > 0:
            s = bvh.start[node]
            ids = bvh.order[s:s + c]
            t, m1, m2 = _mt_batch(origin[None, :], direction[None, :],
                                  p1[ids], p2[ids], p3[ids])
            for j in range(c):
                tj = t[0, j]
                if np.isfinite(tj) and (tj, int(ids[j])) < (best[0], best[1]):
                    best = (float(tj), int(ids[j]), float(m1[0, j]), float(m2[0, j]))
        else:
            stack.append(bvh.left[node])
            stack.append(bvh.right[node])
    if best[1] < 0:
        return None
    return best[1], best[0], best[2], best[3]


def _facet_arrays(mesh: Mesh):
    return (mesh.vertices[mesh.facets[:, 0]],
            mesh.vertices[mesh.facets[:, 1]],
            mesh.vertices[mesh.facets[:, 2]])


def intersect_rays(mesh: Mesh, origins, directions, bvh: Bvh | None = None):
    """Nearest hits for a ray batch.

    Returns (facet_ids, t, m1, m2, cos_theta) arrays with facet_id = -1
    and t = +inf for misses.  Uses a chunked linear scan unless a BVH is
    supplied and the mesh is large enough for traversal to win.
    """
    origins = np.asarray(origins, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    n = origins.shape[0]
    fid = np.full(n, -1, dtype=np.int64)
    t_hit = np.full(n, np.inf)
    m1_hit = np.zeros(n)
    m2_hit = np.zeros(n)
    p1, p2, p3 = _facet_arrays(mesh)

    if bvh is not None and mesh.num_facets > 256:
        for i in range(n):
            out = _traverse(bvh, p1, p2, p3, origins[i], directions[i])
            if out is not None:
                fid[i], t_hit[i], m1_hit[i], m2_hit[i] = out
    else:
        for lo in range(0, n, _SCAN_CHUNK):
            hi = min(lo + _SCAN_CHUNK, n)
            t, m1, m2 = _mt_batch(origins[lo:hi], directions[lo:hi], p1, p2, p3)
            j = np.argmin(t, axis=1)          # first occurrence = lowest facet id
            rows = np.arange(hi - lo)
            tj = t[rows, j]
            hit = np.isfinite(tj)
            fid[lo:hi][hit] = j[hit]
            t_hit[lo:hi][hit] = tj[hit]
            m1_hit[lo:hi][hit] = m1[rows, j][hit]
            m2_hit[lo:hi][hit] = m2[rows, j][hit]

    cos_theta = np.zeros(n)
    hit = fid >= 0
    if hit.any():
        cos_theta[hit] = np.abs(
            np.einsum("nk,nk->n", mesh.facet_normals[fid[hit]], directions[hit]))
    return fid, t_hit, m1_hit, m2_hit, cos_theta
