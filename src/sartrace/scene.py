"""Scene ingestion: triangle meshes and per-vertex scattering parameters.

Geometry is an indexed triangle mesh in meters.  Each vertex carries a
four-channel scattering parameter record (h, l, eps_r, tau):

    h      RMS surface height [m], in [1e-7, 1]
    l      surface correlation length [m], in [1e-7, 10]
    eps_r  relative permittivity, in [1 + 1e-6, 1e4]
    tau    specular/diffuse blend weight, in [0, 1]

PARAM_LOWER and PARAM_UPPER state this box once: ParamMap.validate
checks a table against it and learn clips into it.

Parameters at a hit point inside a facet are the convex (barycentric)
combination of the three vertex records, so interpolated values always
stay inside the per-channel vertex hull.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PARAM_CHANNELS = ("h", "l", "eps_r", "tau")

# The box in which every channel shades to a finite sigma and partials.
# h and l are lengths of at least 1e-7 m, so KA's slope term 4 h^2 / l^2
# stays a normal float (h = 1e-200 underflows it to 0 and shades NaN);
# their upper ends, 1 m and 10 m, lie far past either model's validity
# at microwave bands and keep h^2 and l^2 far from overflow.  eps_r
# starts just above 1: at 1 the Fresnel contrast, sigma and all four
# partials are exactly 0, so such a vertex could never move; 1e4 is far
# above any natural medium (water is about 80).  tau is a blend weight.
PARAM_LOWER = np.array([1e-7, 1e-7, 1.0 + 1e-6, 0.0])
PARAM_UPPER = np.array([1.0, 10.0, 1e4, 1.0])

# below this cross-product norm a facet is treated as zero-area and rejected
_DEGENERATE_AREA_EPS = 1e-20


class MeshError(ValueError):
    """Raised for unreadable or inconsistent mesh data."""


@dataclass(frozen=True)
class Mesh:
    """Indexed triangle mesh with precomputed unit facet normals."""

    vertices: np.ndarray      # (n_vertices, 3) float64, meters
    facets: np.ndarray        # (n_facets, 3) int64, vertex indices
    facet_normals: np.ndarray  # (n_facets, 3) float64, unit length

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_facets(self) -> int:
        return self.facets.shape[0]

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    @staticmethod
    def from_arrays(vertices, facets) -> "Mesh":
        """Build a mesh, computing normals and validating the topology.

        Each facet's index must be an integer in [0, n_vertices); the
        first facet that breaks this raises a MeshError naming it.  The
        normal is the cross product (p2 - p1) x (p3 - p1) over its
        norm, written out per component: bitwise np.cross and
        np.linalg.norm, whose sum of squares is (x*x + y*y) + z*z.
        """
        vertices = np.ascontiguousarray(np.asarray(vertices, dtype=np.float64))
        facets = np.asarray(facets)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshError(f"vertex array must be (n, 3), got {vertices.shape}")
        if facets.ndim != 2 or facets.shape[1] != 3:
            raise MeshError(f"facet array must be (m, 3), got {facets.shape}")
        if not np.isfinite(vertices).all():
            raise MeshError("non-finite vertex coordinate")
        facets = _vertex_indices(facets, vertices.shape[0])
        # (3, F, 3): contiguous corners; take, since fancy indexing costs 3-4x more
        p1, p2, p3 = vertices.take(facets.T, axis=0)
        (ax, ay, az), (bx, by, bz) = (p2 - p1).T, (p3 - p1).T
        normals = np.empty_like(p1)
        nx, ny, nz = normals.T
        np.subtract(ay * bz, az * by, out=nx)
        np.subtract(az * bx, ax * bz, out=ny)
        np.subtract(ax * by, ay * bx, out=nz)
        norms = np.sqrt((nx * nx + ny * ny) + nz * nz)
        degenerate = np.flatnonzero(norms < _DEGENERATE_AREA_EPS)
        if degenerate.size:
            raise MeshError(f"facet {degenerate[0]} has zero area")
        normals /= norms[:, None]
        return Mesh(vertices=vertices, facets=facets, facet_normals=normals)


def _vertex_indices(facets: np.ndarray, n: int) -> np.ndarray:
    """(m, 3) facets as C-contiguous int64.  A MeshError rejects an array
    of other than numbers, and names the first facet with an index
    outside [0, n) or not an integer.

    The range is compared in the array's own dtype, so an index beyond
    int64 is reported, not wrapped, and a float or object index must
    equal its truncation, which the int64 cast would drop silently.
    """
    if facets.dtype.kind not in "biufO":
        raise MeshError(f"facet indices must be numbers, got dtype {facets.dtype}")
    outside = (facets < 0) | (facets >= n)
    bad = outside
    if facets.dtype.kind not in "biu":
        value = np.where(outside, 0, facets).astype(np.float64)
        bad = outside | (value != np.trunc(value))      # NaN too
    rows = np.flatnonzero(bad.any(axis=1))
    if rows.size:
        k = rows[0]
        cause = (f"references vertex outside [0, {n})" if outside[k].any()
                 else "has a vertex index that is not an integer")
        raise MeshError(f"facet {k} {cause}: {facets[k].tolist()}")
    return np.ascontiguousarray(facets, dtype=np.int64)


def mesh_edges(mesh: Mesh) -> np.ndarray:
    """The facets' unique edges: sorted (lo, hi) vertex pairs, (E, 2) int64, ascending."""
    a, b, n = mesh.facets.ravel(), mesh.facets.take([1, 2, 0], axis=1).ravel(), mesh.num_vertices
    key = np.sort(np.minimum(a, b) * n + np.maximum(a, b))   # one int64 key per facet side
    key = key[np.diff(key, prepend=-1) != 0]  # numpy 2.4's np.unique took 17x as long on 600k keys
    return np.stack(np.divmod(key, n), axis=1)


def load_mesh(path) -> Mesh:
    """Load a triangle mesh from a Wavefront OBJ subset.

    Recognized records: ``v x y z`` and ``f i j k`` (1-based indices,
    ``i/…`` attribute suffixes ignored).  Polygons with more than three
    vertices are fan-triangulated.  ``vn``/``vt`` and grouping records
    are skipped.  Vertex order is preserved from the file.
    """
    vertices: list[list[float]] = []
    facets: list[list[int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            key = tokens[0]
            if key == "v":
                if len(tokens) < 4:
                    raise MeshError(f"{path}:{lineno}: vertex record needs 3 coordinates")
                try:
                    vertices.append([float(t) for t in tokens[1:4]])
                except ValueError as exc:
                    raise MeshError(f"{path}:{lineno}: bad vertex coordinate") from exc
            elif key == "f":
                if len(tokens) < 4:
                    raise MeshError(f"{path}:{lineno}: face record needs >= 3 indices")
                try:
                    idx = [int(t.split("/")[0]) for t in tokens[1:]]
                except ValueError as exc:
                    raise MeshError(f"{path}:{lineno}: bad face index") from exc
                if any(i <= 0 for i in idx):
                    raise MeshError(
                        f"{path}:{lineno}: only positive 1-based indices supported"
                    )
                for a, b in zip(idx[1:-1], idx[2:]):
                    facets.append([idx[0] - 1, a - 1, b - 1])
            # vn / vt / g / o / s / usemtl / mtllib: ignored
    if not vertices:
        raise MeshError(f"{path}: no vertices found")
    if not facets:
        raise MeshError(f"{path}: no facets found")
    try:
        return Mesh.from_arrays(vertices, facets)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc


def write_obj(mesh: Mesh, path) -> None:
    """Serialize a mesh back to the OBJ subset understood by load_mesh."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for f in mesh.facets:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


@dataclass
class ParamMap:
    """Per-vertex scattering parameter table, shape (n_vertices, 4).

    Column order follows PARAM_CHANNELS.  Mutable only between forward
    passes (the optimizer is the single writer).
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 2 or self.values.shape[1] != 4:
            raise ValueError(f"parameter table must be (n, 4), got {self.values.shape}")

    @property
    def num_vertices(self) -> int:
        return self.values.shape[0]

    @staticmethod
    def constant(num_vertices: int, h: float, l: float, eps_r: float, tau: float) -> "ParamMap":
        row = np.array([h, l, eps_r, tau], dtype=np.float64)
        return ParamMap(np.tile(row, (num_vertices, 1)))

    def copy(self) -> "ParamMap":
        return ParamMap(self.values.copy())

    def validate(self) -> None:
        """Check that every value lies in the box PARAM_LOWER..PARAM_UPPER.

        The error names the first offending vertex, its channel and value,
        and the channel's interval.
        """
        v = self.values
        inside = (v >= PARAM_LOWER) & (v <= PARAM_UPPER)    # False at NaN too
        if not inside.all():
            vertex, c = divmod(int(inside.argmin()), 4)     # the first cell outside
            value = float(v[vertex, c])
            what = "parameter value" if np.isfinite(value) else "non-finite parameter value"
            raise ValueError(f"vertex {vertex}, {PARAM_CHANNELS[c]}: {what} {value!r} outside "
                             f"[{float(PARAM_LOWER[c])!r}, {float(PARAM_UPPER[c])!r}]")


def save_param_map(params: ParamMap, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("vertex_id,h,l,eps_r,tau\n")
        for i, row in enumerate(params.values):
            fh.write(f"{i},{float(row[0])!r},{float(row[1])!r},"
                     f"{float(row[2])!r},{float(row[3])!r}\n")


def load_param_map(path) -> ParamMap:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "vertex_id,h,l,eps_r,tau":
            raise ValueError(f"{path}: unexpected header {header!r}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 fields")
            row = []
            for name, text, parse in zip(("vertex_id",) + PARAM_CHANNELS, parts,
                                         (int, float, float, float, float)):
                try:
                    row.append(parse(text))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: {name} {text.strip()!r} is not "
                                     f"{'an integer' if parse is int else 'a number'}") from None
            if row[0] != len(rows):
                raise ValueError(f"{path}:{lineno}: vertex ids must be consecutive from 0")
            rows.append(row[1:])
    if not rows:
        raise ValueError(f"{path}: no parameter rows after the header")
    return ParamMap(np.asarray(rows, dtype=np.float64))


def interpolate(values: np.ndarray, corners: np.ndarray, bary) -> np.ndarray:
    """Channel-major barycentric interpolation -> (4, n): row c holds
    channel c at the n hits.

    corners: (3, n) vertex ids of the hits' facet corners; bary: (3, n)
    corner weights.  Three row gathers from the table, summed as
    (b0 v0 + b1 v1) + b2 v2: bitwise np.einsum("nj,njc->nc") unless all
    three products are -0.0 (einsum, which starts from +0.0, gives +0.0).
    """
    v0, v1, v2 = (values.take(ids, axis=0).T for ids in corners)    # (4, n) views
    out = np.multiply(bary[0], v0, order="C")
    out += np.multiply(bary[1], v1, order="C")
    out += np.multiply(bary[2], v2, order="C")
    return out


def interpolate_at_hits(mesh: Mesh, values: np.ndarray, facet_ids: np.ndarray,
                        m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Vectorized interpolation for a batch of hits -> (n_hits, 4), the
    transpose of interpolate's channel-major result.

    Hot path: assumes weights already lie in the simplex (they come
    straight from the intersector).
    """
    corners = mesh.facets.take(facet_ids, axis=0).T    # (3, n)
    return interpolate(values, corners, (m1, m2, 1.0 - m1 - m2)).T
