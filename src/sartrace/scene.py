"""Scene ingestion: triangle meshes and per-vertex scattering parameters.

Geometry is an indexed triangle mesh in meters.  Each vertex carries a
four-channel scattering parameter record (h, l, eps_r, tau):

    h      RMS surface height [m]
    l      surface correlation length [m]
    eps_r  relative permittivity (>= 1)
    tau    specular/diffuse blend weight in [0, 1]

Parameters at a hit point inside a facet are the convex (barycentric)
combination of the three vertex records, so interpolated values always
stay inside the per-channel vertex hull.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PARAM_CHANNELS = ("h", "l", "eps_r", "tau")

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
        """Build a mesh, computing normals and validating the topology."""
        vertices = np.ascontiguousarray(np.asarray(vertices, dtype=np.float64))
        facets = np.ascontiguousarray(np.asarray(facets, dtype=np.int64))
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshError(f"vertex array must be (n, 3), got {vertices.shape}")
        if facets.ndim != 2 or facets.shape[1] != 3:
            raise MeshError(f"facet array must be (m, 3), got {facets.shape}")
        if not np.isfinite(vertices).all():
            raise MeshError("non-finite vertex coordinate")
        n = vertices.shape[0]
        bad = np.nonzero((facets < 0) | (facets >= n))[0]
        if bad.size:
            raise MeshError(
                f"facet {bad[0]} references vertex outside [0, {n}): "
                f"{facets[bad[0]].tolist()}"
            )
        p1 = vertices[facets[:, 0]]
        p2 = vertices[facets[:, 1]]
        p3 = vertices[facets[:, 2]]
        cross = np.cross(p2 - p1, p3 - p1)
        norms = np.linalg.norm(cross, axis=1)
        degenerate = np.nonzero(norms < _DEGENERATE_AREA_EPS)[0]
        if degenerate.size:
            raise MeshError(f"facet {degenerate[0]} has zero area")
        normals = cross / norms[:, None]
        return Mesh(vertices=vertices, facets=facets, facet_normals=normals)


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
        """Check physical bounds: h, l > 0, eps_r >= 1, tau in [0, 1].

        The error names the first offending vertex and its channel.
        """
        v = self.values
        checks = (  # (first channel, offending cells, cause)
            (0, ~np.isfinite(v), "non-finite parameter value"),
            (0, v[:, :2] <= 0, "h and l must be positive"),
            (2, v[:, 2:3] < 1, "eps_r must be >= 1"),
            (3, (v[:, 3:] < 0) | (v[:, 3:] > 1), "tau must lie in [0, 1]"),
        )
        for first, bad, cause in checks:
            if bad.any():
                vertex, col = divmod(int(np.flatnonzero(bad)[0]), bad.shape[1])
                raise ValueError(f"vertex {vertex}, {PARAM_CHANNELS[first + col]}: {cause}")


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
