"""Computations the benchmark checks the program against, written apart from it."""

from __future__ import annotations

import numpy as np

# same self-intersection guard as the program's intersector, meters
EPS_T = 1e-6


def nearest_hits(vertices, facets, origins, directions, chunk=20_000):
    """Nearest facet id and distance per ray by testing every facet.

    Ray/plane distance followed by three edge-side tests, a different
    formulation from the program's Moller-Trumbore solve.  Edges count as
    inside; ties on distance go to the lowest facet id.  Returns
    (facet_ids, t) with -1 and +inf for misses.
    """
    origins = np.asarray(origins, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    n_rays = origins.shape[0]
    best_t = np.full(n_rays, np.inf)
    best_f = np.full(n_rays, -1, dtype=np.int64)
    rows = np.arange(n_rays)
    for lo in range(0, facets.shape[0], chunk):
        tri = vertices[facets[lo:lo + chunk]]            # (C, 3, 3)
        a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
        normal = np.cross(b - a, c - a)                  # (C, 3)
        denom = directions @ normal.T                    # (R, C)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (np.einsum("ck,ck->c", a, normal)[None, :] - origins @ normal.T) / denom
            q = origins[:, None, :] + t[:, :, None] * directions[:, None, :]
            inside = np.ones(t.shape, dtype=bool)
            for p, r in ((a, b), (b, c), (c, a)):
                side = np.einsum("rck,ck->rc", np.cross(r - p, q - p[None]), normal)
                inside &= side >= 0.0
            t = np.where(inside & (denom != 0.0) & (t > EPS_T), t, np.inf)
        j = np.argmin(t, axis=1)
        tj = t[rows, j]
        closer = tj < best_t
        best_t[closer] = tj[closer]
        best_f[closer] = lo + j[closer]
    return best_f, best_t


def read_sarf(path):
    """Parse a SARF1 raster: one ASCII header line, then row-major float32 LE.

    Returns (float32 array (rows, cols), header dict).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.index(b"\n")
    fields = data[:end].decode("ascii").split()
    if len(fields) != 6 or fields[0] != "SARF1":
        raise ValueError(f"{path}: not a SARF1 header: {fields!r}")
    rows, cols = int(fields[1]), int(fields[2])
    payload = data[end + 1:]
    if len(payload) != rows * cols * 4:
        raise ValueError(f"{path}: payload of {len(payload)} bytes for {rows}x{cols}")
    header = {"azimuth_res": float(fields[3]), "range_res": float(fields[4]),
              "range_origin": float(fields[5])}
    return np.frombuffer(payload, dtype="<f4").reshape(rows, cols), header
