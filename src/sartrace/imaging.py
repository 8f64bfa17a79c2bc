"""Forward SAR rendering: ray fans, mapping projection, range binning.

The platform moves on a straight line from start_pos to end_pos;
each of the num_azimuth sample positions emits a fan of rays spanning
incidence angles [alpha0, alpha1] in the plane perpendicular to the
track (angles measured from the world vertical, side-looking toward
track x down).  Each of the num_angles fan bins carries spua stratified
jittered subsamples, so a ray's quadrature weight is
(alpha1 - alpha0) / num_angles / spua.

Hit points are transformed into the mapping frame (U along track,
R along the fan-top ray, V = R x U) and their R coordinates are binned
at the range resolution, descending from the scene-wide maximum:

    bin = floor((range_origin - H_r) / range_res)

Rows are azimuth samples; every row shares the common range window so
pixels are comparable across the image.

Rendering is two steps, each one batch over the rays of every row of
a list of views of one mesh.  trace_views does the geometry: ray fans,
nearest hits, local incidence angles, quadrature weights, range
coordinates and bins, and the range window that holds every hit,
kept per hit in a HitSet per view.  shade_views does the
parameter-dependent work with the kernel that learn uses too:
stack_views checks the views and lays them out end to end, hits and
pixels alike, scene.interpolate gives the table at every hit, shade_rows
calls eval_bsdf_at once per wave (learn's iterations call it on their
live hits), and one np.bincount over the stack sums every view's
image.  A HitLedger is a HitSet plus each hit's sigma
and dsigma.  trace and shade are the one-view forms, and render is
shade(trace(...)).  Bin assignment is treated as non-differentiable
and no parameter moves a hit, so a HitSet stays valid for every
parameter table on its mesh (any mesh of equal facets): the inverse
loop traces each view once and shades it per iteration.  Parameter
gradients flow through the per-hit intensities only.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from sartrace.accel import Bvh, intersect_rays
from sartrace.scatter import WaveConfig, bsdf_angles, eval_bsdf_at
from sartrace.scene import Mesh, ParamMap, interpolate
# the benchmark's traced run wraps these names of this module
from sartrace.scatter import eval_bsdf_batch  # noqa: F401
from sartrace.scene import interpolate_at_hits  # noqa: F401

_WORLD_UP = np.array([0.0, 0.0, 1.0])
_MAX_RANGE_BINS = 10_000_000


def _cross(a, b) -> np.ndarray:
    """np.cross of two 3-vectors, bitwise: each component is a1*b2 - a2*b1,
    as np.cross computes it, without np.cross's per-call overhead."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


@dataclass(frozen=True)
class RadarConfig:
    """Observation description for one rendered image."""

    wave: WaveConfig
    start_pos: np.ndarray        # (3,) platform position at the first row
    end_pos: np.ndarray          # (3,) platform position at the last row
    num_azimuth: int
    alpha0: float                # incidence fan limits, rad from vertical
    alpha1: float
    num_angles: int              # fan bins between alpha0 and alpha1
    range_res: float             # m
    azimuth_res: float           # m
    spua: int = 1                # Monte Carlo subsamples per fan bin
    seed: int = 0
    # unit track and side-looking directions, derived once per config
    track_dir: np.ndarray = field(init=False, repr=False, compare=False)
    side_dir: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "start_pos", np.asarray(self.start_pos, dtype=np.float64))
        object.__setattr__(self, "end_pos", np.asarray(self.end_pos, dtype=np.float64))
        if self.start_pos.shape != (3,) or self.end_pos.shape != (3,):
            raise ValueError("start_pos and end_pos must be 3-vectors")
        for name in ("start_pos", "end_pos"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} {getattr(self, name).tolist()} is not finite")
        if not (0.0 <= self.alpha0 < self.alpha1 < math.pi / 2):
            raise ValueError("need 0 <= alpha0 < alpha1 < pi/2")
        for name in ("range_res", "azimuth_res"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} {getattr(self, name)!r} is not positive and finite")
        for name, least in (("num_azimuth", 1), ("num_angles", 1), ("spua", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} {value!r} is not an integer >= {least}")
        track = self.end_pos - self.start_pos
        length = np.linalg.norm(track)
        if length == 0:
            raise ValueError("start_pos and end_pos must differ")
        if np.linalg.norm(_cross(track, _WORLD_UP)) < 1e-12 * length:
            raise ValueError("vertical trajectories are not supported")
        track_dir = track / length
        side = _cross(track_dir, _WORLD_UP)
        for name, value in (("track_dir", track_dir), ("side_dir", side / np.linalg.norm(side))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def platform_positions(self) -> np.ndarray:
        return np.linspace(self.start_pos, self.end_pos, self.num_azimuth)

    def ray_directions(self, alphas) -> np.ndarray:
        """Unit directions (n, 3) for n incidence angles (rad from vertical),
        a scalar or a 1-D array; any other shape raises a ValueError naming
        it.  sin(a) side_dir - cos(a) up, with up's zero components not
        multiplied: x - (+0) is x, so for angles of non-negative cosine, as
        every fan angle is, the directions are bitwise the product form's."""
        alphas = np.asarray(alphas, dtype=np.float64)
        if alphas.ndim > 1:
            raise ValueError(f"incidence angles of shape {alphas.shape}, not a scalar or 1-D")
        directions = np.multiply.outer(np.sin(alphas), self.side_dir).reshape(-1, 3)
        directions[:, 2] -= np.cos(alphas)
        return directions


@dataclass(frozen=True)
class MapFrame:
    """World -> mapping-plane affine transform p_m = R p_w + T."""

    rotation: np.ndarray     # (3, 3), orthonormal
    translation: np.ndarray  # (3,)

    @staticmethod
    def from_radar(radar: RadarConfig) -> "MapFrame":
        """Frame anchored at the first platform position.

        R follows the fan-top ray (the alpha1 edge); U is the track
        direction orthogonalized against R and negated, so U points
        against the flight; V = R x U completes a right-handed frame.
        Range binning only reads the R coordinate, so the U/V
        orientation is cosmetic.
        """
        r_axis = radar.ray_directions(radar.alpha1)[0]
        track = radar.track_dir
        u_axis = track - track.dot(r_axis) * r_axis
        n = math.sqrt(u_axis.dot(u_axis))      # np.linalg.norm of a 1-D vector
        if n < 1e-12:
            raise ValueError("track direction is parallel to the fan-top ray")
        u_axis = -u_axis / n
        v_axis = _cross(r_axis, u_axis)
        rot = np.array([u_axis, v_axis, r_axis])
        return MapFrame(rotation=rot, translation=-rot @ radar.start_pos)

    def apply(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return points @ self.rotation.T + self.translation


@dataclass(frozen=True)
class RayFan:
    """Ray batch of one or more azimuth rows, row-major, with weights."""

    origins: np.ndarray      # (n, 3)
    directions: np.ndarray   # (n, 3) unit
    weights: np.ndarray      # (n,) rad per ray: bin width / spua
    angles: np.ndarray       # (n,) incidence angles, rad


def generate_rays(radar: RadarConfig, azimuth_index) -> RayFan:
    """Stratified jittered incidence fans at one azimuth row (an int) or a
    1-D int array of rows, concatenated row-major, num_angles * spua rays
    per row.

    Reproducible: one jitter stream per view, seeded by seed; a row's rays are its slice.
    With spua = 1 jitter is disabled and rays sit at bin centers.
    """
    rows = np.asarray(azimuth_index)
    if rows.ndim > 1 or rows.dtype.kind not in "iu":
        raise ValueError(f"azimuth index {azimuth_index!r} is not an int or a 1-D int array")
    rows = rows.reshape(-1)
    if rows.size and not (0 <= rows.min() and rows.max() < radar.num_azimuth):
        raise ValueError(f"azimuth index {azimuth_index} out of range")
    n_bins, spua = radar.num_angles, radar.spua
    width = (radar.alpha1 - radar.alpha0) / n_bins
    if spua == 1:
        offsets = np.full((rows.size, n_bins, 1), 0.5)
    else:
        jitter = np.random.default_rng(radar.seed).random((rows.max(initial=0) + 1, n_bins, spua))
        offsets = (np.arange(spua) + jitter.take(rows, axis=0)) / spua
    angles = (radar.alpha0 + width * (np.arange(n_bins)[:, None] + offsets)).ravel()
    directions = radar.ray_directions(angles)
    origins = radar.platform_positions().take(rows, axis=0).repeat(n_bins * spua, axis=0)
    weights = np.full(angles.shape, width / spua)
    return RayFan(origins=origins, directions=directions, weights=weights, angles=angles)


def bin_ranges_fast(rows, ranges, intensities, range_res: float, range_origin: float,
                    shape: tuple[int, int]):
    """Whole-view range binning of per-hit intensities.

    Each hit lands in pixel (row, bin) with bin from range_bin_of, and
    the pixels are summed with one np.bincount over row * num_bins + bin.
    Returns (image of the given (num_rows, num_bins) shape, per-hit bins).
    """
    rows = np.asarray(rows, dtype=np.int64)
    intensities = np.asarray(intensities, dtype=np.float64)
    if not rows.shape == np.shape(ranges) == intensities.shape:
        raise ValueError("rows, ranges and intensities must have the same length")
    if range_res <= 0:
        raise ValueError("range_res must be positive")
    num_rows, num_bins = shape
    bins = range_bin_of(ranges, range_res, range_origin)
    if bins.size:
        if bins.min() < 0:
            raise ValueError(f"range beyond range_origin (negative bin {bins.min()})")
        if bins.max() >= num_bins:
            raise ValueError(f"bin {bins.max()} outside profile of {num_bins} bins")
    image = np.bincount(rows * num_bins + bins, weights=intensities,
                        minlength=num_rows * num_bins)
    image = image.astype(np.float64, copy=False)    # bincount gives int64 when no hit
    return image.reshape(num_rows, num_bins), bins


def range_bin_of(ranges, range_res: float, range_origin: float) -> np.ndarray:
    """Bin index per hit: floor((range_origin - range) / range_res)."""
    return np.floor((range_origin - np.asarray(ranges, dtype=np.float64))
                    / range_res).astype(np.int64)


def vertex_range_window(mesh: Mesh, radar: RadarConfig) -> tuple[float, int]:
    """Conservative (range_origin, num_bins) covering every possible hit.

    Hit points are convex combinations of facet vertices, so the vertex
    extremes along the range axis bound all hit coordinates.  Use as the
    range_window argument of render when images from several runs must
    share a pixel grid.
    """
    return _range_window(MapFrame.from_radar(radar).apply(mesh.vertices)[:, 2], radar.range_res)


def _range_window(coords: np.ndarray, range_res: float) -> tuple[float, int]:
    """(range_origin, num_bins) spanning [min, max] of range coordinates."""
    origin = float(coords.max())
    return origin, int(math.floor((origin - float(coords.min())) / range_res)) + 1


@dataclass(frozen=True)
class SarImage:
    """Azimuth x range intensity raster plus imaging metadata."""

    intensities: np.ndarray   # (num_azimuth, range bins), >= 0
    radar: RadarConfig
    range_origin: float       # map-frame R coordinate of bin 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.intensities.shape


@dataclass(frozen=True)
class HitSet:
    """Geometry of one traced view: every per-hit quantity that no
    parameter can change.

    Hits are in row-major ray order; weights are the angular quadrature
    weights from the generating fan.  Every range_bin lies in
    [0, image_shape[1]): trace_views refuses a window that leaves out a hit.
    """

    mesh: Mesh
    radar: RadarConfig
    range_origin: float                         # map-frame R coordinate of bin 0
    image_shape: tuple[int, int]
    row: np.ndarray = field(repr=False)         # (n,) azimuth row
    facet_id: np.ndarray = field(repr=False)    # (n,)
    m1: np.ndarray = field(repr=False)          # (n,) barycentric weights
    m2: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)       # (n,) local incidence angle, rad
    weight: np.ndarray = field(repr=False)      # (n,)
    ranges: np.ndarray = field(repr=False)      # (n,) map-frame R coordinate
    range_bin: np.ndarray = field(repr=False)   # (n,) range_bin_of its range

    @property
    def num_entries(self) -> int:
        return self.row.shape[0]


@dataclass(frozen=True)
class HitLedger(HitSet):
    """A HitSet shaded with one parameter table: everything backward needs.

    shade builds it from the HitSet's own fields, so its geometry arrays
    are the HitSet's objects; it adds each hit's BSDF value and partials.
    """

    sigma: np.ndarray = field(repr=False)       # (n,)
    dsigma: np.ndarray = field(repr=False)      # (n, 4) partials wrt h, l, eps_r, tau


def trace_views(mesh: Mesh, radars, bvh: Bvh | None = None,
                range_windows=None) -> list[HitSet]:
    """Trace views of one mesh, their rays in one intersect_rays call: one
    HitSet per radar, bitwise what tracing each view alone gives.

    A view's range window is [min, max] of its hit coordinates (the vertex
    window when nothing is hit) unless range_windows, one (origin,
    num_bins) or None per radar, pins it (see vertex_range_window).  A
    non-finite origin or a num_bins that is not an integer from 1 to
    _MAX_RANGE_BINS (a bool is not one) raises a ValueError before
    anything is traced, and a pinned window that leaves out a hit one
    that names the view and bin.
    """
    windows = [None] * len(radars) if range_windows is None else list(range_windows)
    if len(windows) != len(radars):
        raise ValueError(f"{len(windows)} range windows for {len(radars)} views")
    for window in filter(None, windows):
        origin, num_bins = window
        if not math.isfinite(origin):
            raise ValueError(f"range_window origin {origin!r} is not finite")
        if (isinstance(num_bins, bool) or not isinstance(num_bins, numbers.Integral)
                or not 1 <= num_bins <= _MAX_RANGE_BINS):
            raise ValueError(f"range_window num_bins {num_bins!r} is not an integer "
                             f"from 1 to {_MAX_RANGE_BINS}")
    if not radars:
        return []
    fans = [generate_rays(radar, np.arange(radar.num_azimuth)) for radar in radars]
    fid, t, m1, m2, cos_t = intersect_rays(
        mesh, np.concatenate([fan.origins for fan in fans]),
        np.concatenate([fan.directions for fan in fans]), bvh=bvh)

    hitsets, start = [], 0
    for vi, (radar, fan, window) in enumerate(zip(radars, fans, windows)):
        sel = (fid[start:start + fan.weights.size] >= 0).nonzero()[0]
        hit = sel + start
        start += fan.weights.size
        points = (fan.origins.take(sel, axis=0)
                  + t.take(hit)[:, None] * fan.directions.take(sel, axis=0))
        h_r = MapFrame.from_radar(radar).apply(points)[:, 2]
        if window is not None:
            origin, num_bins = window
        elif sel.size:
            origin, num_bins = _range_window(h_r, radar.range_res)
        else:
            origin, num_bins = vertex_range_window(mesh, radar)
        if num_bins > _MAX_RANGE_BINS:
            raise ValueError(
                f"range window spans {num_bins} bins at range_res={radar.range_res}")
        bins = range_bin_of(h_r, radar.range_res, origin)
        # the hits' own window spans their bins, by the same floor, so only a
        # pinned one can leave some out
        if window is not None:
            bad = bins[(bins < 0) | (bins >= num_bins)]
            if bad.size:
                raise ValueError(f"view {vi}: bin {bad[0]} outside profile of {num_bins} bins")
        # cos_t is an absolute value, so only the upper clip can act
        hitsets.append(HitSet(
            mesh=mesh, radar=radar, range_origin=origin, image_shape=(radar.num_azimuth, num_bins),
            row=sel // (radar.num_angles * radar.spua), facet_id=fid.take(hit), m1=m1.take(hit),
            m2=m2.take(hit), theta=np.arccos(np.minimum(cos_t.take(hit), 1.0)),
            weight=fan.weights.take(sel), ranges=h_r, range_bin=bins))
    return hitsets


def stack_views(hitsets, num_vertices: int):
    """Check traced views for shading with a table of num_vertices rows and
    lay them out end to end: (starts, corners, bary, theta, waves, wave_id,
    pixel, weight, spans).  View v owns hits starts[v]:starts[v + 1] and
    pixels spans[v]:spans[v + 1], its image flattened row-major.  Per hit,
    pixel (H,) is its pixel, weight (H,) its quadrature weight, corners
    (H, 3) its facet's corner ids, bary (H, 3) the row (m1, m2, 1 - m1 - m2)
    and wave_id (H,) its index into the distinct waves.  A ValueError names the view ("view v") whose
    mesh has another vertex count or whose facets differ from view 0's
    (equal facets make one mesh).  Range bins need no check: trace_views
    keeps every hit inside its view's image."""
    facets = hitsets[0].mesh.facets
    for vi, hits in enumerate(hitsets):
        if hits.mesh.num_vertices != num_vertices:
            raise ValueError(f"view {vi}: parameter table size {num_vertices} does not match "
                             f"the mesh's {hits.mesh.num_vertices} vertices")
        if hits.mesh.facets is not facets and not np.array_equal(hits.mesh.facets, facets):
            raise ValueError(f"view {vi}: traced over a different mesh than view 0")
    starts = list(itertools.accumulate([hits.num_entries for hits in hitsets], initial=0))
    spans = list(itertools.accumulate([math.prod(hits.image_shape) for hits in hitsets], initial=0))
    facet_id, m1, m2, theta, weight = (np.concatenate([getattr(hits, name) for hits in hitsets])
                                       for name in ("facet_id", "m1", "m2", "theta", "weight"))
    pixel = np.concatenate([hits.row * hits.image_shape[1] + hits.range_bin + lo
                            for hits, lo in zip(hitsets, spans)])
    waves = list(dict.fromkeys(hits.radar.wave for hits in hitsets))
    wave_id = np.array([waves.index(hits.radar.wave) for hits in hitsets],
                       dtype=np.int64).repeat([hits.num_entries for hits in hitsets])
    bary = np.empty((facet_id.size, 3))
    bary[:, 0], bary[:, 1] = m1, m2
    np.subtract(1.0 - m1, m2, out=bary[:, 2])
    return starts, facets.take(facet_id, axis=0), bary, theta, waves, wave_id, pixel, weight, spans


def by_wave(waves, wave_id, theta):
    """(BsdfAngles, rows) per wave the hits use; rows = all rows for one wave."""
    ids = np.bincount(wave_id, minlength=len(waves)).nonzero()[0]
    if ids.size == 1:
        return [(bsdf_angles(theta, waves[ids[0]]), slice(None))]
    rows = [(wave_id == w).nonzero()[0] for w in ids]
    return [(bsdf_angles(theta[r], waves[w]), r) for w, r in zip(ids, rows)]


def shade_rows(values, groups):
    """sigma (h,) and channel-major dsigma (4, h) of hits with parameter rows
    values (h, 4), each channel contiguous: one eval_bsdf_at call per
    by_wave group."""
    shaded = [(rows, eval_bsdf_at(angles, values[rows])) for angles, rows in groups]
    if len(shaded) == 1:
        sigma, grads = shaded[0][1]
        return sigma, grads.T
    sigma, dsigma = np.empty(values.shape[0]), np.empty((4, values.shape[0]))
    for rows, (part, grads) in shaded:
        sigma[rows] = part
        dsigma[:, rows] = grads.T
    return sigma, dsigma


def shade_views(hitsets, params: ParamMap):
    """Shade traced views of one mesh with a table: one (SarImage,
    HitLedger) per HitSet, bitwise what shading each view alone gives.

    stack_views checks the views and lays them out end to end, one
    scene.interpolate and shade_rows shade every hit at once (one
    eval_bsdf_at call per wave), and one np.bincount over the stack sums
    every view's pixels, each pixel's hits in the view's hit order.  A
    view's intensities are a slice of that one array.
    """
    if not hitsets:
        return []
    starts, corners, bary, theta, waves, wave_id, pixel, weight, spans = stack_views(
        hitsets, params.num_vertices)
    sigma, dsigma = shade_rows(interpolate(params.values, corners.T, bary.T).T,
                               by_wave(waves, wave_id, theta))
    # astype: bincount gives int64 when no view has a hit
    image = np.bincount(pixel, weight * sigma, spans[-1]).astype(np.float64, copy=False)
    # hits may itself be a ledger: its shading is replaced
    return [(SarImage(intensities=image[first:last].reshape(hits.image_shape), radar=hits.radar,
                      range_origin=hits.range_origin),
             HitLedger(**{**vars(hits), "sigma": sigma[lo:hi], "dsigma": dsigma[:, lo:hi].T}))
            for hits, lo, hi, first, last in zip(hitsets, starts, starts[1:], spans, spans[1:])]


def trace(mesh: Mesh, radar: RadarConfig, bvh: Bvh | None = None,
          range_window: tuple[float, int] | None = None) -> HitSet:
    """Trace one view: trace_views with one radar and its range_window."""
    return trace_views(mesh, [radar], bvh=bvh, range_windows=[range_window])[0]


def shade(hits: HitSet, params: ParamMap):
    """Shade one traced view: shade_views of one HitSet, (SarImage, HitLedger)."""
    return shade_views([hits], params)[0]


def render(mesh: Mesh, params: ParamMap, radar: RadarConfig, bvh: Bvh | None = None,
           range_window: tuple[float, int] | None = None):
    """Render one view: (SarImage, HitLedger) of shade(trace(...)).  To
    render a view under many tables, trace it once and shade it per table."""
    return shade(trace(mesh, radar, bvh=bvh, range_window=range_window), params)


# ----------------------------------------------------------------------
# image file formats

def _write(path, header: str, payload: np.ndarray) -> str:
    """Write the ASCII header, then payload's bytes in row-major order;
    returns the SHA-256 hex digest of what was written."""
    head, payload = header.encode("ascii"), np.ascontiguousarray(payload)
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(payload)
    digest = hashlib.sha256(head)
    digest.update(payload)
    return digest.hexdigest()


def write_pgm(image: SarImage, path) -> str:
    """16-bit max-normalized binary PGM for quick viewing; returns its SHA-256 hex digest."""
    data = image.intensities
    peak = data.max()
    scaled = np.zeros_like(data) if peak <= 0 else data / peak
    pixels = np.round(scaled * 65535.0).astype(">u2")
    return _write(path, f"P5\n{data.shape[1]} {data.shape[0]}\n65535\n", pixels)


def write_raster(image: SarImage, path) -> str:
    """Raw raster: one ASCII header line, then row-major float32 LE;
    returns its SHA-256 hex digest."""
    rows, cols = image.intensities.shape
    header = (f"SARF1 {rows} {cols} {image.radar.azimuth_res!r} {image.radar.range_res!r} "
              f"{image.range_origin!r}\n")
    return _write(path, header, image.intensities.astype("<f4"))


# SARF1 header fields after the magic: (name, parser, check, what the check asks)
_SARF1_FIELDS = (
    ("rows", int, lambda v: v >= 0, "a non-negative integer"),
    ("cols", int, lambda v: v >= 0, "a non-negative integer"),
    ("azimuth_res", float, lambda v: 0.0 < v < math.inf, "positive and finite"),
    ("range_res", float, lambda v: 0.0 < v < math.inf, "positive and finite"),
    ("range_origin", float, math.isfinite, "finite"),
)


def read_raster(path):
    """Read a raster written by write_raster.

    Returns (intensities float64 (rows, cols), header dict).  A malformed
    header raises a ValueError naming the file and the field, and a
    payload other than the header's rows x cols x 4 bytes one naming the
    file and both sizes.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").split()
        if len(header) != 6 or header[0] != "SARF1":
            raise ValueError(f"{path}: not a SARF1 raster")
        meta = {}
        for (name, parse, ok, what), text in zip(_SARF1_FIELDS, header[1:]):
            try:
                value = parse(text)
            except ValueError:
                value = None
            if value is None or not ok(value):
                raise ValueError(f"{path}: SARF1 header field {name} = {text!r} is not {what}")
            meta[name] = value
        rows, cols = meta.pop("rows"), meta.pop("cols")
        size, left = rows * cols * 4, os.fstat(fh.fileno()).st_size - fh.tell()
        if size != left:
            problem = "truncated raster payload" if size > left else "raster payload too long"
            raise ValueError(f"{path}: {problem}: needs {size} bytes, has {left}")
        data = np.frombuffer(fh.read(size), dtype="<f4").reshape(rows, cols).astype(np.float64)
    return data, meta
