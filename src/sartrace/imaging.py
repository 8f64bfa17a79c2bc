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

Rendering a view is two steps, each one batch over the rays of all its
rows.  trace does the geometry: ray fans, nearest hits, local incidence
angles, quadrature weights, range coordinates and the range window,
kept per hit in a HitSet.  shade does the parameter-dependent work:
interpolate the parameter table at the hits, evaluate the BSDF and bin
the intensities into the image; its HitLedger is the HitSet plus each
hit's range bin, sigma and dsigma.  render is shade(trace(...)).  Bin
assignment is treated as non-differentiable and no parameter moves a
hit, so a HitSet stays valid for every parameter table on its mesh:
the inverse loop traces each view once and shades it per iteration.
Parameter gradients flow through the per-hit intensities only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from sartrace.accel import Bvh, intersect_rays
from sartrace.scatter import WaveConfig, eval_bsdf_batch
from sartrace.scene import Mesh, ParamMap, interpolate_at_hits

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
        """Unit directions for incidence angles (rad from vertical)."""
        alphas = np.atleast_1d(np.asarray(alphas, dtype=np.float64))
        return (np.sin(alphas)[:, None] * self.side_dir[None, :]
                - np.cos(alphas)[:, None] * _WORLD_UP[None, :])


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
        u_axis = track - np.dot(track, r_axis) * r_axis
        n = np.linalg.norm(u_axis)
        if n < 1e-12:
            raise ValueError("track direction is parallel to the fan-top ray")
        u_axis = -u_axis / n
        v_axis = _cross(r_axis, u_axis)
        rot = np.stack([u_axis, v_axis, r_axis])
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
    origins = np.repeat(radar.platform_positions()[rows], n_bins * spua, axis=0)
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
    frame = MapFrame.from_radar(radar)
    h_v = frame.apply(mesh.vertices)[:, 2]
    origin = float(h_v.max())
    num_bins = int(math.floor((origin - float(h_v.min())) / radar.range_res)) + 1
    return origin, num_bins


@dataclass(frozen=True)
class SarImage:
    """Azimuth x range intensity raster plus imaging metadata."""

    intensities: np.ndarray   # (num_azimuth, num_range_bins), >= 0
    radar: RadarConfig
    range_origin: float       # map-frame R coordinate of bin 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.intensities.shape

    @property
    def num_range_bins(self) -> int:
        return self.intensities.shape[1]


@dataclass(frozen=True)
class HitSet:
    """Geometry of one traced view: every per-hit quantity that no
    parameter can change.

    Hits are in row-major ray order; weights are the angular quadrature
    weights from the generating fan.
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

    @property
    def num_entries(self) -> int:
        return self.row.shape[0]


@dataclass(frozen=True)
class HitLedger(HitSet):
    """A HitSet shaded with one parameter table: everything backward needs.

    shade builds it from the HitSet's own fields, so its geometry arrays
    are the HitSet's objects; it adds each hit's range bin and its BSDF
    value and partials.
    """

    range_bin: np.ndarray = field(repr=False)   # (n,)
    sigma: np.ndarray = field(repr=False)       # (n,)
    dsigma: np.ndarray = field(repr=False)      # (n, 4) partials wrt h, l, eps_r, tau


def trace(mesh: Mesh, radar: RadarConfig, bvh: Bvh | None = None,
          range_window: tuple[float, int] | None = None) -> HitSet:
    """Trace one view's rays and keep the geometry of its hits.

    One generate_rays call makes the rays of every azimuth row, and they
    go to intersect_rays as one batch.
    The view's jitter stream is seeded by seed, so the hits depend on
    the seed only.  By default the range window is [min, max] of the
    hit coordinates (the vertex window when nothing is hit); pass
    range_window=(origin, num_bins) to pin the pixel grid across runs
    (see vertex_range_window); a non-finite origin or a num_bins that is
    not an integer from 1 to _MAX_RANGE_BINS raises a ValueError.
    """
    if range_window is not None:
        origin, num_bins = range_window
        if not math.isfinite(origin):
            raise ValueError(f"range_window origin {origin!r} is not finite")
        if not (isinstance(num_bins, numbers.Integral) and 1 <= num_bins <= _MAX_RANGE_BINS):
            raise ValueError(f"range_window num_bins {num_bins!r} is not an integer "
                             f"from 1 to {_MAX_RANGE_BINS}")
    rows = radar.num_azimuth
    fan = generate_rays(radar, np.arange(rows))
    ray_row = np.repeat(np.arange(rows), radar.num_angles * radar.spua)

    fid, t, m1, m2, cos_t = intersect_rays(mesh, fan.origins, fan.directions, bvh=bvh)
    sel = np.nonzero(fid >= 0)[0]
    points = fan.origins.take(sel, axis=0) + t[sel, None] * fan.directions.take(sel, axis=0)
    h_r = MapFrame.from_radar(radar).apply(points)[:, 2]

    if range_window is None and sel.size:
        origin = float(h_r.max())
        num_bins = int(math.floor((origin - float(h_r.min())) / radar.range_res)) + 1
    elif range_window is None:
        origin, num_bins = vertex_range_window(mesh, radar)
    if num_bins > _MAX_RANGE_BINS:
        raise ValueError(
            f"range window spans {num_bins} bins at range_res={radar.range_res}")

    return HitSet(mesh=mesh, radar=radar, range_origin=origin, image_shape=(rows, num_bins),
                  row=ray_row[sel], facet_id=fid[sel], m1=m1[sel], m2=m2[sel],
                  theta=np.arccos(np.clip(cos_t[sel], 0.0, 1.0)), weight=fan.weights[sel],
                  ranges=h_r)


def shade(hits: HitSet, params: ParamMap):
    """Shade a traced view with a parameter table: (SarImage, HitLedger).

    One interpolate_at_hits call, one eval_bsdf_batch call and one
    bin_ranges_fast call.  A range window that leaves out a hit raises a
    ValueError naming the bin.
    """
    if params.num_vertices != hits.mesh.num_vertices:
        raise ValueError("parameter table size does not match the mesh")
    radar = hits.radar
    values = interpolate_at_hits(hits.mesh, params.values, hits.facet_id, hits.m1, hits.m2)
    sigma, dsigma = eval_bsdf_batch(hits.theta, values, radar.wave)
    image, range_bin = bin_ranges_fast(hits.row, hits.ranges, hits.weight * sigma,
                                       radar.range_res, hits.range_origin, hits.image_shape)
    # hits may itself be a ledger: its shading is replaced
    ledger = HitLedger(**{**vars(hits), "range_bin": range_bin, "sigma": sigma, "dsigma": dsigma})
    return SarImage(intensities=image, radar=radar, range_origin=hits.range_origin), ledger


def render(mesh: Mesh, params: ParamMap, radar: RadarConfig, bvh: Bvh | None = None,
           range_window: tuple[float, int] | None = None):
    """Render one SAR intensity image and the hit ledger behind it.

    shade(trace(mesh, radar, bvh, range_window), params): see trace for
    the rays and the range window.  To render one view under many
    parameter tables, trace it once and shade the HitSet for each table.
    """
    return shade(trace(mesh, radar, bvh=bvh, range_window=range_window), params)


# ----------------------------------------------------------------------
# image file formats

def write_pgm(image: SarImage, path) -> None:
    """16-bit max-normalized binary PGM for quick viewing."""
    data = image.intensities
    peak = data.max()
    scaled = np.zeros_like(data) if peak <= 0 else data / peak
    pixels = np.round(scaled * 65535.0).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n65535\n".encode("ascii"))
        fh.write(pixels.tobytes())


def write_raster(image: SarImage, path) -> None:
    """Raw raster: one ASCII header line, then row-major float32 LE."""
    rows, cols = image.intensities.shape
    header = (f"SARF1 {rows} {cols} {image.radar.azimuth_res!r} {image.radar.range_res!r} "
              f"{image.range_origin!r}\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(image.intensities.astype("<f4").tobytes())


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
    header raises a ValueError naming the file and the field.
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
        raw = fh.read(rows * cols * 4)
        if len(raw) != rows * cols * 4:
            raise ValueError(f"{path}: truncated raster payload")
        data = np.frombuffer(raw, dtype="<f4").reshape(rows, cols).astype(np.float64)
    return data, meta
