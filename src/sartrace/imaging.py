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
pixels are comparable across the image.  A view is traced, shaded and
binned as one batch holding the rays of all its rows.  Bin assignment
is treated as non-differentiable: parameter gradients flow through the
per-hit intensities only (geometry stays fixed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sartrace.accel import Bvh, intersect_rays
from sartrace.scatter import WaveConfig, eval_bsdf_batch
from sartrace.scene import Mesh, ParamMap, interpolate_at_hits

_WORLD_UP = np.array([0.0, 0.0, 1.0])
_MAX_RANGE_BINS = 10_000_000


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

    def __post_init__(self):
        object.__setattr__(self, "start_pos", np.asarray(self.start_pos, dtype=np.float64))
        object.__setattr__(self, "end_pos", np.asarray(self.end_pos, dtype=np.float64))
        if self.start_pos.shape != (3,) or self.end_pos.shape != (3,):
            raise ValueError("start_pos and end_pos must be 3-vectors")
        if not (0.0 <= self.alpha0 < self.alpha1 < math.pi / 2):
            raise ValueError("need 0 <= alpha0 < alpha1 < pi/2")
        if self.range_res <= 0 or self.azimuth_res <= 0:
            raise ValueError("resolutions must be positive")
        if self.spua < 1 or self.num_azimuth < 1 or self.num_angles < 1:
            raise ValueError("spua, num_azimuth and num_angles must be >= 1")
        track = self.end_pos - self.start_pos
        if np.linalg.norm(track) == 0:
            raise ValueError("start_pos and end_pos must differ")
        if np.linalg.norm(np.cross(track, _WORLD_UP)) < 1e-12 * np.linalg.norm(track):
            raise ValueError("vertical trajectories are not supported")

    @property
    def track_dir(self) -> np.ndarray:
        t = self.end_pos - self.start_pos
        return t / np.linalg.norm(t)

    @property
    def side_dir(self) -> np.ndarray:
        s = np.cross(self.track_dir, _WORLD_UP)
        return s / np.linalg.norm(s)

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
        v_axis = np.cross(r_axis, u_axis)
        rot = np.stack([u_axis, v_axis, r_axis])
        return MapFrame(rotation=rot, translation=-rot @ radar.start_pos)

    def apply(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return points @ self.rotation.T + self.translation


@dataclass(frozen=True)
class RayFan:
    """One azimuth sample's ray batch with quadrature weights."""

    origins: np.ndarray      # (n, 3)
    directions: np.ndarray   # (n, 3) unit
    weights: np.ndarray      # (n,) rad per ray: bin width / spua
    angles: np.ndarray       # (n,) incidence angles, rad


def generate_rays(radar: RadarConfig, azimuth_index: int) -> RayFan:
    """Stratified jittered incidence fan at one azimuth position.

    Reproducible: the jitter stream is seeded by (seed, azimuth_index).
    With spua = 1 jitter is disabled and rays sit at bin centers.
    """
    if not 0 <= azimuth_index < radar.num_azimuth:
        raise ValueError(f"azimuth index {azimuth_index} out of range")
    n_bins, spua = radar.num_angles, radar.spua
    width = (radar.alpha1 - radar.alpha0) / n_bins
    if spua == 1:
        offsets = np.full((n_bins, 1), 0.5)
    else:
        rng = np.random.default_rng((radar.seed, azimuth_index))
        offsets = (np.arange(spua)[None, :] + rng.random((n_bins, spua))) / spua
    angles = (radar.alpha0 + width * (np.arange(n_bins)[:, None] + offsets)).ravel()
    directions = radar.ray_directions(angles)
    pos = radar.platform_positions()[azimuth_index]
    origins = np.broadcast_to(pos, directions.shape).copy()
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
    range_res: float
    azimuth_res: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.intensities.shape

    @property
    def num_range_bins(self) -> int:
        return self.intensities.shape[1]


@dataclass
class HitLedger:
    """Per-hit record of everything backward needs.

    Entries are stored in deterministic row-major hit order; weights are
    the angular quadrature weights from the generating fan.
    """

    image_shape: tuple[int, int]
    row: np.ndarray = field(repr=False)         # (n,) azimuth row
    range_bin: np.ndarray = field(repr=False)   # (n,)
    facet_id: np.ndarray = field(repr=False)    # (n,)
    m1: np.ndarray = field(repr=False)
    m2: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    dsigma: np.ndarray = field(repr=False)      # (n, 4) partials wrt h, l, eps_r, tau

    @property
    def num_entries(self) -> int:
        return self.row.shape[0]


def render(mesh: Mesh, params: ParamMap, radar: RadarConfig, bvh: Bvh | None = None,
           bsdf_fn=None, range_window: tuple[float, int] | None = None):
    """Render one SAR intensity image and the hit ledger behind it.

    The rays of every azimuth row are traced as one batch, shaded with
    one bsdf_fn call and binned with one bin_ranges_fast call.  Per-row
    jitter streams are seeded by (seed, row), so the result depends on
    the seed only.
    bsdf_fn defaults to the two-scale model and can be overridden for
    diagnostics (signature: (theta, values, wave) -> (sigma, grads)).
    By default the range window is [min, max] of the hit coordinates
    (the vertex window when nothing is hit); pass
    range_window=(origin, num_bins) to pin the pixel grid across runs
    (see vertex_range_window).
    """
    if params.num_vertices != mesh.num_vertices:
        raise ValueError("parameter table size does not match the mesh")
    bsdf_fn = bsdf_fn or eval_bsdf_batch
    rows = radar.num_azimuth
    fans = [generate_rays(radar, n) for n in range(rows)]
    origins = np.concatenate([f.origins for f in fans])
    directions = np.concatenate([f.directions for f in fans])
    ray_row = np.repeat(np.arange(rows), [f.weights.size for f in fans])
    weights = np.concatenate([f.weights for f in fans])

    fid, t, m1, m2, cos_t = intersect_rays(mesh, origins, directions, bvh=bvh)
    sel = np.nonzero(fid >= 0)[0]
    fid, t, m1, m2, weight = fid[sel], t[sel], m1[sel], m2[sel], weights[sel]
    theta = np.arccos(np.clip(cos_t[sel], 0.0, 1.0))
    values = interpolate_at_hits(mesh, params.values, fid, m1, m2)
    sigma, dsigma = bsdf_fn(theta, values, radar.wave)
    points = origins[sel] + t[:, None] * directions[sel]
    h_r = MapFrame.from_radar(radar).apply(points)[:, 2]

    if range_window is not None:
        origin, num_bins = range_window
    elif sel.size:
        origin = float(h_r.max())
        num_bins = int(math.floor((origin - float(h_r.min())) / radar.range_res)) + 1
    else:
        origin, num_bins = vertex_range_window(mesh, radar)
    if num_bins > _MAX_RANGE_BINS:
        raise ValueError(
            f"range window spans {num_bins} bins at range_res={radar.range_res}")

    row = ray_row[sel]
    image, range_bin = bin_ranges_fast(row, h_r, weight * sigma, radar.range_res,
                                       origin, (rows, num_bins))
    ledger = HitLedger(image_shape=(rows, num_bins), row=row, range_bin=range_bin,
                       facet_id=fid, m1=m1, m2=m2, weight=weight, sigma=sigma,
                       dsigma=dsigma)
    sar = SarImage(intensities=image, radar=radar, range_origin=origin,
                   range_res=radar.range_res, azimuth_res=radar.azimuth_res)
    return sar, ledger


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
    header = (f"SARF1 {rows} {cols} {image.azimuth_res!r} {image.range_res!r} "
              f"{image.range_origin!r}\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(image.intensities.astype("<f4").tobytes())


def read_raster(path):
    """Read a raster written by write_raster.

    Returns (intensities float64 (rows, cols), header dict).
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").split()
        if len(header) != 6 or header[0] != "SARF1":
            raise ValueError(f"{path}: not a SARF1 raster")
        rows, cols = int(header[1]), int(header[2])
        meta = {
            "azimuth_res": float(header[3]),
            "range_res": float(header[4]),
            "range_origin": float(header[5]),
        }
        raw = fh.read(rows * cols * 4)
        if len(raw) != rows * cols * 4:
            raise ValueError(f"{path}: truncated raster payload")
        data = np.frombuffer(raw, dtype="<f4").reshape(rows, cols).astype(np.float64)
    return data, meta
