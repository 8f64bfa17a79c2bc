"""The benchmark's three workloads.

Each runs closed loop in the calling process: one caller, operations back
to back.  Only calls into public functions of the package are timed, and
every output is checked outside the timed region against a computation
made apart from the program (see oracles.py) or a property the method
must have.  A failed check counts its operation as failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time

import numpy as np

import oracles

# every run times at least this many operations, so that the tail
# percentile has ten samples beyond it
MIN_OPS = 40

# ground truth of the cube protocol, stated here apart from the program
CUBE_TRUTH = {"h": 0.002, "l": 0.001, "eps_r": 75.0}
CUBE_TOL = {"h": 0.10, "l": 0.10, "eps_r": 0.03}
CUBE_ITERATIONS = 500
CUBE_LOSS_RATIO = 0.05
CUBE_SETUPS = 5

TERRAIN_GRID = 316          # 316 x 316 cells x 2 = 199,712 facets
TERRAIN_BOXES = 24          # 6 x 4 buildings x 12 = 288 facets; 200,000 in all
TERRAIN_EXTENT = 60.0       # meters
TERRAIN_SETUPS = 3
TERRAIN_CHECK_RAYS = 4      # brute-force checked rays per view

CLI_SETUPS = 5

# Operations and set-ups are timed in CPU time of this process, all its
# threads together.  The process is pinned to one core, so that is the time
# the work kept the core busy: wall time less the spells in which the core
# ran something else.  Those land on random operations; in wall time they
# made the tail of one set of ten runs spread by 41 % (see README.md).
cpu_clock = time.process_time


@dataclasses.dataclass
class Run:
    """What one workload run measured and checked."""

    op_s: list = dataclasses.field(default_factory=list)        # CPU time
    op_wall_s: list = dataclasses.field(default_factory=list)
    op_cal: list = dataclasses.field(default_factory=list)      # calibrate() after each op
    setup_s: list = dataclasses.field(default_factory=list)     # CPU time
    setup_wall_s: list = dataclasses.field(default_factory=list)
    setup_cal: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong_output: bool = False      # a check failed; an operation that raised is not wrong
    problems: list = dataclasses.field(default_factory=list)
    inputs: dict = dataclasses.field(default_factory=dict)
    op_buckets: list = dataclasses.field(default_factory=list)
    setup_buckets: list = dataclasses.field(default_factory=list)
    peak_rss_mb: float = 0.0
    expected_spans: tuple = ()
    not_defined: tuple = ()

    def fail(self, ops: int, problem: str, wrong_output: bool = True) -> None:
        self.failed += ops
        self.wrong_output |= wrong_output
        if len(self.problems) < 20:
            self.problems.append(problem)


_CAL_DATA = np.random.default_rng(0).random((64, 16, 3))


def calibrate(repeats=1):
    """Median CPU time of a fixed numpy kernel: how fast the host runs right now.

    The kernel does what the program's hot paths do, small-array numpy
    calls (cross, einsum, argmin, sort, exp) behind interpreter overhead,
    but on fixed data and without calling the program, so a change to the
    program cannot change it.  It runs beside every operation and set-up,
    outside their timing, so that their times can be scaled to a fixed
    host speed (see README.md).
    """
    times = []
    for _ in range(repeats):
        t0 = cpu_clock()
        a = _CAL_DATA
        for _ in range(6):
            c = np.cross(a, a[:, ::-1, :])
            d = np.einsum("rfk,rfk->rf", c, a)
            np.argmin(d, axis=1)
            a = a + 1e-9 * np.exp(-np.sort(d.ravel())[:3]).sum()
        times.append(cpu_clock() - t0)
    return statistics.median(times)


@contextlib.contextmanager
def untraced(tracer):
    """Checks call the program too; keep them out of the trace."""
    if tracer is None:
        yield
        return
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = True


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Stopwatch:
    """CPU and wall time since start()."""

    def start(self):
        self.cpu, self.wall = cpu_clock(), time.perf_counter()

    def lap(self):
        return cpu_clock() - self.cpu, time.perf_counter() - self.wall


def _cut(tracer, buckets):
    if tracer is not None:
        buckets.append(tracer.cut())


# ----------------------------------------------------------------------
# cube_recovery: one operation is one Adam iteration of the cube protocol

def cube_recovery(seed, seconds, tracer, smoke, **_):
    experiments = importlib.import_module("sartrace.experiments")
    learn_mod = importlib.import_module("sartrace.learn")
    run = Run(expected_spans=(
        "experiments.render_references", "experiments.render", "learn.render",
        "imaging.generate_rays", "accel.intersect_rays", "scene.interpolate_at_hits",
        "scatter.eval_bsdf_batch", "imaging.bin_ranges_fast", "imaging.range_bin_of",
        "learn.loss_sim", "learn.loss_tv", "learn.rmse_normalized", "learn.backward",
        "learn.adam_step"))

    def setup():
        watch.start()
        proto = experiments.cube_recovery_protocol(seed=seed)
        refs = experiments.render_references(proto)
        cpu, wall = watch.lap()
        run.setup_s.append(cpu)
        run.setup_wall_s.append(wall)
        _cut(tracer, run.setup_buckets)
        run.setup_cal.append(calibrate(9))
        if smoke:
            proto = dataclasses.replace(
                proto, phases=(experiments.AdamPhase(lr=0.10, iters=MIN_OPS, beta2=0.99),))
        return proto, refs

    watch = _Stopwatch()
    if tracer is not None:
        tracer.cut()
    for _ in range(CUBE_SETUPS - 1):
        setup()

    # an iteration ends when its adam_step returns; the next starts after calibrate()
    iters = {"op_s": [], "wall_s": [], "cal": []}
    adam_step = learn_mod.adam_step

    def stamped_adam_step(*args, **kwargs):
        out = adam_step(*args, **kwargs)
        cpu, wall = watch.lap()
        iters["op_s"].append(cpu)
        iters["wall_s"].append(wall)
        _cut(tracer, run.op_buckets)
        iters["cal"].append(calibrate())
        watch.start()
        return out

    learn_mod.adam_step = stamped_adam_step
    try:
        start = time.perf_counter()
        while True:
            proto, refs = setup()
            planned = sum(phase.iters for phase in proto.phases)
            for samples in iters.values():
                samples.clear()
            watch.start()
            try:
                params, results, used = experiments.run_recovery(proto, refs=refs)
            except Exception as exc:  # a failed recovery is a measured outcome
                run.attempted += planned
                run.fail(planned, f"run_recovery raised {exc!r}", wrong_output=False)
                del run.op_buckets[len(run.op_buckets) - len(iters["op_s"]):]
            else:
                run.op_s.extend(iters["op_s"])
                run.op_wall_s.extend(iters["wall_s"])
                run.op_cal.extend(iters["cal"])
                run.attempted += planned
                with untraced(tracer):
                    problem = _check_cube(proto, params, results, used, planned,
                                          len(iters["op_s"]), smoke)
                if problem:
                    run.fail(planned, problem)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        learn_mod.adam_step = adam_step

    run.peak_rss_mb = _peak_rss_mb()
    imaging = importlib.import_module("sartrace.imaging")
    with untraced(tracer):
        ledgers = [imaging.render(proto.mesh, proto.truth, radar)[1] for radar in proto.radars]
    run.inputs = {"facets": int(proto.mesh.num_facets), "views": len(refs),
                  "rays_per_view": _rays(proto.radars[0]),
                  "hits_per_view": [led.num_entries for led in ledgers],
                  "image_shapes": [list(ref.shape) for _, ref in refs],
                  "iterations_per_protocol": planned, "radar_seed": seed}
    return run


def _rays(radar):
    return radar.num_azimuth * radar.num_angles * radar.spua


def _check_cube(proto, params, results, used, planned, steps, smoke):
    iters = sum(r.iterations for r in results)
    if any(r.aborted for r in results):
        return "a learn phase aborted on a non-finite loss"
    if not used == iters == steps == planned:
        return (f"iterations: run_recovery {used}, LearnResult {iters}, "
                f"adam_step calls {steps}, planned {planned}")
    initial = float(results[0].total_loss[0])
    best = min(float(r.total_loss.min()) for r in results)
    if not best < CUBE_LOSS_RATIO * initial:
        return f"best loss / initial loss = {best / initial:.3g}"
    if smoke:
        return None
    if planned != CUBE_ITERATIONS:
        return f"the protocol plans {planned} iterations, not {CUBE_ITERATIONS}"
    truth = proto.truth.values[proto.target_ids[0], :3]
    if not np.array_equal(truth, [CUBE_TRUTH["h"], CUBE_TRUTH["l"], CUBE_TRUTH["eps_r"]]):
        return f"protocol truth {truth.tolist()} differs from the benchmark's"
    got = params.values[proto.target_ids, :3]
    if not (got == got[0]).all():
        return "tied cube vertices hold different values"
    for i, ch in enumerate(("h", "l", "eps_r")):
        err = abs(got[0, i] - CUBE_TRUTH[ch]) / CUBE_TRUTH[ch]
        if not err <= CUBE_TOL[ch]:
            return f"recovered {ch} = {got[0, i]:.6g}, {err:.1%} off the truth"
    return None


# ----------------------------------------------------------------------
# terrain_render: one operation is one single-view BVH render

def terrain_scene(seed, grid=TERRAIN_GRID):
    """Seeded heightfield with box buildings, and per-vertex parameters."""
    scene = importlib.import_module("sartrace.scene")
    scenes = importlib.import_module("sartrace.scenes")
    extent = TERRAIN_EXTENT
    rng = np.random.default_rng(seed)
    xs = np.linspace(-extent / 2.0, extent / 2.0, grid + 1)
    x, y = np.meshgrid(xs, xs, indexing="xy")
    z = np.zeros_like(x)
    # fixed spectrum, seeded phases: every seed gives a terrain of the same roughness
    for k, angle in enumerate(np.linspace(0.0, math.pi, 6, endpoint=False)):
        wavelength = 24.0 / (k + 1)
        kx, ky = 2.0 * math.pi / wavelength * np.array([math.cos(angle), math.sin(angle)])
        z += 0.6 / (k + 1) * np.sin(kx * x + ky * y + rng.uniform(0.0, 2.0 * math.pi))
    z += rng.normal(0.0, 0.02, z.shape)
    vertices = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    corner = (np.arange(grid)[None, :] + (grid + 1) * np.arange(grid)[:, None]).ravel()
    right, up = corner + 1, corner + grid + 1
    facets = np.concatenate([np.stack([corner, right, up + 1], axis=1),
                             np.stack([corner, up + 1, up], axis=1)])
    parts = [scene.Mesh.from_arrays(vertices, facets)]
    # one building per cell of a 6 x 4 grid, jittered inside its cell
    cell = np.array([extent / 6.0, extent / 4.0])
    for b in range(TERRAIN_BOXES):
        sx, sy = rng.uniform(2.0, 4.0, 2)
        sz = rng.uniform(3.0, 6.0)
        cx, cy = (np.array([b % 6, b // 6]) + rng.uniform(0.3, 0.7, 2)) * cell - extent / 2.0
        parts.append(scenes.box_mesh((sx, sy, sz), center=(cx, cy, sz / 2.0 - 0.8)))
    mesh = scenes.merge_meshes(parts)
    n = mesh.num_vertices
    values = np.stack([rng.uniform(0.002, 0.008, n), rng.uniform(0.005, 0.02, n),
                       rng.uniform(3.0, 30.0, n), rng.uniform(0.0, 0.3, n)], axis=1)
    return mesh, scene.ParamMap(values)


def terrain_view(seed, i, num_azimuth=16):
    """View i: its own azimuth (golden-angle steps) and its own jitter seed."""
    scatter = importlib.import_module("sartrace.scatter")
    scenes = importlib.import_module("sartrace.scenes")
    wave = scatter.WaveConfig(9.6e9, "HH", "exponential")
    base = scenes.side_looking_radar(
        wave, distance=60.0, incidence=math.radians(45.0), track_length=30.0,
        num_azimuth=num_azimuth, fan_halfwidth=math.radians(15.0), num_angles=8,
        range_res=0.25, spua=2, seed=seed * 1_000_003 + i)
    azimuth = (seed % 360 + 137.50776405 * i) % 360.0
    return scenes.rotate_radar(base, math.radians(azimuth))


def terrain_render(seed, seconds, tracer, smoke, **_):
    accel = importlib.import_module("sartrace.accel")
    imaging = importlib.import_module("sartrace.imaging")
    run = Run(expected_spans=("accel.build_bvh", "imaging.render", "imaging.generate_rays",
                              "accel.intersect_rays", "scene.interpolate_at_hits",
                              "scatter.eval_bsdf_batch", "imaging.bin_ranges_fast",
                              "imaging.range_bin_of"))
    grid = 40 if smoke else TERRAIN_GRID
    num_azimuth = 4 if smoke else 16

    watch = _Stopwatch()

    def setup():
        watch.start()
        mesh, params = terrain_scene(seed, grid=grid)
        bvh = accel.build_bvh(mesh)
        cpu, wall = watch.lap()
        run.setup_s.append(cpu)
        run.setup_wall_s.append(wall)
        _cut(tracer, run.setup_buckets)
        run.setup_cal.append(calibrate(9))
        return mesh, params, bvh

    if tracer is not None:
        tracer.cut()
    mesh, params, bvh = setup()

    rng = np.random.default_rng((seed, 1))
    hits, shapes = [], []
    start = time.perf_counter()
    while run.attempted < MIN_OPS or time.perf_counter() - start < seconds:
        i = run.attempted
        radar = terrain_view(seed, i, num_azimuth)
        run.attempted += 1
        watch.start()
        try:
            image, ledger = imaging.render(mesh, params, radar, bvh=bvh)
        except Exception as exc:  # a failed render is a measured outcome
            run.fail(1, f"view {i}: render raised {exc!r}", wrong_output=False)
            _cut(tracer, [])
        else:
            cpu, wall = watch.lap()
            run.op_s.append(cpu)
            run.op_wall_s.append(wall)
            _cut(tracer, run.op_buckets)
            run.op_cal.append(calibrate())
            with untraced(tracer):
                problem = _check_terrain_view(accel, imaging, mesh, bvh, radar,
                                              image, ledger, rng)
            if problem:
                run.fail(1, f"view {i}: {problem}")
            hits.append(ledger.num_entries)
            shapes.append(image.shape)
    # A second 200k-facet build in this process raises the high-water mark by
    # 5-13 % through heap fragmentation, so the peak is read first and the
    # further set-ups, which only add samples to setup_s, come after.
    run.peak_rss_mb = _peak_rss_mb()
    bins = [shape[1] for shape in shapes]
    run.inputs = {"facets": int(mesh.num_facets), "vertices": int(mesh.num_vertices),
                  "bvh_nodes": int(bvh.num_nodes), "rays_per_view": _rays(radar),
                  "hits_per_view_median": float(np.median(hits)),
                  "image_rows": radar.num_azimuth,
                  "range_bins_min_max": [min(bins), max(bins)] if bins else []}
    for _ in range(0 if smoke else TERRAIN_SETUPS - 1):
        mesh = params = bvh = None
        mesh, params, bvh = setup()
    return run


def _check_terrain_view(accel, imaging, mesh, bvh, radar, image, ledger, rng):
    data = image.intensities
    if not np.isfinite(data).all() or (data < 0).any():
        return "non-finite or negative pixel"
    expect = float(np.sum(ledger.weight * ledger.sigma))
    got = float(data.sum())
    if not abs(got - expect) <= 1e-9 * abs(expect):
        return f"image sum {got!r} != ledger sum {expect!r}"
    rows = rng.integers(radar.num_azimuth, size=TERRAIN_CHECK_RAYS)
    cols = rng.integers(radar.num_angles * radar.spua, size=TERRAIN_CHECK_RAYS)
    origins, directions = [], []
    for row, col in zip(rows, cols):
        fan = imaging.generate_rays(radar, int(row))
        origins.append(fan.origins[col])
        directions.append(fan.directions[col])
    origins, directions = np.array(origins), np.array(directions)
    fid, t = accel.intersect_rays(mesh, origins, directions, bvh=bvh)[:2]
    ref_fid, ref_t = oracles.nearest_hits(mesh.vertices, mesh.facets, origins, directions)
    if not np.array_equal(fid, ref_fid):
        return f"BVH facet ids {fid.tolist()} != brute force {ref_fid.tolist()}"
    hit = ref_fid >= 0
    if not np.all(np.abs(t[hit] - ref_t[hit]) <= 1e-9 * np.maximum(1.0, ref_t[hit])):
        return f"BVH distances {t.tolist()} != brute force {ref_t.tolist()}"
    return None


# ----------------------------------------------------------------------
# cli_simulate: one operation is one in-process `sartrace simulate`

def write_demo_inputs(cli, directory, seed):
    """The README demo scene, written as scripts/make_demo_scene.py does."""
    scene = importlib.import_module("sartrace.scene")
    scenes = importlib.import_module("sartrace.scenes")
    os.makedirs(directory, exist_ok=True)
    mesh, plane_ids, _ = scenes.cube_plane_scene(plane_size=8.0, cube_size=2.0)
    scene.write_obj(mesh, os.path.join(directory, "scene.obj"))
    cfg = cli.SceneConfig(
        mesh_path="scene.obj", init=(0.005, 0.01, 25.0, 0.05), init_csv=None,
        frequency=9.6e9, polarization="HH", psd="exponential",
        start=(-1.25, 4.243, 4.243), end=(1.25, 4.243, 4.243),
        num_azimuth=16, alpha_start_deg=25.0, alpha_stop_deg=65.0, num_angles=24,
        range_res=0.05, azimuth_res=0.1667, spua=2, seed=seed,
        view_azimuths_deg=(0.0, 120.0, 240.0), scene_center=(0.0, 0.0, 0.0),
        lambda_sim=1.0, lambda_mat=0.0, normalize=True,
        lr=0.05, iters=150, beta1=0.9, beta2=0.99, eps_adam=1e-8, lr_decay=1.0,
        train_vertices=f"{plane_ids.size}:{mesh.num_vertices}", tie=True,
        freeze_channels=("tau",), out_dir="out")
    path = os.path.join(directory, "run.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cli.serialize_config(cfg))
    return path


def cli_simulate(seed, seconds, tracer, smoke, cli, import_s, import_wall_s, work_dir, **_):
    run = Run(expected_spans=("cli.parse_config", "cli.build_scene", "scene.load_mesh",
                              "cli.render", "imaging.generate_rays", "accel.intersect_rays",
                              "scene.interpolate_at_hits", "scatter.eval_bsdf_batch",
                              "imaging.bin_ranges_fast", "imaging.range_bin_of",
                              "imaging.write_raster", "imaging.write_pgm",
                              "cli.write_manifest"),
              # render's row stages overlap on the CLI's thread pool
              not_defined=("imaging.render_self_ms",))
    watch = _Stopwatch()
    if tracer is not None:
        tracer.cut()
    try:
        for _ in range(1 if smoke else CLI_SETUPS):
            watch.start()
            config = write_demo_inputs(cli, work_dir, seed)
            cpu, wall = watch.lap()
            run.setup_s.append(import_s + cpu)
            run.setup_wall_s.append(import_wall_s + wall)
            _cut(tracer, run.setup_buckets)
            run.setup_cal.append(calibrate(9))

        library = None          # (facets, [(image, ledger)]) rendered by the library
        first_hashes = None
        start = time.perf_counter()
        while run.attempted < MIN_OPS or time.perf_counter() - start < seconds:
            run.attempted += 1
            with contextlib.redirect_stdout(io.StringIO()):
                watch.start()
                try:
                    code = cli.main(["simulate", "--config", config])
                except Exception as exc:  # a failed command is a measured outcome
                    code = repr(exc)
                cpu, wall = watch.lap()
            _cut(tracer, run.op_buckets if code == 0 else [])
            if code != 0:
                run.fail(1, f"command {run.attempted}: exit {code}", wrong_output=False)
                continue
            run.op_s.append(cpu)
            run.op_wall_s.append(wall)
            run.op_cal.append(calibrate())
            with untraced(tracer):
                if library is None:
                    library = _library_renders(cli, config)
                problem, hashes = _check_cli_outputs(work_dir, [img for img, _ in library[1]])
            if problem is None and first_hashes is not None and hashes != first_hashes:
                problem = "output hashes differ from the first command's"
            first_hashes = first_hashes or hashes
            if problem:
                run.fail(1, f"command {run.attempted}: {problem}")
        run.peak_rss_mb = _peak_rss_mb()
        if library is not None:
            facets, renders = library
            run.inputs = {"facets": facets, "views": len(renders),
                          "rays_per_view": _rays(renders[0][0].radar),
                          "hits_per_view": [led.num_entries for _, led in renders],
                          "image_shapes": [list(img.shape) for img, _ in renders],
                          "radar_seed": seed}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return run


def _library_renders(cli, config):
    imaging = importlib.import_module("sartrace.imaging")
    cfg = cli.parse_config(config)
    mesh, params, radars = cli.build_scene(cfg, os.path.dirname(config))
    return mesh.num_facets, [imaging.render(mesh, params, radar) for radar in radars]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_cli_outputs(work_dir, references):
    out = os.path.join(work_dir, "out")
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    expect_inputs = {"scene.obj": _sha256(os.path.join(work_dir, "scene.obj"))}
    if manifest["inputs"] != expect_inputs:
        return "manifest input hashes differ from sha256 of the inputs", None
    names = [f"view_{i:03d}.{ext}" for i in range(len(references)) for ext in ("sarf", "pgm")]
    hashes = {name: _sha256(os.path.join(out, name)) for name in names}
    if manifest["outputs"] != hashes:
        return "manifest output hashes differ from sha256 of the written files", None
    for i, ref in enumerate(references):
        data, header = oracles.read_sarf(os.path.join(out, f"view_{i:03d}.sarf"))
        expect = ref.intensities
        if data.shape != expect.shape or header["range_origin"] != ref.range_origin:
            return f"view {i}: raster grid differs from the library render", hashes
        # float32 rounding of the library's float64 image: half an ulp
        if not np.all(np.abs(data.astype(np.float64) - expect) <= np.abs(expect) * 2.0 ** -24):
            return f"view {i}: raster differs from the library render", hashes
    return None, hashes


WORKLOADS = {
    "cube_recovery": cube_recovery,
    "terrain_render": terrain_render,
    "cli_simulate": cli_simulate,
}
