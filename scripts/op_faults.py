#!/usr/bin/env python3
"""Minor page faults and CPU time per warm operation, measured in-process.

    PYTHONPATH=src python3 scripts/op_faults.py --ops 200

Six operations: one `sartrace simulate` command on the README demo
scene (as scripts/make_demo_scene.py writes it), one `learn` iteration of
the cube recovery protocol, one `learn` iteration on a seeded
20,000-facet heightfield (every vertex tied, tau frozen, lambda_mat =
1e-3, three 256-ray views at azimuths 0, 120 and 240 degrees), and one
render of a 256-ray and of a 16-ray view of that heightfield through its
BVH (built once, before the renders); the 16-ray view shows a view's
cost that does not grow with its rays.  The last row renders the
256-ray view again, with a linear scan of four rays over the whole mesh
before each view and outside its reading, as the benchmark checks its
views: a warm loop keeps the BVH's tables in cache, which the
benchmark's views do not find there.  Each runs WARMUP times first,
then --ops times, and the script reads the process's `ru_minflt` (all
threads) and CPU time around every operation.  It prints one line per
operation with the medians, here from a 2-core Xeon VM (numpy 2.4.6,
glibc 2.36), pinned to one core:

    operation                 ops  minflt_p50  cpu_ms_p50
    simulate                  200          93       4.928
    learn_iteration           200           0       0.249
    terrain_learn_iteration   200           0       0.271
    bvh_render                200           0       1.303
    bvh_render_16             200           0       0.658
    bvh_render_scanned        200           0       1.631

The 16-ray view, 0.66 ms, is the intercept of a view's time over its
rays: the 240 rays more of the 256-ray view add another 0.65 ms.  While
the view path called numpy's Python-level wrappers (np.flatnonzero,
np.repeat, np.diff, np.clip, np.stack and others, about 40 calls a
view) and its first leaf step compared its hits with the +inf nearest
hits, the two BVH rows read 1.36 to 1.41 and 0.76 to 0.78 ms on that
VM; over twelve alternating sessions of the two versions on a loaded
host their medians went from 1.70 to 1.49 and from 0.98 to 0.82 ms.
Shading the heightfield's three views takes about 0.19 ms.  While an
iteration rebuilt its loss factors, copied the gradient rows of the
channels with an unknown and interpolated every channel, the two learn
rows read 0.242 to 0.257 and 0.264 to 0.269 ms on that VM.  When learn
handed adam_step an (n, 4) gradient table and summed the TV term over
every edge, its heightfield iteration read 692 to 1,147 faults and 2.9
to 3.1 ms; while adam_step wrote every tied entry each step, 0.33 to
0.48 ms.  The simulate fault count depends on the host, on the run and
on the code's layout: on that VM it has read 84 to 321 for the same
shading code (93 in the twelve sessions above, 84 or 93 for the
version before).  A
warm operation that faults tens or hundreds of pages usually frees a
block of 64 KiB or more: glibc then trims the top of the heap, and the
next operation faults the pages back in.  CPU ms are raw process CPU
time, not the benchmark's calibrated scale.
"""

import argparse
import contextlib
import functools
import io
import math
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np

import sartrace.learn
from sartrace import cli
from sartrace.accel import build_bvh, intersect_rays
from sartrace.experiments import AdamPhase, cube_recovery_protocol, run_recovery
from sartrace.imaging import generate_rays, render, shade_views, trace_views
from sartrace.learn import LossConfig, OptimState, learn
from sartrace.scatter import WaveConfig
from sartrace.scene import Mesh, ParamMap
from sartrace.scenes import multiview_radars, side_looking_radar

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from make_demo_scene import write_demo  # noqa: E402

# operations run before the measured ones, so caches and the heap settle
WARMUP = 20


def _reading():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.process_time()


def _medians(readings):
    """(median faults, median CPU ms) between consecutive readings."""
    return _span_medians(zip(readings, readings[1:]))


def _span_medians(spans):
    """(median faults, median CPU ms) over (before, after) reading pairs."""
    spans = list(spans)
    faults = [b[0] - a[0] for a, b in spans]
    cpu_ms = [1e3 * (b[1] - a[1]) for a, b in spans]
    return statistics.median(faults), statistics.median(cpu_ms)


def simulate(ops):
    """Commands run back to back, a reading before each and after the last."""
    with tempfile.TemporaryDirectory() as directory:
        config, _ = write_demo(directory)
        argv = ["simulate", "--config", config]
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(WARMUP):
                cli.main(argv)
            readings = [_reading()]
            for _ in range(ops):
                if cli.main(argv) != 0:
                    sys.exit("sartrace simulate failed on the demo scene")
                readings.append(_reading())
    return _medians(readings)


def _adam_steps(run):
    """Readings at every adam_step call while run() learns: an iteration is
    the span between consecutive calls.  Medians after the first WARMUP."""
    readings, adam_step = [], sartrace.learn.adam_step

    def timed(*args):
        readings.append(_reading())
        return adam_step(*args)

    sartrace.learn.adam_step = timed
    try:
        run()
    finally:
        sartrace.learn.adam_step = adam_step
    return _medians(readings[WARMUP:])


def learn_iteration(ops):
    """One iteration of the cube recovery protocol's first phase."""
    proto = cube_recovery_protocol()
    proto = replace(proto, phases=(AdamPhase(lr=0.10, iters=WARMUP + ops + 1, beta2=0.99),))
    return _adam_steps(lambda: run_recovery(proto))


def heightfield(num_azimuth=16):
    """A seeded 100 x 100-cell heightfield, its table and a radar of
    num_azimuth rows of 16 rays."""
    rng = np.random.default_rng(7)
    xs = np.linspace(-10.0, 10.0, 101)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    z = (0.4 * np.sin(0.7 * x + rng.uniform(0.0, 6.0)) * np.cos(0.5 * y)
         + rng.normal(0.0, 0.03, x.shape))
    corner = np.arange(101 ** 2).reshape(101, 101)[:100, :100].ravel()
    mesh = Mesh.from_arrays(
        np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1),
        np.concatenate([np.stack([corner, corner + 101, corner + 102], axis=1),
                        np.stack([corner, corner + 102, corner + 1], axis=1)]))
    params = ParamMap.constant(mesh.num_vertices, 0.004, 0.02, 9.0, 0.05)
    radar = side_looking_radar(WaveConfig(9.6e9), distance=25.0, incidence=math.radians(40.0),
                               track_length=12.0, num_azimuth=num_azimuth,
                               fan_halfwidth=math.radians(12.0), num_angles=8,
                               range_res=0.1, spua=2, seed=5)
    return mesh, params, radar


def terrain_learn_iteration(ops):
    """One learn iteration on the heightfield, every vertex tied, tau
    frozen, lambda_mat = 1e-3, from three 256-ray views at azimuths 0, 120
    and 240 degrees."""
    mesh, truth, radar = heightfield()
    bvh = build_bvh(mesh)
    hitsets = trace_views(mesh, multiview_radars(radar, (0.0, 120.0, 240.0)), bvh=bvh)
    views = [(hits, image.intensities) for hits, (image, _) in zip(
        hitsets, shade_views(hitsets, truth))]
    start = ParamMap.constant(mesh.num_vertices, 0.005, 0.015, 12.0, 0.05)
    opt = OptimState.create(mesh.num_vertices, lr=0.05, freeze_channels=("tau",),
                            tie_groups=[np.arange(mesh.num_vertices)])
    return _adam_steps(lambda: learn(start, views, opt, LossConfig(lambda_mat=1e-3),
                                     iters=WARMUP + ops + 1))


def bvh_render(ops, num_azimuth=16, scan_between=False):
    """One view of the heightfield, rendered through its BVH.  With
    scan_between, a linear scan of four of the view's rays over the whole
    mesh runs before each view, outside the reading, as the benchmark's
    brute-force check does between its views."""
    mesh, params, radar = heightfield(num_azimuth)
    bvh = build_bvh(mesh)
    fan = generate_rays(radar, np.arange(radar.num_azimuth))
    for _ in range(WARMUP):
        render(mesh, params, radar, bvh=bvh)
    spans = []
    for _ in range(ops):
        if scan_between:
            intersect_rays(mesh, fan.origins[:4], fan.directions[:4])
        before = _reading()
        render(mesh, params, radar, bvh=bvh)
        spans.append((before, _reading()))
    return _span_medians(spans)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--ops", type=int, default=200, help="measured operations of each kind")
    args = ap.parse_args()
    if args.ops < 1:
        ap.error("--ops must be at least 1")
    print(f"{'operation':<24} {'ops':>4} {'minflt_p50':>11} {'cpu_ms_p50':>11}")
    for name, op in (("simulate", simulate), ("learn_iteration", learn_iteration),
                     ("terrain_learn_iteration", terrain_learn_iteration),
                     ("bvh_render", bvh_render),
                     ("bvh_render_16", functools.partial(bvh_render, num_azimuth=1)),
                     ("bvh_render_scanned", functools.partial(bvh_render, scan_between=True))):
        faults, cpu_ms = op(args.ops)
        print(f"{name:<24} {args.ops:>4} {faults:>11g} {cpu_ms:>11.3f}")


if __name__ == "__main__":
    main()
