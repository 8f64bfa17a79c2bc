#!/usr/bin/env python3
"""Minor page faults and CPU time per warm operation, measured in-process.

    PYTHONPATH=src python3 scripts/op_faults.py --ops 200

Four operations: one `sartrace simulate` command on the README demo
scene (as scripts/make_demo_scene.py writes it), one `learn` iteration of
the cube recovery protocol, and one render of a 256-ray and of a 16-ray
view of a seeded 20,000-facet heightfield through its BVH (built once,
before the renders); the 16-ray view shows a view's cost that does not
grow with its rays.  Each runs WARMUP times first, then --ops times, and
the script reads the process's `ru_minflt` (all threads) and CPU time
around every operation.  It prints one line per operation with the medians, here from
a 2-core Xeon VM (numpy 2.4.6, glibc 2.36):

    operation         ops  minflt_p50  cpu_ms_p50
    simulate          200         150       4.549
    learn_iteration   200           0       0.308
    bvh_render        200           0       1.279
    bvh_render_16     200           0       0.677

The simulate fault count depends on the host and on the run: eight runs
on that VM read 147 to 161, and earlier builds read 129 to 321.  A warm
operation that faults tens or hundreds of pages usually frees a block
of 64 KiB or more: glibc then trims the top of the heap, and the next
operation faults the pages back in.  CPU ms are raw process CPU
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
from sartrace.accel import build_bvh
from sartrace.experiments import AdamPhase, cube_recovery_protocol, run_recovery
from sartrace.imaging import render
from sartrace.scatter import WaveConfig
from sartrace.scene import Mesh, ParamMap
from sartrace.scenes import side_looking_radar

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from make_demo_scene import write_demo  # noqa: E402

# operations run before the measured ones, so caches and the heap settle
WARMUP = 20


def _reading():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.process_time()


def _medians(readings):
    """(median faults, median CPU ms) between consecutive readings."""
    faults = [b[0] - a[0] for a, b in zip(readings, readings[1:])]
    cpu_ms = [1e3 * (b[1] - a[1]) for a, b in zip(readings, readings[1:])]
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


def learn_iteration(ops):
    """One iteration is the span between consecutive adam_step calls."""
    proto = cube_recovery_protocol()
    proto = replace(proto, phases=(AdamPhase(lr=0.10, iters=WARMUP + ops + 1, beta2=0.99),))
    readings, adam_step = [], sartrace.learn.adam_step

    def timed(*args):
        readings.append(_reading())
        return adam_step(*args)

    sartrace.learn.adam_step = timed
    try:
        run_recovery(proto)
    finally:
        sartrace.learn.adam_step = adam_step
    return _medians(readings[WARMUP:])


def bvh_render(ops, num_azimuth=16):
    """One view of num_azimuth rows of 16 rays of a seeded 100 x 100-cell
    heightfield, rendered through its BVH."""
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
    bvh = build_bvh(mesh)
    for _ in range(WARMUP):
        render(mesh, params, radar, bvh=bvh)
    readings = [_reading()]
    for _ in range(ops):
        render(mesh, params, radar, bvh=bvh)
        readings.append(_reading())
    return _medians(readings)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--ops", type=int, default=200, help="measured operations of each kind")
    args = ap.parse_args()
    if args.ops < 1:
        ap.error("--ops must be at least 1")
    print(f"{'operation':<16} {'ops':>4} {'minflt_p50':>11} {'cpu_ms_p50':>11}")
    for name, op in (("simulate", simulate), ("learn_iteration", learn_iteration),
                     ("bvh_render", bvh_render),
                     ("bvh_render_16", functools.partial(bvh_render, num_azimuth=1))):
        faults, cpu_ms = op(args.ops)
        print(f"{name:<16} {args.ops:>4} {faults:>11g} {cpu_ms:>11.3f}")


if __name__ == "__main__":
    main()
