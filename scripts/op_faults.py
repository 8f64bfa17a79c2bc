#!/usr/bin/env python3
"""Minor page faults and CPU time per warm operation, measured in-process.

    PYTHONPATH=src python3 scripts/op_faults.py --ops 200

Two operations: one `sartrace simulate` command on the README demo scene
(as scripts/make_demo_scene.py writes it) and one `learn` iteration of
the cube recovery protocol.  Each runs WARMUP times first, then --ops
times, and the script reads the process's `ru_minflt` (all threads) and
CPU time around every operation.  It prints one line per operation with
the medians:

    operation         ops  minflt_p50  cpu_ms_p50
    simulate          200         129       5.098
    learn_iteration   200           0       0.348

A warm operation that faults tens or hundreds of pages usually frees a
block of 64 KiB or more: glibc then trims the top of the heap, and the
next operation faults the pages back in.  CPU ms are raw process CPU
time, not the benchmark's calibrated scale.
"""

import argparse
import contextlib
import io
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import replace

import sartrace.learn
from sartrace import cli
from sartrace.experiments import AdamPhase, cube_recovery_protocol, run_recovery

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


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--ops", type=int, default=200, help="measured operations of each kind")
    args = ap.parse_args()
    if args.ops < 1:
        ap.error("--ops must be at least 1")
    print(f"{'operation':<16} {'ops':>4} {'minflt_p50':>11} {'cpu_ms_p50':>11}")
    for name, op in (("simulate", simulate), ("learn_iteration", learn_iteration)):
        faults, cpu_ms = op(args.ops)
        print(f"{name:<16} {args.ops:>4} {faults:>11g} {cpu_ms:>11.3f}")


if __name__ == "__main__":
    main()
