#!/usr/bin/env python3
"""sartrace benchmark: one workload, closed loop, in this process.

    python3 perfbench/run.py --workload cube_recovery --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  ``--smoke`` alone runs every workload on small
inputs, traced and untraced, and checks that every metric named in
BENCHMARK.json is printed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("cube_recovery", "terrain_render", "cli_simulate")

# calibrate() time of the reference machine at its fastest: reported times are
# CPU times scaled by CAL_REF_S / (calibrate() time measured beside them)
CAL_REF_S = 0.4e-3
CAL_WINDOW = 4      # ops on each side whose calibrations set an op's scale


def tail(values):
    """(percentile, value): the highest whole percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 40:
        return None, max(values)
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)
    return pct, sorted(values)[rank - 1]


def op_scales(cal):
    """Per-op scale: CAL_REF_S over the median calibration of the op's neighbours."""
    return [CAL_REF_S / statistics.median(cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
            for i in range(len(cal))]


def machine():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    numpy = importlib.import_module("numpy")
    return {"cores": os.cpu_count(), "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
            "cpu": model, "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def run_workload(args):
    # One core: numpy's BLAS starts no threads of its own, and the threads of
    # the program's own pool share the core with the calibration kernel, so
    # the speed calibrate() measures is the speed the operations got.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "sartrace", "cli.py")):
        sys.exit(f"run.py: no sartrace sources under {SRC}")
    sys.path.insert(0, SRC)
    c0, t0 = time.process_time(), time.perf_counter()
    cli = importlib.import_module("sartrace.cli")
    import_s, import_wall_s = time.process_time() - c0, time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"run.py: imported {cli.__file__}, not the checkout's sources")

    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    seed = args.seed % 2 ** 63
    run = workloads.WORKLOADS[args.workload](
        seed=seed, seconds=args.seconds, tracer=tracer, smoke=args.smoke, cli=cli,
        import_s=import_s, import_wall_s=import_wall_s,
        work_dir=os.path.join(OUT, f"work-{os.getpid()}"))
    if tracer is not None:
        tracer.uninstall()

    scales = op_scales(run.op_cal)
    setup_scales = [CAL_REF_S / c for c in run.setup_cal]
    op_ms = [1e3 * s * f for s, f in zip(run.op_s, scales)]
    setup_s = [s * f for s, f in zip(run.setup_s, setup_scales)]
    pct, tail_ms = tail(op_ms) if op_ms else (None, None)
    wall_ms = [1e3 * s for s in run.op_wall_s]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": machine(),
        "inputs": run.inputs, "operations_timed": len(op_ms),
        "tail_percentile": pct, "setup_samples_s": setup_s,
        "wall": {"setup_s": statistics.median(run.setup_wall_s),
                 "op_ms.p50": statistics.median(wall_ms) if wall_ms else None,
                 "op_ms.tail": tail(wall_ms)[1] if wall_ms else None},
        "calibrate_ms_median": 1e3 * statistics.median(run.op_cal + run.setup_cal),
        "problems": run.problems,
    }
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
             f"trace {args.trace}" + ("  SMOKE (small inputs)" if args.smoke else ""),
             "machine  " + "  ".join(f"{k}={v}" for k, v in record["machine"].items()),
             "inputs   " + "  ".join(f"{k}={v}" for k, v in run.inputs.items()),
             f"ops      attempted={run.attempted}  failed={run.failed}  timed={len(op_ms)}",
             "wall     " + "  ".join(f"{k}={v:.6g}" for k, v in record["wall"].items()
                                     if v is not None)
             + f"  (calibrate() median {record['calibrate_ms_median']:.4f} ms, "
               f"reference {1e3 * CAL_REF_S} ms)"]
    lines += [f"PROBLEM  {p}" for p in run.problems]

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup_s), "s")
        if op_ms:
            metrics["op_ms.p50"] = (statistics.median(op_ms), "ms")
            metrics["op_ms.tail"] = (tail_ms, "ms")
        metrics["peak_rss_mb"] = (run.peak_rss_mb, "MB")
        lines.append(f"setup_s is the median of {len(run.setup_s)} set-ups; op_ms.tail is "
                     + (f"p{pct} of {len(op_ms)} operations" if pct else
                        f"the maximum of {len(op_ms)} operations (fewer than 40)"))
    else:
        for bucket, f in zip(run.op_buckets, scales):
            tracing.scale(bucket, f)
        for bucket, f in zip(run.setup_buckets, setup_scales):
            tracing.scale(bucket, f)
        # spans are wall times, so self times are taken from the wall time of the op
        op_wall_ms = [1e3 * s * f for s, f in zip(run.op_wall_s, scales)]
        values, missing, off_path = tracing.layer_metrics(
            run.op_buckets, op_wall_ms, run.setup_buckets, run.expected_spans, run.not_defined)
        metrics.update(values)
        if op_ms:
            metrics["traced.op_ms.p50"] = (statistics.median(op_ms), "ms")
        record["missing_spans"] = missing
        record["off_path"] = off_path
        lines.append("MISSING  expected spans that never fired: "
                     + (", ".join(missing) if missing else "none"))
        lines.append("off path (printed as 0, not measured on this workload): "
                     + ", ".join(off_path))
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:28s} {value:14.6g} {unit}")

    result = {"correct": not run.wrong_output, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record["result"] = result
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(os.path.join(OUT, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def smoke():
    """Every workload on small inputs, both ways; every metric must be printed."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bad = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=170, check=False)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                bad.append(f"{workload} trace {trace}: no result (exit {proc.returncode})\n"
                           + proc.stderr[-2000:])
                continue
            absent = [m["name"] for m in names
                      if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            if proc.returncode or not result["correct"] or absent:
                bad.append(f"{workload} trace {trace}: exit {proc.returncode}, correct "
                           f"{result['correct']}, absent or wrong unit: {absent}")
            print(f"smoke {workload:15s} trace {trace}: {time.perf_counter() - t0:5.1f} s, "
                  f"{len(result['metrics'])} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    for line in bad:
        print("SMOKE FAILURE", line)
    print("smoke: " + ("FAILED" if bad else "ok, every metric in BENCHMARK.json printed"))
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs; without --workload, check every workload's metrics")
    args = ap.parse_args(argv)
    if args.workload is None:
        if not args.smoke:
            ap.error("--workload is required")
        return smoke()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
