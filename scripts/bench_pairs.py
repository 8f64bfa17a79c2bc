#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, with the verdict per metric.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 --seed 8501 \\
        --out BENCH_N.json

PARENT_DIR and CHANGE_DIR are two source checkouts.  For each workload of
CHANGE_DIR's BENCHMARK.json, pair i runs `perfbench/run.py --trace 0` with
seed `--seed + i` in both checkouts, the parent first in even pairs and the
change first in odd ones, one process at a time and with bytecode writing
off, so that each process compiles its checkout's source as a fresh
checkout does.  It prints, per workload and end-to-end metric, each side's
median and quartiles, the pairs the change won (ties count for neither) and
the verdict of the rule for a small sandbox:

- gain: the change won at least nine tenths of the pairs, and the medians
  differ, in its favour, by more than the parent's interquartile distance;
- worse: the change's median is worse than the parent's by more than the
  metric's bound;
- unresolved: the parent's interquartile distance is wider than the bound,
  and not every run of the change reads better than every parent run;
- within bound: anything else.

With --out it also writes every run and the summary as JSON.  It exits
with an error, before any run, when either checkout has a __pycache__
under src/: bytecode left there by a test run is read even with bytecode
writing off, so the process would skip the compile that setup_s and
peak_rss_mb measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    """(end-to-end metrics, run record) of one benchmark process."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=False)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"{checkout}: {workload} seed {seed} printed no result "
                 f"(exit {proc.returncode})\n{proc.stderr[-2000:]}")
    path = os.path.join(checkout, "perfbench", "out", f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, {"correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"], "inputs": record["inputs"],
                    "machine": record["machine"]}


def stale_bytecode(checkout):
    """The first __pycache__ directory under checkout's src/, or None."""
    for dirpath, dirnames, _ in os.walk(os.path.join(checkout, "src")):
        if "__pycache__" in dirnames:
            return os.path.join(dirpath, "__pycache__")
    return None


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent, change, better, bound):
    """The rule's verdict on one metric: parent and change are the pairs' values."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (p_med - c_med)
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        return wins, "gain"
    if -gain > bound * abs(p_med):
        return wins, "worse"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if q3 - q1 > bound * abs(p_med) and not all_better:
        return wins, "unresolved"
    return wins, "within bound"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=8501, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length; default: BENCHMARK.json's run_seconds")
    ap.add_argument("--workloads", nargs="+", default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    for checkout in (args.parent, args.change):
        found = stale_bytecode(checkout)
        if found:
            sys.exit(f"{found}: bytecode under src/ would be read by the runs; "
                     "run on clean checkouts (git archive)")

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    report = {"method": f"{args.pairs} alternating pairs per workload, seeds {args.seed}-"
                        f"{args.seed + args.pairs - 1}, {seconds} s runs, parent first in "
                        "even pairs; bytecode writing off", "workloads": {}}
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs = {side: run_once(getattr(args, side), workload, seed, seconds)
                    for side in sides}
            pairs.append({"seed": seed, "first": sides[0],
                          **{side: runs[side][0] for side in sides},
                          "runs": {side: runs[side][1] for side in sides}})
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: "
                  + "  ".join(f"{m['name']} {pairs[-1]['parent'][m['name']]:.4g} -> "
                              f"{pairs[-1]['change'][m['name']]:.4g}" for m in metrics),
                  flush=True)
        summary = {}
        print(f"\n{workload}: metric, parent median [q1, q3], change median [q1, q3], "
              "change won, verdict")
        for m in metrics:
            name = m["name"]
            parent = [p["parent"][name] for p in pairs]
            change = [p["change"][name] for p in pairs]
            wins, word = verdict(parent, change, m["better"], m["bound"])
            summary[name] = {
                "parent": {"median": statistics.median(parent), "quartiles": quartiles(parent)},
                "change": {"median": statistics.median(change), "quartiles": quartiles(change)},
                "ratio_change_over_parent": statistics.median(change) / statistics.median(parent),
                "change_won": f"{wins}/{len(pairs)}", "verdict": word}
            s = summary[name]
            print(f"  {name:12s} {s['parent']['median']:.4g} [{s['parent']['quartiles'][0]:.4g}, "
                  f"{s['parent']['quartiles'][1]:.4g}]  {s['change']['median']:.4g} "
                  f"[{s['change']['quartiles'][0]:.4g}, {s['change']['quartiles'][1]:.4g}]  "
                  f"{wins}/{len(pairs)}  {word}")
        all_correct = all(r["correct"] for p in pairs for r in p["runs"].values())
        print(f"  every run correct: {all_correct}\n", flush=True)
        report["workloads"][workload] = {"summary": summary, "all_correct": all_correct,
                                         "pairs": pairs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
