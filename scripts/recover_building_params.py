#!/usr/bin/env python3
"""Closed-loop recovery of building scattering parameters.

The two-block building starts effectively invisible (eps_r = 1,
h = l = 1e-4 m) and must climb to (6.885, 0.02, 0.01).  Adam runs with
eps = 0 so the first steps stay lr-sized despite ~1e-30 gradients.
"""

import argparse
import os
import time

from sartrace.experiments import (building_recovery_protocol, recovered_errors,
                                  render_references, run_recovery)
from sartrace.learn import write_history_csv
from sartrace.scene import save_param_map


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="directory for params/history CSVs")
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    proto = building_recovery_protocol(seed=args.seed)
    refs = render_references(proto)
    t0 = time.perf_counter()

    def progress(done, params):
        got = params.values[proto.target_ids[0]]
        print(f"  iter {done:5d}: eps_r={got[2]:8.4f} h={got[0]:.6f} l={got[1]:.6f}")

    params, results, used = run_recovery(proto, refs, progress=progress)
    dt = time.perf_counter() - t0

    got = params.values[proto.target_ids[0]]
    err_h, err_l, err_e = recovered_errors(proto, params)
    print(f"finished {used} Adam iterations in {dt:.1f} s")
    print(f"{'parameter':10s} {'init':>10s} {'recovered':>12s} {'truth':>10s} {'err':>8s}")
    rows = [("eps_r", 1.0, got[2], 6.885, err_e),
            ("h (m)", 0.0001, got[0], 0.02, err_h),
            ("l (m)", 0.0001, got[1], 0.01, err_l)]
    for name, init, rec, truth, err in rows:
        print(f"{name:10s} {init:10.4g} {rec:12.6g} {truth:10.4g} {err * 100:7.2f}%")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_param_map(params, os.path.join(args.out, "params_final.csv"))
        for pi, res in enumerate(results):
            write_history_csv(res, os.path.join(args.out, f"history_phase{pi}.csv"))
        print(f"wrote results to {args.out}")


if __name__ == "__main__":
    main()
