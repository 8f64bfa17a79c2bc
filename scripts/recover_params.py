#!/usr/bin/env python3
"""Closed-loop recovery of scattering parameters for one protocol.

Renders the protocol's reference views at ground truth, re-initializes
the target's (h, l, eps_r) and recovers them by phased Adam, the plane
frozen at its true values and the target's vertices tied to one record.
Each phase runs all its iterations and hands the next its best table,
the one of least loss it evaluated.
`cube`: a cube on a plane starts at the plane's values and climbs to
(75, 0.002, 0.001) in 500 iterations.  `building`: a two-block building
starts effectively black (eps_r = 1, h = l = 1e-4 m) and climbs to
(6.885, 0.02, 0.01); Adam runs with eps = 0 so its first steps stay
lr-sized despite ~1e-30 gradients.  Prints the target's best values
after each phase, then start, recovered value, truth and error per
parameter.
"""

import argparse
import os
import time

from sartrace.experiments import (building_recovery_protocol, cube_recovery_protocol,
                                  recovered_errors, render_references, run_recovery)
from sartrace.learn import write_history_csv
from sartrace.scene import save_param_map


def main():
    protocols = {"cube": cube_recovery_protocol, "building": building_recovery_protocol}
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--protocol", choices=sorted(protocols), required=True)
    ap.add_argument("--out", default=None, help="directory for params/history CSVs")
    ap.add_argument("--seed", type=int, default=None,
                    help="radar jitter seed (default: the protocol's, 7 or 11)")
    args = ap.parse_args()

    seed = {} if args.seed is None else {"seed": args.seed}
    proto = protocols[args.protocol](**seed)
    refs = render_references(proto)
    vid = proto.target_ids[0]
    t0 = time.perf_counter()

    def progress(done, params):
        got = params.values[vid]
        print(f"  iter {done:5d}: eps_r={got[2]:8.4f} h={got[0]:.6f} l={got[1]:.6f}")

    params, results, used = run_recovery(proto, refs, progress=progress)
    dt = time.perf_counter() - t0

    errors = recovered_errors(proto, params)
    print(f"finished {used} Adam iterations in {dt:.1f} s")
    print(f"{'parameter':10s} {'init':>10s} {'recovered':>12s} {'truth':>10s} {'err':>8s}")
    for name, c in (("eps_r", 2), ("h (m)", 0), ("l (m)", 1)):
        print(f"{name:10s} {proto.init.values[vid, c]:10.4g} {params.values[vid, c]:12.6g} "
              f"{proto.truth.values[vid, c]:10.4g} {errors[c] * 100:7.2f}%")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_param_map(params, os.path.join(args.out, "params_final.csv"))
        for pi, res in enumerate(results):
            write_history_csv(res, os.path.join(args.out, f"history_phase{pi}.csv"))
        print(f"wrote results to {args.out}")


if __name__ == "__main__":
    main()
