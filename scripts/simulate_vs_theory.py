#!/usr/bin/env python3
"""Compare Monte Carlo root marginals against the analytic one-step recursion.

Runs the truncated-tree simulator and prints, per time step, the simulated
marginal, the analytic marginal, and whether the simulation lands inside the
95% band implied by the replication count.  Takes the flags of
``treemajority simulate`` (``--out`` and ``--format`` are accepted and
ignored); exits 1 when any marginal falls outside its band.

Usage:
    python scripts/simulate_vs_theory.py --m 3 --p-b 1 --p-r 0.85 --pi0 0.2 \
        --depth 8 --horizon 8 --reps 2000 --seed 7
"""

import math
import sys

from treemajority.cli import _params_from_args, build_parser
from treemajority.mc import SimConfig, simulate_tree
from treemajority.update_map import UpdateMap, g_eval


def main() -> int:
    parser = build_parser()
    args = parser.parse_args(["simulate", *sys.argv[1:]])
    try:
        params = _params_from_args(args)
        cfg = SimConfig(params, args.depth, args.horizon, args.pi0, args.seed, args.reps)
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")
    result = simulate_tree(cfg)

    gm = UpdateMap.from_params(params)
    analytic = [args.pi0]
    for _ in range(args.horizon):
        analytic.append(g_eval(gm, analytic[-1]))

    print(f"{params}, pi0={args.pi0}, depth={args.depth}, reps={args.reps}, seed={args.seed}")
    print(f"{'t':>3} {'simulated':>11} {'analytic':>11} {'band':>9}  inside")
    misses = 0
    for t in range(args.horizon + 1):
        band = 1.96 * math.sqrt(analytic[t] * (1 - analytic[t]) / args.reps)
        diff = abs(result.pi_hat[t] - analytic[t])
        inside = diff == 0.0 if band == 0.0 else diff <= band
        misses += not inside
        print(
            f"{t:>3} {result.pi_hat[t]:>11.5f} {analytic[t]:>11.6f} {band:>9.5f}  "
            f"{'yes' if inside else 'NO'}"
        )
    print(f"max same-level pair correlation: {result.pair_correlation}")
    print("all marginals inside the 95% band" if misses == 0 else f"{misses} point(s) outside")
    return 0 if misses == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
