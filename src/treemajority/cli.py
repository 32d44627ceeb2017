"""Command-line front end: policy tables, map curves, fixed points, trajectories,
phase thresholds, tree simulations, and derivative cross-checks.

Each handler returns its results as a dict, or CSV text under ``policy`` and
``gmap``'s ``--format csv``.  ``main`` turns a dict into the JSON report: a
``spec`` echo of every parsed flag (rates resolved to ``p_b``/``p_r``), so
replaying the echo reproduces the report exactly, then the results.  Exit
codes: 0 success, 2 usage or validation error (an unwritable ``--out``
included), 3 unsupported analysis regime, 4 internal solver failure.

numpy and the simulator (``mc``) are imported by the handlers that use them,
``simulate``, ``estimate-g`` and ``dcheck``, so the analytic subcommands
start without them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from .dynamics import (
    SolverError,
    UnsupportedRegimeError,
    _trajectory_request,
    find_fixed_points,
    solve_threshold,
)
from .model import ModelParams, policy_table, policy_value
from .update_map import UpdateMap, df_dp, g_double_prime, g_eval, g_prime

__all__ = ["main", "build_parser"]


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _add_param_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--m", type=int, required=True, help="children per vertex (2..64)")
    sp.add_argument("--p", type=float, default=None, help="common success rate (sets both p_b and p_r)")
    sp.add_argument("--p-b", type=float, default=None, dest="p_b", help="success rate for technology B")
    sp.add_argument("--p-r", type=float, default=None, dest="p_r", help="success rate for technology R")


def _params_from_args(args: argparse.Namespace) -> ModelParams:
    if args.p is not None:
        if args.p_b is not None or args.p_r is not None:
            raise ValueError("--p is mutually exclusive with --p-b/--p-r")
        return ModelParams.symmetric(args.m, args.p)
    if args.p_b is None or args.p_r is None:
        raise ValueError("either --p or both --p-b and --p-r are required")
    return ModelParams(args.m, args.p_b, args.p_r)


# never echoed: the raw rates (echoed resolved), the output path and the handler
_UNECHOED = frozenset({"p", "p_b", "p_r", "out", "handler"})


def _spec(args: argparse.Namespace) -> dict:
    """The command, the resolved m, p_b and p_r for subcommands that take rates,
    then every other flag in the order ``build_parser`` declares it (argparse
    fills the namespace in that order)."""
    spec = {"command": args.command}
    if hasattr(args, "p"):
        params = _params_from_args(args)
        spec.update(m=params.m, p_b=params.p_b, p_r=params.p_r)
    for key, value in vars(args).items():
        if key not in spec and key not in _UNECHOED:
            spec[key] = value
    return spec


def _to_json(report: dict) -> str:
    # RFC 8259 JSON has no NaN or Infinity: a report holding one raises ValueError (exit 2)
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _cmd_policy(args) -> dict | str:
    table = policy_table(_params_from_args(args))
    if args.format == "csv":
        lines = ["k,f"] + [f"{k},{_fmt(v)}" for k, v in enumerate(table)]
        return "\n".join(lines) + "\n"
    return {"policy": {str(k): v for k, v in enumerate(table)}}


def _cmd_gmap(args) -> dict | str:
    params = _params_from_args(args)
    if args.grid < 1:
        raise ValueError("--grid must be at least 1")
    gm = UpdateMap.from_params(params)
    # bit for bit np.linspace(0, 1, grid + 1): k times the rounded step, then exactly 1
    xs = [k * (1.0 / args.grid) for k in range(args.grid)] + [1.0]
    g = [g_eval(gm, x) for x in xs]
    gp = [g_prime(gm, x) for x in xs]
    gpp = [g_double_prime(gm, x) for x in xs]
    if args.format == "csv":
        lines = ["x,g,gprime,gdoubleprime"]
        lines += [
            f"{_fmt(x)},{_fmt(a)},{_fmt(b)},{_fmt(c)}" for x, a, b, c in zip(xs, g, gp, gpp)
        ]
        return "\n".join(lines) + "\n"
    return {"x": xs, "g": g, "gprime": gp, "gdoubleprime": gpp}


def _cmd_fixed_points(args) -> dict:
    fps = find_fixed_points(_params_from_args(args))
    return {"count": len(fps.points), "points": [asdict(fp) for fp in fps.points]}


def _cmd_trajectory(args) -> dict:
    params = _params_from_args(args)
    traj, predicted = _trajectory_request(params, args.pi0, args.steps, args.predict)
    report = {
        "steps_taken": len(traj.values) - 1,
        "converged": traj.converged,
        "limit": traj.limit,
        "values": list(traj.values),
    }
    if args.predict:
        report["predicted_limit"] = predicted
    return report


def _cmd_threshold(args) -> dict:
    return asdict(solve_threshold(args.m))


def _cmd_simulate(args) -> dict:
    from .mc import SimConfig, simulate_tree

    config = SimConfig(
        params=_params_from_args(args),
        depth=args.depth,
        horizon=args.horizon,
        pi_0=args.pi0,
        seed=args.seed,
        replications=args.reps,
    )
    result = simulate_tree(config)
    return {
        "pi_hat": list(result.pi_hat),
        "ci_half_width": list(result.ci_half_width),
        # null when no child pair is usable (every child constant across replications)
        "pair_correlation": None if math.isnan(result.pair_correlation) else result.pair_correlation,
        "replications_used": result.replications_used,
        "level_averages": list(result.level_averages),
    }


def _cmd_estimate(args) -> dict:
    from .mc import estimate_g_one_step

    params = _params_from_args(args)
    est, half = estimate_g_one_step(params, args.x, args.samples, args.seed)
    gm = UpdateMap.from_params(params)
    return {"estimate": est, "ci_half_width": half, "analytic": g_eval(gm, args.x)}


def _cmd_dcheck(args) -> dict:
    import numpy as np

    from .mc import _check_seed

    if args.cases < 1:
        raise ValueError("--cases must be at least 1")
    gen = np.random.Generator(np.random.Philox(key=np.uint64(_check_seed(args.seed))))
    h1, h2 = 1e-6, 1e-4
    dev_gp = dev_gpp = dev_dfdp = 0.0
    max_dfdp = -np.inf
    for _ in range(args.cases):
        m = int(gen.integers(2, 9))
        params = ModelParams(m, float(gen.random()), float(gen.random()))
        gm = UpdateMap.from_params(params)
        x = float(h2 + (1 - 2 * h2) * gen.random())
        fd1 = (g_eval(gm, x + h1) - g_eval(gm, x - h1)) / (2 * h1)
        fd2 = (g_eval(gm, x + h2) - 2 * g_eval(gm, x) + g_eval(gm, x - h2)) / h2**2
        dev_gp = max(dev_gp, abs(g_prime(gm, x) - fd1))
        dev_gpp = max(dev_gpp, abs(g_double_prime(gm, x) - fd2))

        ell = int(gen.integers(0, (m - 1) // 2 + 1))
        p = float(0.05 + 0.9 * gen.random())
        sym_hi = ModelParams.symmetric(m, p + h1)
        sym_lo = ModelParams.symmetric(m, p - h1)
        fd = (policy_value(sym_hi, ell) - policy_value(sym_lo, ell)) / (2 * h1)
        val = df_dp(m, ell, p)
        dev_dfdp = max(dev_dfdp, abs(val - fd))
        max_dfdp = max(max_dfdp, val)
    return {
        "max_abs_dev_gprime": dev_gp,
        "max_abs_dev_gdoubleprime": dev_gpp,
        "max_abs_dev_df_dp": dev_dfdp,
        "max_df_dp": max_dfdp,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treemajority",
        description="Absolute-majority learning dynamics on rooted m-ary trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *formats):
        sp.add_argument("--out", type=str, default=None, help="write the report to this path")
        if formats:
            sp.add_argument("--format", choices=formats, default="csv")

    sp = sub.add_parser("policy", help="policy table f(0..m)")
    _add_param_flags(sp)
    common(sp, "json", "csv")
    sp.set_defaults(handler=_cmd_policy)

    sp = sub.add_parser("gmap", help="sampled curve of g, g', g''")
    _add_param_flags(sp)
    sp.add_argument("--grid", type=int, required=True, help="number of intervals on [0,1]")
    common(sp, "csv", "json")
    sp.set_defaults(handler=_cmd_gmap)

    sp = sub.add_parser("fixed-points", help="fixed points of the update map")
    _add_param_flags(sp)
    common(sp)
    sp.set_defaults(handler=_cmd_fixed_points)

    sp = sub.add_parser("trajectory", help="iterate the marginal recursion")
    _add_param_flags(sp)
    sp.add_argument("--pi0", type=float, required=True)
    sp.add_argument("--steps", type=int, default=10**6, help="maximum iterations")
    sp.add_argument(
        "--predict", action="store_true", help="also report the basin-predicted limit"
    )
    common(sp)
    sp.set_defaults(handler=_cmd_trajectory)

    sp = sub.add_parser("threshold", help="symmetric-regime phase threshold p(m)")
    sp.add_argument("--m", type=int, required=True)
    common(sp)
    sp.set_defaults(handler=_cmd_threshold)

    sp = sub.add_parser("simulate", help="Monte Carlo tree simulation")
    _add_param_flags(sp)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--horizon", type=int, required=True)
    sp.add_argument("--pi0", type=float, required=True)
    sp.add_argument("--reps", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    common(sp)
    sp.set_defaults(handler=_cmd_simulate)

    sp = sub.add_parser("estimate-g", help="one-step Monte Carlo estimate of g(x)")
    _add_param_flags(sp)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    common(sp)
    sp.set_defaults(handler=_cmd_estimate)

    sp = sub.add_parser("dcheck", help="derivatives vs finite differences sweep")
    sp.add_argument("--cases", type=int, default=200)
    sp.add_argument("--seed", type=int, required=True)
    common(sp)
    sp.set_defaults(handler=_cmd_dcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
        text = report if isinstance(report, str) else _to_json({"spec": _spec(args), **report})
    except UnsupportedRegimeError as exc:
        print(f"error: unsupported regime: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
