"""Command-line front end: policy tables, map curves, fixed points, trajectories,
phase thresholds, tree simulations, and derivative cross-checks.

Reports are JSON objects (CSV for curve/table output) carrying a ``spec`` echo
of the parsed run so any report can be reproduced exactly.  Exit codes:
0 success, 2 usage or validation error, 3 unsupported analysis regime,
4 internal solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from .dynamics import (
    SolverError,
    UnsupportedRegimeError,
    _trajectory_request,
    find_fixed_points,
    solve_threshold,
)
from .model import ModelParams, policy_table, policy_value
from .mc import SimConfig, estimate_g_one_step, simulate_tree
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


def _echo_params(command: str, params: ModelParams, **extra) -> dict:
    spec = {"command": command, "m": params.m, "p_b": params.p_b, "p_r": params.p_r}
    spec.update(extra)
    return spec


def _to_json(report: dict) -> str:
    # RFC 8259 JSON has no NaN or Infinity: a report holding one raises ValueError (exit 2)
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _cmd_policy(args) -> str:
    params = _params_from_args(args)
    table = policy_table(params)
    if args.format == "csv":
        lines = ["k,f"]
        lines += [f"{k},{_fmt(v)}" for k, v in enumerate(table)]
        return "\n".join(lines) + "\n"
    report = {
        "spec": _echo_params("policy", params, format=args.format),
        "policy": {str(k): float(v) for k, v in enumerate(table)},
    }
    return _to_json(report)


def _cmd_gmap(args) -> str:
    params = _params_from_args(args)
    if args.grid < 1:
        raise ValueError("--grid must be at least 1")
    gm = UpdateMap.from_params(params)
    xs = np.linspace(0.0, 1.0, args.grid + 1)
    g = g_eval(gm, xs)
    gp = g_prime(gm, xs)
    gpp = g_double_prime(gm, xs)
    if args.format == "csv":
        lines = ["x,g,gprime,gdoubleprime"]
        lines += [
            f"{_fmt(x)},{_fmt(a)},{_fmt(b)},{_fmt(c)}" for x, a, b, c in zip(xs, g, gp, gpp)
        ]
        return "\n".join(lines) + "\n"
    report = {
        "spec": _echo_params("gmap", params, grid=args.grid, format=args.format),
        "x": list(xs),
        "g": list(g),
        "gprime": list(gp),
        "gdoubleprime": list(gpp),
    }
    return _to_json(report)


def _cmd_fixed_points(args) -> str:
    params = _params_from_args(args)
    fps = find_fixed_points(params, tol=args.tol)
    report = {
        "spec": _echo_params("fixed-points", params, tol=args.tol),
        "count": len(fps.points),
        "points": [
            {
                "value": fp.value,
                "stability": fp.stability,
                "tangent": fp.tangent,
                "residual": fp.residual,
            }
            for fp in fps.points
        ],
    }
    return _to_json(report)


def _cmd_trajectory(args) -> str:
    params = _params_from_args(args)
    traj, predicted = _trajectory_request(
        params, args.pi0, args.steps, args.conv_tol, args.predict
    )
    report = {
        "spec": _echo_params(
            "trajectory",
            params,
            pi0=args.pi0,
            steps=args.steps,
            conv_tol=args.conv_tol,
            predict=args.predict,
        ),
        "steps_taken": len(traj.values) - 1,
        "converged": traj.converged,
        "limit": traj.limit,
        "values": traj.values.tolist(),
    }
    if args.predict:
        report["predicted_limit"] = predicted
    return _to_json(report)


def _cmd_threshold(args) -> str:
    res = solve_threshold(args.m, tol=args.tol)
    report = {
        "spec": {"command": "threshold", "m": args.m, "tol": args.tol},
        "m": res.m,
        "p_threshold": res.p_threshold,
        "bracket_width": res.bracket_width,
        "evaluations": res.evaluations,
        "at_boundary": res.at_boundary,
    }
    return _to_json(report)


def _cmd_simulate(args) -> str:
    params = _params_from_args(args)
    config = SimConfig(
        params=params,
        depth=args.depth,
        horizon=args.horizon,
        pi_0=args.pi0,
        seed=args.seed,
        replications=args.reps,
    )
    result = simulate_tree(config)
    report = {
        "spec": _echo_params(
            "simulate",
            params,
            depth=args.depth,
            horizon=args.horizon,
            pi0=args.pi0,
            reps=args.reps,
            seed=args.seed,
        ),
        "pi_hat": list(result.pi_hat),
        "ci_half_width": list(result.ci_half_width),
        # null when no child pair is usable (every child constant across replications)
        "pair_correlation": None if math.isnan(result.pair_correlation) else result.pair_correlation,
        "replications_used": result.replications_used,
        "level_averages": list(result.level_averages),
    }
    return _to_json(report)


def _cmd_estimate(args) -> str:
    params = _params_from_args(args)
    est, half = estimate_g_one_step(params, args.x, args.samples, args.seed)
    gm = UpdateMap.from_params(params)
    report = {
        "spec": _echo_params(
            "estimate-g", params, x=args.x, samples=args.samples, seed=args.seed
        ),
        "estimate": est,
        "ci_half_width": half,
        "analytic": g_eval(gm, args.x),
    }
    return _to_json(report)


def _cmd_dcheck(args) -> str:
    if args.cases < 1:
        raise ValueError("--cases must be at least 1")
    gen = np.random.Generator(np.random.Philox(key=np.uint64(args.seed)))
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
    report = {
        "spec": {"command": "dcheck", "cases": args.cases, "seed": args.seed},
        "max_abs_dev_gprime": dev_gp,
        "max_abs_dev_gdoubleprime": dev_gpp,
        "max_abs_dev_df_dp": dev_dfdp,
        "max_df_dp": max_dfdp,
    }
    return _to_json(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treemajority",
        description="Absolute-majority learning dynamics on rooted m-ary trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, fmt_choices=("json",), fmt_default="json"):
        sp.add_argument("--out", type=str, default=None, help="write the report to this path")
        if fmt_choices:
            sp.add_argument("--format", choices=fmt_choices, default=fmt_default)

    sp = sub.add_parser("policy", help="policy table f(0..m)")
    _add_param_flags(sp)
    common(sp, fmt_choices=("json", "csv"), fmt_default="csv")
    sp.set_defaults(handler=_cmd_policy)

    sp = sub.add_parser("gmap", help="sampled curve of g, g', g''")
    _add_param_flags(sp)
    sp.add_argument("--grid", type=int, required=True, help="number of intervals on [0,1]")
    common(sp, fmt_choices=("csv", "json"), fmt_default="csv")
    sp.set_defaults(handler=_cmd_gmap)

    sp = sub.add_parser("fixed-points", help="fixed points of the update map")
    _add_param_flags(sp)
    sp.add_argument("--tol", type=float, default=1e-13)
    common(sp)
    sp.set_defaults(handler=_cmd_fixed_points)

    sp = sub.add_parser("trajectory", help="iterate the marginal recursion")
    _add_param_flags(sp)
    sp.add_argument("--pi0", type=float, required=True)
    sp.add_argument("--steps", type=int, default=10**6, help="maximum iterations")
    sp.add_argument("--conv-tol", type=float, default=1e-13, dest="conv_tol")
    sp.add_argument(
        "--predict", action="store_true", help="also report the basin-predicted limit"
    )
    common(sp)
    sp.set_defaults(handler=_cmd_trajectory)

    sp = sub.add_parser("threshold", help="symmetric-regime phase threshold p(m)")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--tol", type=float, default=1e-12)
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


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args)
    except UnsupportedRegimeError as exc:
        print(f"error: unsupported regime: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
