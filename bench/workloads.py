"""The four benchmark workloads: request lists generated from a seed, with answer checks.

Each request is one ``treemajority.cli.main`` argument list and a check that
takes the parsed JSON report and returns a failure reason, or None when the
answer agrees with its oracle.  Oracle values are computed here, before any
request is timed.  Inputs come from ``random.Random(seed)``; the sizes that
set each request's cost are fixed, so the cost of a round barely depends on
the seed.

A workload's timed requests lie where the checked answers are well
conditioned.  Its edge requests lie where they are not: within 1e-7 of the
m=3 tangency at p_r = sqrt3-1, and at limits whose slope exceeds 0.99.  The
edge requests are checked by the same oracles, once per run and untimed, and
their failures are reported beside the result (see run.py).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import oracles

SQRT3_M1 = oracles.SQRT3_M1

# one small fixed request per subcommand, used for set-up and warm-up
WARMUPS = {
    "threshold": ["threshold", "--m", "3"],
    "fixed-points": ["fixed-points", "--m", "3", "--p", "0.7"],
    "trajectory": ["trajectory", "--m", "3", "--p", "0.7", "--pi0", "0.3", "--steps", "100", "--predict"],
    "simulate": ["simulate", "--m", "3", "--p", "0.7", "--depth", "4", "--horizon", "4",
                 "--pi0", "0.3", "--reps", "20", "--seed", "1"],
    "estimate-g": ["estimate-g", "--m", "3", "--p", "0.7", "--x", "0.3", "--samples", "10000", "--seed", "1"],
}


@dataclass
class Request:
    argv: list
    check: Callable[[dict], Optional[str]]


@dataclass
class Workload:
    name: str
    requests: list
    properties: dict  # shares of the work that planned optimisations can touch, computed from the inputs
    edge: list = field(default_factory=list)  # checked once per run, untimed

    @property
    def warmups(self) -> list:
        commands = dict.fromkeys(req.argv[0] for req in self.requests)
        return [WARMUPS[c] for c in commands]


# ---------------------------------------------------------------- phase_diagram

PHASE_MS = (3, 4, 5, 6, 7, 8, 16, 64)
GRID_PER_SIDE = 6
NEAR_EPS = tuple(10.0**-k for k in range(3, 11))
EDGE_EPS = 1e-7  # the fixed-point finder's tangency and merge tolerances are 1e-7; closer inputs are edge requests
THRESHOLD_TOL = 1e-9  # bisection to 1e-12 plus double-rounding of the slope
SYMMETRY_TOL = 1e-8
CLOSED_FORM_TOL = 1e-6  # roots near a double root are only sqrt(eps)-conditioned


def _check_threshold(p_exact: float):
    def check(report):
        if abs(report["p_threshold"] - p_exact) > THRESHOLD_TOL:
            return f"p_threshold {report['p_threshold']!r} vs oracle {p_exact!r}"
        return None

    return check


def _check_count_law(above: bool):
    def check(report):
        v = [pt["value"] for pt in report["points"]]
        if above:
            if len(v) != 3:
                return f"{len(v)} fixed points above p(m), expected 3"
            if abs(v[1] - 0.5) > SYMMETRY_TOL or abs(v[0] + v[2] - 1.0) > SYMMETRY_TOL:
                return f"asymmetric triple {v}"
        elif len(v) != 1 or abs(v[0] - 0.5) > SYMMETRY_TOL:
            return f"{v} at or below p(m), expected [0.5]"
        return None

    return check


def _check_closed_form(expected: list):
    """expected: (value, tangent) pairs from m3_pb1_closed_form."""

    def check(report):
        got = [(pt["value"], pt["tangent"]) for pt in report["points"]]
        if len(got) != len(expected):
            return f"{len(got)} fixed points, closed form has {len(expected)}: {got}"
        for (gv, gt), (ev, et) in zip(got, expected):
            if abs(gv - ev) > CLOSED_FORM_TOL or gt != et:
                return f"{got} vs closed form {expected}"
        return None

    return check


def phase_diagram(seed: int, package) -> Workload:
    rng = random.Random(seed)
    p_star = {m: oracles.threshold(m) for m in PHASE_MS}
    requests = [
        Request(["threshold", "--m", str(m)], _check_threshold(float(p_star[m]))) for m in PHASE_MS
    ]
    for m in PHASE_MS:
        pm = float(p_star[m])
        for lo, hi in ((0.02, pm), (pm, 0.98)):
            for k in range(GRID_PER_SIDE):
                p = lo + (hi - lo) * (k + rng.uniform(0.05, 0.95)) / GRID_PER_SIDE
                requests.append(
                    Request(["fixed-points", "--m", str(m), "--p", repr(p)], _check_count_law(p > p_star[m]))
                )
    near = [SQRT3_M1 - e for e in NEAR_EPS] + [SQRT3_M1] + [SQRT3_M1 + e for e in NEAR_EPS]
    edge = []
    for p_r in near:
        fps = package.dynamics.m3_pb1_closed_form(p_r)
        expected = [(fp.value, fp.tangent) for fp in fps.points]
        req = Request(["fixed-points", "--m", "3", "--p-b", "1", "--p-r", repr(p_r)], _check_closed_form(expected))
        (edge if abs(p_r - SQRT3_M1) <= EDGE_EPS * 1.01 else requests).append(req)

    def within(reqs):
        n = sum(req.argv[-2] == "--p-r" and abs(float(req.argv[-1]) - SQRT3_M1) <= 1e-6 * 1.01 for req in reqs)
        return {"value": n / len(reqs), "base": len(reqs), "label": "computed"}

    return Workload(
        name="phase_diagram",
        requests=requests,
        properties={
            "share_within_1e-6_of_sqrt3_minus_1": within(requests),
            "edge_share_within_1e-6_of_sqrt3_minus_1": within(edge),
        },
        edge=edge,
    )


# ------------------------------------------------------------------ slow_orbits

ORBIT_MS = (3, 4, 8, 16, 64)
# |g'| at the limit of the symmetric orbits: one draw from each of ORBIT_STRATA
# equal strata of this range, so that step counts, and latencies, form a
# continuum whatever the seed.  Timed orbits stay at or below MAX_TIMED_SLOPE.
ORBIT_SLOPES = (0.95, 0.98)
ORBIT_STRATA = 2 * 2 * len(ORBIT_MS)  # two per (m, side of p(m))
MAX_TIMED_SLOPE = 0.985
ORBIT_EPS = (1e-3, 3e-4)  # m=3, p_b=1: p_r - (sqrt3-1), limit slopes about 0.963 and 0.98
STEP_CAP = 10_000
CONV_TOL = 1e-13  # the trajectory subcommand's default
LIMIT_TOL = 1e-6
# Edge orbits: limits with slope above 0.99.  Successive iterates there differ by
# under CONV_TOL while the iterate is still more than 100 * CONV_TOL from the
# limit.  (m, p - p(m)) for the symmetric ones, all from pi_0 = 0.2.
EDGE_ORBITS = ((3, -1e-3), (4, -1e-3), (8, -1e-3), (16, -1e-3))
EDGE_TANGENT_EPS = 1e-6
EDGE_STEP_CAP = 100_000


def _check_limit(limit: float):
    def check(report):
        if not report["converged"]:
            return None  # stopped at the step cap: no claim to check
        if report["limit"] is None:
            return f"converged after {report['steps_taken']} steps without a limit"
        if abs(report["limit"] - limit) > LIMIT_TOL:
            return f"limit {report['limit']!r} vs oracle {limit!r}"
        return None

    return check


def _steps_to_converge(cases, cap: int, tol: float) -> list:
    """Steps the recursion takes to converge, capped, from an independent float iteration.

    cases: (policy values f as mpmath numbers, pi_0).  Iterates
    sum_k f(k) C(m,k) x^k (1-x)^(m-k) in power form, all cases of one m at once.
    """
    steps = [cap] * len(cases)
    by_m = {}
    for i, (f, _) in enumerate(cases):
        by_m.setdefault(len(f) - 1, []).append(i)
    for m, idx in by_m.items():
        k = np.arange(m + 1)
        coef = np.array([[float(cases[i][0][j]) * math.comb(m, j) for j in k] for i in idx])
        x = np.array([cases[i][1] for i in idx], dtype=float)
        live = np.ones(len(idx), dtype=bool)
        for step in range(1, cap + 1):
            nxt = (coef * x[:, None] ** k * (1.0 - x)[:, None] ** (m - k)).sum(axis=1)
            done = live & (np.abs(nxt - x) < tol)
            for j in np.nonzero(done)[0]:
                steps[idx[j]] = step
            live &= ~done
            x = nxt
            if not live.any():
                break
    return steps


def _orbit(m: int, p_b: float, p_r: float, pi_0: float, limit: float, cap: int) -> Request:
    argv = ["trajectory", "--m", str(m)]
    argv += ["--p", repr(p_b)] if p_b == p_r else ["--p-b", repr(p_b), "--p-r", repr(p_r)]
    argv += ["--pi0", repr(pi_0), "--steps", str(cap), "--predict"]
    return Request(argv, _check_limit(limit))


def slow_orbits(seed: int, package) -> Workload:
    """Orbits that converge at a fixed rate |g'(limit)|, plus orbits at the m=3 tangency.

    Near p(m) the symmetric map has the normal form of a pitchfork: below
    p(m) the slope at the limit 1/2 is about 1 - s (p(m) - p), and above it
    the slope at alpha is about 1 - 2 s (p - p(m)), with s the p-derivative of
    g'(1/2) at p(m).  That places p for a target slope; the oracle then
    computes the slope that p really has.
    """
    rng = random.Random(seed)
    requests, cases = [], []
    p_star = {m: oracles.threshold(m) for m in ORBIT_MS}
    lo, hi = ORBIT_SLOPES
    for i, (m, pm) in enumerate(p_star.items()):
        s = float(oracles.slope_at_half_dp(m, pm))
        for side, above in enumerate((False, True)):
            for k in range(2):  # the strata interleave m, side and k
                stratum = (k * 2 + side) * len(ORBIT_MS) + i
                target = lo + (hi - lo) * (stratum + rng.uniform(0.1, 0.9)) / ORBIT_STRATA
                gap = (1.0 - target) / s
                p = float(pm) + (gap / 2.0 if above else -gap)
                f = oracles.policy(m, p, p)
                if above:  # alpha < 1/2 < 1 - alpha: the orbit goes to the outer point on its side
                    alpha = oracles.symmetric_alpha(m, p)
                    below = alpha * rng.uniform(0.3, 0.6)
                    limit, pi_0 = (alpha, below) if rng.random() < 0.5 else (1.0 - alpha, 1.0 - below)
                else:  # 1/2 is the only fixed point and attracts everything
                    limit, pi_0 = 0.5, 0.5 + rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 0.4)
                requests.append(_orbit(m, p, p, pi_0, limit, STEP_CAP))
                cases.append((f, pi_0, limit))
    for eps in (0.0, 0.0) + ORBIT_EPS:
        p_r = SQRT3_M1 + eps * rng.uniform(0.95, 1.05)
        pi_0 = rng.uniform(0.04, 0.06)  # below both roots near 0.089
        f = oracles.policy(3, 1, p_r)
        limit = oracles.monotone_limit(f, pi_0)
        requests.append(_orbit(3, 1.0, p_r, pi_0, limit, STEP_CAP))
        cases.append((f, pi_0, limit))
    for f, pi_0, limit in cases:
        slope = float(oracles.g_prime(f, limit))
        if not abs(slope) <= MAX_TIMED_SLOPE:
            raise oracles.OracleError(f"timed orbit from {pi_0} has limit slope {slope}, above {MAX_TIMED_SLOPE}")
    steps = _steps_to_converge([(f, pi_0) for f, pi_0, _ in cases], STEP_CAP, CONV_TOL)
    capped = sum(n >= STEP_CAP for n in steps)

    edge = []
    for m, offset in EDGE_ORBITS:
        p = float(p_star[m]) + offset
        edge.append(_orbit(m, p, p, 0.2, 0.5, EDGE_STEP_CAP))
    p_r = SQRT3_M1 + EDGE_TANGENT_EPS
    edge.append(_orbit(3, 1.0, p_r, 0.05, oracles.monotone_limit(oracles.policy(3, 1, p_r), 0.05), EDGE_STEP_CAP))
    return Workload(
        name="slow_orbits",
        requests=requests,
        properties={
            "share_hitting_step_cap": {"value": capped / len(requests), "base": len(requests), "label": "computed"},
        },
        edge=edge,
    )


# ------------------------------------------------------------------------ trees

def _vertex_updates(m: int, depth: int, horizon: int) -> tuple:
    """(all level updates, light-cone updates) of one replication.

    Every step updates levels 0..D-1; the root's time-T state depends only on
    the updates at level d, step t with d < T - t.
    """
    total = horizon * sum(m**d for d in range(depth))
    cone = sum(m**d for t in range(horizon) for d in range(min(depth, horizon - t)))
    return total, cone


def _check_simulation(marginals: list, horizon: int, reps: int):
    def check(report):
        pi_hat = report["pi_hat"]
        if len(pi_hat) != horizon + 1 or report["replications_used"] != reps:
            return f"pi_hat has {len(pi_hat)} epochs from {report['replications_used']} replications"
        for t, (got, want) in enumerate(zip(pi_hat, marginals)):
            if not oracles.within_band(got, want, reps):
                return f"pi_hat[{t}]={got!r} outside {oracles.BAND_SE:g} standard errors of {want!r}"
        return None

    return check


def _check_estimate(g_x: float, samples: int):
    def check(report):
        if not oracles.within_band(report["estimate"], g_x, samples):
            return f"estimate {report['estimate']!r} outside {oracles.BAND_SE:g} standard errors of g(x)={g_x!r}"
        return None

    return check


def _simulate_requests(rng, shapes):
    """shapes: (m, depth, reps); horizon = depth.  Returns requests and update counts."""
    requests, total, cone = [], 0, 0
    for m, depth, reps in shapes:
        p_b, p_r, pi_0 = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        sim_seed = rng.randrange(2**32)
        marg = oracles.marginals(oracles.policy(m, p_b, p_r), pi_0, depth)
        argv = ["simulate", "--m", str(m), "--p-b", repr(p_b), "--p-r", repr(p_r), "--depth", str(depth),
                "--horizon", str(depth), "--pi0", repr(pi_0), "--reps", str(reps), "--seed", str(sim_seed)]
        requests.append(Request(argv, _check_simulation(marg, depth, reps)))
        t, c = _vertex_updates(m, depth, depth)
        total, cone = total + reps * t, cone + reps * c
    return requests, {"light_cone_share_of_vertex_updates": {"value": cone / total, "base": total,
                                                              "label": "computed"}}


MANY_REPS_SHAPES = ((3, 7, 50),) * 20 + ((3, 8, 50),) * 4
ESTIMATES = ((3, 100_000), (8, 100_000), (64, 20_000)) * 4
# (m, depth, replications); every tree has at least 10^5 leaves
WIDE_SHAPES = (
    ((4, 10, 2),)
    + ((3, 11, 2), (4, 9, 2), (6, 7, 2), (18, 4, 2), (47, 3, 2), (64, 3, 2)) * 4
    + ((10, 5, 2),) * 5
)


def tree_many_reps(seed: int, package) -> Workload:
    rng = random.Random(seed)
    requests, props = _simulate_requests(rng, MANY_REPS_SHAPES)
    for m, samples in ESTIMATES:
        p_b, p_r, x = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.95)
        g_x = float(oracles.g(oracles.policy(m, p_b, p_r), x))
        argv = ["estimate-g", "--m", str(m), "--p-b", repr(p_b), "--p-r", repr(p_r), "--x", repr(x),
                "--samples", str(samples), "--seed", str(rng.randrange(2**32))]
        requests.append(Request(argv, _check_estimate(g_x, samples)))
    return Workload(name="tree_many_reps", requests=requests, properties=props)


def tree_wide(seed: int, package) -> Workload:
    rng = random.Random(seed)
    requests, props = _simulate_requests(rng, WIDE_SHAPES)
    return Workload(name="tree_wide", requests=requests, properties=props)


BY_NAME = {
    "phase_diagram": phase_diagram,
    "slow_orbits": slow_orbits,
    "tree_many_reps": tree_many_reps,
    "tree_wide": tree_wide,
}

# functions whose answers the oracles check; building a workload must not call them
CHECKED = (
    "dynamics.find_fixed_points",
    "dynamics.solve_threshold",
    "dynamics.iterate_dynamics",
    "dynamics.predict_limit",
    "mc.simulate_tree",
    "mc.estimate_g_one_step",
)
