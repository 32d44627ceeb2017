"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Criterion 6c checks the slope at 1/2 at p = 1 (m = 2, 3) against the closed
form m/2^(m-1) * C(m-1, floor((m-1)/2)), which gives 1 and 1.5: at p = 1 the
m = 2 map is the identity and the m = 3 map is 3x^2 - 2x^3.
"""

import json
import math
import time

import numpy as np
import pytest

import treemajority.cli as cli
from treemajority.dynamics import find_fixed_points, iterate_dynamics, predict_limit, solve_threshold
from treemajority.mc import SimConfig, estimate_g_one_step, simulate_tree
from treemajority.model import ModelParams, policy_value
from treemajority.update_map import (
    UpdateMap,
    df_dp,
    g_double_prime,
    g_eval,
    g_prime,
    g_prime_at_half,
)

from conftest import analytic_marginals, central_diff, enumerate_policy, second_central_diff

P3_EXACT = (2 + 2 ** (1 / 3) - 2 ** (2 / 3)) / 3
SQRT3M1 = math.sqrt(3.0) - 1.0
ALPHA_TANGENT = 2.0 / 3.0 - 1.0 / math.sqrt(3.0)


def _report(num: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:>3}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _run_cli_json(tmp_path, name, *argv):
    out = tmp_path / name
    code = cli.main([*argv, "--out", str(out)])
    assert code == 0, f"CLI exited with {code}"
    return json.loads(out.read_text())


def test_criterion_01_threshold_m3(tmp_path):
    start = time.perf_counter()
    report = _run_cli_json(tmp_path, "thr3.json", "threshold", "--m", "3")
    elapsed = time.perf_counter() - start
    err = abs(report["p_threshold"] - P3_EXACT)
    ok = err <= 1e-6 and elapsed < 1.0
    _report("1", ok, f"p(3)={report['p_threshold']:.9f} |err|={err:.2e} ({elapsed:.2f}s)")


def test_criterion_02_threshold_m4(tmp_path):
    start = time.perf_counter()
    report = _run_cli_json(tmp_path, "thr4.json", "threshold", "--m", "4")
    elapsed = time.perf_counter() - start
    err = abs(report["p_threshold"] - 0.42842)
    ok = err <= 1e-4 and elapsed < 1.0
    _report("2", ok, f"p(4)={report['p_threshold']:.9f} |err|={err:.2e} ({elapsed:.2f}s)")


def test_criterion_03_m3_pb1_bifurcation():
    start = time.perf_counter()
    counts = {}
    for p_r in (0.70, SQRT3M1, 0.75):
        counts[p_r] = find_fixed_points(ModelParams(3, 1.0, p_r))
    tangent_pt = counts[SQRT3M1].points[0]
    alpha_err = abs(tangent_pt.value - ALPHA_TANGENT)
    elapsed = time.perf_counter() - start
    ok = (
        len(counts[0.70].points) == 1
        and len(counts[SQRT3M1].points) == 2
        and len(counts[0.75].points) == 3
        and tangent_pt.tangent
        and alpha_err <= 1e-8
        and elapsed < 1.0
    )
    _report(
        "3",
        ok,
        f"counts 1/2/3 at p_r=0.70/sqrt3-1/0.75; tangent alpha err={alpha_err:.2e} ({elapsed:.2f}s)",
    )


def test_criterion_04_count_law_sweep():
    start = time.perf_counter()
    failures = []
    for m in range(3, 9):
        p_m = solve_threshold(m).p_threshold
        for cents in range(1, 101):
            p = cents / 100.0
            fps = find_fixed_points(ModelParams.symmetric(m, p))
            v = np.array(fps.values)
            expected = 1 if p <= p_m else 3
            if len(v) != expected:
                failures.append((m, p, len(v), expected))
                continue
            if expected == 3:
                if abs(v[1] - 0.5) > 1e-8 or abs(v[0] + v[2] - 1.0) > 1e-8:
                    failures.append((m, p, "asymmetric triple", v.tolist()))
            else:
                if abs(v[0] - 0.5) > 1e-8:
                    failures.append((m, p, "off-center unique point", v.tolist()))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _report("4", ok, f"m=3..8 x 100 p-values; failures={failures[:3]} ({elapsed:.1f}s)")


def test_criterion_05_convexity_split():
    start = time.perf_counter()
    xs = np.linspace(0.0, 1.0, 1000)
    worst = 0.0
    for m in range(2, 9):
        for tenths in range(1, 11):
            gm = UpdateMap.from_params(ModelParams.symmetric(m, tenths / 10.0))
            dd = np.array([g_double_prime(gm, x) for x in xs])
            worst = max(worst, float(np.max(-dd[xs <= 0.5])), float(np.max(dd[xs >= 0.5])))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report("5", ok, f"convex on [0,1/2], concave on [1/2,1]; worst violation={worst:.2e} ({elapsed:.1f}s)")


def test_criterion_06a_derivatives_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(6061)
    worst1 = worst2 = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 9))
        gm = UpdateMap.from_params(ModelParams(m, float(rng.random()), float(rng.random())))
        x = float(rng.uniform(0.001, 0.999))
        fd1 = central_diff(lambda t: g_eval(gm, t), x, 1e-6)
        fd2 = second_central_diff(lambda t: g_eval(gm, t), x, 1e-4)
        worst1 = max(worst1, abs(g_prime(gm, x) - fd1))
        worst2 = max(worst2, abs(g_double_prime(gm, x) - fd2))
    elapsed = time.perf_counter() - start
    ok = worst1 <= 1e-5 and worst2 <= 1e-5 and elapsed < 10.0
    _report("6a", ok, f"max|g'-fd|={worst1:.2e} max|g''-fd|={worst2:.2e} ({elapsed:.1f}s)")


def test_criterion_06b_df_dp_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(6062)
    worst = 0.0
    most_positive = -np.inf
    h = 1e-6
    for _ in range(200):
        m = int(rng.integers(2, 9))
        ell = int(rng.integers(0, (m - 1) // 2 + 1))
        p = float(rng.uniform(0.01, 0.99))
        fd = (
            policy_value(ModelParams.symmetric(m, p + h), ell)
            - policy_value(ModelParams.symmetric(m, p - h), ell)
        ) / (2 * h)
        val = df_dp(m, ell, p)
        worst = max(worst, abs(val - fd))
        most_positive = max(most_positive, val)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and most_positive < 0.0 and elapsed < 10.0
    _report("6b", ok, f"max|df_dp-fd|={worst:.2e} max value={most_positive:.2e} ({elapsed:.1f}s)")


def test_criterion_06c_slope_at_half_p1_closed_form():
    # Target: slope(1/2)|_{p=1} = m/2^(m-1) * C(m-1, floor((m-1)/2)), i.e. 1
    # for m=2 and 1.5 for m=3.  At p=1 every child succeeds, so the rule is
    # plain majority with a fair tie coin: the m=2 map is the identity (slope
    # 1) and the m=3 map is 3x^2-2x^3 (slope 1.5 at 1/2).  This is the p=1
    # value of the closed form in g_prime_at_half's docstring, where f(l) = 0
    # for every l < m/2 and only the constant term is left.  The earlier
    # target m/2^(m-2) * C(...) was twice the true slope.
    start = time.perf_counter()
    results = {}
    for m in (2, 3):
        target = m / 2 ** (m - 1) * math.comb(m - 1, (m - 1) // 2)
        got = g_prime_at_half(ModelParams.symmetric(m, 1.0))
        results[m] = (got, target)
    elapsed = time.perf_counter() - start
    ok = all(abs(got - target) <= 1e-9 for got, target in results.values())
    detail = "; ".join(
        f"m={m}: slope={got} target={target}" for m, (got, target) in results.items()
    )
    _report("6c", ok, f"{detail} ({elapsed:.2f}s)")


def test_criterion_07_enumeration_oracle():
    start = time.perf_counter()
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    worst = 0.0
    for m in range(2, 7):
        for p_b in grid:
            for p_r in grid:
                params = ModelParams(m, p_b, p_r)
                for k in range(m + 1):
                    got = policy_value(params, k)
                    want = enumerate_policy(m, p_b, p_r, k)
                    worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _report("7", ok, f"m<=6 x 25-point grid, max|err|={worst:.2e} ({elapsed:.1f}s)")


def test_criterion_08_one_step_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(8088)
    n = 10**6
    worst_ratio = 0.0
    for case in range(20):
        m = int(rng.integers(2, 9))
        params = ModelParams(m, float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95)))
        x = float(rng.uniform(0.02, 0.98))
        est, _ = estimate_g_one_step(params, x, n, seed=9000 + case)
        g = g_eval(UpdateMap.from_params(params), x)
        se = math.sqrt(g * (1.0 - g) / n)
        worst_ratio = max(worst_ratio, abs(est - g) / (4 * se))
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1.0 and elapsed < 60.0
    _report("8", ok, f"20 cases at N=1e6, worst |err|/(4se)={worst_ratio:.2f} ({elapsed:.1f}s)")


def test_criterion_09_tree_marginal_recursion():
    start = time.perf_counter()
    runs = [
        (ModelParams.symmetric(3, 0.4), 0.9, 8, 8, 101),  # subcritical: -> 1/2
        (ModelParams.symmetric(3, 0.8), 0.3, 8, 8, 202),  # supercritical: -> alpha
        (ModelParams(3, 1.0, 0.2), 0.9, 8, 8, 7),  # sure-B regime: -> 1
        (ModelParams.symmetric(2, 1.0), 0.5, 6, 6, 303),  # marginal frozen at pi_0
    ]
    failures = []
    for params, pi_0, depth, horizon, seed in runs:
        cfg = SimConfig(
            params=params, depth=depth, horizon=horizon, pi_0=pi_0, seed=seed, replications=2000
        )
        res = simulate_tree(cfg)
        pis = analytic_marginals(params, pi_0, horizon)
        for t in range(horizon + 1):
            hw = 1.96 * math.sqrt(pis[t] * (1.0 - pis[t]) / cfg.replications)
            diff = abs(res.pi_hat[t] - pis[t])
            inside = diff == 0.0 if hw == 0.0 else diff <= hw
            if not inside:
                failures.append((params, t, diff, hw))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _report("9", ok, f"4 runs x all t inside 95% CI; failures={failures[:3]} ({elapsed:.1f}s)")


def _supported_cases(rng, thresholds):
    """200 deterministic draws from the regimes with proven limit structure."""
    cases = []
    while len(cases) < 140:
        m = int(rng.integers(3, 9))
        if rng.random() < 0.5:
            p = float(rng.uniform(0.02, thresholds[m] - 0.03))
        else:
            p = float(rng.uniform(thresholds[m] + 0.03, 1.0))
        cases.append((ModelParams.symmetric(m, p), float(rng.random())))
    while len(cases) < 180:
        if rng.random() < 0.5:
            p_r = float(rng.uniform(0.0, SQRT3M1 - 0.03))
        else:
            p_r = float(rng.uniform(SQRT3M1 + 0.03, 0.97))
        cases.append((ModelParams(3, 1.0, p_r), float(rng.random())))
    while len(cases) < 200:
        cases.append(
            (
                ModelParams(2, float(rng.uniform(0.0, 0.97)), float(rng.uniform(0.0, 0.97))),
                float(rng.random()),
            )
        )
    return cases


def test_criterion_10_limit_prediction():
    start = time.perf_counter()
    rng = np.random.default_rng(101010)
    thresholds = {m: solve_threshold(m).p_threshold for m in range(3, 9)}
    cases = _supported_cases(rng, thresholds)

    # branch cases: initial value below / at / above the middle fixed point
    sym = ModelParams.symmetric(3, 0.8)
    cases += [(sym, 0.2), (sym, 0.5), (sym, 0.8)]
    sym4 = ModelParams.symmetric(4, 0.7)
    cases += [(sym4, 0.1), (sym4, 0.5), (sym4, 0.9)]
    for p_r in (0.75, 0.9):
        asym = ModelParams(3, 1.0, p_r)
        a2 = find_fixed_points(asym).values[1]
        cases += [(asym, 0.5 * a2), (asym, float(a2)), (asym, 0.5 * (a2 + 1.0))]
    tangent = ModelParams(3, 1.0, SQRT3M1)
    for fp in find_fixed_points(tangent).points:
        cases.append((tangent, fp.value))

    worst = 0.0
    not_converged = []
    for params, pi_0 in cases:
        predicted = predict_limit(params, pi_0)
        traj = iterate_dynamics(params, pi_0, max_steps=10**6)
        if not traj.converged or traj.limit is None:
            not_converged.append((params, pi_0))
            continue
        worst = max(worst, abs(predicted - traj.limit))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and not not_converged and elapsed < 30.0
    _report(
        "10",
        ok,
        f"{len(cases)} cases, max|predict-iterate|={worst:.2e}, "
        f"unconverged={not_converged[:2]} ({elapsed:.1f}s)",
    )


def test_criterion_11_simulation_determinism(tmp_path):
    start = time.perf_counter()
    argv = [
        "simulate", "--m", "3", "--p-b", "1", "--p-r", "0.2", "--depth", "7",
        "--horizon", "7", "--pi0", "0.9", "--reps", "800", "--seed", "42",
    ]
    out1, out2 = tmp_path / "sim1.json", tmp_path / "sim2.json"
    assert cli.main([*argv, "--out", str(out1)]) == 0
    assert cli.main([*argv, "--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 60.0
    _report("11", ok, f"byte-identical JSON on rerun={identical} ({elapsed:.1f}s)")
