import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemajority.dynamics import _bernstein_roots, _rounding_bound, _split, _threshold_coeffs
from treemajority.dynamics import _fixed_points, _predict
from treemajority.dynamics import (
    ATTRACTIVE,
    NEUTRAL,
    REPULSIVE,
    IdentityMapError,
    UnsupportedRegimeError,
    classify_stability,
    find_fixed_points,
    iterate_dynamics,
    m3_pb1_closed_form,
    predict_limit,
    solve_threshold,
)
from treemajority.model import ModelParams, bernstein_horner, bernstein_scaled
from treemajority.update_map import UpdateMap, g_eval, g_prime_at_half

from conftest import enumerate_policy

SQRT3M1 = math.sqrt(3.0) - 1.0
ALPHA_TANGENT = 2.0 / 3.0 - 1.0 / math.sqrt(3.0)
P3 = (2 + 2 ** (1 / 3) - 2 ** (2 / 3)) / 3  # only real root of 1.5p^3 - 3p^2 + 3p - 1

# frozen regression baselines from this solver (bisection to 1e-12)
THRESHOLD_BASELINES = {
    5: 0.34792667523920184,
    6: 0.2928998916889808,
    7: 0.25289521046830976,
    8: 0.2224996937805802,
}


class TestFindFixedPoints:
    def test_subcritical_symmetric_unique_half(self):
        fps = find_fixed_points(ModelParams.symmetric(3, 0.5))
        assert len(fps.points) == 1
        fp = fps.points[0]
        assert fp.value == pytest.approx(0.5, abs=1e-12)
        assert fp.stability == ATTRACTIVE and not fp.tangent

    def test_symmetric_p1_three_points(self):
        fps = find_fixed_points(ModelParams.symmetric(3, 1.0))
        np.testing.assert_allclose(fps.values, [0.0, 0.5, 1.0], atol=1e-12)
        assert [fp.stability for fp in fps.points] == [ATTRACTIVE, REPULSIVE, ATTRACTIVE]

    def test_supercritical_symmetric_triple(self):
        fps = find_fixed_points(ModelParams.symmetric(3, 0.8))
        assert len(fps.points) == 3
        v = fps.values
        assert v[1] == pytest.approx(0.5, abs=1e-10)
        assert v[0] + v[2] == pytest.approx(1.0, abs=1e-10)
        assert [fp.stability for fp in fps.points] == [ATTRACTIVE, REPULSIVE, ATTRACTIVE]

    def test_tangent_case(self):
        fps = find_fixed_points(ModelParams(3, 1.0, SQRT3M1))
        assert len(fps.points) == 2
        tangent, one = fps.points
        assert tangent.value == pytest.approx(ALPHA_TANGENT, abs=1e-8)
        assert tangent.tangent and tangent.stability == NEUTRAL
        assert one.value == 1.0 and not one.tangent

    def test_pb1_unique_one(self):
        fps = find_fixed_points(ModelParams(3, 1.0, 0.2))
        assert len(fps.points) == 1
        assert fps.points[0].value == 1.0
        assert fps.points[0].stability == ATTRACTIVE

    def test_endpoint_roots_exact(self):
        fps = find_fixed_points(ModelParams(3, 1.0, 0.9))
        assert fps.values[-1] == 1.0
        fps = find_fixed_points(ModelParams(3, 0.9, 1.0))
        assert fps.values[0] == 0.0

    def test_closed_form_agreement_grid(self):
        for p_r in np.arange(0.0, 1.001, 0.01):
            p_r = float(round(p_r, 2))
            numeric = find_fixed_points(ModelParams(3, 1.0, p_r))
            closed = m3_pb1_closed_form(p_r)
            assert len(numeric.points) == len(closed.points), f"count differs at p_r={p_r}"
            np.testing.assert_allclose(numeric.values, closed.values, atol=1e-8)

    def test_residuals_small(self):
        for params in [ModelParams.symmetric(4, 0.7), ModelParams(3, 1.0, 0.75)]:
            for fp in find_fixed_points(params).points:
                assert fp.residual <= 1e-12

    def test_identity_map_refused(self):
        with pytest.raises(IdentityMapError):
            find_fixed_points(ModelParams.symmetric(2, 1.0))

    def test_symmetric_set_closed_under_reflection(self):
        for m in (3, 5):
            for p in (0.7, 0.9, 1.0):
                fps = find_fixed_points(ModelParams.symmetric(m, p))
                v = np.array(fps.values)
                assert np.min(np.abs(v - 0.5)) <= 1e-9
                np.testing.assert_allclose(np.sort(1.0 - v), v, atol=1e-8)
                assert np.all(np.diff(v) > 1e-12)

    @pytest.mark.parametrize("m", [3, 4, 5, 8, 17, 40, 59, 64])
    def test_symmetric_half_reported_exactly(self, m):
        # near p(m) the roots near 1/2 merge into one neutral cluster, which rounding can centre off 1/2
        p_m = solve_threshold(m).p_threshold
        for p in [k / 20 for k in range(20)] + [p_m, p_m - 1e-6, p_m + 1e-6]:
            fps = find_fixed_points(ModelParams.symmetric(m, p))
            v = np.array(fps.values)
            assert 0.5 in v, (m, p)
            half = fps.points[int(np.argmin(np.abs(v - 0.5)))]
            assert half.residual <= 1e-14
            np.testing.assert_allclose(np.sort(1.0 - v), v, atol=1e-6)


def _coeffs_with_roots(roots: list) -> list:
    """Bernstein coefficients of prod (x - r) over ``roots``, exact dyadic floats in [-1, 1].

    The power-basis product is converted exactly with Fractions, then scaled
    to integers and by a power of two, so no coefficient is rounded.
    """
    power = [Fraction(1)]
    for r in map(Fraction, roots):
        power = [(power[j - 1] if j else 0) - r * (power[j] if j < len(power) else 0)
                 for j in range(len(power) + 1)]
    n = len(power) - 1
    bern = [sum(Fraction(math.comb(k, j), math.comb(n, j)) * power[j] for j in range(k + 1))
            for k in range(n + 1)]
    ints = [int(b * math.lcm(*(b.denominator for b in bern))) for b in bern]
    return [i / 2 ** max(map(abs, ints)).bit_length() for i in ints]


class TestRootIsolation:
    """The isolation on Bernstein coefficients against oracles it does not use."""

    @pytest.mark.parametrize(
        "offset", [0.0] + [s * 10.0**-k for s in (1, -1) for k in range(3, 11)]
    )
    def test_m3_pb1_near_tangency_matches_closed_form(self, offset):
        p_r = SQRT3M1 + offset
        got = find_fixed_points(ModelParams(3, 1.0, p_r)).points
        want = m3_pb1_closed_form(p_r).points
        assert len(got) == len(want), [fp.value for fp in got]
        for g, w in zip(got, want):
            assert g.tangent == w.tangent
            assert g.value == pytest.approx(w.value, abs=1e-6)

    @pytest.mark.parametrize("m", [3, 4, 5, 8, 16, 64])
    def test_triple_cluster_at_threshold_is_one_point(self, m):
        # at p(m) the roots alpha, 1/2, 1 - alpha coincide; rounding cannot
        # separate them, so they must come back as a single neutral point
        p = solve_threshold(m).p_threshold
        points = find_fixed_points(ModelParams.symmetric(m, p)).points
        assert len(points) == 1, [fp.value for fp in points]
        assert points[0].value == pytest.approx(0.5, abs=1e-4)
        assert points[0].stability == NEUTRAL

    def test_interior_roots_match_high_precision_polyroots(self):
        rng = np.random.default_rng(20251018)
        x = mpmath.mpf(1)
        with mpmath.workdps(50):
            for _ in range(40):
                m = int(rng.integers(2, 7))
                p_b, p_r = (float(v) for v in rng.uniform(0.02, 0.98, size=2))
                # power-basis coefficients of h(x) = sum_k f(k) C(m,k) x^k (1-x)^(m-k) - x
                poly = [mpmath.mpf(0)] * (m + 1)
                poly[1] = -x
                for k in range(m + 1):
                    fk = mpmath.mpf(enumerate_policy(m, p_b, p_r, k)) * math.comb(m, k)
                    for j in range(m - k + 1):
                        poly[k + j] += fk * math.comb(m - k, j) * (-1) ** j
                while poly[-1] == 0:
                    poly.pop()
                roots = mpmath.polyroots(poly[::-1], maxsteps=200, extraprec=200)
                expected = sorted(
                    float(r.real) for r in roots if abs(r.imag) < 1e-25 and 0 < r.real < 1
                )
                got = find_fixed_points(ModelParams(m, p_b, p_r)).values
                assert len(got) == len(expected), (m, p_b, p_r, got, expected)
                np.testing.assert_allclose(got, expected, atol=1e-10)

    @pytest.mark.parametrize(
        "roots, expected",
        [
            (["1/4", "1/2", "3/4", "-1"], [(0.25, False), (0.5, False), (0.75, False)]),
            (["3/8", "3/8", "13/16", "-1/2"], [(0.375, True), (0.8125, False)]),
            (["3/8", "3/8"], [(0.375, True)]),
            (["1/8", "1/2", "15/16", "2"], [(0.125, False), (0.5, False), (0.9375, False)]),
            (["0", "1", "-1/2"], [(0.0, False), (1.0, False)]),
            (["0", "5/16", "1", "3/2"], [(0.0, False), (0.3125, False), (1.0, False)]),
            (["3/2", "-1/2", "5/4"], []),
        ],
    )
    def test_polynomials_from_no_map(self, roots, expected):
        tol = 1e-12
        got, evaluations = _bernstein_roots(_coeffs_with_roots(roots), tol)
        assert len(got) == len(expected), got
        for (value, tangent, width), (want, want_tangent) in zip(got, expected):
            assert abs(value - want) <= tol and tangent is want_tangent
            assert 0.0 <= width <= tol
        interior = any(0.0 < want < 1.0 for want, _ in expected)
        assert (evaluations > 0) if interior else (evaluations == 0)

    def test_exact_zero_at_first_split(self):
        c = _coeffs_with_roots(["1/8", "1/2", "15/16", "2"])
        assert _split(c, 0.5)[1][0] == 0.0  # h(1/2) is exactly zero after the first split
        got, _ = _bernstein_roots(c, 1e-12)
        assert [value for value, _, _ in got].count(0.5) == 1

    @pytest.mark.parametrize("n, tangent", [(4, False), (5, True)])
    def test_cluster_within_rounding_is_one_point(self, n, tangent):
        # signs alternate, but every coefficient is within rounding of zero, so
        # no split can resolve them: all of [0, 1] is one point, with no
        # evaluation of h, tangent iff the end coefficients share a sign
        c = [(-1.0) ** k * 1e-17 for k in range(n)]
        assert _bernstein_roots(c, 1e-13) == ([(0.5, tangent, 1.0)], 0)


class TestClassifyStability:
    def test_repulsive_half_supercritical(self):
        gm = UpdateMap.from_params(ModelParams.symmetric(3, 0.9))
        assert classify_stability(gm, 0.5) == REPULSIVE

    def test_attractive_half_subcritical(self):
        gm = UpdateMap.from_params(ModelParams.symmetric(3, 0.3))
        assert classify_stability(gm, 0.5) == ATTRACTIVE

    def test_neutral_at_tangency(self):
        gm = UpdateMap.from_params(ModelParams(3, 1.0, SQRT3M1))
        assert classify_stability(gm, ALPHA_TANGENT) == NEUTRAL

    def test_rejects_non_fixed_point(self):
        gm = UpdateMap.from_params(ModelParams.symmetric(3, 0.3))
        with pytest.raises(ValueError):
            classify_stability(gm, 0.2)


class TestIterateDynamics:
    def test_subcritical_converges_to_half(self):
        traj = iterate_dynamics(ModelParams.symmetric(3, 0.4), 0.9)
        assert traj.converged and traj.limit == pytest.approx(0.5, abs=1e-9)

    def test_constant_at_fixed_point(self):
        traj = iterate_dynamics(ModelParams.symmetric(3, 0.8), 0.5)
        assert traj.converged
        assert np.all(np.abs(np.array(traj.values) - 0.5) < 1e-12)

    def test_pb1_low_pr_sweeps_to_one(self):
        traj = iterate_dynamics(ModelParams(3, 1.0, 0.2), 0.05)
        assert traj.converged and traj.limit == 1.0

    def test_trajectory_monotone_when_increasing(self):
        for params, pi0 in [
            (ModelParams.symmetric(3, 0.8), 0.3),
            (ModelParams.symmetric(4, 0.9), 0.7),
            (ModelParams(3, 1.0, 0.4), 0.6),
        ]:
            traj = iterate_dynamics(params, pi0)
            diffs = np.diff(traj.values)
            if traj.values[1] > traj.values[0]:
                assert np.all(diffs >= -1e-15)
            else:
                assert np.all(diffs <= 1e-15)

    def test_identity_map_limit_is_self(self):
        traj = iterate_dynamics(ModelParams.symmetric(2, 1.0), 0.37)
        assert traj.converged
        assert traj.limit == pytest.approx(0.37, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 8, 64])
    def test_steps_are_g_eval(self, m):
        # the loop evaluates g without g_eval's checks, and must give its bits
        rng = np.random.default_rng(m)
        for _ in range(5):
            params = ModelParams(m, float(rng.random()), float(rng.random()))
            gm = UpdateMap.from_params(params)
            values = np.array(iterate_dynamics(params, float(rng.random()), max_steps=200).values)
            assert values[1:].tolist() == [g_eval(gm, x) for x in values[:-1].tolist()]

    def test_validation(self):
        with pytest.raises(ValueError):
            iterate_dynamics(ModelParams.symmetric(3, 0.5), 1.5)
        with pytest.raises(ValueError):
            iterate_dynamics(ModelParams.symmetric(3, 0.5), 0.5, max_steps=0)


class TestPredictLimit:
    def test_theorem3_branches(self):
        params = ModelParams.symmetric(3, 0.8)
        fps = find_fixed_points(params)
        alpha, half, one_minus = fps.values
        assert predict_limit(params, 0.3) == pytest.approx(alpha, abs=1e-12)
        assert predict_limit(params, 0.5) == pytest.approx(0.5, abs=1e-12)
        assert predict_limit(params, 0.7) == pytest.approx(one_minus, abs=1e-12)

    def test_theorem4_branches(self):
        params = ModelParams(3, 1.0, 0.9)
        a1, a2, one = find_fixed_points(params).values
        assert predict_limit(params, 0.0) == pytest.approx(a1, abs=1e-12)
        assert predict_limit(params, a2 - 1e-4) == pytest.approx(a1, abs=1e-12)
        assert predict_limit(params, a2) == pytest.approx(a2, abs=1e-12)
        assert predict_limit(params, a2 + 1e-4) == 1.0
        assert predict_limit(params, 1.0) == 1.0

    def test_unique_point_any_start(self):
        for params in [
            ModelParams.symmetric(3, 0.4),
            ModelParams(3, 1.0, 0.3),
            ModelParams.symmetric(5, 0.0),  # constant map, unique fixed point 1/2
            ModelParams(2, 0.0, 1.0),
        ]:
            fps = find_fixed_points(params)
            assert len(fps.points) == 1
            for pi0 in (0.0, 0.25, 0.9):
                assert predict_limit(params, pi0) == pytest.approx(
                    fps.points[0].value, abs=1e-12
                )

    def test_matches_iteration(self):
        cases = [
            (ModelParams.symmetric(3, 0.7), 0.2),
            (ModelParams.symmetric(4, 0.6), 0.8),
            (ModelParams(3, 1.0, 0.8), 0.1),
            (ModelParams(2, 0.3, 0.9), 0.5),
        ]
        for params, pi0 in cases:
            predicted = predict_limit(params, pi0)
            traj = iterate_dynamics(params, pi0)
            assert traj.converged
            assert predicted == pytest.approx(traj.limit, abs=1e-6)

    def test_identity_map_unsupported(self):
        with pytest.raises(UnsupportedRegimeError):
            predict_limit(ModelParams.symmetric(2, 1.0), 0.4)

    def test_first_point_in_the_direction_of_h(self):
        # the orbit is monotone, so its limit is the first reported point in
        # the direction of the sign of h(pi_0) = g(pi_0) - pi_0; that sign is
        # taken at 50 digits from the float coefficients the isolator roots,
        # so starts within 1e-13 of a repulsive point are decided as well;
        # predict_limit is _predict on the map's own root set
        rng = np.random.default_rng(13)
        thresholds = {m: solve_threshold(m).p_threshold for m in range(3, 65)}
        checked = 0
        while checked < 2000:
            m = int(rng.integers(2, 65))
            p_b, p_r = (float(v) for v in rng.random(2))
            kind = int(rng.integers(3))
            if kind == 0:
                p_b = p_r  # symmetric
                if m >= 3 and abs(p_r - thresholds[m]) < 1e-3:
                    continue
            elif kind == 1:
                p_b = 1.0
                if m == 3 and abs(p_r - SQRT3M1) < 1e-3:
                    continue
            gm = UpdateMap.from_params(ModelParams(m, p_b, p_r))
            fps = _fixed_points(gm)
            values = [fp.value for fp in fps.points]
            starts = [v + d for v in values for d in (-1e-9, -1e-12, -1e-13, 1e-13, 1e-12, 1e-9)]
            starts += [float(x) for x in rng.random(3)]
            with mpmath.workdps(50):
                # h(x) / (1 - x)^m as a polynomial in r = x / (1 - x)
                scaled = [mpmath.mpf(f - k / m) * math.comb(m, k) for k, f in enumerate(gm.coeffs)]
                for pi_0 in starts:
                    if not 0.0 <= pi_0 < 1.0 or pi_0 in values:
                        continue
                    x = mpmath.mpf(pi_0)
                    if mpmath.polyval(scaled[::-1], x / (1 - x)) > 0:
                        expected = min(v for v in values if v > pi_0)
                    else:
                        expected = max(v for v in values if v < pi_0)
                    assert _predict(gm, fps, pi_0) == expected, (gm.params, pi_0, values)
                    checked += 1

    @pytest.mark.parametrize("m", [24, 32, 64])
    def test_saturating_wide_maps(self, m):
        # g rounds to the same float at neighbouring points near 0 and 1 here;
        # the map is still increasing, because its policy values are
        params = ModelParams.symmetric(m, 0.9)
        lowest = find_fixed_points(params).points[0].value
        predicted = predict_limit(params, 0.3)
        assert predicted == lowest
        assert abs(iterate_dynamics(params, 0.3).values[-1] - predicted) <= 1e-12


class TestSolveThreshold:
    def test_m3_analytic(self):
        res = solve_threshold(3)
        assert res.p_threshold == pytest.approx(P3, abs=1e-9)
        assert res.bracket_width <= 1e-12
        assert not res.at_boundary

    def test_m4_analytic(self):
        # only real root of the quartic 4p - 6p^2 + 6p^3 - 2.5p^4 = 1 in (0,1)
        assert solve_threshold(4).p_threshold == pytest.approx(0.42842, abs=1e-4)

    def test_m2_boundary(self):
        res = solve_threshold(2)
        assert res.at_boundary and res.p_threshold == 1.0

    def test_regression_baselines(self):
        for m, p in THRESHOLD_BASELINES.items():
            assert solve_threshold(m).p_threshold == pytest.approx(p, abs=1e-9)

    def test_slope_consistency(self):
        from treemajority.update_map import g_prime_at_half

        for m in range(3, 9):
            p_m = solve_threshold(m).p_threshold
            assert g_prime_at_half(ModelParams.symmetric(m, p_m)) == pytest.approx(
                1.0, abs=1e-9
            )
            assert g_prime_at_half(ModelParams.symmetric(m, p_m - 0.01)) < 1.0
            assert g_prime_at_half(ModelParams.symmetric(m, p_m + 0.01)) > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_threshold(1)


def exact_walk_excess(s: int) -> Fraction:
    """E|S_s| - 1 for a simple symmetric random walk, summed over its 2^s paths."""
    return sum(Fraction(math.comb(s, j) * abs(2 * j - s), 2**s) for j in range(s + 1)) - 1


def mp_slope_at_half(m: int, p):
    """g'(1/2) in the symmetric regime from the raw rule at 50 digits:
    sum_k f(k) C(m,k) (2k - m) / 2^(m-1), with f(k) the win-plus-half-tie
    double sum over the B- and R-success counts."""
    q = 1 - p
    pmf = [[math.comb(n, i) * p**i * q ** (n - i) for i in range(n + 1)] for n in range(m + 1)]
    total = mpmath.mpf(0)
    for k in range(m + 1):
        a, b = pmf[k], pmf[m - k]
        f = mpmath.mpf(0)
        for i, ai in enumerate(a):
            f += ai * (mpmath.fsum(b[:i]) + (b[i] / 2 if i < len(b) else 0))
        total += f * math.comb(m, k) * (2 * k - m)
    return total / mpmath.mpf(2) ** (m - 1)


class TestThresholdCertificate:
    def test_coefficients_exact_and_monotone(self):
        # c_s = E|S_s| - 1 never decreases and changes sign once for m >= 3,
        # so Descartes' rule leaves p(m) a unique root in (0, 1)
        exact = [Fraction(-1)] + [exact_walk_excess(s) for s in range(1, 65)]
        assert exact[:7] == [-1, 0, 0, Fraction(1, 2), Fraction(1, 2), Fraction(7, 8), Fraction(7, 8)]
        assert all(a <= b for a, b in zip(exact, exact[1:]))
        for m in range(2, 65):
            c = exact[: m + 1]
            assert _threshold_coeffs(m) == [float(x) for x in c]
            signs = [x > 0 for x in c if x != 0]
            changes = sum(a != b for a, b in zip(signs, signs[1:]))
            assert changes == (1 if m >= 3 else 0)
        assert _threshold_coeffs(2) == [-1.0, 0.0, 0.0]  # m = 2: the only root is p = 1

    @given(m=st.integers(min_value=2, max_value=64), p=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_walk_form_matches_slope_oracle(self, m, p):
        # g_prime_at_half's weights sum to at most 2m in absolute value, each
        # times a policy value within _rounding_bound(m) of exact
        got = bernstein_horner(bernstein_scaled(_threshold_coeffs(m)), p)
        want = g_prime_at_half(ModelParams.symmetric(m, p)) - 1.0
        assert abs(got - want) <= 2 * m * _rounding_bound(m)

    @pytest.mark.parametrize("m", [3, 5, 8, 16, 33, 64])
    def test_against_mpmath_root(self, m):
        with mpmath.workdps(50):
            root = mpmath.findroot(
                lambda p: mp_slope_at_half(m, p) - 1,
                (mpmath.mpf("0.001"), mpmath.mpf("0.999")),
                solver="anderson",
            )
            assert abs(mp_slope_at_half(m, root) - 1) < mpmath.mpf("1e-40")
            assert abs(solve_threshold(m).p_threshold - root) <= 1e-12

    def test_bracket_and_evaluations(self):
        for m in (3, 8, 64):
            res = solve_threshold(m)
            assert 0.0 < res.bracket_width <= 1e-12
            assert 0 < res.evaluations <= 40
        res = solve_threshold(2)
        assert (res.p_threshold, res.bracket_width, res.evaluations) == (1.0, 0.0, 0)


class TestClosedFormM3:
    def test_unique_below_boundary(self):
        fps = m3_pb1_closed_form(0.5)
        assert [fp.value for fp in fps.points] == [1.0]

    def test_two_at_boundary(self):
        fps = m3_pb1_closed_form(SQRT3M1)
        assert len(fps.points) == 2
        assert fps.points[0].value == pytest.approx(ALPHA_TANGENT, abs=1e-15)
        assert fps.points[0].tangent

    def test_three_above_boundary(self):
        fps = m3_pb1_closed_form(0.9)
        v = fps.values
        assert len(v) == 3 and 0.0 < v[0] < v[1] < v[2] == 1.0

    def test_roots_satisfy_fixed_point_equation(self):
        gm = UpdateMap.from_params(ModelParams(3, 1.0, 0.9))
        for fp in m3_pb1_closed_form(0.9).points:
            assert g_eval(gm, fp.value) == pytest.approx(fp.value, abs=1e-13)

    def test_pr1_recovers_symmetric_triple(self):
        np.testing.assert_allclose(m3_pb1_closed_form(1.0).values, [0.0, 0.5, 1.0], atol=0)


class TestCountLaw:
    def test_counts_straddle_threshold(self):
        for m in (3, 5):
            p_m = solve_threshold(m).p_threshold
            for p in (p_m - 0.05, p_m - 0.005):
                assert len(find_fixed_points(ModelParams.symmetric(m, p)).points) == 1
            for p in (p_m + 0.005, p_m + 0.05):
                assert len(find_fixed_points(ModelParams.symmetric(m, p)).points) == 3
