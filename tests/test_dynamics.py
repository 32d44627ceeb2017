import functools
import json
import math
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treemajority import cli, dynamics, model, update_map
from treemajority.dynamics import _bernstein_roots, _rounding_bound, _split, _threshold_coeffs
from treemajority.dynamics import _fixed_points, _predict, _trajectory_request
from treemajority.dynamics import (
    ATTRACTIVE,
    NEUTRAL,
    REPULSIVE,
    IdentityMapError,
    UnsupportedRegimeError,
    find_fixed_points,
    iterate_dynamics,
    m3_pb1_closed_form,
    predict_limit,
    solve_threshold,
)
from treemajority.model import ModelParams, bernstein_horner, bernstein_scaled, policy_table
from treemajority.update_map import UpdateMap, g_eval, g_prime, g_prime_at_half

from conftest import enumerate_policy, mp_policy, symmetric_alpha_closed_form

SQRT3M1 = math.sqrt(3.0) - 1.0
ALPHA_TANGENT = 2.0 / 3.0 - 1.0 / math.sqrt(3.0)
P3 = (2 + 2 ** (1 / 3) - 2 ** (2 / 3)) / 3  # only real root of 1.5p^3 - 3p^2 + 3p - 1

# frozen regression baselines from this solver when it bisected to 1e-12
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
        # next to the m = 2 identity: an endpoint's outer gap is the empty 0, so its inner gap sets its label
        fps = find_fixed_points(ModelParams(2, 1.0, 1.0 - 2.0**-53))
        assert fps.gap_signs == (1, 0)
        assert [(fp.value, fp.stability) for fp in fps.points] == [(1.0, ATTRACTIVE)]
        fps = find_fixed_points(ModelParams(2, 1.0 - 1e-9, 1.0))  # f(2) = 1 - 5e-19 rounds to 1.0
        assert fps.gap_signs == (0, -1, 0)
        assert [(fp.value, fp.stability) for fp in fps.points] == [(0.0, ATTRACTIVE), (1.0, REPULSIVE)]

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
        # 1/2 is divided out of h rather than bisected, so it is reported exactly, also at p(m)
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


def _root_bound(m: int, value: float, slope) -> float:
    """Two ulps, plus the shift of a root of slope h' under a change of h by ``_rounding_bound(m)``."""
    return 2 * math.ulp(value) + _rounding_bound(m) / abs(float(slope))


def _mp_newton_root(coeffs: list, x0: float) -> tuple:
    """(root, h' there), by Newton's method at the working precision from x0, of the
    polynomial with Bernstein coefficients ``coeffs`` taken exactly."""

    def bern(c, x):
        n = len(c) - 1
        return mpmath.fsum(v * math.comb(n, k) * x**k * (1 - x) ** (n - k) for k, v in enumerate(c))

    c = [mpmath.mpf(v) for v in coeffs]
    d = [(len(c) - 1) * (b - a) for a, b in zip(c, c[1:])]
    x = mpmath.mpf(x0)
    for _ in range(100):
        step = bern(c, x) / bern(d, x)
        x -= step
        if abs(step) <= abs(x) * mpmath.eps * 1000:
            return x, bern(d, x)
    raise AssertionError(f"Newton did not converge from {x0!r}")


class TestRootIsolation:
    """The isolation on Bernstein coefficients against oracles it does not use."""

    @pytest.mark.parametrize(
        "offset",
        [0.0]
        + [s * 10.0**-k for s in (1, -1) for k in range(3, 11)]
        + [pytest.param(-SQRT3M1, id="p_r=0"), pytest.param(1.0 - SQRT3M1, id="p_r=1")],
    )
    def test_m3_pb1_near_tangency_matches_closed_form(self, offset):
        p_r = SQRT3M1 + offset  # exactly 0.0 and 1.0 at the two end cases
        got_set, want_set = find_fixed_points(ModelParams(3, 1.0, p_r)), m3_pb1_closed_form(p_r)
        assert got_set.gap_signs == want_set.gap_signs, (p_r, got_set.values)
        got, want = got_set.points, want_set.points
        assert len(got) == len(want), [fp.value for fp in got]
        for g, w in zip(got, want):
            assert g.tangent == w.tangent
            assert g.value == pytest.approx(w.value, abs=1e-6)
        # below sqrt3 - 1 every orbit goes to 1; above it the quadratic's roots split the square
        if offset == 0.0:
            labels = [NEUTRAL, ATTRACTIVE]
        else:
            labels = [ATTRACTIVE] if p_r < SQRT3M1 else [ATTRACTIVE, REPULSIVE, ATTRACTIVE]
        assert [fp.stability for fp in got] == labels, p_r

    @pytest.mark.parametrize("m", [3, 4, 5, 8, 16, 64])
    def test_triple_cluster_at_threshold_is_one_point(self, m):
        # at p(m) the roots alpha, 1/2, 1 - alpha coincide; rounding cannot
        # separate them, so they must come back as a single point, which
        # attracts every orbit (g'(1/2) = 1, but h is + left of it and - right)
        p = solve_threshold(m).p_threshold
        points = find_fixed_points(ModelParams.symmetric(m, p)).points
        assert len(points) == 1, [fp.value for fp in points]
        assert points[0].value == pytest.approx(0.5, abs=1e-4)
        assert points[0].stability == ATTRACTIVE

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
                slope = [k * c for k, c in enumerate(poly)][:0:-1]
                for value, root in zip(got, expected):
                    bound = _root_bound(m, value, mpmath.polyval(slope, root))
                    assert abs(value - root) <= bound, (m, p_b, p_r, value, root)

    def test_interior_roots_match_newton_on_same_coefficients(self):
        # up to m = 64, against 50-digit Newton roots of the very float
        # coefficients the isolator is given, 40% of the maps symmetric
        rng = np.random.default_rng(20261019)
        checked = 0
        with mpmath.workdps(50):
            for _ in range(150):
                m = int(rng.integers(3, 65))
                if rng.random() < 0.4:
                    params = ModelParams.symmetric(m, float(rng.uniform(0.02, 0.98)))
                else:
                    params = ModelParams(m, *(float(v) for v in rng.uniform(0.02, 0.98, size=2)))
                coeffs = [f - k / m for k, f in enumerate(UpdateMap.from_params(params).coeffs)]
                for fp in find_fixed_points(params).points:
                    if fp.tangent or fp.value in (0.0, 1.0):
                        continue
                    root, slope = _mp_newton_root(coeffs, fp.value)
                    assert abs(fp.value - root) <= _root_bound(m, fp.value, slope), (params, fp)
                    checked += 1
        assert checked > 300

    @pytest.mark.parametrize("p", [0.6, 0.7, 0.8, 0.9])
    def test_m64_root_near_zero_keeps_relative_accuracy(self, p):
        # h(x) = f(0) + (g'(0) - 1) x + ..., with g'(0) below 1e-20, so the root
        # near 0 is f(0) to far better than an ulp; bisection from the bracket
        # (0, b) halves down the exponent and reaches it
        params = ModelParams.symmetric(64, p)
        f0 = policy_table(params)[0]
        low, half, high = find_fixed_points(params).values
        assert abs(low - f0) <= 2 * math.ulp(f0)
        assert low == pytest.approx(0.5 * (1 - p) ** 64, rel=1e-13)
        # 1 - f(0) rounds to 1.0, so f(64) - 1 is exactly 0 and 1.0 is the root
        assert (half, high) == (0.5, 1.0)

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
        # dyadic roots are midpoints on the bisection's way, where h is exactly zero
        got, gap_signs, evaluations = _bernstein_roots(_coeffs_with_roots(roots))
        tangents = [left == right for left, right in zip(gap_signs, gap_signs[1:])]
        assert [(value, tangent) for (value, _), tangent in zip(got, tangents)] == expected
        assert all(width == 0.0 for _, width in got)
        interior = any(0.0 < want < 1.0 for want, _ in expected)
        assert (evaluations > 0) if interior else (evaluations == 0)

    def test_exact_zero_at_first_split(self):
        c = _coeffs_with_roots(["1/8", "1/2", "15/16", "2"])
        assert _split(c, 0.5)[1][0] == 0.0  # h(1/2) is exactly zero after the first split
        got, _, _ = _bernstein_roots(c)
        assert [value for value, _ in got].count(0.5) == 1

    @pytest.mark.parametrize("n, tangent", [(4, False), (5, True)])
    def test_cluster_within_rounding_is_one_point(self, n, tangent):
        # signs alternate, but every coefficient is within rounding of zero, so
        # no split can resolve them: all of [0, 1] is one point, with no
        # evaluation of h, tangent iff the end coefficients share a sign
        c = [(-1.0) ** k * 1e-17 for k in range(n)]
        assert _bernstein_roots(c) == ([(0.5, 1.0)], (1, 1 if tangent else -1), 0)

    def test_bisection_ends_at_least_subnormal(self):
        # h = 5e-324 (1 - x) - x: the bracket (0, 1) halves down the whole
        # exponent range, 1,074 times, to the exact zero h(5e-324) = 0
        got, gap_signs, evaluations = _bernstein_roots([5e-324, -1.0])
        assert (got, gap_signs) == ([(5e-324, 0.0)], (1, -1))
        assert evaluations == 1074


def _h_coeffs(params: ModelParams) -> list:
    """Bernstein coefficients f(k) - k/m of h = g - x, as ``find_fixed_points`` builds them."""
    return [f - k / params.m for k, f in enumerate(policy_table(params))]


def _split_callers(monkeypatch) -> list:
    """Record the name of the function behind each ``dynamics._split`` call."""
    callers, split = [], dynamics._split

    def counted(c, t):
        callers.append(sys._getframe(1).f_code.co_name)
        return split(c, t)

    monkeypatch.setattr(dynamics, "_split", counted)
    return callers


class TestMergeProbe:
    """Adjacent roots reach the de Casteljau merge test only where h can be flat."""

    def _cases(self):
        rng = random.Random(20261019)
        for _ in range(200):
            yield ModelParams(rng.randint(2, 64), rng.random(), rng.random())
        for m in range(3, 65):
            p = solve_threshold(m).p_threshold
            for k in range(8, 15):
                for sign in (1, -1):
                    yield ModelParams.symmetric(m, p + sign * 10.0**-k)
        for k in range(3, 17):
            for sign in (1, -1):
                yield ModelParams(3, 1.0, SQRT3M1 + sign * 10.0**-k)

    def test_merge_decisions_match_testing_every_gap(self, monkeypatch):
        # the reference never skips the splits, as with no probe at all
        callers = _split_callers(monkeypatch)
        probed = tested = 0
        for params in self._cases():
            c = _h_coeffs(params)
            del callers[:]
            roots, gap_signs, _ = _bernstein_roots(c)
            probed += callers.count("flat")
            with monkeypatch.context() as patch:
                patch.setattr(dynamics, "_FLAT_PROBE", math.inf)
                del callers[:]
                assert _bernstein_roots(c)[:2] == (roots, gap_signs), params
                tested += callers.count("flat")
        # the probe skips some gaps, and some still reach the split test
        assert 0 < probed < tested

    def test_pitchfork_window_still_merges(self, monkeypatch):
        # just above p(3) h stays within rounding of zero between the three
        # roots, so they reach the split test and merge into one point
        callers = _split_callers(monkeypatch)
        p = solve_threshold(3).p_threshold + 1e-10
        roots, gap_signs, _ = _bernstein_roots(_h_coeffs(ModelParams.symmetric(3, p)))
        assert len(roots) == 1 and gap_signs == (1, -1)
        assert callers.count("flat") == 2

    def test_separated_roots_skip_the_splits(self, monkeypatch):
        callers = _split_callers(monkeypatch)
        fps = find_fixed_points(ModelParams.symmetric(64, 0.05))
        assert len(fps.points) == 3 and 0.02 < fps.values[0] < 0.04
        # one split at 1/2 takes h to its left half; the merge test's splits never run
        assert callers.count("_fixed_points") == 1 and "flat" not in callers


class TestBisection:
    """Each bracket ``_bisect`` returns is final, and its count is the midpoints it evaluated."""

    def _inputs(self):
        yield from (_h_coeffs(params) for params in TestMergeProbe()._cases())
        yield from (_threshold_coeffs(m) for m in range(2, 65))
        yield [5e-324, -1.0]
        yield [-1.0, 1e-300]
        # one sign change, but the differences change sign twice: two
        # extrema inside the one-root interval
        yield [-1.0, -0.25, -0.75, 1.0]

    def test_brackets_final_and_counted(self, monkeypatch):
        reads, brackets = [0], []
        bisect_ = dynamics._bisect

        def counted(scaled, x):
            reads[0] += 1
            return bernstein_horner(scaled, x)

        def checked(scaled, a, b, fa):
            before = reads[0]
            (lo, hi), count = bisect_(scaled, a, b, fa)
            assert count == reads[0] - before, (a, b)
            if lo == hi:
                assert a < lo < b and bernstein_horner(scaled, lo) == 0.0, (a, b)
            else:
                assert a <= lo < hi <= b and math.nextafter(lo, 1.0) == hi, (a, b, lo, hi)
            brackets.append(lo == hi)
            return (lo, hi), count

        monkeypatch.setattr(dynamics, "bernstein_horner", counted)
        monkeypatch.setattr(dynamics, "_bisect", checked)
        for c in self._inputs():
            _bernstein_roots(c)
        # both endings occur: adjacent doubles, and midpoints where h reads exactly zero
        assert len(brackets) > 2000 and 0 < sum(brackets) < len(brackets)


def _mp_bernstein(c: list, x: float):
    """sum_k c[k] C(n,k) x^k (1-x)^(n-k) of the exact float inputs, in 50 digits."""
    n = len(c) - 1
    with mpmath.workdps(50):
        t = mpmath.mpf(x)
        return mpmath.fsum(mpmath.mpf(v) * math.comb(n, k) * t**k * (1 - t) ** (n - k) for k, v in enumerate(c))


class TestHornerBound:
    """The premise of ``_horner_bound``: Horner's rule on a list is within
    1.5 (n+1) eps max|c| of the exact value, for every list the isolator reads."""

    def _lists(self):
        yield from (_threshold_coeffs(m) for m in range(3, 65))
        rng = random.Random(20261019)
        for _ in range(50):
            yield _h_coeffs(ModelParams(rng.randint(2, 64), rng.random(), rng.random()))

    def test_error_within_bound_of_list(self):
        rng = random.Random(7)
        eps = sys.float_info.epsilon
        # the bound scales with the list: the threshold's coefficients reach
        # 5.36, not the [-1, 1] of a map's f(k) - k/m
        assert max(max(map(abs, c)) for c in self._lists()) > 5.0
        for c in self._lists():
            n, scaled = len(c) - 1, bernstein_scaled(c)
            bound = 1.5 * (n + 1) * eps * max(map(abs, c))
            points = [0.0, 1.0, 0.5, 1e-300, 1.0 - 2.0**-53] + [rng.random() for _ in range(15)]
            for x in points:
                err = abs(bernstein_horner(scaled, x) - _mp_bernstein(c, x))
                assert err <= bound, (n, x, float(err), bound)


def test_rounding_bound_reach_on_symmetric_maps(monkeypatch):
    # _rounding_bound's docstring states the reach max|c| of the lists it is
    # applied to; for a symmetric map that is the deflated q, which passes 8/3
    isolate, reach = dynamics._bernstein_roots, []

    def recorded(coeffs):
        reach.append((max(map(abs, coeffs)), m, k))
        return isolate(coeffs)

    monkeypatch.setattr(dynamics, "_bernstein_roots", recorded)
    for m in (3, 4, 5, 8, 16, 32, 64):
        for k in range(1, 100):
            find_fixed_points(ModelParams.symmetric(m, k / 100))
    top, m_top, k_top = max(reach)
    assert round(top, 4) == 2.6721 and (m_top, k_top) == (64, 99)


class TestOneRowSetPerMap:
    """A map builds its binomial weight rows once: m+1 of them, or 2(m+1) when p_b != p_r."""

    @pytest.fixture
    def rows(self, monkeypatch):
        calls, weights = [], model.bernstein_weights

        def counted(n, x):
            calls.append((n, x))
            return weights(n, x)

        monkeypatch.setattr(model, "bernstein_weights", counted)
        return calls

    @pytest.mark.parametrize(
        "params, rows_per_map",
        [
            (ModelParams.symmetric(3, 0.9), 4),
            (ModelParams.symmetric(64, 0.05), 65),
            (ModelParams(8, 0.75, 0.55), 18),
            (ModelParams(64, 0.55, 0.5), 130),
        ],
    )
    def test_rows_per_request(self, rows, params, rows_per_map):
        find_fixed_points(params)
        assert len(rows) == rows_per_map
        del rows[:]
        traj, predicted = _trajectory_request(params, 0.3, 10**4, True)
        assert traj.converged and predicted == traj.limit
        assert len(rows) == rows_per_map
        del rows[:]
        _trajectory_request(params, 0.3, 10**4, False)
        assert len(rows) == rows_per_map

    def test_fixed_points_build_no_policy_steps(self, monkeypatch, capsys):
        # labels are read from the gap signs, so finding fixed points needs no g'
        calls, steps = [], update_map._policy_steps

        def counted(params, rows):
            calls.append(params)
            return steps(params, rows)

        monkeypatch.setattr(update_map, "_policy_steps", counted)
        for params in (
            ModelParams.symmetric(3, 0.9),
            ModelParams.symmetric(5, solve_threshold(5).p_threshold),
            ModelParams(8, 0.75, 0.55),
        ):
            find_fixed_points(params)
            predict_limit(params, 0.3)
        m3_pb1_closed_form(SQRT3M1)
        m3_pb1_closed_form(0.9)
        assert cli.main(["fixed-points", "--m", "5", "--p", "0.7"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 3
        assert calls == []
        g_prime(UpdateMap.from_params(ModelParams.symmetric(3, 0.9)), 0.5)
        assert len(calls) == 1  # the counter sees the one build that g' makes


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

    # the orbit loop runs g_eval's Horner step and clamp inline; these starts reach both
    # branch ends: at x = 1/2 the two Horner branches differ in bits on most maps, and
    # p_b = 1 maps evaluate above 1.0 unclamped just below x = 1
    @given(
        m=st.integers(min_value=2, max_value=64),
        p_b=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
        p_r=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
        pi_0=st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 1.0 - 2.0**-53, 5e-324]),
            st.floats(min_value=0.0, max_value=1.0),
        ),
    )
    @example(m=3, p_b=0.3, p_r=0.6, pi_0=0.5)
    @example(m=23, p_b=1.0, p_r=0.0, pi_0=0.8312026801722365)
    @settings(max_examples=300, deadline=None)
    def test_step_bits_are_g_eval(self, m, p_b, p_r, pi_0):
        params = ModelParams(m, p_b, p_r)
        gm = UpdateMap.from_params(params)
        values = iterate_dynamics(params, pi_0, max_steps=200).values
        assert [x.hex() for x in values[1:]] == [g_eval(gm, x).hex() for x in values[:-1]]

    def test_no_horner_call_per_step(self, monkeypatch):
        # a capped orbit searches no fixed points, so every Horner call would be a step's
        calls = []

        def counted(scaled, x):
            calls.append(x)
            return model.bernstein_horner(scaled, x)

        monkeypatch.setattr(update_map, "bernstein_horner", counted)
        monkeypatch.setattr(dynamics, "bernstein_horner", counted)
        traj = iterate_dynamics(ModelParams(3, 1.0, SQRT3M1), 0.05, max_steps=1000)
        assert not traj.converged and len(traj.values) == 1001
        assert calls == []

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
                scaled = [mpmath.mpf(f - k / m) * math.comb(m, k) for k, f in enumerate(gm.coeffs)]
                # a symmetric map is rooted on [0, 1/2] and mirrored, so right of 1/2
                # the sign of h is read as -sign h(1 - x), and h(1) as -h(0)
                mirrored = gm.params.is_symmetric

                def sign_of_h(x):
                    if mirrored and x > 0.5:
                        return -sign_of_h(1 - x)
                    return mpmath.sign(mpmath.fsum(c * x**k * (1 - x) ** (m - k) for k, c in enumerate(scaled)))

                # gap i runs from ends[i] to ends[i+1]; an end gap is empty, with sign 0,
                # when that end is a point at which h is exactly zero; any other gap has
                # the sign of h at its midpoint (at 0 or 1 for a gap no double splits)
                signs = fps.gap_signs
                assert len(signs) == len(values) + 1
                ends = [0.0, *values, 1.0]
                for i, sign in enumerate(signs):
                    if (i == 0 and scaled[0] == 0) or (i == len(values) and scaled[0 if mirrored else -1] == 0):
                        assert sign == 0 and ends[i] == ends[i + 1], (gm.params, i, signs)
                        continue
                    x = (mpmath.mpf(ends[i]) + ends[i + 1]) / 2
                    assert sign == sign_of_h(x) != 0, (gm.params, i, signs, values)
                for fp, left, right in zip(fps.points, signs, signs[1:]):
                    assert fp.tangent == (left == right), (gm.params, fp, signs)
                for pi_0 in starts:
                    if not 0.0 <= pi_0 < 1.0 or pi_0 in values:
                        continue
                    if sign_of_h(mpmath.mpf(pi_0)) > 0:
                        expected = min(v for v in values if v > pi_0)
                    else:
                        expected = max(v for v in values if v < pi_0)
                    assert _predict(fps, pi_0) == expected, (gm.params, pi_0, values)
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
    sum_k f(k) C(m,k) (2k - m) / 2^(m-1), with f(k) from ``mp_policy``."""
    with mpmath.workdps(50):
        total = mpmath.fsum(f * math.comb(m, k) * (2 * k - m) for k, f in enumerate(mp_policy(m, p)))
        return total / mpmath.mpf(2) ** (m - 1)


@functools.cache
def mp_threshold(m: int):
    """p(m) at 50 digits: mpmath's own root of g'(1/2) - 1 from the raw rule."""
    with mpmath.workdps(50):
        return mpmath.findroot(
            lambda p: mp_slope_at_half(m, p) - 1, (mpmath.mpf("0.001"), mpmath.mpf("0.999")), solver="anderson"
        )


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

    @pytest.mark.parametrize("m", [*range(3, 17), 33, 64])
    def test_against_mpmath_root(self, m):
        with mpmath.workdps(50):
            root = mp_threshold(m)
            assert abs(mp_slope_at_half(m, root) - 1) < mpmath.mpf("1e-40")
            assert abs(solve_threshold(m).p_threshold - root) <= 2 * math.ulp(root)

    def test_bracket_and_evaluations(self):
        # bisected until no double splits the bracket: one ulp wide, or zero
        # where h is exactly 0.0 at a double (m = 8 and 64, among others);
        # that takes 51 to 58 midpoints
        for m in range(3, 65):
            res = solve_threshold(m)
            assert 0.0 <= res.bracket_width <= math.ulp(res.p_threshold)
            assert 51 <= res.evaluations <= 58
        res = solve_threshold(2)
        assert (res.p_threshold, res.bracket_width, res.evaluations) == (1.0, 0.0, 0)


class TestLargeMThreshold:
    """p(m) ~ lambda*/m: with p = lambda/m and m -> oo, N ~ Binomial(m, p) tends to
    Poisson(lambda) and g'(1/2) = E|S_N| to lambda e^-lambda (I0(lambda) + I1(lambda))."""

    def test_gap_to_the_poisson_limit(self):
        with mpmath.workdps(30):
            limit = mpmath.findroot(lambda x: x * mpmath.exp(-x) * (mpmath.besseli(0, x) + mpmath.besseli(1, x)) - 1, 1.8)
        lam = float(limit)
        assert lam == pytest.approx(1.8494325437505266, abs=1e-15)
        ms = range(3, 65)
        scaled = [m * solve_threshold(m).p_threshold for m in ms]
        assert all(a < b for a, b in zip(scaled, scaled[1:]))
        gaps = [m * (lam - s) for m, s in zip(ms, scaled)]
        assert 0.53 <= min(gaps) and max(gaps) <= 0.562


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


def m2_policy(p_b: float, p_r: float) -> list:
    return [(1 - p_r) ** 2 / 2, (1 + p_b - p_r) / 2, 1 - (1 - p_b) ** 2 / 2]


def m2_fixed_point(p_b: float, p_r: float) -> float:
    """The root in [0, 1] of h = g_2 - x, by the quadratic formula without cancellation.

    h has Bernstein coefficients (f(0), f(1) - 1/2, f(2) - 1), so h(0) >= 0 >= h(1)
    and h crosses zero downward, where h' = -sqrt(disc).
    """
    f0, f1, f2 = m2_policy(p_b, p_r)
    c0, c1, c2 = f0, f1 - 0.5, f2 - 1.0
    a, b, c = c0 - 2 * c1 + c2, 2 * (c1 - c0), c0
    root_disc = math.sqrt(b * b - 4 * a * c)
    return 2 * c / (root_disc - b) if b <= 0 else -(b + root_disc) / (2 * a)


class TestM2WholeSquare:
    """The paper's m = 2 claim: one fixed point at every (p_b, p_r) except the identity map."""

    GRID = [i / 40 for i in range(41)]

    def test_policy_table_closed_form(self):
        for p_b in self.GRID:
            for p_r in self.GRID:
                got = policy_table(ModelParams(2, p_b, p_r))
                for f, want in zip(got, m2_policy(p_b, p_r), strict=True):
                    assert abs(f - want) <= 1e-15, (p_b, p_r)

    def test_identity_map_refused(self):
        with pytest.raises(IdentityMapError):
            find_fixed_points(ModelParams(2, 1.0, 1.0))

    @pytest.mark.parametrize("k", range(7, 17))
    def test_near_identity_keeps_its_half(self, k):
        # h = (1-p)^2/2 (1 - 2x): f(2) rounds to 1.0 and h is within rounding
        # of zero, but the map is not the identity and 1/2 crosses the diagonal
        fps = find_fixed_points(ModelParams.symmetric(2, 1.0 - 10.0**-k))
        assert fps.values == (0.5,) and fps.gap_signs == (1, -1)
        assert not fps.points[0].tangent and fps.points[0].stability == ATTRACTIVE

    def test_one_fixed_point_at_the_quadratic_root(self):
        cells = 0
        for p_b in self.GRID:
            for p_r in self.GRID:
                if p_b == p_r == 1.0:
                    continue
                fps = find_fixed_points(ModelParams(2, p_b, p_r))
                assert len(fps.points) == 1, (p_b, p_r, fps.values)
                assert abs(fps.points[0].value - m2_fixed_point(p_b, p_r)) <= 1e-12, (p_b, p_r)
                cells += 1
        assert cells == 1680


class TestCountLaw:
    def test_counts_straddle_threshold(self):
        for m in (3, 5):
            p_m = solve_threshold(m).p_threshold
            for p in (p_m - 0.05, p_m - 0.005):
                assert len(find_fixed_points(ModelParams.symmetric(m, p)).points) == 1
            for p in (p_m + 0.005, p_m + 0.05):
                assert len(find_fixed_points(ModelParams.symmetric(m, p)).points) == 3


def mp_alpha(m: int, p: float):
    """The fixed point below 1/2 of the symmetric map at p, at 50 digits, from the raw rule.

    h(1/2 - s) / (-s) = G(s^2) - 1 falls from g'(1/2) - 1 > 0 at s = 0 to
    -2 f(0) at s = 1/2; it is bisected in s, geometrically while the bracket
    spans a factor of two, to 1e-15 relative.
    """
    f = mp_policy(m, p)
    with mpmath.workdps(50):

        def odd_part(s):
            x = 0.5 - s
            return (mpmath.fsum(fk * math.comb(m, k) * x**k * (1 - x) ** (m - k) for k, fk in enumerate(f)) - x) / -s

        lo, hi = mpmath.mpf(10) ** -30, mpmath.mpf(0.5)
        assert odd_part(lo) > 0 > odd_part(hi)
        while hi - lo > lo * 1e-15:
            mid = (lo + hi) / 2 if hi < 2 * lo else mpmath.sqrt(lo * hi)
            lo, hi = (mid, hi) if odd_part(mid) > 0 else (lo, mid)
        return 0.5 - (lo + hi) / 2


class TestSymmetricPitchfork:
    """Just above p(m) the symmetric map has the paper's three fixed points alpha, 1/2 and 1 - alpha,
    and at or below it the one point 1/2; the oracles are 50-digit roots of the raw rule."""

    MS = (3, 4, 5, 8, 16, 32, 64)
    DELTAS = (1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-12)

    @staticmethod
    def _check_triple(params: ModelParams, alpha) -> None:
        fps = find_fixed_points(params)
        values = fps.values
        assert len(values) == 3, (params, values)
        assert abs((values[0] - 0.5) - (alpha - 0.5)) <= 1e-4 * (0.5 - alpha), (params, values[0], alpha)
        assert values[1] == 0.5 and values[2] == 1.0 - values[0]
        assert predict_limit(params, 0.3) == values[0]
        stability = [fp.stability for fp in fps.points]
        assert stability == [ATTRACTIVE, REPULSIVE, ATTRACTIVE], (params, stability)

    @pytest.mark.parametrize("m", MS)
    def test_three_mirrored_points_above(self, m):
        for delta in self.DELTAS:
            params = ModelParams.symmetric(m, float(mp_threshold(m) + delta))
            self._check_triple(params, mp_alpha(m, params.p_b))

    @pytest.mark.parametrize("m", MS)
    def test_one_point_at_and_below(self, m):
        # the paper: for p <= p(m), 1/2 is the only fixed point and attracts every orbit
        p_m = mp_threshold(m)
        for p in [float(p_m)] + [float(p_m - delta) for delta in self.DELTAS]:
            points = find_fixed_points(ModelParams.symmetric(m, p)).points
            assert [(fp.value, fp.stability) for fp in points] == [(0.5, ATTRACTIVE)], (m, p)

    @pytest.mark.parametrize("m", [3, 4])
    def test_closed_form_alpha(self, m):
        # G is linear at m = 3 and 4; T(p) = g'(1/2) - 1 is certified nonzero at every offset here
        for k in range(3, 13):
            params = ModelParams.symmetric(m, float(mp_threshold(m) + 10.0**-k))
            self._check_triple(params, symmetric_alpha_closed_form(m, params.p_b))


def _horner_calls(monkeypatch) -> list:
    """Record each ``bernstein_horner`` call made in ``dynamics``: True where it reads
    the threshold polynomial T(p) = g'(1/2) - 1, False where it reads h or h'."""
    calls, horner = [], dynamics.bernstein_horner

    def counted(scaled, x):
        calls.append(scaled is dynamics._threshold_form(len(scaled[0]) - 1)[1])
        return horner(scaled, x)

    monkeypatch.setattr(dynamics, "bernstein_horner", counted)
    return calls


class TestHalfIsolation:
    """A symmetric map is rooted on [0, 1/2] only, and not at all where its coefficients change sign once."""

    @staticmethod
    def _grid() -> list:
        # the benchmark's phase_diagram fixed-points grid at seed 7 (bench/workloads.py), 48
        # maps on each side of p(m); p(m) is solve_threshold's here, not the benchmark's
        # 50-digit oracle, so 5 of the 96 maps lie an ulp or so from the benchmark's
        rng, grid = random.Random(7), []
        for m in (3, 4, 5, 6, 7, 8, 16, 64):
            p_m = solve_threshold(m).p_threshold
            for lo, hi in ((0.02, p_m), (p_m, 0.98)):
                for k in range(6):
                    grid.append((ModelParams.symmetric(m, lo + (hi - lo) * (k + rng.uniform(0.05, 0.95)) / 6), hi == p_m))
        return grid

    def test_below_threshold_evaluates_no_h(self, monkeypatch):
        # 43 of the 48 maps have coefficients that change sign once and read
        # nothing; the other 5 read T(p) once, and their deflated coefficients
        # are all positive
        grid = self._grid()
        calls = _horner_calls(monkeypatch)
        for params, below in grid:
            if below:
                assert find_fixed_points(params).values == (0.5,)
        assert calls == [True] * 5

    def test_grid_evaluations(self, monkeypatch):
        # the reference is the same isolator on all of [0, 1], given each map's full f(k) - k/m
        grid = self._grid()
        calls = _horner_calls(monkeypatch)
        for params, _ in grid:
            find_fixed_points(params)
        half = len(calls)
        del calls[:]
        for params, _ in grid:
            _bernstein_roots(_h_coeffs(params))
        assert half <= 0.55 * len(calls), (half, len(calls))
