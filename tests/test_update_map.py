import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemajority.dynamics import _rounding_bound
from treemajority.model import (
    ModelParams,
    bernstein_horner,
    bernstein_scaled,
    policy_differences,
    policy_value,
)
from treemajority.update_map import (
    UpdateMap,
    df_dp,
    g_double_prime,
    g_eval,
    g_prime,
    g_prime_at_half,
)

from conftest import central_diff, second_central_diff

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def cubic_pb1(p_r: float, x: float) -> float:
    # independent evaluation for m=3, p_b=1 in the power-ish form
    q = 1.0 - p_r
    return 0.5 * q**3 * (1 - x) ** 3 + 3 * q * x * (1 - x) ** 2 + 3 * x**2 * (1 - x) + x**3


def cubic_pb1_deriv(p_r: float, x: float) -> float:
    q = 1.0 - p_r
    return 1.5 * q * (1 + 2 * p_r - p_r**2) * (1 - x) ** 2 + 6 * p_r * x * (1 - x)


class TestGEval:
    def test_constant_half_at_p0(self):
        gm = UpdateMap.from_params(ModelParams.symmetric(5, 0.0))
        assert g_eval(gm, 0.37) == pytest.approx(0.5, abs=1e-15)

    def test_identity_at_m2_p1(self):
        gm = UpdateMap.from_params(ModelParams.symmetric(2, 1.0))
        for x in (0.0, 0.3, 0.5, 0.77, 1.0):
            assert g_eval(gm, x) == pytest.approx(x, abs=1e-15)

    def test_m3_pb1_closed_cubic(self):
        gm = UpdateMap.from_params(ModelParams(3, 1.0, 0.5))
        assert g_eval(gm, 0.25) == pytest.approx(cubic_pb1(0.5, 0.25), abs=1e-14)

    def test_array_input(self):
        gm = UpdateMap.from_params(ModelParams(3, 1.0, 0.5))
        xs = np.linspace(0, 1, 11)
        g = [g_eval(gm, x) for x in xs]
        np.testing.assert_allclose(g, [cubic_pb1(0.5, x) for x in xs], atol=1e-14)

    def test_range_error(self):
        gm = UpdateMap.from_params(ModelParams(3, 0.5, 0.5))
        with pytest.raises(ValueError):
            g_eval(gm, 1.2)
        with pytest.raises(ValueError):
            g_eval(gm, -0.01)
        with pytest.raises(TypeError):
            g_eval(gm, np.array([0.2, 0.3]))

    @given(m=st.integers(min_value=2, max_value=10), p_b=probs, p_r=probs, x=unit)
    @settings(max_examples=200, deadline=None)
    def test_range(self, m, p_b, p_r, x):
        gm = UpdateMap.from_params(ModelParams(m, p_b, p_r))
        assert 0.0 <= g_eval(gm, x) <= 1.0

    @given(m=st.integers(min_value=2, max_value=10), p=probs, x=unit)
    @settings(max_examples=150, deadline=None)
    def test_symmetric_reflection(self, m, p, x):
        gm = UpdateMap.from_params(ModelParams.symmetric(m, p))
        assert g_eval(gm, x) + g_eval(gm, 1.0 - x) == pytest.approx(1.0, abs=1e-12)
        assert g_eval(gm, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_range_bulk(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = int(rng.integers(2, 65))
            gm = UpdateMap.from_params(ModelParams(m, float(rng.random()), float(rng.random())))
            g = np.array([g_eval(gm, x) for x in rng.random(100)])
            assert np.all((g >= 0.0) & (g <= 1.0))

    @given(
        m=st.integers(min_value=2, max_value=64),
        rates=st.one_of(
            st.tuples(st.just(1.0), probs),
            st.tuples(probs, st.just(0.0)),
            st.just((1.0, 0.0)),
        ),
        x=st.one_of(unit, st.floats(min_value=0.999, max_value=1.0), st.just(1.0 - 2.0**-53)),
    )
    @settings(max_examples=300, deadline=None)
    def test_range_saturated(self, m, rates, x):
        # with p_b = 1 or p_r = 0 the policy values reach 1 and the rounded
        # sum near x = 1 can land an ulp above it; g itself never does
        gm = UpdateMap.from_params(ModelParams(m, *rates))
        assert 0.0 <= g_eval(gm, x) <= 1.0
        assert 0.0 <= g_eval(gm, 1.0 - x) <= 1.0

    def test_symmetric_identity_grid(self):
        xs = np.linspace(0.0, 1.0, 1001)
        for m, p in [(3, 0.6), (4, 0.3), (8, 0.95), (2, 0.5)]:
            gm = UpdateMap.from_params(ModelParams.symmetric(m, p))
            g = np.array([g_eval(gm, x) for x in xs])
            g_mirror = np.array([g_eval(gm, x) for x in 1.0 - xs])
            np.testing.assert_allclose(g + g_mirror, 1.0, atol=1e-12)


def mp_bernstein_sum(c: list, x: float):
    """sum_k c[k] C(n,k) x^k (1-x)^(n-k) of the exact float inputs, in 50 digits."""
    n = len(c) - 1
    with mpmath.workdps(50):
        t = mpmath.mpf(x)
        return sum(
            mpmath.mpf(ck) * math.comb(n, k) * t**k * (1 - t) ** (n - k) for k, ck in enumerate(c)
        )


class TestKernel:
    @given(
        m=st.integers(min_value=2, max_value=64),
        x=st.one_of(unit, st.sampled_from([0.0, 1.0, 0.5, 1e-300, 1.0 - 2.0**-53])),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_against_mpmath(self, m, x, data):
        c = data.draw(st.lists(unit, min_size=m + 1, max_size=m + 1))
        got = bernstein_horner(bernstein_scaled(c), x)
        assert abs(got - float(mp_bernstein_sum(c, x))) <= _rounding_bound(m)

    @given(m=st.integers(min_value=2, max_value=64), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_endpoints_exact(self, m, data):
        signed = st.floats(min_value=-1.0, max_value=1.0)
        c = data.draw(st.lists(signed, min_size=m + 1, max_size=m + 1))
        scaled = bernstein_scaled(c)
        assert bernstein_horner(scaled, 0.0) == c[0]
        assert bernstein_horner(scaled, 1.0) == c[-1]

    @given(
        m=st.integers(min_value=2, max_value=64),
        p_b=probs,
        p_r=probs,
        x=st.one_of(unit, st.sampled_from([0.0, 1.0, 0.5, 1e-300, 1.0 - 2.0**-53])),
    )
    @settings(max_examples=200, deadline=None)
    def test_second_derivative_against_mpmath(self, m, p_b, p_r, x):
        # the bends f(k+2) - 2f(k+1) + f(k) change sign, so the bound scales
        # with the largest of them
        steps = policy_differences(ModelParams(m, p_b, p_r))
        bends = [b - a for a, b in zip(steps, steps[1:])]
        gm = UpdateMap.from_params(ModelParams(m, p_b, p_r))
        want = m * (m - 1) * mp_bernstein_sum(bends, x)
        bound = _rounding_bound(m) * max(abs(b) for b in bends) * m * (m - 1)
        assert abs(g_double_prime(gm, x) - float(want)) <= bound

    @pytest.mark.parametrize("fn", [g_eval, g_prime, g_double_prime])
    def test_nan_rejected(self, fn):
        gm = UpdateMap.from_params(ModelParams(3, 0.5, 0.5))
        for x in (float("nan"), np.float64("nan"), np.array(np.nan)):
            with pytest.raises(ValueError):
                fn(gm, x)


class TestDerivatives:
    def test_slope_at_half_p1(self):
        # p = 1 pins the map to explicit polynomials: x for m=2, 3x^2-2x^3 for m=3
        gm2 = UpdateMap.from_params(ModelParams.symmetric(2, 1.0))
        assert g_prime(gm2, 0.5) == pytest.approx(1.0, abs=1e-14)
        gm3 = UpdateMap.from_params(ModelParams.symmetric(3, 1.0))
        assert g_prime(gm3, 0.5) == pytest.approx(1.5, abs=1e-14)

    def test_gprime_matches_pb1_formula(self):
        gm = UpdateMap.from_params(ModelParams(3, 1.0, 0.85))
        for x in np.linspace(0, 1, 9):
            assert g_prime(gm, x) == pytest.approx(cubic_pb1_deriv(0.85, x), abs=1e-13)

    def test_second_derivative_constant_for_m2(self):
        gm = UpdateMap.from_params(ModelParams(2, 0.4, 0.9))
        for x in (0.0, 0.21, 0.5, 1.0):
            assert g_double_prime(gm, x) == pytest.approx(0.9**2 - 0.4**2, abs=1e-12)

    def test_second_derivative_zero_at_half_symmetric(self):
        gm = UpdateMap.from_params(ModelParams.symmetric(3, 0.8))
        assert g_double_prime(gm, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_second_derivative_positive_left_of_half(self):
        gm = UpdateMap.from_params(ModelParams.symmetric(4, 0.6))
        fd = second_central_diff(lambda x: g_eval(gm, x), 0.2, 1e-4)
        got = g_double_prime(gm, 0.2)
        assert got > 0.0
        assert got == pytest.approx(fd, abs=1e-5)

    @given(
        m=st.integers(min_value=2, max_value=8),
        p_b=probs,
        p_r=probs,
        x=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=150, deadline=None)
    def test_finite_difference_consistency(self, m, p_b, p_r, x):
        gm = UpdateMap.from_params(ModelParams(m, p_b, p_r))
        fd1 = central_diff(lambda t: g_eval(gm, t), x, 1e-6)
        assert g_prime(gm, x) == pytest.approx(fd1, abs=1e-5)
        fd2 = second_central_diff(lambda t: g_eval(gm, t), x, 1e-4)
        assert g_double_prime(gm, x) == pytest.approx(fd2, abs=1e-5)

    @given(m=st.integers(min_value=2, max_value=8), p=st.floats(min_value=0.01, max_value=1.0), x=unit)
    @settings(max_examples=150, deadline=None)
    def test_symmetric_monotone_and_reflected(self, m, p, x):
        gm = UpdateMap.from_params(ModelParams.symmetric(m, p))
        d = g_prime(gm, x)
        if p < 1.0 or 1e-4 < x < 1.0 - 1e-4:
            assert d > 0.0
        else:
            # at p = 1 the slope vanishes at the endpoints (m >= 3), and within
            # ~1e-103 of them the positive value underflows to 0.0
            assert d >= 0.0
        assert d == pytest.approx(g_prime(gm, 1.0 - x), abs=1e-12)

    def test_saturated_slope_stays_positive(self):
        # f(3) and f(4) both round to 1.0 here, so differencing the policy
        # values gave g'(1) = 0.0; exactly, g'(1) = 4 (f(4) - f(3)) = 6 q^2 (1 - q^2 / 2)
        q = 2.0**-53
        gm = UpdateMap.from_params(ModelParams.symmetric(4, 1.0 - q))
        assert gm.coeffs[3] == gm.coeffs[4] == 1.0
        assert g_prime(gm, 1.0) == pytest.approx(6.0 * q * q, rel=1e-14)
        assert g_prime(gm, 0.0) == pytest.approx(g_prime(gm, 1.0), rel=1e-14)

    def test_convex_concave_split(self):
        for m in range(2, 9):
            for p in np.arange(0.1, 1.01, 0.1):
                gm = UpdateMap.from_params(ModelParams.symmetric(m, float(p)))
                xs = np.linspace(0.0, 1.0, 201)
                dd = np.array([g_double_prime(gm, x) for x in xs])
                assert np.all(dd[xs <= 0.5] >= -1e-10)
                assert np.all(dd[xs >= 0.5] <= 1e-10)


class TestSlopeAtHalf:
    def test_agrees_with_bernstein_derivative(self):
        for m in range(2, 12):
            for p in (0.0, 0.13, 0.5, 0.86, 1.0):
                params = ModelParams.symmetric(m, p)
                gm = UpdateMap.from_params(params)
                assert g_prime_at_half(params) == pytest.approx(g_prime(gm, 0.5), abs=1e-12)

    def test_zero_at_p0(self):
        for m in (2, 3, 5, 8):
            assert g_prime_at_half(ModelParams.symmetric(m, 0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_p1(self):
        # at p = 1 the slope at 1/2 reduces to m/2^(m-1) * C(m-1, floor((m-1)/2))
        for m in range(2, 10):
            expected = m / 2 ** (m - 1) * math.comb(m - 1, (m - 1) // 2)
            assert g_prime_at_half(ModelParams.symmetric(m, 1.0)) == pytest.approx(
                expected, abs=1e-13
            )

    def test_unit_slope_at_m3_analytic_threshold(self):
        p_star = (2 + 2 ** (1 / 3) - 2 ** (2 / 3)) / 3
        assert g_prime_at_half(ModelParams.symmetric(3, p_star)) == pytest.approx(1.0, abs=1e-9)

    def test_m3_matches_threshold_cubic(self):
        # symmetric m=3 slope at 1/2 collapses to 3p - 3p^2 + 1.5p^3
        for p in np.linspace(0.0, 1.0, 21):
            expected = 3 * p - 3 * p**2 + 1.5 * p**3
            assert g_prime_at_half(ModelParams.symmetric(3, float(p))) == pytest.approx(
                expected, abs=1e-13
            )

    def test_m4_matches_threshold_quartic(self):
        for p in np.linspace(0.0, 1.0, 21):
            expected = 4 * p - 6 * p**2 + 6 * p**3 - 2.5 * p**4
            assert g_prime_at_half(ModelParams.symmetric(4, float(p))) == pytest.approx(
                expected, abs=1e-13
            )

    def test_strictly_increasing_in_p(self):
        for m in range(2, 9):
            values = [
                g_prime_at_half(ModelParams.symmetric(m, p)) for p in np.arange(0.01, 1.0, 0.01)
            ]
            assert np.all(np.diff(values) > 0.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            g_prime_at_half(ModelParams(3, 0.4, 0.5))


class TestDfDp:
    def test_single_term_case(self):
        # ell = 0 reduces to the derivative of f(0) = (1-p)^m / 2
        assert df_dp(3, 0, 0.5) == pytest.approx(-0.375, abs=1e-15)
        for p in (0.1, 0.4, 0.9):
            assert df_dp(3, 0, p) == pytest.approx(-1.5 * (1 - p) ** 2, abs=1e-14)

    def test_vanishes_at_p1_for_m2(self):
        assert df_dp(2, 0, 1.0) == 0.0
        assert df_dp(2, 0, 1.0 - 1e-9) == pytest.approx(0.0, abs=2e-9)

    def test_matches_finite_difference(self):
        h = 1e-6
        for m, ell, p in [(4, 1, 0.3), (5, 2, 0.62), (7, 3, 0.18), (6, 1, 0.85)]:
            fd = (
                policy_value(ModelParams.symmetric(m, p + h), ell)
                - policy_value(ModelParams.symmetric(m, p - h), ell)
            ) / (2 * h)
            assert df_dp(m, ell, p) == pytest.approx(fd, abs=1e-6)

    @given(
        m=st.integers(min_value=2, max_value=10),
        p=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_strictly_negative_inside(self, m, p, data):
        ell = data.draw(st.integers(min_value=0, max_value=(m - 1) // 2))
        assert df_dp(m, ell, p) < 0.0

    def test_ell_out_of_range(self):
        with pytest.raises(ValueError):
            df_dp(4, 2, 0.5)  # floor((4-1)/2) = 1
        with pytest.raises(ValueError):
            df_dp(3, -1, 0.5)
