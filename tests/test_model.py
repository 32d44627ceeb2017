import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemajority import model
from treemajority.dynamics import iterate_dynamics, solve_threshold
from treemajority.mc import SimConfig, estimate_g_one_step, independence_check
from treemajority.model import (
    MAX_CHILDREN,
    ModelParams,
    _value,
    bernstein_scaled,
    bernstein_weights,
    binomial_pmf,
    policy_differences,
    policy_table,
    policy_value,
)
from treemajority.update_map import df_dp

from conftest import enumerate_policy, mp_policy

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestModelParams:
    def test_valid(self):
        p = ModelParams(3, 0.2, 0.8)
        assert p.m == 3 and not p.is_symmetric

    def test_symmetric_constructor(self):
        p = ModelParams.symmetric(5, 0.4)
        assert p.p_b == p.p_r == 0.4 and p.is_symmetric

    @pytest.mark.parametrize("m", [0, 1, -2, MAX_CHILDREN + 1, 100])
    def test_m_out_of_range(self, m):
        with pytest.raises(ValueError):
            ModelParams(m, 0.5, 0.5)

    @pytest.mark.parametrize("pb,pr", [(-0.1, 0.5), (0.5, 1.5), (2.0, 0.0)])
    def test_prob_out_of_range(self, pb, pr):
        with pytest.raises(ValueError):
            ModelParams(3, pb, pr)


class TestBinomialPMF:
    def test_degenerate_n0(self):
        assert np.array(binomial_pmf(0, 0.7)).tolist() == [1.0]

    def test_fair_coin_n2(self):
        assert np.array(binomial_pmf(2, 0.5)).tolist() == [0.25, 0.5, 0.25]

    def test_n3_p07(self):
        expected = [0.3**3, 3 * 0.7 * 0.3**2, 3 * 0.7**2 * 0.3, 0.7**3]
        np.testing.assert_allclose(binomial_pmf(3, 0.7), expected, atol=1e-15)

    def test_exact_at_p0_p1(self):
        m0 = np.array(binomial_pmf(5, 0.0))
        assert m0[0] == 1.0 and m0[1:].sum() == 0.0
        m1 = np.array(binomial_pmf(5, 1.0))
        assert m1[-1] == 1.0 and m1[:-1].sum() == 0.0

    def test_no_underflow_near_one(self):
        mass = np.array(binomial_pmf(64, 1.0 - 1e-9))
        assert abs(mass.sum() - 1.0) < 1e-12
        assert mass[-1] > 0.999

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial_pmf(-1, 0.5)

    @given(n=st.integers(min_value=0, max_value=64), p=probs)
    @settings(max_examples=150)
    def test_mass_properties(self, n, p):
        mass = np.array(binomial_pmf(n, p))
        assert mass.size == n + 1
        assert np.all(mass >= 0.0) and np.all(mass <= 1.0)
        assert abs(mass.sum() - 1.0) <= 1e-12

    def test_largest_n_at_half_kept(self):
        # 0.5^1074 is the least subnormal, exactly, so the masses keep their accuracy
        assert abs(math.fsum(binomial_pmf(1074, 0.5)) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "n, p",
        [
            (1075, 0.5),  # 0.5^1075 rounds to 0: every mass would be 0
            (3000, 0.4),
            (3000, 0.6),  # mirrored: the start 0.4^3000 sits at the far end
            (1245, 0.45),  # 0.55^1245 is a subnormal with a bit or two: the masses would sum to 0.88
        ],
    )
    def test_underflow_refused(self, n, p):
        with pytest.raises(ValueError, match="underflow"):
            binomial_pmf(n, p)


def _weights_by_division(n: int, x: float) -> list:
    """``bernstein_weights`` as it was before its step factors were cached: each
    factor (n - k) / (k + 1) divided inside the loop."""
    flip = x > 0.5
    base = 1.0 - x if flip else x
    w = (1.0 - base) ** n
    ratio = base / (1.0 - base)
    out = [w]
    for k in range(n):
        w = w * ((n - k) / (k + 1)) * ratio
        out.append(w)
    if flip:
        out.reverse()
    return out


def _value_two_pass(a: list, b: list) -> float:
    """``model._value`` as it was before it took one pass: the win sum with a
    saturating index test, then the tie sum as a separate running dot product."""
    last = len(b) - 1
    win = below = 0.0
    for i, ai in enumerate(a):
        win += ai * below
        if i <= last:
            below += b[i]
    tie = 0.0
    for ai, bi in zip(a, b):
        tie += ai * bi
    return min(max(win + 0.5 * tie, 0.0), 1.0)


def _hex(values: list) -> list:
    return [v.hex() for v in values]


class TestKernelParity:
    """The map-build kernels give the bits of the loops they replaced."""

    EDGES = [0.0, 0.5, 1.0, 1e-300, 1.0 - 2.0**-53]
    points = st.one_of(st.sampled_from(EDGES), probs)

    @pytest.mark.parametrize("x", EDGES)
    def test_weights_at_edge_points(self, x):
        for n in range(MAX_CHILDREN + 1):
            assert _hex(bernstein_weights(n, x)) == _hex(_weights_by_division(n, x))

    @given(n=st.integers(min_value=0, max_value=MAX_CHILDREN), x=points)
    @settings(max_examples=300, deadline=None)
    def test_weights_match_division(self, n, x):
        assert _hex(bernstein_weights(n, x)) == _hex(_weights_by_division(n, x))

    @given(n=st.integers(min_value=MAX_CHILDREN + 1, max_value=400), x=points)
    @settings(max_examples=50, deadline=None)
    def test_uncached_degrees_match_division(self, n, x):
        assert _hex(bernstein_weights(n, x)) == _hex(_weights_by_division(n, x))

    def test_cache_stops_at_max_children(self):
        bernstein_weights(MAX_CHILDREN, 0.3)
        before = model._step_factors.cache_info()
        binomial_pmf(500, 0.3)
        bernstein_weights(MAX_CHILDREN + 1, 0.3)
        after = model._step_factors.cache_info()
        assert after.currsize == before.currsize and after.misses == before.misses

    @given(
        la=st.integers(min_value=0, max_value=MAX_CHILDREN),
        lb=st.integers(min_value=0, max_value=MAX_CHILDREN),
        x=points,
        y=points,
    )
    @settings(max_examples=300, deadline=None)
    def test_value_matches_two_pass_on_rows(self, la, lb, x, y):
        a, b = bernstein_weights(la, x), bernstein_weights(lb, y)
        assert _value(a, b).hex() == _value_two_pass(a, b).hex()

    masses = st.lists(
        st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1.0]), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=MAX_CHILDREN + 1,
    )

    @given(a=masses, b=masses)
    @settings(max_examples=300, deadline=None)
    def test_value_matches_two_pass(self, a, b):
        assert _value(a, b).hex() == _value_two_pass(a, b).hex()

    @pytest.mark.parametrize("la, lb", [(1, 65), (65, 1), (40, 3), (3, 40), (33, 32), (32, 33)])
    def test_value_with_one_row_longer(self, la, lb):
        a, b = bernstein_weights(la - 1, 0.37), bernstein_weights(lb - 1, 0.61)
        assert _value(a, b).hex() == _value_two_pass(a, b).hex()


def _scaled_by_integers(c: list) -> list:
    """c[k] C(n,k), each an exact ratio of integers rounded once by Python's integer division."""
    n = len(c) - 1
    out = []
    for k, ck in enumerate(c):
        num, den = ck.as_integer_ratio()
        out.append(num * math.comb(n, k) / den)
    return out


class TestBernsteinScaled:
    # subnormals down to 5e-324 are among the doubles; 1e280 C(64,32) stays finite
    coefficients = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022)]),
        st.floats(min_value=-1e280, max_value=1e280, allow_nan=False),
    )

    @pytest.mark.parametrize("n", range(MAX_CHILDREN + 1))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_float_products_match_integer_path(self, n, data):
        # a float product where C(n,k) is exact as a double, the integer path
        # elsewhere: both round the same exact real once, so the bits agree
        c = data.draw(st.lists(self.coefficients, min_size=n + 1, max_size=n + 1))
        scaled, reverse = bernstein_scaled(c)
        assert [v.hex() for v in scaled] == [v.hex() for v in _scaled_by_integers(c)]
        assert reverse == scaled[::-1]


class TestPolicyValue:
    def test_m2_symmetric_p1_middle(self):
        assert policy_value(ModelParams(2, 1.0, 1.0), 1) == pytest.approx(0.5, abs=1e-15)

    def test_m3_pb1_upper_entries_one(self):
        for p_r in (0.0, 0.3, 0.9):
            params = ModelParams(3, 1.0, p_r)
            assert policy_value(params, 2) == 1.0
            assert policy_value(params, 3) == 1.0

    def test_even_split_is_half(self):
        for p in (0.2, 0.5, 0.9):
            assert policy_value(ModelParams.symmetric(4, p), 2) == pytest.approx(0.5, abs=1e-15)

    def test_against_enumeration_spot(self):
        params = ModelParams(5, 0.6, 0.3)
        expected = enumerate_policy(5, 0.6, 0.3, 2)
        assert policy_value(params, 2) == pytest.approx(expected, abs=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            policy_value(ModelParams(3, 0.5, 0.5), 4)
        with pytest.raises(ValueError):
            policy_value(ModelParams(3, 0.5, 0.5), -1)

    @given(
        m=st.integers(min_value=2, max_value=6),
        p_b=st.sampled_from([0.0, 0.17, 0.5, 0.83, 1.0]),
        p_r=st.sampled_from([0.0, 0.31, 0.5, 0.72, 1.0]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_enumeration(self, m, p_b, p_r, data):
        k = data.draw(st.integers(min_value=0, max_value=m))
        got = policy_value(ModelParams(m, p_b, p_r), k)
        assert got == pytest.approx(enumerate_policy(m, p_b, p_r, k), abs=1e-12)

    def test_pb1_degeneracy(self):
        # with p_b = 1 the B-success count is exactly k
        for m, k, p_r in [(4, 1, 0.6), (5, 2, 0.35), (6, 3, 0.8)]:
            b = np.array(binomial_pmf(m - k, p_r))
            expected = b[:k].sum() + 0.5 * (b[k] if k <= m - k else 0.0)
            got = policy_value(ModelParams(m, 1.0, p_r), k)
            assert got == pytest.approx(expected, abs=1e-13)


class TestPolicyTable:
    def test_m2_p1(self):
        np.testing.assert_allclose(
            policy_table(ModelParams(2, 1.0, 1.0)), [0.0, 0.5, 1.0], atol=1e-15
        )

    def test_m3_pb1_pr04(self):
        np.testing.assert_allclose(
            policy_table(ModelParams(3, 1.0, 0.4)), [0.108, 0.6, 1.0, 1.0], atol=1e-15
        )

    def test_m4_p0_all_half(self):
        np.testing.assert_allclose(
            policy_table(ModelParams.symmetric(4, 0.0)), np.full(5, 0.5), atol=0
        )

    @given(m=st.integers(min_value=2, max_value=10), p_b=probs, p_r=probs)
    @settings(max_examples=120, deadline=None)
    def test_boundary_identities(self, m, p_b, p_r):
        values = np.array(policy_table(ModelParams(m, p_b, p_r)))
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        assert values[0] == pytest.approx(0.5 * (1.0 - p_r) ** m, abs=1e-12)
        assert values[-1] == pytest.approx(1.0 - 0.5 * (1.0 - p_b) ** m, abs=1e-12)

    @given(m=st.integers(min_value=2, max_value=12), p=probs)
    @settings(max_examples=120, deadline=None)
    def test_symmetry_criterion(self, m, p):
        values = np.array(policy_table(ModelParams.symmetric(m, p)))
        np.testing.assert_allclose(values + values[::-1], 1.0, atol=1e-12)


class TestPolicyTableAccuracy:
    """At m = 16, 32 and the cap, the table is within 1e-14 of the 50-digit raw rule."""

    @pytest.mark.parametrize("m", [16, 32, MAX_CHILDREN])
    @pytest.mark.parametrize("p", [0.01, "p(m)", 0.3, 0.97])
    def test_within_1e14_of_oracle(self, m, p):
        if p == "p(m)":
            p = solve_threshold(m).p_threshold
        table = policy_table(ModelParams.symmetric(m, p))
        errors = [abs(got - exact) for got, exact in zip(table, mp_policy(m, p))]
        assert max(errors) <= 1e-14


class TestPolicyDifferences:
    @given(m=st.integers(min_value=2, max_value=7), p_b=probs, p_r=probs)
    @settings(max_examples=80, deadline=None)
    def test_matches_enumeration(self, m, p_b, p_r):
        exact = [enumerate_policy(m, p_b, p_r, k) for k in range(m + 1)]
        steps = policy_differences(ModelParams(m, p_b, p_r))
        assert len(steps) == m
        for k, step in enumerate(steps):
            assert step >= 0.0
            assert step == pytest.approx(exact[k + 1] - exact[k], abs=1e-12)

    @given(m=st.integers(min_value=2, max_value=64), p_b=probs, p_r=probs)
    @settings(max_examples=60, deadline=None)
    def test_matches_table_differences(self, m, p_b, p_r):
        params = ModelParams(m, p_b, p_r)
        steps = policy_differences(params)
        np.testing.assert_allclose(steps, np.diff(policy_table(params)), rtol=0, atol=1e-14)



def _config(**changes) -> SimConfig:
    fields = dict(params=ModelParams(3, 0.5, 0.5), depth=2, horizon=1, pi_0=0.5, seed=1,
                  replications=100)
    return SimConfig(**{**fields, **changes})


class TestIntegerArguments:
    """Every integer argument is refused unless integral, never truncated."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ModelParams(3.5, 0.5, 0.5),
            lambda: ModelParams(float("nan"), 0.5, 0.5),
            lambda: ModelParams("3", 0.5, 0.5),
            lambda: policy_value(ModelParams(3, 0.5, 0.5), 1.5),
            lambda: binomial_pmf(2.5, 0.3),
            lambda: solve_threshold(3.7),
            lambda: iterate_dynamics(ModelParams(3, 0.5, 0.5), 0.3, max_steps=2.5),
            lambda: df_dp(4.9, 1, 0.5),
            lambda: df_dp(4, 1.7, 0.5),
            lambda: estimate_g_one_step(ModelParams(3, 0.5, 0.5), 0.3, 2.9, 1),
            lambda: independence_check(_config(), 1.7, 10),
            lambda: independence_check(_config(), 1, 2.5),
            lambda: _config(depth=2.5),
            lambda: _config(horizon=1.5),
            lambda: _config(replications=100.5),
        ],
    )
    def test_fractional_refused(self, call):
        with pytest.raises(ValueError, match="must be an integer"):
            call()

    def test_integral_values_coerced(self):
        assert type(ModelParams(np.int64(3), 0.5, 0.5).m) is int
        assert solve_threshold(np.int64(3)) == solve_threshold(3.0) == solve_threshold(3)
        cfg = _config(depth=np.int32(2), horizon=1.0, replications=100.0)
        assert (cfg.depth, cfg.horizon, cfg.replications) == (2, 1, 100)
        assert all(type(v) is int for v in (cfg.depth, cfg.horizon, cfg.replications))
