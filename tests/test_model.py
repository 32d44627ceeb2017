import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemajority.dynamics import iterate_dynamics, solve_threshold
from treemajority.mc import SimConfig, estimate_g_one_step, independence_check
from treemajority.model import (
    MAX_CHILDREN,
    ModelParams,
    binomial_pmf,
    policy_differences,
    policy_table,
    policy_value,
)
from treemajority.update_map import df_dp

from conftest import enumerate_policy

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
