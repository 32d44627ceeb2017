import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64DXSM

import treemajority
from treemajority import mc
from treemajority.mc import SimConfig, estimate_g_one_step, independence_check, simulate_tree
from treemajority.model import ModelParams
from treemajority.update_map import UpdateMap, g_eval

from conftest import analytic_marginals


def sym_config(m=3, p=0.5, depth=5, horizon=3, pi_0=0.5, seed=123, reps=200):
    return SimConfig(
        params=ModelParams.symmetric(m, p),
        depth=depth,
        horizon=horizon,
        pi_0=pi_0,
        seed=seed,
        replications=reps,
    )


class TestPackageNames:
    """The package resolves its simulator names from ``mc`` on each access."""

    def test_simulator_names_are_mcs_current_bindings(self, monkeypatch):
        for name in treemajority._MC_NAMES:
            assert getattr(treemajority, name) is getattr(mc, name)
            sentinel = object()
            monkeypatch.setattr(mc, name, sentinel)
            assert getattr(treemajority, name) is sentinel

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError):
            treemajority.no_such_name

    def test_every_public_name_resolves(self):
        for name in treemajority.__all__:
            assert getattr(treemajority, name) is not None, name


class TestSimConfig:
    def test_horizon_must_fit_depth(self):
        with pytest.raises(ValueError):
            sym_config(depth=4, horizon=5)

    def test_leaf_guard(self):
        with pytest.raises(ValueError):
            SimConfig(
                params=ModelParams(64, 0.5, 0.5),
                depth=5,
                horizon=1,
                pi_0=0.5,
                seed=1,
                replications=1,
            )

    def test_seed_range(self):
        with pytest.raises(ValueError):
            sym_config(seed=-1)
        with pytest.raises(ValueError):
            sym_config(seed=2**64)

    def test_fractional_seed_refused(self):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
            sym_config(seed=1.5)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), 7.0])
    def test_integral_seed_coerced(self, seed):
        config = sym_config(seed=seed)
        assert config.seed == 7 and type(config.seed) is int

    def test_zero_horizon_allowed(self):
        assert sym_config(horizon=0).horizon == 0

    def test_positions_stay_inside_a_stream(self):
        # replication r's initial states are positions r*V .. (r+1)*V - 1 of one
        # stream of 2**64 words; only the config is built, nothing is drawn
        V = 1 + 4 + 16  # m = 4, D = 2
        assert sym_config(m=4, depth=2, horizon=1, reps=(2**64 - 1) // V).replications * V < 2**64
        with pytest.raises(ValueError, match=r"2\*\*64"):
            sym_config(m=4, depth=2, horizon=1, reps=(2**64 - 1) // V + 1)


class TestOneStepEstimator:
    def test_pb1_x1_exact_one(self):
        est, half = estimate_g_one_step(ModelParams(4, 1.0, 0.6), 1.0, 10**4, seed=5)
        assert est == 1.0 and half == 0.0

    def test_pr0_x0_near_half(self):
        est, _ = estimate_g_one_step(ModelParams(4, 0.6, 0.0), 0.0, 10**4, seed=5)
        # all counts tie at 0, so the coin decides; 4-sigma band around 1/2
        assert abs(est - 0.5) <= 4 * 0.5 / math.sqrt(10**4)

    @pytest.mark.parametrize(
        "params,x,seed",
        [
            (ModelParams(4, 0.7, 0.4), 0.3, 1),
            (ModelParams(3, 1.0, 0.5), 0.6, 2),
            (ModelParams.symmetric(5, 0.8), 0.25, 3),
        ],
    )
    def test_matches_analytic_map(self, params, x, seed):
        n = 10**5
        est, _ = estimate_g_one_step(params, x, n, seed=seed)
        g = g_eval(UpdateMap.from_params(params), x)
        se = math.sqrt(g * (1.0 - g) / n)
        assert abs(est - g) <= 4 * se

    def test_reproducible(self):
        a = estimate_g_one_step(ModelParams(3, 0.4, 0.7), 0.4, 10**4, seed=99)
        b = estimate_g_one_step(ModelParams(3, 0.4, 0.7), 0.4, 10**4, seed=99)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_g_one_step(ModelParams(3, 0.5, 0.5), 1.2, 100, seed=1)
        with pytest.raises(ValueError):
            estimate_g_one_step(ModelParams(3, 0.5, 0.5), 0.5, 0, seed=1)

    @pytest.mark.parametrize("m,samples", [(4, 2**62), (3, 2**64 // 3 + 1), (64, 2**58)])
    def test_positions_stay_inside_a_stream(self, monkeypatch, m, samples):
        # trial i's children read positions i*m .. i*m + m - 1 of a stream of
        # 2**64 words; the estimator refuses before it opens any stream
        monkeypatch.setattr(mc, "_Streams", None)
        with pytest.raises(ValueError, match=r"2\*\*64"):
            estimate_g_one_step(ModelParams(m, 0.5, 0.5), 0.3, samples, seed=1)

    def test_fractional_seed_refused(self):
        # truncating 1.5 would silently replay the seed-1 stream
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
            estimate_g_one_step(ModelParams(3, 0.5, 0.5), 0.3, 1000, 1.5)

    @pytest.mark.parametrize("seed", [np.int64(7), 7.0])
    def test_integral_seed_coerced(self, seed):
        params = ModelParams(3, 0.5, 0.5)
        assert estimate_g_one_step(params, 0.3, 1000, seed) == estimate_g_one_step(params, 0.3, 1000, 7)


class TestSimulateTree:
    def test_zero_horizon_recovers_initial(self):
        res = simulate_tree(sym_config(horizon=0, pi_0=0.3, reps=500))
        assert abs(res.pi_hat[0] - 0.3) <= 4 * math.sqrt(0.3 * 0.7 / 500)

    def test_m2_p1_preserves_marginal(self):
        cfg = SimConfig(
            params=ModelParams.symmetric(2, 1.0),
            depth=6,
            horizon=6,
            pi_0=0.5,
            seed=31,
            replications=400,
        )
        res = simulate_tree(cfg)
        band = 4 * math.sqrt(0.25 / 400)
        assert np.all(np.abs(res.pi_hat - 0.5) <= band)

    def test_marginals_track_recursion(self):
        cfg = sym_config(m=3, p=0.8, depth=6, horizon=6, pi_0=0.3, seed=17, reps=600)
        res = simulate_tree(cfg)
        pis = analytic_marginals(cfg.params, cfg.pi_0, cfg.horizon)
        for t in range(cfg.horizon + 1):
            se = math.sqrt(max(pis[t] * (1 - pis[t]), 1e-12) / cfg.replications)
            assert abs(res.pi_hat[t] - pis[t]) <= 4.5 * se, f"t={t}"

    def test_deterministic(self):
        cfg = sym_config(seed=777, reps=50)
        r1, r2 = simulate_tree(cfg), simulate_tree(cfg)
        assert np.array_equal(r1.pi_hat, r2.pi_hat)
        assert np.array_equal(r1.level_averages, r2.level_averages)
        assert (
            r1.pair_correlation == r2.pair_correlation
            or (np.isnan(r1.pair_correlation) and np.isnan(r2.pair_correlation))
        )

    def test_pair_correlation_near_zero(self):
        cfg = sym_config(m=3, p=0.5, depth=5, horizon=3, pi_0=0.5, seed=123, reps=500)
        res = simulate_tree(cfg)
        assert not math.isnan(res.pair_correlation)
        assert res.pair_correlation <= 4 / math.sqrt(500)

    def test_result_shapes(self):
        cfg = sym_config(depth=4, horizon=2, reps=120)
        res = simulate_tree(cfg)
        assert res.pi_hat.shape == (3,)
        assert res.ci_half_width.shape == (3,)
        assert res.level_averages.shape == (5,)
        assert res.replications_used == 120
        assert np.all((res.pi_hat >= 0) & (res.pi_hat <= 1))


class TestIndependenceCheck:
    def test_initial_states_uncorrelated(self):
        cfg = sym_config(m=3, p=0.5, depth=4, horizon=0, pi_0=0.5, seed=21, reps=300)
        corr = independence_check(cfg, level=2, pairs=12)
        assert corr <= 4 / math.sqrt(300)

    def test_evolved_states_uncorrelated(self):
        cfg = sym_config(m=3, p=0.5, depth=6, horizon=2, pi_0=0.5, seed=22, reps=400)
        corr = independence_check(cfg, level=3, pairs=15)
        assert corr <= 4 / math.sqrt(400)

    def test_validity_window_enforced(self):
        cfg = sym_config(depth=5, horizon=3)
        with pytest.raises(ValueError):
            independence_check(cfg, level=4, pairs=5)  # window allows t <= 1

    def test_replication_floor(self):
        cfg = sym_config(reps=50)
        with pytest.raises(ValueError):
            independence_check(cfg, level=1, pairs=3)

    def test_single_vertex_level_rejected(self):
        cfg = sym_config(depth=5, horizon=0)
        with pytest.raises(ValueError):
            independence_check(cfg, level=0, pairs=1)

    @pytest.mark.parametrize(
        "m, depth, horizon, reps", [(3, 4, 2, 200), (4, 3, 1, 150), (2, 5, 3, 300)]
    )
    def test_all_pairs_at_level_one_match_simulate(self, m, depth, horizon, reps):
        # asking for every pair takes them all, unsampled; at level 1 they are
        # the root's children, which simulate_tree correlates at the same time
        cfg = sym_config(m=m, p=0.7, depth=depth, horizon=horizon, pi_0=0.4, reps=reps)
        corr = independence_check(cfg, level=1, pairs=m * (m - 1) // 2)
        assert corr == simulate_tree(cfg).pair_correlation


class TestStreamLayoutGolden:
    """Exact outputs pinned to the draw layout, version ``LAYOUT``.

    Stream (seed, purpose, t) is the 2**64 words of PCG64DXSM(seed) from
    word ((purpose << 32) | t) << 64.  In step t each replication owns
    m * P_t positions of the outcome stream (purpose 0), for levels 1..D-t,
    and P_t positions of the coin stream (purpose 8), for levels 0..D-t-1,
    P_t the parents the step updates; one 16-bit head per variable, with
    refinement words in stream purpose + 4.  Level means are exact counts
    over R * m**d.  Any change to that layout, or to which draw feeds which
    vertex, moves these bits and must bump ``mc.STREAM_LAYOUT``.  The values
    come from the full-precision replay below (``_reference_outputs``,
    ``_all_pairs_correlation`` and the pairs drawn from purpose 3), not from
    ``mc``.
    """

    LAYOUT = 2

    CASES = {
        "horizon_below_depth": (
            dict(params=ModelParams(3, 0.7, 0.4), depth=5, horizon=3, pi_0=0.4, seed=2024, replications=60),
            [0.48333333333333334, 0.5666666666666667, 0.65, 0.6666666666666666],
            [
                0.6666666666666666,
                0.8,
                0.7666666666666667,
                0.6604938271604939,
                0.5368312757201646,
                0.39814814814814814,
            ],
            0.14159484396097866,
        ),
        "horizon_zero": (
            dict(params=ModelParams(4, 0.6, 0.5), depth=3, horizon=0, pi_0=0.35, seed=7, replications=40),
            [0.175],
            [0.175, 0.3, 0.3703125, 0.360546875],
            0.3078139691063839,
        ),
        "binary": (
            dict(params=ModelParams(2, 0.9, 0.6), depth=6, horizon=6, pi_0=0.5, seed=99, replications=50),
            [0.6, 0.58, 0.74, 0.8, 0.76, 0.78, 0.9],
            [0.9, 0.89, 0.81, 0.745, 0.66, 0.585, 0.486875],
            0.11945220005766038,
        ),
        "depth_one": (
            dict(params=ModelParams(5, 0.8, 0.3), depth=1, horizon=1, pi_0=0.6, seed=3, replications=80),
            [0.55, 0.8625],
            [0.8625, 0.595],
            0.2584427052941764,
        ),
    }

    def test_layout_version(self):
        assert mc.STREAM_LAYOUT == self.LAYOUT

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_simulate_tree_bits(self, name):
        kwargs, pi_hat, level_averages, pair_correlation = self.CASES[name]
        res = simulate_tree(SimConfig(**kwargs))
        assert res.pi_hat.tolist() == pi_hat
        assert res.level_averages.tolist() == level_averages
        assert res.pair_correlation == pair_correlation

    def test_independence_check_bits_at_horizon_zero(self):
        cfg = SimConfig(ModelParams.symmetric(3, 0.5), depth=4, horizon=0, pi_0=0.5, seed=21, replications=100)
        assert independence_check(cfg, level=2, pairs=12) == 0.3005414623878228

    def test_independence_check_bits_after_steps(self):
        cfg = SimConfig(ModelParams(3, 0.8, 0.6), depth=6, horizon=2, pi_0=0.45, seed=22, replications=100)
        assert independence_check(cfg, level=3, pairs=15) == 0.26518127698376337


# The per-replication replay the grouped simulator replaced, kept as an
# independent oracle at full precision.  It opens one fresh generator per
# stream, PCG64DXSM(seed) advanced to word ((purpose << 32) | time) << 64,
# and reads every variable of every replication eagerly from the stream's
# start: the variable at position i takes the i-th uint16 of its
# stream's raw words as its head and the i-th raw word of the refinement
# stream as its low bits, and succeeds at rate p iff the 53-bit
# k = head * 2**37 + (word >> 27) is below ceil(p * 2**53), computed in exact
# rationals.  Stream purposes: 0 for step outcomes, 8 for step coins, 1 for
# initial states, 2 for the one-step estimator (3 draws independence pairs);
# purpose + 4 is a purpose's refinement stream.  Replication r's initial
# states are positions r*V + v of stream (1, 0), V the vertex count.  Step t
# updates the P_t = 1 + m + ... + m**(D-t-1) parents of levels 0..D-t-1:
# replication r's outcomes of levels 1..D-t are positions r*m*P_t + i of
# stream (0, t), and its coins of levels 0..D-t-1 positions r*P_t + i of
# stream (8, t), both in breadth-first order.  One-step trial i reads its
# children's states at positions i*m + k of stream (2, 0), their outcomes at
# positions i*m + k of stream (2, 1) and its coin at position i of stream
# (2, 2).
_STEP, _INIT, _ONESTEP, _PAIRS, _REFINE, _COIN = 0, 1, 2, 3, 4, 8


def _stream(seed: int, purpose: int, time: int = 0) -> PCG64DXSM:
    bitgen = PCG64DXSM(seed)
    bitgen.advance(((purpose << 32) | time) << 64)
    return bitgen


def _stream_heads(seed, purpose, time, n):
    return _stream(seed, purpose, time).random_raw((n + 3) // 4).view(np.uint16)[:n]


def _draws(seed: int, purpose: int, time: int, n: int) -> np.ndarray:
    """The 53-bit k of a stream's first n variables."""
    heads = _stream_heads(seed, purpose, time, n).astype(np.uint64)
    low = _stream(seed, purpose + _REFINE, time).random_raw(n) >> np.uint64(27)
    return heads << np.uint64(37) | low


def _onestep_draws(seed: int, samples: int, m: int):
    """The 53-bit k of each one-step trial's children's states, their outcomes and its coin."""
    k_child, k_x = (_draws(seed, _ONESTEP, kind, samples * m).reshape(samples, m) for kind in (0, 1))
    return k_child, k_x, _draws(seed, _ONESTEP, 2, samples)


def _below(k: np.ndarray, p: float) -> np.ndarray:
    """k < ceil(p * 2**53): a Bernoulli(p) outcome with P = ceil(p * 2**53) / 2**53."""
    return k < math.ceil(Fraction(p) * 2**53)


def _reference_evolve(cfg: SimConfig, k_init: np.ndarray, k_steps: list[tuple[np.ndarray, np.ndarray]]):
    """One replication from its initial draws and its outcome and coin draws of each step."""
    m, p_b, p_r = cfg.params.m, cfg.params.p_b, cfg.params.p_r
    D = cfg.depth
    sizes = [m**d for d in range(D + 1)]

    states = [_below(k, cfg.pi_0) for k in np.split(k_init, np.cumsum(sizes)[:-1])]
    root_traj = [states[0][0]]
    for t, (k_outcomes, k_coins) in enumerate(k_steps):
        k_x = np.split(k_outcomes, np.cumsum(sizes[1 : D - t]))
        k_y = np.split(k_coins, np.cumsum(sizes[: D - t - 1]))
        for d in range(D - t):
            child = states[d + 1].reshape(-1, m)
            k_child = k_x[d].reshape(-1, m)
            success = np.where(child, _below(k_child, p_b), _below(k_child, p_r))
            n_b = (success & child).sum(axis=1)
            n_r = (success & ~child).sum(axis=1)
            states[d] = (n_b > n_r) | ((n_b == n_r) & _below(k_y[d], 0.5))
        root_traj.append(states[0][0])

    return np.array(root_traj), states


def _reference_outputs(cfg: SimConfig):
    """Each replication's replay, pi_hat, and level_averages as exact counts over R * m**d."""
    m, D, R = cfg.params.m, cfg.depth, cfg.replications
    starts = [sum(m**j for j in range(d)) for d in range(D + 2)]
    k_init = _draws(cfg.seed, _INIT, 0, R * starts[D + 1]).reshape(R, -1)
    k_steps = [
        (
            _draws(cfg.seed, _STEP, t, R * m * starts[D - t]).reshape(R, -1),
            _draws(cfg.seed, _COIN, t, R * starts[D - t]).reshape(R, -1),
        )
        for t in range(cfg.horizon)
    ]
    runs = [
        _reference_evolve(cfg, k_init[r], [(k_x[r], k_y[r]) for k_x, k_y in k_steps]) for r in range(R)
    ]
    counts = [sum(int(states[d].sum()) for _, states in runs) for d in range(D + 1)]
    level_means = np.array([c / (R * m**d) for d, c in enumerate(counts)])
    roots = np.array([root for root, _ in runs])
    return runs, roots.mean(axis=0), level_means


def _replay_config(m, depth, horizon, replications=None):
    rng = np.random.default_rng([m, depth, horizon])
    if replications is None:
        replications = min(41, max(1, 20_000 // m**depth)) | 1
    return SimConfig(
        params=ModelParams(m, float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9))),
        depth=depth,
        horizon=horizon,
        pi_0=float(rng.uniform(0.1, 0.9)),
        seed=int(rng.integers(2**63)),
        replications=replications,
    )


def _assert_replays_reference(cfg: SimConfig) -> None:
    runs, pi_hat, level_means = _reference_outputs(cfg)
    for reps in mc._groups(cfg):
        roots, states = mc._evolve(cfg, reps)
        for i, rep in enumerate(reps):
            ref_root, ref_states = runs[rep]
            assert np.array_equal(roots[i], ref_root), (cfg, rep)
            for d, ref in enumerate(ref_states):
                assert np.array_equal(states[d][i], ref), (cfg, rep, d)
    res = simulate_tree(cfg)
    assert res.pi_hat.tolist() == pi_hat.tolist()
    assert res.level_averages.tolist() == level_means.tolist()
    children = np.array([states[1] for _, states in runs])
    ref_corr = mc._max_abs_correlation(children)
    assert res.pair_correlation == ref_corr or (
        math.isnan(res.pair_correlation) and math.isnan(ref_corr)
    )


class TestGroupedReplay:
    """The grouped simulator reproduces the per-replication replay bit for bit."""

    @pytest.mark.parametrize("depth", range(1, 8))
    @pytest.mark.parametrize("m", range(2, 6))
    def test_matches_reference_replay(self, m, depth):
        for horizon in sorted({0, depth // 2, depth}):
            _assert_replays_reference(_replay_config(m, depth, horizon))

    def test_many_groups(self):
        # m = 3 makes the level means inexact in binary, so a sum that
        # depended on the grouping would show in the bits
        m, depth = 3, 8
        cfg = _replay_config(m, depth, depth, replications=41)
        # a replication's step-0 draws: m + 1 variables for each of its 1 + m + ... + m**(D-1) parents
        per_rep = (m + 1) * sum(m**d for d in range(depth))
        group = max(1, mc._UNIFORM_BYTES // (8 * per_rep))
        assert math.ceil(cfg.replications / group) >= 3
        assert [len(reps) for reps in mc._groups(cfg)][0] == group
        _assert_replays_reference(cfg)

    # budgets that give one-parent windows, windows that split a level and
    # windows that span several levels
    @pytest.mark.parametrize("budget", [8, 200, 4096])
    @pytest.mark.parametrize("m", range(2, 6))
    def test_windows_match_reference_replay(self, monkeypatch, budget, m):
        monkeypatch.setattr(mc, "_UNIFORM_BYTES", budget)
        for depth in range(1, 7):
            for horizon in sorted({0, depth // 2, depth}):
                _assert_replays_reference(_replay_config(m, depth, horizon, replications=3))

    # every shape of the lead's doubling schedule: odd and even m, one set
    # bit (8, 64) and many (7, 47); budgets of the default, one-parent
    # windows and five-parent windows that split a level
    @pytest.mark.parametrize("budget", [None, 8, 40])
    @pytest.mark.parametrize("m,max_depth", [(6, 4), (7, 3), (8, 3), (18, 2), (47, 2), (64, 2)])
    def test_large_m_matches_reference_replay(self, monkeypatch, budget, m, max_depth):
        if budget is not None:
            monkeypatch.setattr(mc, "_UNIFORM_BYTES", budget * (m + 1))
        for depth in range(1, max_depth + 1):
            for horizon in sorted({0, depth // 2, depth}):
                reps = 3 if budget else None
                _assert_replays_reference(_replay_config(m, depth, horizon, replications=reps))

    def test_independence_check_ignores_the_budget(self, monkeypatch):
        cfg = sym_config(m=3, p=0.7, depth=5, horizon=3, reps=120)
        expected = independence_check(cfg, level=2, pairs=20)
        monkeypatch.setattr(mc, "_UNIFORM_BYTES", 200)
        assert _same_float(independence_check(cfg, level=2, pairs=20), expected)

    def test_uniforms_stay_within_the_budget(self):
        # one replication of m = 4, D = 10: its step-0 draws alone take 14 MB
        cfg = sym_config(m=4, p=0.6, depth=10, horizon=10, reps=1)
        state_bytes = sum(4**d for d in range(11))
        tracemalloc.start()
        try:
            simulate_tree(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * mc._UNIFORM_BYTES + state_bytes


class TestStreamJump:
    # the largest seed, purpose (the coins' refinement stream) and time
    @pytest.mark.parametrize("seed,purpose,time", [(5, 0, 3), (2**64 - 1, _COIN + _REFINE, 2**32 - 1)])
    def test_at_matches_one_long_draw(self, seed, purpose, time):
        # heads from every position, most of them inside a word
        long = _stream_heads(seed, purpose, time, 320)
        words = _stream(seed, purpose, time).random_raw(60)
        streams = mc._Streams(seed)
        for n in range(40):
            for target in range(n, n + 60):
                streams.heads(purpose, time, n, 3)
                got = streams.heads(purpose, time, 3 * target, 17)
                assert np.array_equal(got, long[3 * target : 3 * target + 17]), (n, target)
                assert streams.word(purpose, time, target % 60) == int(words[target % 60])

    @pytest.mark.parametrize("size", [1, 7, 16, 37])
    def test_rows_match_one_long_draw(self, size):
        # replication r's heads are r*size .. (r+1)*size - 1, at and off word boundaries
        long = _stream_heads(9, 0, 2, 12 * size)
        streams = mc._Streams(9)
        for first in range(4):
            for count in range(1, 9):
                got = streams.rows(0, 2, range(first, first + count), size, 0, size)
                want = long[first * size : (first + count) * size].reshape(count, size)
                assert np.array_equal(got, want), (first, count)
            for pos in range(size):
                for n in range(1, size - pos + 1):
                    got = streams.rows(0, 2, range(first, first + 1), size, pos, n)
                    assert np.array_equal(got, long[None, first * size + pos : first * size + pos + n])
                    # part of each row of a group would read across another replication's heads
                    if n < size:
                        with pytest.raises(ValueError):
                            streams.rows(0, 2, range(first, first + 2), size, pos, n)


    def test_reads_in_any_order_match_the_replay(self):
        # backward and forward jumps from wherever the last read left the
        # generator, across purposes, times and refinement streams
        seed, size = 2**64 - 1, 50
        keys = [(_STEP, 0), (_STEP, 5), (_INIT, 0), (_COIN, 2**32 - 1), (_STEP + _REFINE, 5), (_COIN + _REFINE, 0)]
        heads = {key: _stream_heads(seed, *key, 8 * size) for key in keys}
        words = {key: _stream(seed, *key).random_raw(2 * size) for key in keys}
        rng = np.random.default_rng(37)
        streams = mc._Streams(seed)
        for _ in range(300):
            key = keys[rng.integers(len(keys))]
            kind = rng.integers(3)
            if kind == 0:
                pos, n = (int(v) for v in rng.integers(0, 4 * size, 2))
                assert np.array_equal(streams.heads(*key, pos, n), heads[key][pos : pos + n])
            elif kind == 1:
                first, count = int(rng.integers(0, 4)), int(rng.integers(1, 5))
                got = streams.rows(*key, range(first, first + count), size, 0, size)
                assert np.array_equal(got.ravel(), heads[key][first * size : (first + count) * size])
            else:
                pos = int(rng.integers(0, 2 * size))
                assert streams.word(*key, pos) == int(words[key][pos])


class TestStreamPurposes:
    def test_purposes_never_collide(self, monkeypatch):
        # every purpose the estimators draw from, each with its refinement
        # stream, and the pairs stream are distinct purposes
        drawn, draw = set(), mc._Streams.draw

        def recorded(self, purpose, *args, **kwargs):
            drawn.add(purpose)
            return draw(self, purpose, *args, **kwargs)

        monkeypatch.setattr(mc._Streams, "draw", recorded)
        independence_check(sym_config(depth=3, horizon=2, reps=100), level=1, pairs=3)
        estimate_g_one_step(ModelParams(3, 0.5, 0.5), 0.5, 10, seed=1)
        assert {mc._STEP, mc._COIN, mc._INIT, mc._ONESTEP} <= drawn
        purposes = sorted(drawn) + [mc._PAIRS] + [p + mc._REFINE for p in sorted(drawn)]
        assert len(set(purposes)) == len(purposes), purposes

    def test_no_purpose_is_anothers_refinement(self):
        purposes = [mc._STEP, mc._INIT, mc._ONESTEP, mc._PAIRS, mc._COIN]
        streams = purposes + [p + mc._REFINE for p in purposes]
        assert len(set(streams)) == len(streams), streams
        # a stream's offset packs its purpose above a 32-bit time
        assert max(streams) < 2**32

    def test_stream_starts_are_distinct(self):
        # the first words of every purpose's stream, and of its refinement
        # stream, at t = 0..9: a slip in packing (purpose, time) into the
        # offset would start two of them at one word, or one a word or three
        # into another
        purposes = [mc._STEP, mc._INIT, mc._ONESTEP, mc._PAIRS, mc._COIN]
        streams = mc._Streams(2024)
        words = [
            streams.word(p, t, i)
            for p in purposes + [p + mc._REFINE for p in purposes]
            for t in range(10)
            for i in range(4)
        ]
        assert len(set(words)) == len(words)


class TestReplicationLayout:
    """A replication's draws sit at positions fixed by the replication alone."""

    @staticmethod
    def _rows(cfg, reps):
        """Root trajectories and states of replications ``reps``, from the groups that hold them."""
        out = {}
        for group in mc._groups(cfg):
            if group.start < reps.stop and reps.start < group.stop:
                roots, states = mc._evolve(cfg, group)
                for i, rep in enumerate(group):
                    out[rep] = (roots[i], [s[i] for s in states])
        return [out[rep] for rep in reps]

    def test_replication_prefix(self, monkeypatch):
        base = _replay_config(3, 6, 6)
        default = mc._UNIFORM_BYTES
        four = 4 * 8 * (3 + 1) * sum(3**d for d in range(6))  # four replications' step-0 variables
        runs = []
        for replications, budget in [(50, default), (13, default), (50, 8), (50, four)]:
            monkeypatch.setattr(mc, "_UNIFORM_BYTES", budget)
            cfg = SimConfig(base.params, base.depth, base.horizon, base.pi_0, base.seed, replications)
            runs.append(self._rows(cfg, range(10, 13)))
        # groups of 4 split replications 10..12 between two groups
        assert [len(g) for g in mc._groups(cfg)][:4] == [4, 4, 4, 4]
        for run in runs[1:]:
            for (root, states), (ref_root, ref_states) in zip(run, runs[0]):
                assert np.array_equal(root, ref_root)
                assert all(np.array_equal(s, r) for s, r in zip(states, ref_states))

    def test_one_read_per_step(self, monkeypatch):
        cfg = sym_config(m=3, p=0.7, depth=6, horizon=5, pi_0=0.4, reps=30)
        (group,) = mc._groups(cfg)
        assert len(group) == 30
        calls = []
        heads = mc._Streams.heads

        def counted(self, *args):
            calls.append(args)
            return heads(self, *args)

        monkeypatch.setattr(mc._Streams, "heads", counted)
        mc._evolve(cfg, group)
        # the initial states, then each step's outcomes and its coins
        assert len(calls) == 1 + 2 * cfg.horizon

    def test_one_adopt_per_window(self, monkeypatch):
        # the group's steps fit the budget, so each step is one window of every parent
        cfg = sym_config(m=3, p=0.7, depth=6, horizon=5, pi_0=0.4, reps=30)
        (group,) = mc._groups(cfg)
        assert len(group) == 30
        adopt, calls = mc._adopt, []

        def counted(*arrays, **kwargs):
            calls.append(arrays)
            return adopt(*arrays, **kwargs)

        monkeypatch.setattr(mc, "_adopt", counted)
        mc._evolve(cfg, group)
        assert len(calls) == cfg.horizon


class TestOneStepChunking:
    def test_chunks_match_one_block(self):
        params, x, samples, seed = ModelParams(64, 0.55, 0.5), 0.45, 20_000, 11
        m = params.m
        assert samples > mc._UNIFORM_BYTES // (8 * (2 * m + 1))  # more than one chunk
        k_child, k_x, k_coin = _onestep_draws(seed, samples, m)
        child_b = _below(k_child, x)
        success = np.where(child_b, _below(k_x, params.p_b), _below(k_x, params.p_r))
        n_b = (success & child_b).sum(axis=1)
        n_r = (success & ~child_b).sum(axis=1)
        adopted = int(((n_b > n_r) | ((n_b == n_r) & _below(k_coin, 0.5))).sum())
        est, _ = estimate_g_one_step(params, x, samples, seed)
        assert est == adopted / samples

    # chunks of one trial, of trials that split a word, and of many words
    @pytest.mark.parametrize("budget", [8, 200, 4096])
    def test_any_budget_matches_the_replay(self, monkeypatch, budget):
        params, x, samples, seed = ModelParams(3, 0.6, 0.35), 0.4, 6_000, 12
        k_child, k_x, k_coin = _onestep_draws(seed, samples, 3)
        child_b = _below(k_child, x)
        success = np.where(child_b, _below(k_x, params.p_b), _below(k_x, params.p_r))
        lead = (success & child_b).sum(axis=1) - (success & ~child_b).sum(axis=1)
        adopted = int(((lead > 0) | ((lead == 0) & _below(k_coin, 0.5))).sum())
        monkeypatch.setattr(mc, "_UNIFORM_BYTES", budget)
        assert estimate_g_one_step(params, x, samples, seed)[0] == adopted / samples

    def test_contiguous_kinds(self, monkeypatch):
        params, samples = ModelParams(3, 0.6, 0.35), 1_000
        monkeypatch.setattr(mc, "_UNIFORM_BYTES", 8 * 7 * 64)  # chunks of 64 trials
        heads, adopt, calls, contiguous = mc._Streams.heads, mc._adopt, [], []

        def counted(self, *args):
            calls.append(args)
            return heads(self, *args)

        def checked(*arrays, **kwargs):
            contiguous.append(all(a.flags.c_contiguous for a in (*arrays, *kwargs.values())))
            return adopt(*arrays, **kwargs)

        monkeypatch.setattr(mc._Streams, "heads", counted)
        monkeypatch.setattr(mc, "_adopt", checked)
        estimate_g_one_step(params, 0.4, samples, 12)
        chunks = math.ceil(samples / 64)
        assert len(calls) == 3 * chunks
        assert contiguous == [True] * chunks


def _sim_bits(res):
    """A simulation's reported values, exactly (NaN by its repr)."""
    return [a.tolist() for a in (res.pi_hat, res.ci_half_width, res.level_averages)], repr(res.pair_correlation)


class TestWorkspace:
    """The per-thread scratch buffers of the draws and updates never change a result."""

    @staticmethod
    def _in_new_thread(job):
        out = []
        thread = threading.Thread(target=lambda: out.append(job()))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        return out[0]

    def test_results_do_not_depend_on_earlier_calls(self, monkeypatch):
        def a():
            return (
                _sim_bits(simulate_tree(_replay_config(3, 6, 4, replications=40))),
                estimate_g_one_step(ModelParams(3, 0.6, 0.35), 0.4, 5_000, 3),
            )

        def b():
            # larger reads than a's at the default budget, then one-parent windows
            # and one-trial chunks, with other m and shapes
            simulate_tree(_replay_config(5, 6, 5, replications=41))
            estimate_g_one_step(ModelParams(64, 0.55, 0.5), 0.45, 20_000, 11)
            with monkeypatch.context() as patch:
                patch.setattr(mc, "_UNIFORM_BYTES", 8)
                simulate_tree(_replay_config(4, 4, 3, replications=3))
                estimate_g_one_step(ModelParams(8, 0.3, 0.7), 0.6, 50, 4)

        first = a()
        b()
        assert a() == first
        # a new thread starts from empty buffers
        assert self._in_new_thread(a) == first

    def test_concurrent_threads_match_serial_runs(self):
        # more threads than cores, switching often, each on its own shapes
        jobs = {
            "many": lambda: _sim_bits(simulate_tree(_replay_config(3, 7, 7, replications=50))),
            "wide": lambda: _sim_bits(simulate_tree(_replay_config(5, 6, 3, replications=3))),
            "onestep": lambda: estimate_g_one_step(ModelParams(8, 0.55, 0.4), 0.45, 40_000, 5),
        }
        serial = {name: job() for name, job in jobs.items()}
        start = threading.Barrier(len(jobs), timeout=60)
        got, buffers = {}, {}

        def worker(name, job):
            start.wait()
            got[name] = [job() for _ in range(3)]
            buffers[name] = mc._LOCAL.buffers

        threads = [threading.Thread(target=worker, args=item) for item in jobs.items()]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {name: [value] * 3 for name, value in serial.items()}
        # each thread had buffers of its own
        assert len({id(b) for b in buffers.values()} | {id(mc._LOCAL.buffers)}) == len(jobs) + 1

    def test_warm_simulation_allocates_only_states_and_words(self):
        # one group of 50 trees of V = 3280 vertices; its largest reads, the
        # initial states and step 0's outcomes, take at most G*V heads, whose
        # raw words fill 2 bytes a head
        cfg = sym_config(m=3, p=0.7, depth=7, horizon=7, pi_0=0.4, reps=50)
        (group,) = mc._groups(cfg)
        flat = len(group) * sum(3**d for d in range(8))
        simulate_tree(cfg)
        tracemalloc.start()
        try:
            simulate_tree(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < flat + 2 * flat + 2**15


def _two_count_adopt(child, k_x, k_y, p_b, p_r):
    """The update rule as a rate array and two success counts on 53-bit draws, kept as an oracle."""
    success = np.where(child, _below(k_x, p_b), _below(k_x, p_r))
    n_b = (success & child).sum(axis=-1)
    n_r = (success & ~child).sum(axis=-1)
    return (n_b > n_r) | ((n_b == n_r) & _below(k_y, 0.5))


def _refine_from(words):
    """A ``word_at`` callback that reads a 2-D array of hand-built refinement words."""
    return lambda r, c: int(words[r, c])


def _exact_draws(heads, words):
    return heads.astype(np.uint64) << np.uint64(37) | words >> np.uint64(27)


rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


class TestAdoptRule:
    """``mc._adopt`` (one signed int8 lead) against the two-count rule it replaced."""

    @given(
        m=st.integers(2, 64),
        vertices=st.integers(1, 40),
        p_b=rates,
        p_r=rates,
        pi=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_two_counts(self, m, vertices, p_b, p_r, pi, seed):
        rng = np.random.default_rng(seed)
        child = rng.random((vertices, m)) < pi
        heads = rng.integers(0, 2**16, (vertices, m), dtype=np.uint16)
        words = rng.integers(0, 2**64, (vertices, m), dtype=np.uint64)
        # some heads sit exactly on a rate's cut, so their refinement word
        # decides, and some of those words' low bits sit exactly on its lo
        hit = rng.random((vertices, m))
        for rate, on_cut in ((p_b, hit < 0.1), (p_r, hit > 0.9)):
            hi, lo = mc._cut(rate)
            heads[on_cut] = hi
            words[on_cut & (rng.random((vertices, m)) < 0.5)] = min(lo, 2**37 - 1) << 27
        # half the coins on each side of 1/2, so ties go both ways
        coins = (rng.integers(0, 2**15, vertices) + 2**15 * (np.arange(vertices) % 2)).astype(np.uint16)
        succ = mc._bernoulli(heads, (p_b, p_r), _refine_from(words), state=child)
        got = mc._adopt(child, succ, coins < 2**15)
        assert got.dtype == bool and got.shape == (vertices,)
        k_y = coins.astype(np.uint64) << np.uint64(37)
        assert np.array_equal(got, _two_count_adopt(child, _exact_draws(heads, words), k_y, p_b, p_r))

    @pytest.mark.parametrize("coin", [0.0, 0.5 - 2**-54, 0.5, 1.0 - 2**-53])
    @pytest.mark.parametrize("m", [2, 3, 63, 64])
    def test_ties_and_int8_extremes(self, m, coin):
        # rows: all B succeed (lead +m), all R succeed (lead -m), and a tie
        child = np.array([[True] * m, [False] * m, [True, False] * (m // 2) + [True] * (m % 2)])
        k_x = np.zeros((3, m), dtype=np.uint64)
        k_x[2, -1] = (m % 2) * (2**53 - 1)  # at odd m the extra B child fails, so the row ties
        succ = _below(k_x, 1.0 - 2**-53)
        head = int(coin * 2**16)  # the coin's 53-bit draw is coin * 2**53
        k_y = np.full(3, head << 37, dtype=np.uint64)
        got = mc._adopt(child, succ, np.full(3, head < 2**15))
        assert got.tolist() == [True, False, coin < 0.5]
        assert np.array_equal(got, _two_count_adopt(child, k_x, k_y, 1.0 - 2**-53, 1.0 - 2**-53))


class TestLead:
    """``mc._lead``'s int8 doubling sums against an int64 sum over the children."""

    @given(
        m=st.integers(2, 64),
        groups=st.integers(1, 4),
        parents=st.integers(1, 6),
        flat=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_is_the_sum_of_the_signs_and_the_coin(self, m, groups, parents, flat, seed):
        # a window (G, n, m), or an estimator chunk (n, m); one parent at G = n = 1
        shape = (groups * parents, m) if flat else (groups, parents, m)
        rng = np.random.default_rng(seed)
        signs = rng.integers(-1, 2, shape, dtype=np.int8)
        # some vertices at the int8 extremes: every child +1, or every child -1
        extreme = rng.integers(0, 3, shape[:-1])
        signs[extreme == 1] = 1
        signs[extreme == 2] = -1
        coin = rng.random(shape[:-1]) < 0.5
        want = signs.sum(axis=-1, dtype=np.int64) + coin
        got = mc._lead(signs.copy(), coin)
        assert got.dtype == np.int8 and got.shape == shape[:-1]
        assert np.array_equal(got.astype(np.int64), want)


class TestTieScan:
    """``mc._set_positions`` and the tie search of ``mc._bernoulli`` find every tied head, in order."""

    MASKS = {
        "none": (9, []),
        "first": (9, [0]),
        "last": (9, [8]),
        "adjacent": (9, [3, 4, 5]),
        "all": (9, range(9)),
        "one_element": (1, [0]),
        "ends_of_a_long_mask": (70_000, [0, 1, 35_000, 69_998, 69_999]),
    }

    @pytest.mark.parametrize("name", sorted(MASKS))
    def test_positions_are_flatnonzero(self, name):
        size, tied = self.MASKS[name]
        mask = np.zeros(size, dtype=bool)
        mask[list(tied)] = True
        assert mc._set_positions(mask) == np.flatnonzero(mask).tolist()

    @given(st.lists(st.booleans(), max_size=300))
    def test_random_masks(self, mask):
        mask = np.array(mask, dtype=bool)
        assert mc._set_positions(mask) == np.flatnonzero(mask).tolist()

    # 2-D reads: one row (a window of a group of one), one column (a coin per
    # trial) and whole rows of a group
    @pytest.mark.parametrize("rows,cols", [(1, 9), (9, 1), (3, 3)])
    @pytest.mark.parametrize("name", ["none", "first", "last", "adjacent", "all"])
    def test_bernoulli_reads_each_tie_at_its_row_and_column(self, rows, cols, name):
        p = math.nextafter(_HEAD / 2**16, 1.0)
        hi, lo = mc._cut(p)
        assert lo
        tied = np.zeros(rows * cols, dtype=bool)
        tied[list(self.MASKS[name][1])] = True
        heads = np.where(tied, hi, hi + 1).astype(np.uint16).reshape(rows, cols)
        words = (np.arange(rows * cols, dtype=np.uint64).reshape(rows, cols) % 2) * np.uint64(lo << 27)
        read = []

        def word_at(r, c):
            read.append((r, c))
            return int(words[r, c])

        got = mc._bernoulli(heads, (p,), word_at)
        assert read == [tuple(rc) for rc in np.argwhere(tied.reshape(rows, cols)).tolist()]
        assert got.tolist() == _below(_exact_draws(heads, words), p).tolist()


_HEAD = 0x5A3C  # an arbitrary 16-bit head for the rates cut at a head boundary


class TestBernoulliExactness:
    """At a head tied with the cut, the refinement word decides, as the full 53-bit draw does."""

    @pytest.mark.parametrize(
        "p",
        [
            0.0,
            1.0,
            2.0**-53,
            1.0 - 2.0**-53,
            0.5,
            _HEAD / 2**16,  # lo = 0: the head alone decides
            math.nextafter(_HEAD / 2**16, 1.0),
            math.nextafter(0.5, 0.0),
            float(Fraction(3, 7)),
        ],
    )
    def test_forced_ties(self, p):
        K = math.ceil(Fraction(p) * 2**53)
        hi, lo = mc._cut(p)
        # hi is K's top 16 bits, except at p = 1, whose 2**16 would not fit a uint16 head
        assert (hi, lo) == ((2**16 - 1, 2**37) if p == 1.0 else (K >> 37, K % 2**37))
        assert hi * 2**37 + lo == K
        # every head on and next to the cut, each against low bits on and next to lo
        head_values = sorted({min(max(h, 0), 2**16 - 1) for h in (hi - 1, hi, hi + 1)})
        low_values = sorted({min(max(v, 0), 2**37 - 1) for v in (0, lo - 1, lo, lo + 1, 2**37 - 1)})
        heads = np.array([[h] * len(low_values) for h in head_values], dtype=np.uint16)
        # the word's 27 bits below the low bits are noise that must not matter
        words = np.array([[v << 27 | 0x5EC7F1 for v in low_values]] * len(head_values), dtype=np.uint64)
        read = []

        def word_at(r, c):
            read.append((r, c))
            return int(words[r, c])

        got = mc._bernoulli(heads, (p,), word_at)
        k = _exact_draws(heads, words)
        assert got.tolist() == (k < K).tolist()
        # only heads equal to the cut read a refinement word, and only when lo != 0
        assert sorted(read) == [(r, c) for r, c in np.argwhere(heads == hi).tolist() if lo]

    @pytest.mark.parametrize("pi_0", [0.0, 1.0])
    def test_sure_initial_states(self, pi_0):
        cfg = sym_config(m=3, depth=4, horizon=0, pi_0=pi_0, reps=3)
        for states in mc._evolve(cfg, range(3))[1]:
            assert states.all() if pi_0 == 1.0 else not states.any()

    def test_each_element_reads_at_its_own_rate(self):
        # every head ties both cuts, which share hi: each element reads one
        # refinement word, and its own state's lo decides it
        p_b, p_r = _HEAD / 2**16 + 2.0**-30, _HEAD / 2**16 + 2.0**-20
        (hi, lo_b), (hi_r, lo_r) = mc._cut(p_b), mc._cut(p_r)
        assert hi_r == hi and lo_b < lo_r
        heads = np.full((2, 3), hi, dtype=np.uint16)
        state = np.array([[True, False, True], [False, True, False]])
        # (0, 2) and (1, 0) sit between the two lows: their own rate decides the other way
        lows = [[0, 2**34, 2**30], [2**23, 2**13, 2**37 - 1]]
        words = np.array(lows, dtype=np.uint64) << np.uint64(27)
        read = []

        def word_at(r, c):
            read.append((r, c))
            return int(words[r, c])

        got = mc._bernoulli(heads, (p_b, p_r), word_at, state=state)
        k = _exact_draws(heads, words)
        assert read == [(r, c) for r in range(2) for c in range(3)]
        assert got.tolist() == np.where(state, _below(k, p_b), _below(k, p_r)).tolist()
        assert got.tolist() == [[True, False, False], [True, True, False]]


def _exact_rate(K):
    """The float p whose ceil(p * 2**53) is the 53-bit K: K / 2**53 exactly."""
    return float(Fraction(K, 2**53))


# rates at the ends of [0, 1], uniform rates, and pairs that share a head's cut but differ below it
edge_rates = st.sampled_from([0.0, 1.0, 2.0**-53, 1.0 - 2.0**-53])
rate_pairs = st.one_of(
    st.tuples(st.one_of(edge_rates, st.floats(0.0, 1.0)), st.one_of(edge_rates, st.floats(0.0, 1.0))),
    st.tuples(st.integers(0, 2**16 - 1), st.integers(0, 2**37 - 1), st.integers(0, 2**37 - 1)).map(
        lambda t: (_exact_rate(t[0] << 37 | t[1]), _exact_rate(t[0] << 37 | t[2]))
    ),
)


class TestOwnRate:
    """``mc._bernoulli`` draws each element at its own state's rate, as k < K on the exact 53-bit draw."""

    @given(
        rates=rate_pairs,
        rows=st.integers(1, 5),
        cols=st.integers(1, 40),
        with_state=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_the_exact_draw(self, rates, rows, cols, with_state, seed):
        p_b, p_r = rates
        rng = np.random.default_rng(seed)
        shape = (rows, cols)
        state = rng.random(shape) < 0.5 if with_state else None
        heads = rng.integers(0, 2**16, shape, dtype=np.uint16)
        words = rng.integers(0, 2**64, shape, dtype=np.uint64)
        # heads forced onto both cuts, each with low bits on, next to or off its lo
        K = {p: math.ceil(Fraction(p) * 2**53) for p in rates}
        own = np.where(state, K[p_b], K[p_r]) if with_state else np.full(shape, K[p_b])
        for p, on_cut in ((p_b, rng.random(shape) < 0.3), (p_r, rng.random(shape) < 0.3)):
            hi = min(K[p] >> 37, 2**16 - 1)
            lo = K[p] - (hi << 37)
            heads[on_cut] = hi
            low = np.clip(lo + rng.integers(-1, 2, shape), 0, 2**37 - 1).astype(np.uint64)
            near = on_cut & (rng.random(shape) < 0.7)
            words[near] = low[near] << np.uint64(27) | rng.integers(0, 2**27, shape, dtype=np.uint64)[near]
        read = []

        def word_at(r, c):
            read.append((r, c))
            return int(words[r, c])

        got = mc._bernoulli(heads, rates, word_at, state=state)
        k = _exact_draws(heads, words)
        want = np.where(state, k < K[p_b], k < K[p_r]) if with_state else k < K[p_b]
        assert got.dtype == bool and got.tolist() == want.tolist()
        # a refinement word is read only where the head ties its own rate's cut and that cut's lo != 0
        own_hi = np.minimum(own >> 37, 2**16 - 1)
        own_tie = (heads == own_hi) & (own != own_hi << 37)
        assert read == [tuple(rc) for rc in np.argwhere(own_tie).tolist()]


def _all_pairs_correlation(columns, pairs=None):
    """The all-pairs loop that skips constant columns inside it, kept as an oracle."""
    x = columns.astype(float)
    x -= x.mean(axis=0)
    norms = np.sqrt((x**2).sum(axis=0))
    usable = norms > 0.0
    best = np.nan
    if pairs is None:
        n = x.shape[1]
        pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
    for i, j in pairs:
        if not (usable[i] and usable[j]):
            continue
        corr = float(x[:, i] @ x[:, j] / (norms[i] * norms[j]))
        if np.isnan(best) or abs(corr) > abs(best):
            best = abs(corr)
    # no correlation exceeds 1 in magnitude; an exact ±1 can round past it
    return best if np.isnan(best) else min(best, 1.0)


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


class TestCorrelationReduction:
    """``mc._max_abs_correlation`` equals the all-pairs loop bit for bit."""

    @pytest.mark.parametrize("reps", [2, 3, 800])
    @pytest.mark.parametrize("n", [2, 3, 17, 64])
    def test_matches_all_pairs_loop(self, n, reps):
        rng = np.random.default_rng([n, reps])
        columns = rng.random((reps, n)) < rng.uniform(0.05, 0.95, n)
        columns[:, : n // 3] = rng.random(n // 3) < 0.5  # some constant columns
        got = mc._max_abs_correlation(columns)
        assert _same_float(got, _all_pairs_correlation(columns))

    @pytest.mark.parametrize("reps", [1, 2, 800])
    def test_all_columns_constant_is_nan(self, reps):
        columns = np.zeros((reps, 5), dtype=bool)
        columns[:, 2] = True
        assert math.isnan(mc._max_abs_correlation(columns))
        assert math.isnan(_all_pairs_correlation(columns))

    @pytest.mark.parametrize("reps", [2, 800])
    def test_explicit_pairs(self, reps):
        rng = np.random.default_rng(reps)
        columns = rng.random((reps, 30)) < 0.4
        columns[:, 7] = False
        pairs = np.array([(0, 7), (3, 29), (7, 12), (1, 2), (5, 18), (3, 29)])
        got = mc._max_abs_correlation(columns, pairs)
        assert _same_float(got, _all_pairs_correlation(columns, pairs))
        assert math.isnan(mc._max_abs_correlation(columns, pairs[[0, 2]]))
