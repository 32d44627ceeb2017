import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

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
    """Exact outputs pinned to the Philox draw layout.

    Streams are keyed by (seed, purpose, t, rep); each step draws experiment
    outcomes for levels 1..D and then coins for levels 0..D-1.  Any change to
    that layout, or to which draw feeds which vertex, moves these bits.
    """

    CASES = {
        "horizon_below_depth": (
            dict(params=ModelParams(3, 0.7, 0.4), depth=5, horizon=3, pi_0=0.4, seed=2024, replications=60),
            [0.36666666666666664, 0.4, 0.6166666666666667, 0.7666666666666667],
            [
                0.7666666666666667,
                0.8055555555555552,
                0.7944444444444446,
                0.6814814814814815,
                0.5421810699588475,
                0.40281207133058977,
            ],
            0.09631426606617739,
        ),
        "horizon_zero": (
            dict(params=ModelParams(4, 0.6, 0.5), depth=3, horizon=0, pi_0=0.35, seed=7, replications=40),
            [0.4],
            [0.4, 0.3625, 0.3484375, 0.349609375],
            0.2844627935584562,
        ),
        "binary": (
            dict(params=ModelParams(2, 0.9, 0.6), depth=6, horizon=6, pi_0=0.5, seed=99, replications=50),
            [0.5, 0.52, 0.78, 0.8, 0.84, 0.8, 0.86],
            [0.86, 0.87, 0.77, 0.7275, 0.69125, 0.598125, 0.4978125],
            0.20575139211410245,
        ),
        "depth_one": (
            dict(params=ModelParams(5, 0.8, 0.3), depth=1, horizon=1, pi_0=0.6, seed=3, replications=80),
            [0.5625, 0.875],
            [0.875, 0.6275000000000002],
            0.2474358296526967,
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_simulate_tree_bits(self, name):
        kwargs, pi_hat, level_averages, pair_correlation = self.CASES[name]
        res = simulate_tree(SimConfig(**kwargs))
        assert res.pi_hat.tolist() == pi_hat
        assert res.level_averages.tolist() == level_averages
        assert res.pair_correlation == pair_correlation

    def test_independence_check_bits_at_horizon_zero(self):
        cfg = SimConfig(ModelParams.symmetric(3, 0.5), depth=4, horizon=0, pi_0=0.5, seed=21, replications=100)
        assert independence_check(cfg, level=2, pairs=12) == 0.14002800840280102

    def test_independence_check_bits_after_steps(self):
        cfg = SimConfig(ModelParams(3, 0.8, 0.6), depth=6, horizon=2, pi_0=0.45, seed=22, replications=100)
        assert independence_check(cfg, level=3, pairs=15) == 0.18359665121716515


# The per-replication replay the grouped simulator replaced, kept as an
# independent oracle: one fresh generator per stream, and every draw of every
# step, used or not.  Stream purposes: 0 for steps, 1 for initial states.
_STEP = 0
_INIT = 1


def _stream(seed: int, purpose: int, time: int = 0, rep: int = 0) -> Generator:
    return Generator(Philox(key=np.uint64(seed), counter=[0, purpose, time, rep]))


def _reference_evolve(cfg: SimConfig, rep: int) -> tuple[np.ndarray, list[np.ndarray]]:
    m, p_b, p_r = cfg.params.m, cfg.params.p_b, cfg.params.p_r
    D, T = cfg.depth, cfg.horizon

    init = _stream(cfg.seed, _INIT, 0, rep)
    states = [init.random(m**d) < cfg.pi_0 for d in range(D + 1)]
    root_traj = np.empty(T + 1, dtype=bool)
    root_traj[0] = states[0][0]

    for t in range(T):
        gen = _stream(cfg.seed, _STEP, t, rep)
        u_x = [gen.random(m**d) for d in range(1, D + 1)]
        u_y = [gen.random(m**d) for d in range(D)]
        for d in range(D - t):
            child = states[d + 1].reshape(-1, m)
            success = u_x[d].reshape(-1, m) < np.where(child, p_b, p_r)
            n_b = (success & child).sum(axis=1)
            n_r = (success & ~child).sum(axis=1)
            states[d] = (n_b > n_r) | ((n_b == n_r) & (u_y[d] < 0.5))
        root_traj[t + 1] = states[0][0]

    return root_traj, states


def _reference_outputs(cfg: SimConfig):
    """Each replication's replay; pi_hat and level_averages summed in replication order."""
    runs = [_reference_evolve(cfg, rep) for rep in range(cfg.replications)]
    level_means = np.zeros(cfg.depth + 1)
    for _, states in runs:
        level_means += [s.mean() for s in states]
    level_means /= cfg.replications
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
        # m = 3 makes the level means inexact in binary, so the order in which
        # replications are summed shows in the bits
        m, depth = 3, 8
        cfg = _replay_config(m, depth, depth, replications=41)
        per_rep = sum(m**d for d in range(1, depth + 1)) + sum(m**d for d in range(depth))
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
    @pytest.mark.parametrize("seed,purpose,time,rep", [(5, 0, 3, 7), (2**64 - 1, 1, 0, 2**40)])
    def test_at_matches_one_long_draw(self, seed, purpose, time, rep):
        long = _stream(seed, purpose, time, rep).random(120)
        streams = mc._Streams(seed)
        for n in range(40):
            for target in range(n, n + 60):
                streams.at(purpose, time, rep).random(n)
                got = streams.at(purpose, time, rep, target).random(4)
                assert np.array_equal(got, long[target : target + 4]), (n, target)


class TestOneStepChunking:
    def test_chunks_match_one_block(self):
        params, x, samples, seed = ModelParams(64, 0.55, 0.5), 0.45, 20_000, 11
        m = params.m
        assert samples > mc._UNIFORM_BYTES // (8 * (2 * m + 1))  # more than one chunk
        # purpose 2: the one-step estimator's stream
        u = _stream(seed, 2).random((samples, 2 * m + 1))
        child_b = u[:, :m] < x
        success = u[:, m : 2 * m] < np.where(child_b, params.p_b, params.p_r)
        n_b = (success & child_b).sum(axis=1)
        n_r = (success & ~child_b).sum(axis=1)
        adopted = int(((n_b > n_r) | ((n_b == n_r) & (u[:, 2 * m] < 0.5))).sum())
        est, _ = estimate_g_one_step(params, x, samples, seed)
        assert est == adopted / samples


def _two_count_adopt(child, u_x, u_y, p_b, p_r):
    """The update rule as a rate array and two success counts, kept as an oracle."""
    success = u_x < np.where(child, p_b, p_r)
    n_b = (success & child).sum(axis=-1)
    n_r = (success & ~child).sum(axis=-1)
    return (n_b > n_r) | ((n_b == n_r) & (u_y < 0.5))


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
        u_x = rng.random((vertices, m))
        # some uniforms sit exactly on a rate: a child succeeds only strictly below it
        hit = rng.random((vertices, m))
        u_x[hit < 0.1], u_x[hit > 0.9] = p_b, p_r
        # half the coins on each side of 1/2, so ties go both ways
        u_y = 0.5 * (rng.random(vertices) + np.arange(vertices) % 2)
        got = mc._adopt(child, u_x, u_y, p_b, p_r)
        assert got.dtype == bool and got.shape == (vertices,)
        assert np.array_equal(got, _two_count_adopt(child, u_x, u_y, p_b, p_r))

    @pytest.mark.parametrize("coin", [0.0, 0.5 - 2**-54, 0.5, 1.0 - 2**-53])
    @pytest.mark.parametrize("m", [2, 3, 63, 64])
    def test_ties_and_int8_extremes(self, m, coin):
        # rows: all B succeed (lead +m), all R succeed (lead -m), and a tie
        child = np.array([[True] * m, [False] * m, [True, False] * (m // 2) + [True] * (m % 2)])
        u_x = np.zeros((3, m))
        u_x[2, -1] = m % 2  # at odd m the extra B child fails, so the row ties
        u_y = np.full(3, coin)
        got = mc._adopt(child, u_x, u_y, 1.0, 1.0)
        assert got.tolist() == [True, False, coin < 0.5]
        assert np.array_equal(got, _two_count_adopt(child, u_x, u_y, 1.0, 1.0))


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
    return best


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
