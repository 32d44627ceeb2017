"""Monte Carlo verification of the tree dynamics against the analytic recursion.

Two estimators:

* a one-step estimator that replays the raw update rule (child states, child
  experiment outcomes, tie-break coin) and estimates the update map at a point;
* a full synchronous simulation on a depth-truncated tree.  A depth-d vertex
  follows the infinite-tree law only inside the validity window t <= D - d
  (later, the missing subtree below the leaves reaches it), so step t updates
  only levels 0..D-t-1 and each level ends at time min(T, D-d).  The root
  trajectory, the level means, the root's children and the
  ``independence_check`` pairs are all read from that one pass.

Randomness comes from counter-based Philox streams keyed by seed, purpose,
time step and replication.  Each step draws experiment outcomes for levels
1..D, then tie-break coins for levels 0..D-1, including those of levels past
their window, so each (vertex, variable) pair owns a fixed position in its
stream: the window changes no draw, and results are reproducible bit-for-bit
under any execution order of the replications.  Leaves have no children in
the truncation and stay frozen at their initial draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .model import ModelParams

__all__ = [
    "SimConfig",
    "SimResult",
    "estimate_g_one_step",
    "simulate_tree",
    "independence_check",
]

_LEAF_GUARD = 10**8

# stream purposes (second counter word)
_INIT = 1
_STEP = 0
_ONESTEP = 2
_PAIRS = 3


def _stream(seed: int, purpose: int, time: int = 0, rep: int = 0) -> Generator:
    return Generator(Philox(key=np.uint64(seed), counter=[0, purpose, time, rep]))


def _check_seed(seed) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    return seed


@dataclass(frozen=True)
class SimConfig:
    """Tree-simulation run description.

    ``depth`` is the truncation depth D (leaves sit at depth D); ``horizon``
    is the number of synchronous updates T, which must not exceed D so the
    root marginal stays inside the validity window.
    """

    params: ModelParams
    depth: int
    horizon: int
    pi_0: float
    seed: int
    replications: int

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if not 0 <= self.horizon <= self.depth:
            raise ValueError("horizon must lie in 0..depth")
        if not 0.0 <= self.pi_0 <= 1.0:
            raise ValueError("pi_0 must lie in [0, 1]")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        object.__setattr__(self, "seed", _check_seed(self.seed))
        if self.params.m**self.depth > _LEAF_GUARD:
            raise ValueError(
                f"m**depth = {self.params.m}**{self.depth} exceeds the {_LEAF_GUARD:.0e} leaf guard"
            )


@dataclass(frozen=True)
class SimResult:
    """Root-marginal estimates across replications, with diagnostics.

    ``pi_hat[t]`` averages the root state at time t over replications;
    ``ci_half_width`` is the 95% binomial half-width 1.96*sqrt(p(1-p)/R).
    ``pair_correlation`` is the maximum absolute empirical correlation among
    the root's children at the latest time their marginal is valid (NaN when
    every such state is constant across replications).  ``level_averages[d]``
    is the within-tree mean state of depth-d vertices at time min(T, D-d),
    averaged over replications.
    """

    config: SimConfig
    pi_hat: np.ndarray
    ci_half_width: np.ndarray
    pair_correlation: float
    replications_used: int
    level_averages: np.ndarray


def estimate_g_one_step(
    params: ModelParams, x: float, samples: int, seed: int
) -> tuple[float, float]:
    """Estimate the update map at x by replaying the raw rule N times.

    Each trial draws m child states i.i.d. Bernoulli(x), a success for each
    child at its state's rate, and a fair tie-break coin; returns the adopting
    fraction and its 95% half-width sqrt-based on the binomial variance.
    """
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    samples = int(samples)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    seed = _check_seed(seed)
    m, p_b, p_r = params.m, params.p_b, params.p_r
    gen = _stream(seed, _ONESTEP)
    adopted = 0
    chunk = max(1, min(samples, 2**22 // (2 * m + 1)))
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        u = gen.random((n, 2 * m + 1))
        child_b = u[:, :m] < x
        success = u[:, m : 2 * m] < np.where(child_b, p_b, p_r)
        n_b = (success & child_b).sum(axis=1)
        n_r = (success & ~child_b).sum(axis=1)
        coin = u[:, 2 * m] < 0.5
        adopted += int(((n_b > n_r) | ((n_b == n_r) & coin)).sum())
        done += n
    est = adopted / samples
    half = 1.96 * np.sqrt(est * (1.0 - est) / samples)
    return float(est), float(half)


def _evolve(cfg: SimConfig, rep: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """One replication: the root trajectory and every level at its last valid time.

    Step t updates only levels 0..D-t-1, the ones still inside their validity
    window; in ascending order each reads its children at time t.  So
    ``states[d]`` ends at time min(T, D-d), the time every output reads.
    Each step still draws experiment outcomes for levels 1..D, then coins for
    levels 0..D-1, whether or not a level is updated.
    """
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


def simulate_tree(config: SimConfig) -> SimResult:
    """Synchronous simulation of the full truncated tree across replications."""
    R = config.replications
    roots = np.empty((R, config.horizon + 1), dtype=bool)
    children = np.empty((R, config.params.m), dtype=bool)
    level_means = np.zeros(config.depth + 1)
    for rep in range(R):
        roots[rep], states = _evolve(config, rep)
        children[rep] = states[1]
        level_means += [s.mean() for s in states]
    level_means /= R
    pi_hat = roots.mean(axis=0)
    return SimResult(
        config=config,
        pi_hat=pi_hat,
        ci_half_width=1.96 * np.sqrt(pi_hat * (1.0 - pi_hat) / R),
        pair_correlation=_max_abs_correlation(children),
        replications_used=R,
        level_averages=level_means,
    )


def _max_abs_correlation(columns: np.ndarray, pairs: np.ndarray | None = None) -> float:
    """Max |Pearson correlation| over column pairs of a (R, n) 0/1 matrix.

    Constant columns have undefined correlation and are skipped; NaN when no
    pair is usable.
    """
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


def independence_check(config: SimConfig, level: int, pairs: int) -> float:
    """Max |empirical correlation| over random same-level vertex pairs at time T.

    The marginal of a depth-``level`` vertex is valid only for t <= D - level,
    so the configured horizon must respect that window; fewer than 100
    replications give correlation estimates too noisy to report.
    """
    level = int(level)
    if not 0 <= level <= config.depth:
        raise ValueError(f"level must lie in 0..{config.depth}")
    if config.horizon > config.depth - level:
        raise ValueError(
            f"horizon {config.horizon} exceeds the validity window "
            f"{config.depth - level} for level {level}"
        )
    if config.replications < 100:
        raise ValueError("at least 100 replications are needed for a correlation estimate")
    n = config.params.m**level
    if n < 2:
        raise ValueError(f"level {level} has a single vertex; no pairs exist")
    pairs = int(pairs)
    if pairs < 1:
        raise ValueError("pairs must be at least 1")

    gen = _stream(config.seed, _PAIRS)
    total = n * (n - 1) // 2
    chosen: set[tuple[int, int]] = set()
    if pairs >= total:
        chosen = {(i, j) for i in range(n) for j in range(i + 1, n)}
    else:
        while len(chosen) < pairs:
            i, j = (int(v) for v in gen.integers(0, n, size=2))
            if i != j:
                chosen.add((min(i, j), max(i, j)))
    pair_array = np.array(sorted(chosen))
    idx, local_pairs = np.unique(pair_array, return_inverse=True)

    recorded = np.array(
        [_evolve(config, rep)[1][level][idx] for rep in range(config.replications)]
    )
    return _max_abs_correlation(recorded, local_pairs.reshape(pair_array.shape))
