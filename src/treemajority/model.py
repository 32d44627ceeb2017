"""Model parameters, exact binomial mass functions, and the majority policy table.

An agent with m children adopts technology B when the successful experiments
among its B-children strictly outnumber those among its R-children; ties are
broken by a fair coin.  Conditioned on exactly k children being in state B,
the B-success count is Binomial(k, p_b) and the R-success count is
Binomial(m - k, p_r), independent of each other, so the adoption probability
is ``P[win] + P[tie] / 2`` computed by a double sum over the two mass
functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_CHILDREN",
    "ModelParams",
    "binomial_pmf",
    "policy_value",
    "policy_table",
]

# Desk-scale cap: keeps double-precision sums at ~1e-14 accuracy.
MAX_CHILDREN = 64


def _check_prob(name: str, value) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Full model specification: children per vertex and the two success rates.

    ``p_b`` (``p_r``) is the probability that an experiment performed with
    technology B (R) succeeds.
    """

    m: int
    p_b: float
    p_r: float

    def __post_init__(self) -> None:
        m = int(self.m)
        if m != self.m:
            raise ValueError(f"m must be an integer, got {self.m!r}")
        if m < 2:
            raise ValueError(f"m must be at least 2, got {m}")
        if m > MAX_CHILDREN:
            raise ValueError(f"m must be at most {MAX_CHILDREN}, got {m}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p_b", _check_prob("p_b", self.p_b))
        object.__setattr__(self, "p_r", _check_prob("p_r", self.p_r))

    @classmethod
    def symmetric(cls, m: int, p: float) -> "ModelParams":
        """Both technologies succeed with the same probability p."""
        return cls(m, p, p)

    @property
    def is_symmetric(self) -> bool:
        return self.p_b == self.p_r


def bernstein_weights(n: int, x) -> np.ndarray:
    """Weights C(n,k) x^k (1-x)^(n-k) for k = 0..n.

    Uses the multiplicative recurrence mass[k+1] = mass[k] * (n-k)/(k+1) * x/(1-x),
    run from the smaller tail so nothing underflows for x near 1, and exact at
    x in {0, 1}.  Accepts a scalar or an array of points; an array input adds a
    leading axis to the result.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    pts = np.atleast_1d(arr)
    flip = pts > 0.5
    base = np.where(flip, 1.0 - pts, pts)
    w = np.empty((pts.size, n + 1))
    w[:, 0] = (1.0 - base) ** n
    ratio = base / (1.0 - base)  # base <= 1/2, so the denominator is >= 1/2
    for k in range(n):
        w[:, k + 1] = w[:, k] * ((n - k) / (k + 1)) * ratio
    w[flip] = w[flip, ::-1]
    return w[0] if scalar else w


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """Exact Binomial(n, p) masses on outcomes 0..n; degenerate at 0 when n = 0 or p = 0."""
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    p = _check_prob("p", p)
    return bernstein_weights(n, p)


def policy_value(params: ModelParams, k: int) -> float:
    """Probability of adopting B given exactly k of the m children are in state B."""
    m = params.m
    k = int(k)
    if not 0 <= k <= m:
        raise ValueError(f"k must lie in 0..{m}, got {k}")
    a = bernstein_weights(k, params.p_b)  # successes among the k B-children
    b = bernstein_weights(m - k, params.p_r)  # successes among the m-k R-children
    b_cum = np.cumsum(b)
    # P[R-successes < i] for i = 0..k; saturates at 1 once i-1 >= m-k
    idx = np.minimum(np.arange(k + 1) - 1, m - k)
    p_less = np.where(idx < 0, 0.0, b_cum[np.maximum(idx, 0)])
    win = float(a @ p_less)
    top = min(k, m - k)
    tie = float(a[: top + 1] @ b[: top + 1])
    return min(max(win + 0.5 * tie, 0.0), 1.0)


def policy_table(params: ModelParams) -> np.ndarray:
    """Adoption probabilities f(0..m): entry k is the chance a parent adopts B
    given exactly k of its m children are in state B."""
    return np.array([policy_value(params, k) for k in range(params.m + 1)])
