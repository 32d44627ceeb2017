"""Model parameters, exact binomial mass functions, and the majority policy table.

An agent with m children adopts technology B when the successful experiments
among its B-children strictly outnumber those among its R-children; ties are
broken by a fair coin.  Conditioned on exactly k children being in state B,
the B-success count is Binomial(k, p_b) and the R-success count is
Binomial(m - k, p_r), independent of each other, so the adoption probability
is ``P[win] + P[tie] / 2`` computed by a double sum over the two mass
functions.

Every binomial mass comes from one pure-Python recurrence,
``bernstein_weights``, run from the smaller tail.  A Bernstein form is
evaluated at a point by Horner's rule on its binomial-scaled coefficients
(``bernstein_scaled``, ``bernstein_horner``), never by building its weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "MAX_CHILDREN",
    "ModelParams",
    "binomial_pmf",
    "policy_value",
    "policy_table",
    "policy_differences",
]

# Desk-scale cap: keeps double-precision sums at ~1e-14 accuracy.
MAX_CHILDREN = 64


def _check_prob(name: str, value) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def _as_int(name: str, value) -> int:
    """``value`` as an int.

    An integral value of any numeric type (3.0, numpy integers) is coerced;
    anything else, 2.5, NaN or a string included, is refused, never truncated.
    """
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return n


def _check_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as an int in lo..hi (no upper end when hi is None), coerced as by ``_as_int``."""
    n = _as_int(name, value)
    if n < lo:
        raise ValueError(f"{name} must be at least {lo}, got {n}")
    if hi is not None and n > hi:
        raise ValueError(f"{name} must be at most {hi}, got {n}")
    return n


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
        object.__setattr__(self, "m", _check_int("m", self.m, 2, MAX_CHILDREN))
        object.__setattr__(self, "p_b", _check_prob("p_b", self.p_b))
        object.__setattr__(self, "p_r", _check_prob("p_r", self.p_r))

    @classmethod
    def symmetric(cls, m: int, p: float) -> "ModelParams":
        """Both technologies succeed with the same probability p."""
        return cls(m, p, p)

    @property
    def is_symmetric(self) -> bool:
        return self.p_b == self.p_r


def bernstein_weights(n: int, x: float) -> list:
    """Weights C(n,k) x^k (1-x)^(n-k) for k = 0..n at one point x, as Python floats.

    The one recurrence behind every binomial mass (``binomial_pmf``, the
    policy table and its steps); point values of a Bernstein form come from
    ``bernstein_horner`` instead.  w[k+1] = w[k] * (n-k)/(k+1) * x/(1-x), run
    from the smaller tail (so from (1-x)^n when x <= 1/2, and mirrored above),
    so nothing underflows for x near 1 and the weights are exact at x in
    {0, 1}.  Each weight carries a relative error of about 3n machine
    epsilons.
    """
    flip = x > 0.5
    base = 1.0 - x if flip else x
    w = (1.0 - base) ** n
    ratio = base / (1.0 - base)  # base <= 1/2, so the denominator is >= 1/2
    out = [w]
    for k in range(n):
        w = w * ((n - k) / (k + 1)) * ratio
        out.append(w)
    if flip:
        out.reverse()
    return out


def _dot(u, v) -> float:
    """Running sum of u[i] * v[i] over the shorter of the two sequences."""
    acc = 0.0
    for a, b in zip(u, v):
        acc += a * b
    return acc


def bernstein_scaled(c: list) -> tuple:
    """The coefficients c[k] C(n,k), k = 0..n, and the same list reversed, for ``bernstein_horner``.

    Each product is rounded once: c[k] is an exact ratio of integers with a
    power-of-two denominator, and Python divides integers with one rounding.
    """
    n = len(c) - 1
    scaled = []
    for k, ck in enumerate(c):
        num, den = float(ck).as_integer_ratio()
        scaled.append(num * math.comb(n, k) / den)
    return scaled, scaled[::-1]


def bernstein_horner(scaled: tuple, x: float) -> float:
    """sum_k c[k] C(n,k) x^k (1-x)^(n-k) at one point x in [0, 1], from ``bernstein_scaled(c)``.

    With b = min(x, 1-x) and r = b/(1-b) <= 1 the sum is
    (1-b)^n sum_k s[k] r^k, where s is the scaled list in the order that puts
    the end nearer x at k = 0 (so reversed for x > 1/2); Horner's rule runs it
    in one loop of two flops per coefficient.  It is exact at x in {0, 1},
    where it returns c[0] and c[n].  Term k picks up at most 3(n+1) unit
    roundoffs of relative error (one from s[k], 2n from Horner's rule, n from
    r^k (1-b)^(n-k) and two from the power and the last product), so the
    absolute error stays below 1.5 (n+1) eps sum_k |c[k]| C(n,k) x^k (1-x)^(n-k),
    which is at most 1.5 (n+1) eps max|c[k]|.
    """
    up, down = scaled
    if x > 0.5:
        b = 1.0 - x  # exact, and 1 - b == x
        terms = up
    else:
        b = x
        terms = down
    a = 1.0 - b
    r = b / a
    acc = 0.0
    for s in terms:
        acc = acc * r + s
    return acc * a ** (len(up) - 1)


def binomial_pmf(n: int, p: float) -> list:
    """Exact Binomial(n, p) masses on outcomes 0..n; degenerate at 0 when n = 0 or p = 0."""
    return bernstein_weights(_check_int("n", n, 0), _check_prob("p", p))


def policy_value(params: ModelParams, k: int) -> float:
    """Probability of adopting B given exactly k of the m children are in state B."""
    m = params.m
    k = _check_int("k", k, 0, m)
    a = bernstein_weights(k, params.p_b)  # successes among the k B-children
    b = bernstein_weights(m - k, params.p_r)  # successes among the m-k R-children
    win = below = 0.0  # below: P[R-successes < i], saturating once i > m-k
    for i, ai in enumerate(a):
        win += ai * below
        if i <= m - k:
            below += b[i]
    tie = _dot(a, b)
    return min(max(win + 0.5 * tie, 0.0), 1.0)


def policy_table(params: ModelParams) -> list:
    """Adoption probabilities f(0..m) as Python floats: entry k is the chance a
    parent adopts B given exactly k of its m children are in state B."""
    return [policy_value(params, k) for k in range(params.m + 1)]


def policy_differences(params: ModelParams) -> list:
    """Steps f(k+1) - f(k) for k = 0..m-1 as Python floats, each a sum of nonnegative terms.

    Couple the two configurations by moving one child from R to B and keeping
    the other m-1 (k in B, m-1-k in R) fixed.  With d their B-minus-R success
    count, the moved child changes the adoption probability only when d is
    within one of a tie, which gives

        f(k+1) - f(k) = (p_b P[d in {-1, 0}] + p_r P[d in {0, 1}]) / 2.

    No policy values are subtracted, so a step is accurate to rounding relative
    to itself even where f(k) and f(k+1) both round to 1, and it is never
    negative: the policy values are nondecreasing in k.
    """
    m, p_b, p_r = params.m, params.p_b, params.p_r
    steps = []
    for k in range(m):
        a = bernstein_weights(k, p_b)  # successes among the k B-children
        b = bernstein_weights(m - 1 - k, p_r)  # among the m-1-k R-children
        tie = _dot(a, b)  # P[d = 0]
        behind = _dot(a, b[1:])  # P[d = -1]
        ahead = _dot(a[1:], b)  # P[d = 1]
        steps.append(0.5 * (p_b * (behind + tie) + p_r * (tie + ahead)))
    return steps
