"""Model parameters, exact binomial mass functions, and the majority policy table.

An agent with m children adopts technology B when the successful experiments
among its B-children strictly outnumber those among its R-children; ties are
broken by a fair coin.  Conditioned on exactly k children being in state B,
the B-success count is Binomial(k, p_b) and the R-success count is
Binomial(m - k, p_r), independent of each other, so the adoption probability
is ``P[win] + P[tie] / 2`` computed by a double sum over the two mass
functions.

Every binomial mass comes from one pure-Python recurrence,
``bernstein_weights``, run from the smaller tail.  A map's policy table and
its steps read one set of rows, the masses of the success counts among n
B-children and among n R-children for n = 0..m (``_weight_rows``): 2(m+1)
rows, or m+1 when p_b == p_r.  A Bernstein form is evaluated at a point by
Horner's rule on its binomial-scaled coefficients (``bernstein_scaled``,
``bernstein_horner``), never by building its weights.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple

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


class ModelParams(namedtuple("ModelParams", "m p_b p_r")):
    """Full model specification: children per vertex and the two success rates.

    ``p_b`` (``p_r``) is the probability that an experiment performed with
    technology B (R) succeeds.  A named tuple whose fields are checked and
    coerced on construction.
    """

    __slots__ = ()

    def __new__(cls, m: int, p_b: float, p_r: float) -> "ModelParams":
        return super().__new__(
            cls, _check_int("m", m, 2, MAX_CHILDREN), _check_prob("p_b", p_b), _check_prob("p_r", p_r)
        )

    @classmethod
    def _make(cls, iterable) -> "ModelParams":
        return cls(*iterable)  # so _replace checks its fields too

    @classmethod
    def symmetric(cls, m: int, p: float) -> "ModelParams":
        """Both technologies succeed with the same probability p."""
        return cls(m, p, p)

    @property
    def is_symmetric(self) -> bool:
        return self.p_b == self.p_r


@functools.cache
def _step_factors(n: int) -> tuple:
    """The factors (n-k)/(k+1) for k = 0..n-1, each an integer quotient rounded once.

    ``bernstein_weights`` caches them for degrees up to ``MAX_CHILDREN``, the
    degrees of a map's rows; a larger degree, which only ``binomial_pmf`` asks
    for, reads ``_step_factors.__wrapped__`` and leaves the cache as it was.
    """
    return tuple((n - k) / (k + 1) for k in range(n))


def bernstein_weights(n: int, x: float) -> list:
    """Weights C(n,k) x^k (1-x)^(n-k) for k = 0..n at one point x, as Python floats.

    The one recurrence behind every binomial mass (``binomial_pmf``, the
    policy table and its steps); point values of a Bernstein form come from
    ``bernstein_horner`` instead.  w[k+1] = w[k] * (n-k)/(k+1) * x/(1-x), run
    from the smaller tail (so from (1-x)^n when x <= 1/2, and mirrored above),
    so nothing underflows for x near 1 and the weights are exact at x in
    {0, 1}.  The factors (n-k)/(k+1) come from ``_step_factors``.  Each weight
    carries a relative error of about 3n machine epsilons.
    """
    flip = x > 0.5
    base = 1.0 - x if flip else x
    w = (1.0 - base) ** n
    ratio = base / (1.0 - base)  # base <= 1/2, so the denominator is >= 1/2
    out = [w]
    steps = _step_factors(n) if n <= MAX_CHILDREN else _step_factors.__wrapped__(n)
    for step in steps:
        w = w * step * ratio
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


@functools.cache
def _binomial_row(n: int) -> tuple:
    """(C(n,k) as floats for k = 0..n, the (k, C(n,k)) pairs whose float is rounded).

    Every C(n,k) below 2^53 is exact as a double, so for n <= 56 the second
    list is empty; at n = 64 it holds 15 of the middle terms.
    """
    row = [math.comb(n, k) for k in range(n + 1)]
    return [float(w) for w in row], [(k, w) for k, w in enumerate(row) if float(w) != w]


def bernstein_scaled(c: list) -> tuple:
    """The coefficients c[k] C(n,k), k = 0..n, and the same list reversed, for ``bernstein_horner``.

    Each product is rounded once.  Where C(n,k) is exact as a double (always
    below 2^53) it is one float product, the correctly rounded product of two
    exact reals.  The rest, middle terms for n >= 57, divide integers: c[k]
    is an exact ratio of integers with a power-of-two denominator, and Python
    rounds the quotient once too.  So the two forms give the same bits.  A
    zero, -0.0 included, scales to 0.0.
    """
    n = len(c) - 1
    weights, rounded = _binomial_row(n)
    scaled = [float(ck) * w + 0.0 for ck, w in zip(c, weights)]
    for k, w in rounded:
        num, den = float(c[k]).as_integer_ratio()
        scaled[k] = num * w / den
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
    which is at most 1.5 (n+1) eps max|c[k]|.  Underflow adds at most one
    least subnormal per product, (n+1) of them in all.
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
    """Exact Binomial(n, p) masses on outcomes 0..n; degenerate at 0 when n = 0 or p = 0.

    Raises ``ValueError`` when the masses lose their accuracy to underflow:
    for large n the recurrence's start (1 - min(p, 1-p))^n rounds to a
    subnormal or to 0, every mass inherits its error, and their sum leaves
    1 by more than the 3n machine epsilons the recurrence allows.
    """
    n, p = _check_int("n", n, 0), _check_prob("p", p)
    masses = bernstein_weights(n, p)
    total = math.fsum(masses)
    if abs(total - 1.0) > 3 * (n + 1) * sys.float_info.epsilon:
        raise ValueError(f"Binomial({n}, {p!r}) masses underflow in double precision: they sum to {total!r}")
    return masses


def _weight_rows(params: ModelParams) -> tuple:
    """(rows_b, rows_r): ``bernstein_weights(n, p_b)`` and ``bernstein_weights(n, p_r)`` for n = 0..m.

    Row n of rows_b holds the masses of the success count among n B-children,
    row n of rows_r the same among n R-children.  Every policy value and every
    step reads two of them, so a map builds its 2(m+1) rows once, and m+1 when
    p_b == p_r, where the two lists are one.
    """
    m, p_b, p_r = params.m, params.p_b, params.p_r
    rows_b = [bernstein_weights(n, p_b) for n in range(m + 1)]
    rows_r = rows_b if p_r == p_b else [bernstein_weights(n, p_r) for n in range(m + 1)]
    return rows_b, rows_r


def _value(a: list, b: list) -> float:
    """P[win] + P[tie] / 2 from the masses a and b of the success counts of the B- and R-children.

    One pass over the pairs (a[i], b[i]) adds up both sums in index order:
    win gets a[i] P[R-successes < i] and tie gets a[i] b[i].  Entries of a
    past the end of b each add a[i] times the whole of b.
    """
    win = tie = below = 0.0  # below: P[R-successes < i]
    for ai, bi in zip(a, b):
        win += ai * below
        tie += ai * bi
        below += bi
    for ai in a[len(b):]:
        win += ai * below
    return min(max(win + 0.5 * tie, 0.0), 1.0)


def _policy_table(params: ModelParams, rows: tuple) -> list:
    """``policy_table`` from the map's ``_weight_rows``."""
    rows_b, rows_r = rows
    m = params.m
    return [_value(rows_b[k], rows_r[m - k]) for k in range(m + 1)]


def _policy_steps(params: ModelParams, rows: tuple) -> list:
    """``policy_differences`` from the map's ``_weight_rows``."""
    rows_b, rows_r = rows
    m, p_b, p_r = params.m, params.p_b, params.p_r
    steps = []
    for k in range(m):
        a, b = rows_b[k], rows_r[m - 1 - k]  # the other k B-children and m-1-k R-children
        tie = _dot(a, b)  # P[d = 0]
        behind = _dot(a, b[1:])  # P[d = -1]
        ahead = _dot(a[1:], b)  # P[d = 1]
        steps.append(0.5 * (p_b * (behind + tie) + p_r * (tie + ahead)))
    return steps


def policy_value(params: ModelParams, k: int) -> float:
    """Probability of adopting B given exactly k of the m children are in state B."""
    k = _check_int("k", k, 0, params.m)
    return _value(bernstein_weights(k, params.p_b), bernstein_weights(params.m - k, params.p_r))


def policy_table(params: ModelParams) -> list:
    """Adoption probabilities f(0..m) as Python floats: entry k is the chance a
    parent adopts B given exactly k of its m children are in state B."""
    return _policy_table(params, _weight_rows(params))


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
    return _policy_steps(params, _weight_rows(params))
