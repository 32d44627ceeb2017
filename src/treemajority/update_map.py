"""The one-step update map in Bernstein form, with exact derivatives.

If every vertex independently holds B with probability x, the probability that
a parent holds B after one synchronous step is

    g(x) = sum_k f(k) C(m,k) x^k (1-x)^(m-k),

a degree-m polynomial whose Bernstein coefficients are exactly the policy
values f(0..m).  Derivatives are taken analytically on the lower-degree
Bernstein bases, never by numerical differencing: g' has coefficients
m (f(k+1) - f(k)), built without subtracting policy values
(``model.policy_differences``), and g'' their differences.  A map is its
params and its policy table: its one constructor, ``UpdateMap.from_params``,
reads the table from ``model.policy_table``, and the first use of g' or g''
reads the steps from ``model.policy_differences``.  Each builds the binomial
weight rows it reads, so a map's first g' builds them a second time.  Every
value is Horner's rule on binomial-scaled coefficients
(``model.bernstein_horner``), scaled once per map, in Python floats: within
1.5 (n+1) machine epsilons of the exact Bernstein sum of degree n for
coefficients in [0, 1].  g is clamped to [0, 1], where the exact g lies, by
``g_eval``, whose operations the orbit loop (``dynamics._trajectory_request``)
repeats inline, bit for bit.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from .model import (
    MAX_CHILDREN,
    ModelParams,
    _check_int,
    _check_prob,
    bernstein_horner,
    bernstein_scaled,
    policy_differences,
    policy_table,
    policy_value,
)

__all__ = [
    "UpdateMap",
    "g_eval",
    "g_prime",
    "g_double_prime",
    "g_prime_at_half",
    "df_dp",
]


class UpdateMap(namedtuple("UpdateMap", "params coeffs")):
    """Bernstein-form polynomial pushing the B-marginal forward one step.

    A named tuple of ``params`` and ``coeffs``, the policy values f(0..m) as
    Python floats, so equality, hash and repr read those two alone.  Its
    instance dict holds only the lists below, each once it is first read.
    """

    @classmethod
    def from_params(cls, params: ModelParams) -> "UpdateMap":
        return cls(params, tuple(policy_table(params)))

    # Binomial-scaled coefficient lists for bernstein_horner, built on first use.

    @cached_property
    def _values(self) -> tuple:
        return bernstein_scaled(self.coeffs)

    @cached_property
    def _differences(self) -> list:
        return policy_differences(self.params)

    @cached_property
    def _steps(self) -> tuple:
        return bernstein_scaled(self._differences)

    @cached_property
    def _bends(self) -> tuple:
        steps = self._differences
        return bernstein_scaled([b - a for a, b in zip(steps, steps[1:])])


def g_eval(gm: UpdateMap, x: float) -> float:
    """Value of the update map at one point x in [0, 1], clamped to [0, 1].

    The exact g lies in [0, 1] because every f(k) does, so the clamp only
    removes rounding: unclamped, g comes out an ulp or two above 1 near x = 1
    on maps with p_b = 1 or p_r = 0.  The orbit loop
    (``dynamics._trajectory_request``) runs the same operations inline.
    """
    v = bernstein_horner(gm._values, _check_prob("x", x))
    return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)


def g_prime(gm: UpdateMap, x: float) -> float:
    """First derivative: m * sum_l (f(l+1) - f(l)) B_{l,m-1}(x)."""
    return gm.params.m * bernstein_horner(gm._steps, _check_prob("x", x))


def g_double_prime(gm: UpdateMap, x: float) -> float:
    """Second derivative: m(m-1) * sum_l (f(l+2) - 2f(l+1) + f(l)) B_{l,m-2}(x)."""
    m = gm.params.m
    return m * (m - 1) * bernstein_horner(gm._bends, _check_prob("x", x))


def g_prime_at_half(params: ModelParams) -> float:
    """Slope of the update map at x = 1/2 in the symmetric regime p_b = p_r.

    Reduced closed form obtained by folding the symmetry f(m-k) = 1 - f(k)
    into the Bernstein derivative at 1/2:

        g'(1/2) = m/2^(m-1) * C(m-1, floor((m-1)/2))
                + m/2^(m-2) * sum_{l=0}^{floor((m-1)/2)} (C(m-1,l-1) - C(m-1,l)) f(l),

    where C(m-1,l-1) - C(m-1,l) = (m-1)!(2l-m) / (l!(m-l)!).  It sums policy
    values, so it stays an independent test oracle for ``solve_threshold``,
    which roots the random-walk form E|S_N| - 1 instead.
    """
    if params.p_b != params.p_r:
        raise ValueError("g_prime_at_half requires p_b == p_r")
    m = params.m
    half = (m - 1) // 2
    acc = 0.0
    for ell in range(half + 1):
        weight = (math.comb(m - 1, ell - 1) if ell >= 1 else 0) - math.comb(m - 1, ell)
        acc += weight * policy_value(params, ell)
    return (m / 2 ** (m - 2)) * acc + (m / 2 ** (m - 1)) * math.comb(m - 1, half)


def df_dp(m: int, ell: int, p: float) -> float:
    """Rate of change of the policy value f(ell) with the common success rate p.

    Closed form, valid for 0 <= ell <= floor((m-1)/2) in the symmetric regime:

        d f(ell) / dp = -(m - 2 ell)/2 * sum_i C(m-ell, i) C(ell, i) p^(2i) (1-p)^(m-1-2i),

    strictly negative on 0 < p < 1; the endpoints take the polynomial's own
    values (continuous extension).
    """
    m = _check_int("m", m, 2, MAX_CHILDREN)
    ell = _check_int("ell", ell, 0, (m - 1) // 2)
    p = _check_prob("p", p)
    total = 0.0
    for i in range(ell + 1):
        total += math.comb(m - ell, i) * math.comb(ell, i) * p ** (2 * i) * (1.0 - p) ** (m - 1 - 2 * i)
    return -0.5 * (m - 2 * ell) * total
