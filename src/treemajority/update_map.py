"""The one-step update map in Bernstein form, with exact derivatives.

If every vertex independently holds B with probability x, the probability that
a parent holds B after one synchronous step is

    g(x) = sum_k f(k) C(m,k) x^k (1-x)^(m-k),

a degree-m polynomial whose Bernstein coefficients are exactly the policy
values f(0..m).  Derivatives are taken analytically through coefficient
differences on the lower-degree Bernstein bases, never by numerical
differencing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MAX_CHILDREN, ModelParams, bernstein_weights, policy_table, policy_value

__all__ = [
    "UpdateMap",
    "g_eval",
    "g_prime",
    "g_double_prime",
    "g_prime_at_half",
    "df_dp",
]


@dataclass(frozen=True)
class UpdateMap:
    """Bernstein-form polynomial pushing the B-marginal forward one step."""

    params: ModelParams
    coeffs: np.ndarray  # policy values f(0..m)

    @classmethod
    def from_params(cls, params: ModelParams) -> "UpdateMap":
        return cls(params=params, coeffs=policy_table(params))


def _check_unit(x):
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("x must lie in [0, 1]")
    return arr


def g_eval(gm: UpdateMap, x):
    """Value of the update map; scalar in, float out; array in, array out."""
    arr = _check_unit(x)
    out = bernstein_weights(gm.params.m, arr) @ gm.coeffs
    return float(out) if arr.ndim == 0 else out


def g_prime(gm: UpdateMap, x):
    """First derivative: m * sum_l (f(l+1) - f(l)) B_{l,m-1}(x)."""
    arr = _check_unit(x)
    m = gm.params.m
    out = m * (bernstein_weights(m - 1, arr) @ np.diff(gm.coeffs))
    return float(out) if arr.ndim == 0 else out


def g_double_prime(gm: UpdateMap, x):
    """Second derivative: m(m-1) * sum_l (f(l+2) - 2f(l+1) + f(l)) B_{l,m-2}(x)."""
    arr = _check_unit(x)
    m = gm.params.m
    out = m * (m - 1) * (bernstein_weights(m - 2, arr) @ np.diff(gm.coeffs, 2))
    return float(out) if arr.ndim == 0 else out


def g_prime_at_half(params: ModelParams) -> float:
    """Slope of the update map at x = 1/2 in the symmetric regime p_b = p_r.

    Reduced closed form obtained by folding the symmetry f(m-k) = 1 - f(k)
    into the Bernstein derivative at 1/2:

        g'(1/2) = m/2^(m-1) * C(m-1, floor((m-1)/2))
                + m/2^(m-2) * sum_{l=0}^{floor((m-1)/2)} (C(m-1,l-1) - C(m-1,l)) f(l),

    where C(m-1,l-1) - C(m-1,l) = (m-1)!(2l-m) / (l!(m-l)!).
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
    m = int(m)
    if m < 2 or m > MAX_CHILDREN:
        raise ValueError(f"m must lie in 2..{MAX_CHILDREN}, got {m}")
    ell = int(ell)
    if not 0 <= ell <= (m - 1) // 2:
        raise ValueError(f"ell must lie in 0..{(m - 1) // 2} for m={m}, got {ell}")
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    total = 0.0
    for i in range(ell + 1):
        total += math.comb(m - ell, i) * math.comb(ell, i) * p ** (2 * i) * (1.0 - p) ** (m - 1 - 2 * i)
    return -0.5 * (m - 2 * ell) * total
