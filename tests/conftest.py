"""Shared independent oracles: exhaustive rule enumeration, the rule's
success-count double sum at 50 digits, the m = 3 and 4 closed-form fixed
point, and finite differences.

These deliberately avoid the library's own computation paths (no Bernstein
algebra, no root finder) so agreement is a real cross-check.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest

from treemajority.model import ModelParams
from treemajority.update_map import UpdateMap, g_eval


def enumerate_policy(m: int, p_b: float, p_r: float, k: int) -> float:
    """Adoption probability by brute force over all 2^m success/failure patterns.

    Children 0..k-1 hold B, the rest hold R; a pattern's weight is the product
    of per-child Bernoulli probabilities, and it contributes fully on a strict
    B-majority of successes, half on a tie.
    """
    total = 0.0
    for bits in itertools.product((0, 1), repeat=m):
        prob = 1.0
        n_b = n_r = 0
        for i, hit in enumerate(bits):
            rate = p_b if i < k else p_r
            prob *= rate if hit else 1.0 - rate
            if hit:
                if i < k:
                    n_b += 1
                else:
                    n_r += 1
        if n_b > n_r:
            total += prob
        elif n_b == n_r:
            total += 0.5 * prob
    return total


def mp_policy(m: int, p) -> list:
    """f(0..m) for p_b = p_r = p at 50 digits, from the raw rule: with k of the
    m children holding B, B is adopted on more B- than R-successes and with
    probability 1/2 on a tie, summed over the two binomial success counts."""
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        pmf = [[math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)] for n in range(m + 1)]
        values = []
        for k in range(m + 1):
            a, b = pmf[k], pmf[m - k]
            values.append(mpmath.fsum(ai * (mpmath.fsum(b[:i]) + (b[i] / 2 if i < len(b) else 0))
                                      for i, ai in enumerate(a)))
        return values


def symmetric_alpha_closed_form(m: int, p: float):
    """The fixed point alpha < 1/2 of the symmetric map at m = 3 or 4, at 50 digits, or None.

    h = g - x is odd about 1/2: h(1/2 + s) = s (G(s^2) - 1), and at m = 3
    and 4 G is linear in y = s^2.  With u_k = 1/2 - f(k),

        m = 3:  G(y) = u_0 (3/2 + 2y) + 6 u_1 (1/4 - y),
        m = 4:  G(y) = u_0 (1 + 4y) + 8 u_1 (1/4 - y),

    so the outer fixed points are 1/2 -+ sqrt(y*), where G(y*) = 1, when y*
    lies in (0, 1/4); otherwise 1/2 is the only one.
    """
    f0, f1 = mp_policy(m, p)[:2]
    with mpmath.workdps(50):
        u0, u1 = 0.5 - f0, 0.5 - f1
        if m == 3:
            const, slope = 1.5 * u0 + 1.5 * u1, 2 * u0 - 6 * u1
        elif m == 4:
            const, slope = u0 + 2 * u1, 4 * u0 - 8 * u1
        else:
            raise ValueError("G is linear only at m = 3 and 4")
        y = (1 - const) / slope
        return 0.5 - mpmath.sqrt(y) if 0 < y < 0.25 else None


def central_diff(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_central_diff(f, x: float, h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2


def analytic_marginals(params: ModelParams, pi_0: float, horizon: int) -> np.ndarray:
    """The exact marginal recursion, iterated a fixed number of steps."""
    gm = UpdateMap.from_params(params)
    out = np.empty(horizon + 1)
    out[0] = pi_0
    for t in range(horizon):
        out[t + 1] = g_eval(gm, out[t])
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
