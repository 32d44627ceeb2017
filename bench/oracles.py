"""Reference answers for the benchmark's checks, computed without treemajority.

Every quantity here comes from the model's raw definition, evaluated with
mpmath at 50 significant digits: the adoption probability f(k) is the double
sum over the B-successes i among k B-children and the R-successes j among the
m-k R-children, counting i > j as a win and i == j as half a win, and the
update map is g(x) = sum_k f(k) C(m,k) x^k (1-x)^(m-k).  Nothing in this
module imports treemajority, so none of its answers can share a code path
with the code under test.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp, mpf

DIGITS = 50
SQRT3_M1 = math.sqrt(3.0) - 1.0
# Monte Carlo band in standard errors.  A run makes a few hundred band checks;
# at 5 the chance that a correct simulator fails any of them stays below 0.2%.
BAND_SE = 5.0


class OracleError(RuntimeError):
    """A reference answer could not be evaluated, so a check cannot be made."""


def _powers(base, n: int) -> list:
    """base^0 .. base^n, with 0^0 = 1."""
    out = [mpf(1)]
    for _ in range(n):
        out.append(out[-1] * base)
    return out


def policy(m: int, p_b, p_r) -> list:
    """f(0..m) from the raw binomial double sum."""
    with mp.workdps(DIGITS):
        pb, pr = mpf(p_b), mpf(p_r)
        pb_pow, qb_pow = _powers(pb, m), _powers(1 - pb, m)
        pr_pow, qr_pow = _powers(pr, m), _powers(1 - pr, m)
        values = []
        for k in range(m + 1):
            a = [math.comb(k, i) * pb_pow[i] * qb_pow[k - i] for i in range(k + 1)]
            b = [math.comb(m - k, j) * pr_pow[j] * qr_pow[m - k - j] for j in range(m - k + 1)]
            total = mpf(0)
            below = mpf(0)  # sum of b[j] over j < i
            for i, ai in enumerate(a):
                tie = b[i] if i < len(b) else mpf(0)
                total += ai * (below + tie / 2)
                below += tie
            values.append(total)
        return values


def g(f: list, x):
    """The update map at x for the policy values f."""
    m = len(f) - 1
    with mp.workdps(DIGITS):
        x = mpf(x)
        return mpmath.fsum(f[k] * math.comb(m, k) * x**k * (1 - x) ** (m - k) for k in range(m + 1))


def g_prime(f: list, x):
    """g'(x) = m sum_k (f(k+1) - f(k)) C(m-1,k) x^k (1-x)^(m-1-k)."""
    m = len(f) - 1
    with mp.workdps(DIGITS):
        x = mpf(x)
        return m * mpmath.fsum(
            (f[k + 1] - f[k]) * math.comb(m - 1, k) * x**k * (1 - x) ** (m - 1 - k) for k in range(m)
        )


def slope_at_half(m: int, p):
    """g'(1/2) in the symmetric regime: sum_k f(k) C(m,k) (2k - m) / 2^(m-1)."""
    f = policy(m, p, p)
    with mp.workdps(DIGITS):
        return mpmath.fsum(f[k] * math.comb(m, k) * (2 * k - m) for k in range(m + 1)) / mpf(2) ** (m - 1)


def slope_at_half_dp(m: int, p):
    """d g'(1/2) / dp, by a central difference at 50 digits."""
    with mp.workdps(DIGITS):
        h = mpf("1e-15")
        return (slope_at_half(m, mpf(p) + h) - slope_at_half(m, mpf(p) - h)) / (2 * h)


def threshold(m: int):
    """p(m): the symmetric success rate at which g'(1/2) crosses 1."""
    with mp.workdps(DIGITS):
        lo, hi = mpf("0.001"), mpf("0.999")
        if not slope_at_half(m, lo) < 1 < slope_at_half(m, hi):
            raise OracleError(f"slope at 1/2 does not cross 1 on [{lo}, {hi}] for m={m}")
        return mpmath.findroot(lambda p: slope_at_half(m, p) - 1, (lo, hi), solver="anderson")


def _bisect(h, lo, hi, steps=200):
    """Root of h in [lo, hi] given h(lo) > 0 > h(hi)."""
    if not h(lo) > 0 > h(hi):
        raise OracleError(f"no sign change to bisect on [{lo}, {hi}]")
    for _ in range(steps):
        mid = (lo + hi) / 2
        if h(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def symmetric_alpha(m: int, p: float) -> float:
    """The fixed point alpha < 1/2 of the symmetric map above p(m).

    Above p(m) the fixed points are alpha < 1/2 < 1 - alpha, with g(x) > x
    below alpha and g(x) < x between alpha and the repelling point 1/2.
    """
    f = policy(m, p, p)
    with mp.workdps(DIGITS):
        return float(_bisect(lambda x: g(f, x) - x, mpf(0), mpf("0.5") - mpf("1e-20")))


def fixed_points_by_roots(f: list) -> list:
    """Real roots in [0, 1] of g(x) - x, from the power-basis polynomial."""
    m = len(f) - 1
    with mp.workdps(DIGITS):
        coeffs = [mpf(0)] * (m + 1)  # coeffs[n] multiplies x^n
        for k in range(m + 1):
            for j in range(m - k + 1):
                coeffs[k + j] += f[k] * math.comb(m, k) * math.comb(m - k, j) * (-1) ** j
        coeffs[1] -= 1
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)
        return sorted(
            mpmath.re(r) for r in roots if abs(mpmath.im(r)) < mpf("1e-30") and -1e-30 <= mpmath.re(r) <= 1 + 1e-30
        )


def monotone_limit(f: list, pi_0: float) -> float:
    """Limit from pi_0 of an increasing map: the nearest fixed point it moves toward."""
    roots = fixed_points_by_roots(f)
    with mp.workdps(DIGITS):
        x = mpf(pi_0)
        for r in roots:
            if abs(r - x) < mpf("1e-40"):
                return float(r)
        if g(f, x) > x:
            above = [r for r in roots if r > x]
            if not above:
                raise OracleError(f"orbit from {pi_0} rises but no fixed point lies above it")
            return float(min(above))
        below = [r for r in roots if r < x]
        if not below:
            raise OracleError(f"orbit from {pi_0} falls but no fixed point lies below it")
        return float(max(below))


def marginals(f: list, pi_0: float, horizon: int) -> list:
    """pi_0 .. pi_T of the marginal recursion pi_{t+1} = g(pi_t)."""
    with mp.workdps(DIGITS):
        out = [mpf(pi_0)]
        for _ in range(horizon):
            out.append(g(f, out[-1]))
        return [float(v) for v in out]


def within_band(estimate: float, mean: float, n: float) -> bool:
    """Is a mean of n Bernoulli(mean) draws consistent with `estimate`, at BAND_SE standard errors?

    The test is n * KL(estimate || mean) <= BAND_SE^2 / 2: for large n this is
    |estimate - mean| <= BAND_SE * sqrt(mean (1 - mean) / n), and by the
    Chernoff bound it rejects a correct estimate with probability at most
    2 exp(-BAND_SE^2 / 2) for any n, including the few-replication case where
    the normal approximation fails.  A degenerate mean (0 or 1) must be met
    exactly.
    """
    if mean in (0.0, 1.0):
        return estimate == mean
    q = min(max(estimate, 0.0), 1.0)
    kl = 0.0
    if q > 0.0:
        kl += q * math.log(q / mean)
    if q < 1.0:
        kl += (1.0 - q) * math.log((1.0 - q) / (1.0 - mean))
    return n * kl <= BAND_SE * BAND_SE / 2.0
