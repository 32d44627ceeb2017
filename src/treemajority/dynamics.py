"""Fixed points, stability, trajectories, and phase thresholds of the update map.

Fixed points and the symmetric-regime threshold p(m) share one root finder,
``_bernstein_roots``: Descartes' rule of signs and de Casteljau subdivision on
Bernstein coefficients (Lane & Riesenfeld 1981; Mourrain & Rouillier 2009).
It is given the coefficients of a polynomial h and nothing else: h and h'
at a point are Horner's rule on them (``model.bernstein_horner``), and it
counts its own evaluations of h.  Fixed points are the roots of
h(x) = g(x) - x, with coefficients f(k) - k/m; p(m) is the root of
g'(1/2) - 1 = E|S_N| - 1 as a polynomial in p, with N ~ Binomial(m, p) and
S a simple symmetric random walk.  Limits of the recursion
pi_{t+1} = g(pi_t) are predicted from the fixed-point layout using the
cobweb argument for strictly increasing maps.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .model import MAX_CHILDREN, ModelParams, bernstein_horner, bernstein_scaled
from .model import _check_int, _check_prob
from .update_map import UpdateMap, g_eval, g_prime, g_value

__all__ = [
    "ATTRACTIVE",
    "REPULSIVE",
    "NEUTRAL",
    "SolverError",
    "UnsupportedRegimeError",
    "IdentityMapError",
    "FixedPoint",
    "FixedPointSet",
    "Trajectory",
    "ThresholdResult",
    "find_fixed_points",
    "classify_stability",
    "iterate_dynamics",
    "predict_limit",
    "solve_threshold",
    "m3_pb1_closed_form",
]

ATTRACTIVE = "attractive"
REPULSIVE = "repulsive"
NEUTRAL = "neutral"

_STABILITY_TOL = 1e-8
# the one precision of each answer: final bracket width of an interior fixed
# point, final bracket width of p(m), and the step that ends an orbit
_FIXED_POINT_TOL = 1e-13
_THRESHOLD_TOL = 1e-12
_STEP_TOL = 1e-13


class SolverError(RuntimeError):
    """A solver could not reach an answer its structure guarantees."""


class UnsupportedRegimeError(RuntimeError):
    """The requested analysis is outside the regimes with proven structure."""


class IdentityMapError(UnsupportedRegimeError):
    """The update map is the identity, so every point of [0,1] is fixed."""


@dataclass(frozen=True)
class FixedPoint:
    value: float
    stability: str  # one of ATTRACTIVE / REPULSIVE / NEUTRAL
    tangent: bool  # curve touches the diagonal without crossing it
    residual: float  # |g(value) - value|


@dataclass(frozen=True)
class FixedPointSet:
    points: tuple  # FixedPoint entries, ascending by value

    @property
    def values(self) -> tuple:
        return tuple(fp.value for fp in self.points)


@dataclass(frozen=True)
class Trajectory:
    values: tuple  # pi_0 .. pi_T, Python floats
    converged: bool
    limit: Optional[float]


@dataclass(frozen=True)
class ThresholdResult:
    m: int
    p_threshold: float
    bracket_width: float
    evaluations: int
    at_boundary: bool = False  # m = 2: the slope reaches 1 only at p = 1


def _stability_label(slope: float) -> str:
    mag = abs(slope)
    if mag < 1.0 - _STABILITY_TOL:
        return ATTRACTIVE
    if mag > 1.0 + _STABILITY_TOL:
        return REPULSIVE
    return NEUTRAL


def _rounding_bound(m: int) -> float:
    """Absolute rounding bound on h and on its Bernstein coefficients, for degree m.

    The isolator evaluates h by Horner's rule on its own binomial-scaled
    coefficients (``model.bernstein_horner``), which lie in [-1, 1] (f(k) - k/m
    for fixed points, E|S_s| - 1 for the threshold): each term carries at most
    3(m+1) unit roundoffs of relative error, so h is within 1.5 (m+1) eps; a
    de Casteljau coefficient is m rounds of convex combinations of values in
    [-1, 1].  Either way the absolute error stays below 4 (m+1) eps.  The
    bound only decides that a quantity is zero to rounding; signs are always
    taken as they are.
    """
    return 4.0 * (m + 1) * sys.float_info.epsilon


def _fixed_point(gm: UpdateMap, value: float, tangent: bool) -> FixedPoint:
    return FixedPoint(
        value=value,
        stability=_stability_label(g_prime(gm, value)),
        tangent=bool(tangent),
        residual=abs(g_eval(gm, value) - value),
    )


def _bisect(h, a: float, b: float, fa: float, tol: float) -> tuple:
    """Final bracket (a, b) of a sign change of h, of width at most tol; (x, x) on an exact zero."""
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = h(mid)
        if fm == 0.0:
            return mid, mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return a, b


def _signs(c: list) -> list:
    """Signs (+1.0 or -1.0) of the nonzero entries of a coefficient list, in order."""
    return [1.0 if v > 0.0 else -1.0 for v in c if v != 0.0]


def _changes(signs: list) -> int:
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _split(c: list, t: float) -> tuple:
    """De Casteljau: Bernstein coefficients of the same polynomial on [0, t] and on [t, 1]."""
    s = 1.0 - t
    left, right = [c[0]], [c[-1]]
    while len(c) > 1:
        c = [s * a + t * b for a, b in zip(c, c[1:])]
        left.append(c[0])
        right.append(c[-1])
    return left, right[::-1]


def _bernstein_roots(coeffs: list, tol: float) -> tuple:
    """(roots, evaluations) of the polynomial h in [0, 1] whose Bernstein coefficients are ``coeffs``.

    ``roots`` holds (root, tangent, final bracket width) per root, ascending;
    ``evaluations`` counts the evaluations of h.  h and h' are Horner's rule
    on the scaled ``coeffs`` and on the scaled n (c[k+1] - c[k]), so every
    value the isolator reads comes from the coefficients it is given.  An
    endpoint is a root iff its coefficient is zero.  An interval whose
    coefficients change sign once holds one root, bisected on h to ``tol``;
    one whose coefficient differences change sign once holds one extremum,
    bisected on h', and the sign of h there decides between no root, two
    simple roots and a double (tangent) root; any other interval is split at
    its midpoint.  Adjacent roots merge when h is within ``_rounding_bound``
    of zero on the whole gap between them.
    """
    n = len(coeffs) - 1
    noise = _rounding_bound(n)
    values = bernstein_scaled(coeffs)
    slopes = bernstein_scaled([n * (b - a) for a, b in zip(coeffs, coeffs[1:])])
    evaluations = 0

    def h(x: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return bernstein_horner(values, x)

    # (final bracket, sign of h just left of the root, sign just right of it), ascending
    found: list = []

    def isolate(c: list, a: float, b: float) -> None:
        """Append the roots of h in the open interval (a, b), where c are its coefficients."""
        s, d = _signs(c), _signs([y - x for x, y in zip(c, c[1:])])
        changes = _changes(s)
        if changes == 0:
            return
        left, right = s[0], s[-1]
        one_extremum = _changes(d) == 1
        if changes == 1 or (one_extremum and left != right):
            found.append((_bisect(h, a, b, left, tol), left, right))
        elif one_extremum:
            lo, hi = _bisect(lambda x: bernstein_horner(slopes, x), a, b, d[0], tol)
            xc = 0.5 * (lo + hi)
            v = h(xc)
            if abs(v) <= noise:
                found.append(((lo, hi), left, right))
            elif (v > 0.0) != (left > 0.0):
                found.append((_bisect(h, a, xc, left, tol), left, -left))
                found.append((_bisect(h, xc, b, v, tol), -left, right))
        elif b - a <= tol or all(abs(v) <= noise for v in c):
            # a cluster no finer split can resolve: one point
            found.append(((a, b), left, right))
        else:
            mid = 0.5 * (a + b)
            lower, upper = _split(c, 0.5)
            isolate(lower, a, mid)
            if upper[0] == 0.0:
                found.append(((mid, mid), _signs(lower)[-1], _signs(upper)[0]))
            isolate(upper, mid, b)

    isolate(coeffs, 0.0, 1.0)

    def flat(a: float, b: float) -> bool:
        """h is within rounding of zero on all of [a, b]."""
        upper = _split(coeffs, a)[1]
        return all(abs(v) <= noise for v in _split(upper, (b - a) / (1.0 - a))[0])

    # [first root, last root, bracket start, bracket end, sign left of first, of last]
    clusters: list = []
    for (lo, hi), left, right in found:
        x = 0.5 * (lo + hi)
        if clusters and flat(clusters[-1][1], x):
            clusters[-1][1], clusters[-1][3], clusters[-1][5] = x, hi, right
        else:
            clusters.append([x, x, lo, hi, left, right])
    roots = [(0.5 * (x0 + x1), left == right, hi - lo) for x0, x1, lo, hi, left, right in clusters]
    if coeffs[0] == 0.0:
        roots.insert(0, (0.0, False, 0.0))
    if coeffs[-1] == 0.0:
        roots.append((1.0, False, 0.0))
    return roots, evaluations


def _fixed_points(gm: UpdateMap) -> FixedPointSet:
    """``find_fixed_points`` on a map already built."""
    m = gm.params.m
    coeffs = [f - k / m for k, f in enumerate(gm.coeffs)]
    if max(map(abs, coeffs)) <= _rounding_bound(m):
        raise IdentityMapError(
            "update map coincides with the identity; every point of [0,1] is fixed"
        )
    roots, _ = _bernstein_roots(coeffs, _FIXED_POINT_TOL)
    if gm.params.is_symmetric:
        # f(m-k) = 1 - f(k) exactly, so the exact roots mirror about 1/2 and 1/2 is one of them
        i = min(range(len(roots)), key=lambda j: abs(roots[j][0] - 0.5))
        roots[i] = (0.5, *roots[i][1:])
    points = tuple(_fixed_point(gm, val, tang) for val, tang, _ in roots)
    return FixedPointSet(points=points)


def find_fixed_points(params: ModelParams) -> FixedPointSet:
    """All solutions of g(x) = x in [0, 1], with stability and tangency flags.

    They are the roots of h(x) = g(x) - x, whose Bernstein coefficients are
    f(k) - k/m; interior roots are bisected to 1e-13.
    """
    return _fixed_points(UpdateMap.from_params(params))


def classify_stability(gm: UpdateMap, x_star: float) -> str:
    """Attractive / repulsive / neutral by |g'(x*)| against 1 (tolerance 1e-8)."""
    x_star = float(x_star)
    if abs(g_eval(gm, x_star) - x_star) > 1e-8:
        raise ValueError(f"x_star={x_star!r} is not a fixed point of the map")
    return _stability_label(g_prime(gm, x_star))


def _iterate(gm: UpdateMap, pi_0: float, max_steps: int, fixed_points) -> Trajectory:
    """``iterate_dynamics`` on a map already built; ``fixed_points()`` gives its
    fixed points and is called only on convergence."""
    pi_0 = _check_prob("pi_0", pi_0)
    max_steps = _check_int("max_steps", max_steps, 1)
    values = [pi_0]
    x = pi_0
    converged = False
    scaled = gm._values
    for _ in range(max_steps):
        x_next = g_value(scaled, x)  # g_eval(gm, x) without its checks: x stays in [0, 1]
        values.append(x_next)
        if abs(x_next - x) < _STEP_TOL:
            x = x_next
            converged = True
            break
        x = x_next
    limit: Optional[float] = None
    if converged:
        try:
            nearest = min(fixed_points().points, key=lambda fp: abs(fp.value - x))
            if abs(nearest.value - x) <= 100.0 * _STEP_TOL:
                limit = nearest.value
        except IdentityMapError:
            limit = x  # every point is fixed, the trajectory is constant
    return Trajectory(values=tuple(values), converged=converged, limit=limit)


def iterate_dynamics(params: ModelParams, pi_0: float, max_steps: int = 10**6) -> Trajectory:
    """Iterate pi_{t+1} = g(pi_t) until successive iterates differ by < 1e-13.

    Convergence is declared on the successive-difference criterion (residuals
    creep too slowly near tangencies); on convergence the limit is the nearest
    located fixed point when it lies within 100 times that step (1e-11) of
    the final iterate, else None.  Each iterate is bit-equal to ``g_eval`` of
    the one before it.
    """
    gm = UpdateMap.from_params(params)
    return _iterate(gm, pi_0, max_steps, lambda: _fixed_points(gm))


def _predict(gm: UpdateMap, fps: FixedPointSet, pi_0: float) -> float:
    """``predict_limit`` on a map already built and its fixed points."""
    m = gm.params.m
    # h = g - x just right of 0: the sign of its first nonzero coefficient f(k) - k/m
    rising = next(f > k / m for k, f in enumerate(gm.coeffs) if f != k / m)
    below = above = None
    for fp in fps.points:
        if fp.value == pi_0:
            return fp.value
        if fp.value > pi_0:
            above = fp.value
            break
        below = fp.value
        if fp.value > 0.0 and not fp.tangent:
            rising = not rising  # h changes sign at a crossing root
    limit = above if rising else below
    if limit is None:
        raise SolverError(f"no fixed point {'above' if rising else 'below'} pi_0={pi_0!r}")
    return limit


def predict_limit(params: ModelParams, pi_0: float) -> float:
    """Limit of the recursion from pi_0, read off the fixed-point layout.

    The map is strictly increasing, so the orbit moves monotonically, up where
    h = g - x > 0 and down where h < 0, to the first fixed point that way; a
    fixed point is its own limit.  The sign of h on each gap between reported
    points comes from the root set alone, with no tolerance and for any number
    of points: just right of 0 it is the sign of the first nonzero coefficient
    f(k) - k/m, and it flips at every root in (0, 1) not flagged tangent.
    Monotonicity: moving one child from R to B can only raise the B-minus-R
    success count, so the steps f(k+1) - f(k) are nonnegative,
    g' = m sum (f(k+1) - f(k)) B_{k,m-1} is nonnegative, and a nonconstant g
    is strictly increasing.  The computed steps are sums of nonnegative terms
    (``model.policy_differences``), so the computed g' is never negative
    either and there is nothing to check.
    """
    pi_0 = _check_prob("pi_0", pi_0)
    gm = UpdateMap.from_params(params)
    return _predict(gm, _fixed_points(gm), pi_0)


def _trajectory_request(params: ModelParams, pi_0: float, max_steps: int, predict: bool) -> tuple:
    """(``iterate_dynamics``, ``predict_limit`` or None) from one map and at most one root set.

    The trajectory names its limit and the prediction reads the basins
    separately, as the two public functions do, but both read the same fixed
    points, found at most once.
    """
    gm = UpdateMap.from_params(params)
    fixed_points = functools.cache(functools.partial(_fixed_points, gm))
    traj = _iterate(gm, pi_0, max_steps, fixed_points)
    return traj, (_predict(gm, fixed_points(), traj.values[0]) if predict else None)


def _threshold_coeffs(m: int) -> list:
    """E|S_s| - 1 for s = 0..m, each rounded once from integers (see ``solve_threshold``)."""
    return [-1.0] + [
        (s * math.comb(s - 1, (s - 1) // 2) - 2 ** (s - 1)) / 2 ** (s - 1) for s in range(1, m + 1)
    ]


def solve_threshold(m: int) -> ThresholdResult:
    """The success rate p(m) at which the symmetric-regime slope at 1/2 crosses 1.

    At x = 1/2 each child is B with probability 1/2 whatever its success, so
    g'(1/2) = E|S_N| with N ~ Binomial(m, p) successful children and S a simple
    symmetric random walk: g'(1/2) - 1 has Bernstein coefficients in p
    c_0 = -1, c_s = E|S_s| - 1 = s C(s-1, floor((s-1)/2)) / 2^(s-1) - 1.  They run
    -1, 0, 0, 1/2, 1/2, 7/8, 7/8, ... and never decrease, so for m >= 3 one sign
    change certifies p(m) unique in (0, 1), and ``_bernstein_roots`` bisects it
    to 1e-12; for m = 2 the only root is the endpoint p = 1 (``at_boundary``).
    """
    m = _check_int("m", m, 2, MAX_CHILDREN)
    [(p_m, _, width)], evaluations = _bernstein_roots(_threshold_coeffs(m), _THRESHOLD_TOL)
    return ThresholdResult(
        m=m, p_threshold=p_m, bracket_width=width, evaluations=evaluations, at_boundary=p_m == 1.0
    )


def m3_pb1_closed_form(p_r: float) -> FixedPointSet:
    """Fixed points for m = 3, p_b = 1 from the exact quadratic factorization.

    h(x) = (1 - x) * (A x^2 + B x + C) with, writing q = 1 - p_r,

        A = q^3/2 - 3q + 2,   B = -q^3 + 3q - 1,   C = q^3/2,

    and discriminant B^2 - 4AC = (2 p_r - 1)(p_r + 1 + sqrt3)(p_r - (sqrt3 - 1)).
    The root 1 is always present; the quadratic contributes no root for
    p_r < sqrt3 - 1, a double (tangent) root at sqrt3 - 1, and two simple
    roots above it.
    """
    p_r = _check_prob("p_r", p_r)
    gm = UpdateMap.from_params(ModelParams(3, 1.0, p_r))
    boundary = math.sqrt(3.0) - 1.0
    entries: list[tuple[float, bool]] = []
    if p_r < boundary:
        pass
    elif p_r == boundary:
        entries.append((2.0 / 3.0 - 1.0 / math.sqrt(3.0), True))
    else:
        q = 1.0 - p_r
        a = 0.5 * q**3 - 3.0 * q + 2.0
        b = -(q**3) + 3.0 * q - 1.0
        disc = (2.0 * p_r - 1.0) * (p_r + 1.0 + math.sqrt(3.0)) * (p_r - boundary)
        sq = math.sqrt(max(disc, 0.0))
        for root in ((-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)):
            entries.append((min(max(root, 0.0), 1.0), False))
    entries.append((1.0, False))
    points = tuple(_fixed_point(gm, val, tang) for val, tang in sorted(entries))
    return FixedPointSet(points=points)
