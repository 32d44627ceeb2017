"""Fixed points, stability, trajectories, and phase thresholds of the update map.

Fixed points and the symmetric-regime threshold p(m) share one root finder,
``_bernstein_roots``: Descartes' rule of signs and de Casteljau subdivision on
Bernstein coefficients (Lane & Riesenfeld 1981; Mourrain & Rouillier 2009).
It is given the coefficients of a polynomial h and nothing else: h and h'
at a point are Horner's rule on them (``model.bernstein_horner``), and it
counts its own evaluations of h.  A root is bisected to adjacent doubles
(``_bisect``).  Fixed points are the roots of h(x) = g(x) - x, with
coefficients f(k) - k/m; p(m) is the root of T(p) = g'(1/2) - 1 = E|S_N| - 1
as a polynomial in p, with N ~ Binomial(m, p) and S a simple symmetric random
walk.  A symmetric map's h is odd about 1/2: its left half is rooted, with
1/2 divided out and T(p) read for the side of p(m), and mirrored.  A point's
stability and the limits of the recursion pi_{t+1} = g(pi_t) are both read
from the signs of h on the gaps between the points, by the cobweb argument
for strictly increasing maps, with no slope and no tolerance.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from collections import namedtuple

from .model import MAX_CHILDREN, ModelParams, bernstein_horner, bernstein_scaled
from .model import _check_int, _check_prob
from .update_map import UpdateMap, g_eval

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
    "iterate_dynamics",
    "predict_limit",
    "solve_threshold",
    "m3_pb1_closed_form",
]

ATTRACTIVE = "attractive"
REPULSIVE = "repulsive"
NEUTRAL = "neutral"

# the step that ends an orbit
_STEP_TOL = 1e-13
# h above this many rounding bounds at a gap's midpoint is not flat on the gap (see _bernstein_roots)
_FLAT_PROBE = 4.0
# T(p) read above this many of its error bounds E has the exact sign, with E to spare (see _fixed_points)
_CERTIFIED = 2.0


class SolverError(RuntimeError):
    """A solver could not reach an answer its structure guarantees."""


class UnsupportedRegimeError(RuntimeError):
    """The requested analysis is outside the regimes with proven structure."""


class IdentityMapError(UnsupportedRegimeError):
    """The update map is the identity, so every point of [0,1] is fixed: every f(k) - k/m is 0.0."""


# stability: where orbits beside the point go (see _point_set): ATTRACTIVE / REPULSIVE / NEUTRAL iff
# tangent, the curve touching the diagonal without crossing it; residual: |g(value) - value|
FixedPoint = namedtuple("FixedPoint", "value stability tangent residual")


class FixedPointSet(namedtuple("FixedPointSet", "points gap_signs")):
    """Fixed points, and the sign of h = g - x on each gap from 0 to 1 around them:
    +1 or -1, or 0 on the empty gap beside a point at 0 or 1 where h is exactly
    zero; a symmetric map's gaps right of 1/2 are those left of it, negated.
    A point is tangent iff the gaps on its two sides have the same sign.
    ``points`` holds FixedPoint entries, ascending by value; gap i ends at
    point i, so ``gap_signs`` has one more entry than ``points``."""

    __slots__ = ()

    @property
    def values(self) -> tuple:
        return tuple(fp.value for fp in self.points)


# values: pi_0 .. pi_T, Python floats; limit: a fixed point, or None
Trajectory = namedtuple("Trajectory", "values converged limit")

# at_boundary: m = 2, where the slope reaches 1 only at p = 1
ThresholdResult = namedtuple(
    "ThresholdResult", "m p_threshold bracket_width evaluations at_boundary", defaults=(False,)
)


def _rounding_bound(m: int) -> float:
    """Absolute rounding bound on h and on its Bernstein coefficients, for degree m: 4 (m+1) eps.

    It decides only that a quantity is zero to rounding (a cluster, a flat
    gap, a double root at an extremum); signs are always taken as they are.
    Horner's rule (``model.bernstein_horner``) keeps h within 1.5 (m+1) eps
    max|c| of the exact value, and a de Casteljau coefficient is m rounds of
    convex combinations, so the bound covers both for coefficients within
    8/3 of zero.  It is applied to the lists ``_bernstein_roots`` is given,
    whose reach max|c| is:
    - an asymmetric map's f(k) - k/m: at most 1, as f(k) and k/m lie in [0, 1];
    - a symmetric map's deflated q (``_fixed_points``): up to 2.6721, at
      m = 64, p = 0.99, over m in {3, 4, 5, 8, 16, 32, 64} and p = k/100
      (a test pins it).  Past 8/3, so there Horner's first-order bound is
      1.002 times this value;
    - the threshold's E|S_s| - 1: up to 5.36 (m = 64), but its one sign
      change is bisected without any decision this bound makes.
    This value stays as it is: the decisions it makes set the fixed points
    to the byte.
    """
    return 4.0 * (m + 1) * sys.float_info.epsilon


def _point_set(gm: UpdateMap, values: list, gap_signs: tuple) -> FixedPointSet:
    """Fixed points ``values`` of ``gm``, ascending, labelled from their two gaps alone.

    g is increasing, so orbits beside a point go up where h > 0 and down where
    h < 0: it attracts iff h >= 0 on its left and <= 0 on its right, is
    neutral iff tangent (both gaps of one sign), and else repels; gaps (0, 0)
    would be the identity map, refused before this.
    """
    points = tuple(
        FixedPoint(
            x,
            NEUTRAL if left == right else ATTRACTIVE if left >= 0 >= right else REPULSIVE,
            left == right,
            abs(g_eval(gm, x) - x),
        )
        for x, left, right in zip(values, gap_signs, gap_signs[1:])
    )
    return FixedPointSet(points=points, gap_signs=gap_signs)


def _horner_bound(c: list) -> float:
    """E, the bound on ``bernstein_horner``'s error for the form with Bernstein coefficients c.

    1.5 (n+1) eps max|c| for rounding, to first order, and (n+1) least
    subnormals for underflow, with max|c| read from the list itself.
    """
    return len(c) * (1.5 * sys.float_info.epsilon * max(map(abs, c)) + 5e-324)


def _bisect(scaled: list, a: float, b: float, fa: float) -> tuple:
    """(final bracket, midpoints evaluated) of the sign change in (a, b) of the form ``scaled``.

    Bisection on Horner's rule (``model.bernstein_horner``) over the
    ``bernstein_scaled`` list ``scaled``: each midpoint 0.5 (a + b) is decided
    by the sign read there (``fa`` carries the sign just right of a), until no
    double splits the bracket, which ends as adjacent doubles, or as (x, x) on
    a midpoint that reads exactly 0.0.  A bracket at 0 halves down the
    exponent, so a root near 0 keeps relative accuracy; a bracket in [0, 1]
    has at most 1,074 midpoints, for a root at the least subnormal 2^-1074.
    """
    up, count = fa > 0.0, 0
    while a < (mid := 0.5 * (a + b)) < b:
        count += 1
        fm = bernstein_horner(scaled, mid)
        if fm == 0.0:
            return (mid, mid), count
        if (fm > 0.0) == up:
            a = mid
        else:
            b = mid
    return (a, b), count


def _signs(c: list) -> list:
    """Signs (+1 or -1) of the nonzero entries of a coefficient list, in order."""
    return [1 if v > 0.0 else -1 for v in c if v != 0.0]


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


def _bernstein_roots(coeffs: list) -> tuple:
    """(roots, gap_signs, evaluations) of h in [0, 1], whose Bernstein coefficients are ``coeffs``.

    ``roots`` holds (root, final bracket width) per root, ascending;
    ``gap_signs`` the sign of h on each gap around them, as in ``FixedPointSet``:
    the sign of the first nonzero coefficient, then the sign just right of each
    root; ``evaluations`` counts the evaluations of h.  h and h' are Horner's rule
    on the scaled ``coeffs`` and on the scaled n (c[k+1] - c[k]), so every
    value the isolator reads comes from the coefficients it is given.  An
    endpoint is a root iff its coefficient is zero.  An interval whose
    coefficients change sign once holds one root, bisected on h to adjacent
    doubles; one whose coefficient differences change sign once holds one
    extremum, bisected on h', and the sign of h there decides between no
    root, two simple roots and a double (tangent) root.  Each bisection
    evaluates every midpoint (``_bisect``).  Any other interval is split at
    its midpoint, or is one point when no double splits it or its
    coefficients are all within ``_rounding_bound`` of zero.  Adjacent roots
    merge when h is within that bound of zero on the whole gap between them,
    which two de Casteljau splits decide; they run only where h at the gap's
    midpoint is within ``_FLAT_PROBE`` bounds, the one place that can hold.
    """
    n = len(coeffs) - 1
    noise = _rounding_bound(n)
    values = bernstein_scaled(coeffs)
    slopes = None  # h', built on first use: only an extremum reads it
    evaluations = 0

    def h(x: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return bernstein_horner(values, x)

    def root(a: float, b: float, fa: float) -> tuple:
        """Final bracket of the root of h in (a, b), where h just right of a has fa's sign."""
        nonlocal evaluations
        bracket, count = _bisect(values, a, b, fa)
        evaluations += count
        return bracket

    # (final bracket, sign of h just right of the root), ascending
    found: list = []

    def isolate(c: list, a: float, b: float) -> None:
        """Append the roots of h in the open interval (a, b), where c are its coefficients."""
        nonlocal slopes
        s = _signs(c)
        changes = _changes(s)
        if changes == 0:
            return
        d = _signs([y - x for x, y in zip(c, c[1:])])
        left, right, extrema = s[0], s[-1], _changes(d)
        if changes == 1 or (extrema == 1 and left != right):
            found.append((root(a, b, left), right))
        elif extrema == 1:
            if slopes is None:
                slopes = bernstein_scaled([n * (y - x) for x, y in zip(coeffs, coeffs[1:])])
            (lo, hi), _ = _bisect(slopes, a, b, d[0])
            xc = 0.5 * (lo + hi)
            v = h(xc)
            if abs(v) <= noise:
                found.append(((lo, hi), right))
            elif (v > 0.0) != (left > 0.0):
                found.append((root(a, xc, left), _signs([v])[0]))
                found.append((root(xc, b, v), right))
        elif not a < 0.5 * (a + b) < b or all(abs(v) <= noise for v in c):
            # a cluster no finer split can resolve: one point
            found.append(((a, b), right))
        else:
            mid = 0.5 * (a + b)
            lower, upper = _split(c, 0.5)
            isolate(lower, a, mid)
            if upper[0] == 0.0:
                found.append(((mid, mid), _signs(upper)[0]))
            isolate(upper, mid, b)

    isolate(coeffs, 0.0, 1.0)
    del isolate  # its closure cell refers to itself: a reference cycle per call

    def flat(a: float, b: float) -> bool:
        """h is within rounding of zero on all of [a, b].

        The two splits put each coefficient of h on [a, b] within 2 noise of
        the exact one, so when all of them are within noise, the exact h,
        a convex combination of them, is within 3 noise of zero on [a, b],
        and Horner's rule (within 1.5 (n+1) eps = 0.375 noise) reads at most
        3.375 noise at any point there.  So h read above _FLAT_PROBE = 4
        noise at the midpoint rules the gap out without the two O(n^2) splits.
        """
        if abs(h(0.5 * (a + b))) > _FLAT_PROBE * noise:
            return False
        upper = _split(coeffs, a)[1]
        return all(abs(v) <= noise for v in _split(upper, (b - a) / (1.0 - a))[0])

    # [first root, last root, bracket start, bracket end, sign right of the last]
    clusters: list = []
    for (lo, hi), right in found:
        x = 0.5 * (lo + hi)
        if clusters and flat(clusters[-1][1], x):
            clusters[-1][1], clusters[-1][3], clusters[-1][4] = x, hi, right
        else:
            clusters.append([x, x, lo, hi, right])
    roots = [(0.5 * (x0 + x1), hi - lo) for x0, x1, lo, hi, _ in clusters]
    gap_signs = _signs(coeffs)[:1] + [cluster[4] for cluster in clusters]
    if coeffs[0] == 0.0:
        roots.insert(0, (0.0, 0.0))
        gap_signs.insert(0, 0)
    if coeffs[-1] == 0.0:
        roots.append((1.0, 0.0))
        gap_signs.append(0)
    return roots, tuple(gap_signs), evaluations


def _fixed_points(gm: UpdateMap) -> FixedPointSet:
    """``find_fixed_points`` on a map already built.

    A symmetric map's h is odd about its root 1/2.  If h's coefficients change
    sign once and c_0 != 0, 1/2 is the only root (Descartes).  Else T(p) =
    h'(1/2) = g'(1/2) - 1 is read on ``solve_threshold``'s polynomial: within
    2E (``_CERTIFIED`` times its ``_horner_bound``) the side of p(m) is
    undecided, and 1/2 stands alone.  Else h on [0, 1/2], with coefficients
    d_j in w = 2x, is (1 - w) q(w): q has coefficients d_j m / (m - j), j < m,
    the last q(1) = -h'(1/2)/2, set to -T(p)/2.  Each root w of q gives alpha = w/2 and 1.0 - alpha.
    1/2 alone has gaps sign(c_0), -sign(c_0), as h is odd, also where c_m rounds to 0.0.
    """
    m = gm.params.m
    coeffs = [f - k / m for k, f in enumerate(gm.coeffs)]
    if not any(coeffs):
        raise IdentityMapError("update map coincides with the identity; every point of [0,1] is fixed")
    if not gm.params.is_symmetric:
        roots, gap_signs, _ = _bernstein_roots(coeffs)
        return _point_set(gm, [x for x, _ in roots], gap_signs)
    signs = _signs(coeffs)
    if _changes(signs) > 1 or coeffs[0] == 0.0:
        _, scaled, bound = _threshold_form(m)
        slope = bernstein_horner(scaled, gm.params.p_b)
        if abs(slope) > _CERTIFIED * bound:
            q = [d * (m / (m - j)) for j, d in enumerate(_split(coeffs, 0.5)[0][:-2])] + [-0.5 * slope]
            roots, gap_signs, _ = _bernstein_roots(q)
            alphas = [0.5 * w for w, _ in roots]
            values = alphas + [0.5] + [1.0 - x for x in reversed(alphas)]
            return _point_set(gm, values, gap_signs + tuple(-s for s in reversed(gap_signs)))
    return _point_set(gm, [0.5], (signs[0], -signs[0]))


def find_fixed_points(params: ModelParams) -> FixedPointSet:
    """All solutions of g(x) = x in [0, 1], with stability and tangency flags.

    They are the roots of h(x) = g(x) - x, whose Bernstein coefficients are
    f(k) - k/m; interior roots are bisected to adjacent doubles (``_bisect``).
    For p_b = p_r, f(m-k) = 1 - f(k): h is odd about 1/2, and the points are
    alpha, 1/2, 1.0 - alpha (``_fixed_points``).  Raises ``IdentityMapError`` only where
    every coefficient is 0.0 (m = 2, p_b = p_r = 1); m = 2, p = 1 - 1e-9 has one point, 1/2.
    """
    return _fixed_points(UpdateMap.from_params(params))


def iterate_dynamics(params: ModelParams, pi_0: float, max_steps: int = 10**6) -> Trajectory:
    """Iterate pi_{t+1} = g(pi_t) until successive iterates differ by < 1e-13.

    Convergence is declared on the successive-difference criterion (residuals
    creep too slowly near tangencies); on convergence the limit is the nearest
    located fixed point when it lies within 100 times that step (1e-11) of
    the final iterate, else None.  Each iterate is bit-equal to ``g_eval`` of
    the one before it.  The orbit is ``_trajectory_request``'s.
    """
    return _trajectory_request(params, pi_0, max_steps, False)[0]


def _predict(fps: FixedPointSet, pi_0: float) -> float:
    """``predict_limit`` on a map's fixed points."""
    values = fps.values
    i = bisect.bisect_left(values, pi_0)  # pi_0 is point i, or lies in gap i
    if i < len(values) and values[i] == pi_0:
        return values[i]
    j = i if fps.gap_signs[i] > 0 else i - 1
    if not 0 <= j < len(values):
        raise SolverError(f"no fixed point {'above' if j == i else 'below'} pi_0={pi_0!r}")
    return values[j]


def predict_limit(params: ModelParams, pi_0: float) -> float:
    """Limit of the recursion from pi_0, read off the fixed-point layout.

    The map is strictly increasing, so the orbit moves monotonically, up where
    h = g - x > 0 and down where h < 0, to the first fixed point that way; a
    fixed point is its own limit.  The direction is the sign of h on the gap
    that holds pi_0, read off the root set's ``gap_signs`` with no evaluation
    of g and no tolerance, for any number of points.
    Monotonicity: moving one child from R to B can only raise the B-minus-R
    success count, so the steps f(k+1) - f(k) are nonnegative,
    g' = m sum (f(k+1) - f(k)) B_{k,m-1} is nonnegative, and a nonconstant g
    is strictly increasing.  The computed steps are sums of nonnegative terms
    (``model.policy_differences``), so the computed g' is never negative
    either and there is nothing to check.
    """
    pi_0 = _check_prob("pi_0", pi_0)
    return _predict(_fixed_points(UpdateMap.from_params(params)), pi_0)


def _trajectory_request(params: ModelParams, pi_0: float, max_steps: int, predict: bool) -> tuple:
    """(``iterate_dynamics``, ``predict_limit`` or None) from one map and at most one root set.

    The package's one orbit: it checks pi_0 and ``max_steps``, iterates, and
    names the limit (the final iterate on the identity map); the prediction
    reads the same fixed points, found at most once.
    """
    pi_0 = _check_prob("pi_0", pi_0)
    max_steps = _check_int("max_steps", max_steps, 1)
    gm = UpdateMap.from_params(params)
    values = [pi_0]
    push, tol = values.append, _STEP_TOL
    up, down = gm._values
    n = len(up) - 1
    x = pi_0
    converged = False
    for _ in range(max_steps):
        # g_eval(gm, x) without its checks, as x stays in [0, 1]: bernstein_horner and
        # the clamp inline, each operation in the same order, so the same bits (a test
        # pins them); the two calls a step cost about a sixth of a long orbit's time
        if x > 0.5:
            b, terms = 1.0 - x, up  # 1 - b == x exactly
        else:
            b, terms = x, down
        a = 1.0 - b
        r = b / a
        acc = 0.0
        for s in terms:
            acc = acc * r + s
        x_next = acc * a**n
        x_next = 0.0 if x_next < 0.0 else (1.0 if x_next > 1.0 else x_next)
        push(x_next)
        if abs(x_next - x) < tol:
            x = x_next
            converged = True
            break
        x = x_next
    fps = None  # the map's fixed points, found on convergence
    limit: float | None = None
    if converged:
        try:
            fps = _fixed_points(gm)
            nearest = min(fps.points, key=lambda fp: abs(fp.value - x))
            if abs(nearest.value - x) <= 100.0 * _STEP_TOL:
                limit = nearest.value
        except IdentityMapError:
            limit = x  # every point is fixed, the trajectory is constant
    traj = Trajectory(values=tuple(values), converged=converged, limit=limit)
    return traj, (_predict(fps or _fixed_points(gm), pi_0) if predict else None)


def _threshold_coeffs(m: int) -> list:
    """E|S_s| - 1 for s = 0..m, each rounded once from integers (see ``solve_threshold``)."""
    return [-1.0] + [
        (s * math.comb(s - 1, (s - 1) // 2) - 2 ** (s - 1)) / 2 ** (s - 1) for s in range(1, m + 1)
    ]


@functools.cache
def _threshold_form(m: int) -> tuple:
    """(coefficients, ``bernstein_scaled`` list, error bound E) of T(p) = g'(1/2) - 1, built once per m."""
    c = _threshold_coeffs(m)
    return c, bernstein_scaled(c), _horner_bound(c)


def solve_threshold(m: int) -> ThresholdResult:
    """The success rate p(m) at which the symmetric-regime slope at 1/2 crosses 1.

    At x = 1/2 each child is B with probability 1/2 whatever its success, so
    g'(1/2) = E|S_N| with N ~ Binomial(m, p) successful children and S a simple
    symmetric random walk: g'(1/2) - 1 has Bernstein coefficients in p
    c_0 = -1, c_s = E|S_s| - 1 = s C(s-1, floor((s-1)/2)) / 2^(s-1) - 1.  They run
    -1, 0, 0, 1/2, 1/2, 7/8, 7/8, ... and never decrease, so for m >= 3 one sign
    change certifies p(m) unique in (0, 1), and ``_bernstein_roots`` bisects it
    to adjacent doubles; for m = 2 the only root is the endpoint p = 1 (``at_boundary``).
    ``_fixed_points`` reads the same T(p) (``_threshold_form``) for a symmetric map's side of p(m).
    ``evaluations`` counts the midpoints bisected: 51 to 58 for m = 3..64.
    """
    m = _check_int("m", m, 2, MAX_CHILDREN)
    [(p_m, width)], _, evaluations = _bernstein_roots(_threshold_form(m)[0])
    return ThresholdResult(
        m=m, p_threshold=p_m, bracket_width=width, evaluations=evaluations, at_boundary=p_m == 1.0
    )


def m3_pb1_closed_form(p_r: float) -> FixedPointSet:
    """Fixed points for m = 3, p_b = 1 from the exact quadratic factorization.

    h(x) = (1 - x) * (A x^2 + B x + C) with, writing q = 1 - p_r,

        A = q^3/2 - 3q + 2,   B = -q^3 + 3q - 1,   C = q^3/2,

    and discriminant B^2 - 4AC = (2 p_r - 1)(p_r + 1 + sqrt3)(p_r - (sqrt3 - 1)).
    The root 1 is always present, with h = 0 on the empty gap beyond it; the
    quadratic contributes no root for p_r < sqrt3 - 1 (gaps +, 0), a double
    (tangent) root at sqrt3 - 1 (+, +, 0), and two simple roots above it
    (+, -, +, 0), the lower one at 0 when p_r = 1 and C = 0 (0, -, +, 0).
    """
    p_r = _check_prob("p_r", p_r)
    gm = UpdateMap.from_params(ModelParams(3, 1.0, p_r))
    boundary = math.sqrt(3.0) - 1.0
    if p_r < boundary:
        values, gap_signs = [], (1, 0)
    elif p_r == boundary:
        values, gap_signs = [2.0 / 3.0 - 1.0 / math.sqrt(3.0)], (1, 1, 0)
    else:
        q = 1.0 - p_r
        a = 0.5 * q**3 - 3.0 * q + 2.0
        b = -(q**3) + 3.0 * q - 1.0
        disc = (2.0 * p_r - 1.0) * (p_r + 1.0 + math.sqrt(3.0)) * (p_r - boundary)
        sq = math.sqrt(max(disc, 0.0))
        values = [min(max(root / (2.0 * a), 0.0), 1.0) for root in (-b - sq, -b + sq)]
        gap_signs = (0 if p_r == 1.0 else 1, -1, 1, 0)
    return _point_set(gm, values + [1.0], gap_signs)
