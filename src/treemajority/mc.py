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

The simulation runs replications in groups: a group's trees are one
``(group size, V)`` boolean array, V the vertex count, each row one tree in
breadth-first order, so the children of consecutive parents are consecutive
and a window of parents is one set of array operations per group, not per
replication or level.  It replays the raw rule, never
f(k): each child's draw is compared with the two scalar rates, and one
signed int8 per child (+1 for a B success, -1 for an R success) is summed
into the vertex's lead, broken by a coin on zero.  A group holds as many
replications as fit one step's variables in ``_UNIFORM_BYTES`` (at least
one, counted at 8 bytes a variable), and reads each step's draws in
breadth-first windows of parents that fit the same budget, so a group never
holds more draws than that, whatever the tree size; the one-step estimator
sizes its chunks of trials by it too.

Only a read's raw words (and a tie search's indices) are allocated
per read.  The outcomes (which hold the tie masks before them), the signs,
the lead and the update's result are written with ``out=`` into one
grow-only ``_Workspace`` per thread, kept across calls, so warm requests
reuse pages they have already touched instead of freeing them to the kernel
and faulting them in on the next window.  A buffer holds one byte per
variable of the largest read it has served, so within ``_UNIFORM_BYTES / 8``
bytes (or one parent's variables, when the budget holds fewer), and a
thread keeps a few; threads never share one.  Results do not depend on the
workspace: every array taken from it is written in full before it is read,
and no kernel writes into its arguments.  What outlives a read is copied
out of it: the initial states and each update into the group's states.

Randomness comes from streams keyed by seed, purpose and time step, each
the 2**64 words of one PCG64DXSM sequence per seed that start at word
((purpose << 32) | time) << 64, reached by jump-ahead (``_Streams``; layout
version ``STREAM_LAYOUT``).  Every Bernoulli variable owns one position i in
its stream and reads the stream's i-th 16-bit head, the i-th uint16 of its
raw words (word i // 4, so 4 variables per word).  A rate p is cut at
K = ceil(p * 2**53) into hi = K >> 37 and lo = K mod 2**37: a head below hi
succeeds, one above fails, and only a head equal to hi with lo != 0 (one
draw in 2**16) reads the 64-bit word at position i of the purpose's
refinement stream (purpose + ``_REFINE``, same seed and time) and
succeeds iff its top 37 bits are below lo.  That is k < K for the 53-bit
k = head * 2**37 + low, so each outcome has probability K / 2**53, exactly as
for a 53-bit uniform compared with p.  A coin is a draw at rate 1/2, whose
cut is (2**15, 0): a head below 2**15, never a refinement word.  Since a
refinement word sits at its variable's position, every position stays below
2**64: ``SimConfig`` refuses R * V >= 2**64 and the one-step estimator
samples * m >= 2**64, V the tree's vertex count.

Step t updates the P_t = 1 + m + ... + m**(D-t-1) parents of levels
0..D-t-1.  Their m * P_t experiment outcomes, for the children at levels
1..D-t, and their P_t tie-break coins sit in two streams of their own,
(seed, ``_STEP``, t) and (seed, ``_COIN``, t), both in breadth-first order:
replication r owns outcome positions r*m*P_t .. (r+1)*m*P_t - 1 and coin
positions r*P_t .. (r+1)*P_t - 1.  Its initial states are positions r*V ..
(r+1)*V - 1 of stream (seed, ``_INIT``, 0), V the tree's vertex count.  So
a group's replications sit next to each other, and every read is one run of
consecutive heads, whole rows of a group or a window of a group of one: one
jump to the word of the first head and one ``random_raw``
(``_Streams.rows``).  ``_Streams.draw`` alone turns such a read into
Bernoulli outcomes and maps a tied head back to its position.  Which bits
feed which vertex depends only on the replication, the step, the vertex and
the variable, not on R, the grouping, the draw windows or the execution
order, so results are reproducible bit-for-bit, and the first replications
of a run are those of any shorter run with the same seed.  Leaves have no
children in the truncation and stay frozen at their initial draw.

The one-step estimator has no time, so its time names the kind of
variable: trial i reads its children's states at positions i*m .. i*m + m - 1
of stream (seed, ``_ONESTEP``, 0), their outcomes at the same positions of
stream (seed, ``_ONESTEP``, 1) and its coin at position i of stream (seed,
``_ONESTEP``, 2).  A chunk of trials reads each kind as one contiguous array,
and positions depend only on the trial and the variable, never on the chunks.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from collections.abc import Callable, Iterator
from itertools import accumulate

import numpy as np
from numpy.random import Generator, PCG64DXSM

from .model import ModelParams, _as_int, _check_int, _check_prob

__all__ = [
    "SimConfig",
    "SimResult",
    "estimate_g_one_step",
    "simulate_tree",
    "independence_check",
]

# bounds the tree's boolean states: about 100 MB for one replication at 10**8 leaves
_LEAF_GUARD = 10**8

# budget on the Bernoulli variables drawn at once, at every tree size, counted
# at 8 bytes a variable: one draw window of a group of tree replications, or a
# chunk of one-step trials.  Their 16-bit heads fill a quarter of it.
_UNIFORM_BYTES = 2 * 2**20

# the stream layout's version: which word of which stream feeds which
# variable.  Version 1 was Philox counter streams; version 2 is jump-ahead
# streams of one PCG64DXSM sequence per seed (``_Streams``)
STREAM_LAYOUT = 2

# stream purposes; purpose + _REFINE holds the refinement words of the
# purpose's tied heads, so no purpose may equal another's purpose + _REFINE
_INIT = 1
_STEP = 0
_ONESTEP = 2
_PAIRS = 3
_REFINE = 4
_COIN = 8

# a stream holds 2**64 words, and a refinement word sits at its variable's
# position, so every position must stay below this
_STREAM_WORDS = 2**64

# a 53-bit draw k = head * 2**37 + low splits into a 16-bit head and 37 low bits
_LOW_BITS = 37

# workspace slots: a read's outcomes at rate i go to slot i, or to slot
# _COINS or _STATES for the coins and the estimator's child states read
# beside them; then an update's signs, lead and result
_COINS, _STATES, _SIGNS, _LEAD, _ADOPTED = range(2, 7)


class _Workspace:
    """One thread's scratch arrays for ``_bernoulli`` and ``_adopt``, kept between calls.

    ``take(slot, shape)`` returns the first prod(shape) elements of the
    slot's buffer in that shape; the buffer grows to the largest array it
    has served and never shrinks.  The view of the slot's last shape is
    kept, so a run of equal windows costs one tuple comparison a take.
    """

    def __init__(self) -> None:
        self.buffers = [
            np.empty(0, dtype=np.int8 if slot in (_SIGNS, _LEAD) else bool) for slot in range(_ADOPTED + 1)
        ]
        self.views = list(self.buffers)

    def take(self, slot: int, shape: tuple[int, ...]) -> np.ndarray:
        view = self.views[slot]
        if view.shape != shape:
            buf, n = self.buffers[slot], math.prod(shape)
            if buf.size < n:
                buf = self.buffers[slot] = np.empty(n, dtype=buf.dtype)
            view = self.views[slot] = buf[:n].reshape(shape)
        return view


class _Local(threading.local):
    """Each thread's own ``workspace``, made on the thread's first use.

    A plain object inside the thread-local one, since every attribute read
    on a ``threading.local`` costs a lookup of the thread's dict.
    """

    def __init__(self) -> None:
        self.workspace = _Workspace()


_LOCAL = _Local()


class _Streams:
    """One PCG64DXSM sequence per seed, reached at any stream's word by jump-ahead.

    Stream (seed, purpose, time) is the 2**64 words of ``PCG64DXSM(seed)``'s
    sequence that start at word ((purpose << 32) | time) << 64, so streams
    never overlap while purpose and time fit in 32 bits.  ``_seek`` restores
    the state the generator was built with and advances it to a word of a
    stream, so the next word read is that word whatever came before: one
    state restore and one jump, not a new generator, per read.
    """

    def __init__(self, seed: int) -> None:
        self._bitgen = PCG64DXSM(seed)
        self._state = self._bitgen.state

    def _seek(self, purpose: int, time: int, word: int) -> PCG64DXSM:
        bitgen = self._bitgen
        bitgen.state = self._state
        bitgen.advance((((purpose << 32) | time) << 64) + word)
        return bitgen

    def heads(self, purpose: int, time: int, pos: int, n: int) -> np.ndarray:
        """The stream's 16-bit heads pos..pos+n-1 (4 per word)."""
        skip = pos % 4
        raw = self._seek(purpose, time, pos // 4).random_raw((skip + n + 3) // 4)
        return raw.view(np.uint16)[skip : skip + n]

    def rows(self, purpose: int, time: int, reps: range, size: int, pos: int, n: int) -> np.ndarray:
        """Heads pos..pos+n-1 of each replication's ``size`` heads, one row per replication.

        Replication r owns the stream's heads r*size .. (r+1)*size - 1, so
        the rows are one read, from the first row's first head to the last
        row's last.  It holds len(reps) * n heads only for whole rows or one
        row; any other read fails to reshape (ValueError) rather than return
        another replication's heads.
        """
        span = (len(reps) - 1) * size + n
        return self.heads(purpose, time, reps.start * size + pos, span).reshape(len(reps), n)

    def draw(
        self,
        purpose: int,
        time: int,
        reps: range,
        size: int,
        pos: int,
        n: int,
        rates: tuple[float, ...],
        slot: int = 0,
    ) -> list[np.ndarray]:
        """Exact Bernoulli outcomes of ``rows(...)``, one (len(reps), n) bool array per rate.

        The head at row r, column c sits at position (reps.start + r) * size
        + pos + c, and a tied one reads the refinement word at the same
        position of stream (seed, purpose + ``_REFINE``, time).  Rate i's
        outcomes are workspace slot ``slot + i`` (see ``_bernoulli``).
        """
        return _bernoulli(
            self.rows(purpose, time, reps, size, pos, n),
            rates,
            lambda r, c: self.word(purpose + _REFINE, time, (reps.start + r) * size + pos + c),
            slot,
        )

    def word(self, purpose: int, time: int, pos: int) -> int:
        """The stream's 64-bit word ``pos``."""
        return self._seek(purpose, time, pos).random_raw()


def _check_seed(seed) -> int:
    """``seed`` as an int in 0..2**64 - 1; a non-integral seed is refused, never truncated."""
    seed = _as_int("seed", seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    return seed


class SimConfig(namedtuple("SimConfig", "params depth horizon pi_0 seed replications")):
    """Tree-simulation run description, checked and coerced on construction.

    ``depth`` is the truncation depth D (leaves sit at depth D); ``horizon``
    is the number of synchronous updates T, which must not exceed D so the
    root marginal stays inside the validity window.
    """

    __slots__ = ()

    def __new__(
        cls, params: ModelParams, depth: int, horizon: int, pi_0: float, seed: int, replications: int
    ) -> "SimConfig":
        depth = _check_int("depth", depth, 1)
        horizon = _check_int("horizon", horizon, 0, depth)
        pi_0 = _check_prob("pi_0", pi_0)
        replications = _check_int("replications", replications, 1)
        seed = _check_seed(seed)
        if params.m**depth > _LEAF_GUARD:
            raise ValueError(f"m**depth = {params.m}**{depth} exceeds the {_LEAF_GUARD:.0e} leaf guard")
        # replication r's initial states are positions r*V .. (r+1)*V - 1, and no step reads more
        vertices = sum(params.m**d for d in range(depth + 1))
        if replications * vertices >= _STREAM_WORDS:
            raise ValueError(
                f"replications * vertices = {replications} * {vertices} reaches a stream's 2**64 positions"
            )
        return super().__new__(cls, params, depth, horizon, pi_0, seed, replications)

    @classmethod
    def _make(cls, iterable) -> "SimConfig":
        return cls(*iterable)  # so _replace checks its fields too


# pi_hat[t]: the root state at time t averaged over replications; ci_half_width: the 95%
# binomial half-width 1.96*sqrt(p(1-p)/R); pair_correlation: the maximum absolute empirical
# correlation among the root's children at the latest time their marginal is valid (NaN when
# every such state is constant across replications); level_averages[d]: the within-tree mean
# state of depth-d vertices at time min(T, D-d), averaged over replications.
SimResult = namedtuple(
    "SimResult", "config pi_hat ci_half_width pair_correlation replications_used level_averages"
)


def estimate_g_one_step(
    params: ModelParams, x: float, samples: int, seed: int
) -> tuple[float, float]:
    """Estimate the update map at x by replaying the raw rule N times.

    Each trial draws m child states i.i.d. Bernoulli(x), a success for each
    child at its state's rate, and a fair tie-break coin; returns the adopting
    fraction and its 95% half-width sqrt-based on the binomial variance.
    """
    x = _check_prob("x", x)
    samples = _check_int("samples", samples, 1)
    seed = _check_seed(seed)
    m, p_b, p_r = params.m, params.p_b, params.p_r
    if samples * m >= _STREAM_WORDS:
        raise ValueError(f"samples * m = {samples} * {m} reaches a stream's 2**64 positions")
    streams = _Streams(seed)
    adopted = 0
    chunk = max(1, min(samples, _UNIFORM_BYTES // (8 * (2 * m + 1))))
    for done in range(0, samples, chunk):
        trials = range(done, min(done + chunk, samples))
        (child,) = streams.draw(_ONESTEP, 0, trials, m, 0, m, (x,), _STATES)
        succ_b, succ_r = streams.draw(_ONESTEP, 1, trials, m, 0, m, (p_b, p_r))
        (coin,) = streams.draw(_ONESTEP, 2, trials, 1, 0, 1, (0.5,), _COINS)
        adopted += np.count_nonzero(_adopt(child, succ_b, succ_r, coin[:, 0]))
    est = adopted / samples
    half = 1.96 * np.sqrt(est * (1.0 - est) / samples)
    return float(est), float(half)


def _level_starts(cfg: SimConfig) -> list[int]:
    """starts[d] = 1 + m + ... + m**(d-1): where level d opens in a flat tree."""
    return list(accumulate((cfg.params.m**d for d in range(cfg.depth + 1)), initial=0))


def _groups(cfg: SimConfig) -> Iterator[range]:
    """Consecutive replication groups whose step-0 draws fit in ``_UNIFORM_BYTES`` (at least one).

    Step 0 reads the outcomes of levels 1..D from its outcome stream and the
    coins of levels 0..D-1 from its coin stream, m + 1 variables per parent;
    no step reads more.
    """
    size = max(1, _UNIFORM_BYTES // (8 * (cfg.params.m + 1) * _level_starts(cfg)[-2]))
    for lo in range(0, cfg.replications, size):
        yield range(lo, min(lo + size, cfg.replications))


def _cut(p: float) -> tuple[int, int]:
    """(hi, lo) of K = ceil(p * 2**53): the 53-bit draw k succeeds iff k < K."""
    K = math.ceil(p * 2**53)
    return K >> _LOW_BITS, K & ((1 << _LOW_BITS) - 1)


def _bernoulli(
    heads: np.ndarray, rates: tuple[float, ...], word_at: Callable[[int, int], int], slot: int = 0
) -> list[np.ndarray]:
    """Exact Bernoulli outcomes of a 2-D array of 16-bit heads, one bool array per rate.

    A head below a rate's hi succeeds and one above it fails.  The heads that
    equal a tied hi (one with lo != 0) are found with one comparison per such
    hi and one ``flatnonzero`` over them all, and ``word_at(row, col)``
    returns the refinement word of each; such a head succeeds iff the word's
    top 37 bits are below lo.  Rate i's outcomes are workspace slot
    ``slot + i``, valid until the slot's next read.
    """
    take = _LOCAL.workspace.take
    cuts = [_cut(p) for p in rates]
    out = [take(slot + i, heads.shape) for i in range(len(rates))]
    tied = sorted({hi for hi, lo in cuts if lo})
    ties = []
    if tied:
        # the outcome arrays hold the tie masks first, one per tied hi (never
        # more than the rates), so the tie search needs no buffer of its own
        hit = out[0]
        for hi, mask in zip(tied, out):
            np.equal(heads, hi, mask)
        for mask in out[1 : len(tied)]:
            np.bitwise_or(hit, mask, hit)
        ties = np.flatnonzero(hit).tolist()
    for succ, (hi, _) in zip(out, cuts):
        np.less(heads, hi, succ)
    for j in ties:
        r, c = divmod(j, heads.shape[1])
        low = word_at(r, c) >> (64 - _LOW_BITS)
        for succ, (hi, lo) in zip(out, cuts):
            if lo and heads[r, c] == hi:
                succ[r, c] = low < lo
    return out


def _adopt(
    child: np.ndarray, succ_b: np.ndarray, succ_r: np.ndarray, coin: np.ndarray
) -> np.ndarray:
    """The raw update rule, replayed from its draws.

    ``child`` (..., m) holds the children's states (True for B), and
    ``succ_b`` and ``succ_r`` whether each child's experiment succeeds at the
    B and at the R rate; a child uses its own state's.  Each child adds +1 to
    the vertex's lead when it is B and succeeds, -1 when it is R and succeeds,
    0 otherwise; the vertex adopts B when the lead is positive, and on a zero
    lead when its ``coin`` (...) is True.

    The signs are (b + r) * c - r in int8, which is b for a B child and -r
    for an R child.  The lead starts at the coin and adds one sign column per
    child (m <= 64, so int8 holds it), so it is positive exactly when the
    vertex adopts B.  One strided add per child: a reduction over a short
    last axis costs about twice as much at small m.  The signs, the lead and
    the result are workspace arrays, so the result stays valid until the
    next call; no argument is written.
    """
    take = _LOCAL.workspace.take
    b, r = succ_b.view(np.int8), succ_r.view(np.int8)
    signs = np.add(b, r, take(_SIGNS, child.shape))
    np.multiply(signs, child.view(np.int8), signs)
    np.subtract(signs, r, signs)
    vertices = child.shape[:-1]
    lead = take(_LEAD, vertices)
    np.copyto(lead, coin)
    for k in range(child.shape[-1]):
        np.add(lead, signs[..., k], lead)
    return np.greater(lead, 0, take(_ADOPTED, vertices))


def _evolve(cfg: SimConfig, reps: range) -> tuple[np.ndarray, list[np.ndarray]]:
    """A group of replications: root trajectories and every level at its last valid time.

    The group's trees are one ``(len(reps), V)`` array ``flat`` in
    breadth-first order, level d at columns starts[d] .. starts[d+1] - 1, and
    row i of ``roots`` (shape (len(reps), T+1)) and of ``flat`` belongs to
    replication ``reps[i]``.  Step t updates only the P_t parents of levels
    0..D-t-1, the ones still inside their validity window.  It walks them in
    breadth-first windows of ``width`` parents, sized so the group's
    variables fit in ``_UNIFORM_BYTES``.  Parents a..a+n-1 have children
    1 + m*a .. m*(a+n), a contiguous block in the order of the window's
    outcomes m*a .. m*(a+n) - 1 of each replication's m * P_t, and read
    coins a..a+n-1 of its P_t, so every window is one ``draw`` of outcomes,
    one of coins and one ``_adopt`` call, written to columns a..a+n-1.  The
    update stays synchronous: ``_adopt`` builds its result before the write,
    and a later window reads only children above every parent written before
    it, so each parent reads its children at time t, and level d ends at
    time min(T, D-d), the time every output reads.  The initial states are
    drawn into ``flat`` in windows of (m+1)*width vertices.  When the group's
    step-0 draws fit the budget, which ``_groups`` ensures for every group of
    more than one, every step and the initial states are one window.
    Returns ``roots`` and the level views ``flat[:, starts[d]:starts[d+1]]``.
    """
    m, p_b, p_r = cfg.params.m, cfg.params.p_b, cfg.params.p_r
    D, T, G = cfg.depth, cfg.horizon, len(reps)
    starts = _level_starts(cfg)
    width = min(max(1, _UNIFORM_BYTES // (8 * (m + 1) * G)), starts[D])
    streams = _Streams(cfg.seed)

    V = starts[-1]
    span = (m + 1) * width
    flat = np.empty((G, V), dtype=bool)
    for a in range(0, V, span):
        n = min(span, V - a)
        (flat[:, a : a + n],) = streams.draw(_INIT, 0, reps, V, a, n, (cfg.pi_0,))
    roots = np.empty((G, T + 1), dtype=bool)
    roots[:, 0] = flat[:, 0]

    for t in range(T):
        P = starts[D - t]
        for a in range(0, P, width):
            n = min(width, P - a)
            succ_b, succ_r = streams.draw(_STEP, t, reps, m * P, m * a, m * n, (p_b, p_r))
            (coins,) = streams.draw(_COIN, t, reps, P, a, n, (0.5,), _COINS)
            window = (G, n, m)
            flat[:, a : a + n] = _adopt(
                flat[:, 1 + m * a : 1 + m * (a + n)].reshape(window),
                succ_b.reshape(window),
                succ_r.reshape(window),
                coins,
            )
        roots[:, t + 1] = flat[:, 0]

    return roots, [flat[:, starts[d] : starts[d + 1]] for d in range(D + 1)]


def simulate_tree(config: SimConfig) -> SimResult:
    """Synchronous simulation of the full truncated tree across replications."""
    R = config.replications
    roots = np.empty((R, config.horizon + 1), dtype=bool)
    children = np.empty((R, config.params.m), dtype=bool)
    counts = [0] * (config.depth + 1)
    for reps in _groups(config):
        rows = slice(reps.start, reps.stop)
        roots[rows], states = _evolve(config, reps)
        children[rows] = states[1]
        # exact integer counts, so the means do not depend on the grouping
        counts = [c + int(np.count_nonzero(s)) for c, s in zip(counts, states)]
    level_means = np.array([c / (R * config.params.m**d) for d, c in enumerate(counts)])
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

    ``pairs`` (k, 2) defaults to every pair i < j in row-major order.  Pairs
    that touch a constant column have undefined correlation and are dropped
    before the loop; NaN when no pair is usable.  Each pair keeps its own dot
    product, so the result does not depend on which other pairs are present.
    A correlation of exactly ±1 can round past 1, so each is clamped to 1.
    """
    x = columns.astype(float)
    x -= x.mean(axis=0)
    norms = np.sqrt((x**2).sum(axis=0))
    if pairs is None:
        pairs = np.column_stack(np.triu_indices(x.shape[1], 1))
    pairs = pairs[(norms[pairs] > 0.0).all(axis=1)].tolist()
    cols, norms = list(x.T), norms.tolist()
    corrs = (min(abs(float(cols[i] @ cols[j] / (norms[i] * norms[j]))), 1.0) for i, j in pairs)
    return max(corrs, default=np.nan)


def independence_check(config: SimConfig, level: int, pairs: int) -> float:
    """Max |empirical correlation| over random same-level vertex pairs at time T.

    The marginal of a depth-``level`` vertex is valid only for t <= D - level,
    so the configured horizon must respect that window; fewer than 100
    replications give correlation estimates too noisy to report.
    """
    level = _check_int("level", level, 0, config.depth)
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
    pairs = _check_int("pairs", pairs, 1)

    gen = Generator(_Streams(config.seed)._seek(_PAIRS, 0, 0))
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

    recorded = np.empty((config.replications, idx.size), dtype=bool)
    for reps in _groups(config):
        recorded[reps.start : reps.stop] = _evolve(config, reps)[1][level][:, idx]
    return _max_abs_correlation(recorded, local_pairs.reshape(pair_array.shape))
