"""Markov p-convexity functional: exact dynamic programming on integer
rows, with one exact front for the four built-in walks instead (renewal
sums over their construction, with no table: a pass over the branch
levels for the downhill diamond/Laakso walks, and one shared prefix pass
over the steps after the split for the downward tree walk and the lazy
path), Monte Carlo estimation (one shared base trajectory per sample with
a branched copy per split time; for the downward tree walk, one
first-disagreement draw per split time instead; both on blocks of samples
with their own substreams), and the built-in walks (downward tree walk,
downhill diamond/Laakso walks, lazy path walk).  Every exact pass checks
its bit work against one cap, DP_BIT_WORK_CAP.
A chain is one CSR table, checked once by its constructor: each state's
moves, to increasing targets, with positive integer weights over one
denominator D; the built-in walks, all uniform choices, build it in
integers from their out-degrees.  The DP and the Monte Carlo tables read
that table.  Both modes read one distance table, the numerators between
the points of the states reachable within the horizon (one breadth-first
pass over the CSR), and take one p-th power per distinct distance.  The
Monte Carlo stepper pads each row to a power-of-two width, holds each
state as its row offset (state * width) in the narrowest unsigned type,
takes a move by a branchless binary search over the row's running sums,
and moves and sums MC_CHUNK samples at a time.

Time window: t runs over 1..T and k over 0..ceil(log2 T) with the chain
frozen at its start state for t <= 0.  The truncated left-hand sum is a
lower bound of the bilateral one, so (lhs/rhs)^(1/p) remains a valid lower
bound for the convexity constant.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import ValidationError
from .generators import RecursiveFamily, binary_tree, gadget_sides, tree_order
from .metric_core import (
    INT64_MAX, TABLE_ENTRY_CAP, MetricSpace, RationalTable, apsp, check_cap, check_int, check_table_size, read_only
)

# bit operations of every exact pass.  The DP's (R^2 + b / 64) b (see
# exact_convexity): at p = 2, D_6 (6.9e9) runs and L_5 (1.6e11) does not;
# unit D_3 runs at p = 6e4 (3.6e9) and not at p = 2e5 (3.3e10).  The tree
# walk's T (b + q^2 / 64) + b^2 / 64 (see _prefix_sums): at p = 2, m = 16
# (4.4e9) runs and m = 17 (1.7e10) does not; m = 16 runs to p = 117
DP_BIT_WORK_CAP = 2**33


@dataclass(frozen=True, eq=False)
class MarkovChain:
    """Finite chain on states 0..n-1 as one CSR table: the moves
    indptr[u] .. indptr[u + 1] - 1 leave u, to strictly increasing targets
    in range(n), with positive integer weights (an integer or object array
    of ints) over the positive int D, and each row's weights sum to D;
    start state; horizon T (time runs 1..T; the chain sits at `start` for
    t <= 0).  The arrays are copied and stored read-only."""

    indptr: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    D: int
    start: int
    horizon: int
    # (_Walk, metric map, space) of the built-in walk that made this chain,
    # set by that walk, never by a caller: see exact_convexity
    built_by: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        indptr, targets, weights = (np.array(a) for a in (self.indptr, self.targets, self.weights))
        # [-1] and -1 stand for an indptr and targets that are not 1-D ints
        indptr = indptr.astype(np.int64) if indptr.ndim == 1 and indptr.dtype.kind in "iu" else np.array([-1])
        n = len(indptr) - 1
        if n < 0 or indptr[0] != 0 or (np.diff(indptr) < 0).any() or not indptr[-1] == targets.size == weights.size:
            raise ValidationError("indptr must rise from 0 to len(targets) = len(weights)")
        if type(self.start) is not int or type(self.horizon) is not int:
            raise ValidationError("start and horizon must be ints")
        if not (0 <= self.start < n):
            raise ValidationError("start state out of range")
        if self.horizon < 1:
            raise ValidationError("horizon must be >= 1")
        row = np.arange(n).repeat(np.diff(indptr))  # the row of each move
        targets = targets.astype(np.int64) if targets.ndim == 1 and targets.dtype.kind in "iu" else np.full(len(row), -1)
        # row-major keys of in-range targets increase iff they do within rows
        bad = np.append(False, np.diff(targets + n * row) <= 0) | (targets < 0) | (targets >= n)
        if bad.any():
            raise ValidationError(f"targets of row {row[bad.argmax()]} must increase within range({n})")
        ints = weights.dtype.kind in "iu" or weights.dtype == object and all(type(w) is int for w in weights.flat)
        if weights.ndim != 1 or not ints or type(self.D) is not int:
            raise ValidationError("weights and D must be integers")
        if (weights <= 0).any():
            raise ValidationError(f"non-positive probability in row {row[(weights <= 0).argmax()]}")
        # the running sums as Python ints where int64 might overflow
        sums = weights if len(weights) * int(weights.max(initial=0)) <= INT64_MAX else weights.astype(object)
        sums = np.diff(np.concatenate(([0], sums.cumsum()))[indptr])
        if self.D < 1 or (sums != self.D).any():
            raise ValidationError(f"row {(sums != self.D).argmax()} does not sum to 1 exactly")
        vars(self).update(indptr=read_only(indptr), targets=read_only(targets), weights=read_only(weights))

    @property
    def n_states(self) -> int:
        return len(self.indptr) - 1


@dataclass(frozen=True)
class MetricMap:
    """State -> point index of some MetricSpace; total on states.  Every
    entry is an int (not a bool); the estimators check the range."""

    point_of_state: tuple[int, ...]

    def __post_init__(self):
        if any(type(x) is not int for x in self.point_of_state):
            raise ValidationError("metric map points must be ints")


@dataclass(frozen=True)
class MethodInfo:
    kind: str  # "exactDP" | "exactDP(analytic)" | "monteCarlo"
    seed: Optional[int] = None
    samples: Optional[int] = None
    lhs_stderr: Optional[float] = None
    rhs_stderr: Optional[float] = None


@dataclass(frozen=True)
class ConvexityEstimate:
    p: float
    lhs: Fraction | float
    rhs: Fraction | float
    method: MethodInfo

    @property
    def pi_lower(self) -> Optional[float]:
        if self.rhs <= 0:
            return None
        ratio = self.lhs / self.rhs
        try:
            approx = float(ratio)
        except OverflowError:
            approx = math.inf
        if isinstance(ratio, Fraction) and ratio > 0 and not 0 < approx < math.inf:
            # an exact ratio beyond float range: take the p-th root in logs
            return math.exp((math.log(ratio.numerator) - math.log(ratio.denominator)) / self.p)
        return approx ** (1.0 / self.p)


def _k_max(T: int) -> int:
    """ceil(log2 T) for T >= 1, exact for every int."""
    return (T - 1).bit_length()


def _split_terms(T: int) -> list[tuple[int, int, int]]:
    """(k, s, j) for every term (k, t) of the window, in k-then-t order:
    s = max(t - 2^k, 0) is the split time and j = t - s.  Callers tabulate
    the terms by (s, j), so a horizon whose (T + 1)^2 table exceeds
    TABLE_ENTRY_CAP raises CapExceededError first."""
    check_table_size(T + 1, f"the time window 0..{T}")
    terms = []
    for k in range(_k_max(T) + 1):
        for t in range(1, T + 1):
            s = max(t - 2**k, 0)
            terms.append((k, s, t - s))
    return terms


def _reached_table(chain: MarkovChain, mmap: MetricMap, space: MetricSpace):
    """The one table both estimators read, once the map is checked: the
    states reachable from start within the horizon, increasing (a
    breadth-first pass over the CSR, one level per step), the row of each
    one's point, and the distance numerators between those points, in point
    order: `space.num` itself, uncopied, when they are every point."""
    if len(mmap.point_of_state) != chain.n_states:
        raise ValidationError("metric map must cover every state")
    if any(not 0 <= x < space.size for x in mmap.point_of_state):
        raise ValidationError(f"metric map points must lie in range({space.size})")
    indptr, targets = chain.indptr.tolist(), chain.targets.tolist()
    reach, level = {chain.start}, [chain.start]
    for _ in range(chain.horizon):
        level = {v for a in level for v in targets[indptr[a] : indptr[a + 1]]} - reach
        if not level:
            break
        reach |= level
    reach = np.array(sorted(reach))
    points, slot = np.unique(np.array(mmap.point_of_state)[reach], return_inverse=True)
    num = space.num if points.size == space.size else space.num[np.ix_(points, points)]
    return reach, slot, num


def _step(row: dict[int, int], moves: list[list[tuple[int, int]]]) -> dict[int, int]:
    """One step of a sparse integer row vector through rows of (target, weight) moves."""
    out: dict[int, int] = {}
    for a, y in row.items():
        for b, q in moves[a]:
            out[b] = out.get(b, 0) + y * q
    return out


def _pair_sum(row: dict[int, int], at: list[int], N: list[list[int]]) -> int:
    """sum over states a, b of row[a] row[b] N[at[a]][at[b]], with the
    weights first pooled on the metric points."""
    z: dict[int, int] = {}
    for a, y in row.items():
        x = at[a]
        z[x] = z.get(x, 0) + y
    items = list(z.items())
    total = 0
    for x, zx in items:
        Nx = N[x]
        total += zx * sum(zy * Nx[y] for y, zy in items)
    return total


def exact_convexity(
    chain: MarkovChain, mmap: MetricMap, space: MetricSpace, p: int
) -> ConvexityEstimate:
    """Exact rational evaluation by dynamic programming over sparse matrix
    powers: conditioned on the split-time state, the chain and its
    re-randomized copy are independent runs of the same transition law.

    The DP runs on integers.  With D the lcm of the transition denominators
    and E the scale of the space's distance numerators, D^s pi_s and row u
    of D^j P^j are integer vectors, E d is an integer table, and each sum is
    one Fraction over a power product of D, E and 2.  Row u of P^j is only
    pushed as far as the largest j that a split at u needs, and the (E d)^p
    table covers only the R points of the states reachable from start within
    T steps, with one power per distinct numerator.

    Its entries have at most p L bits, L the bit length of the largest
    numerator among those points; the row weights grow to D^T, and the sums
    are lifted over D^(2T) 2^(Kp), K = ceil(log2 T).  So no integer the DP
    forms is much wider than b = p (L + K) + 2 T bitlen(D) bits: the pair
    sums read the R^2 table entries at about b bit operations each, and
    reducing the b-bit results to lowest terms costs about b^2 / 64 more.
    Past DP_BIT_WORK_CAP of (R^2 + b / 64) b it raises CapExceededError
    before any power is taken, and before any copy when every point is
    reached.

    A chain made by downhill_walk, lazy_path_walk or downward_tree_walk,
    given that walk's own metric map and space (the same objects), is
    answered by the renewal sums of downhill_convexity_exact /
    lazy_path_convexity_exact / tree_walk_convexity_exact instead, with the
    same Fractions; any other chain, map or space runs the DP."""
    check_int(p, 1, "exact mode needs integer p >= 1")
    if chain.built_by is not None and chain.built_by[1] is mmap and chain.built_by[2] is space:
        return _renewal_sums(chain.built_by[0], p)
    reach, slot, num = _reached_table(chain, mmap, space)
    T = chain.horizon
    K = _k_max(T)
    terms = _split_terms(T)
    D, R = chain.D, len(num)
    width = p * (max(int(num.max()), -int(num.min())).bit_length() + K) + 2 * T * D.bit_length()
    what = f"the number of bit operations of the exact DP on {R} points at horizon {T}, p = {p}"
    check_cap((R * R + width // 64) * width, DP_BIT_WORK_CAP, what)

    # N[x][y] = (E d(x, y))^p, one power per distinct numerator; at[a] = the row of a's point
    values, inverse = np.unique(num, return_inverse=True)
    N = np.array([x**p for x in values.tolist()], dtype=object)[inverse.reshape(R, R)].tolist()
    at = dict(zip(reach.tolist(), slot.tolist()))
    pairs = list(zip(chain.targets.tolist(), chain.weights.tolist()))
    moves = [pairs[a:b] for a, b in itertools.pairwise(chain.indptr.tolist())]

    # Pi[s] = D^s pi_s for the split times s = 0..T-1
    Pi = [{chain.start: 1}]
    for _ in range(1, T):
        Pi.append(_step(Pi[-1], moves))

    # coef[s][j] = sum of 2^((K-k)p) over the terms (k, t) with split time
    # s = t - j; the lhs puts 2^(kp) in the denominator of term (k, t)
    coef: list[dict[int, int]] = [{} for _ in range(T)]
    for k, s, j in terms:
        coef[s][j] = coef[s].get(j, 0) + 2 ** ((K - k) * p)

    # W[u][j] = D^(2j) E^p E[d(f(A), f(B))^p] for two independent j-step
    # runs A, B from u, for every j that a split at u needs
    needs: dict[int, set[int]] = {}
    for s, pi in enumerate(Pi):
        for u in pi:
            needs.setdefault(u, set()).update(coef[s])
    W: dict[int, dict[int, int]] = {}
    for u, js in needs.items():
        row = {u: 1}
        Wu = W[u] = {}
        for j in range(1, max(js) + 1):
            row = _step(row, moves)
            if j in js:
                Wu[j] = _pair_sum(row, at, N)

    # term (s, j) sits over D^(s + 2j) E^p 2^(kp); lift all to D^(2T) E^p 2^(Kp)
    lhs = 0
    for s, pi in enumerate(Pi):
        for j, c in coef[s].items():
            lhs += c * D ** (2 * T - s - 2 * j) * sum(y * W[u][j] for u, y in pi.items())

    # step t from pi_{t-1} sits over D^t E^p; lift all to D^T E^p
    step_sum = {u: sum(q * N[at[u]][at[v]] for v, q in moves[u]) for u in needs}
    rhs = 0
    for t in range(1, T + 1):
        rhs += D ** (T - t) * sum(y * step_sum[u] for u, y in Pi[t - 1].items())

    Ep = space.scale**p
    return ConvexityEstimate(
        float(p),
        Fraction(lhs, D ** (2 * T) * Ep * 2 ** (K * p)),
        Fraction(rhs, D**T * Ep),
        MethodInfo("exactDP"),
    )


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

# cells (samples x (T + 1)) drawn per block of samples: this fixes the
# draws, and a block holds its states in the narrowest unsigned type and one
# step's uniforms (at most T * block floats), whatever `samples` is
MC_BLOCK_CELLS = 2**20
# samples a block moves and sums at once: its intp and float temporaries are O(T * MC_CHUNK)
MC_CHUNK = 2048
MC_SAMPLE_CAP = 2**24  # samples of one estimate: their kept totals take about 0.5 GB


def _check_mc_args(p: float, seed: int, samples: int) -> None:
    if type(p) is bool or not p >= 1:
        raise ValidationError("Monte Carlo mode needs p >= 1")
    check_int(seed, 0, "need an int seed >= 0")
    check_int(samples, 1, "need an int number of samples >= 1")
    check_cap(samples, MC_SAMPLE_CAP, "the number of Monte Carlo samples")


def _check_float_powers(smallest: float, largest: float, p: float) -> None:
    """Raise ValidationError unless the p-th powers of the positive
    distances in [smallest, largest] are normal float64 numbers: past that
    range the Monte Carlo sums would read inf, NaN or 0."""
    try:
        high = largest**p  # a float p raises; a numpy p returns inf
    except OverflowError:
        high = math.inf
    bad = largest if high == math.inf else smallest if smallest**p < sys.float_info.min else None
    if bad is not None:
        raise ValidationError(
            f"a distance of {bad} to the power p = {p:g} leaves the float64 range, "
            "so Monte Carlo cannot evaluate it; use the exact mode (--mode exact)"
        )


def _sim_tables(chain: MarkovChain):
    """Row u's targets, held as row offsets, and its running probability
    sums, both flattened with row u at offset u * width: each row is padded
    with its last move to `width`, the least power of two that holds every
    row.  The sums add the correctly rounded weights / D in row order, which
    fixes every Monte Carlo draw; the last move and the padding read 1."""
    deg = np.diff(chain.indptr)
    width = 1 << (int(deg.max()) - 1).bit_length()
    slot = np.arange(width)
    at = np.minimum(chain.indptr[:-1, None] + slot, chain.indptr[1:, None] - 1)
    cum = RationalTable(chain.weights[None], chain.D).floats()[0][at].cumsum(axis=1)
    cum[slot >= deg[:, None] - 1] = 1
    return (chain.targets * width)[at].ravel(), cum.ravel(), width


def _move(states: np.ndarray, u: np.ndarray, nbrs, cum, width: int) -> np.ndarray:
    """One step of every state in `states` (row offsets) on the uniforms `u`
    of the same shape: the move taken is the first whose running sum is not
    below u.  The sums rise along a row up to its last move and padding, 1 >
    u, so `cum < u` holds on a prefix of the row, and a binary search of
    log2(width) gathers finds its length."""
    step = width >> 1
    while step:
        below = cum[step - 1 :].take(states) < u
        # the step in the narrowest unsigned type keeps the product array small
        states = states + np.multiply(below, step, dtype=np.min_scalar_type(step))
        step >>= 1
    return nbrs.take(states)


def _mean_and_stderr(totals: np.ndarray) -> tuple[float, float]:
    se = math.sqrt(float(totals.var(ddof=1)) / totals.size) if totals.size > 1 else 0.0
    return float(totals.mean()), se


def _block_estimate(p: float, seed: int, samples: int, T: int, draw) -> ConvexityEstimate:
    """Sample means of both sums with their standard errors.  Samples run in
    blocks of MC_BLOCK_CELLS // (T + 1); block b draws from the substream
    (seed, b), and draw(rng, size) returns the lhs and rhs totals of its
    `size` samples.  Terms share draws within a sample and so are
    correlated: both standard errors come from the per-sample totals."""
    block = max(1, MC_BLOCK_CELLS // (T + 1))
    totals = []
    for b, lo in enumerate(range(0, samples, block)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, b]))
        totals.append(draw(rng, min(block, samples - lo)))
    (lhs, lhs_se), (rhs, rhs_se) = (_mean_and_stderr(np.concatenate(x)) for x in zip(*totals))
    info = MethodInfo("monteCarlo", seed, samples, lhs_se, rhs_se)
    return ConvexityEstimate(float(p), lhs, rhs, info)


def mc_convexity(
    chain: MarkovChain,
    mmap: MetricMap,
    space: MetricSpace,
    p: float,
    seed: int,
    samples: int,
) -> ConvexityEstimate:
    """Unbiased sample means of both convexity sums with standard errors;
    bit-identical for a fixed seed.

    Each sample runs one base trajectory X_0..X_T and, for every split time
    s, one branch copy Y^s from X_s.  Given X_s the two are independent runs
    of the chain, so every term (k, t) with split time s reads
    d(f(X_t), f(Y^s_{t-s}))^p, and the rhs reads the base's own steps.  A
    branch stops after the longest t - s its terms need.  Each block of
    samples (see _block_estimate) draws T uniform vectors for the base, then
    one uniform array per step for the branches still running, longest
    first, into one buffer; the moves and sums then run MC_CHUNK samples at
    a time, in each sample's order.  The d^p table takes one power per
    distinct distance between the points of the states reachable within the
    horizon, and only those are checked: a positive one whose p-th power
    leaves the float64 range raises ValidationError (use `exact_convexity`
    there); a horizon past the term table cap raises CapExceededError."""
    _check_mc_args(p, seed, samples)
    reach, slot, num = _reached_table(chain, mmap, space)
    T = chain.horizon
    terms = _split_terms(T)
    nbrs, cum, width = _sim_tables(chain)
    # d^p, flat, one correctly rounded x**p per distinct distance, each
    # positive one in the float64 range; at[u * width] is the row of state u's point
    values, inverse = np.unique(num, return_inverse=True)
    positive, scale = values[values > 0], space.scale
    if positive.size:
        _check_float_powers(int(positive[0]) / scale, int(positive[-1]) / scale, p)
    dpow = np.array([(x / scale) ** p for x in values.tolist()])[inverse.ravel()]
    at = np.zeros(chain.n_states * width, dtype=np.intp)
    at[reach * width] = slot
    row = at * len(num)  # d^p of states u, v is dpow[row[u * width] + at[v * width]]
    narrow = np.min_scalar_type(chain.n_states * width)  # holds every row offset

    # W[s, j] = sum of 2^(-kp) over the terms (k, t) with split time s and
    # t = s + j; the branch from X_s runs to the largest such j
    W = np.zeros((T, T + 1))
    length = [0] * T
    for k, s, j in terms:
        W[s, j] += 2.0 ** (-k * p)
        length[s] = max(length[s], j)
    # branch rows run longest first, so the ones still running are a prefix
    split = np.array(sorted(range(T), key=lambda s: (-length[s], s)))
    W = W[split]
    running = np.bincount(length, minlength=T + 1)[::-1].cumsum()[::-1].tolist()
    # so are the rows weighted at step j: s = 0 at every j, the rest at powers of two
    used = np.zeros(T + 1, dtype=np.intp)
    rows, cols = np.nonzero(W)
    np.maximum.at(used, cols, rows + 1)

    def draw(rng, size):
        # column chunks; a 1-wide remainder joins the chunk before it, since
        # numpy sums a (c, 1) column in another order than a wider one
        chunks = list(itertools.pairwise([*range(0, max(size - 1, 1), MC_CHUNK), size]))
        u = np.empty(T * size)  # one step's uniforms: T base vectors, then running[j] rows
        base = np.empty((T + 1, size), dtype=narrow)
        lhs, rhs = np.zeros(size), np.empty(size)
        steps = rng.random(out=u.reshape(T, size))
        for lo, hi in chunks:
            base[0, lo:hi] = x = np.full(hi - lo, chain.start * width)
            for i in range(T):
                base[i + 1, lo:hi] = x = _move(x, steps[i, lo:hi], nbrs, cum, width)
            rhs[lo:hi] = dpow.take(row.take(base[:-1, lo:hi]) + at.take(base[1:, lo:hi])).sum(axis=0)
        branch = base[split]
        for j in range(1, T + 1):
            n, c = running[j], used[j]
            steps = rng.random(out=u[: n * size].reshape(n, size))
            for lo, hi in chunks:
                live = branch[:n, lo:hi]
                live[...] = _move(live.astype(np.intp), steps[:, lo:hi], nbrs, cum, width)
                pairs = row.take(base[split[:c] + j, lo:hi])
                pairs += at.take(live[:c])
                lhs[lo:hi] += (W[:c, j, None] * dpow.take(pairs)).sum(axis=0)
        return lhs, rhs

    return _block_estimate(p, seed, samples, T, draw)


# ---------------------------------------------------------------------------
# Built-in walks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkBundle:
    chain: MarkovChain
    metric_map: MetricMap
    space: MetricSpace


def _uniform_chain(indptr: np.ndarray, targets: np.ndarray, start: int, horizon: int) -> MarkovChain:
    """The chain that moves from u to each of its targets with probability
    1 / deg(u): weight D // deg(u), D the lcm of the out-degrees."""
    deg = np.diff(indptr)
    D = math.lcm(*set(deg.tolist()))
    return MarkovChain(indptr, targets, (D // deg).repeat(deg), D, start, horizon)


def downward_tree_walk(m: int) -> WalkBundle:
    """Downward random walk on T_{2^m}: root start, each non-leaf moves to a
    uniformly random child, leaves absorbing, horizon 2^m.

    Explicit mode materializes the tree and its distance table, which
    passes TABLE_ENTRY_CAP from m = 4 (T_16, 131071 vertices) on: there
    CapExceededError points to the split-time analytic evaluators
    tree_walk_convexity_exact and tree_walk_convexity_mc.  Like
    downhill_walk's, its chain records the walk, so exact_convexity on this
    bundle runs tree_walk_convexity_exact's renewal sums, not the DP.
    """
    check_int(m, 1, "need an int m >= 1")
    # T_(2^m)'s vertices, the depth 2^m clipped too, as check_cap asks
    order = tree_order(2 ** min(m, TABLE_ENTRY_CAP.bit_length()), TABLE_ENTRY_CAP)
    check_table_size(order, f"T_2^{m} (use the analytic mode, tree_walk_convexity_exact / _mc)")
    depth = 2**m
    space = apsp(binary_tree(depth))
    # vertices in heap layout (generators): the leaves (absorbing) are the last 2^depth
    inner, n = 2**depth - 1, space.size
    indptr = np.concatenate((np.arange(0, 2 * inner, 2), np.arange(2 * inner, inner + n + 1)))
    targets = np.concatenate((np.arange(1, 2 * inner + 1), np.arange(inner, n)))
    return _built(_Walk("tree", m, 1, depth), _uniform_chain(indptr, targets, 0, depth), space)


def tree_walk_convexity_exact(m: int, p: int) -> ConvexityEstimate:
    """Split-time analytic evaluator for the downward walk on T_{2^m}: within
    the horizon T = 2^m the walk sits at depth t, two copies split at time s
    first disagree at step r with probability 2^{s-r}, and their distance at
    time t is then 2(t - r + 1).  Exact rationals, no tree materialized: the
    renewal sums of _prefix_sums, which raise CapExceededError past
    DP_BIT_WORK_CAP before any arithmetic and before 2^m is formed."""
    check_int(m, 1, "need an int m >= 1")
    check_int(p, 1, "need an int p >= 1")
    # T = 2^m wherever the cap can admit it: a clipped m exceeds the cap at once
    return _renewal_sums(_Walk("tree", m, 1, 2 ** min(m, DP_BIT_WORK_CAP.bit_length())), p)


def tree_walk_convexity_mc(m: int, p: float, seed: int, samples: int) -> ConvexityEstimate:
    """Monte Carlo for the downward tree walk without materializing the tree.
    Within the horizon the walk sits at depth t, and a copy branched from
    X_s first disagrees with it after G_s ~ Geometric(1/2) steps; each term
    (k, t) with split time s and j = t - s then reads (2(j - G_s + 1))^p
    when G_s <= j and 0 otherwise.  So a sample is one geometric draw per
    split time, looked up in a table of weighted contributions, on the
    blocks and substreams of mc_convexity.  Every step moves distance
    exactly 1, so rhs = T with standard error 0.  Raises CapExceededError
    past the table cap, checked from m before T is formed, then
    ValidationError when (2T)^p overflows float64."""
    check_int(m, 1, "need an int m >= 1")
    _check_mc_args(p, seed, samples)
    # the (T + 1)^2 term table, its exponent clipped as check_cap says
    check_table_size(2 ** min(m, TABLE_ENTRY_CAP.bit_length()) + 1, f"the time window 0..2^{m}")
    T = 2**m
    _check_float_powers(2.0, 2.0 * T, p)  # two copies split at most T steps apart
    terms = _split_terms(T)
    # gain[s, g] = sum of 2^(-kp) (2(j - g + 1))^p over the terms with split
    # time s and j >= g; column T + 1 stands for every g > T and stays 0
    dpow = (2.0 * np.arange(1, T + 1)) ** p
    gain = np.zeros((T, T + 2))
    for k, s, j in terms:
        gain[s, 1 : j + 1] += 2.0 ** (-k * p) * dpow[j - 1 :: -1]
    rows = np.arange(T)[:, None]

    def draw(rng, size):
        # the table in groups of about T * MC_CHUNK draws (one group up to
        # MC_CHUNK samples), the running total the first row of each group's sum
        group = max(1, T * MC_CHUNK // size)
        lhs = np.empty((0, size))
        for lo in range(0, T, group):
            first = np.minimum(rng.geometric(0.5, (min(group, T - lo), size)), T + 1)
            lhs = np.concatenate((lhs, gain[rows[lo : lo + group], first])).sum(axis=0, keepdims=True)
        return lhs[0], np.full(size, float(T))

    return _block_estimate(p, seed, samples, T, draw)


def _edge_length(graph) -> Fraction:
    """The one length of every edge of a downhill walk's graph
    (ValidationError names the first edge that differs)."""
    edge_len = graph.edges[0][2]
    if (graph.lengths != graph.lengths[0]).any():  # name the first edge that differs
        u, v, w = next(e for e in graph.edges if e[2] != edge_len)
        raise ValidationError(
            f"downhill walk needs uniform edge lengths: edge ({u},{v}) has "
            f"length {w}, edge 0 has {edge_len}"
        )
    return edge_len


def downhill_walk(
    family: RecursiveFamily, horizon: Optional[int] = None
) -> WalkBundle:
    """From every non-sink vertex move uniformly to a neighbor strictly
    closer to the sink; the sink is absorbing.  Default horizon is the hop
    count of a source-to-sink geodesic, so every edge must have the same
    length (ValidationError names the first edge that differs).  The chain
    records the walk, so exact_convexity on this bundle's chain, map and
    space runs downhill_convexity_exact's renewal sums, not the DP."""
    if horizon is not None:
        check_int(horizon, 1, "need an int horizon >= 1")
    graph = family.graph
    edge_len = _edge_length(graph)
    space = family.metric_space()
    sink = family.sink
    n = graph.size
    hops = int(space.d(family.source, sink) / edge_len)
    T = horizon if horizon is not None else hops
    # the arcs that lead strictly closer to the sink, in CSR order
    to_sink = space.num[:, sink]
    heads = np.arange(n).repeat(np.diff(graph.indptr))
    down = to_sink[graph.targets] < to_sink[heads]
    count = np.bincount(heads[down], minlength=n)
    count[sink] = 1  # the sink is absorbing: one move, to itself
    if (count == 0).any():
        raise ValidationError(f"vertex {(count == 0).argmax()} has no neighbor closer to the sink")
    targets = np.insert(graph.targets[down], count[:sink].sum(), sink)
    chain = _uniform_chain(np.concatenate(([0], count.cumsum())), targets, family.source, T)
    return _built(_Walk(family.kind, family.level, edge_len, T), chain, space)


def lazy_path_walk(T: int) -> WalkBundle:
    """Monotone lazy walk on a path: move right or stay with probability 1/2,
    right end absorbing.  Maps onto a single geodesic segment; a recorded
    baseline that the functional stays bounded here (the line is Markov
    convex).  Like downhill_walk's, its chain records the walk for
    exact_convexity (see lazy_path_convexity_exact)."""
    check_int(T, 1, "need an int horizon >= 1")
    check_table_size(T + 1, "the graph")
    points = np.arange(T + 1)
    space = MetricSpace(read_only(abs(points[:, None] - points)), 1, (None,) * (T + 1))
    # state i < T moves to i and i + 1, and T to itself
    indptr = np.append(np.arange(0, 2 * T + 1, 2), 2 * T + 1)
    chain = _uniform_chain(indptr, np.arange(1, 2 * T + 2) // 2, 0, T)
    return _built(_Walk("path", T, 1, T), chain, space)


def _built(walk: "_Walk", chain: MarkovChain, space: MetricSpace) -> WalkBundle:
    """The bundle of a built-in walk, every state mapped to its own point,
    with the walk recorded on its chain."""
    bundle = WalkBundle(chain, MetricMap(tuple(range(space.size))), space)
    object.__setattr__(chain, "built_by", (walk, bundle.metric_map, space))
    return bundle


# ---------------------------------------------------------------------------
# Renewal sums: the built-in walks' exact convexity from their construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Walk:
    """What the renewal sums read of a built-in walk: `kind` "diamond" or
    "laakso" and the family's `level`, "tree" and m for T_{2^m}, or "path"
    and the path's length; the length of every edge (an int or Fraction);
    and the horizon."""

    kind: str
    level: int
    edge: Fraction
    horizon: int


def downhill_convexity_exact(
    family: RecursiveFamily, p: int, horizon: Optional[int] = None
) -> ConvexityEstimate:
    """exact_convexity of downhill_walk(family, horizon) at integer p, the
    same Fractions, from the family's construction: no distance table, no
    chain.  `family` is a diamond or Laakso family of uniform edge length.

    Within the horizon the walk sits at hop t (the sink, hop H = f^n, from
    t = H on), and at each gadget's parting vertex it picks one of the two
    sides uniformly, independently of every other choice.  Two runs from
    hop s are at hop t in different sides of the outermost level-l gadget
    whose sides part at some b with s <= b < t < b + 2g and where their
    choices differ, or at one vertex when there is none.  Their distance
    is then 2 min(t - b, b + 2g - t) edges, and with i the rank of level l
    among such levels, outermost first, this happens with probability
    2^-i.  So each term is a short sum of powers (2u)^p, u <= H / f, with
    dyadic weights; one pass over the terms counts the weights of each
    power in integers, over 2^n.  Raises CapExceededError before any power
    is taken past DP_BIT_WORK_CAP (see _renewal_sums)."""
    edge = _edge_length(family.graph)
    if horizon is not None:
        check_int(horizon, 1, "need an int horizon >= 1")
    T = gadget_sides(family.kind)[0] ** family.level if horizon is None else horizon
    return _renewal_sums(_Walk(family.kind, family.level, edge, T), p)


def lazy_path_convexity_exact(T: int, p: int) -> ConvexityEstimate:
    """exact_convexity of lazy_path_walk(T) at integer p, the same
    Fractions, with no table: the walk never reaches the path's end before
    time T, so two runs j steps from a common point are |Bin(2j, 1/2) - j|
    apart, and each term is E|Bin(2j, 1/2) - j|^p, a sum of binomials over
    4^j.  Raises CapExceededError before any power is taken past
    DP_BIT_WORK_CAP (see _prefix_sums)."""
    check_int(T, 1, "need an int horizon >= 1")
    return _renewal_sums(_Walk("path", T, 1, T), p)


def _renewal_sums(walk: _Walk, p: int) -> ConvexityEstimate:
    """The two sums of a built-in walk, the one exact front of all four, the
    lhs lifted over 2^(K p) Q with Q = 2^n (families), 2^T (tree) or 4^T
    (path).  Each pass counts its work as the DP counts its own (on the
    walks that exact_convexity routes here, never more than the DP's count),
    and raises CapExceededError past DP_BIT_WORK_CAP before any power is
    taken."""
    check_int(p, 1, "exact mode needs integer p >= 1")
    T, K = walk.horizon, _k_max(walk.horizon)
    name = {"path": "the lazy path", "tree": "the tree walk"}.get(walk.kind, f"{walk.kind} level {walk.level}")
    at = f"2^{walk.level}" if walk.kind == "tree" else T  # the tree's T, clipped past the cap, is named by m
    what = f"the number of bit operations of the renewal sums of {name} at horizon {at}, p = {p}"
    if walk.kind in ("tree", "path"):
        lhs, Q, rhs = _prefix_sums(walk.kind == "tree", T, K, p, what)
    else:
        lhs, Q, rhs = _branch_sums(walk.kind, walk.level, T, K, p, what)
    e = walk.edge**p
    return ConvexityEstimate(
        float(p),
        Fraction(lhs * e.numerator, 2 ** (K * p) * Q * e.denominator),
        rhs * e,
        MethodInfo("exactDP(analytic)" if walk.kind == "tree" else "exactDP"),
    )


def _branch_sums(kind: str, n: int, T: int, K: int, p: int, what: str) -> tuple[int, int, Fraction]:
    """(2^(K p + n) lhs, 2^n, rhs) in hops of the downhill walk on a level-n
    family (see downhill_convexity_exact).  A level-l gadget spans f g
    hops, g = f^(n - l), from a multiple of f g, and its sides part o g
    hops later, for 2 g hops (gadget_sides)."""
    f, o = gadget_sides(kind)
    H = f**n
    last = min(T, H - 1)  # from hop H on both runs sit at the sink
    top = _k_max(last) if last else 0  # every term of a k >= top splits at time 0
    # two runs are at most 2G apart: by hop `last`, sides that part at o g
    # are at most min(g, last - o g) hops from where they part or meet
    G = max((min(f**i, last - o * f**i) for i in range(n) if last > o * f**i), default=0)
    # the lhs is below 2^b: each row's weights total at most last 2^n, a
    # power at most (2G)^p, and a row's multiplier 2^(K p + 1)
    b = p * (2 * G).bit_length() + K * p + n + last.bit_length() + 2
    check_cap(((top + 1) * G + G) * b + b * b // 64, DP_BIT_WORK_CAP, what)
    t = np.arange(1, last + 1)
    s = np.maximum(t - (1 << np.arange(top + 1))[:, None], 0)  # split time of term (k, t)
    rank = np.zeros(s.shape, dtype=np.int64)  # levels so far where the runs may part
    keys = [np.zeros(0, dtype=np.int64)]
    for level in range(1, n + 1):
        g = f ** (n - level)
        part = t - t % (f * g) + o * g  # where the sides of t's gadget at this level part
        may = (s <= part) & (part < t) & (t < part + 2 * g)
        rank += may
        k, i = np.nonzero(may)
        u = g - abs(t[i] - part[i] - g)  # half the distance when they part here
        keys.append((k * (n + 1) + rank[k, i]) * (G + 1) + u)
    # count[k, i, u]: terms of row k where the i-th such level parts the runs u apart
    count = np.bincount(np.concatenate(keys), minlength=(top + 1) * (n + 1) * (G + 1))
    count = count.reshape(top + 1, n + 1, G + 1)
    weight = (count << (n - np.arange(n + 1))[:, None]).sum(axis=1).tolist()  # over 2^n
    power = [(2 * u) ** p for u in range(G + 1)]
    lhs = 0
    for k, row in enumerate(weight):
        row_sum = sum(c * power[u] for u, c in enumerate(row) if c)
        # row k < top: 2^((K - k) p); row top: the sum of that over k = top..K
        lhs += row_sum * (2 ** ((K - k) * p) if k < top else (2 ** ((K - k + 1) * p) - 1) // (2**p - 1))
    return lhs, 2**n, Fraction(min(T, H))  # every step before the sink's hop moves one edge


def _prefix_sums(tree: bool, T: int, K: int, p: int, what: str) -> tuple[int, int, Fraction]:
    """(2^(K p) Q^T lhs, Q^T, rhs) of the tree walk (Q = 2) or the lazy path
    (Q = 4).  A term (k, t) of either reads only j = min(t, 2^k) steps after
    its split, where E[d^p] = M_j / Q^j (_tree_moments, _path_moments).  So
    2^(K p) lhs = sum_k 2^((K - k) p) (sum_{j<=W} M_j / Q^j + (T - W) M_W / Q^W)
    with W = min(2^k, T), and one pass over j = 1..T keeps the prefix
    acc = sum_{i<=j} Q^(j-i) M_i and lifts it into the lhs at each W.
    Each step forms M_j and adds it into acc, of at most b bits, and the
    b-bit lhs is reduced at about b^2 / 64: a tree moment's power (2j)^p
    has at most q = p (K + 1) bits (q^2 / 64 bit operations), and a path
    moment takes j multiply-adds at b bits.  Past DP_BIT_WORK_CAP of
    T b + (the moments' work) + b^2 / 64 it raises CapExceededError."""
    if tree:
        q = p * (K + 1)
        b, work, shift, moments = T + q, T * (q * q // 64), 1, _tree_moments(T, p)
    else:
        # the lhs is below 2^b: a moment is at most 4^j j^p, its multiplier
        # (T + 2) 2^(K p), and there are T of them
        b = p * T.bit_length() + K * p + 2 * T + 2 * (T + 2).bit_length()
        work, shift, moments = T * (T + 1) // 2 * b, 2, _path_moments(T, p)
    check_cap(T * b + work + b * b // 64, DP_BIT_WORK_CAP, what)
    acc = lhs = 0
    for j, M in enumerate(moments, 1):
        acc = (acc << shift) + M
        if j & (j - 1) == 0 or j == T:  # j = W for k = log2 j, or for k = K at j = T
            lhs += (acc + (T - j) * M) << (K - _k_max(j)) * p + shift * (T - j)
    # every tree step within the horizon moves distance exactly 1, a lazy one 1/2 on average
    return lhs, 1 << shift * T, Fraction(T) if tree else Fraction(T, 2)


def _tree_moments(T: int, p: int):
    """2^j E[d^p] j steps after a split on the tree (see
    tree_walk_convexity_exact), F_j = sum_{i<=j} 2^(i-1) (2i)^p, j = 1..T."""
    F = 0
    for j in range(1, T + 1):
        F += (2 * j) ** p << (j - 1)
        yield F


def _path_moments(T: int, p: int):
    """4^j E|Bin(2j, 1/2) - j|^p for j = 1..T (see lazy_path_convexity_exact),
    from one row of binomials per j."""
    power = [m**p for m in range(T + 1)]
    row = [1, 0]  # C(2j, j + m) for m = 0..j + 1, at j = 0
    for _ in range(T):
        # row j from row j - 1, m = -1..j + 1, by two passes of Pascal's rule
        row = [row[1], *row, 0]
        row = list(map(operator.add, row, row[1:]))
        row = list(map(operator.add, row, row[1:]))
        yield 2 * sum(map(operator.mul, row[1:], power[1:]))
        row.append(0)
