"""Markov p-convexity functional: exact dynamic programming on integer
rows (for the downward tree walk, one integer pass over the depths
instead), Monte Carlo estimation (one shared base trajectory per sample
with a branched copy per split time; for the downward tree walk, one
first-disagreement draw per split time instead; both on blocks of samples
with their own substreams), and the built-in walks (downward tree walk,
downhill diamond/Laakso walks, lazy path walk).
A chain is one CSR table, checked once by its constructor: each state's
moves, to increasing targets, with positive integer weights over one
denominator D; the built-in walks, all uniform choices, build it in
integers from their out-degrees.  The DP and the Monte Carlo tables read
that table.  One breadth-first pass over it finds the states reachable
within the horizon, and both modes build their d^p table over those
states' points only.  The Monte Carlo stepper pads each row to a
power-of-two width, holds each state as its row offset (state * width),
and takes a move by a branchless binary search over the row's running
sums.

Time window: t runs over 1..T and k over 0..ceil(log2 T) with the chain
frozen at its start state for t <= 0.  The truncated left-hand sum is a
lower bound of the bilateral one, so (lhs/rhs)^(1/p) remains a valid lower
bound for the convexity constant.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import CapExceededError, ValidationError
from .generators import RecursiveFamily, binary_tree
from .metric_core import INT64_MAX, TABLE_ENTRY_CAP, MetricSpace, RationalTable, apsp, check_table_size, read_only

TREE_VERTEX_CAP = 100_000
# bit operations of the exact tree pass, T (T + p ceil(log2 2T)): at p = 2,
# m = 15 (1.07e9) runs and m = 16 (4.3e9) does not
TREE_BIT_WORK_CAP = 2**31


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

    def __post_init__(self):
        indptr, targets, weights = (np.array(a) for a in (self.indptr, self.targets, self.weights))
        # [-1] and -1 stand for an indptr and targets that are not 1-D ints
        indptr = indptr.astype(np.int64) if indptr.ndim == 1 and indptr.dtype.kind in "iu" else np.array([-1])
        n = len(indptr) - 1
        if n < 0 or indptr[0] != 0 or (np.diff(indptr) < 0).any() or not indptr[-1] == targets.size == weights.size:
            raise ValidationError("indptr must rise from 0 to len(targets) = len(weights)")
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

    def __call__(self, state: int) -> int:
        return self.point_of_state[state]


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
    return max(0, math.ceil(math.log2(T))) if T > 1 else 0


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


def _check_map(chain: MarkovChain, mmap: MetricMap, space: MetricSpace) -> None:
    if len(mmap.point_of_state) != chain.n_states:
        raise ValidationError("metric map must cover every state")
    if any(not 0 <= x < space.size for x in mmap.point_of_state):
        raise ValidationError(f"metric map points must lie in range({space.size})")


def _reachable(chain: MarkovChain) -> np.ndarray:
    """The states reachable from start within the horizon, increasing: a
    breadth-first pass over the CSR, one level per step."""
    indptr, targets = chain.indptr.tolist(), chain.targets.tolist()
    reach, level = {chain.start}, [chain.start]
    for _ in range(chain.horizon):
        level = {v for a in level for v in targets[indptr[a] : indptr[a + 1]]} - reach
        if not level:
            break
        reach |= level
    return np.array(sorted(reach))


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
    table covers only the points of the states reachable from start within
    T steps."""
    if not isinstance(p, int) or p < 1:
        raise ValidationError("exact mode needs integer p >= 1")
    _check_map(chain, mmap, space)
    T = chain.horizon
    K = _k_max(T)
    terms = _split_terms(T)
    D, pairs = chain.D, list(zip(chain.targets.tolist(), chain.weights.tolist()))
    moves = [pairs[a:b] for a, b in itertools.pairwise(chain.indptr.tolist())]

    # only the points of the states reachable within T steps are read
    reach = _reachable(chain).tolist()

    # N[x][y] = (E d(x, y))^p between their points; at[a] = point of state a
    points = sorted({mmap.point_of_state[a] for a in reach})
    where = {x: i for i, x in enumerate(points)}
    at = {a: where[mmap.point_of_state[a]] for a in reach}
    N = [[x**p for x in row] for row in space.num[np.ix_(points, points)].tolist()]

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

# cells (samples x (T + 1)) drawn per block of samples; this fixes both the
# draws and the memory, O(T * block) whatever `samples` is
MC_BLOCK_CELLS = 2**20


def _check_mc_args(p: float, seed: int, samples: int) -> None:
    if not p >= 1:
        raise ValidationError("Monte Carlo mode needs p >= 1")
    if seed < 0:
        raise ValidationError("need seed >= 0")
    if samples < 1:
        raise ValidationError("need samples >= 1")


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
    first.  A positive distance whose p-th power leaves the float64 range
    raises ValidationError: use `exact_convexity` there; a horizon past the
    term table cap raises CapExceededError."""
    _check_mc_args(p, seed, samples)
    _check_map(chain, mmap, space)
    T = chain.horizon
    terms = _split_terms(T)
    nbrs, cum, width = _sim_tables(chain)
    # every positive distance between mapped points must have a float p-th power
    point, scale = np.array(mmap.point_of_state), space.scale
    mapped = np.zeros(space.size, dtype=bool)
    mapped[point] = True
    num = space.num if mapped.all() else space.num[np.ix_(mapped, mapped)]
    positive = num[num > 0]
    if positive.size:
        _check_float_powers(int(positive.min()) / scale, int(positive.max()) / scale, p)
    # d^p over the points of the reachable states, one correctly rounded
    # x**p per distinct distance; at[u * width] is the row of state u's point
    reach = _reachable(chain)
    points, slot = np.unique(point[reach], return_inverse=True)
    values, inverse = np.unique(space.num[np.ix_(points, points)], return_inverse=True)
    dpow = np.array([(x / scale) ** p for x in values.tolist()])[inverse.reshape(points.size, -1)]
    at = np.zeros(chain.n_states * width, dtype=np.intp)
    at[reach * width] = slot

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
    running = [sum(n >= j for n in length) for j in range(T + 1)]
    # so are the rows weighted at step j: s = 0 at every j, the rest at powers of two
    used = [int(np.flatnonzero(W[:, j]).max(initial=-1)) + 1 for j in range(T + 1)]

    def draw(rng, size):
        base = np.empty((T + 1, size), dtype=np.int64)
        base[0] = chain.start * width
        for i in range(1, T + 1):
            base[i] = _move(base[i - 1], rng.random(size), nbrs, cum, width)
        branch = base[split]
        base = at[base]  # from here on only the base's points are read
        lhs = np.zeros(size)
        for j in range(1, T + 1):
            live = branch[: running[j]]
            live[...] = _move(live, rng.random(live.shape), nbrs, cum, width)
            c = used[j]
            lhs += (W[:c, j, None] * dpow[base[split[:c] + j], at[branch[:c]]]).sum(axis=0)
        return lhs, dpow[base[:-1], base[1:]].sum(axis=0)

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

    Explicit mode materializes the tree; for depths beyond the cap use the
    split-time analytic evaluator tree_walk_convexity_exact instead.
    """
    if m < 1:
        raise ValidationError("need m >= 1")
    depth = 2**m
    n_vertices = 2 ** (depth + 1) - 1
    if n_vertices > TREE_VERTEX_CAP:
        raise CapExceededError(
            f"T_{depth} has {n_vertices} vertices (cap {TREE_VERTEX_CAP}); "
            "use the analytic mode (tree_walk_convexity_exact / _mc)"
        )
    space = apsp(binary_tree(depth))
    # vertices in tree_labels order: the root is 0, the children of i are
    # 2i + 1 and 2i + 2, and the leaves (absorbing) are the last 2^depth
    inner, n = 2**depth - 1, space.size
    indptr = np.concatenate((np.arange(0, 2 * inner, 2), np.arange(2 * inner, inner + n + 1)))
    targets = np.concatenate((np.arange(1, 2 * inner + 1), np.arange(inner, n)))
    return WalkBundle(_uniform_chain(indptr, targets, 0, depth), MetricMap(tuple(range(n))), space)


def tree_walk_convexity_exact(m: int, p: int) -> ConvexityEstimate:
    """Split-time analytic evaluator for the downward walk on T_{2^m}: within
    the horizon T = 2^m the walk sits at depth t, two copies split at time s
    first disagree at step r with probability 2^{s-r}, and their distance at
    time t is then 2(t - r + 1).  Exact rationals, no tree materialized.

    A term (k, t) reads only j = min(t, 2^k) steps after its split, with
    E[d^p] = F[j] / 2^j, F[w] = sum_{i=1..w} 2^(i-1) (2i)^p.  So the lhs is
    sum_k 2^(-kp) (sum_{w<=W} F[w] / 2^w + (T - W) F[W] / 2^W), W = 2^k, and
    one pass over w = 1..T in Python ints builds it over 2^(T + mp).  That
    pass costs about T (T + p ceil(log2 2T)) bit operations; past
    TREE_BIT_WORK_CAP it raises CapExceededError before any arithmetic."""
    if m < 1 or not isinstance(p, int) or p < 1:
        raise ValidationError("need m >= 1 and integer p >= 1")
    # T^2 alone exceeds the cap once 2m reaches its bit length
    if 2 * m >= TREE_BIT_WORK_CAP.bit_length() or 2**m * (2**m + p * (m + 1)) > TREE_BIT_WORK_CAP:
        raise CapExceededError(
            f"the exact tree pass at T = 2^{m}, p = {p} needs T (T + p ceil(log2 2T)) bit "
            f"operations, more than the cap of {TREE_BIT_WORK_CAP}"
        )
    T = 2**m
    # F = F[w]; A = sum_{i<=w} 2^(w-i) F[i], so sum_{i<=w} F[i] / 2^i = A / 2^w
    F = A = lhs = 0
    for w in range(1, T + 1):
        F += (2 * w) ** p << (w - 1)
        A = 2 * A + F
        if w & (w - 1) == 0:  # w = W = 2^k: the terms of k, lifted to 2^(T + mp)
            lhs += (A + (T - w) * F) << ((m - w.bit_length() + 1) * p + T - w)
    rhs = Fraction(T)  # every step within the horizon moves distance exactly 1
    return ConvexityEstimate(
        float(p), Fraction(lhs, 2 ** (T + m * p)), rhs, MethodInfo("exactDP(analytic)")
    )


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
    if m < 1:
        raise ValidationError("need m >= 1")
    _check_mc_args(p, seed, samples)
    # the (T + 1)^2 term table; T^2 alone exceeds the cap once 2m reaches its bit length
    if 2 * m >= TABLE_ENTRY_CAP.bit_length() or (2**m + 1) ** 2 > TABLE_ENTRY_CAP:
        raise CapExceededError(
            f"the time window 0..2^{m} needs (2^{m} + 1)^2 table entries, "
            f"more than the cap of {TABLE_ENTRY_CAP}"
        )
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
        first = np.minimum(rng.geometric(0.5, (T, size)), T + 1)
        return gain[rows, first].sum(axis=0), np.full(size, float(T))

    return _block_estimate(p, seed, samples, T, draw)


def downhill_walk(
    family: RecursiveFamily, horizon: Optional[int] = None
) -> WalkBundle:
    """From every non-sink vertex move uniformly to a neighbor strictly
    closer to the sink; the sink is absorbing.  Default horizon is the hop
    count of a source-to-sink geodesic, so every edge must have the same
    length (ValidationError names the first edge that differs)."""
    graph = family.graph
    edge_len = graph.edges[0][2]
    if (graph.lengths != graph.lengths[0]).any():  # name the first edge that differs
        u, v, w = next(e for e in graph.edges if e[2] != edge_len)
        raise ValidationError(
            f"downhill walk needs uniform edge lengths: edge ({u},{v}) has "
            f"length {w}, edge 0 has {edge_len}"
        )
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
    return WalkBundle(chain, MetricMap(tuple(range(n))), space)


def lazy_path_walk(T: int) -> WalkBundle:
    """Monotone lazy walk on a path: move right or stay with probability 1/2,
    right end absorbing.  Maps onto a single geodesic segment; a recorded
    baseline that the functional stays bounded here (the line is Markov
    convex)."""
    if T < 1:
        raise ValidationError("need horizon >= 1")
    check_table_size(T + 1, "the graph")
    points = np.arange(T + 1)
    space = MetricSpace(read_only(abs(points[:, None] - points)), 1, (None,) * (T + 1))
    # state i < T moves to i and i + 1, and T to itself
    indptr = np.append(np.arange(0, 2 * T + 1, 2), 2 * T + 1)
    chain = _uniform_chain(indptr, np.arange(1, 2 * T + 2) // 2, 0, T)
    return WalkBundle(chain, MetricMap(tuple(range(T + 1))), space)
