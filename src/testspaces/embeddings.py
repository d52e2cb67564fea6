"""Normed targets, distortion, Fréchet and summing-norm tree embeddings,
the James-condition grid search, submetric active pairs, and the cycle-into-
tree brute-force oracle.

Norms over rational vectors are exact for l1, linf and the summing norm;
l2 is evaluated in floating point.  An Embedding's vectors and a
SubmetricSpace's points are one RationalTable that every kernel reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import CollapsedPairError, ValidationError
from .generators import binary_tree, cycle, tree_labels, tree_order
from .metric_core import (
    INT64_MAX,
    TABLE_ENTRY_CAP,
    MetricSpace,
    PointId,
    RationalTable,
    WeightedGraph,
    _magnitude,
    apsp,
    check_cap,
    check_int,
    check_table_size,
    read_only,
)

@dataclass(frozen=True)
class NormedTarget:
    """A norm to measure embeddings in: l1, l2, linf or summing."""

    kind: str  # "l1" | "l2" | "linf" | "summing"
    dim: int

    def __post_init__(self):
        if self.kind not in ("l1", "l2", "linf", "summing"):
            raise ValidationError(f"unknown norm kind {self.kind!r}")
        check_int(self.dim, 1, "dimension must be an int >= 1")


# Row kernels: the norm of each row of a block of vectors, for `norm` (one
# row) and `distortion` (blocks of differences).  Integer rows are exact, so
# they sum in any order; float rows sum in coordinate order (cumsum), never
# pairwise or compensated, on every Python version.
_ROW_NORMS = {
    "l1": lambda x: np.cumsum(np.abs(x), axis=1)[:, -1] if x.dtype == float else np.abs(x).sum(axis=1),
    "linf": lambda x: np.abs(x).max(axis=1),
    "summing": lambda x: np.abs(np.cumsum(x, axis=1)).max(axis=1),
    "l2": lambda x: np.sqrt(np.cumsum(x * x, axis=1)[:, -1]),
}


def norm(target: NormedTarget, v: Sequence) -> Fraction | float:
    """Norm of v in the target, measured as a one-row block by the row
    kernels of `distortion`: exact entries (int or Fraction) outside l2 as
    integer numerators over their common denominator, giving a Fraction;
    float entries, and l2, as one float64 row summed in coordinate order,
    giving a float."""
    if len(v) != target.dim:
        raise ValidationError(f"vector has dim {len(v)}, target wants {target.dim}")
    kernel = _ROW_NORMS[target.kind]
    row = RationalTable((v,), headroom=len(v))  # sums of len(v) entries
    if target.kind != "l2" and row.exact:
        return Fraction(int(kernel(row.num)[0]), row.scale)
    return float(kernel(row.floats())[0])


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Embedding:
    """One vector per point of a metric space, measured in a normed target.

    The vectors are one RationalTable, `entries`, a row per point: int64
    numerators while the sums and cross-products of `distortion` fit, else
    Python ints, or float64.  The constructor takes rows, all exact (int or
    Fraction) or all float, or an integer or float array over `scale`."""

    space: MetricSpace
    entries: RationalTable
    target: NormedTarget

    def __init__(self, space: MetricSpace, table, target: NormedTarget, scale: int = 1):
        # a norm numerator is at most 2 * dim * max|entry|, times a distance
        entries = RationalTable(table, scale, 2 * target.dim * max(_magnitude(space.num), 1))
        if entries.num.shape != (space.size, target.dim):
            raise ValidationError(f"need {space.size} vectors of dimension {target.dim}, one per point")
        vars(self).update(space=space, entries=entries, target=target)

    table = property(lambda self: self.entries.num)
    scale = property(lambda self: self.entries.scale)
    exact = property(lambda self: self.entries.exact)
    vectors = cached_property(lambda self: self.entries.rows())  # a view, built on first use

    def rescaled(self, factor) -> "Embedding":
        """Every vector times `factor`: exactly for an int or Fraction, else in float64."""
        return Embedding(self.space, self.entries.rescaled(factor), self.target)

    def __eq__(self, other) -> bool:
        key = lambda e: (e.space, e.target, e.entries)
        return isinstance(other, Embedding) and key(self) == key(other)

    def __repr__(self) -> str:
        return f"Embedding(space={self.space!r}, vectors={self.vectors!r}, target={self.target!r})"


@dataclass(frozen=True)
class DistortionReport:
    """lip = smallest C with ||df|| <= C d;  colip = smallest C' with
    d <= C' ||df||;  distortion = lip * colip (scale-free)."""

    lip: Fraction | float
    colip: Fraction | float
    distortion: Fraction | float
    lip_witness: tuple[int, int]
    colip_witness: tuple[int, int]


def distortion(emb: Embedding) -> DistortionReport:
    """Exact pairwise maximization of expansion and contraction.

    lip and colip are taken at the first maximizing pair in (i, j) order,
    so every field, value types included, is what a loop over the pairs
    gives.  Exact vectors in l1, linf or the summing norm are
    measured in integers, summed in any order (the summing norm as the
    largest gap between the two points' prefix sums), and compared by
    cross-multiplication; float vectors, and l2, in float64 summed in
    coordinate order.  The row kernels are those of `norm`, so each pair's
    norm equals `norm` of the pair's difference vector.  Raises
    ValidationError for a negative distance, for no pair at positive
    distance, and, when measuring in floats, for a positive distance whose
    float is 0; CollapsedPairError for the first collapsed pair.
    """
    kind, space, n = emb.target.kind, emb.space, emb.space.size
    pairs = np.triu_indices(n, 1)  # (i, j) order
    pair = lambda k: (int(pairs[0][k]), int(pairs[1][k]))
    dist = space.num[pairs]
    if (dist < 0).any():
        raise ValidationError("distortion needs nonnegative distances")
    valid = dist != 0
    if not valid.any():
        raise ValidationError("distortion needs a pair at positive distance")
    if not emb.exact or kind == "l2":
        dist = space.floats()[pairs]
        if (dist[valid] == 0).any():
            raise ValidationError("a positive distance is 0.0 in float64")
    norms = _difference_norms(emb, *pairs)
    collapsed = np.flatnonzero(valid & (norms == 0))
    if collapsed.size:
        raise CollapsedPairError(*pair(collapsed[0]))
    at = np.flatnonzero(valid)
    num, den = norms[at], dist[at]
    if norms.dtype == float:
        # dn / d and d / dn of the loop, which divides by float(d)
        a, b = at[np.argmax(num / den)], at[np.argmax(den / num)]
        lip = float(norms[a]) / float(dist[a])
        colip = float(dist[b]) / float(norms[b])
    else:
        a, b = at[_first_max(num, den)], at[_first_max(den, num)]
        (norm_a, norm_b), (dist_a, dist_b) = norms[[a, b]].tolist(), dist[[a, b]].tolist()
        lip = Fraction(norm_a * space.scale, dist_a * emb.scale)
        colip = Fraction(dist_b * emb.scale, norm_b * space.scale)
    return DistortionReport(lip, colip, lip * colip, pair(a), pair(b))


_DIFF_BLOCK = 1 << 14  # entries per block of differences, unless one row of pairs is more


def _difference_norms(emb: Embedding, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Norms of f(i) - f(j) over the pairs (first[k], second[k]) in order,
    measured in blocks of pairs: numerators over emb.scale for exact vectors
    outside l2, else float64."""
    kind, table = emb.target.kind, emb.table
    if emb.exact and kind == "summing":
        # the summing norm of f(i) - f(j) is the linf norm of the difference
        # of their prefix sums, which the table's headroom holds
        table, kind = np.cumsum(table, axis=1), "linf"
    step = max(emb.space.size, _DIFF_BLOCK // table.shape[1])
    blocks = (slice(k, k + step) for k in range(0, len(first), step))
    diffs = (table[first[b]] - table[second[b]] for b in blocks)
    if emb.exact and kind == "l2":
        # the differences are exact, so one division rounds each entry as
        # float(a - b) does
        diffs = (RationalTable(read_only(x), emb.scale).floats() for x in diffs)
    return np.concatenate([_ROW_NORMS[kind](x) for x in diffs])


def _first_max(num: np.ndarray, den: np.ndarray) -> int:
    """Index of the first maximum of num[k] / den[k] (every den[k] > 0),
    exact.  Each float ratio is within a relative 2^-50 of the true one, so
    the indices within a relative 2^-40 of the float maximum hold every
    exact maximum (entries too large for a float shortlist nothing).  The
    first candidate then wins unless a later one is strictly larger by
    cross-multiplication; if some are, the search goes on among those."""
    try:
        ratio = num.astype(float) / den.astype(float)
    except OverflowError:
        cands = np.arange(len(num))
    else:
        top = ratio.max()
        cands = np.flatnonzero(ratio >= top - abs(top) * 2.0**-40)
    while True:
        c = cands[:1]  # an array, so Python-int and int64 entries mix as objects
        better = cands[num[cands] * den[c] > num[c] * den[cands]]
        if not better.size:
            return int(c[0])
        cands = better


def map_distortion(
    source: MetricSpace, target_space: MetricSpace, mapping: Sequence[int]
) -> Optional[Fraction]:
    """Distortion of a vertex map between two finite metric spaces, exact:
    the largest target-to-source and source-to-target distance ratios over
    the pairs at positive source distance, found by the cross-multiplying
    reducer of `distortion` on the numerators (the scales cancel).

    Returns None when the map collapses a pair (infinite distortion).
    Raises ValidationError for a negative distance or for no pair at
    positive source distance.
    """
    n = source.size
    if len(mapping) != n:
        raise ValidationError("need exactly one image per source point")
    first, second = np.triu_indices(n, 1)
    image = np.asarray(mapping, dtype=np.intp)
    src, tgt = source.num[first, second], target_space.num[image[first], image[second]]
    if (src < 0).any() or (tgt < 0).any():
        raise ValidationError("map distortion needs nonnegative distances")
    valid = src != 0
    if not valid.any():
        raise ValidationError("map distortion needs a pair at positive distance")
    src, tgt = src[valid], tgt[valid]
    if not tgt.all():
        return None
    if int(src.max()) * int(tgt.max()) > INT64_MAX:  # the cross-products
        src, tgt = src.astype(object), tgt.astype(object)
    a, b = _first_max(tgt, src), _first_max(src, tgt)
    (tgt_a, tgt_b), (src_a, src_b) = tgt[[a, b]].tolist(), src[[a, b]].tolist()
    return Fraction(tgt_a * src_b, src_a * tgt_b)


def frechet_embed(space: MetricSpace) -> Embedding:
    """point i -> (d(i, 0), ..., d(i, N-1)) in linf: always isometric."""
    return Embedding(space, space.num, NormedTarget("linf", space.size), space.scale)


# ---------------------------------------------------------------------------
# James sequences in the summing norm
# ---------------------------------------------------------------------------

JAMES_GRID_CAP = 10**6  # coefficient vectors; it also keeps every partial sum within 998


@dataclass(frozen=True)
class JamesAlphaResult:
    analytic_bound: Fraction  # 1/3, valid for every coefficient vector
    empirical: Fraction  # grid minimum of ||sum a_i e_i||_s / (|S_j| + |S_m - S_j|)
    witness_coeffs: tuple[int, ...]
    witness_j: int


def james_alpha(m: int, coeff_bound: int = 3) -> JamesAlphaResult:
    """Grid search over integer coefficients in [-bound, bound]^m for the
    worst ratio of the summing norm to the James two-block sum.

    The analytic bound 1/3 holds for all real coefficients: |S_j| <= sup_k
    |S_k| and |S_m - S_j| <= 2 sup_k |S_k|.  A grid of more than
    JAMES_GRID_CAP vectors raises CapExceededError.
    """
    check_int(m, 2, "need an int m >= 2")
    check_int(coeff_bound, 1, "empty coefficient grid: need an int bound >= 1")
    what = f"the number of coefficient vectors in [-{coeff_bound}, {coeff_bound}]^{m}"
    check_cap((2 * coeff_bound + 1) ** min(m, JAMES_GRID_CAP.bit_length()), JAMES_GRID_CAP, what)
    # partial sums S_1..S_m of every grid vector, rows in itertools.product
    # order; |S| <= 998 under the cap, so the int32 cross-products below fit
    S = np.indices((2 * coeff_bound + 1,) * m, dtype=np.int32).reshape(m, -1).T - coeff_bound
    np.cumsum(S, axis=1, out=S)
    sup = np.abs(S).max(axis=1)
    # each vector's largest denominator |S_j| + |S_m - S_j| and its first j:
    # sup is fixed per vector, so that j gives the vector's least ratio
    top = np.zeros(len(S), dtype=np.int32)
    best_j = np.zeros(len(S), dtype=np.int64)
    for j in range(1, m):
        den = np.abs(S[:, j - 1]) + np.abs(S[:, -1] - S[:, j - 1])
        wider = den > top
        top[wider] = den[wider]
        best_j[wider] = j
    usable = top > 0
    if not usable.any():
        raise ValidationError("no usable coefficient vector in grid")
    # the least sup over each denominator, then the least of those ratios
    least = np.full(int(top.max()) + 1, int(sup.max()) + 1, dtype=np.int32)
    np.minimum.at(least, top[usable], sup[usable])
    num = den = None
    for d in np.flatnonzero(least <= sup.max()).tolist():
        a = int(least[d])
        if num is None or a * den < num * d:
            num, den = a, d
    # the first vector, in grid order, that attains it
    i = int(np.flatnonzero(usable & (sup * den == top * num))[0])
    coeffs = tuple(np.diff(S[i], prepend=0).tolist())
    return JamesAlphaResult(Fraction(1, 3), Fraction(num, den), coeffs, int(best_j[i]))


# ---------------------------------------------------------------------------
# Bourgain's tree embedding into the summing norm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BourgainLabeling:
    """psi sends a 0/1 string to sum_i 2^{-i} (2 theta_i - 1); phi ranks the
    psi values in increasing order with 1-based indices."""

    depth: int
    psi: dict
    phi: dict


def _bourgain_tree(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Depth, bits (the label read in binary) and phi, the in-order rank, of
    T_n's vertices in heap order, after the table cap; psi = (phi - 2^n) / 2^n."""
    check_table_size(tree_order(n, TABLE_ENTRY_CAP), f"the binary tree of depth {n}")
    depth = np.arange(n + 1).repeat(1 << np.arange(n + 1))
    bits = np.arange(depth.size) + 1 - (1 << depth)
    return depth, bits, (bits << (n - depth + 1)) + (1 << (n - depth))


def bourgain_labeling(n: int) -> BourgainLabeling:
    check_int(n, 0, "depth must be an int >= 0")
    ranks = _bourgain_tree(n)[2].tolist()  # the table cap first, before any label
    phi = dict(zip(tree_labels(n), ranks))
    psi = {lab: Fraction(rank - 2**n, 2**n) for lab, rank in phi.items()}
    return BourgainLabeling(n, psi, phi)


def bourgain_embed(n: int) -> Embedding:
    """Vertex t -> sum over ancestors s <= t of e_{phi(s)}, in the summing
    norm of dimension 2^{n+1} - 1."""
    check_int(n, 1, "depth must be an int >= 1")
    depth, _, phi = _bourgain_tree(n)
    space = apsp(binary_tree(n))  # its points in heap order, as _bourgain_tree's
    table = np.zeros((depth.size, depth.size), dtype=np.int64)
    for up in range(n + 1):  # each point's ancestor `up` edges above it, where there is one
        below = np.flatnonzero(depth >= up)
        table[below, phi[((below + 1) >> up) - 1] - 1] = 1
    return Embedding(space, read_only(table), NormedTarget("summing", depth.size))


def bourgain_distortion(n: int) -> DistortionReport:
    """Exact distortion of the depth-n summing-norm tree embedding.

    For labels a < b in heap order below their longest common prefix
    c by la and lb >= 1 edges, f(a) - f(b) is +1 at a's ancestors below c
    and -1 at b's.  These lie in the subtrees of c's two children and phi is
    the in-order rank, so one side's coordinates all come first: the running
    sums climb to l, the length on the side with the smaller phi, then fall
    by the other's, and the summing norm is max(l, la + lb - 2l).  That is
    lb when la = 0, max(la, lb - la) when a lies on c's 0-side (the only
    side when la = lb) and lb when a lies on its 1-side.  Neither the norm
    nor the distance la + lb depends on c, so each class (la, lb, side) has
    its first pair in (a, b) order at c = '': lip and colip are the maxima
    over those n^2 + 2n pairs, ties to the first, found by `_first_max`."""
    check_int(n, 1, "depth must be an int >= 1")
    _bourgain_tree(n)  # the table cap, as bourgain_labeling and bourgain_embed meet it
    pairs = _bourgain_classes(n)
    sup, dist = np.array(list(zip(*pairs))[2:])
    lip, colip = pairs[_first_max(sup, dist)], pairs[_first_max(dist, sup)]
    lip_v, colip_v = Fraction(lip[2], lip[3]), Fraction(colip[3], colip[2])
    return DistortionReport(lip_v, colip_v, lip_v * colip_v, lip[:2], colip[:2])


def _bourgain_classes(n: int) -> list[tuple[str, str, int, int]]:
    """(a, b, summing norm, distance) of the first pair of each class
    (la, lb, side) of bourgain_distortion, with c = '', in (a, b) order."""
    zeros = lambda k: "0" * k
    one = lambda k: "1" + "0" * (k - 1)
    pairs = [("", b, lb, lb) for lb in range(1, n + 1) for b in (zeros(lb), one(lb))]
    for la in range(1, n + 1):
        pairs += [(zeros(la), one(lb), max(la, lb - la), la + lb) for lb in range(la, n + 1)]
        pairs += [(one(la), zeros(lb), lb, la + lb) for lb in range(la + 1, n + 1)]
    return pairs


# ---------------------------------------------------------------------------
# Submetric space X_Delta: active pairs under the summing norm
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class SubmetricSpace:
    """Finite subset of l1 with the active-pair predicate
    ||x - y||_1 <= Delta ||x - y||_s.  The points are one exact
    RationalTable, `entries`, a row per point."""

    entries: RationalTable
    delta: Fraction

    def __init__(self, points, delta: Fraction):
        # the norms of differences sum dim entries of at most 2 max|entry|
        entries = RationalTable(points, 1, 2 * max(map(len, points), default=1))
        if not entries.exact or 0 in entries.num.shape:
            raise ValidationError("need at least one point, with exact (int or Fraction) coordinates")
        if not isinstance(delta, (int, Fraction)) or delta < 1:
            raise ValidationError(f"Delta must be a rational >= 1, got {delta!r}")
        vars(self).update(entries=entries, delta=delta)

    size = property(lambda self: self.entries.num.shape[0])
    dim = property(lambda self: self.entries.num.shape[1])

    def _pairs(self, first, second) -> tuple[np.ndarray, np.ndarray]:
        """l1 norms of x_i - x_j over index arrays (first, second), Python-int
        numerators over the table's scale, and which pairs are active."""
        diff = self.entries.num[first] - self.entries.num[second]
        l1, s = (_ROW_NORMS[kind](diff).astype(object) for kind in ("l1", "summing"))
        return l1, l1 * self.delta.denominator <= s * self.delta.numerator

    def active_pairs(self) -> list[tuple[int, int]]:
        first, second = np.triu_indices(self.size, 1)
        active = self._pairs(first, second)[1]
        return list(zip(first[active].tolist(), second[active].tolist()))


@dataclass(frozen=True)
class SubmetricCheck:
    constant: Optional[Fraction | float]  # smallest valid C, when no violation
    violation: Optional[tuple[int, int]]  # active pair with ||df|| < d


def submetric_check(sub: SubmetricSpace, emb: Embedding) -> SubmetricCheck:
    """Smallest C with d <= ||f(x)-f(y)|| <= C d over active pairs only, or
    the first active pair with ||f(x)-f(y)|| < d; the norms come from the
    row kernels over all pairs, and each active pair is compared exactly."""
    if emb.space.size != sub.size:
        raise ValidationError("embedding must be defined on the submetric points")
    first, second = np.triu_indices(sub.size, 1)
    d, active = sub._pairs(first, second)
    at = np.flatnonzero(active & (d != 0)).tolist()
    norms = _difference_norms(emb, first, second).tolist() if at else []
    exact = emb.exact and emb.target.kind != "l2"
    ratios = []
    for k in at:
        dist = Fraction(d[k], sub.entries.scale)
        dn = Fraction(norms[k], emb.scale) if exact else norms[k]
        if dn < dist:
            return SubmetricCheck(None, (int(first[k]), int(second[k])))
        ratios.append(dn / dist)
    return SubmetricCheck(max(ratios, default=None), None)


def submetric_space_metric(sub: SubmetricSpace) -> MetricSpace:
    n = sub.size
    l1 = sub._pairs(*np.divmod(np.arange(n * n), n))[0]
    return MetricSpace(l1.reshape(n, n), sub.entries.scale)


# ---------------------------------------------------------------------------
# Cycles into trees: brute-force lower-bound oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleTreeResult:
    m: int
    max_tree_vertices: int
    min_distortion: Optional[Fraction]  # None: every map collapsed a pair
    bound: Fraction  # m/3 - 1
    witness_tree_edges: Optional[tuple[tuple[int, int], ...]]
    witness_map: Optional[tuple[int, ...]]
    maps_searched: int


CYCLE_TREE_MAP_BUDGET = 50_000_000


def cycle_tree_lower_oracle(m: int, max_tree_vertices: int) -> CycleTreeResult:
    """Exhaustively search all unlabeled unit-weight trees up to the given
    order and all injective vertex maps of the m-cycle into them (a map that
    collapses a pair has infinite distortion, so it cannot win); return the
    minimum distortion found (None when no tree has m vertices).
    `maps_searched` and CYCLE_TREE_MAP_BUDGET count all order^m maps of
    every tree, the non-injective ones rejected without being evaluated.

    Consistency guard: the Rabinovich-Raz bound m/3 - 1 must never be beaten.
    """
    import networkx as nx

    check_int(m, 3, "cycle needs an int m >= 3")
    check_int(max_tree_vertices, 1, "need an int max_tree_vertices >= 1")
    trees = {}  # order -> edge lists of its unlabeled trees
    total_maps = 1  # the constant map into the one-vertex tree
    for order in range(2, max_tree_vertices + 1):
        trees[order] = [
            tuple(sorted(tuple(sorted(e)) for e in tree.edges()))
            for tree in nx.nonisomorphic_trees(order)
        ]
        # a clipped m exceeds the budget at once, so the count returned is never clipped
        total_maps += order ** min(m, CYCLE_TREE_MAP_BUDGET.bit_length()) * len(trees[order])
        what = f"the number of maps of C_{m} into trees on at most {order} vertices"
        check_cap(total_maps, CYCLE_TREE_MAP_BUDGET, what)
    bound = Fraction(m, 3) - 1
    if max_tree_vertices < m:  # no tree has m vertices: nothing to search
        return CycleTreeResult(m, max_tree_vertices, None, bound, None, None, total_maps)

    cyc = apsp(cycle(m))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]

    best = None  # (distortion float, tree edges, map tuple, tree space)
    for order in range(m, max_tree_vertices + 1):
        points = tuple(PointId(i) for i in range(order))
        for edges in trees[order]:
            tree_space = apsp(WeightedGraph(points, tuple((u, v, Fraction(1)) for u, v in edges)))
            td = tree_space.num
            injective = itertools.permutations(range(order), m)
            while True:
                chunk = itertools.chain.from_iterable(itertools.islice(injective, 200_000))
                maps = np.fromiter(chunk, dtype=np.int64).reshape(-1, m)
                if not len(maps):
                    break
                ratio_max = np.zeros(len(maps))
                ratio_min = np.full(len(maps), np.inf)
                for i, j in pairs:
                    r = td[maps[:, i], maps[:, j]] / cyc.num[i, j]
                    ratio_max = np.maximum(ratio_max, r)
                    ratio_min = np.minimum(ratio_min, r)
                dist = ratio_max / ratio_min
                k = int(np.argmin(dist))
                if best is None or dist[k] < best[0]:
                    best = (float(dist[k]), edges, tuple(int(x) for x in maps[k]), tree_space)

    # re-verify the winning map in exact arithmetic
    _, edges, mapping, tree_space = best
    exact = map_distortion(cyc, tree_space, mapping)
    if exact is None:
        raise ValidationError("internal error: winning map collapsed on re-check")
    if exact < bound:
        raise ValidationError(
            f"search found distortion {exact} below the m/3 - 1 bound {bound}; "
            "this contradicts Rabinovich-Raz and indicates a bug"
        )
    return CycleTreeResult(m, max_tree_vertices, exact, bound, edges, mapping, total_maps)
