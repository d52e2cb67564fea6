"""Normed targets, distortion, Fréchet and summing-norm tree embeddings,
the James-condition grid search, submetric active pairs, and the cycle-into-
tree brute-force oracle.

Norms over rational vectors are exact for l1, linf and the summing norm;
l2 is evaluated in floating point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceededError, CollapsedPairError, ValidationError
from .generators import binary_tree, common_prefix, tree_labels
from .metric_core import MetricSpace

Vector = tuple  # tuple of Fraction/int (exact kinds) or float (l2)


@dataclass(frozen=True)
class NormedTarget:
    """A norm to measure embeddings in: l1, l2, linf, summing, or a gauge.

    For kind "gauge", `gauge` must expose evaluate(vector) -> Fraction
    (see rnp.GaugeNorm).
    """

    kind: str  # "l1" | "l2" | "linf" | "summing" | "gauge"
    dim: int
    gauge: Optional[object] = None

    def __post_init__(self):
        if self.kind not in ("l1", "l2", "linf", "summing", "gauge"):
            raise ValidationError(f"unknown norm kind {self.kind!r}")
        if self.kind == "gauge" and self.gauge is None:
            raise ValidationError("gauge target needs a gauge norm object")
        if self.dim <= 0:
            raise ValidationError("dimension must be positive")


def norm(target: NormedTarget, v: Sequence) -> Fraction | float:
    """Norm of v in the target; exact for rational inputs except l2."""
    if len(v) != target.dim:
        raise ValidationError(f"vector has dim {len(v)}, target wants {target.dim}")
    if target.kind == "l1":
        return sum((abs(x) for x in v), Fraction(0)) if _is_exact(v) else float(sum(abs(x) for x in v))
    if target.kind == "linf":
        m = max(abs(x) for x in v)
        return m if _is_exact(v) else float(m)
    if target.kind == "summing":
        s = Fraction(0) if _is_exact(v) else 0.0
        best = abs(s) * 0
        for x in v:
            s += x
            if abs(s) > best:
                best = abs(s)
        return best
    if target.kind == "l2":
        return math.sqrt(float(sum(float(x) * float(x) for x in v)))
    return target.gauge.evaluate(tuple(v))  # type: ignore[union-attr]


def _is_exact(v: Sequence) -> bool:
    return all(isinstance(x, (int, Fraction)) for x in v)


@dataclass(frozen=True)
class Embedding:
    """One vector per point of a metric space, measured in a normed target."""

    space: MetricSpace
    vectors: tuple[Vector, ...]
    target: NormedTarget

    def __post_init__(self):
        if len(self.vectors) != self.space.size:
            raise ValidationError("need exactly one vector per point")
        for vec in self.vectors:
            if len(vec) != self.target.dim:
                raise ValidationError("vector dimension does not match target")
            for x in vec:
                if isinstance(x, float) and not math.isfinite(x):
                    raise ValidationError("vector entries must be finite")

    def diff_norm(self, i: int, j: int) -> Fraction | float:
        return norm(self.target, tuple(a - b for a, b in zip(self.vectors[i], self.vectors[j])))

    def rescaled(self, factor) -> "Embedding":
        vecs = tuple(tuple(x * factor for x in vec) for vec in self.vectors)
        return Embedding(self.space, vecs, self.target)


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
    """Exact pairwise maximization of expansion and contraction."""
    n = emb.space.size
    if n < 2:
        raise ValidationError("distortion needs at least 2 points")
    lip = None
    colip = None
    lip_w = colip_w = (0, 0)
    for i in range(n):
        for j in range(i + 1, n):
            d = emb.space.d(i, j)
            if d == 0:
                continue
            dn = emb.diff_norm(i, j)
            if dn == 0:
                raise CollapsedPairError(i, j)
            r = dn / d
            if lip is None or r > lip:
                lip, lip_w = r, (i, j)
            rinv = d / dn
            if colip is None or rinv > colip:
                colip, colip_w = rinv, (i, j)
    return DistortionReport(lip, colip, lip * colip, lip_w, colip_w)


def map_distortion(source: MetricSpace, target_space: MetricSpace, mapping: Sequence[int]):
    """Distortion of a vertex map between two finite metric spaces.

    Returns None when the map collapses a pair (infinite distortion).
    """
    n = source.size
    lip = colip = None
    for i in range(n):
        for j in range(i + 1, n):
            d = source.d(i, j)
            if d == 0:
                continue
            dt = target_space.d(mapping[i], mapping[j])
            if dt == 0:
                return None
            r = dt / d
            lip = r if lip is None or r > lip else lip
            rinv = d / dt
            colip = rinv if colip is None or rinv > colip else colip
    return lip * colip


def frechet_embed(space: MetricSpace) -> Embedding:
    """point i -> (d(i, 0), ..., d(i, N-1)) in linf: always isometric."""
    vectors = tuple(tuple(row) for row in space.dist)
    return Embedding(space, vectors, NormedTarget("linf", space.size))


# ---------------------------------------------------------------------------
# James sequences in the summing norm
# ---------------------------------------------------------------------------

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
    |S_k| and |S_m - S_j| <= 2 sup_k |S_k|.
    """
    if m < 2:
        raise ValidationError("need m >= 2")
    if coeff_bound < 1:
        raise ValidationError("empty coefficient grid")
    best: Optional[Fraction] = None
    witness = None
    for coeffs in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=m):
        partial = 0
        partials = []
        for a in coeffs:
            partial += a
            partials.append(partial)
        sup = max(abs(s) for s in partials)
        for j in range(1, m):
            den = abs(partials[j - 1]) + abs(partials[-1] - partials[j - 1])
            if den == 0:
                continue
            ratio = Fraction(sup, den)
            if best is None or ratio < best:
                best, witness = ratio, (coeffs, j)
    if best is None:
        raise ValidationError("no usable coefficient vector in grid")
    return JamesAlphaResult(Fraction(1, 3), best, witness[0], witness[1])


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


def bourgain_labeling(n: int) -> BourgainLabeling:
    if n < 0:
        raise ValidationError("depth must be >= 0")
    labels = tree_labels(n)
    psi = {}
    for lab in labels:
        psi[lab] = sum(
            (Fraction(2 * int(ch) - 1, 2 ** (i + 1)) for i, ch in enumerate(lab)),
            Fraction(0),
        )
    ranked = sorted(labels, key=lambda L: psi[L])
    phi = {lab: k + 1 for k, lab in enumerate(ranked)}
    return BourgainLabeling(n, psi, phi)


def _tree_space(n: int) -> MetricSpace:
    from .metric_core import apsp

    return apsp(binary_tree(n))


def bourgain_embed(n: int) -> Embedding:
    """Vertex t -> sum over ancestors s <= t of e_{phi(s)}, in the summing
    norm of dimension 2^{n+1} - 1."""
    if n < 1:
        raise ValidationError("depth must be >= 1")
    space = _tree_space(n)
    labeling = bourgain_labeling(n)
    dim = 2 ** (n + 1) - 1
    vectors = []
    for lab in space.labels:
        vec = [Fraction(0)] * dim
        for k in range(len(lab) + 1):
            vec[labeling.phi[lab[:k]] - 1] = Fraction(1)
        vectors.append(tuple(vec))
    return Embedding(space, tuple(vectors), NormedTarget("summing", dim))


def bourgain_distortion(n: int) -> DistortionReport:
    """Exact distortion of the depth-n summing-norm tree embedding, computed
    sparsely from ancestor coordinate lists (feasible through n = 10)."""
    labeling = bourgain_labeling(n)
    labels = sorted(labeling.phi, key=lambda L: (len(L), L))
    paths = {lab: [labeling.phi[lab[:k]] for k in range(len(lab) + 1)] for lab in labels}
    lip = None
    colip = None
    lip_w = colip_w = ("", "")
    for a_idx in range(len(labels)):
        la = labels[a_idx]
        pa = paths[la]
        for b_idx in range(a_idx + 1, len(labels)):
            lb = labels[b_idx]
            common = common_prefix(la, lb)
            d = (len(la) - common) + (len(lb) - common)
            if d == 0:
                continue
            pb = paths[lb]
            signed = [(pos, 1) for pos in pa[common + 1 :]] + [
                (pos, -1) for pos in pb[common + 1 :]
            ]
            signed.sort()
            run = 0
            sup = 0
            for _, sign in signed:
                run += sign
                if abs(run) > sup:
                    sup = abs(run)
            r = Fraction(sup, d)
            if lip is None or r > lip:
                lip, lip_w = r, (la, lb)
            rinv = Fraction(d, sup)
            if colip is None or rinv > colip:
                colip, colip_w = rinv, (la, lb)
    return DistortionReport(lip, colip, lip * colip, lip_w, colip_w)


# ---------------------------------------------------------------------------
# Submetric space X_Delta: active pairs under the summing norm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubmetricSpace:
    """Finite subset of l1 with the active-pair predicate
    ||x - y||_1 <= Delta ||x - y||_s."""

    points: tuple[Vector, ...]
    delta: Fraction

    def __post_init__(self):
        if self.delta < 1:
            raise ValidationError("Delta must be >= 1")

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def l1_dist(self, i: int, j: int) -> Fraction:
        return sum(
            (abs(a - b) for a, b in zip(self.points[i], self.points[j])), Fraction(0)
        )

    def is_active(self, i: int, j: int) -> bool:
        diff = tuple(a - b for a, b in zip(self.points[i], self.points[j]))
        l1 = sum((abs(x) for x in diff), Fraction(0))
        s = norm(NormedTarget("summing", len(diff)), diff)
        return l1 <= self.delta * s

    def active_pairs(self) -> list[tuple[int, int]]:
        n = len(self.points)
        return [(i, j) for i in range(n) for j in range(i + 1, n) if self.is_active(i, j)]


@dataclass(frozen=True)
class SubmetricCheck:
    constant: Optional[Fraction | float]  # smallest valid C, when no violation
    violation: Optional[tuple[int, int]]  # active pair with ||df|| < d


def submetric_check(sub: SubmetricSpace, emb: Embedding) -> SubmetricCheck:
    """Smallest C with d <= ||f(x)-f(y)|| <= C d over active pairs only."""
    if emb.space.size != len(sub.points):
        raise ValidationError("embedding must be defined on the submetric points")
    best_c = None
    for i, j in sub.active_pairs():
        d = sub.l1_dist(i, j)
        if d == 0:
            continue
        dn = emb.diff_norm(i, j)
        if dn < d:
            return SubmetricCheck(None, (i, j))
        c = dn / d
        if best_c is None or c > best_c:
            best_c = c
    return SubmetricCheck(best_c, None)


def submetric_space_metric(sub: SubmetricSpace) -> MetricSpace:
    n = len(sub.points)
    return MetricSpace(tuple(tuple(sub.l1_dist(i, j) for j in range(n)) for i in range(n)))


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


def cycle_tree_lower_oracle(
    m: int, max_tree_vertices: int, map_budget: int = 50_000_000
) -> CycleTreeResult:
    """Exhaustively search all unlabeled unit-weight trees up to the given
    order and all vertex maps of the m-cycle into them; return the minimum
    distortion found (None when every map collapses a pair).

    Consistency guard: the Rabinovich-Raz bound m/3 - 1 must never be beaten.
    """
    import networkx as nx

    if m < 3:
        raise ValidationError("cycle needs m >= 3")
    total_maps = sum(
        order**m * sum(1 for _ in nx.nonisomorphic_trees(order)) if order >= 2 else 1
        for order in range(1, max_tree_vertices + 1)
    )
    if total_maps > map_budget:
        raise CapExceededError(f"{total_maps} maps exceed budget {map_budget}")

    dc = np.array(
        [[min(abs(i - j), m - abs(i - j)) for j in range(m)] for i in range(m)],
        dtype=np.int64,
    )
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]

    best = None  # (distortion float, order, tree_edges, map tuple)
    searched = 0
    for order in range(1, max_tree_vertices + 1):
        if order == 1:
            searched += 1  # the unique constant map collapses everything
            continue
        for tree in nx.nonisomorphic_trees(order):
            td = np.zeros((order, order), dtype=np.int64)
            lengths = dict(nx.all_pairs_shortest_path_length(tree))
            for i in range(order):
                for j in range(order):
                    td[i, j] = lengths[i][j]
            edges = tuple(sorted(tuple(sorted(e)) for e in tree.edges()))
            chunk = 200_000
            total = order**m
            searched += total
            for start in range(0, total, chunk):
                idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
                maps = np.empty((idx.size, m), dtype=np.int64)
                rem = idx
                for pos in range(m - 1, -1, -1):
                    maps[:, pos] = rem % order
                    rem = rem // order
                ratio_max = np.zeros(idx.size)
                ratio_min = np.full(idx.size, np.inf)
                alive = np.ones(idx.size, dtype=bool)
                for i, j in pairs:
                    t = td[maps[:, i], maps[:, j]]
                    alive &= t > 0
                    with np.errstate(divide="ignore"):
                        r = t / dc[i, j]
                    ratio_max = np.maximum(ratio_max, r)
                    ratio_min = np.minimum(ratio_min, r)
                with np.errstate(divide="ignore", invalid="ignore"):
                    dist = np.where(alive, ratio_max / ratio_min, np.inf)
                k = int(np.argmin(dist))
                if np.isfinite(dist[k]) and (best is None or dist[k] < best[0]):
                    best = (float(dist[k]), order, edges, tuple(int(x) for x in maps[k]))

    bound = Fraction(m, 3) - 1
    if best is None:
        return CycleTreeResult(m, max_tree_vertices, None, bound, None, None, searched)

    # re-verify the winning map in exact arithmetic
    _, order, edges, mapping = best
    tree_space = _tree_metric_from_edges(order, edges)
    cyc = MetricSpace(tuple(tuple(Fraction(int(x)) for x in row) for row in dc))
    exact = map_distortion(cyc, tree_space, mapping)
    if exact is None:
        raise ValidationError("internal error: winning map collapsed on re-check")
    if exact < bound:
        raise ValidationError(
            f"search found distortion {exact} below the m/3 - 1 bound {bound}; "
            "this contradicts Rabinovich-Raz and indicates a bug"
        )
    return CycleTreeResult(m, max_tree_vertices, exact, bound, edges, mapping, searched)


def _tree_metric_from_edges(order: int, edges) -> MetricSpace:
    from .metric_core import PointId, WeightedGraph, apsp

    g = WeightedGraph(
        tuple(PointId(i) for i in range(order)),
        tuple((u, v, Fraction(1)) for u, v in edges),
    )
    return apsp(g)
