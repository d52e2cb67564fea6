"""The Radon-Nikodym pipeline: delta-trees and delta-bushes in discretized
L1, each one exact table (a bush's blocks and weights one child table built
at construction), the gauge renorming (the normalized l1 norm for unit-ball
generators, an exact LP otherwise), broken-line families of geodesics (each
line integer coefficient numerators over one scale, built by a fan-out over
the child table), thickness certification for diamond geodesic families
(their parameters integer ticks; one block loop over the control sets, a
block at a time, against each geodesic's candidates cut once to the
largest total per distinct common mask), and the embedding-to-divergent-martingale
construction, which reads the integer numerator table of the embedding
(never its `vectors` view) and builds each martingale level as two exact
tables, its breaks' integer ticks and its integer slope rows.

Ambient space throughout: R^(2^n) under the normalized l1 norm (atoms of
equal mass), where everything stays rational.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .embeddings import _ROW_NORMS, Embedding, NormedTarget, distortion
from .errors import ValidationError
from .exactlp import _over_lcm, solve_lp
from .generators import RecursiveFamily, diamond, diamond_weighting, tree_order
from .metric_core import (
    GeodesicPath,
    MetricSpace,
    RationalTable,
    _magnitude,
    check_cap,
    check_int,
    enumerate_geodesic_paths,
    read_only,
)

_L1 = _ROW_NORMS["l1"]


# ---------------------------------------------------------------------------
# delta-trees and delta-bushes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaTree:
    """Vectors indexed by 0/1 strings of length <= depth with the exact
    midpoint identity and separation >= delta in normalized l1: one exact
    table, built from its rows, one per vertex of T_depth in the heap layout
    of `generators` (row i's children are rows 2i + 1 and 2i + 2)."""

    depth: int
    atoms: int
    table: RationalTable
    delta: Fraction

    def __post_init__(self):
        if type(self.delta) is not int and not isinstance(self.delta, Fraction):
            raise ValidationError(f"delta must be exact (an int or Fraction), got {self.delta!r}")
        table = vars(self)["table"] = RationalTable(self.table, 1, 2 * self.atoms)  # sums of differences
        depth = self.depth  # rows: T_depth's vertices counted clipped at the table's rows, else False
        rows = type(depth) is int and depth >= 0 and tree_order(depth, len(table.num))
        if not rows or not table.exact or table.num.shape != (rows, self.atoms):
            need = f"need an int depth >= 0 and its 2^(depth + 1) - 1 exact vectors of {self.atoms} atoms"
            raise ValidationError(f"{need}, got depth {depth!r}")


DELTA_TREE_DEPTH_CAP = 12


def rademacher_tree(n: int) -> DeltaTree:
    """Product construction in discretized L1: the root is the constant-1
    vector over 2^n atoms and each step multiplies by (1 +- r_k), where r_k
    is the k-th Rademacher sign pattern.  All atom values are integers."""
    check_int(n, 1, "depth must be an int >= 1")
    check_cap(n, DELTA_TREE_DEPTH_CAP, f"the depth {n} of the delta-tree")
    atoms = 2**n
    table = np.ones((2 * atoms - 1, atoms), dtype=np.int64)  # entries stay <= 2^n
    for k in range(1, n + 1):
        # r_k flips in blocks of 2^(n-k), +1 on the first block; in heap
        # layout the children of level k - 1's row i are rows 2i + 1, 2i + 2
        r = 1 - 2 * ((np.arange(atoms) >> (n - k)) & 1)
        level, children = table[2 ** (k - 1) - 1 : 2**k - 1], table[2**k - 1 : 2 ** (k + 1) - 1]
        np.multiply(level, 1 - r, out=children[0::2])
        np.multiply(level, 1 + r, out=children[1::2])
    return DeltaTree(n, atoms, read_only(table), Fraction(1))


def verify_delta_tree(tree: DeltaTree) -> None:
    """Exact midpoint identity, unit norms, and separation >= delta, per
    level on the integer rows: l1 sums compared with atoms * delta.  The
    first failure in label order is reported, for one vector its norm, its
    midpoint identity, then its separation from its children."""
    num, unit, delta = tree.table.num, tree.atoms * tree.table.scale, tree.delta
    floor = (delta.numerator * unit - 1) // delta.denominator  # the largest l1 sum below delta
    messages = "||x_{}|| != 1", "midpoint identity fails at {}", "separation fails below {}"
    for d in range(tree.depth + 1):
        rows = num[2**d - 1 : 2 ** (d + 1) - 1]
        bad = [_L1(rows) != unit]
        if d < tree.depth:
            kids = num[2 ** (d + 1) - 1 : 2 ** (d + 2) - 1]
            kid0, kid1 = kids[0::2], kids[1::2]
            bad.append((rows - kid0 != kid1 - rows).any(axis=1))
            bad.append((_L1(rows - kid0) <= floor) | (_L1(rows - kid1) <= floor))
        bad = np.array(bad)
        for i in np.flatnonzero(bad.any(axis=0))[:1]:
            lab = bin(2**d + i)[3:] or "root"  # row 2^d - 1 + i's heap label
            raise ValidationError(messages[bad[:, i].argmax()].format(lab))


@dataclass(frozen=True)
class DeltaBush:
    """Levels of vectors with block convex-combination identities:
    z_{n-1,k} = sum_{j in A^n_k} lambda_{n,j} z_{n,j}, separation delta.
    The vectors are one exact table, level n its `sizes[n]` rows from row
    `starts[n]`.  The constructor refuses malformed shapes and an inexact
    delta, keeps sizes, blocks and weights as tuples, and turns blocks and
    weights into one child table, all the library reads of them: row p's
    block is rows kids[offsets[p] : offsets[p + 1]], which `owners` map to p,
    and row q has parent[q], the row whose block first holds it (or -1), and
    the weight weight[q] / wscale in Python ints."""

    atoms: int
    table: RationalTable
    sizes: tuple[int, ...]
    blocks: tuple[tuple[tuple[int, ...], ...], ...]  # blocks[n][k], n >= 1, as tuples
    weights: tuple[tuple[Fraction, ...], ...]  # weights[n][j], n >= 1, as tuples
    delta: Fraction

    def __post_init__(self):
        if type(self.delta) is not int and not isinstance(self.delta, Fraction):
            raise ValidationError(f"delta must be exact (an int or Fraction), got {self.delta!r}")
        sizes, weights = tuple(self.sizes), tuple(map(tuple, self.weights))
        blocks = tuple(tuple(map(tuple, level)) for level in self.blocks)
        vars(self).update(sizes=sizes, blocks=blocks, weights=weights)
        if sizes[:1] != (1,):
            raise ValidationError("a bush must start from a single vector (m_0 = 1)")
        table = vars(self)["table"] = RationalTable(self.table, 1, 2 * self.atoms)  # sums of differences
        if not table.exact or table.num.shape != (sum(sizes), self.atoms) or min(sizes) < 1:
            raise ValidationError(f"need {sum(sizes)} exact vectors of {self.atoms} atoms")
        if (len(blocks), len(weights)) != (len(sizes),) * 2 or len(blocks[0]) or len(weights[0]):
            raise ValidationError(f"need blocks and weights for levels 1..{len(sizes) - 1} only")
        starts = tuple(itertools.accumulate(sizes, initial=0))
        kids, counts, values = [], [], []
        for n in range(1, len(sizes)):
            members = [j for block in blocks[n] for j in block]
            inside = all(isinstance(j, (int, np.integer)) and 0 <= j < sizes[n] for j in members)
            if len(blocks[n]) != sizes[n - 1] or len(weights[n]) != sizes[n] or not inside:
                need = f"{sizes[n - 1]} blocks of members in range({sizes[n]}) and {sizes[n]} weights"
                raise ValidationError(f"level {n} needs {need}")
            kids += [starts[n] + j for j in members]
            counts += map(len, blocks[n])
            values += weights[n]
        if not all(isinstance(w, (int, Fraction)) for w in values):
            raise ValidationError("bush weights must be exact (int or Fraction)")
        wscale = math.lcm(*(w.denominator for w in values))
        kids, counts = np.array(kids, dtype=np.intp), np.array(counts, dtype=np.intp)
        owners, first = np.repeat(np.arange(len(counts)), counts), np.unique(kids, return_index=True)[1]
        parent = np.full(starts[-1], -1, dtype=np.intp)
        parent[kids[first]] = owners[first]
        weight = np.array([0] + [w.numerator * (wscale // w.denominator) for w in values], dtype=object)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        arrays = dict(offsets=offsets, kids=kids, owners=owners, parent=parent, weight=weight)
        vars(self).update(starts=starts, wscale=wscale, **{key: read_only(a) for key, a in arrays.items()})


def tree_to_bush(tree: DeltaTree) -> DeltaBush:
    """A delta-tree is a delta-bush with blocks of size 2 and weights 1/2 on
    the tree's table; its midpoint identities are the convexity identities."""
    verify_delta_tree(tree)
    half = Fraction(1, 2)
    sizes = tuple(2**d for d in range(tree.depth + 1))
    blocks = ((),) + tuple(tuple((2 * k, 2 * k + 1) for k in range(m // 2)) for m in sizes[1:])
    weights = ((),) + tuple((half,) * m for m in sizes[1:])
    return DeltaBush(tree.atoms, tree.table, sizes, blocks, weights, tree.delta)


def verify_bush(bush: DeltaBush) -> None:
    """Block weights summing to 1, nonnegative weights, separation >= delta
    and the block convexity identities, per level on the integer rows and the
    child table (the constructor checked the shapes and the single root).
    The first failure is the one a loop over the blocks meets: a block's sum,
    per member its weight's sign and separation, the identity; the partition."""
    num, unit, delta, wscale = bush.table.num, bush.atoms * bush.table.scale, bush.delta, bush.wscale
    floor = (delta.numerator * unit - 1) // delta.denominator  # the largest l1 sum below delta
    for n in range(1, len(bush.sizes)):
        p0, p1 = bush.starts[n - 1], bush.starts[n]  # level n - 1, whose blocks are level n's
        entries = slice(bush.offsets[p0], bush.offsets[p1])
        kids, owner = bush.kids[entries], bush.owners[entries] - p0
        w = bush.weight[kids]
        lam, combo = np.zeros(p1 - p0, dtype=object), np.zeros((p1 - p0, bush.atoms), dtype=object)
        np.add.at(lam, owner, w)
        np.add.at(combo, owner, w[:, None] * num[kids])
        negative, close = w < 0, _L1(num[kids] - num[p0 + owner]) <= floor
        bad = (lam != wscale) | (combo != wscale * num[p0:p1].astype(object)).any(axis=1)
        np.logical_or.at(bad, owner, negative | close)
        for k in np.flatnonzero(bad)[:1]:
            if lam[k] != wscale:
                raise ValidationError(f"weights in block ({n},{k}) sum to {Fraction(lam[k], wscale)} != 1")
            for i in np.flatnonzero(owner == k):
                if negative[i]:
                    raise ValidationError("negative weight")
                if close[i]:
                    raise ValidationError(f"separation fails at ({n},{kids[i] - p1})")
            raise ValidationError(f"convexity identity fails at ({n},{k})")
        if set(kids.tolist()) != set(range(p1, bush.starts[n + 1])):
            raise ValidationError(f"level-{n} blocks are not a partition")


# ---------------------------------------------------------------------------
# The gauge renorming
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeNorm:
    """Minkowski functional of conv(normalized-l1 ball, {+-x_{i,j}}):
    gauge(v) = min ||w||_1 + sum |mu_j|  over  v = w + sum mu_j x_{i,j}.

    When every generator lies in the unit ball (delta-tree and bush vectors
    do), the hull is the ball and the gauge is the normalized l1 norm:
    w = v attains it, and ||v|| <= ||w|| + sum |mu_j| ||x_j|| bounds every
    other decomposition below.  Otherwise it is an exact rational LP.  The
    generators are one exact RationalTable, a row each."""

    atoms: int
    generators: RationalTable

    def __post_init__(self):
        generators = vars(self)["generators"] = RationalTable(self.generators, 1, self.atoms)  # l1 sums
        if not generators.exact or generators.num.shape[1:] != (self.atoms,):
            raise ValidationError(f"gauge generators must be exact vectors of {self.atoms} atoms")

    @cached_property
    def _in_unit_ball(self) -> bool:
        """Whether every generator has sum |g_a| <= atoms, read exactly."""
        return bool((_L1(self.generators.num) <= self.atoms * self.generators.scale).all())

    @cached_property
    def _rows(self) -> list[list[int]]:
        """Constraint rows over the columns w+ (atoms), w- (atoms), mu+ (ng), mu- (ng),
        built once as ints: mu counts in units of 1 / scale (see `_costs`)."""
        g = self.generators.num.T
        eye = np.eye(self.atoms, dtype=g.dtype)
        return np.hstack([eye, -eye, g, -g]).tolist()

    @cached_property
    def _costs(self) -> tuple:
        ng, scale = len(self.generators.num), self.generators.scale
        return (Fraction(1, self.atoms),) * (2 * self.atoms) + (scale,) * (2 * ng)

    def evaluate(self, v) -> Fraction:
        """The gauge of v, a Fraction; entries are int, Fraction or finite
        float, read exactly."""
        if len(v) != self.atoms:
            raise ValidationError("vector lives in the wrong ambient space")
        nums, d = _over_lcm(v)
        return self._norms(np.array([nums], dtype=object), d)[0]

    def _norms(self, rows: np.ndarray, scale: int) -> list[Fraction]:
        """The gauge of each integer row over `scale`: for unit-ball
        generators the l1 sum over atoms * scale, else the LP with the row as
        right-hand side (scale times the gauge) from the slack basis (w+_a
        where the entry is >= 0, w-_a where it is < 0), which is feasible."""
        if rows.shape[1] != self.atoms:
            raise ValidationError("vector lives in the wrong ambient space")
        if self._in_unit_ball:
            return [Fraction(n, self.atoms * scale) for n in _L1(rows).tolist()]
        slack = lambda row: [a if x >= 0 else self.atoms + a for a, x in enumerate(row)]
        return [solve_lp(self._rows, r, self._costs, basis=slack(r))[0] / scale for r in rows.tolist()]


def bush_gauge(bush: DeltaBush) -> GaugeNorm:
    return GaugeNorm(bush.atoms, bush.table)


def bush_gauge_delta(bush: DeltaBush, gauge: GaugeNorm) -> Fraction:
    """Separation of the bush measured in the gauge norm, on integer rows: each
    block member's row less its owner's, over the child table (the renorming
    can only shrink the l1 separation, never below zero)."""
    num = bush.table.num
    return min(gauge._norms(num[bush.kids] - num[bush.owners], bush.table.scale), default=Fraction(0))


# ---------------------------------------------------------------------------
# Broken-line family labeled by tree vertices
# ---------------------------------------------------------------------------

LINE_SEGMENT_CAP = 10**6  # a delta-tree's lines: 299 593 segments at depth 6, 2 396 745 at depth 7


def check_line_segments(k: int, widest: int) -> None:
    """CapExceededError when the lines of labels of length <= k may hold more than
    LINE_SEGMENT_CAP segments: 2^l lines of at most (2 widest)^l each per length l."""
    lengths = range(min(k, LINE_SEGMENT_CAP.bit_length()) + 1)
    what = f"the number of broken-line segments of labels of length <= {k}"
    check_cap(sum((4 * widest) ** length for length in lengths), LINE_SEGMENT_CAP, what)


@dataclass(frozen=True, eq=False, repr=False)
class BrokenLine:
    """Geodesic from 0 to the bush root: segment i is coefs[i] / scale (Python
    ints, shared by siblings) times the bush's table row rows[i], so its gauge
    length is its coefficient.  Equality and repr go through the `segments`
    view, which reads the bush's level `starts`."""

    label: str
    rows: np.ndarray
    coefs: np.ndarray
    scale: int
    starts: tuple[int, ...]

    @cached_property
    def segments(self) -> tuple[tuple[Fraction, tuple[int, int]], ...]:
        """(coefficient, (level, j)) per segment (a view, for tests)."""
        levels = (np.searchsorted(self.starts, self.rows, side="right") - 1).tolist()
        pairs = zip(self.coefs.tolist(), levels, self.rows.tolist())
        return tuple((Fraction(c, self.scale), (n, row - self.starts[n])) for c, n, row in pairs)

    def __eq__(self, other) -> bool:
        key = lambda line: (line.label, line.segments)
        return isinstance(other, BrokenLine) and key(self) == key(other)

    def __repr__(self) -> str:
        return f"BrokenLine(label={self.label!r}, segments={self.segments!r})"

    def coefficients_sum(self) -> Fraction:
        return Fraction(self.coefs.sum(), self.scale)

    def vertices(self, bush: DeltaBush) -> tuple[tuple[Fraction, ...], RationalTable]:
        """The parameters and the points of the vertices, prefix sums of the
        segments from the origin: the points one exact table, a row each."""
        steps = np.cumsum(self.coefs[:, None] * bush.table.num[self.rows], axis=0)  # Python ints
        points = np.concatenate([np.zeros((1, bush.atoms), dtype=object), steps])
        params = tuple(Fraction(p, self.scale) for p in [0, *np.cumsum(self.coefs).tolist()])
        return params, RationalTable(read_only(points), self.scale * bush.table.scale)


def broken_line_family(bush: DeltaBush, k: int) -> dict[str, BrokenLine]:
    """Broken lines for every tree label of length <= k, by the two-stage
    replacement rules: the preliminary pass turns each multiple of a bush
    vector into the convex combination through its children's midpoints, and
    the 0/1 pass splits each midpoint multiple into its two halves in one of
    the two orders.  Past LINE_SEGMENT_CAP, CapExceededError comes first."""
    check_int(k, 0, "label depth must be an int >= 0")
    if k >= len(bush.sizes):
        raise ValidationError("label depth exceeds bush depth")
    if (bush.table.num.sum(axis=1) != bush.atoms * bush.table.scale).any():
        raise ValidationError("bush must lie on the mean-1 hyperplane before building lines")
    counts = np.diff(bush.offsets)
    check_line_segments(k, int(counts[: bush.starts[k]].max(initial=0)))

    # A segment c * x_p becomes, per child q in p's block, the midpoint
    # multiple c * lambda_q * y_q, split into two halves along x_{parent(q)}
    # and x_q in the order the bit picks: one fan-out over the child table,
    # numerators times the weight numerators, the scale times 2 * wscale.
    root = read_only(np.zeros(1, dtype=np.intp)), read_only(np.ones(1, dtype=object))
    lines = {"": BrokenLine("", *root, 1, bush.starts)}
    for length in range(k):
        for line in [line for lab, line in lines.items() if len(lab) == length]:
            n = counts[line.rows]
            kids = bush.kids[np.arange(n.sum()) + np.repeat(bush.offsets[line.rows] - np.cumsum(n) + n, n)]
            coefs = read_only(np.repeat(np.repeat(line.coefs, n) * bush.weight[kids], 2))
            pairs = np.stack([bush.parent[kids], kids], axis=1)
            for bit, rows in (("0", pairs), ("1", pairs[:, ::-1])):
                lab, scale = line.label + bit, line.scale * 2 * bush.wscale
                lines[lab] = BrokenLine(lab, read_only(rows.ravel()), coefs, scale, bush.starts)
    return lines


def sibling_deviation(
    bush: DeltaBush, gauge: GaugeNorm, line0: BrokenLine, line1: BrokenLine
) -> Fraction:
    """Sum of gauge deviations between two sibling lines at the parameters
    where they differ (the odd-indexed vertices; even ones are shared): the
    points of both lines as integer rows over one denominator."""
    if len(line1.rows) != len(line0.rows):
        raise ValidationError("sibling lines must have matching segment counts")
    (t0, x0), (t1, x1) = line0.vertices(bush), line1.vertices(bush)
    if t0[1::2] != t1[1::2]:
        raise ValidationError("sibling lines disagree on parameters")
    rows = x0.num[1::2].astype(object) * x1.scale - x1.num[1::2].astype(object) * x0.scale
    return sum(gauge._norms(rows, x0.scale * x1.scale), Fraction(0))


# ---------------------------------------------------------------------------
# Thick families of diamond geodesics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleResponse:
    geodesic: int  # index of the deviating geodesic
    q_params: tuple[Fraction, ...]  # common-point parameters, q_0 = 0 < ... < q_m
    s_params: tuple[Fraction, ...]  # one deviation parameter per gap
    deviations: tuple[Fraction, ...]  # d(g(s_i), g~(s_i)) per gap
    total: Fraction


_BYTE_BITS = np.array([b.bit_count() for b in range(256)], dtype=np.uint8)


def _bit_counts(masks: np.ndarray) -> np.ndarray:
    """The number of set bits of each nonnegative mask: Python-int masks by
    int.bit_count, fixed-width ones a byte at a time through a 256-entry
    table (numpy before 2.0 has no bitwise_count)."""
    if masks.dtype == object:
        return np.frompyfunc(int.bit_count, 1, 1)(masks)
    return sum(_BYTE_BITS.take((masks >> k) & 255) for k in range(0, 8 * masks.itemsize, 8))


@dataclass
class GeodesicFamily:
    """All source-sink geodesics of a weighted diamond (or Laakso) instance,
    with the exhaustive-search response oracle of the thickness definition.
    The geodesics must share one parameter grid, `params`, the first one's
    breakpoints, checked on the integer `ticks` over `scale` the family
    holds; `position` maps params to indices.  Per pair of geodesics it
    keeps the bitmask of their common parameters, the sum of their bubble
    maxima and their bubble count, which is read off the mask."""

    family: RecursiveFamily
    space: MetricSpace
    geodesics: tuple[GeodesicPath, ...]
    params: tuple[Fraction, ...] = field(init=False)

    def __post_init__(self):
        if not self.geodesics:
            raise ValidationError("a geodesic family needs at least one geodesic")
        first = self.geodesics[0]
        self.ticks, self.scale, self.params = first.ticks, first.scale, first.breakpoints
        if any((g.ticks, g.scale) != (self.ticks, self.scale) for g in self.geodesics):
            raise ValidationError("geodesics do not share a parameter grid")
        self.position = {p: t for t, p in enumerate(self.params)}
        self._index_of = {tuple(g.vertices): i for i, g in enumerate(self.geodesics)}
        # parameter-major: self._points[t, g] is geodesic g's vertex at params[t]
        self._points = np.array([g.vertices for g in self.geodesics]).T.copy()
        # per pair: bitmask of common parameters, sum and count of bubble
        # maxima; the masks and sums in the narrowest type that holds them
        np_, shape = len(self.params), (len(self.geodesics),) * 2
        num = self.space.num.astype(np.min_scalar_type(-np_ * _magnitude(self.space.num) - 1))
        common = np.zeros(shape, dtype=np.min_scalar_type((1 << np_) - 1) if np_ < 63 else object)
        total, run = (np.zeros(shape, dtype=num.dtype) for _ in range(2))
        for t, v in enumerate(self._points):
            dev = num[:, v][v]  # d(g_a(t), g_b(t)) * scale, in C order
            z = dev == 0
            common |= np.left_shift(z, t, dtype=common.dtype)
            ended = run * z  # the bubble that closed at t: its maximum
            total += ended
            run -= ended
            np.maximum(run, dev, out=run)
        total += run
        self._common = common
        self._total = total
        # a bubble starts at each parameter off the mask whose predecessor
        # (the one before the first counted as common) is on it
        self._nbubbles = _bit_counts(~common & (common << 1 | 1) & ((1 << np_) - 1))

    def _check_index(self, g: int) -> None:
        if type(g) is not int or not 0 <= g < len(self.geodesics):
            raise ValidationError(f"geodesic index {g!r} is not an int in range({len(self.geodesics)})")

    def respond(self, g: int, control_params: Sequence[Fraction]) -> OracleResponse:
        """Deviating geodesic through the control points maximizing the total
        deviation, with its (q, s) structure.  Ties go to the response with
        the fewest deviation bubbles (the coarsest one), then to the smallest
        index; coarse responses keep deeper refinement levels available for
        later rounds of the martingale construction."""
        self._check_index(g)
        controls = sorted(set(control_params) | {self.params[0], self.params[-1]})
        missing = [p for p in controls if p not in self.position]
        if missing:
            raise ValidationError(f"control parameters {missing} are not breakpoints")
        mask = sum(1 << self.position[p] for p in controls)
        cands = np.flatnonzero(self._common[g] & mask == mask)
        if not cands.size:
            raise ValidationError("no geodesic of the family passes the control points")
        keys = zip((-self._total[g, cands]).tolist(), self._nbubbles[g, cands].tolist(), cands.tolist())
        best = min(keys)[2]
        profile = self.space.num[self._points[:, g], self._points[:, best]]
        np_ = len(self.params)

        # q: the mask's endpoints and controls, and the flanks of each bubble (a
        # run of parameters off the pair's mask, which holds both endpoints)
        off = ((1 << np_) - 1) ^ int(self._common[g, best])
        q = mask | (off & ~(off << 1)) >> 1 | (off & ~(off >> 1)) << 1
        q_sorted = [t for t in range(np_) if q >> t & 1]
        q_params = tuple(self.params[i] for i in q_sorted)
        s_params: list[Fraction] = []
        deviations: list[Fraction] = []
        for a, b in zip(q_sorted, q_sorted[1:]):
            if b == a + 1:
                # adjacent common vertices: both geodesics traverse the same
                # edge, deviation identically 0 on the open gap
                s_params.append((self.params[a] + self.params[b]) / 2)
                deviations.append(Fraction(0))
                continue
            s_best = a + 1 + int(profile[a + 1 : b].argmax())  # the first maximum
            s_params.append(self.params[s_best])
            deviations.append(Fraction(int(profile[s_best]), self.space.scale))
        total = sum(deviations, Fraction(0))
        if total != Fraction(int(self._total[g, best]), self.space.scale):
            raise ValidationError("internal error: bubble accounting mismatch")
        return OracleResponse(best, q_params, tuple(s_params), tuple(deviations), total)

    def splice(self, g: int, g_tilde: int, q_idx_pairs, picks) -> int:
        """Index of the geodesic following g or g_tilde per gap (condition
        (iv) guarantees it exists in the family)."""
        self._check_index(g)
        self._check_index(g_tilde)
        row, other = list(self.geodesics[g].vertices), self.geodesics[g_tilde].vertices
        for (a, b), pick in zip(q_idx_pairs, picks):
            if pick:
                row[a : b + 1] = other[a : b + 1]
        key = tuple(row)
        if key not in self._index_of:
            raise ValidationError("spliced geodesic is missing from the family")
        return self._index_of[key]


def diamond_geodesic_family(n: int) -> GeodesicFamily:
    """All source-sink geodesics of the weighted level-n diamond; more than
    metric_core.GEODESIC_CAP of them (D_3 has 128, D_4 32768) raise CapExceededError."""
    check_int(n, 0, "level must be an int >= 0")
    fam = diamond(n, diamond_weighting())
    geos = enumerate_geodesic_paths(fam.graph, fam.source, fam.sink, fam.metric_space())
    return GeodesicFamily(fam, fam.metric_space(), tuple(geos))


@dataclass(frozen=True)
class ThicknessCertificate:
    alpha: Fraction
    control_budget: int
    worst_geodesic: int
    worst_controls: tuple[Fraction, ...]
    configurations: int
    partial: bool


_BLOCK = 1 << 15  # entries per thickness temporary: 256 KB of int64
THICKNESS_WORK_CAP = 10**7


def thickness_alpha(family: GeodesicFamily, control_budget: int) -> ThicknessCertificate:
    """Certified thickness constant: minimum over family members and interior
    control sets (size <= budget) of the best achievable total deviation.

    Admissibility of a candidate for a control set depends only on its
    common-parameter mask with the geodesic, so each geodesic's candidates
    are first cut to the largest total per distinct mask, padded with mask
    0, which meets no set (every set holds both ends).  The control sets
    are then taken in size-then-lexicographic order, as many at a time as
    fill a block of _BLOCK entries.  Ties go to the first geodesic, then to
    the first control set; when n_geo^2 times the number of control sets
    exceeds THICKNESS_WORK_CAP, only the first sets are built and tried,
    and the certificate is partial.  No set holds more than the P - 2
    interior parameters, so a larger budget tries the same sets."""
    check_int(control_budget, 0, "control budget must be an int >= 0")
    n_geo, interior = len(family.geodesics), range(1, len(family.params) - 1)
    sizes = range(min(control_budget, len(interior)) + 1)
    sets = (combo for size in sizes for combo in itertools.combinations(interior, size))
    # the sets the cap admits; one more tells that it cuts
    taken = itertools.islice(sets, max(1, THICKNESS_WORK_CAP // (n_geo * n_geo)))
    # each row by mask, largest total first; the first of each mask is kept
    order = np.lexsort((-family._total, family._common))
    common, total = (np.take_along_axis(a, order, axis=1) for a in (family._common, family._total))
    new = np.ones(common.shape, dtype=bool)
    new[:, 1:] = common[:, 1:] != common[:, :-1]
    slot = np.cumsum(new, axis=1) - 1
    # candidate-major: a block's temporaries run along rows of geodesics
    masks, totals = (np.zeros((slot.max() + 1, n_geo), dtype=a.dtype) for a in (common, total))
    at = slot[new], np.nonzero(new)[0]
    masks[at], totals[at] = common[new], total[new]
    bit = [1 << i for i in range(len(family.params))]
    ends = bit[0] | bit[-1]
    worst, tried = (math.inf,), 0
    while block := list(itertools.islice(taken, max(1, _BLOCK // masks.size))):
        want = np.array([sum(map(bit.__getitem__, combo), ends) for combo in block], dtype=masks.dtype)[:, None]
        # best[k, g]: an inadmissible candidate counts as total 0, which g
        # itself (every parameter common) attains under every set, so best >= 0
        best = ((masks[:, None] & want == want) * totals[:, None]).max(axis=0)
        g, k = divmod(int(best.T.argmin()), len(block))  # the first geodesic, then the first set
        worst = min(worst, (int(best[k, g]), g, tried + k, block[k]))
        tried += len(block)
    partial = n_geo * n_geo * (tried + (next(sets, None) is not None)) > THICKNESS_WORK_CAP
    alpha, g, _, combo = worst
    alpha, controls = Fraction(alpha, family.space.scale), tuple(family.params[i] for i in combo)
    return ThicknessCertificate(alpha, control_budget, g, controls, n_geo * tried, partial)


# ---------------------------------------------------------------------------
# Diamond l1 embedding (height + one signed tent per quadrilateral)
# ---------------------------------------------------------------------------

def diamond_l1_embedding(fam: RecursiveFamily) -> Embedding:
    """Cut-style l1 embedding: distance-from-source plus, per quadrilateral,
    a tent coordinate signed by the side of the quad the vertex lies on.
    Not isometric; the martingale construction measures its ell.

    Heights, quad spans and tents are integer numerators over the scale of
    the family's one distance table, written straight into the embedding's
    table."""
    if fam.kind != "diamond":
        raise ValidationError("tent embedding is defined for diamonds")
    space = fam.metric_space()
    h = space.num[fam.source].tolist()
    spans = {}  # uid -> (coordinate, lo, hi)
    for col, quad in enumerate(fam.units, start=1):
        x, y = quad.ends
        spans[quad.uid] = (col, min(h[x], h[y]), max(h[x], h[y]))
    table = np.zeros((fam.graph.size, 1 + len(fam.units)), dtype=space.num.dtype)
    table[:, 0] = space.num[fam.source]
    for v, height in enumerate(h):
        for uid, side in fam.chains[v]:
            col, lo, hi = spans[uid]
            if lo < height < hi:
                tent = min(height - lo, hi - height)
                table[v, col] = tent if side == 0 else -tent
    return Embedding(space, read_only(table), NormedTarget("l1", table.shape[1]), space.scale)


# ---------------------------------------------------------------------------
# Martingales
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False, repr=False)
class PiecewiseLevel:
    """A piecewise-constant function on (0,1]: value[i] on (breaks[i], breaks[i+1]].
    The breaks (ints or Fractions) are one exact one-row RationalTable, `grid`,
    the values one, `entries`, a row per interval; `breaks` and `values` are views."""

    grid: RationalTable
    entries: RationalTable

    def __init__(self, breaks, values):
        if not isinstance(breaks, RationalTable):
            if not all(isinstance(b, (int, Fraction)) for b in breaks):
                raise ValidationError(f"breaks must be exact (int or Fraction), got {breaks!r}")
            breaks = RationalTable([tuple(breaks)])
        entries, ticks = RationalTable(values), breaks.num[0]
        if ticks.size < 2 or entries.num.shape[0] != ticks.size - 1 or entries.num.shape[1] == 0:
            raise ValidationError("need one value, a vector of a positive dimension, per interval")
        if not entries.exact:
            raise ValidationError("level values must be exact (int or Fraction)")
        if ticks[0] != 0:
            raise ValidationError("partition must start at 0")
        if not (ticks[1:] > ticks[:-1]).all():
            raise ValidationError("breakpoints must increase strictly")
        vars(self).update(grid=breaks, entries=entries)

    breaks = cached_property(lambda self: self.grid.rows()[0])  # views, built on first use
    values = cached_property(lambda self: self.entries.rows())

    def __repr__(self) -> str:
        return f"PiecewiseLevel(breaks={self.breaks!r}, values={self.values!r})"


@dataclass(frozen=True)
class Martingale:
    levels: tuple[PiecewiseLevel, ...]
    target: NormedTarget

    def __post_init__(self):
        if any(level.entries.num.shape[1] != self.target.dim for level in self.levels):
            raise ValidationError(f"martingale values must have the target's dimension {self.target.dim}")


def _level_from_points(rows: np.ndarray, den: int, ticks, scale: int, points) -> PiecewiseLevel:
    """The level on the breaks ticks / scale whose value on the i-th interval
    is the slope of f = rows / den (an object array) between points[i] and
    points[i+1]: for the integer steps dt_i and their lcm, the rows
    (f(points[i+1]) - f(points[i])) den scale lcm / dt_i over den lcm."""
    steps = [b - a for a, b in zip(ticks, ticks[1:])]
    lcm = math.lcm(*steps)
    per = np.array([scale * (lcm // dt) for dt in steps], dtype=object)
    ends = np.asarray(points)
    slopes = (rows[ends[1:]] - rows[ends[:-1]]) * per[:, None]
    return PiecewiseLevel(RationalTable([ticks], scale), RationalTable(slopes, den * lcm))


def _slope_jumps(target: NormedTarget, rows, den: int, ends, points, steps, scale: int) -> list[Fraction]:
    """Norm of the jump (f(w1) - f(z)) / B - (f(z) - f(w0)) / A of the
    slopes of f = rows / den at each z in points, for ends (w0, w1) and
    gaps A = a / scale, B = b / scale of integer steps (a, b) > 0: the
    integer row (f(w1) - f(z)) a - (f(z) - f(w0)) b over den a b / scale."""
    (a, b), (w0, w1), z = steps, (rows[end] for end in ends), rows[list(points)]
    norms = _ROW_NORMS[target.kind]((w1 - z) * a - (z - w0) * b).tolist()
    return [Fraction(n * scale, den * a * b) for n in norms]


def _on_one_scale(*grids: RationalTable) -> tuple[list[np.ndarray], int]:
    """The grids' ticks over the lcm of their scales (object arrays), and that lcm."""
    scale = math.lcm(*(grid.scale for grid in grids))
    return [grid.num[0].astype(object) * (scale // grid.scale) for grid in grids], scale


def martingale_l1_diff(a: PiecewiseLevel, b: PiecewiseLevel, target: NormedTarget) -> Fraction:
    """Bochner L1 norm of a - b on (0,1], exact: both grids' ticks on one
    scale, merged by a sort, located on each level by a search, and the
    difference on each merged interval one integer row.  The target must be
    l1, linf or summing, and the levels must end at one break."""
    if target.kind not in ("l1", "linf", "summing"):
        raise ValidationError("martingale construction needs an exact rational norm")
    Martingale((a, b), target)  # refuses values of another dimension
    (ta, tb), scale = _on_one_scale(a.grid, b.grid)
    if ta[-1] != tb[-1]:
        raise ValidationError("a break lies outside the partition of the other level")
    ticks = np.sort(np.concatenate((ta, tb)))
    ticks = ticks[np.append(True, ticks[1:] != ticks[:-1])]
    ia, ib = (t.searchsorted(ticks[:-1], side="right") - 1 for t in (ta, tb))
    (ra, sa), (rb, sb) = ((x.entries.num.astype(object), x.entries.scale) for x in (a, b))
    norms = _ROW_NORMS[target.kind](ra[ia] * sb - rb[ib] * sa)
    return Fraction(int((np.diff(ticks) * norms).sum()), scale * sa * sb)


@dataclass(frozen=True)
class MartingaleRun:
    martingale: Martingale
    ell: Fraction  # measured lower bilipschitz constant of the normalized map
    scale: Fraction  # vectors were divided by this to make the map 1-Lipschitz
    diff_norms: tuple[Fraction, ...]  # ||M_{2k} - M_{2k-1}||_{L1}, k = 1..K
    quadruple_checks: int  # selection inequalities verified exactly


# a double-step with a nonzero difference adds a break to the grid of P
# parameters, so past step P - 2 every difference is 0 (D_3: P = 9); 256
# double-steps take about 0.2 s on D_3
MARTINGALE_STEP_CAP = 256


def martingale_from_embedding(
    family: GeodesicFamily, emb: Embedding, steps: int
) -> MartingaleRun:
    """Alternating oracle responses and farthest-ratio point selections on a
    bilipschitz image of a thick geodesic family; produces a bounded
    martingale with ||M_{2k} - M_{2k-1}|| >= ell * (total deviation) / 4.
    More than MARTINGALE_STEP_CAP double-steps raise CapExceededError
    before any work."""
    check_int(steps, 1, "the double-step count must be an int >= 1")
    check_cap(steps, MARTINGALE_STEP_CAP, f"the double-step count {steps}")
    if emb.space.size != family.space.size:
        raise ValidationError("embedding must live on the family's host space")
    if emb.target.kind not in ("l1", "linf", "summing") or not emb.exact:
        raise ValidationError("martingale construction needs exact vectors in an exact rational norm")
    rep = distortion(emb)
    lip, colip = rep.lip, rep.colip
    # the 1-Lipschitz map f = emb / lip is rows / den
    rows = emb.table.astype(object) * lip.denominator
    den = emb.scale * lip.numerator
    ell = Fraction(1) / (lip * colip)
    ticks, scale, at = family.ticks, family.scale, family.position

    def level(g: int, cuts: list[int]) -> PiecewiseLevel:
        path = family.geodesics[g].vertices
        return _level_from_points(rows, den, [ticks[c] for c in cuts], scale, [path[c] for c in cuts])

    g_cur, cuts = 0, [0, len(ticks) - 1]  # the grid positions of the last even level's breaks
    levels = [level(g_cur, cuts)]
    diff_norms: list[Fraction] = []
    checks = 0
    for _ in range(steps):
        resp = family.respond(g_cur, [Fraction(ticks[c], scale) for c in cuts[1:-1]])
        q = [at[p] for p in resp.q_params]
        m_odd = level(g_cur, q)
        levels.append(m_odd)
        path, other = family.geodesics[g_cur].vertices, family.geodesics[resp.geodesic].vertices
        cuts, picks = [q[0]], []
        for a, b, s, dev in zip(q, q[1:], resp.s_params, resp.deviations):
            t = at.get(s) if dev else None
            pick_z = True
            if t is not None:
                z, zt = path[t], other[t]
                A, B = ticks[t] - ticks[a], ticks[b] - ticks[t]
                jz, jzt = _slope_jumps(emb.target, rows, den, (path[a], path[b]), (z, zt), (A, B), scale)
                pick_z = jz > jzt  # ties go to z-tilde
                needed = (ell / 2) * family.space.d(z, zt) * Fraction(scale * (A + B), A * B)
                if max(jz, jzt) < needed:
                    raise ValidationError("selection inequality failed; embedding is not bilipschitz")
                checks += 1
                cuts.append(t)
            picks.append(not pick_z)
            cuts.append(b)
        # the spliced geodesic passes every even-level point: the q points and each gap's pick
        g_cur = family.splice(g_cur, resp.geodesic, list(zip(q, q[1:])), picks)
        m_even = level(g_cur, cuts)
        levels.append(m_even)
        diff_norms.append(martingale_l1_diff(m_even, m_odd, emb.target))

    mart = Martingale(tuple(levels), emb.target)
    return MartingaleRun(mart, ell, lip, tuple(diff_norms), checks)


@dataclass(frozen=True)
class MartingaleReport:
    valid: bool
    refinement_ok: bool
    conditional_expectation_ok: bool
    bounded_ok: bool
    failures: tuple[str, ...]


def martingale_check(mart: Martingale, bound: Fraction = Fraction(1)) -> MartingaleReport:
    """Exact verification: partitions refine, the length-weighted average of
    each level over a parent interval equals the parent value, and all values
    stay inside the ball of radius bound.  Each level's table is read once
    as integer rows over one scale, and both levels' grids as ticks on one
    scale; the children of a parent interval are the intervals between its
    two ends' positions on the finer grid."""
    failures: list[str] = []
    refinement = True
    condexp = True
    bounded = True
    target = mart.target
    for k, level in enumerate(mart.levels):
        rows, scale = level.entries.num.astype(object), level.entries.scale
        if target.kind == "l2":  # each entry correctly rounded, as `norm` rounds it
            norms = _ROW_NORMS["l2"](level.entries.floats()).tolist()
        else:
            norms = [Fraction(n, scale) for n in _ROW_NORMS[target.kind](rows).tolist()]
        for value_norm in norms:
            if value_norm > bound:
                bounded = False
                failures.append(f"level {k}: value norm exceeds {bound}")
        if k > 0:
            (parent, ticks), common = _on_one_scale(prev.grid, level.grid)
            cuts = ticks.searchsorted(parent)
            if cuts[-1] == len(ticks) or (ticks[cuts] != parent).any():
                refinement = False
                failures.append(f"level {k} does not refine level {k - 1}")
            else:
                # s_prev * sum_j len_j * child_j == s * len_i * parent_i, the
                # lengths integers over the common tick scale
                lengths = np.diff(ticks[: cuts[-1] + 1])[:, None]
                acc = np.add.reduceat(lengths * rows[: cuts[-1]], cuts[:-1], axis=0)
                spans = np.diff(parent)[:, None]
                unequal = (prev_scale * acc != scale * spans * prev_rows).any(axis=1)
                for i in np.flatnonzero(unequal):
                    lo, hi = (Fraction(t, common) for t in parent[i : i + 2])
                    condexp = False
                    failures.append(f"conditional expectation fails on ({lo},{hi}] at level {k}")
        prev, prev_rows, prev_scale = level, rows, scale
    return MartingaleReport(
        valid=not failures,
        refinement_ok=refinement,
        conditional_expectation_ok=condexp,
        bounded_ok=bounded,
        failures=tuple(failures),
    )
