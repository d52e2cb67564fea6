"""Exact finite metric spaces and shortest-path machinery.

A RationalTable, the one exact table type, stores integer numerators over
one int scale; a MetricSpace holds its distances as one.  `d(i, j)` and
`dist` are exact Fraction views, and floats enter only through the
correctly rounded `floats()`.  A graph's exact positive edge lengths are
turned once, at construction, into one CSR table of integer lengths over
one scale, which shortest paths, geodesics (integer ticks over a table's
scale) and walks read; Fractions are made only for the values handed back.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceededError, DisconnectedGraphError, ValidationError

GEODESIC_CAP_DEFAULT = 10**6
INT64_MAX = 2**63 - 1
FLOAT_EXACT = 2**53  # integers below this convert to float64 exactly
TRIANGLE_BLOCK = 2**12  # triples per verify_metric pass (small temporaries)
VIOLATION_CAP = 1000  # violations listed by verify_metric
TABLE_ENTRY_CAP = 2**26  # n^2 entries of one distance table (n <= 8192)
# row b: the 8 bits of byte b, low bit first, as lanes of uint64 words (one of uint8 lanes, two of uint16)
SPREAD = {
    lane: np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    .astype(lane)
    .view(np.uint64)
    for lane in (np.uint8, np.uint16)
}


@dataclass(frozen=True)
class PointId:
    """A vertex: contiguous index plus an optional unique text label."""

    index: int
    label: Optional[str] = None


@dataclass(frozen=True, eq=False, init=False)
class RationalTable:
    """A read-only 2-D table: exact rationals num / scale, or float64 at scale 1.

    Exact numerators are over one positive int `scale` in lowest terms,
    int64 when `headroom` (the growth of its holder's sums and products)
    times the largest magnitude fits, else Python ints.  `data` is an
    integer array over `scale`, a float array, a table, or rows (an object
    array included) all exact (int or Fraction, converted without loss) or
    all float; anything else raises ValidationError.  An array no one can
    write to any more is kept; any other is copied."""

    num: np.ndarray
    scale: int

    def __init__(self, data, scale: int = 1, headroom: int = 1):
        if type(scale) is not int or scale <= 0:
            raise ValidationError(f"a table's scale must be a positive int, got {scale!r}")
        if isinstance(data, RationalTable):  # converted already
            data, scale = data.num, data.scale * scale
        elif not isinstance(data, np.ndarray) or data.dtype == object:
            data, scale = _from_rows(data, scale)
        if data.ndim != 2 or data.dtype.kind not in "iufO":
            raise ValidationError(f"need a 2-D table of numbers, got {data.dtype} of shape {data.shape}")
        copy = _writable(data)
        if data.dtype.kind == "f":
            if scale != 1 or not np.isfinite(data).all():
                raise ValidationError("a float table takes finite entries and scale 1")
            num = data.astype(float, copy=copy)
        else:
            # gcd(scale, table) divides gcd(scale, row 0): the table is read only when that exceeds 1
            g = math.gcd(scale, int(np.gcd.reduce(data[:1], axis=None))) if scale > 1 else 1
            g = math.gcd(g, int(np.gcd.reduce(data, axis=None))) if g > 1 else g  # scale when data is all 0
            if g > 1 and data.any():
                data, copy = data // g, False
            scale //= g
            fits = headroom * _magnitude(data) <= INT64_MAX
            num = data.astype(np.int64 if fits else object, copy=copy)
        num.flags.writeable = False
        vars(self).update(num=num, scale=scale)

    exact = property(lambda self: self.num.dtype != float)

    def rows(self) -> tuple[tuple, ...]:
        """Rows of Fractions (one object per distinct numerator), or of floats."""
        if not self.exact:
            return tuple(map(tuple, self.num.tolist()))
        value = {x: Fraction(x, self.scale) for x in set(self.num.ravel().tolist())}.__getitem__
        return tuple(tuple(map(value, row)) for row in self.num.tolist())

    def floats(self) -> np.ndarray:
        """Correctly rounded float64: numpy below 2^53, else Python per entry."""
        num, scale = self.num, self.scale
        if not self.exact:
            return num
        if num.dtype != object and max(_magnitude(num), scale) < FLOAT_EXACT:
            return num / scale
        return np.array([x / scale for x in num.ravel().tolist()]).reshape(num.shape)

    def rescaled(self, factor) -> "RationalTable":
        """Every entry times `factor`: exactly for an int or Fraction, else in float64."""
        if self.exact and isinstance(factor, (int, Fraction)):
            k = factor.numerator  # int64 products where they fit, else Python ints
            fits = max(_magnitude(self.num), 1) * abs(k) <= INT64_MAX
            num = self.num * k if fits else self.num.astype(object) * k
            return RationalTable(read_only(num), self.scale * factor.denominator)
        return RationalTable(read_only(self.floats() * float(factor)))

    def __eq__(self, other) -> bool:
        same = isinstance(other, RationalTable) and (self.exact, self.scale) == (other.exact, other.scale)
        return same and np.array_equal(self.num, other.num)

    def __hash__(self) -> int:  # so the frozen holders of a table stay hashable
        return hash((self.scale, self.num.shape, tuple(self.num.ravel().tolist())))


def _from_rows(rows, scale: int) -> tuple[np.ndarray, int]:
    """Rows as a read-only array: numerators over `scale` times the lcm of
    the denominators (int64 where they fit), or float64."""
    rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
    width = len(rows[0]) if len(rows) else 0
    if any(len(row) != width for row in rows):
        raise ValidationError("table rows must have equal lengths")
    cells = list(itertools.chain.from_iterable(rows))
    kinds = set(map(type, cells))
    if kinds and all(issubclass(t, float) for t in kinds):
        return read_only(np.array(cells, dtype=float).reshape(len(rows), width)), scale
    if not all(issubclass(t, (int, Fraction)) for t in kinds):
        raise ValidationError("table entries must be all exact (int or Fraction) or all float")
    if not kinds <= {int}:  # Fractions, and bools as 0 and 1
        dens = [x.denominator for x in cells]
        common = math.lcm(*set(dens))
        cells = [x.numerator * (common // q) for x, q in zip(cells, dens)]
        scale *= common
    big = max(max(cells, default=0), -min(cells, default=0))
    table = np.array(cells, dtype=np.int64 if big <= INT64_MAX else object)
    return read_only(table.reshape(len(rows), width)), scale


@dataclass(frozen=True, eq=False, init=False, repr=False)
class MetricSpace:
    """Finite point set with exact distances d(i, j) = num[i, j] / scale.

    The distances are one exact RationalTable, `table`, at headroom 2 (int64
    when twice the largest numerator fits), built from an integer array
    over `scale` or from rows (an object array included)."""

    table: RationalTable
    labels: Optional[tuple[Optional[str], ...]] = None

    def __init__(self, num, scale: int = 1, labels=None):
        table = RationalTable(num, scale, headroom=2)
        if not table.exact or table.num.shape[0] != table.num.shape[1]:
            raise ValidationError("need a square table of exact distances (ints or Fractions)")
        vars(self).update(table=table, labels=labels)

    @classmethod
    def from_rows(cls, rows, labels=None) -> "MetricSpace":
        """The space with distance table rows[i][j] (ints and Fractions)."""
        if any(len(row) != len(rows) for row in rows):
            raise ValidationError("distance table must be square")
        return cls(rows, 1, labels)

    num = property(lambda self: self.table.num)
    scale = property(lambda self: self.table.scale)
    size = property(lambda self: self.num.shape[0])

    dist = property(lambda self: self.table.rows())  # the table as Fractions, built on each call

    def d(self, i: int, j: int) -> Fraction:
        return Fraction(int(self.num[i, j]), self.scale)

    def floats(self) -> np.ndarray:
        """The table in float64, each entry equal to float(self.d(i, j))."""
        return self.table.floats()

    def restrict(self, indices: Sequence[int]) -> "MetricSpace":
        """Subspace on the given points, in the given order."""
        idx = np.asarray(indices, dtype=np.intp)
        labels = None if self.labels is None else tuple(self.labels[i] for i in idx.tolist())
        return MetricSpace(read_only(self.num[np.ix_(idx, idx)]), self.scale, labels)

    def scaled(self, factor) -> "MetricSpace":
        """Every distance times `factor`, a positive int or Fraction."""
        if not isinstance(factor, (int, Fraction)) or factor <= 0:
            raise ValidationError(f"scale factor must be a positive rational, got {factor!r}")
        return MetricSpace(self.table.rescaled(factor), 1, self.labels)

    def __eq__(self, other):
        return isinstance(other, MetricSpace) and (self.labels, self.table) == (other.labels, other.table)

    def __repr__(self) -> str:
        return f"MetricSpace(num={self.num!r}, scale={self.scale!r}, labels={self.labels!r})"


def check_table_size(n: int, what: str) -> None:
    """Raise CapExceededError before an n x n table for `what` is allocated
    when n^2 exceeds TABLE_ENTRY_CAP."""
    if n * n > TABLE_ENTRY_CAP:
        raise CapExceededError(
            f"{what} needs {n}x{n} table entries, more than the cap of {TABLE_ENTRY_CAP}"
        )


def read_only(num: np.ndarray) -> np.ndarray:
    """A fresh array, marked read-only so that a RationalTable keeps it uncopied."""
    num.flags.writeable = False
    return num


def _writable(num: np.ndarray) -> bool:
    """Whether num's memory can still be written through num or an array it views."""
    while isinstance(num, np.ndarray):
        if num.flags.writeable:
            return True
        num = num.base
    return num is not None  # a buffer that is not an array may be mutable


def _magnitude(num: np.ndarray) -> int:
    """Largest |entry| of an integer array, as a Python int."""
    return max(int(num.max()), -int(num.min())) if num.size else 0


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with positive int or Fraction edge lengths, turned
    once into the CSR table every reader uses: arcs indptr[u] .. indptr[u + 1]
    - 1 leave u, to targets (increasing), with lengths over scale."""

    vertices: tuple[PointId, ...]
    edges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        n = len(self.vertices)
        if n == 0:
            raise ValidationError("a graph needs at least one vertex")
        for k, p in enumerate(self.vertices):
            if p.index != k:
                raise ValidationError(f"vertex indices must be contiguous, got {p.index} at {k}")
        labels = [p.label for p in self.vertices if p.label is not None]
        if len(labels) != len(set(labels)):
            raise ValidationError("vertex labels must be unique when present")
        for u, v, w in self.edges:
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) out of range")  # a float or bool end too
            if type(w) is not int and not isinstance(w, Fraction):
                raise ValidationError(f"edge ({u},{v}) has length {w!r}, not an int or Fraction")
            if w <= 0:
                raise ValidationError(f"edge ({u},{v}) has non-positive length {w}")
        scale = math.lcm(*{w.denominator for _, _, w in self.edges})
        lengths = [w.numerator * (scale // w.denominator) for _, _, w in self.edges]
        dtype = np.int64 if 2 * sum(lengths) <= INT64_MAX else object  # so path sums fit
        m = len(self.edges)  # arcs 2k and 2k + 1 are edge k's u -> v and v -> u
        heads = np.fromiter((x for u, v, _ in self.edges for x in (u, v)), np.intp, 2 * m)
        tails = heads.reshape(m, 2)[:, ::-1].ravel()
        key = heads * n + tails  # sorted, the arcs of u are the keys in [u n, (u + 1) n)
        order = key.argsort()
        key = key[order]
        repeated = np.flatnonzero(key[1:] == key[:-1])  # the first is some edge's (min, max)
        if repeated.size:
            raise ValidationError(f"duplicate undirected edge {divmod(int(key[repeated[0]]), n)}")
        indptr = key.searchsorted(np.arange(0, n * n + 1, n))
        table = dict(indptr=indptr, targets=tails[order], lengths=np.array(lengths, dtype).repeat(2)[order])
        vars(self).update(scale=scale, **{name: read_only(a) for name, a in table.items()})

    @property
    def size(self) -> int:
        return len(self.vertices)

    def labels(self) -> tuple[Optional[str], ...]:
        return tuple(p.label for p in self.vertices)


@dataclass(frozen=True)
class GeodesicPath:
    """A shortest path: vertices plus cumulative lengths, integer ticks over `scale`."""

    vertices: tuple[int, ...]
    ticks: tuple[int, ...]
    scale: int

    breakpoints = property(lambda self: tuple(Fraction(t, self.scale) for t in self.ticks))
    length = property(lambda self: Fraction(self.ticks[-1], self.scale))


def _dijkstra(indptr: list, targets: list, lengths: list, src: int) -> list:
    """Single-source distances over a CSR table's arcs as lists (integer
    lengths).  None marks an unreachable vertex."""
    dist = [None] * (len(indptr) - 1)
    heap = [(0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if dist[u] is not None:
            continue
        dist[u] = d
        for k in range(indptr[u], indptr[u + 1]):
            v = targets[k]
            if dist[v] is None:
                heapq.heappush(heap, (d + lengths[k], v))
    return dist


def _hop_counts(graph: WeightedGraph) -> np.ndarray:
    """Edge counts of the shortest paths between all pairs, as a symmetric
    n x n table of uint8 (diameter below 256) or uint16.  Raises
    DisconnectedGraphError naming the first unreachable (source, vertex)
    pair in row-major order: source 0 and the first vertex it misses.

    One breadth-first search from all sources at once over packed source
    sets (Then et al., PVLDB 2014).  Each vertex holds two rows of
    ceil(n / 64) uint64 words, one bit per source: its frontier (the
    sources that reached it at the last level) and its unreached set.  A
    level gathers the frontier rows of the arcs' targets, ORs each vertex's
    arcs together with one reduceat and keeps the bits still unreached:
    O(|E| n / 64) word operations.  A vertex without arcs gets an arc to
    itself, which reaches nothing new, since an empty reduceat segment
    would read the next segment's first row.

    The counts are kept in binary: plane i holds the pairs reached at a
    level with bit i set (at most 13 planes under TABLE_ENTRY_CAP).  Those
    levels come in runs and the unreached set only shrinks, so plane i is
    the XOR of the unreached sets at the levels where bit i flips.  Each
    byte of a plane, 8 sources, is decoded through SPREAD into 8 lanes of
    one or two uint64 words.
    """
    n, indptr, words = graph.size, graph.indptr, -(-graph.size // 64)
    targets, starts = graph.targets, indptr[:-1]
    lone = np.flatnonzero(indptr[1:] == starts)
    if lone.size:
        targets = np.insert(targets, starts[lone], lone)
        starts = starts + lone.searchsorted(np.arange(n))
    front = np.packbits(np.eye(n, 64 * words, dtype=bool), axis=1, bitorder="little").view(np.uint64)
    left, level = ~front, 0  # left keeps the padding bits past n; they cancel in the planes
    planes = [np.zeros_like(front)]  # plane 0 exists even when no level runs (n = 1)
    while True:
        reached = np.bitwise_or.reduceat(front.take(targets, axis=0), starts, axis=0)
        reached &= left
        if not np.count_nonzero(reached):
            break
        level += 1
        for i in range((level ^ (level - 1)).bit_length()):  # the bits that flip at this level
            if i == len(planes):
                planes.append(left.copy())
            else:
                planes[i] ^= left
        left ^= reached
        front = reached
    for i in range(level.bit_length()):  # close the runs of levels still open
        if level >> i & 1:
            planes[i] ^= left
    lane = np.uint8 if level < 256 else np.uint16  # one lane per source
    hops = SPREAD[lane].take(planes[0].view(np.uint8), axis=0)
    for i, plane in enumerate(planes[1:], 1):
        hops |= (SPREAD[lane] << i).take(plane.view(np.uint8), axis=0)
    hops = hops.view(lane).reshape(n, 64 * words)[:, :n]
    if np.count_nonzero(hops[0]) < n - 1:  # source 0 missed a vertex
        raise DisconnectedGraphError(0, int(hops[0, 1:].argmin()) + 1)
    return hops


def apsp(graph: WeightedGraph) -> MetricSpace:
    """All-pairs shortest-path metric of a connected graph, exact.

    The search reads the graph's integer CSR lengths over its scale.  When
    they are all one integer p, the numerators are p times the hop counts
    of one breadth-first search from all sources at once over packed
    source sets (`_hop_counts`); otherwise Dijkstra runs on the integer
    lengths, and its distances are the numerators.
    Raises DisconnectedGraphError naming an unreachable pair, and
    CapExceededError before the search when the table would exceed
    TABLE_ENTRY_CAP entries.
    """
    n, lengths = graph.size, graph.lengths
    check_table_size(n, "the graph")
    if not lengths.size or (lengths == lengths[0]).all():
        p = int(lengths[0]) if lengths.size else 1
        num = _hop_counts(graph).astype(lengths.dtype)
        num *= p  # in place: one n x n table of lengths.dtype
    else:
        arcs, rows = (graph.indptr.tolist(), graph.targets.tolist(), lengths.tolist()), []
        for src in range(n):
            row = _dijkstra(*arcs, src)
            if None in row:
                raise DisconnectedGraphError(src, row.index(None))
            rows.append(row)
        num = np.array(rows, dtype=lengths.dtype)
    return MetricSpace(read_only(num), graph.scale, graph.labels())


@dataclass(frozen=True)
class MetricViolation:
    kind: str  # identity | symmetry | triangle
    where: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class MetricReport:
    valid: bool
    violations: tuple[MetricViolation, ...]
    truncated: bool = False  # more violations exist than the VIOLATION_CAP listed


def verify_metric(space: MetricSpace) -> MetricReport:
    """Report the violated metric-axiom instances (never raises).

    Identity and symmetry come first, then the triangle inequality over the
    integer numerators, one vectorized pass per block of first indices i
    (about TRIANGLE_BLOCK triples); violations are listed in (i, j, k)
    order.  The search stops after VIOLATION_CAP of them (`truncated`).
    """
    found = list(itertools.islice(_violations(space), VIOLATION_CAP + 1))
    return MetricReport(not found, tuple(found[:VIOLATION_CAP]), len(found) > VIOLATION_CAP)


def _violations(space: MetricSpace):
    D, d, n = space.num, space.d, space.size
    for i in np.flatnonzero(D.diagonal()).tolist():
        yield MetricViolation("identity", (i, i), f"d({i},{i}) = {d(i, i)} != 0")
    for i, j in zip(*(a.tolist() for a in np.nonzero(np.triu((D != D.T) | (D <= 0), 1)))):
        if D[i, j] != D[j, i]:
            detail = f"d({i},{j}) = {d(i, j)} != d({j},{i}) = {d(j, i)}"
            yield MetricViolation("symmetry", (i, j), detail)
        if D[i, j] <= 0:
            yield MetricViolation("identity", (i, j), f"d({i},{j}) = {d(i, j)} not positive")
    DT = np.ascontiguousarray(D.T)
    idx = np.arange(n)
    distinct = idx[:, None] != idx[None, :]
    step = max(1, TRIANGLE_BLOCK // max(1, n * n))
    for start in range(0, n, step):
        first = idx[start : start + step, None, None]
        rows = D[start : start + step]
        # bad[b, j, k]: d(i,j) > d(i,k) + d(k,j) for i = start + b, with
        # i, j, k distinct
        bad = rows[:, :, None] > rows[:, None, :] + DT
        bad &= distinct & (first != idx[:, None]) & (first != idx)
        for b, j, k in zip(*(a.tolist() for a in np.nonzero(bad))):
            i = start + b
            via = Fraction(int(D[i, k]) + int(D[k, j]), space.scale)
            detail = f"d({i},{j}) = {d(i, j)} > d({i},{k}) + d({k},{j}) = {via}"
            yield MetricViolation("triangle", (i, j, k), detail)


def enumerate_geodesic_paths(
    graph: WeightedGraph,
    u: int,
    v: int,
    cap: int = GEODESIC_CAP_DEFAULT,
    space: Optional[MetricSpace] = None,
) -> list[GeodesicPath]:
    """All distinct shortest u-v vertex paths, sorted by vertex sequence.

    `space` may pass the graph's apsp table (one of another size, one that
    an edge undercuts, or one whose rows u and v are not the graph's
    distances from u and v raises ValidationError).  The search runs on integer
    lengths over `space.scale`: an edge whose length is no multiple of
    1/scale lies on no geodesic, and breakpoints are ticks over that scale.
    Raises CapExceededError when more than `cap` geodesics exist.
    """
    if u == v:
        raise ValidationError("endpoints of a geodesic must differ")
    if space is None:
        space = apsp(graph)
    elif space.size != graph.size:
        raise ValidationError(f"distance table has {space.size} points, the graph {graph.size}")
    scale, heads = space.scale, np.arange(graph.size).repeat(np.diff(graph.indptr))
    # over scale, times graph.scale; int64 where a row entry (at most half
    # INT64_MAX at headroom 2) plus an arc still fits
    fits = _magnitude(graph.lengths) * scale <= INT64_MAX // 2
    lengths = graph.lengths.astype(np.int64 if fits else object) * scale
    steps = lengths // graph.scale  # an arc undercuts an integer distance iff its floor does
    if (steps < space.num[heads, graph.targets]).any():
        raise ValidationError("distance table is not the graph's: an edge is shorter than its ends' distance")
    whole = lengths % graph.scale == 0
    # Bellman's equations on the rows the search reads: 0 at the row's own
    # vertex, no arc shortcuts the row, and every other vertex has a tight
    # in-arc; then rows u and v hold the graph's distances from u and v
    tight = {}
    for a in (u, v):
        row = space.num[a]
        via, at = row[heads] + steps, row[graph.targets]
        tight[a] = whole & (at == via)
        reached = np.zeros(graph.size, dtype=bool)
        reached[graph.targets[tight[a]]] = True
        reached[a] = row[a] == 0
        if not reached.all() or (at > via).any():
            raise ValidationError(f"distance table is not the graph's: row {a} is not the distances from {a}")
    # the arcs x -> y on some u-v geodesic: tight from u, and y still on one
    from_u, to_v = space.num[u], space.num[v]
    on = tight[u] & (from_u[graph.targets] + to_v[graph.targets] == from_u[v])
    onward: list[list[tuple[int, int]]] = [[] for _ in range(graph.size)]
    for x, y, w in zip(heads[on].tolist(), graph.targets[on].tolist(), steps[on].tolist()):
        onward[x].append((y, w))
    found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    # DFS along the geodesic arcs: every prefix is a shortest path
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((u,), (0,))]
    while stack:
        path, breaks = stack.pop()
        x = path[-1]
        if x == v:
            found.append((path, breaks))
            if len(found) > cap:
                raise CapExceededError(
                    f"more than {cap} geodesics between {u} and {v}"
                )
            continue
        for y, w in onward[x]:
            stack.append((path + (y,), breaks + (breaks[-1] + w,)))
    found.sort(key=lambda g: g[0])
    return [GeodesicPath(path, breaks, scale) for path, breaks in found]


def path_graph(n: int) -> WeightedGraph:
    """Path on n vertices with unit edges (used as a Markov-convex baseline)."""
    if n < 1:
        raise ValidationError("path needs at least one vertex")
    verts = tuple(PointId(i) for i in range(n))
    edges = tuple((i, i + 1, Fraction(1)) for i in range(n - 1))
    return WeightedGraph(verts, edges)
