"""Exact finite metric spaces and shortest-path machinery.

All distances are Fractions; floating point never enters this module.
Graphs are undirected with positive rational edge lengths.  Pairwise
kernels work on integer numerators over one common scale (`scaled_integers`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceededError, DisconnectedGraphError, ValidationError

GEODESIC_CAP_DEFAULT = 10**6
INT64_MAX = 2**63 - 1
TRIANGLE_BLOCK = 2**12  # triples per verify_metric pass (small temporaries)


def scaled_integers(rows, headroom: int = 1) -> tuple[np.ndarray, int]:
    """Integer numerators N and the lcm S of the denominators of a table of
    Fraction/int entries, with rows[i][j] == N[i, j] / S exactly.

    N is int64 when `headroom` times the largest magnitude fits in int64
    (callers pass the growth of the sums and cross-products they form);
    otherwise it is an object array of Python ints, so no kernel built on it
    can overflow.
    """
    nums = [x.numerator for row in rows for x in row]
    dens = [x.denominator for row in rows for x in row]
    scale = math.lcm(*set(dens))
    if scale != 1:
        nums = [p * (scale // q) for p, q in zip(nums, dens)]
    big = max(max(nums, default=0), -min(nums, default=0))
    dtype = np.int64 if big * headroom <= INT64_MAX else object
    return np.array(nums, dtype=dtype).reshape(len(rows), len(rows[0]) if rows else 0), scale


@dataclass(frozen=True)
class PointId:
    """A vertex: contiguous index plus an optional unique text label."""

    index: int
    label: Optional[str] = None


@dataclass(frozen=True)
class MetricSpace:
    """Finite point set with an exact pairwise distance table."""

    dist: tuple[tuple[Fraction, ...], ...]
    labels: Optional[tuple[Optional[str], ...]] = None

    @property
    def size(self) -> int:
        return len(self.dist)

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def restrict(self, indices: Sequence[int]) -> "MetricSpace":
        """Subspace on the given points, in the given order."""
        rows = tuple(
            tuple(self.dist[i][j] for j in indices) for i in indices
        )
        labels = None
        if self.labels is not None:
            labels = tuple(self.labels[i] for i in indices)
        return MetricSpace(rows, labels)

    def scaled(self, factor: Fraction) -> "MetricSpace":
        if factor <= 0:
            raise ValidationError("scale factor must be positive")
        return MetricSpace(
            tuple(tuple(d * factor for d in row) for row in self.dist), self.labels
        )


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with positive rational edge lengths."""

    vertices: tuple[PointId, ...]
    edges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        n = len(self.vertices)
        for k, p in enumerate(self.vertices):
            if p.index != k:
                raise ValidationError(f"vertex indices must be contiguous, got {p.index} at {k}")
        labels = [p.label for p in self.vertices if p.label is not None]
        if len(labels) != len(set(labels)):
            raise ValidationError("vertex labels must be unique when present")
        seen = set()
        for u, v, w in self.edges:
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) out of range")
            if w <= 0:
                raise ValidationError(f"edge ({u},{v}) has non-positive length {w}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValidationError(f"duplicate undirected edge {key}")
            seen.add(key)

    @property
    def size(self) -> int:
        return len(self.vertices)

    def adjacency(self) -> list[list[tuple[int, Fraction]]]:
        adj: list[list[tuple[int, Fraction]]] = [[] for _ in self.vertices]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    def labels(self) -> tuple[Optional[str], ...]:
        return tuple(p.label for p in self.vertices)


@dataclass(frozen=True)
class GeodesicPath:
    """A shortest path given combinatorially: vertices plus cumulative lengths."""

    vertices: tuple[int, ...]
    breakpoints: tuple[Fraction, ...]  # cumulative from 0, one per vertex

    @property
    def length(self) -> Fraction:
        return self.breakpoints[-1]

    def vertex_at(self, t: Fraction) -> Optional[int]:
        """Vertex sitting exactly at parameter t, or None if t is edge-interior."""
        lo, hi = 0, len(self.breakpoints) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            if self.breakpoints[mid] == t:
                return self.vertices[mid]
            if self.breakpoints[mid] < t:
                lo = mid + 1
            else:
                hi = mid - 1
        return None


def _dijkstra(adj, src):
    """Single-source distances over adjacency lists of (vertex, length);
    lengths may be ints or Fractions.  None marks an unreachable vertex."""
    dist = [None] * len(adj)
    heap = [(0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if dist[u] is not None:
            continue
        dist[u] = d
        for v, w in adj[u]:
            if dist[v] is None:
                heapq.heappush(heap, (d + w, v))
    return dist


def apsp(graph: WeightedGraph) -> MetricSpace:
    """All-pairs shortest-path metric of a connected graph, exact.

    Dijkstra runs on integer lengths scaled by the lcm of the edge
    denominators; each distinct distance becomes one Fraction.
    Raises DisconnectedGraphError naming an unreachable pair.
    """
    scale = math.lcm(*(w.denominator for _, _, w in graph.edges))
    adj: list[list[tuple[int, int]]] = [[] for _ in graph.vertices]
    for u, v, w in graph.edges:
        length = w.numerator * (scale // w.denominator)
        adj[u].append((v, length))
        adj[v].append((u, length))
    exact: dict[int, Fraction] = {}
    rows = []
    for src in range(graph.size):
        dist = _dijkstra(adj, src)
        row = []
        for v, d in enumerate(dist):
            if d is None:
                raise DisconnectedGraphError(src, v)
            f = exact.get(d)
            if f is None:
                f = exact[d] = Fraction(d, scale)
            row.append(f)
        rows.append(tuple(row))
    return MetricSpace(tuple(rows), graph.labels())


@dataclass(frozen=True)
class MetricViolation:
    kind: str  # identity | symmetry | triangle
    where: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class MetricReport:
    valid: bool
    violations: tuple[MetricViolation, ...]


def verify_metric(space: MetricSpace) -> MetricReport:
    """Report every violated metric-axiom instance (never raises).

    Identity and symmetry come first, then the triangle inequality over the
    integer numerators, one vectorized pass per block of first indices i
    (about TRIANGLE_BLOCK triples); violations are listed in (i, j, k)
    order.
    """
    d = space.dist
    n = space.size
    out: list[MetricViolation] = []
    if n == 0:
        return MetricReport(valid=True, violations=())
    D, _ = scaled_integers(d, headroom=2)
    for i in np.flatnonzero(D.diagonal()).tolist():
        out.append(MetricViolation("identity", (i, i), f"d({i},{i}) = {d[i][i]} != 0"))
    # the zero diagonal shows up here too and is skipped
    for i, j in zip(*(a.tolist() for a in np.nonzero((D != D.T) | (D <= 0)))):
        if i >= j:
            continue
        if d[i][j] != d[j][i]:
            out.append(
                MetricViolation("symmetry", (i, j), f"d({i},{j}) = {d[i][j]} != d({j},{i}) = {d[j][i]}")
            )
        if d[i][j] <= 0:
            out.append(MetricViolation("identity", (i, j), f"d({i},{j}) = {d[i][j]} not positive"))
    DT = np.ascontiguousarray(D.T)
    idx = np.arange(n)
    distinct = idx[:, None] != idx[None, :]
    step = max(1, TRIANGLE_BLOCK // (n * n))
    for start in range(0, n, step):
        first = idx[start : start + step, None, None]
        rows = D[start : start + step]
        # bad[b, j, k]: d(i,j) > d(i,k) + d(k,j) for i = start + b, with
        # i, j, k distinct
        bad = rows[:, :, None] > rows[:, None, :] + DT
        bad &= distinct & (first != idx[:, None]) & (first != idx)
        for b, j, k in zip(*(a.tolist() for a in np.nonzero(bad))):
            i = start + b
            out.append(
                MetricViolation(
                    "triangle",
                    (i, j, k),
                    f"d({i},{j}) = {d[i][j]} > d({i},{k}) + d({k},{j}) = {d[i][k] + d[k][j]}",
                )
            )
    return MetricReport(valid=not out, violations=tuple(out))


def enumerate_geodesic_paths(
    graph: WeightedGraph,
    u: int,
    v: int,
    cap: int = GEODESIC_CAP_DEFAULT,
    space: Optional[MetricSpace] = None,
) -> list[GeodesicPath]:
    """All distinct shortest u-v vertex paths, sorted by vertex sequence.

    `space` may pass a precomputed apsp table.  Raises CapExceededError when
    more than `cap` geodesics exist.
    """
    if u == v:
        raise ValidationError("endpoints of a geodesic must differ")
    if space is None:
        space = apsp(graph)
    adj = graph.adjacency()
    total = space.d(u, v)
    results: list[GeodesicPath] = []

    # DFS extending only along prefix-shortest edges that can still reach v
    # on a geodesic.
    stack: list[tuple[tuple[int, ...], tuple[Fraction, ...]]] = [((u,), (Fraction(0),))]
    while stack:
        path, breaks = stack.pop()
        x = path[-1]
        cum = breaks[-1]
        if x == v:
            results.append(GeodesicPath(path, breaks))
            if len(results) > cap:
                raise CapExceededError(
                    f"more than {cap} geodesics between {u} and {v}"
                )
            continue
        for y, w in sorted(adj[x], reverse=True):
            if cum + w == space.d(u, y) and cum + w + space.d(y, v) == total:
                stack.append((path + (y,), breaks + (cum + w,)))
    results.sort(key=lambda g: g.vertices)
    return results


def path_graph(n: int) -> WeightedGraph:
    """Path on n vertices with unit edges (used as a Markov-convex baseline)."""
    if n < 1:
        raise ValidationError("path needs at least one vertex")
    verts = tuple(PointId(i) for i in range(n))
    edges = tuple((i, i + 1, Fraction(1)) for i in range(n - 1))
    return WeightedGraph(verts, edges)
