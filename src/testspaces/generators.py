"""Generators for every test-space family: binary trees, forks, diamonds,
Laakso graphs, cycles, l1 tree products, and Heisenberg word-metric balls.

Diamonds and Laakso graphs come from one edge-replacement skeleton: each
level replaces every edge by a fixed pattern (a quadrilateral, or the 6-vertex
Laakso gadget) and records each replacement as a `Replacement` in
`RecursiveFamily.units`.  Old vertex indices stay stable across levels, so
the level-(n-1) -> level-n injection is the identity on indices; that makes
the weighted-family isometry checkable by index, not by search.  The same
records give a family's one distance table without a shortest-path
search (`RecursiveFamily.metric_space`, built once per family).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .metric_core import (
    MetricSpace,
    PointId,
    WeightedGraph,
    apsp,
    check_cap,
    check_int,
    check_table_size,
    read_only,
)

VERTEX_CAP = 200_000  # vertices of a cycle, binary tree, diamond or Laakso graph
TREE_PRODUCT_CAP = 20_000  # points of an l1 product of trees
HEISENBERG_RADIUS_CAP = 8  # the ball grows ~ r^4


@dataclass(frozen=True)
class Weighting:
    """Edge-length convention: unit edges, or f^(-n) at level n, where f is
    the end-to-end hop count of the family's gadget (2 for the diamond's
    quadrilateral, 4 for the Laakso gadget), so that each scaled level
    injects isometrically into the next."""

    mode: str  # "unit" | "scaled"

    def __post_init__(self):
        if self.mode not in ("unit", "scaled"):
            raise ValidationError(f"unknown weighting mode {self.mode!r}")


UNIT = Weighting("unit")


def diamond_weighting() -> Weighting:
    return Weighting("scaled")


def laakso_weighting() -> Weighting:
    return Weighting("scaled")


# ---------------------------------------------------------------------------
# Trees.  T_n is stored in heap layout: vertex i has children 2i + 1 and
# 2i + 2, so its parent is (i - 1) // 2 and its ancestor k levels up is
# ((i + 1) >> k) - 1; depth d holds rows 2^d - 1 ... 2^(d+1) - 2; and i's
# label is i + 1 in binary without its leading 1.  Every module that reads
# T_n's rows uses this layout.
# ---------------------------------------------------------------------------

def tree_order(n: int, limit: int) -> int:
    """The 2^(n+1) - 1 vertices of T_n, with n clipped at limit.bit_length()
    as check_cap asks: the count exceeds limit exactly when T_n's does."""
    return 2 ** (min(n, limit.bit_length()) + 1) - 1


def tree_labels(n: int) -> list[str]:
    """T_n's labels in heap order: the 0/1 strings of length <= n, by length
    and then lexicographically.  Past VERTEX_CAP of them it raises
    CapExceededError before listing any."""
    check_int(n, 0, "depth must be an int >= 0")
    order = tree_order(n, VERTEX_CAP)
    check_cap(order, VERTEX_CAP, f"the number of vertices of the binary tree of depth {n}")
    return [bin(i)[3:] for i in range(1, order + 1)]


def binary_tree(n: int) -> WeightedGraph:
    """Binary tree of depth n in heap layout: vertex i carries its label
    and a unit edge to its parent (n is checked by tree_labels)."""
    labels = tree_labels(n)
    vertices = tuple(PointId(i, lab) for i, lab in enumerate(labels))
    edges = tuple(((i - 1) // 2, i, Fraction(1)) for i in range(1, len(labels)))
    return WeightedGraph(vertices, edges)


def fork() -> WeightedGraph:
    """The 4-vertex fork: root a0, child a1, grandchildren a2 and a2'."""
    vertices = (PointId(0, "a0"), PointId(1, "a1"), PointId(2, "a2"), PointId(3, "a2'"))
    edges = ((0, 1, Fraction(1)), (1, 2, Fraction(1)), (1, 3, Fraction(1)))
    return WeightedGraph(vertices, edges)


def cycle(m: int) -> WeightedGraph:
    """Unit-length m-cycle."""
    check_int(m, 3, "cycle needs an int m >= 3")
    check_cap(m, VERTEX_CAP, "the number of vertices of the cycle")
    vertices = tuple(PointId(i) for i in range(m))
    edges = tuple((i, (i + 1) % m, Fraction(1)) for i in range(m))
    return WeightedGraph(vertices, edges)


# ---------------------------------------------------------------------------
# Recursive families (diamonds, Laakso graphs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Replacement:
    """One edge replaced at some level: `uid` names it in the vertex chains,
    `ends` are the replaced edge's endpoints and `middle` the new vertices
    put between them, in index order."""

    uid: int
    level: int
    ends: tuple[int, int]
    middle: tuple[int, ...]


@dataclass(frozen=True)
class RecursiveFamily:
    """A diamond or Laakso instance with its construction metadata."""

    kind: str  # "diamond" | "laakso"
    level: int
    weighting: Weighting
    graph: WeightedGraph
    source: int
    sink: int
    vertex_counts: tuple[int, ...]  # V(0), V(1), ..., V(level)
    units: tuple[Replacement, ...] = ()
    # vertex index -> chain of (unit_id, side) from outermost to innermost
    chains: tuple[tuple[tuple[int, int], ...], ...] = ()

    def metric_space(self) -> MetricSpace:
        """The exact shortest-path metric of `graph`, built once (`_space`)."""
        return self._space

    @cached_property
    def _space(self) -> MetricSpace:
        """Built level by level from the construction instead of by search,
        once per family (the family and its table are immutable).

        A gadget meets the rest of the graph only at its ends x, y, so with
        G the gadget's own hop table, f = G[x, y] and H the level-(k-1) hop
        table, level k's hops are f * H between old vertices, and a new
        vertex p reaches any vertex through the nearer end: min over the
        ends e of G[p, e] + (hops from e).  Two new vertices of one gadget
        also take G[p, q].  Level k's new vertices are the units of level k
        in order, `len(sides)` per unit.  Raises CapExceededError before
        allocating a table of more than TABLE_ENTRY_CAP entries."""
        check_table_size(self.graph.size, f"{self.kind} level {self.level}")
        sides, _, G = _GADGETS[self.kind]
        width = len(sides)
        f, to_ends, inner = int(G[0, 1]), G[2:, :2], G[2:, 2:]

        H = np.array([[0, 1], [1, 0]], dtype=np.int32)  # hop counts stay below the vertex count
        done = 0
        for level in range(1, self.level + 1):
            old, total = self.vertex_counts[level - 1], self.vertex_counts[level]
            count = (total - old) // width
            ends = np.repeat([u.ends for u in self.units[done : done + count]], width, axis=0)
            offsets = np.tile(to_ends, (count, 1))  # (new vertex, end) -> in-gadget hops
            done += count
            nxt = np.empty((total, total), dtype=np.int32)
            np.multiply(H, f, out=nxt[:old, :old])
            H = nxt
            _through_ends(H[:old, :old], ends, offsets, out=H[old:, :old])
            H[:old, old:] = H[old:, :old].T
            _through_ends(H[:old, old:], ends, offsets, out=H[old:, old:])
            block = np.arange(old, total).reshape(count, width)
            same = (block[:, :, None], block[:, None, :])  # pairs inside one gadget
            H[same] = np.minimum(H[same], inner)

        return MetricSpace(read_only(H), self.graph.scale, self.graph.labels())


def _gadget(sides: tuple[int, ...], pattern) -> tuple:
    """(sides, pattern, G) of a replacement pattern: the sides of the new
    vertices in index order, and the edges put in place of one old edge x-y
    as (end, end, carrier).  Slots 0 and 1 are x and y, slots 2, 3, ... the
    new vertices; the carrier is the new vertex whose chain the edge
    inherits.  G is the pattern's own hop table over its slots, and
    f = G[0, 1], the hops from x to y, sets the scaled edge length f^(-n)."""
    width = len(sides)
    G = np.full((width + 2, width + 2), width + 2, dtype=np.int32)  # above any hop count
    np.fill_diagonal(G, 0)
    for a, b, _ in pattern:
        G[a, b] = G[b, a] = 1
    for c in range(width + 2):
        np.minimum(G, G[:, c, None] + G[c], out=G)
    return sides, pattern, read_only(G)


_GADGETS = {
    "diamond": _gadget((0, 1), ((0, 2, 2), (2, 1, 2), (0, 3, 3), (3, 1, 3))),  # the quadrilateral
    # new vertices: stem, left branch (side 0), right branch (side 1), stem;
    # both stems are side 2
    "laakso": _gadget((2, 0, 1, 2), ((0, 2, 2), (2, 3, 3), (2, 4, 4), (3, 5, 3), (4, 5, 4), (5, 1, 5))),
}


def gadget_sides(kind: str) -> tuple[int, int]:
    """(f, o) of the kind's gadget: its ends are f hops apart, and its two
    sides, one new vertex each, part o hops after its first end and meet 2
    hops later (the diamond's quadrilateral at once, the Laakso gadget after
    its first stem)."""
    sides, _, G = _GADGETS[kind]
    return int(G[0, 1]), int(G[0, 2 + sides.index(0)]) - 1


def _through_ends(table: np.ndarray, ends: np.ndarray, offsets: np.ndarray, out: np.ndarray) -> None:
    """out[i] = min over e in (0, 1) of offsets[i, e] + table[ends[i, e]]:
    the hops from a new vertex i that leaves its gadget through end e."""
    np.add(table[ends[:, 0]], offsets[:, :1], out=out)
    via = table[ends[:, 1]]
    via += offsets[:, 1:]
    np.minimum(out, via, out=out)


def _replace_edges(kind: str, n: int, w: Weighting) -> RecursiveFamily:
    """Start from one edge 0-1 and replace every edge by the kind's pattern
    n times, appending each edge's new vertices after all existing ones."""
    check_int(n, 0, "level must be an int >= 0")
    sides, pattern, G = _GADGETS[kind]
    # edge record: (u, v, chain)
    edges: list[tuple[int, int, tuple[tuple[int, int], ...]]] = [(0, 1, ())]
    chains: list[tuple[tuple[int, int], ...]] = [(), ()]
    counts = [2]
    units: list[Replacement] = []
    for level in range(1, n + 1):
        order = len(chains) + len(sides) * len(edges)
        check_cap(order, VERTEX_CAP, f"the number of vertices of {kind} level {n}")
        new_edges = []
        for x, y, chain in edges:
            uid = len(units)
            middle = tuple(range(len(chains), len(chains) + len(sides)))
            chains += [chain + ((uid, side),) for side in sides]
            units.append(Replacement(uid, level, (x, y), middle))
            slot = (x, y) + middle
            new_edges += [(slot[a], slot[b], chains[slot[c]]) for a, b, c in pattern]
        edges = new_edges
        counts.append(len(chains))
    length = Fraction(1, int(G[0, 1]) ** n) if w.mode == "scaled" else Fraction(1)
    graph = WeightedGraph(
        tuple(PointId(i) for i in range(len(chains))),
        tuple((u, v, length) for u, v, _ in edges),
    )
    return RecursiveFamily(kind, n, w, graph, 0, 1, tuple(counts), tuple(units), tuple(chains))


def diamond(n: int, w: Weighting = UNIT) -> RecursiveFamily:
    """Level-n diamond: recursively replace each edge by a quadrilateral."""
    return _replace_edges("diamond", n, w)


def laakso(n: int, w: Weighting = UNIT) -> RecursiveFamily:
    """Level-n Laakso graph: recursively replace each edge by the 6-vertex
    gadget (stem, two parallel branches, stem), degree-1 gadget vertices
    identified with the edge's endpoints."""
    return _replace_edges("laakso", n, w)


# ---------------------------------------------------------------------------
# l1 products of trees
# ---------------------------------------------------------------------------

def tree_product(depths: list[int]) -> MetricSpace:
    """Cartesian product of binary trees with the l1 (sum) metric."""
    if not depths:
        raise ValidationError("need at least one tree depth")
    for d in depths:
        check_int(d, 0, "each depth must be an int >= 0")
    points = math.prod(tree_order(d, TREE_PRODUCT_CAP) for d in depths)
    check_cap(points, TREE_PRODUCT_CAP, f"the number of points of the product of trees of depths {depths}")
    spaces = [apsp(binary_tree(d)) for d in depths]  # unit edges: each scale is 1
    labels = tuple("(" + ",".join(combo) + ")" for combo in itertools.product(*(s.labels for s in spaces)))
    num = np.zeros((1, 1), dtype=np.int64)  # l1 sums; the last factor varies fastest
    for s in spaces:
        num = (num[:, None, :, None] + s.num[None, :, None, :]).reshape(len(num) * s.size, -1)
    return MetricSpace(num, 1, labels)


# ---------------------------------------------------------------------------
# Heisenberg word-metric balls
# ---------------------------------------------------------------------------

# Group law for integer matrices [[1,a,c],[0,1,b],[0,0,1]] as triples (a,b,c):
# (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b').

HEIS_GENERATORS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))


def heis_mul(g: tuple[int, int, int], h: tuple[int, int, int]) -> tuple[int, int, int]:
    return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])


def heis_inv(g: tuple[int, int, int]) -> tuple[int, int, int]:
    a, b, c = g
    return (-a, -b, a * b - c)


def heisenberg_word_lengths(radius: int) -> dict[tuple[int, int, int], int]:
    """Word lengths (w.r.t. x^{+-1}, y^{+-1}) of all elements within the
    given radius, by breadth-first search from the identity.  Raises
    CapExceededError past 2 HEISENBERG_RADIUS_CAP, the largest radius
    heisenberg_ball searches, before it searches."""
    check_int(radius, 0, "radius must be an int >= 0")
    what = f"the radius {radius} of the Heisenberg word-length search (it grows ~ r^4)"
    check_cap(radius, 2 * HEISENBERG_RADIUS_CAP, what)
    lengths = {(0, 0, 0): 0}
    frontier = deque([(0, 0, 0)])
    while frontier:
        g = frontier.popleft()
        d = lengths[g]
        if d == radius:
            continue
        for s in HEIS_GENERATORS:
            h = heis_mul(g, s)
            if h not in lengths:
                lengths[h] = d + 1
                frontier.append(h)
    return lengths


def heisenberg_ball(r: int) -> MetricSpace:
    """All integer Heisenberg elements at word distance <= r from the
    identity, with exact pairwise word distances.

    d(u, v) is the group word length of u^{-1} v, read off a BFS of radius
    2r (pairwise distances can leave the ball but never exceed 2r).
    """
    check_int(r, 0, "radius must be an int >= 0")
    check_cap(r, HEISENBERG_RADIUS_CAP, f"the radius {r} of the Heisenberg ball (it grows ~ r^4)")
    lengths = heisenberg_word_lengths(2 * r)
    ball = sorted((g for g, d in lengths.items() if d <= r), key=lambda g: (lengths[g], g))
    labels = tuple(f"{a},{b},{c}" for a, b, c in ball)
    num = np.array([[lengths[heis_mul(heis_inv(u), v)] for v in ball] for u in ball], dtype=np.int64)
    return MetricSpace(read_only(num), 1, labels)
