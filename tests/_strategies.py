"""Hypothesis draws shared by several test modules."""

import math
from fractions import Fraction as F

from hypothesis import strategies as st

from testspaces.metric_core import PointId, WeightedGraph


def random_connected_graph(draw):
    """Random spanning tree on 2..10 vertices plus up to 12 extra edges, with
    rational lengths num/den, num in 1..12 and den in 1..4."""
    n = draw(st.integers(min_value=2, max_value=10))
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(1, 12),
                st.integers(1, 4),
            ),
            max_size=12,
        )
    )
    edges = {}
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        edges[(parent, i)] = F(draw(st.integers(1, 12)), draw(st.integers(1, 4)))
    for u, v, num, den in extra:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        edges.setdefault(key, F(num, den))
    return WeightedGraph(
        tuple(PointId(i) for i in range(n)),
        tuple((u, v, w) for (u, v), w in sorted(edges.items())),
    )


def one_length_graph(draw, connected=True):
    """random_connected_graph's shape with every edge given one drawn length
    num/den (num in 1..12, den in 1..4), the input of apsp's breadth-first
    route.  Unless `connected`, a random subset of the edges is kept."""
    graph = random_connected_graph(draw)
    length = F(draw(st.integers(1, 12)), draw(st.integers(1, 4)))
    edges = [(u, v, length) for u, v, _ in graph.edges]
    if not connected:
        edges = [e for e in edges if draw(st.booleans())]
    return WeightedGraph(graph.vertices, tuple(edges))


def one_length_graph_across_words(draw, connected=True):
    """A graph with one drawn edge length num/den (num in 1..12, den in
    1..4) on n vertices, n drawn across the 64-bit word boundaries of apsp's
    packed source sets.  Vertex i hangs off one of the `reach` vertices
    before it (reach 1 gives a path), plus up to 8 extra edges.  Unless
    `connected`, every edge at a few drawn vertices is dropped, leaving
    them isolated, and then a random subset of the rest is kept (perhaps
    none)."""
    n = draw(st.sampled_from((1, 2, 63, 64, 65, 127, 128, 129)))
    reach = draw(st.integers(1, max(1, n - 1)))
    edges = {(draw(st.integers(max(0, i - reach), i - 1)), i) for i in range(1, n)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    if not connected:
        isolated = draw(st.sets(st.integers(0, n - 1), max_size=3))
        edges = {e for e in edges if not isolated & set(e)}
        keep = draw(st.sampled_from(["all", "none", "some"]))
        if keep != "all":
            edges = {e for e in sorted(edges) if keep == "some" and draw(st.booleans())}
    length = F(draw(st.integers(1, 12)), draw(st.integers(1, 4)))
    return WeightedGraph(tuple(PointId(i) for i in range(n)), tuple((u, v, length) for u, v in sorted(edges)))


def exact_positive_numbers():
    """Positive ints, past int64 too, and positive Fractions with
    denominators up to 3^40."""
    return st.one_of(
        st.integers(1, 12),
        st.integers(2**63, 2**70),
        st.builds(F, st.integers(1, 3**41), st.integers(1, 3**40) | st.sampled_from([3**40, 2**64])),
    )


def numbers_of_every_kind():
    """Whatever a caller may pass for an exact value: ints past int64 (and
    non-positive ones), Fractions with denominators up to 3^40, floats (NaN,
    +-inf and -0.0 among them) and bools."""
    return st.one_of(
        st.integers(-(2**70), 2**70),
        st.builds(F, st.integers(-(3**41), 3**41), st.integers(1, 3**40)),
        st.floats(),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.5, True, False]),
    )


def is_exact(x) -> bool:
    """Whether x is an int (not a bool) or a Fraction."""
    return type(x) is int or isinstance(x, F)
