"""Hypothesis draws shared by several test modules."""

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
