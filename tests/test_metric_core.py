"""Core metric machinery: apsp, axiom verification, geodesic enumeration."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from testspaces.errors import CapExceededError, DisconnectedGraphError, ValidationError
from testspaces.generators import UNIT, cycle, diamond, diamond_weighting, laakso, laakso_weighting
from testspaces.metric_core import (
    GeodesicPath,
    MetricSpace,
    PointId,
    WeightedGraph,
    apsp,
    enumerate_geodesic_paths,
    verify_metric,
)

from _oracles import floyd_warshall, triple_metric_violations
from _strategies import random_connected_graph


def test_apsp_single_edge():
    g = WeightedGraph((PointId(0), PointId(1)), ((0, 1, F(1)),))
    sp = apsp(g)
    assert sp.dist == ((F(0), F(1)), (F(1), F(0)))


def test_apsp_unweighted_d1_is_four_cycle():
    sp = apsp(diamond(1, UNIT).graph)
    # vertices 2, 3 are the two middles: opposite at distance 2
    assert sp.d(2, 3) == 2
    assert sp.d(0, 1) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_apsp_unweighted_diamond_source_sink(n):
    fam = diamond(n, UNIT)
    sp = apsp(fam.graph)
    assert sp.d(fam.source, fam.sink) == 2**n
    # brute-force oracle agreement
    fw = floyd_warshall(fam.graph.size, fam.graph.edges)
    assert all(
        sp.d(i, j) == fw[i][j] for i in range(sp.size) for j in range(sp.size)
    )


def test_apsp_disconnected_names_pair():
    g = WeightedGraph(tuple(PointId(i) for i in range(3)), ((0, 1, F(1)),))
    with pytest.raises(DisconnectedGraphError) as exc:
        apsp(g)
    assert 2 in exc.value.pair


def test_verify_metric_on_generator_output():
    for fam in (diamond(2, diamond_weighting()), laakso(1, laakso_weighting())):
        assert verify_metric(apsp(fam.graph)).valid


def test_verify_metric_triangle_violation():
    sp = MetricSpace(
        (
            (F(0), F(1), F(3)),
            (F(1), F(0), F(1)),
            (F(3), F(1), F(0)),
        )
    )
    report = verify_metric(sp)
    assert not report.valid
    kinds = {v.kind for v in report.violations}
    assert kinds == {"triangle"}
    assert any(v.where == (0, 2, 1) for v in report.violations)


def test_verify_metric_identity_violation():
    sp = MetricSpace(((F(0), F(0)), (F(0), F(0))))
    report = verify_metric(sp)
    assert not report.valid
    assert any(v.kind == "identity" for v in report.violations)


def test_geodesics_d1_and_d2():
    f1 = diamond(1, diamond_weighting())
    paths = enumerate_geodesic_paths(f1.graph, f1.source, f1.sink)
    assert len(paths) == 2
    # exhaustive search on D_2: one binary choice at the top quadrilateral
    # plus one per level-2 quadrilateral crossed, 2^3 in total
    f2 = diamond(2, diamond_weighting())
    assert len(enumerate_geodesic_paths(f2.graph, f2.source, f2.sink)) == 8


def test_geodesics_laakso_bubble():
    f1 = laakso(1, laakso_weighting())
    assert len(enumerate_geodesic_paths(f1.graph, 0, 1)) == 2


def test_geodesic_lengths_and_breakpoints():
    f2 = diamond(2, diamond_weighting())
    sp = apsp(f2.graph)
    for path in enumerate_geodesic_paths(f2.graph, f2.source, f2.sink, space=sp):
        assert path.length == sp.d(f2.source, f2.sink)
        assert path.breakpoints[0] == 0
        assert all(a < b for a, b in zip(path.breakpoints, path.breakpoints[1:]))
        for k, v in enumerate(path.vertices):
            assert sp.d(f2.source, v) == path.breakpoints[k]


def test_geodesic_cap():
    f2 = diamond(2, diamond_weighting())
    with pytest.raises(CapExceededError):
        enumerate_geodesic_paths(f2.graph, f2.source, f2.sink, cap=3)


def test_geodesic_same_endpoint_rejected():
    g = cycle(4)
    with pytest.raises(ValidationError):
        enumerate_geodesic_paths(g, 1, 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apsp_matches_floyd_warshall_and_is_metric(data):
    graph = random_connected_graph(data.draw)
    sp = apsp(graph)
    assert verify_metric(sp).valid
    fw = floyd_warshall(graph.size, graph.edges)
    for i in range(sp.size):
        for j in range(sp.size):
            assert sp.d(i, j) == fw[i][j]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_every_enumerated_path_is_shortest(data):
    graph = random_connected_graph(data.draw)
    sp = apsp(graph)
    u, v = 0, graph.size - 1
    if u == v:
        return
    for path in enumerate_geodesic_paths(graph, u, v, cap=10000, space=sp):
        assert path.length == sp.d(u, v)
        assert path.vertices[0] == u and path.vertices[-1] == v


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(
                    st.tuples(st.integers(-1, 6), st.integers(1, 3)), min_size=n, max_size=n
                ),
                min_size=n,
                max_size=n,
            ),
            st.booleans(),
            st.booleans(),
        )
    )
)
def test_verify_metric_matches_triple_loop(drawn):
    # random non-metrics: zero, negative and asymmetric entries and broken
    # triangles; `huge` moves the numerators onto object arrays
    entries, symmetric, huge = drawn
    n = len(entries)
    scale = F(10**20) if huge else F(1)
    rows = [[F(a, b) * scale for a, b in row] for row in entries]
    if symmetric:
        rows = [[rows[min(i, j)][max(i, j)] if i != j else F(0) for j in range(n)] for i in range(n)]
    sp = MetricSpace(tuple(tuple(r) for r in rows))
    report = verify_metric(sp)
    expected = triple_metric_violations(sp)
    assert report.violations == expected
    assert report.valid == (not expected)
    assert all(type(x) is int for v in report.violations for x in v.where)
