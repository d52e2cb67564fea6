"""Core metric machinery: apsp, axiom verification, geodesic enumeration."""

import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from testspaces import metric_core
from testspaces.errors import CapExceededError, DisconnectedGraphError, ValidationError
from testspaces.generators import UNIT, cycle, diamond, diamond_weighting, laakso, laakso_weighting
from testspaces.metric_core import (
    INT64_MAX,
    TABLE_ENTRY_CAP,
    VIOLATION_CAP,
    GeodesicPath,
    MetricSpace,
    PointId,
    RationalTable,
    WeightedGraph,
    apsp,
    enumerate_geodesic_paths,
    path_graph,
    verify_metric,
)

from _oracles import (
    apsp_fraction_rows,
    flat_pair_hop_counts,
    floyd_warshall,
    geodesic_paths_fractions,
    restrict_rows,
    scaled_rows,
    triple_metric_violations,
)
from _strategies import (
    exact_positive_numbers,
    is_exact,
    numbers_of_every_kind,
    one_length_graph,
    one_length_graph_across_words,
    random_connected_graph,
)


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


def test_apsp_caps_the_table_before_searching():
    side = math.isqrt(TABLE_ENTRY_CAP)
    want = f"^the number of table entries for the graph exceeds cap {TABLE_ENTRY_CAP}$"
    with pytest.raises(CapExceededError, match=want):
        apsp(path_graph(side + 1))


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
    paths = enumerate_geodesic_paths(f1.graph, f1.source, f1.sink, f1.metric_space())
    assert len(paths) == 2
    # exhaustive search on D_2: one binary choice at the top quadrilateral
    # plus one per level-2 quadrilateral crossed, 2^3 in total
    f2 = diamond(2, diamond_weighting())
    assert len(enumerate_geodesic_paths(f2.graph, f2.source, f2.sink, f2.metric_space())) == 8


def test_geodesics_laakso_bubble():
    f1 = laakso(1, laakso_weighting())
    assert len(enumerate_geodesic_paths(f1.graph, 0, 1, f1.metric_space())) == 2


def test_geodesic_lengths_and_breakpoints():
    f2 = diamond(2, diamond_weighting())
    sp = apsp(f2.graph)
    for path in enumerate_geodesic_paths(f2.graph, f2.source, f2.sink, sp):
        assert path.length == sp.d(f2.source, f2.sink)
        assert path.breakpoints[0] == 0
        assert all(a < b for a, b in zip(path.breakpoints, path.breakpoints[1:]))
        for k, v in enumerate(path.vertices):
            assert sp.d(f2.source, v) == path.breakpoints[k]


def _geodesics_as_pairs(graph, u, v, space):
    paths = enumerate_geodesic_paths(graph, u, v, space)
    assert all(type(b) is F for path in paths for b in path.breakpoints)
    return [(path.vertices, path.breakpoints) for path in paths]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_geodesics_match_the_fraction_search(data):
    graph = random_connected_graph(data.draw)
    sp = apsp(graph)
    u = data.draw(st.integers(0, graph.size - 1))
    v = data.draw(st.integers(0, graph.size - 1).filter(lambda x: x != u))
    assert _geodesics_as_pairs(graph, u, v, sp) == geodesic_paths_fractions(graph, u, v, sp)


def test_geodesics_skip_edges_off_the_distance_scale():
    # distances are integers, so the edge of length 7/3 lies on no geodesic
    g = WeightedGraph(
        tuple(PointId(i) for i in range(3)), ((0, 1, F(1)), (1, 2, F(1)), (0, 2, F(7, 3)))
    )
    sp = apsp(g)
    assert sp.scale == 1
    want = [((0, 1, 2), (F(0), F(1), F(2)))]
    assert _geodesics_as_pairs(g, 0, 2, sp) == want == geodesic_paths_fractions(g, 0, 2, sp)
    for scale in (F(1, 3), F(2, 7)):
        scaled = WeightedGraph(g.vertices, tuple((a, b, w * scale) for a, b, w in g.edges))
        got = _geodesics_as_pairs(scaled, 0, 2, apsp(scaled))
        assert got == [((0, 1, 2), tuple(b * scale for b in want[0][1]))]


def test_geodesic_cap(monkeypatch):
    f2 = diamond(2, diamond_weighting())
    monkeypatch.setattr(metric_core, "GEODESIC_CAP", 8)  # D_2 has 8 source-sink geodesics
    assert len(enumerate_geodesic_paths(f2.graph, f2.source, f2.sink, f2.metric_space())) == 8
    monkeypatch.setattr(metric_core, "GEODESIC_CAP", 7)
    want = f"^the number of geodesics between {f2.source} and {f2.sink} exceeds cap 7$"
    with pytest.raises(CapExceededError, match=want):
        enumerate_geodesic_paths(f2.graph, f2.source, f2.sink, f2.metric_space())


def test_geodesics_refuse_another_graphs_table():
    # the 4-path's table on C_4 gave the path 0-1-2-3, though d(0, 3) = 1
    # in C_4; on C_5 it leaked an IndexError
    table = apsp(path_graph(4))
    with pytest.raises(ValidationError, match="an edge is shorter than its ends' distance"):
        enumerate_geodesic_paths(cycle(4), 0, 3, table)
    with pytest.raises(ValidationError, match="distance table has 4 points, the graph 5"):
        enumerate_geodesic_paths(cycle(5), 0, 3, table)
    # the right graph's table at twice the distances
    scaled = apsp(cycle(4)).scaled(2)
    with pytest.raises(ValidationError, match="shorter"):
        enumerate_geodesic_paths(cycle(4), 0, 2, scaled)
    # tables below the graph's distances, which no edge undercuts
    for low in (apsp(cycle(4)).scaled(F(1, 2)), MetricSpace(np.zeros((4, 4), dtype=np.int64))):
        with pytest.raises(ValidationError, match="row 0 is not the distances from 0"):
            enumerate_geodesic_paths(cycle(4), 0, 2, low)
    # C_6 with d(0, 4) = 4: each vertex has a tight in-arc in row 0 and no
    # edge undercuts, but the arc 5 -> 4 shortcuts the row
    num = apsp(cycle(6)).num.copy()
    num[0, 4] = num[4, 0] = 4
    with pytest.raises(ValidationError, match="row 0 is not the distances from 0"):
        enumerate_geodesic_paths(cycle(6), 0, 4, MetricSpace(num))
    paths = enumerate_geodesic_paths(cycle(4), 0, 2, apsp(cycle(4)))
    assert [(p.vertices, p.ticks, p.scale) for p in paths] == [
        ((0, 1, 2), (0, 1, 2), 1),
        ((0, 3, 2), (0, 1, 2), 1),
    ]


def test_geodesic_same_endpoint_rejected():
    g = cycle(4)
    with pytest.raises(ValidationError):
        enumerate_geodesic_paths(g, 1, 1, apsp(g))


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
    assert sp.dist == apsp_fraction_rows(graph)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apsp_on_one_edge_length_matches_the_oracles(data):
    graph = one_length_graph(data.draw)
    sp = apsp(graph)
    fw = floyd_warshall(graph.size, graph.edges)
    assert sp.dist == tuple(map(tuple, fw)) == apsp_fraction_rows(graph)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apsp_on_one_edge_length_names_the_first_unreachable_pair(data):
    graph = one_length_graph(data.draw, connected=False)
    fw = floyd_warshall(graph.size, graph.edges)
    unreachable = [(i, j) for i in range(graph.size) for j in range(graph.size) if fw[i][j] is None]
    if not unreachable:
        assert apsp(graph).dist == tuple(map(tuple, fw))
        return
    with pytest.raises(DisconnectedGraphError) as exc:
        apsp(graph)
    assert exc.value.pair == unreachable[0]


def _check_packed_search(graph):
    """apsp on a one-length graph gives the flat-pair sweep's hop counts
    times the length, and Floyd-Warshall's distances, in int64; or it
    raises for the first pair that both oracles find unreachable."""
    n, hops = graph.size, flat_pair_hop_counts(graph)
    fw = floyd_warshall(n, graph.edges)
    missed = [tuple(p) for p in np.argwhere(hops < 0).tolist()]
    assert missed == [(i, j) for i in range(n) for j in range(n) if fw[i][j] is None]
    if missed:
        with pytest.raises(DisconnectedGraphError) as exc:
            apsp(graph)
        assert exc.value.pair == missed[0]
        return
    sp = apsp(graph)
    length = graph.edges[0][2] if graph.edges else 1
    assert sp.num.dtype == np.int64
    assert sp.dist == tuple(tuple(h * length for h in row) for row in hops.tolist()) == tuple(map(tuple, fw))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_search_matches_the_flat_pair_sweep_across_words(data):
    _check_packed_search(one_length_graph_across_words(data.draw, connected=data.draw(st.booleans())))


def _path_with_isolated(n, isolated):
    """P_n's edges that avoid the isolated vertices, one length 1/3."""
    edges = tuple((i, i + 1, F(1, 3)) for i in range(n - 1) if not {i, i + 1} & set(isolated))
    return WeightedGraph(tuple(PointId(i) for i in range(n)), edges)


@pytest.mark.parametrize(
    "graph",
    [
        path_graph(256),  # diameter 255: 8 planes, the widest uint8 table
        path_graph(257),  # diameter 256: the 9th plane
        path_graph(300),
        _path_with_isolated(300, [0]),  # source 0 reaches nothing: (0, 1)
        _path_with_isolated(129, [64]),  # the first bit of the second word
        _path_with_isolated(129, [128]),  # the last source, alone in its word
        _path_with_isolated(65, range(65)),  # edgeless across a word boundary
    ],
    ids=["P256", "P257", "P300", "P300-0", "P129-64", "P129-128", "edgeless-65"],
)
def test_packed_search_on_long_paths_and_isolated_vertices(graph):
    _check_packed_search(graph)


@pytest.mark.parametrize(
    "length", [0.5, 1.0, -0.0, math.nan, math.inf, -math.inf, True, False, np.int64(1), "1", None]
)
def test_graph_refuses_inexact_edge_lengths(length):
    """A float, a bool or any other length that is not an int or Fraction is
    refused at construction with its edge, not left to fail in apsp or the
    geodesic search."""
    vertices = tuple(PointId(i) for i in range(3))
    with pytest.raises(ValidationError, match=r"^edge \(2,1\) has length .*, not an int or Fraction$"):
        WeightedGraph(vertices, ((0, 1, F(1, 2)), (2, 1, length)))


@pytest.mark.parametrize("end", [1.0, 1.5, True, np.int64(1), "1"])
def test_graph_refuses_endpoints_that_are_not_ints(end):
    # the CSR table holds integer vertices, so a float end would be truncated
    with pytest.raises(ValidationError, match=r"^edge \(2,.*\) out of range$"):
        WeightedGraph(tuple(PointId(i) for i in range(3)), ((0, 2, 1), (2, end, 1)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_graph_lengths_round_trip_through_the_table_or_are_refused(data):
    """Exact positive lengths (past int64, denominators up to 3^40), one of
    them perhaps replaced by a number of any kind: the graph is refused with
    a ValidationError exactly when some length is not an exact positive
    number; otherwise every length comes back from the CSR table, each
    row's targets increase, and apsp matches the Fraction Dijkstra."""
    shape = random_connected_graph(data.draw)
    edges = [(u, v, data.draw(exact_positive_numbers())) for u, v, _ in shape.edges]
    if data.draw(st.booleans()):
        k = data.draw(st.integers(0, len(edges) - 1))
        edges[k] = edges[k][:2] + (data.draw(numbers_of_every_kind()),)
    exact = all(is_exact(w) and w > 0 for _, _, w in edges)
    try:
        graph = WeightedGraph(shape.vertices, tuple(edges))
    except ValidationError:
        assert not exact
        return
    assert exact
    indptr, targets = graph.indptr.tolist(), graph.targets.tolist()
    assert indptr[-1] == 2 * len(edges)
    for u in range(graph.size):
        row = targets[indptr[u] : indptr[u + 1]]
        assert row == sorted(set(row))
    for u, v, w in edges:
        for a, b in ((u, v), (v, u)):
            k = indptr[a] + targets[indptr[a] : indptr[a + 1]].index(b)
            assert F(int(graph.lengths[k]), graph.scale) == w
    assert apsp(graph).dist == apsp_fraction_rows(graph)


def test_apsp_edgeless_pair_is_disconnected():
    with pytest.raises(DisconnectedGraphError) as exc:
        apsp(WeightedGraph((PointId(0), PointId(1)), ()))
    assert exc.value.pair == (0, 1)
    single = apsp(WeightedGraph((PointId(0, "a"),), ()))
    assert single.num.tolist() == [[0]] and single.scale == 1 and single.labels == ("a",)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_every_enumerated_path_is_shortest(data):
    graph = random_connected_graph(data.draw)
    sp = apsp(graph)
    u, v = 0, graph.size - 1
    if u == v:
        return
    for path in enumerate_geodesic_paths(graph, u, v, sp):
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
    assert not report.truncated
    assert all(type(x) is int for v in report.violations for x in v.where)


def test_verify_metric_caps_violations_at_a_prefix():
    # random distances on 30 points break the triangle inequality far more
    # than VIOLATION_CAP times; the report lists the oracle's first ones
    rng = random.Random(3)
    n = 30
    rows = [[0 if i == j else rng.randint(1, 50) for j in range(n)] for i in range(n)]
    sp = MetricSpace(rows)
    expected = triple_metric_violations(sp)
    assert len(expected) > VIOLATION_CAP
    report = verify_metric(sp)
    assert not report.valid and report.truncated
    assert report.violations == tuple(expected[:VIOLATION_CAP])


@pytest.mark.parametrize("block", [1, 300, metric_core.TRIANGLE_BLOCK])
def test_verify_metric_screen_reaches_the_last_block(monkeypatch, block):
    # 300 triples are blocks of 3 rows on 10 points, the last one holding
    # row 9 alone; only row 9 is broken, since raising d(9, 0) lengthens
    # every other row's detours through 9
    rows = apsp(cycle(10)).num.tolist()
    rows[9][0] = 6
    sp = MetricSpace(rows)
    monkeypatch.setattr(metric_core, "TRIANGLE_BLOCK", block)
    report = verify_metric(sp)
    expected = triple_metric_violations(sp)
    assert report.violations == expected
    assert {v.where[0] for v in expected if v.kind == "triangle"} == {9}


def test_verify_metric_screen_passes_a_negative_diagonal():
    # d(2, 2) < 0 gives every row a detour through k = 2 shorter than the
    # direct distance, which the screen flags, but no triangle with
    # distinct points is broken: the report has the identity entry alone
    rows = apsp(cycle(6)).num.tolist()
    rows[2][2] = -1
    sp = MetricSpace(rows)
    report = verify_metric(sp)
    assert report.violations == triple_metric_violations(sp)
    assert [v.kind for v in report.violations] == ["identity"]


def test_verify_metric_screens_object_tables():
    # twice 10^19 exceeds int64: the numerators are Python ints
    rows = [[x * 10**19 for x in row] for row in apsp(cycle(7)).num.tolist()]
    rows[3][5] = rows[5][3] = 3 * 10**19
    rows[0][0] = 1
    sp = MetricSpace(rows)
    assert sp.num.dtype == object
    report = verify_metric(sp)
    expected = triple_metric_violations(sp)
    assert report.violations == expected
    assert {v.kind for v in expected} == {"identity", "triangle"}
    assert verify_metric(MetricSpace(apsp(cycle(7)).num.astype(object) * 10**19)).valid


def test_verify_metric_stops_a_large_broken_table_at_the_cap():
    # random distances on 400 points: row 0 alone breaks the triangle
    # inequality more than VIOLATION_CAP times
    rng = random.Random(7)
    n = 400
    upper = [[rng.randint(1, 50) for _ in range(n)] for _ in range(n)]
    rows = [[0 if i == j else upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    sp = MetricSpace(rows)
    report = verify_metric(sp)
    assert not report.valid and report.truncated
    assert report.violations == triple_metric_violations(sp, VIOLATION_CAP)


def test_verify_metric_peak_on_a_valid_table():
    # D_4, 172 points: the numerator table's transpose (237 KB), the
    # distinct mask (30 KB) and one block's screen; the pass that
    # enumerated every block peaked at 642 KB
    sp = apsp(diamond(4).graph)
    tracemalloc.start()
    try:
        assert verify_metric(sp).valid
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600_000


_ENTRY = st.one_of(
    st.integers(0, 9),
    st.builds(F, st.integers(-3, 30), st.integers(1, 12)),
    # both sides of the int64 boundary for twice the largest numerator
    st.integers(INT64_MAX // 2 - 2, INT64_MAX // 2 + 2),
    st.builds(F, st.integers(1, 5), st.sampled_from([3**40, 2**70])),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.integers(0, n - 1), max_size=n + 1),
            st.builds(F, st.integers(1, 2**64), st.integers(1, 40)),
            st.integers(1, 2**40),
        )
    )
)
@example(([[0]], [], F(2**63), 1))  # an all-zero table times a factor beyond int64
def test_representation_matches_fraction_tables(drawn):
    table, idx, factor, k = drawn
    rows = tuple(tuple(F(x) for x in row) for row in table)
    labels = tuple(f"p{i}" for i in range(len(rows)))
    sp = MetricSpace(table, 1, labels)

    # one integer table in lowest terms, int64 exactly when 2 max|num| fits
    nums = sp.num.ravel().tolist()
    assert sp.num.shape == (len(rows), len(rows)) and not sp.num.flags.writeable
    assert math.gcd(sp.scale, *nums) == 1
    assert sp.num.dtype == (np.int64 if 2 * max(map(abs, nums)) <= INT64_MAX else object)

    # the Fraction and float views
    assert sp.dist == rows
    assert all(type(x) is F for row in sp.dist for x in row)
    assert [sp.d(i, j) for i in range(sp.size) for j in range(sp.size)] == [x for r in rows for x in r]
    assert sp.floats().tolist() == [[float(x) for x in row] for row in rows]

    sub, big = sp.restrict(idx), sp.scaled(factor)
    assert (sub.dist, sub.labels) == (restrict_rows(rows, idx), tuple(labels[i] for i in idx))
    assert (big.dist, big.labels) == (scaled_rows(rows, factor), labels)

    # equality is by value: non-reduced numerators, on either side of the
    # int64 boundary, are brought to the same lowest terms
    same = MetricSpace(sp.num.astype(object) * k, sp.scale * k, labels)
    assert same == sp and same.num.dtype == sp.num.dtype
    assert (big == sp) == (factor == 1 or not any(nums))
    assert MetricSpace(sp.num, sp.scale) != sp


@st.composite
def _table_over_a_scale(draw):
    """Integer rows and a scale: the scale is 1 or shares a factor with row
    0 alone, with every row or with none; row 0 or every row may be zero,
    and entries may lie past int64 (an object array)."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = st.lists(st.integers(-40, 40), min_size=rows * cols, max_size=rows * cols)
    table = np.array(draw(entries), dtype=object).reshape(rows, cols)
    factor = draw(st.sampled_from((2, 3, 6, 2**62)))
    scale = draw(st.just(1) | st.sampled_from((factor, 5 * factor, 7)) | st.integers(2, 10**4))
    shared = draw(st.sampled_from(("row 0", "every row", "none", "row 0 zero", "all zero")))
    if shared == "row 0":
        table[0] *= factor
    elif shared == "every row":
        table *= factor
    elif shared == "row 0 zero":
        table[0] = 0
    elif shared == "all zero":
        table[:] = 0
    if draw(st.booleans()):
        table *= 2**70
    return table, scale


@settings(max_examples=300, deadline=None)
@given(_table_over_a_scale())
@example((np.array([[0, 0], [4, 6]], dtype=object), 4))  # row 0 zero: the whole table decides
@example((np.array([[4, 6], [3, 9]], dtype=object), 6))  # a factor of the scale on row 0 alone
@example((np.array([[2**71, 0], [2**70, 2**72]], dtype=object), 2**80))  # object dtype
def test_table_reduction_stops_early_as_the_full_reduction_would(case):
    """The constructor tries the whole table's gcd only for a factor that
    the scale shares with row 0, and lands on the numerators and scale of
    reducing by gcd(scale, every entry)."""
    rows, scale = case
    g = math.gcd(scale, *rows.ravel().tolist())
    want = rows // g if rows.any() else rows
    table = RationalTable(rows, scale)
    assert (table.num.tolist(), table.scale) == (want.tolist(), scale // g)
    assert table.num.dtype == (np.int64 if max(map(abs, want.ravel().tolist())) <= INT64_MAX else object)


def test_read_only_tables_are_shared_and_writeable_ones_copied():
    table = np.array([[0, 2], [2, 0]], dtype=np.int64)
    copied = MetricSpace(table)
    assert not np.shares_memory(copied.num, table)
    table[0, 1] = table[1, 0] = 5  # a later write by the caller misses the space
    assert copied.d(0, 1) == 2
    table.flags.writeable = False
    assert np.shares_memory(MetricSpace(table).num, table)
    # a read-only view of a table the caller can still write is copied too
    base = np.array([[0, 3], [3, 0]], dtype=np.int64)
    view = base[:]
    view.flags.writeable = False
    viewed = MetricSpace(view)
    base[0, 1] = 7
    assert viewed.d(0, 1) == 3
    # the library's tables are read-only, so spaces built on them share them
    for space in (apsp(cycle(5)), diamond(2, UNIT).metric_space(), laakso(1, laakso_weighting()).metric_space()):
        for derived in (space, space.restrict(range(3)), space.scaled(F(2, 3))):
            assert np.shares_memory(MetricSpace(derived.num, derived.scale).num, derived.num)


def test_row_tables_refuse_floats_ragged_and_oblong_rows():
    with pytest.raises(ValidationError):
        MetricSpace(((0, 0.5), (0.5, 0)))
    with pytest.raises(ValidationError):
        MetricSpace(((0, 1), (1,)))
    with pytest.raises(ValidationError, match="square"):
        MetricSpace(((0, 1, 2), (1, 0, 3)))


def test_labels_are_one_str_or_none_per_point():
    # a short label tuple was accepted, and restrict then raised a bare
    # IndexError; int labels and a list passed too
    rows = ((0, 1), (1, 0))
    want = "^labels must be None or a tuple of 2 strs or Nones, one per point$"
    for labels in (("a",), ("a", "b", "c"), (3, 4), ["a", "b"], ("a", 4), "ab"):
        with pytest.raises(ValidationError, match=want):
            MetricSpace(rows, 1, labels)
    for labels in (None, ("a", "b"), ("a", None), (None, None)):
        sp = MetricSpace(rows, 1, labels)
        assert sp.labels == labels
        assert sp.restrict([1]).labels == (None if labels is None else labels[1:])


def test_object_tables_are_converted_exactly_or_refused():
    # a MetricSpace and an Embedding read an object table by one rule: exact
    # entries (int, Fraction, bool) give their exact value back, floats are
    # refused by the space and kept by the embedding, anything else is refused
    from testspaces.embeddings import Embedding, NormedTarget

    half, big = F(1, 2), 2**70
    exact = {
        "fractions": [[F(0), half], [half, F(0)]],
        "past int64": [[0, big], [big, 0]],
        "big fractions": [[F(0), F(big, 3)], [F(big, 3), F(0)]],
        "bools": [[False, True], [True, False]],
    }
    for name, rows in exact.items():
        table = np.array(rows, dtype=object)
        want = tuple(tuple(F(x) for x in row) for row in rows)
        assert MetricSpace(table).dist == want, name
        assert MetricSpace(table) == MetricSpace(rows), name
        assert Embedding(MetricSpace(table), table, NormedTarget("l1", 2)).vectors == want, name
    for value in (0.5, float("nan"), float("inf")):
        table = np.array([[0.0, value], [value, 0.0]], dtype=object)
        with pytest.raises(ValidationError):
            MetricSpace(table)
    floats = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=object)
    assert Embedding(MetricSpace(exact["fractions"]), floats, NormedTarget("l2", 2)).vectors == ((0.0, 0.5), (0.5, 0.0))
    for rows in ([[0, 0.5], [F(1, 2), 0]], [[0, np.int64(1)], [1, 0]], [[0, "1"], ["1", 0]]):
        with pytest.raises(ValidationError, match="all exact"):
            MetricSpace(np.array(rows, dtype=object))
    for table in (np.eye(2, dtype=bool), np.zeros((2, 3), dtype=np.int64)):
        with pytest.raises(ValidationError):
            MetricSpace(table)
