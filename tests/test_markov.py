"""Markov convexity: exact DP vs oracles, Monte Carlo agreement, built-in walks."""

import dataclasses
import itertools
import math
import random
import statistics
import tracemalloc
import types
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from testspaces import markov
from testspaces.errors import CapExceededError, ValidationError
from testspaces.generators import UNIT, diamond, diamond_weighting, gadget_sides, laakso, laakso_weighting
from testspaces.markov import (
    MarkovChain,
    MetricMap,
    downhill_walk,
    downward_tree_walk,
    exact_convexity,
    lazy_path_walk,
    mc_convexity,
    tree_walk_convexity_exact,
    tree_walk_convexity_mc,
)
from testspaces.metric_core import TABLE_ENTRY_CAP, MetricSpace, WeightedGraph, apsp, path_graph

from _oracles import (
    chain_from_rows,
    dense_exact_convexity,
    downhill_walk_rows,
    lazy_path_walk_rows,
    linear_move,
    linear_sim_tables,
    mc_convexity_per_term,
    mc_convexity_whole_block,
    tree_walk_convexity_f_table,
    tree_walk_convexity_mc_per_term,
    tree_walk_convexity_mc_whole_block,
    tree_walk_m1_exact,
    tree_walk_rows,
)
from _strategies import is_exact, numbers_of_every_kind, random_connected_graph


def _rows(chain):
    """Row u of a chain as {v: P(u, v)}, read from its CSR table."""
    return [
        {int(chain.targets[k]): F(int(chain.weights[k]), chain.D) for k in range(a, b)}
        for a, b in itertools.pairwise(chain.indptr.tolist())
    ]


def test_chain_validation():
    half = F(1, 2)
    bad_first_rows = [
        ("sum to 1", ((0, F(1, 2)), (1, F(1, 3)))),
        ("range", ((0, half), (2, half))),  # target out of range
        ("range", ((-1, half), (0, half))),  # negative target
        ("increase", ((0, half), (0, half))),  # repeated target
        ("increase", ((1, half), (0, half))),  # decreasing targets
        ("non-positive", ((0, F(0)), (1, F(1)))),  # zero probability
        ("non-positive", ((0, F(-1, 2)), (1, F(3, 2)))),  # negative probability
        ("sum to 1", ()),  # empty row
    ]
    for match, row in bad_first_rows:
        with pytest.raises(ValidationError, match=match):
            chain_from_rows((row, ((1, F(1)),)), 0, 2)
    with pytest.raises(ValidationError, match="horizon"):
        chain_from_rows((((0, F(1)),),), 0, 0)
    with pytest.raises(ValidationError, match="start"):
        chain_from_rows((((0, F(1)),),), 1, 1)
    chain = chain_from_rows((((0, 1),),), 0, 1)  # an int is exact
    assert (chain.targets.tolist(), chain.weights.tolist(), chain.D) == ([0], [1], 1)


# a two-state chain: state 0 moves to 0 and 1 with 1/2 each, state 1 is absorbing
_CSR = dict(indptr=[0, 2, 3], targets=[0, 1, 1], weights=[1, 1, 2], D=2, start=0, horizon=1)


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(indptr=[0, 2, 1, 3]), "indptr must rise from 0 to len(targets) = len(weights)"),
        (dict(indptr=[1, 2, 3]), "indptr must rise from 0 to len(targets) = len(weights)"),
        (dict(indptr=[0, 2, 2]), "indptr must rise from 0 to len(targets) = len(weights)"),
        (dict(indptr=[0.0, 2.0, 3.0]), "indptr must rise from 0 to len(targets) = len(weights)"),
        (dict(weights=[0.5, 0.5, 1.0], D=1), "weights and D must be integers"),
        (dict(D=True), "weights and D must be integers"),
        (dict(D=2.0), "weights and D must be integers"),
        (dict(targets=[0, 2, 1]), "targets of row 0 must increase within range(2)"),
        (dict(targets=[0, 1, -1]), "targets of row 1 must increase within range(2)"),
        (dict(targets=[1, 1, 1]), "targets of row 0 must increase within range(2)"),
        (dict(weights=[1, 2, 2]), "row 0 does not sum to 1 exactly"),
        (dict(weights=[1, 1, 1]), "row 1 does not sum to 1 exactly"),
        (dict(weights=[0, 2, 2]), "non-positive probability in row 0"),
        (dict(weights=[1, 1, 2, 1]), "indptr must rise from 0 to len(targets) = len(weights)"),
        (dict(targets=[[0, 1, 1]]), "targets of row 0 must increase within range(2)"),
        (dict(weights=[[1, 1, 2]]), "weights and D must be integers"),
        (dict(start=2), "start state out of range"),
        (dict(horizon=0), "horizon must be >= 1"),
        # accepted before, these made exact_convexity and mc_convexity raise TypeError
        *[(dict(start=bad), "start and horizon must be ints") for bad in (0.5, 2.5, True, F(1))],
        *[(dict(horizon=bad), "start and horizon must be ints") for bad in (0.5, 2.5, True, F(1))],
    ],
)
def test_chain_table_refusals(change, message):
    """The constructor refuses a malformed CSR table, naming what is wrong."""
    with pytest.raises(ValidationError) as exc:
        MarkovChain(**{**_CSR, **change})
    assert str(exc.value) == message


def test_chain_table_is_a_read_only_copy():
    indptr, weights = np.array([0, 2, 3]), np.array([1, 1, 2], dtype=object) * 2**70
    chain = MarkovChain(indptr, [0, 1, 1], weights, 2**71, 0, 1)
    assert not any(np.shares_memory(a, b) for a, b in ((chain.indptr, indptr), (chain.weights, weights)))
    assert not any(a.flags.writeable for a in (chain.indptr, chain.targets, chain.weights))
    assert chain.weights.dtype == object and chain.n_states == 2


def _table(chain):
    """Every field of a chain, with the dtype of each array."""
    arrays = (chain.indptr, chain.targets, chain.weights)
    return [(a.tolist(), a.dtype) for a in arrays] + [chain.D, chain.start, chain.horizon]


_FAMILIES = {"diamond": (diamond, diamond_weighting, 4), "laakso": (laakso, laakso_weighting, 3)}
_WALK_CASES = [
    *(("tree", m, None) for m in (1, 2, 3)),
    *(("lazy", T, None) for T in range(1, 21)),
    *(
        (f"{name}-{weighting}", n, horizon)
        for name, (_, _, levels) in _FAMILIES.items()
        for weighting in ("unit", "scaled")
        for n in range(1, levels + 1)
        for horizon in (None, 1, 2, 3)
    ),
]


@pytest.mark.parametrize("walk, n, horizon", _WALK_CASES)
def test_built_in_walk_tables_equal_their_fraction_rows(walk, n, horizon):
    """Each built-in walk's integer table is, field for field and dtype for
    dtype, the one its Fraction rows convert to."""
    if walk == "tree":
        wb, rows = downward_tree_walk(n), tree_walk_rows(n)
    elif walk == "lazy":
        wb, rows = lazy_path_walk(n), lazy_path_walk_rows(n)
    else:
        name, weighting = walk.split("-")
        maker, scaled, _ = _FAMILIES[name]
        family = maker(n, UNIT if weighting == "unit" else scaled())
        wb, rows = downhill_walk(family, horizon), downhill_walk_rows(family)
    want = chain_from_rows(rows, wb.chain.start, wb.chain.horizon)
    assert _table(wb.chain) == _table(want)


@pytest.mark.parametrize(
    "row", [((0, 0.5), (1, 0.5)), ((0, True),), ((0, F(1, 2)), (1, "1/2"))]
)
def test_chain_rejects_inexact_probabilities(row):
    """Floats, bools and other non-Fractions are rejected with their row,
    not left to fail inside an estimator."""
    with pytest.raises(ValidationError, match="row 1 has a probability that is not"):
        chain_from_rows((((0, F(1)),), row), 0, 2)


def _two_point_space():
    return MetricSpace(((F(0), F(1)), (F(1), F(0))))


_HALF_CHAIN = chain_from_rows((((0, F(1, 2)), (1, F(1, 2))), ((0, F(1, 2)), (1, F(1, 2)))), 0, 3)
_ESTIMATORS = {
    "exact": lambda chain, mmap, space: exact_convexity(chain, mmap, space, 2),
    "mc": lambda chain, mmap, space: mc_convexity(chain, mmap, space, 2.0, seed=1, samples=10),
}


@pytest.mark.parametrize("estimator", sorted(_ESTIMATORS))
@pytest.mark.parametrize(
    "points, match",
    [((0,), "cover"), ((0, 1, 0), "cover"), ((0, -1), "range"), ((0, 2), "range")],
)
def test_metric_map_is_checked(estimator, points, match):
    """Both estimators reject a map that misses a state or leaves the space
    (a negative point would otherwise index from the end)."""
    with pytest.raises(ValidationError, match=match):
        _ESTIMATORS[estimator](_HALF_CHAIN, MetricMap(points), _two_point_space())


@pytest.mark.parametrize("points", [(0, 1.0), (0, F(1)), (3.5, 0), (0, True), (False, 1)])
def test_metric_map_refuses_non_ints(points):
    """A float, Fraction or bool point is refused when the map is built,
    not left to fail as an index inside an estimator."""
    with pytest.raises(ValidationError, match="must be ints"):
        MetricMap(points)


@settings(max_examples=200, deadline=None)
@given(st.lists(numbers_of_every_kind() | st.integers(0, 1), min_size=1, max_size=3))
def test_metric_map_entries_of_every_kind(points):
    """Floats (NaN and +-inf too), Fractions and bools are refused at
    construction; ints, past int64 too, build a map that both estimators
    accept or refuse by range and cover, never with another error."""
    if not all(type(x) is int for x in points):
        with pytest.raises(ValidationError, match="must be ints"):
            MetricMap(tuple(points))
        return
    mmap = MetricMap(tuple(points))
    for estimator in _ESTIMATORS.values():
        if len(points) == 2 and all(0 <= x < 2 for x in points):
            estimator(_HALF_CHAIN, mmap, _two_point_space())
        else:
            with pytest.raises(ValidationError, match="cover|range"):
                estimator(_HALF_CHAIN, mmap, _two_point_space())


def test_constant_map_gives_zero():
    chain = chain_from_rows((((0, F(1, 2)), (1, F(1, 2))), ((0, F(1, 2)), (1, F(1, 2)))), 0, 3)
    space = _two_point_space()
    est = exact_convexity(chain, MetricMap((0, 0)), space, 2)
    assert est.lhs == 0 and est.rhs == 0
    assert est.pi_lower is None
    mc = mc_convexity(chain, MetricMap((0, 0)), space, 2.0, seed=1, samples=50)
    assert mc.lhs == 0 and mc.rhs == 0


def test_absorbing_start_gives_zero():
    chain = chain_from_rows((((0, F(1)),), ((1, F(1)),)), 0, 4)
    est = exact_convexity(chain, MetricMap((0, 1)), _two_point_space(), 2)
    assert est.lhs == 0 and est.rhs == 0


def test_downward_walk_m1_matches_enumeration_oracle():
    oracle_lhs, oracle_rhs = tree_walk_m1_exact(2)
    assert oracle_lhs == F(27, 4) and oracle_rhs == 2
    wb = downward_tree_walk(1)
    est = exact_convexity(_caller_built(wb.chain), wb.metric_map, wb.space, 2)  # the DP
    assert est.lhs == oracle_lhs and est.rhs == oracle_rhs
    ana = tree_walk_convexity_exact(1, 2)
    assert ana.lhs == oracle_lhs and ana.rhs == oracle_rhs


@pytest.mark.parametrize("m", [1, 2, 3])
def test_analytic_equals_explicit(m):
    # the DP on a caller-built copy of the tree walk's chain; the walk's own
    # bundle records the walk, so it is answered by the renewal sums
    wb = downward_tree_walk(m)
    explicit = exact_convexity(_caller_built(wb.chain), wb.metric_map, wb.space, 2)
    analytic = tree_walk_convexity_exact(m, 2)
    assert explicit.lhs == analytic.lhs
    assert explicit.rhs == analytic.rhs
    assert explicit.method.kind == "exactDP"
    assert repr(exact_convexity(wb.chain, wb.metric_map, wb.space, 2)) == repr(analytic)


def test_downward_walk_cap_instructs_analytic_mode():
    assert downward_tree_walk(3).space.size == 511
    # T_16 has 131071 vertices: its distance table would pass TABLE_ENTRY_CAP;
    # T_16384's vertex count has more digits than an int may print
    for m in (4, 14):
        want = (
            rf"^the number of table entries for T_2\^{m} \(use the analytic mode, "
            rf"tree_walk_convexity_exact / _mc\) exceeds cap {TABLE_ENTRY_CAP}$"
        )
        with pytest.raises(CapExceededError, match=want) as exc:
            downward_tree_walk(m)
        assert "analytic" in str(exc.value)


def _caller_built(chain):
    """A copy of a built-in walk's chain, as a caller would build it: it
    carries no record of the walk, so exact_convexity runs the DP on it."""
    return MarkovChain(chain.indptr, chain.targets, chain.weights, chain.D, chain.start, chain.horizon)


def test_exact_dp_caps_its_bit_work(monkeypatch):
    # lazy walk on 0..2: R = 3 points, L = bitlen(2) = 2, T = 2, K = 1, D = 2,
    # so b = p (L + K) + 2 T bitlen(D) = 14 at p = 2 and the work is 9 * 14
    wb = lazy_path_walk(2)
    chain = _caller_built(wb.chain)
    monkeypatch.setattr(markov, "DP_BIT_WORK_CAP", 126)
    exact_convexity(chain, wb.metric_map, wb.space, 2)
    monkeypatch.setattr(markov, "DP_BIT_WORK_CAP", 125)
    want = "^the number of bit operations of the exact DP on 3 points at horizon 2, p = 2 exceeds cap 125$"
    with pytest.raises(CapExceededError, match=want):
        exact_convexity(chain, wb.metric_map, wb.space, 2)
    monkeypatch.undo()
    # unit D_3 at p = 2e5, and a 1e6-bit power on three points, stop before any power is taken
    d3 = downhill_walk(diamond(3, UNIT))
    for walk, p in ((d3, 200_000), (wb, 10**6)):
        with pytest.raises(CapExceededError, match="^the number of bit operations of the exact DP on"):
            exact_convexity(_caller_built(walk.chain), walk.metric_map, walk.space, p)


def test_exact_dp_refuses_before_it_copies(monkeypatch):
    """The downhill walk reaches every point of scaled D_4, so the DP reads
    the space's own distance table: a refusal at the bit-work cap allocates
    far less than the table's bytes, where a copy would take all of them."""
    wb = downhill_walk(diamond(4, diamond_weighting()))
    chain = _caller_built(wb.chain)
    monkeypatch.setattr(markov, "DP_BIT_WORK_CAP", 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="on 172 points"):
            exact_convexity(chain, wb.metric_map, wb.space, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < wb.space.num.nbytes / 4


@pytest.mark.parametrize("p", [2, 4])
def test_downward_walk_lower_bounds(p):
    for m in range(1, 7):
        est = tree_walk_convexity_exact(m, p)
        assert est.rhs == 2**m
        assert est.lhs >= F(2) ** (p - 2) * m * 2**m
        assert est.lhs / est.rhs >= F(2) ** (p - 2) * m  # piLower >= 2^(1-2/p) m^(1/p)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7])
def test_tree_pass_matches_f_table_oracle(p):
    for m in range(1, 11):
        est = tree_walk_convexity_exact(m, p)
        assert (est.lhs, est.rhs) == tree_walk_convexity_f_table(m, p), m


def test_tree_pass_matches_f_table_oracle_at_large_p():
    est = tree_walk_convexity_exact(3, 2000)
    assert (est.lhs, est.rhs) == tree_walk_convexity_f_table(3, 2000)


def test_tree_pass_builds_no_term_table(monkeypatch):
    def no_table(T):
        raise AssertionError(f"split-time term table built for T = {T}")

    monkeypatch.setattr(markov, "_split_terms", no_table)
    est = tree_walk_convexity_exact(13, 2)
    assert est.rhs == 2**13
    assert est.pi_lower == pytest.approx(6.6242, abs=1e-4)


def test_tree_pass_caps_its_bit_work():
    # T (b + q^2 / 64) + b^2 / 64 with q = p (m + 1) and b = T + q, against
    # DP_BIT_WORK_CAP: 4.4e9 at m = 16, p = 2 and 1.7e10 at m = 17; the
    # largest p is 117 at m = 16, 237 at m = 15 and 214028 at m = 1
    for m, p in [(16, 117), (15, 237), (1, 214028)]:
        assert tree_walk_convexity_exact(m, p).rhs == 2**m
    refused = [(16, 118), (17, 2), (15, 238), (1, 214029), (13, 13122), (1, 2_000_000), (10**12, 2), (3, 10**9)]
    for m, p in refused:  # 2^m is never formed for m = 10^12
        want = rf"^the number of bit operations of the renewal sums of the tree walk at horizon 2\^{m}, p = {p} exceeds"
        with pytest.raises(CapExceededError, match=want):
            tree_walk_convexity_exact(m, p)


def test_mc_determinism():
    a = tree_walk_convexity_mc(2, 2.0, seed=5, samples=400)
    b = tree_walk_convexity_mc(2, 2.0, seed=5, samples=400)
    assert a.lhs == b.lhs and a.rhs == b.rhs
    wb = downhill_walk(diamond(1, diamond_weighting()))
    m1 = mc_convexity(wb.chain, wb.metric_map, wb.space, 2.0, seed=9, samples=500)
    m2 = mc_convexity(wb.chain, wb.metric_map, wb.space, 2.0, seed=9, samples=500)
    assert m1.lhs == m2.lhs and m1.rhs == m2.rhs


def test_mc_outputs_are_pinned():
    """Exact floats of both Monte Carlo estimators: each keeps its block
    substreams, draw order and accumulation order."""
    wb = downhill_walk(diamond(2, diamond_weighting()))
    est = mc_convexity(wb.chain, wb.metric_map, wb.space, 2.0, seed=9, samples=500)
    assert (est.lhs, est.rhs) == (0.57065625, 0.25)
    assert (est.method.lhs_stderr, est.method.rhs_stderr) == (0.01334633161188361, 0.0)
    est = tree_walk_convexity_mc(2, 2.0, seed=5, samples=400)
    assert (est.lhs, est.rhs) == (20.61, 4.0)
    assert (est.method.lhs_stderr, est.method.rhs_stderr) == (0.4646041851642971, 0.0)
    # out-degree 8; out-degree 16 with 41 of 172 states reachable; rows of
    # out-degree 1, 3 and 5 with moves of probability 1/10^20
    cases = [
        (downhill_walk(diamond(3, diamond_weighting())), 2.0),
        (downhill_walk(diamond(4, diamond_weighting()), horizon=3), 2.0),
        (_odd_degree_walk(), 1.5),
    ]
    pinned = [
        (0.389234375, 0.125, 0.005755137718915747, 0.0),
        (0.053513671875, 0.01171875, 0.0006651374201488729, 0.0),
        (19.47485820920055, 16.81826690822972, 0.3169074964708103, 0.26863612496144856),
    ]
    for (wb, p), want in zip(cases, pinned):
        est = mc_convexity(wb.chain, wb.metric_map, wb.space, p, seed=9, samples=500)
        assert (est.lhs, est.rhs, est.method.lhs_stderr, est.method.rhs_stderr) == want


def _odd_degree_walk() -> markov.WalkBundle:
    """Rows of out-degree 5, 3, 1, 3, 5 on the path P_5, two with a move of
    probability 1/10^20 (whose running sum rounds onto its neighbour's)."""
    tiny, q = F(1, 10**20), F(1, 4)
    rows = (
        ((0, tiny), (1, q), (2, q), (3, q), (4, q - tiny)),
        ((0, F(1, 3)), (2, F(1, 3)), (4, F(1, 3))),
        ((3, F(1)),),
        ((1, F(1, 2) - tiny), (2, tiny), (4, F(1, 2))),
        tuple((v, F(1, 5)) for v in range(5)),
    )
    return markov.WalkBundle(chain_from_rows(rows, 0, 6), MetricMap(tuple(range(5))), apsp(path_graph(5)))


@st.composite
def _chain_and_uniforms(draw):
    """A chain whose rows have out-degree 1..17 and probabilities down to
    1/10^20, and uniforms for a step of every state: some drawn at random,
    the rest equal to running sums of the linear stepper, so that ties with
    a sum are hit."""
    n = draw(st.integers(1, 20))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    tiny = (F(1, 10**20), F(1, 10**20 - 1), F(1, 3 * 10**19))
    rows = []
    for _ in range(n):
        deg = draw(st.integers(1, min(n, 17)))
        # probabilities of at most 1 / (4 deg) each but the last, some tiny
        small = [rnd.choice(tiny) if rnd.random() < 0.3 else F(rnd.randint(1, 50), 200 * deg) for _ in range(deg - 1)]
        rows.append(tuple(zip(sorted(rnd.sample(range(n), deg)), [*small, 1 - sum(small, F(0))])))
    chain = chain_from_rows(tuple(rows), 0, 1)
    cum = linear_sim_tables(chain)[1]
    sums = st.sampled_from(sorted({x for x in cum.ravel().tolist() if x < 1}) or [0.5])
    uniform = st.floats(0, 1, exclude_max=True)
    states = draw(st.lists(st.integers(0, chain.n_states - 1), min_size=1, max_size=40))
    u = draw(st.lists(st.one_of(uniform, sums), min_size=len(states), max_size=len(states)))
    return chain, np.array(states), np.array(u)


@settings(max_examples=100, deadline=None)
@given(_chain_and_uniforms())
def test_binary_search_move_is_the_linear_scan(case):
    # the stepper's binary search over power-of-two rows of row offsets
    # takes the move the scan of every padded column takes, ties included
    chain, states, u = case
    nbrs, cum, width = markov._sim_tables(chain)
    moved = markov._move(states * width, u, nbrs, cum, width)
    assert (moved % width == 0).all()
    assert (moved // width == linear_move(states, u, *linear_sim_tables(chain))).all()


@pytest.mark.parametrize(
    "walk",
    [lambda: downhill_walk(diamond(2, diamond_weighting())), lambda: lazy_path_walk(8)],
    ids=["D2-scaled", "lazy-8"],
)
def test_mc_agrees_with_per_term_oracle(walk):
    """The shared-trajectory estimator and the per-term one estimate the
    same sums: they differ by at most 3 standard errors of the difference."""
    wb = walk()
    est = mc_convexity(wb.chain, wb.metric_map, wb.space, 2.0, seed=4, samples=4000)
    lhs, rhs, lhs_se, rhs_se = mc_convexity_per_term(
        wb.chain, wb.metric_map, wb.space, 2.0, seed=4, samples=4000
    )
    assert abs(est.lhs - lhs) <= 3 * math.hypot(est.method.lhs_stderr, lhs_se)
    assert abs(est.rhs - rhs) <= 3 * math.hypot(est.method.rhs_stderr, rhs_se)


def test_per_term_oracle_is_the_former_estimator():
    # the floats mc_convexity gave before it shared a base trajectory
    wb = downhill_walk(diamond(2, diamond_weighting()))
    out = mc_convexity_per_term(wb.chain, wb.metric_map, wb.space, 2.0, seed=9, samples=500)
    assert out == (0.57553125, 0.25, 0.009578075579048797, 0.0)


def test_per_term_tree_oracle_is_the_former_estimator():
    # the floats tree_walk_convexity_mc gave before it drew one geometric
    # first disagreement per split time
    out = tree_walk_convexity_mc_per_term(2, 2.0, seed=5, samples=400)
    assert out == (20.448750000000004, 4.0, 0.26833104329141577, 0.0)


@pytest.mark.parametrize(
    "route, m", [("per-term", 2), ("per-term", 3), ("materialized", 1), ("materialized", 2)]
)
def test_tree_mc_agrees_with_other_routes(route, m):
    """The geometric-draw tree estimator agrees within 3 standard errors of
    the difference with the per-term oracle and with mc_convexity on the
    materialized walk."""
    est = tree_walk_convexity_mc(m, 2.0, seed=4, samples=4000)
    if route == "per-term":
        lhs, rhs, lhs_se, rhs_se = tree_walk_convexity_mc_per_term(m, 2.0, seed=4, samples=4000)
    else:
        wb = downward_tree_walk(m)
        other = mc_convexity(wb.chain, wb.metric_map, wb.space, 2.0, seed=4, samples=4000)
        lhs, rhs = other.lhs, other.rhs
        lhs_se, rhs_se = other.method.lhs_stderr, other.method.rhs_stderr
    assert abs(est.lhs - lhs) <= 3 * math.hypot(est.method.lhs_stderr, lhs_se)
    assert abs(est.rhs - rhs) <= 3 * math.hypot(est.method.rhs_stderr, rhs_se)


def _lazy_path_4(seed):
    wb = lazy_path_walk(4)
    return mc_convexity(wb.chain, wb.metric_map, wb.space, 2.0, seed=seed, samples=200)


@pytest.mark.parametrize(
    "estimate",
    [_lazy_path_4, lambda seed: tree_walk_convexity_mc(2, 2.0, seed=seed, samples=200)],
    ids=["lazy-4", "tree-2"],
)
def test_mc_stderr_is_calibrated(estimate):
    """Across 300 seeds the spread of the lhs estimate matches the reported
    standard error; summing per-term variances of correlated terms would
    report too small an error."""
    runs = [estimate(seed) for seed in range(300)]
    spread = statistics.stdev(r.lhs for r in runs)
    reported = statistics.median(r.method.lhs_stderr for r in runs)
    assert 0.8 <= spread / reported <= 1.25


def test_mc_spans_blocks(monkeypatch):
    """With blocks of 11 samples a 2000-sample run draws from 182 substreams,
    the last one short; it still repeats bit for bit and agrees with the DP."""
    wb = lazy_path_walk(8)
    args = (wb.chain, wb.metric_map, wb.space, 2.0, 12, 2000)
    whole = mc_convexity(*args)
    monkeypatch.setattr(markov, "MC_BLOCK_CELLS", 100)
    first, again = mc_convexity(*args), mc_convexity(*args)
    assert first == again
    assert first.lhs != whole.lhs
    exact = exact_convexity(wb.chain, wb.metric_map, wb.space, 2)
    assert abs(first.lhs - float(exact.lhs)) <= 3 * first.method.lhs_stderr
    assert abs(first.rhs - float(exact.rhs)) <= 3 * first.method.rhs_stderr


# the benchmark's Monte Carlo walks
BENCHMARK_WALKS = {
    "D3": lambda: downhill_walk(diamond(3, diamond_weighting())),
    "L2": lambda: downhill_walk(laakso(2, laakso_weighting())),
    "D4-T3": lambda: downhill_walk(diamond(4, diamond_weighting()), horizon=3),
    "lazy-16": lambda: lazy_path_walk(16),
    "lazy-20": lambda: lazy_path_walk(20),
}
CHUNK = markov.MC_CHUNK
CHUNK_EDGES = (1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 10_000)


@pytest.mark.parametrize("walk", list(BENCHMARK_WALKS))
def test_mc_matches_the_whole_block_draw(walk, monkeypatch):
    """The chunked sampler returns the estimate of the whole-block one, repr
    for repr: on each walk's space and on it over 7 (non-dyadic distances,
    whose sums see any change of order), at every chunk edge, and over
    blocks of CHUNK + 1 samples, each one chunk with its 1-wide remainder."""
    wb = BENCHMARK_WALKS[walk]()
    spaces = (wb.space, MetricSpace(wb.space.num, 7 * wb.space.scale))
    for space, p, samples in itertools.product(spaces, (1.5, 2.0, 3.5), CHUNK_EDGES):
        args = (wb.chain, wb.metric_map, space, p, 5, samples)
        assert repr(mc_convexity(*args)) == repr(mc_convexity_whole_block(*args)), (space.scale, p, samples)
    monkeypatch.setattr(markov, "MC_BLOCK_CELLS", (wb.chain.horizon + 1) * (CHUNK + 1))
    for space in spaces:
        args = (wb.chain, wb.metric_map, space, 3.5, 5, 10_000)
        assert repr(mc_convexity(*args)) == repr(mc_convexity_whole_block(*args))


@pytest.mark.parametrize("m", [3, 4])
def test_tree_mc_matches_the_whole_table_draw(m, monkeypatch):
    """The geometric table drawn in row groups gives the whole table's
    estimate, repr for repr, at every chunk edge and over blocks of CHUNK + 1
    samples, whose groups are one row short of the table."""
    for p, samples in itertools.product((1.5, 2.0, 3.5), CHUNK_EDGES):
        args = (m, p, 5, samples)
        assert repr(tree_walk_convexity_mc(*args)) == repr(tree_walk_convexity_mc_whole_block(*args))
    monkeypatch.setattr(markov, "MC_BLOCK_CELLS", (2**m + 1) * (CHUNK + 1))
    args = (m, 3.5, 5, 10_000)
    assert repr(tree_walk_convexity_mc(*args)) == repr(tree_walk_convexity_mc_whole_block(*args))


def test_mc_memory_is_bounded():
    """A 100 000-sample run on L_2 draws blocks of 61 680 samples: the
    narrow states, one step's uniforms and the chunk temporaries stay under
    16 MiB; a whole-block draw, in int64 states and float tables, takes
    about 40 MiB."""
    wb = BENCHMARK_WALKS["L2"]()
    tracemalloc.start()
    try:
        mc_convexity(wb.chain, wb.metric_map, wb.space, 2.0, 1, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


BAD_P_AND_SEED = [(0.5, 1), (0.0, 1), (-2.0, 1), (math.nan, 1), (2.0, -1)]


@pytest.mark.parametrize(
    "p, seed, samples, m",
    [pytest.param(p, seed, 10, 1, id=f"{p}-{seed}") for p, seed in BAD_P_AND_SEED]
    + [
        pytest.param(2.0, 1.5, 10, 1, id="seed-1.5"),
        pytest.param(2.0, True, 10, 1, id="seed-True"),
        pytest.param(2.0, 1, 10.0, 1, id="samples-10.0"),
        pytest.param(2.0, 1, True, 1, id="samples-True"),
        pytest.param(True, 1, 10, 1, id="p-True"),
        pytest.param(2.0, 1, 10, 2.0, id="m-2.0"),
        pytest.param(2.0, 1, 10, True, id="m-True"),
    ],
)
def test_mc_rejects_bad_p_and_seed(p, seed, samples, m):
    """A p below 1, a negative seed and a seed, sample count or tree depth m
    that is no int (a float or a bool) raise ValidationError in both Monte
    Carlo estimators; a bad m or a p of True also in the exact ones."""
    wb = lazy_path_walk(2)
    refused = [lambda: tree_walk_convexity_mc(m, p, seed, samples)]
    if type(m) is int:
        refused.append(lambda: mc_convexity(wb.chain, wb.metric_map, wb.space, p, seed, samples))
    else:
        refused += [lambda: tree_walk_convexity_exact(m, 2), lambda: downward_tree_walk(m)]
    if p is True:
        refused.append(lambda: tree_walk_convexity_exact(1, p))
        refused.append(lambda: exact_convexity(wb.chain, wb.metric_map, wb.space, p))
    for call in refused:
        with pytest.raises(ValidationError):
            call()


def test_mc_caps_its_samples(monkeypatch):
    """Both Monte Carlo estimators refuse a sample count past MC_SAMPLE_CAP
    before anything is drawn or allocated, and run one at the cap."""
    wb = lazy_path_walk(2)
    estimators = (
        lambda samples: mc_convexity(wb.chain, wb.metric_map, wb.space, 2.0, 1, samples),
        lambda samples: tree_walk_convexity_mc(1, 2.0, 1, samples),
    )
    want = f"^the number of Monte Carlo samples exceeds cap {markov.MC_SAMPLE_CAP}$"
    tracemalloc.start()
    try:
        for estimate in estimators:
            with pytest.raises(CapExceededError, match=want):
                estimate(markov.MC_SAMPLE_CAP + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    monkeypatch.setattr(markov, "MC_SAMPLE_CAP", 10)
    for estimate in estimators:
        assert estimate(10).method.samples == 10
        with pytest.raises(CapExceededError, match="exceeds cap 10$"):
            estimate(11)


def test_mc_matches_exact_tree():
    exact = tree_walk_convexity_exact(2, 2)
    mc = tree_walk_convexity_mc(2, 2.0, seed=31, samples=20000)
    assert abs(mc.lhs - float(exact.lhs)) <= 3 * mc.method.lhs_stderr
    assert mc.rhs == float(exact.rhs)


def test_downhill_d1_reaches_sink_in_two_steps():
    fam = diamond(1, UNIT)
    wb = downhill_walk(fam, horizon=2)
    # evolve the start distribution twice by hand
    n = wb.chain.n_states
    pi = [F(0)] * n
    pi[wb.chain.start] = F(1)
    rows = _rows(wb.chain)
    for _ in range(2):
        pi = [sum((pi[u] * rows[u].get(v, 0) for u in range(n)), F(0)) for v in range(n)]
    assert pi[fam.sink] == 1


def test_downhill_l1_positive_lhs():
    wb = downhill_walk(laakso(1, laakso_weighting()), horizon=4)
    est = exact_convexity(wb.chain, wb.metric_map, wb.space, 2)
    assert est.lhs > 0


# exact p = 2 sums of the downhill walks on the scaled families: the paper's
# growth of Pi_2 on diamonds and Laakso graphs.  D_1-D_5 and L_1-L_4 were
# recorded with Dijkstra distance tables, D_6-D_9 and L_5 by the renewal
# sums (D_6 and L_4 also equal the DP's: test_renewal_sums_equal_the_dp)
GROWTH = {
    diamond: [
        ("5/8", "1/2"),
        ("73/128", "1/4"),
        ("793/2048", "1/8"),
        ("7769/32768", "1/16"),
        ("72537/524288", "1/32"),
        ("659289/8388608", "1/64"),
        ("5889881/134217728", "1/128"),
        ("51978073/2147483648", "1/256"),
        ("454434649/34359738368", "1/512"),
    ],
    laakso: [
        ("21/128", "1/4"),
        ("2595/32768", "1/16"),
        ("232329/8388608", "1/64"),
        ("18706011/2147483648", "1/256"),
        ("1433379345/549755813888", "1/1024"),
    ],
}


def _growth(maker, weighting):
    """piLower per level after checking the pinned exact sums."""
    pi = []
    for n, (lhs, rhs) in enumerate(GROWTH[maker], start=1):
        est = markov.downhill_convexity_exact(maker(n, weighting), 2)
        assert (est.lhs, est.rhs) == (F(lhs), F(rhs)), n
        pi.append(est.pi_lower)
    return pi


def test_downhill_diamond_regression_and_monotonicity():
    pi = _growth(diamond, diamond_weighting())
    assert all(a < b for a, b in zip(pi, pi[1:])), pi  # piLower increases with n


def test_downhill_laakso_regression():
    pi = _growth(laakso, laakso_weighting())
    assert all(a < b for a, b in zip(pi, pi[1:])), pi


def _dp_and_sums(wb, p):
    """The DP on a caller-built copy of a built-in walk's chain, and
    exact_convexity on the walk itself, which runs the renewal sums."""
    dp = exact_convexity(_caller_built(wb.chain), wb.metric_map, wb.space, p)
    return dp, exact_convexity(wb.chain, wb.metric_map, wb.space, p)


@pytest.mark.parametrize("maker, top", [(diamond, 4), (laakso, 3)], ids=["D", "L"])
@pytest.mark.parametrize("weighting", [UNIT, diamond_weighting()], ids=["unit", "scaled"])
def test_renewal_sums_equal_the_dp(maker, top, weighting):
    # the same Fractions (and "exactDP") at p = 1..4 and horizons default,
    # 1, 3, H // 2 + 1 and H + 3, H the hops from source to sink
    for n in range(top + 1):
        family = maker(n, weighting)
        H = gadget_sides(family.kind)[0] ** n
        for horizon in (None, 1, 3, H // 2 + 1, H + 3):
            wb = downhill_walk(family, horizon)
            for p in (1, 2, 3, 4):
                dp, sums = _dp_and_sums(wb, p)
                assert repr(sums) == repr(dp), (n, horizon, p)
                assert repr(markov.downhill_convexity_exact(family, p, horizon)) == repr(dp)


@pytest.mark.parametrize(
    "maker, n, weighting, ps",
    [
        (diamond, 5, diamond_weighting(), (1, 2, 3, 4)),
        (diamond, 5, UNIT, (2,)),
        (diamond, 6, diamond_weighting(), (2,)),
        (laakso, 4, laakso_weighting(), (1, 2, 3, 4)),
        (laakso, 4, UNIT, (2,)),
    ],
    ids=["D5s", "D5u", "D6s", "L4s", "L4u"],
)
def test_renewal_sums_equal_the_dp_on_larger_families(maker, n, weighting, ps):
    wb = downhill_walk(maker(n, weighting))
    for p in ps:
        dp, sums = _dp_and_sums(wb, p)
        assert repr(sums) == repr(dp), p


def test_lazy_path_sums_equal_the_dp():
    for T in range(1, 34):
        wb = lazy_path_walk(T)
        for p in (1, 2, 3, 4):
            dp, sums = _dp_and_sums(wb, p)
            assert repr(sums) == repr(dp), (T, p)
            assert repr(markov.lazy_path_convexity_exact(T, p)) == repr(dp)


def test_only_the_walks_own_chain_map_and_space_run_the_renewal_sums(monkeypatch):
    wb = downhill_walk(diamond(2, diamond_weighting()))
    calls = []
    renewal = markov._renewal_sums
    monkeypatch.setattr(markov, "_renewal_sums", lambda walk, p: calls.append(walk) or renewal(walk, p))
    want = repr(exact_convexity(wb.chain, wb.metric_map, wb.space, 2))
    assert len(calls) == 1
    # equal copies carry no record: each runs the DP, to the same Fractions
    space = MetricSpace(wb.space.num, wb.space.scale, wb.space.labels)
    for args in (
        (_caller_built(wb.chain), wb.metric_map, wb.space),
        (dataclasses.replace(wb.chain), wb.metric_map, wb.space),
        (wb.chain, MetricMap(wb.metric_map.point_of_state), wb.space),
        (wb.chain, wb.metric_map, space),
    ):
        assert repr(exact_convexity(*args, 2)) == want
    assert len(calls) == 1
    assert "built_by" not in repr(wb.chain)
    with pytest.raises(TypeError):
        MarkovChain(*(getattr(wb.chain, f) for f in ("indptr", "targets", "weights", "D", "start", "horizon")), None)


def test_renewal_sums_cap_their_bit_work():
    # unit D_5 at p = 2e5 (its 32^p has 1e6 bits) and the lazy path of
    # length 20 at p = 1e6 stop before any power is taken
    d5 = diamond(5, UNIT)
    cases = [
        (lambda: markov.downhill_convexity_exact(d5, 200_000), "diamond level 5 at horizon 32, p = 200000"),
        (lambda: markov.lazy_path_convexity_exact(20, 10**6), "the lazy path at horizon 20, p = 1000000"),
    ]
    for call, name in cases:
        want = f"the number of bit operations of the renewal sums of {name} exceeds cap {markov.DP_BIT_WORK_CAP}"
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match=f"^{want}$"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10, name


@pytest.mark.parametrize(
    "make",
    [
        lambda: downhill_walk(diamond(3, UNIT)),
        lambda: downhill_walk(diamond(3, diamond_weighting()), horizon=5),
        lambda: downhill_walk(laakso(2, laakso_weighting())),
        lambda: downhill_walk(laakso(3, UNIT), horizon=3),
        lambda: lazy_path_walk(1),
        lambda: lazy_path_walk(20),
    ],
    ids=["D3", "D3s-T5", "L2s", "L3-T3", "lazy-1", "lazy-20"],
)
def test_renewal_sums_refuse_no_input_the_dp_answers(make, monkeypatch):
    # on the same walk and p the sums count no more bit work than the DP
    wb = make()
    amounts = []

    def record(amount, cap, what):
        amounts.append(amount)
        raise CapExceededError(what)

    monkeypatch.setattr(markov, "check_cap", record)

    def work(chain, p):
        with pytest.raises(CapExceededError):
            exact_convexity(chain, wb.metric_map, wb.space, p)
        return amounts[-1]

    dp = _caller_built(wb.chain)
    for p in (1, 2, 3, 10, 1000, 10**5, 10**6):
        assert work(wb.chain, p) <= work(dp, p), p


def test_rescaling_invariance():
    # unit and scaled D_2 are uniform rescalings of one another: lhs and rhs
    # pick up lambda^p, the ratio is unchanged
    eu = downhill_walk(diamond(2, UNIT))
    es = downhill_walk(diamond(2, diamond_weighting()))
    a = exact_convexity(eu.chain, eu.metric_map, eu.space, 2)
    b = exact_convexity(es.chain, es.metric_map, es.space, 2)
    assert a.lhs / a.rhs == b.lhs / b.rhs
    assert a.lhs == b.lhs * 16  # lambda = 4 at level 2, p = 2


def test_lazy_path_walk_baseline():
    expected = {4: F(51, 32), 8: F(223, 128), 16: F(943, 512)}
    for T, ratio in expected.items():
        wb = lazy_path_walk(T)
        est = exact_convexity(wb.chain, wb.metric_map, wb.space, 2)
        assert est.lhs / est.rhs == ratio
        assert est.pi_lower < 1.5  # stays bounded as the horizon doubles


@pytest.mark.parametrize("T", [1, 2, 16, 20])
def test_lazy_path_space_is_the_path_metric(T):
    space, path = lazy_path_walk(T).space, apsp(path_graph(T + 1))
    assert space == path  # num, scale 1 and labels (None,) * (T + 1)
    assert space.num.dtype == path.num.dtype == "int64"


def test_lazy_path_mc_agrees_with_exact():
    wb = lazy_path_walk(8)
    exact = exact_convexity(wb.chain, wb.metric_map, wb.space, 2)
    mc = mc_convexity(wb.chain, wb.metric_map, wb.space, 2.0, seed=12, samples=20000)
    assert abs(mc.lhs - float(exact.lhs)) <= 3 * mc.method.lhs_stderr
    assert abs(mc.rhs - float(exact.rhs)) <= 3 * max(mc.method.rhs_stderr, 1e-12)


def test_downhill_default_horizon_is_hop_count():
    wb = downhill_walk(diamond(2, diamond_weighting()))
    assert wb.chain.horizon == 4
    assert downhill_walk(laakso(1, laakso_weighting())).chain.horizon == 4


def test_downhill_rejects_nonuniform_edge_lengths():
    fam = diamond(1, UNIT)
    u, v, w = fam.graph.edges[2]
    edges = list(fam.graph.edges)
    edges[2] = (u, v, 2 * w)
    bent = dataclasses.replace(
        fam, graph=WeightedGraph(fam.graph.vertices, tuple(edges))
    )
    with pytest.raises(ValidationError) as exc:
        downhill_walk(bent)
    assert str(exc.value) == (
        f"downhill walk needs uniform edge lengths: edge ({u},{v}) has length {2 * w}, edge 0 has {w}"
    )


def test_downhill_rejects_a_vertex_with_no_way_down():
    # on P_3 with sink 2, vertex 0's one neighbour is farther from the sink
    space = MetricSpace(((0, 3, 1), (3, 0, 5), (1, 5, 0)))
    family = types.SimpleNamespace(graph=path_graph(3), metric_space=lambda: space, source=1, sink=2)
    with pytest.raises(ValidationError, match="^vertex 0 has no neighbor closer to the sink$"):
        downhill_walk(family)


@st.composite
def _random_chain_setup(draw):
    """A chain on n <= 6 states with horizon T <= 6 whose rows have
    denominators 1..6 (a row cuts [0, 1] into n pieces, state v takes piece
    v, zero-width pieces are no move), any start state, and a metric map into
    the apsp space of a random rational graph (points may repeat)."""
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(n):
        q = draw(st.integers(1, 6))
        cuts = sorted(draw(st.lists(st.integers(0, q), min_size=n - 1, max_size=n - 1)))
        bounds = [0, *cuts, q]
        widths = [bounds[v + 1] - bounds[v] for v in range(n)]
        rows.append(tuple((v, F(w, q)) for v, w in enumerate(widths) if w))
    chain = chain_from_rows(tuple(rows), draw(st.integers(0, n - 1)), draw(st.integers(1, 6)))
    space = apsp(random_connected_graph(draw))
    points = st.integers(0, space.size - 1)
    mmap = MetricMap(tuple(draw(st.lists(points, min_size=n, max_size=n))))
    return chain, mmap, space, draw(st.sampled_from((1, 2, 3)))


@settings(max_examples=80, deadline=None)
@given(_random_chain_setup())
def test_exact_dp_matches_dense_oracle(setup):
    chain, mmap, space, p = setup
    est = exact_convexity(chain, mmap, space, p)
    lhs, rhs = dense_exact_convexity(chain, mmap, space, p)
    assert est.lhs == lhs and est.rhs == rhs


@st.composite
def _swept_chain_setup(draw):
    """Rows cut [0, 1] at multiples of 1/q with q up to 3^40 on n <= 4
    states, horizon <= 4; one probability is perhaps replaced by a number of
    any kind.  Returns the rows, whether they make a chain, a start state, a
    horizon, a metric map into a random graph's apsp space and p."""
    n = draw(st.integers(1, 4))
    rows = []
    for _ in range(n):
        q = draw(st.integers(1, 6) | st.integers(1, 3**40) | st.just(3**40))
        bounds = [0, *sorted(draw(st.lists(st.integers(0, q), min_size=n - 1, max_size=n - 1))), q]
        rows.append([(v, F(bounds[v + 1] - bounds[v], q)) for v in range(n) if bounds[v + 1] > bounds[v]])
    if draw(st.booleans()):
        u = draw(st.integers(0, n - 1))
        k = draw(st.integers(0, len(rows[u]) - 1))
        rows[u][k] = (rows[u][k][0], draw(numbers_of_every_kind()))
    probs = [q for row in rows for _, q in row]
    valid = all(is_exact(q) and q > 0 for q in probs) and all(sum(q for _, q in row) == 1 for row in rows)
    space = apsp(random_connected_graph(draw))
    mmap = MetricMap(tuple(draw(st.lists(st.integers(0, space.size - 1), min_size=n, max_size=n))))
    setup = draw(st.integers(0, n - 1)), draw(st.integers(1, 4)), mmap, space, draw(st.sampled_from((1, 2)))
    return tuple(map(tuple, rows)), valid, *setup


@settings(max_examples=80, deadline=None)
@given(_swept_chain_setup())
def test_chain_probabilities_round_trip_through_the_table_or_are_refused(setup):
    """A chain is refused with a ValidationError exactly when a probability
    is not an exact positive number or a row does not sum to 1; otherwise
    every probability comes back from the CSR table as weights[k] / D, and
    the exact DP matches the dense Fraction oracle."""
    rows, valid, start, horizon, mmap, space, p = setup
    try:
        chain = chain_from_rows(rows, start, horizon)
    except ValidationError:
        assert not valid
        return
    assert valid
    moves = [move for row in rows for move in row]
    assert chain.indptr.tolist() == [0, *itertools.accumulate(map(len, rows))]
    assert chain.targets.tolist() == [v for v, _ in moves]
    assert [F(int(w), chain.D) for w in chain.weights] == [q for _, q in moves]
    est = exact_convexity(chain, mmap, space, p)
    assert (est.lhs, est.rhs) == dense_exact_convexity(chain, mmap, space, p)


@pytest.mark.parametrize("level, horizon", [(4, 3), (3, 2)])
def test_exact_dp_reads_only_reachable_points(level, horizon):
    """States the walk cannot reach within the horizon are sent to one extra
    point far from every other; neither estimator reads a distance of
    theirs, so the DP still matches the dense oracle, which weighs them with
    probability 0, and Monte Carlo, which checks the float range of the
    distances it reads only, is not refused at a p where the far point's
    power (about 1e360) overflows."""
    fam = diamond(level, diamond_weighting())
    wb = downhill_walk(fam, horizon=horizon)
    reach, frontier = {fam.source}, {fam.source}
    for _ in range(horizon):
        frontier = {v for u in frontier for v in _rows(wb.chain)[u]} - reach
        reach |= frontier
    n = wb.space.size
    assert len(reach) < n
    num = np.zeros((n + 1, n + 1), dtype=object)
    num[:n, :n] = wb.space.num
    num[n, :n] = num[:n, n] = 10**6 * int(wb.space.num.max()) + wb.space.num[fam.sink]
    space = MetricSpace(num, wb.space.scale)
    mmap = MetricMap(tuple(u if u in reach else n for u in range(n)))
    est = exact_convexity(wb.chain, mmap, space, 2)
    assert (est.lhs, est.rhs) == dense_exact_convexity(wb.chain, mmap, space, 2)
    plain = exact_convexity(wb.chain, wb.metric_map, wb.space, 2)
    assert (est.lhs, est.rhs) == (plain.lhs, plain.rhs)
    far = mc_convexity(wb.chain, mmap, space, 60.0, 3, 200)
    assert far == mc_convexity(wb.chain, wb.metric_map, wb.space, 60.0, 3, 200)
    assert far.lhs > 0


def test_pi_lower_outside_float_range():
    # ordinary ratios keep float(lhs / rhs) ** (1 / p); exact ratios past
    # the float range take the root in logs rather than overflowing or
    # flushing to 0
    def est(lhs, rhs, p):
        return markov.ConvexityEstimate(p, lhs, rhs, markov.MethodInfo("exactDP")).pi_lower

    assert est(F(9, 2), F(1), 2.0) == float(F(9, 2)) ** 0.5
    assert est(F(3) ** 4000, F(1), 2000.0) == pytest.approx(9.0, rel=1e-12)
    assert est(F(1), F(3) ** 4000, 2000.0) == pytest.approx(1 / 9, rel=1e-12)
    assert est(F(0), F(1), 2.0) == 0.0
    assert est(F(1), F(0), 2.0) is None
