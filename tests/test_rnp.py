"""RNP pipeline: delta-trees/bushes, gauge LP, broken lines, thickness,
martingales."""

import itertools
import math
import random
import time
import tracemalloc
import types
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import testspaces.exactlp as exactlp
import testspaces.rnp as rnp
from testspaces.embeddings import NormedTarget, distortion
from testspaces.errors import CapExceededError, ValidationError
from testspaces.generators import diamond, diamond_weighting
from testspaces.metric_core import GEODESIC_CAP
from testspaces.rnp import (
    BrokenLine,
    DeltaBush,
    DeltaTree,
    GaugeNorm,
    GeodesicFamily,
    Martingale,
    PiecewiseLevel,
    broken_line_family,
    bush_gauge,
    bush_gauge_delta,
    diamond_geodesic_family,
    diamond_l1_embedding,
    martingale_check,
    martingale_from_embedding,
    martingale_l1_diff,
    rademacher_tree,
    sibling_deviation,
    thickness_alpha,
    tree_to_bush,
    verify_bush,
    verify_delta_tree,
    _slope_jumps,
)

from _oracles import (
    _sub,
    broken_lines_by_scan,
    bush_levels,
    gauge_by_phase_one,
    martingale_check_fractions,
    martingale_fractions,
    martingale_l1_diff_fractions,
    normalized_l1,
    pair_tables_by_parameter,
    respond_by_scan,
    tent_embedding_tuples,
    thickness_by_pairs,
    verify_bush_fractions,
    verify_delta_tree_fractions,
    tree_vectors,
    vertex_at,
    vertex_pairs,
)


@pytest.fixture(scope="module")
def bush3():
    return tree_to_bush(rademacher_tree(3))


@pytest.fixture(scope="module")
def gauge3(bush3):
    return bush_gauge(bush3)


@pytest.fixture(scope="module")
def family3():
    return diamond_geodesic_family(3)


def test_rademacher_identities_small():
    for n in (1, 2, 5):
        tree = rademacher_tree(n)
        verify_delta_tree(tree)  # exact midpoint, unit norm, separation
        root = tree_vectors(tree)[""]
        assert all(v == 1 for v in root)
        for lab, vec in tree_vectors(tree).items():
            assert normalized_l1(vec, tree.atoms) == 1
            if lab:
                assert normalized_l1(_sub(vec, tree_vectors(tree)[lab[:-1]]), tree.atoms) == 1


def test_tree_to_bush_structure(bush3):
    assert len(bush_levels(bush3)[0]) == 1
    assert bush3.blocks[1] == ((0, 1),)
    assert bush3.weights[1] == (F(1, 2), F(1, 2))
    assert bush3.delta == 1


def test_gauge_values(bush3, gauge3):
    zero = tuple(F(0) for _ in range(bush3.atoms))
    assert gauge3.evaluate(zero) == 0
    for level in bush_levels(bush3):
        for vec in level:
            assert gauge3.evaluate(vec) == 1  # renormed bush vectors are unit
    assert bush_gauge_delta(bush3, gauge3) == 1


def test_gauge_dominated_by_base_and_norm_axioms(bush3, gauge3):
    rng = random.Random(3)

    def rvec():
        return tuple(F(rng.randint(-6, 6), rng.choice([1, 2, 4])) for _ in range(8))

    for _ in range(4):
        v, w = rvec(), rvec()
        gv, gw = gauge3.evaluate(v), gauge3.evaluate(w)
        assert gv <= normalized_l1(v, 8)
        assert gauge3.evaluate(tuple(5 * x for x in v)) == 5 * gv
        assert gauge3.evaluate(tuple(F(-1) * x for x in v)) == gv
        assert gauge3.evaluate(tuple(a + b for a, b in zip(v, w))) <= gv + gw


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_gauge_rejects_non_finite_entries(bad):
    gauge = bush_gauge(tree_to_bush(rademacher_tree(2)))
    with pytest.raises(ValidationError):
        gauge.evaluate((bad, 0, 0, 0))
    # a finite float is the rational it is: one atom at 1/2, mass 1/4 each
    assert gauge.evaluate((0.5, 0, 0, 0)) == F(1, 8)


def test_broken_line_root_is_single_segment(bush3):
    lines = broken_line_family(bush3, 0)
    assert lines[""].segments == ((F(1), (0, 0)),)


def test_broken_lines_are_gauge_geodesics(bush3, gauge3):
    lines = broken_line_family(bush3, 3)
    assert len(lines) == 15
    root = bush_levels(bush3)[0][0]
    for line in lines.values():
        # sum of gauge lengths = sum of coefficients (per-vector gauge is 1)
        assert line.coefficients_sum() == 1
        assert vertex_pairs(line, bush3)[-1] == (1, root)
    # direct gauge evaluation on a few segments confirms the shortcut
    seg_coef, (lvl, j) = lines["01"].segments[0]
    direct = gauge3.evaluate(tuple(seg_coef * x for x in bush_levels(bush3)[lvl][j]))
    assert direct == seg_coef


def test_sibling_deviation_at_least_half_delta(bush3, gauge3):
    lines = broken_line_family(bush3, 3)
    gd = bush_gauge_delta(bush3, gauge3)
    for lab in ("", "0", "1"):
        dev = sibling_deviation(bush3, gauge3, lines[lab + "0"], lines[lab + "1"])
        assert dev >= gd / 2


def test_vertex_monotonicity_under_extension(bush3):
    lines = broken_line_family(bush3, 3)
    for lab, line in lines.items():
        own = set(vertex_pairs(line, bush3))
        for other_lab, other in lines.items():
            if other_lab != lab and other_lab.startswith(lab):
                assert own <= set(vertex_pairs(other, bush3))


def test_thickness_d1():
    fam = diamond_geodesic_family(1)
    assert len(fam.geodesics) == 2
    resp = fam.respond(0, [])
    assert resp.total == 1  # deviation at the midpoint: d(a, b) = 1
    cert = thickness_alpha(fam, 0)
    assert cert.alpha == 1


def test_thickness_d2_budget_profile():
    fam = diamond_geodesic_family(2)
    assert [thickness_alpha(fam, b).alpha for b in (0, 1, 2)] == [F(1), F(1, 2), F(0)]


def test_thickness_matches_pair_loop(family3, monkeypatch):
    # a work cap of 300 truncates the control sets, so `partial` is compared too
    for fam in [diamond_geodesic_family(n) for n in range(3)] + [family3]:
        for budget in range(8):
            for cap in (10**7, 300):
                monkeypatch.setattr(rnp, "THICKNESS_WORK_CAP", cap)
                want = thickness_by_pairs(fam, budget, cap)
                assert repr(thickness_alpha(fam, budget)) == repr(want)


def test_thickness_rejects_a_negative_budget(family3):
    with pytest.raises(ValidationError, match="control budget"):
        thickness_alpha(family3, -1)


@pytest.mark.parametrize("budget", [2.5, 3.0, True, False, np.int64(3), "3", None])
def test_thickness_budget_is_an_int(family3, budget):
    # 2.5 raised a bare TypeError, and True was taken as 1
    with pytest.raises(ValidationError, match="control budget must be an int >= 0"):
        thickness_alpha(family3, budget)


def test_thickness_budget_is_clipped_at_the_interior():
    # no control set holds more than the P - 2 interior parameters, so a
    # huge budget tries the sets of budget P - 2 at once (10^7 did not
    # return within 20 s before the clip); only control_budget differs
    fam = diamond_geodesic_family(2)
    interior = len(fam.params) - 2
    want = thickness_alpha(fam, interior)
    for budget in (interior + 1, 10**7, 10**18):
        start = time.perf_counter()
        cert = thickness_alpha(fam, budget)
        assert time.perf_counter() - start < 1.0
        assert cert.control_budget == budget
        assert repr(cert).replace(f"control_budget={budget}", f"control_budget={interior}") == repr(want)
        assert repr(cert) == repr(thickness_by_pairs(fam, min(budget, 50))).replace("budget=50", f"budget={budget}")


@pytest.mark.parametrize("n", [2.0, True, False, np.int64(2), "2", -1])
def test_diamond_family_level_is_an_int(n):
    # 2.0 raised a bare TypeError, and True built D_1's family
    with pytest.raises(ValidationError, match="level must be an int >= 0"):
        diamond_geodesic_family(n)


@pytest.mark.parametrize("steps", [1.5, 1.0, True, np.int64(1), "1", 0])
def test_martingale_steps_are_an_int(steps):
    # 1.5 raised a bare TypeError, and True ran one double-step
    family = diamond_geodesic_family(1)
    emb = diamond_l1_embedding(family.family)
    with pytest.raises(ValidationError, match="double-step count must be an int >= 1"):
        martingale_from_embedding(family, emb, steps)


@pytest.mark.parametrize("half", [40, 70])
def test_thickness_on_two_long_geodesics(half):
    # the two halves of C_(2 half) share only their ends: 2^(half - 1)
    # interior control masks exist, but each row has two distinct common
    # masks, so no table over the mask lattice is built (half = 70 runs the
    # Python-int mask tables)
    from testspaces.generators import cycle
    from testspaces.metric_core import apsp, enumerate_geodesic_paths

    graph = cycle(2 * half)
    space = apsp(graph)
    geos = tuple(enumerate_geodesic_paths(graph, 0, half, space))
    fam = GeodesicFamily(None, space, geos)
    assert len(fam.params) == half + 1
    for budget in (0, 1, 2):
        cert = thickness_alpha(fam, budget)
        assert repr(cert) == repr(thickness_by_pairs(fam, budget))
        assert cert.alpha == (half if budget == 0 else 0)


def _long_cycle_family(half, length=1):
    """The two geodesics between opposite points of C_(2 half) with edges of
    the given length: half + 1 parameters, the largest distance half * length."""
    from testspaces.generators import cycle
    from testspaces.metric_core import WeightedGraph, apsp, enumerate_geodesic_paths

    unit = cycle(2 * half)
    graph = WeightedGraph(unit.vertices, tuple((u, v, F(length)) for u, v, _ in unit.edges))
    space = apsp(graph)
    return GeodesicFamily(None, space, tuple(enumerate_geodesic_paths(graph, 0, half, space)))


def _shifted_path_family():
    """The geodesics 0-1-2, 1-2-3 and 2-3-4 of the path on 5 vertices: one
    grid, but no common first parameter, so a bubble opens at the start."""
    from testspaces.metric_core import apsp, enumerate_geodesic_paths, path_graph

    graph = path_graph(5)
    space = apsp(graph)
    geos = (enumerate_geodesic_paths(graph, a, a + 2, space)[0] for a in range(3))
    return GeodesicFamily(None, space, tuple(geos))


def _late_bubble_family():
    """The two geodesics from 0 to 11 of the path 0-1-...-11 with 12 beside
    10: they part only at parameter 10, past a mask's first byte."""
    from testspaces.metric_core import PointId, WeightedGraph, apsp, enumerate_geodesic_paths

    edges = tuple((i, i + 1, F(1)) for i in range(11)) + ((9, 12, F(1)), (12, 11, F(1)))
    graph = WeightedGraph(tuple(PointId(i) for i in range(13)), edges)
    space = apsp(graph)
    return GeodesicFamily(None, space, tuple(enumerate_geodesic_paths(graph, 0, 11, space)))


@pytest.mark.parametrize(
    "make",
    [
        *(lambda n=n: diamond_geodesic_family(n) for n in range(4)),
        _shifted_path_family,
        _late_bubble_family,
        lambda: _long_cycle_family(40),  # uint64 masks, int16 totals
        lambda: _long_cycle_family(70),  # Python-int masks
        lambda: _long_cycle_family(40, 2**60),  # totals past int64: Python ints
        lambda: _long_cycle_family(70, 2**60),
    ],
    ids=["D0", "D1", "D2", "D3", "shifted", "late-bubble", "C80", "C140", "C80-huge", "C140-huge"],
)
def test_pair_tables_match_the_parameter_loop(make):
    # the masks, bubble totals and bubble counts of every pair, as the loop
    # over parameters that first built them gives them, whatever types hold them
    fam = make()
    for got, want in zip((fam._common, fam._total, fam._nbubbles), pair_tables_by_parameter(fam)):
        assert got.tolist() == want.tolist()
        assert all(type(x) is int for x in got.ravel().tolist())


def test_pair_table_types_are_narrow():
    family = diamond_geodesic_family(3)
    assert (family._total.dtype, family._common.dtype) == (np.int8, np.uint16)
    huge = _long_cycle_family(40, 2**60)
    assert huge._total.dtype == object and huge._common.dtype == np.uint64
    assert _long_cycle_family(70)._common.dtype == object


def test_thickness_builds_only_the_sets_the_cap_admits(monkeypatch):
    # C140's 69 interior parameters give C(69, 3) = 52 394 sets of size 3
    # and 864 501 of size 4; the cap admits 100 of them, all within size 2,
    # and only those and one more are built (the full list took 263 MB at
    # budget 4 and 1 GB at budget 5 before it was cut)
    family = _long_cycle_family(70)
    monkeypatch.setattr(rnp, "THICKNESS_WORK_CAP", 400)
    want = repr(thickness_by_pairs(family, 2, 400))
    for budget in (3, 4):
        tracemalloc.start()
        try:
            cert = thickness_alpha(family, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        assert cert.partial and cert.configurations == 200
        assert repr(cert) == want.replace("control_budget=2", f"control_budget={budget}")


@pytest.mark.parametrize(
    "make, budgets",
    [
        *((lambda n=n: diamond_geodesic_family(n), range(8)) for n in range(4)),
        (_shifted_path_family, range(3)),
        (_late_bubble_family, range(4)),
        (lambda: _long_cycle_family(40), range(3)),
        (lambda: _long_cycle_family(70), range(3)),
        (lambda: _long_cycle_family(40, 2**60), range(3)),
    ],
    ids=["D0", "D1", "D2", "D3", "shifted", "late-bubble", "C80", "C140", "C80-huge"],
)
def test_thickness_matches_pair_loop_across_block_seams(make, budgets, monkeypatch):
    # blocks of 1, 7 and 64 entries put seams between the control sets: ties
    # still go to the first geodesic, then to the first set, and `partial`
    # still counts the sets taken, at a full and at a truncating cap
    fam = make()
    for budget in budgets:
        for cap in (10**7, 300):
            monkeypatch.setattr(rnp, "THICKNESS_WORK_CAP", cap)
            want = repr(thickness_by_pairs(fam, budget, cap))
            for block in (1, 7, 64):
                monkeypatch.setattr(rnp, "_BLOCK", block)
                assert repr(thickness_alpha(fam, budget)) == want, (budget, cap, block)


def test_thickness_ties_on_random_pair_tables(monkeypatch):
    # small random masks and totals tie often, within a block and across its
    # seams; each geodesic meets itself everywhere at total 0, as in a family
    rng = random.Random(49)
    for _ in range(300):
        n_geo, n_params = rng.randint(1, 5), rng.randint(2, 6)
        full = (1 << n_params) - 1
        common = [[full if a == b else rng.randrange(full + 1) for b in range(n_geo)] for a in range(n_geo)]
        total = [[0 if a == b else rng.randrange(4) for b in range(n_geo)] for a in range(n_geo)]
        fam = types.SimpleNamespace(
            geodesics=range(n_geo),
            params=tuple(F(t, n_params - 1) for t in range(n_params)),
            space=types.SimpleNamespace(scale=2),
            _common=np.array(common, dtype=np.uint8),
            _total=np.array(total, dtype=np.int8),
        )
        budget, cap = rng.randint(0, n_params), rng.choice([10**7, 3 * n_geo * n_geo])
        monkeypatch.setattr(rnp, "THICKNESS_WORK_CAP", cap)
        want = repr(thickness_by_pairs(fam, budget, cap))
        for block in (1, 7, 64, 1 << 15):
            monkeypatch.setattr(rnp, "_BLOCK", block)
            assert repr(thickness_alpha(fam, budget)) == want, (common, total, budget, cap, block)


def test_thickness_holds_one_block_of_sets_at_a_time(monkeypatch):
    # the cap admits 10^5 of C140's sets, reaching into size 4; listing them
    # all with their masks peaked at 20.5 MiB, and the default cap's
    # 2.5 * 10^6 sets at 661 MB ru_maxrss
    family = _long_cycle_family(70)
    monkeypatch.setattr(rnp, "THICKNESS_WORK_CAP", 4 * 10**5)
    tracemalloc.start()
    try:
        cert = thickness_alpha(family, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert cert.partial and cert.configurations == 2 * 10**5
    assert (cert.alpha, cert.worst_geodesic, cert.worst_controls) == (0, 0, (F(1),))


@pytest.mark.parametrize(
    "make",
    [
        lambda: diamond_geodesic_family(2),
        lambda: diamond_geodesic_family(3),
        _late_bubble_family,
        lambda: _long_cycle_family(70),
    ],
    ids=["D2", "D3", "late-bubble", "C140"],
)
def test_oracle_matches_the_profile_scan(make):
    # bubbles read off the pair mask and each gap's first argmax give every
    # field the scan of the deviation profile gives, for every geodesic and
    # control set (C140's 69 interior parameters: the sets of size <= 2, on
    # Python-int masks)
    fam = make()
    interior = fam.params[1:-1]
    sizes = range(len(interior) + 1) if len(interior) <= 10 else range(3)
    sets = [combo for size in sizes for combo in itertools.combinations(interior, size)]
    for g in range(len(fam.geodesics)):
        for controls in sets:
            assert repr(fam.respond(g, controls)) == repr(respond_by_scan(fam, g, controls))


def test_thickness_d3_budget_profile(family3):
    values = [thickness_alpha(family3, b).alpha for b in range(5)]
    assert values == [F(1), F(3, 4), F(1, 2), F(1, 4), F(0)]
    # alpha is non-increasing as control sets grow
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_geodesic_family_cap_fires_before_pair_tables(family3):
    assert len(family3.geodesics) == 128 <= GEODESIC_CAP
    with pytest.raises(CapExceededError):
        diamond_geodesic_family(4)  # 32768 geodesics, ~1.07e9 pair-table entries


def test_geodesics_off_the_parameter_grid_are_rejected():
    # 0-1-2 has breakpoints (0, 1, 2) and 0-3-4-2 has (0, 1/2, 1, 2): both
    # are geodesics of length 2, but they share no parameter grid
    from testspaces.metric_core import PointId, WeightedGraph, apsp, enumerate_geodesic_paths

    half = F(1, 2)
    edges = ((0, 1, F(1)), (1, 2, F(1)), (0, 3, half), (3, 4, half), (4, 2, F(1)))
    graph = WeightedGraph(tuple(PointId(i) for i in range(5)), edges)
    space = apsp(graph)
    geos = tuple(enumerate_geodesic_paths(graph, 0, 2, space))
    assert len(geos) == 2 and geos[0].breakpoints != geos[1].breakpoints
    for order in (geos, geos[::-1]):
        with pytest.raises(ValidationError, match="do not share a parameter grid"):
            GeodesicFamily(None, space, order)
    with pytest.raises(ValidationError, match="at least one geodesic"):  # no grid to check
        GeodesicFamily(None, space, ())


def test_thickness_single_geodesic_family():
    fam = diamond_geodesic_family(0)
    assert len(fam.geodesics) == 1
    assert thickness_alpha(fam, 0).alpha == 0


def test_geodesic_indices_are_ints_in_range():
    fam = diamond_geodesic_family(2)
    assert len(fam.geodesics) == 8
    # -1 answered for the last geodesic, 8 and 1.5 raised a bare IndexError
    for g in (-1, 8, 1.5, True):
        with pytest.raises(ValidationError, match="is not an int in range"):
            fam.respond(g, [])
        with pytest.raises(ValidationError, match="is not an int in range"):
            fam.splice(g, 0, [], [])
        with pytest.raises(ValidationError, match="is not an int in range"):
            fam.splice(0, g, [], [])
    assert fam.splice(7, 0, [], []) == 7


def test_martingale_steps_are_capped_before_any_work():
    family = diamond_geodesic_family(1)
    emb = diamond_l1_embedding(family.family)
    run = martingale_from_embedding(family, emb, rnp.MARTINGALE_STEP_CAP)
    assert len(run.diff_norms) == rnp.MARTINGALE_STEP_CAP
    with pytest.raises(CapExceededError, match="^the double-step count 257 exceeds cap 256$"):
        martingale_from_embedding(family, None, rnp.MARTINGALE_STEP_CAP + 1)


def test_recombination_closure_d2():
    import itertools

    fam = diamond_geodesic_family(2)
    for g in range(len(fam.geodesics)):
        resp = fam.respond(g, [])
        qi = [fam.params.index(p) for p in resp.q_params]
        pairs = list(zip(qi, qi[1:]))
        for picks in itertools.product([False, True], repeat=len(pairs)):
            fam.splice(g, resp.geodesic, pairs, list(picks))  # must not raise


def test_oracle_respects_controls(family3):
    controls = [F(1, 2)]
    resp = family3.respond(0, controls)
    there = vertex_at(family3, 0, F(1, 2))
    assert vertex_at(family3, resp.geodesic, F(1, 2)) == there
    assert F(1, 2) in resp.q_params
    assert resp.total >= thickness_alpha(family3, 1).alpha


def test_tent_embedding_measured_constants(family3):
    fam = diamond(3, diamond_weighting())
    emb = diamond_l1_embedding(fam)
    rep = distortion(emb)
    assert rep.colip == 1  # tents never contract
    assert rep.lip == 4
    assert verify_metric_vectors_injective(emb)


def test_tent_embedding_reuses_family_space(family3):
    # each family builds one distance table, which its geodesic family, tent
    # embedding and downhill walk all read
    from testspaces.generators import laakso, laakso_weighting
    from testspaces.markov import downhill_walk

    fam = family3.family
    assert fam.metric_space() is family3.space
    assert diamond_l1_embedding(fam).space is family3.space
    assert downhill_walk(fam).space is family3.space
    other = diamond(3, diamond_weighting())
    assert other == fam and other.metric_space() is not family3.space
    assert other.metric_space() == family3.space
    lk = laakso(2, laakso_weighting())
    assert downhill_walk(lk).space is lk.metric_space()


def verify_metric_vectors_injective(emb):
    return len(set(emb.vectors)) == len(emb.vectors)


def test_martingale_run_bounds(family3):
    fam = diamond(3, diamond_weighting())
    emb = diamond_l1_embedding(fam)
    run = martingale_from_embedding(family3, emb, steps=2)
    assert run.ell == F(1, 4)
    # M_0 is constant with value f(v) - f(u) of the 1-Lipschitz rescaling
    m0 = run.martingale.levels[0]
    assert len(m0.values) == 1
    rep = distortion(emb)
    fu = tuple(x / rep.lip for x in emb.vectors[fam.source])
    fv = tuple(x / rep.lip for x in emb.vectors[fam.sink])
    assert m0.values[0] == _sub(fv, fu)
    alpha = thickness_alpha(family3, 3).alpha
    need = run.ell * alpha / 4
    assert all(d >= need for d in run.diff_norms)
    report = martingale_check(run.martingale)
    assert report.valid


def test_martingale_interval_estimate(family3):
    # per processed interval: A||x-z|| + B||y-z|| >= ||x-y|| min(A,B) / 2,
    # where x, y are the two refined values and z the parent value
    fam = diamond(3, diamond_weighting())
    emb = diamond_l1_embedding(fam)
    run = martingale_from_embedding(family3, emb, steps=2)
    from testspaces.embeddings import norm as tnorm

    for odd, even in ((1, 2), (3, 4)):
        mo = run.martingale.levels[odd]
        me = run.martingale.levels[even]
        for i in range(len(mo.breaks) - 1):
            lo, hi = mo.breaks[i], mo.breaks[i + 1]
            inside = [
                j
                for j in range(len(me.breaks) - 1)
                if me.breaks[j] >= lo and me.breaks[j + 1] <= hi
            ]
            if len(inside) != 2:
                continue
            j0, j1 = inside
            A = me.breaks[j0 + 1] - me.breaks[j0]
            B = me.breaks[j1 + 1] - me.breaks[j1]
            x, y = me.values[j0], me.values[j1]
            z = mo.values[i]
            lhs = A * tnorm(run.martingale.target, _sub(x, z)) + B * tnorm(
                run.martingale.target, _sub(y, z)
            )
            assert lhs >= tnorm(run.martingale.target, _sub(x, y)) * min(A, B) / 2


def test_martingale_three_double_steps(family3):
    fam = diamond(3, diamond_weighting())
    emb = diamond_l1_embedding(fam)
    run = martingale_from_embedding(family3, emb, steps=3)
    assert len(run.martingale.levels) == 7
    assert martingale_check(run.martingale).valid
    assert all(d > 0 for d in run.diff_norms)


def test_martingale_check_locates_corruption(family3):
    fam = diamond(3, diamond_weighting())
    emb = diamond_l1_embedding(fam)
    run = martingale_from_embedding(family3, emb, steps=2)
    levels = list(run.martingale.levels)
    # shrink one interval value: stays inside the ball, breaks the averages
    vals = list(levels[2].values)
    vals[0] = tuple(x * F(9, 10) for x in vals[0])
    levels[2] = PiecewiseLevel(levels[2].breaks, tuple(vals))
    bad = Martingale(tuple(levels), run.martingale.target)
    report = martingale_check(bad)
    assert not report.valid
    assert not report.conditional_expectation_ok
    assert any("conditional expectation" in f for f in report.failures)


def _corrupted_martingales(mart):
    """(level, k): level k of the martingale with one value shrunk (as in
    `test_martingale_check_locates_corruption`), one value pushed out of the
    ball, one break and its interval dropped, or one value negated."""
    levels = list(mart.levels)

    def with_value(k, i, value):
        vals = list(levels[k].values)
        vals[i] = value
        return PiecewiseLevel(levels[k].breaks, tuple(vals))

    yield with_value(2, 0, tuple(x * F(9, 10) for x in levels[2].values[0])), 2
    yield with_value(1, 0, (F(2),) + levels[1].values[0][1:]), 1
    coarse = PiecewiseLevel(levels[3].breaks[:1] + levels[3].breaks[2:], levels[3].values[1:])
    yield coarse, 3
    yield with_value(4, 1, tuple(-x for x in levels[4].values[1])), 4


@pytest.mark.parametrize("n", [2, 3])
def test_martingale_check_matches_fraction_route(n):
    family = diamond_geodesic_family(n)
    emb = diamond_l1_embedding(family.family)
    for steps in (1, 2, 3):
        mart = martingale_from_embedding(family, emb, steps).martingale
        for bound in (F(1), F(1, 3), 2):
            assert repr(martingale_check(mart, bound)) == repr(martingale_check_fractions(mart, bound))
    for kind in ("linf", "summing", "l2"):
        other = Martingale(mart.levels, NormedTarget(kind, mart.target.dim))
        assert repr(martingale_check(other, F(1, 5))) == repr(martingale_check_fractions(other, F(1, 5)))
    flags = []
    for level, k in _corrupted_martingales(mart):
        bad = Martingale(mart.levels[:k] + (level,) + mart.levels[k + 1 :], mart.target)
        report = martingale_check(bad)
        assert repr(report) == repr(martingale_check_fractions(bad))
        assert not report.valid
        flags.append((report.bounded_ok, report.refinement_ok, report.conditional_expectation_ok))
    # a shrunk value breaks the averages only; a value outside the ball the
    # bound and the averages; a dropped break the refinement, and the next
    # level's averages against the coarser level
    assert flags[:3] == [(True, True, False), (False, True, False), (True, False, False)]


def test_malformed_levels_are_refused_at_construction():
    # ragged values (which martingale_check met as a numpy reshape error),
    # no interval, values of dimension 0, floats, and mixed entries
    third = (F(0), F(1, 3), F(1))
    for breaks, values in (
        (third, ((F(1), F(0)), (F(1),))),
        ((F(0),), ()),
        ((F(0), F(1)), ((),)),
        (third, ((0.5, 0.0), (0.0, 0.5))),
        (third, ((F(1), 0.5), (F(0), F(0)))),
    ):
        with pytest.raises(ValidationError):
            PiecewiseLevel(breaks, values)
    # inexact breaks: floats made martingale_l1_diff return a float, a NaN
    # passed the increase check, and an infinity reached the LP rescaling
    values = ((F(1),), (F(2),))
    for breaks in (
        (0.0, 0.5, 1.0),
        (F(0), math.nan, F(1)),
        (F(0), F(1, 2), math.inf),
        (-math.inf, F(1, 2), F(1)),
        (F(0), 0.5, F(1)),
    ):
        with pytest.raises(ValidationError, match="breaks must be exact"):
            PiecewiseLevel(breaks, values)
    assert PiecewiseLevel((0, F(1, 2), 1), values).breaks == (F(0), F(1, 2), F(1))


def test_constant_martingale_passes():
    level = PiecewiseLevel((F(0), F(1)), ((F(1, 2), F(0)),))
    level2 = PiecewiseLevel((F(0), F(1, 2), F(1)), ((F(1, 2), F(0)), (F(1, 2), F(0))))
    from testspaces.embeddings import NormedTarget

    mart = Martingale((level, level2), NormedTarget("l1", 2))
    report = martingale_check(mart)
    assert report.valid
    assert martingale_l1_diff(level, level2, mart.target) == 0


def test_gauge_kind_is_gone():
    with pytest.raises(ValidationError, match="unknown norm kind 'gauge'"):
        NormedTarget("gauge", 4)


def _bush_like(bush, levels=None, **fields):
    """The bush with some of its levels (rows per level), blocks, weights
    or delta replaced."""
    levels = bush_levels(bush) if levels is None else levels
    rows = [vec for level in levels for vec in level]
    parts = {"blocks": bush.blocks, "weights": bush.weights, "delta": bush.delta, **fields}
    return DeltaBush(bush.atoms, rows, [len(level) for level in levels], **parts)


def test_bush_must_sit_on_hyperplane(bush3):
    shifted = _bush_like(bush3, tuple(tuple(tuple(x + 1 for x in vec) for vec in lvl) for lvl in bush_levels(bush3)))
    with pytest.raises(ValidationError):
        broken_line_family(shifted, 1)


def _types(rows):
    return [[type(x) for x in row] for row in rows]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_tent_embedding_matches_tuple_route(n):
    for weighting in (None, diamond_weighting()):
        fam = diamond(n, weighting) if weighting else diamond(n)
        emb, want = diamond_l1_embedding(fam), tent_embedding_tuples(fam)
        assert emb == want
        assert _types(emb.vectors) == _types(want.vectors)
        assert {type(x) for v in emb.vectors for x in v} == {F}


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_broken_lines_match_scan_route(depth):
    bush = tree_to_bush(rademacher_tree(depth))
    lines = broken_line_family(bush, depth)
    want = broken_lines_by_scan(bush, depth)
    assert list(lines) == list(want)
    assert lines == want
    for lab, line in lines.items():
        assert [type(c) for c, _ in line.segments] == [type(c) for c, _ in want[lab].segments]


def test_broken_lines_on_uneven_weights():
    # one block of three children with weights 1/2, 1/4, 1/4: the line
    # numerators must keep products of distinct weights apart
    root = (1, 1, 1, 1)
    kids = ((2, 0, 1, 1), (0, 2, 2, 0), (0, 2, 0, 2))
    weights = ((), (F(1, 2), F(1, 4), F(1, 4)))
    bush = DeltaBush(4, (root,) + kids, (1, 3), ((), ((0, 1, 2),)), weights, F(1, 2))
    verify_bush(bush)
    assert broken_line_family(bush, 1) == broken_lines_by_scan(bush, 1)


def _corrupted_trees():
    tree = rademacher_tree(3)
    for lab, atom, delta in (("", 0, 1), ("01", 3, 2), ("110", 5, -1), ("1", 0, 0)):
        vectors = dict(tree_vectors(tree))
        vec = list(vectors[lab])
        vec[atom] += delta
        vectors[lab] = tuple(vec)
        yield DeltaTree(tree.depth, tree.atoms, list(vectors.values()), tree.delta)
    yield DeltaTree(tree.depth, tree.atoms, tree.table, F(3, 2))  # separation
    halved = [tuple(F(x, 2) for x in vec) for vec in tree.table.rows()]
    yield DeltaTree(tree.depth, tree.atoms, halved, F(1, 2))  # norms fail first
    # numerators past int64: the root keeps its norm, row "0" has a 0 at atom 0
    eps = F(1, 2**70)
    shifted = [(vec[0] + eps, vec[1] - eps) + vec[2:] for vec in tree.table.rows()]
    yield DeltaTree(tree.depth, tree.atoms, shifted, tree.delta)


def _error(check, arg):
    try:
        check(arg)
    except ValidationError as exc:
        return str(exc)
    return None


def test_tree_checks_match_fraction_route():
    for tree in _corrupted_trees():
        assert _error(verify_delta_tree, tree) == _error(verify_delta_tree_fractions, tree)
    messages = {_error(verify_delta_tree, tree) for tree in _corrupted_trees()}
    assert {"||x_root|| != 1", "separation fails below root", "||x_0|| != 1"} <= messages


def _corrupted_bushes():
    bush = tree_to_bush(rademacher_tree(3))
    change = lambda **fields: _bush_like(bush, **fields)
    weights = list(bush.weights)
    weights[2] = (F(3, 4),) + bush.weights[2][1:]
    yield change(weights=tuple(weights))  # block sum
    weights[2] = (F(3, 2), F(-1, 2)) + bush.weights[2][2:]
    yield change(weights=tuple(weights))  # negative weight
    levels = list(bush_levels(bush))
    levels[2] = (tuple(x + 1 for x in levels[2][0]),) + levels[2][1:]
    yield change(levels=tuple(levels))  # convexity
    yield change(delta=F(2))  # separation
    blocks = list(bush.blocks)
    blocks[3] = blocks[3][:-1] + ((6,),)
    weights = list(bush.weights)
    weights[3] = bush.weights[3][:6] + (F(1),) + bush.weights[3][7:]
    yield change(blocks=tuple(blocks), weights=tuple(weights))  # partition (7 missing)
    with pytest.raises(ValidationError, match=r"^a bush must start from a single vector \(m_0 = 1\)$"):
        change(levels=(bush_levels(bush)[1],) + bush_levels(bush)[1:])  # m_0 != 1, refused at construction
    big = tuple(tuple(tuple(x * 2**70 for x in vec) for vec in level) for level in bush_levels(bush))
    yield change(levels=big, delta=2**70)  # a valid bush past int64
    scaled = tuple(tuple(tuple(F(x, 3) for x in vec) for vec in level) for level in bush_levels(bush))
    yield change(levels=scaled, delta=F(1, 3))


def test_bush_checks_match_fraction_route():
    found = [_error(verify_bush, bush) for bush in _corrupted_bushes()]
    assert found == [_error(verify_bush_fractions, bush) for bush in _corrupted_bushes()]
    assert found[:3] == [
        "weights in block (2,0) sum to 5/4 != 1",
        "negative weight",
        "convexity identity fails at (2,0)",
    ]
    assert found[-1] is None


def test_l1_diff_refuses_levels_on_different_intervals():
    # each level's intervals are found on the merged grid; a level ending
    # before the other leaves merged intervals outside its partition
    level = PiecewiseLevel((F(0), F(1, 4), F(1, 2), F(1)), ((1,), (2,), (3,)))
    target = NormedTarget("l1", 1)
    assert martingale_l1_diff(level, level, target) == 0
    for end in (F(1, 2), F(3, 4), F(2)):
        other = PiecewiseLevel((F(0), F(1, 8), end), ((1,), (F(1, 3),)))
        for a, b in ((level, other), (other, level)):
            with pytest.raises(ValidationError, match="outside the partition"):
                martingale_l1_diff(a, b, target)


@pytest.mark.parametrize("n", [2, 3])
def test_martingale_matches_fraction_route(n):
    family = diamond_geodesic_family(n)
    emb = diamond_l1_embedding(family.family)
    for steps in (1, 2, 3):
        run = martingale_from_embedding(family, emb, steps)
        want = martingale_fractions(family, emb, steps)
        assert repr(run) == repr(want)  # values and types
        assert repr(martingale_check(run.martingale)) == repr(martingale_check(want.martingale))
        levels = run.martingale.levels
        for a, b in zip(levels, levels[1:]):
            diff = martingale_l1_diff(b, a, emb.target)
            assert type(diff) is F and diff == martingale_l1_diff_fractions(b, a, emb.target)


def test_martingale_l1_diff_targets():
    level = PiecewiseLevel((F(0), F(1, 3), F(1)), ((F(1), -2), (F(1, 2), F(5, 7))))
    other = PiecewiseLevel((F(0), F(1, 2), F(1)), ((3, F(1, 5)), (F(-1, 3), 0)))
    for kind in ("l1", "linf", "summing"):
        target = NormedTarget(kind, 2)
        want = martingale_l1_diff_fractions(level, other, target)
        assert martingale_l1_diff(level, other, target) == want
    with pytest.raises(ValidationError, match="exact rational norm"):
        martingale_l1_diff(level, other, NormedTarget("l2", 2))
    with pytest.raises(ValidationError, match="exact"):
        PiecewiseLevel(level.breaks, tuple(tuple(map(float, v)) for v in level.values))


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=50)


def _partition(draw, end=F(1)):
    """0 < ... < end, the interior breaks over one random denominator up to 3^20."""
    den = draw(st.integers(2, 3**20))
    cuts = draw(st.lists(st.integers(1, den - 1), max_size=5, unique=True))
    return (F(0),) + tuple(sorted(F(c, den) * end for c in cuts)) + (end,)


def _level_on(draw, breaks, dim):
    return PiecewiseLevel(breaks, tuple(tuple(draw(_SMALL) for _ in range(dim)) for _ in breaks[1:]))


def _refinements(draw, level):
    """Two refinements of the level on extra breaks over another denominator:
    one whose weighted averages give the level's values (each interval's last
    child solved for), and the same with one child value moved by 1/7."""
    breaks = tuple(sorted(set(level.breaks) | set(_partition(draw))))
    values = []
    for (lo, hi), value in zip(zip(level.breaks, level.breaks[1:]), level.values):
        kids = [(a, b) for a, b in zip(breaks, breaks[1:]) if lo <= a and b <= hi]
        rows = [tuple(draw(_SMALL) for _ in value) for _ in kids[:-1]]
        rest = [
            (hi - lo) * v - sum(((b - a) * row[t] for (a, b), row in zip(kids, rows)), F(0))
            for t, v in enumerate(value)
        ]
        a, b = kids[-1]
        values += rows + [tuple(x / (b - a) for x in rest)]
    moved = draw(st.integers(0, len(values) - 1))
    perturbed = list(values)
    perturbed[moved] = (values[moved][0] + F(1, 7),) + values[moved][1:]
    return PiecewiseLevel(breaks, tuple(values)), PiecewiseLevel(breaks, tuple(perturbed))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_levels_on_grids_of_different_scales(data):
    # diamond levels all share one power-of-two scale; here each level has
    # its own scale, with denominators up to 3^20
    draw, dim = data.draw, data.draw(st.integers(1, 3))
    a, b = (_level_on(draw, _partition(draw), dim) for _ in range(2))
    for kind in ("l1", "linf", "summing"):
        target = NormedTarget(kind, dim)
        diff = martingale_l1_diff(a, b, target)
        assert type(diff) is F and diff == martingale_l1_diff_fractions(a, b, target)
    averaged, perturbed = _refinements(draw, a)
    for fine in (averaged, perturbed, b):
        for bound in (F(1), F(100)):
            mart = Martingale((a, fine), NormedTarget("l1", dim))
            assert repr(martingale_check(mart, bound)) == repr(martingale_check_fractions(mart, bound))
    reports = [martingale_check(Martingale((a, f), NormedTarget("l1", dim)), F(100)) for f in (averaged, perturbed)]
    assert [report.conditional_expectation_ok for report in reports] == [True, False]
    other = _level_on(draw, _partition(draw, draw(st.sampled_from((F(1, 2), F(3, 2), F(2, 3**20))))), dim)
    for x, y in ((a, other), (other, a)):
        with pytest.raises(ValidationError, match="outside the partition"):
            martingale_l1_diff(x, y, NormedTarget("l1", dim))


def test_martingale_needs_exact_vectors(family3):
    from testspaces.embeddings import Embedding

    emb = diamond_l1_embedding(family3.family)
    floats = tuple(tuple(float(x) for x in v) for v in emb.vectors)
    with pytest.raises(ValidationError, match="exact"):
        martingale_from_embedding(family3, Embedding(emb.space, floats, emb.target), 1)


def _count_pivots(monkeypatch):
    calls = []
    original = exactlp._pivot

    def counted(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(exactlp, "_pivot", counted)
    return calls


def test_gauge_slack_start_on_unit_generators(monkeypatch, bush3):
    # delta-tree generators lie in the unit ball, where the gauge is the
    # normalized l1 norm: no LP runs and no constraint rows are built
    def no_lp(*args, **kwargs):
        raise AssertionError("unit-ball generators ran an LP")

    monkeypatch.setattr(rnp, "solve_lp", no_lp)
    gauge, lp_gauge = bush_gauge(bush3), bush_gauge(bush3)
    vecs = [vec for level in bush_levels(bush3) for vec in level]
    for v in vecs + [_sub(vecs[3], vecs[1]), _sub(vecs[5], vecs[0])]:
        assert gauge.evaluate(v) == gauge_by_phase_one(lp_gauge, v)
    assert "_rows" not in gauge.__dict__


def _gauge_vectors(bush, rng):
    """An int, a Fraction and a finite-float vector, and a bush difference."""
    atoms = bush.atoms
    return [
        tuple(rng.randint(-5, 5) for _ in range(atoms)),
        tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(atoms)),
        tuple(rng.uniform(-3, 3) for _ in range(atoms)),
        _sub(bush_levels(bush)[-1][-1], bush_levels(bush)[0][0]),
    ]


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_gauge_closed_form_matches_lp(depth):
    bush = tree_to_bush(rademacher_tree(depth))
    gauge = bush_gauge(bush)
    for v in _gauge_vectors(bush, random.Random(depth)):
        value = gauge.evaluate(v)
        assert type(value) is F
        assert value == normalized_l1(tuple(map(F, v)), bush.atoms)
        assert value == gauge_by_phase_one(gauge, v)


def test_gauge_generator_outside_the_ball_takes_the_lp(monkeypatch, bush3):
    # one generator at l1 = atoms + 1 leaves the closed form: every value
    # comes from the LP, and the generator itself has gauge below its norm
    calls = []
    original = rnp.solve_lp

    def counted(*args, **kwargs):
        calls.append(kwargs["basis"])
        return original(*args, **kwargs)

    monkeypatch.setattr(rnp, "solve_lp", counted)
    vecs = [vec for level in bush_levels(bush3) for vec in level]
    outside = (2,) + vecs[0][1:]
    assert sum(outside) == bush3.atoms + 1
    gauge = GaugeNorm(bush3.atoms, tuple(vecs) + (outside,))
    tests = _gauge_vectors(bush3, random.Random(5)) + [outside]
    for v in tests:
        value = gauge.evaluate(v)
        assert type(value) is F
        assert value == gauge_by_phase_one(gauge, v)
    assert len(calls) == len(tests)
    assert gauge.evaluate(outside) == 1 < normalized_l1(outside, bush3.atoms)


def test_gauge_slack_start_pivots_off_the_unit_ball(monkeypatch, bush3):
    # generators of norm 3 and 3/2 make the slack basis suboptimal, so the
    # Bland loop pivots; its value matches the two-phase Fraction tableau
    pivots = _count_pivots(monkeypatch)
    vecs = [vec for level in bush_levels(bush3) for vec in level]
    gens = tuple(tuple(3 * x for x in v) for v in vecs[:7]) + tuple(
        tuple(F(3, 2) * x - 1 for x in v) for v in vecs[7:]
    )
    gauge = GaugeNorm(bush3.atoms, gens)
    rng = random.Random(9)
    tests = [
        tuple(F(rng.randint(-8, 8), rng.choice((1, 2, 3))) for _ in range(8)) for _ in range(12)
    ]
    phase_two = 0
    for v in vecs + tests:
        del pivots[:]
        value = gauge.evaluate(v)
        phase_two += len(pivots) - bush3.atoms
        assert value == gauge_by_phase_one(gauge, v)
        assert type(value) is F
    assert phase_two >= 20


def test_slope_jumps_match_fractions():
    from testspaces.embeddings import norm as tnorm

    rng = random.Random(12)
    for kind in ("l1", "linf", "summing"):
        target = NormedTarget(kind, 5)
        for _ in range(20):
            rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
            den = rng.randint(1, 7)
            A, B = F(rng.randint(1, 9), rng.randint(1, 4)), F(rng.randint(1, 9), rng.randint(1, 4))
            f = [tuple(F(x, den) for x in row) for row in rows]
            want = []
            for z in (2, 3):
                right = tuple((y - x) / B for x, y in zip(f[z], f[1]))
                left = tuple((x - w) / A for w, x in zip(f[0], f[z]))
                want.append(tnorm(target, _sub(right, left)))
            table = np.array(rows, dtype=object)
            scale = math.lcm(A.denominator, B.denominator)  # the gaps as integer steps
            steps = (int(A * scale), int(B * scale))
            assert _slope_jumps(target, table, den, (0, 1), (2, 3), steps, scale) == want


def test_malformed_trees_and_generators_are_refused_at_construction():
    tree = rademacher_tree(2)
    vectors = dict(tree_vectors(tree))
    missing = [vec for lab, vec in vectors.items() if lab != "01"]
    extra = [*vectors.values(), vectors["00"]]
    ragged = list({**vectors, "1": vectors["1"][:3]}.values())
    floats = [tuple(map(float, vec)) for vec in vectors.values()]
    for bad in (missing, extra, ragged, floats, vectors):  # a dict by label is no table
        with pytest.raises(ValidationError):
            DeltaTree(2, 4, bad, F(1))
    gens = [vec for level in bush_levels(tree_to_bush(tree)) for vec in level]
    short, ragged = gens + [(1, 1, 1)], [(1, 1, 1)] + gens
    for bad in ([gens[0][:3]], short, ragged, [tuple(map(float, gens[0]))], [(0.5, 0, 0, 0)]):
        with pytest.raises(ValidationError):
            GaugeNorm(4, bad)
    assert DeltaTree(2, 4, list(vectors.values()), F(1)) == tree  # the rows in label order


@pytest.mark.parametrize(
    "depth,tree",
    [(24, rademacher_tree(2)), (-1, None), (True, rademacher_tree(1))],
    ids=["24-with-7-rows", "-1", "True"],
)
def test_delta_tree_depth_is_an_int_at_least_zero(depth, tree):
    # depth 24 used to build 2^25 labels before it compared the row count,
    # and -1 (which verify_delta_tree then passed) and True were accepted
    atoms, rows = (tree.atoms, tree.table) if tree else (2, [[1, 1]])
    started = time.perf_counter()
    with pytest.raises(ValidationError, match=rf"^need an int depth >= 0 .* got depth {depth!r}$"):
        DeltaTree(depth, atoms, rows, 1)
    assert time.perf_counter() - started < 0.5


def test_martingale_levels_take_the_target_dimension():
    one = PiecewiseLevel((F(0), F(1)), ((F(1),),))
    two = PiecewiseLevel((F(0), F(1)), ((F(1), F(1)),))
    with pytest.raises(ValidationError, match="dimension 2"):
        martingale_l1_diff(one, two, NormedTarget("l1", 2))
    with pytest.raises(ValidationError, match="dimension 1"):
        martingale_l1_diff(one, two, NormedTarget("l1", 1))
    for levels in ((one, two), (two, two)):
        with pytest.raises(ValidationError, match="dimension 7"):
            Martingale(levels, NormedTarget("l1", 7))
    assert martingale_check(Martingale((two, two), NormedTarget("l1", 2)), F(2)).valid


def _set(parts, n, value):
    """parts with entry n replaced."""
    return parts[:n] + (value,) + parts[n + 1 :]


def _cut_to_first_block(bush):
    """The bush's last level cut to the members of its first block."""
    levels, n = bush_levels(bush), len(bush.sizes) - 1
    first = bush.blocks[n][0]
    return dict(
        levels=levels[:n] + (tuple(levels[n][j] for j in first),),
        blocks=_set(bush.blocks, n, (tuple(range(len(first))),)),
        weights=_set(bush.weights, n, tuple(bush.weights[n][j] for j in first)),
    )


MALFORMED_BUSHES = {  # case: (depth of the tree bush, its changed fields, the message)
    "member outside the level": (
        3,
        lambda b: dict(blocks=_set(b.blocks, 3, b.blocks[3][:-1] + ((6, 8),))),
        r"^level 3 needs 4 blocks of members in range\(8\) and 8 weights$",
    ),
    "negative member": (3, lambda b: dict(blocks=_set(b.blocks, 3, b.blocks[3][:-1] + ((6, -1),))), "level 3 "),
    "fewer weights than vectors": (3, lambda b: dict(weights=_set(b.weights, 2, b.weights[2][:-1])), "level 2 "),
    "more weights than vectors": (3, lambda b: dict(weights=_set(b.weights, 1, b.weights[1] + (F(0),))), "level 1 "),
    "float weight": (3, lambda b: dict(weights=_set(b.weights, 2, (0.5,) + b.weights[2][1:])), "must be exact"),
    "blocks missing for a level": (3, lambda b: dict(blocks=b.blocks[:-1]), r"levels 1\.\.3 only"),
    "weights missing for a level": (3, lambda b: dict(weights=b.weights[:-1]), r"levels 1\.\.3 only"),
    "blocks given for level 0": (3, lambda b: dict(blocks=_set(b.blocks, 0, ((0,),))), r"levels 1\.\.3 only"),
    "more blocks than vectors above": (3, lambda b: dict(blocks=_set(b.blocks, 2, b.blocks[2] + ((),))), "2 blocks"),
    "fewer blocks than vectors above": (2, _cut_to_first_block, "level 2 needs 2 blocks"),
}


@pytest.mark.parametrize("case", MALFORMED_BUSHES)
def test_malformed_bush_shapes_are_refused_at_construction(case):
    # each of these shapes used to reach verify_bush, broken_line_family or
    # bush_gauge_delta, which raised IndexError or let it through
    depth, change, message = MALFORMED_BUSHES[case]
    bush = tree_to_bush(rademacher_tree(depth))
    with pytest.raises(ValidationError, match=message):
        _bush_like(bush, **change(bush))


@pytest.mark.parametrize("delta", [0.5, 1.0, float("nan"), float("inf"), True, "1/2", None])
def test_inexact_delta_is_refused_at_construction(delta):
    # a float delta used to raise AttributeError from verify_delta_tree and verify_bush
    tree = rademacher_tree(2)
    bush = tree_to_bush(tree)
    with pytest.raises(ValidationError, match="delta must be exact"):
        DeltaTree(tree.depth, tree.atoms, tree.table, delta)
    with pytest.raises(ValidationError, match="delta must be exact"):
        DeltaBush(bush.atoms, bush.table, bush.sizes, bush.blocks, bush.weights, delta)
    assert DeltaTree(tree.depth, tree.atoms, tree.table, 0).delta == 0  # an int is exact


def test_bush_shapes_are_stored_as_tuples():
    # sizes, blocks and weights given as lists make the same, hashable bush
    bush = tree_to_bush(rademacher_tree(3))
    blocks = [[list(block) for block in level] for level in bush.blocks]
    listed = DeltaBush(bush.atoms, bush.table, list(bush.sizes), blocks, list(map(list, bush.weights)), bush.delta)
    assert listed == bush and hash(listed) == hash(bush) and repr(listed) == repr(bush)
    assert type(listed.sizes) is type(listed.blocks[1][0]) is type(listed.weights[1]) is tuple


@st.composite
def valid_bushes(draw):
    """A bush of depth <= 3 over 2-4 atoms: blocks of 1-3 vectors in a drawn
    row order, exact positive weights, vectors on the mean-1 hyperplane with
    the last of each block solved from its identity; delta 0, 1/4 or 1, so
    that a separation may fail."""
    atoms, depth = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    levels, blocks, weights = [((F(1),) * atoms,)], [()], [()]
    for _ in range(depth):
        members, block_sizes = [], []  # (vector, weight) in block order
        for parent in levels[-1]:
            raw = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
            ws = [F(r, sum(raw)) for r in raw]
            kids = []
            for _ in ws[:-1]:
                head = [F(draw(st.integers(-4, 4)), 2) for _ in range(atoms - 1)]
                kids.append(tuple(head) + (atoms - sum(head),))
            rest = [p - sum(w * kid[a] for w, kid in zip(ws, kids)) for a, p in enumerate(parent)]
            kids.append(tuple(x / ws[-1] for x in rest))
            members += zip(kids, ws)
            block_sizes.append(len(ws))
        order = draw(st.permutations(range(len(members))))  # member i is row order[i] of its level
        rows, level_weights = [None] * len(members), [None] * len(members)
        for i, (vec, w) in zip(order, members):
            rows[i], level_weights[i] = vec, w
        ends = list(itertools.accumulate(block_sizes, initial=0))
        blocks.append(tuple(tuple(order[a:b]) for a, b in zip(ends, ends[1:])))
        levels.append(tuple(rows))
        weights.append(tuple(level_weights))
    rows = [vec for level in levels for vec in level]
    delta = draw(st.sampled_from([F(0), F(1, 4), F(1)]))
    return DeltaBush(atoms, rows, [len(level) for level in levels], tuple(blocks), tuple(weights), delta)


@settings(max_examples=40, deadline=None)
@given(valid_bushes())
def test_random_bushes_match_the_fraction_routes(bush):
    assert _error(verify_bush, bush) == _error(verify_bush_fractions, bush)
    depth = len(bush.sizes) - 1
    lines, want = broken_line_family(bush, depth), broken_lines_by_scan(bush, depth)
    assert repr(lines) == repr(want)
    for lab, line in lines.items():
        assert [type(c) for c, _ in line.segments] == [type(c) for c, _ in want[lab].segments]
        assert line.coefficients_sum() == 1


def test_broken_line_depth_is_checked():
    bush = tree_to_bush(rademacher_tree(2))
    with pytest.raises(ValidationError, match=">= 0"):
        broken_line_family(bush, -1)
    with pytest.raises(ValidationError, match="exceeds bush depth"):
        broken_line_family(bush, 3)


def test_broken_line_cap_counts_every_segment(monkeypatch):
    # the bound, taken before any line is built, is the family's own count
    # on these bushes: 2^l lines of (2 * widest block)^l segments per length l
    root = (1, 1, 1, 1)
    kids = ((2, 0, 1, 1), (0, 2, 2, 0), (0, 2, 0, 2))
    weights = ((), (F(1, 2), F(1, 4), F(1, 4)))
    uneven = DeltaBush(4, (root,) + kids, (1, 3), ((), ((0, 1, 2),)), weights, F(1, 2))
    cases = [(tree_to_bush(rademacher_tree(d)), k) for d in (1, 3, 4) for k in range(d + 1)] + [(uneven, 1)]
    totals = [sum(len(line.segments) for line in broken_line_family(*case).values()) for case in cases]
    for (bush, k), total in zip(cases, totals):
        assert total == sum((12 if bush is uneven else 8) ** length for length in range(k + 1))
        monkeypatch.setattr(rnp, "LINE_SEGMENT_CAP", total)
        broken_line_family(bush, k)
        monkeypatch.setattr(rnp, "LINE_SEGMENT_CAP", total - 1)
        want = f"^the number of broken-line segments of labels of length <= {k} exceeds cap {total - 1}$"
        with pytest.raises(CapExceededError, match=want):
            broken_line_family(bush, k)
    monkeypatch.undo()
    with pytest.raises(CapExceededError):
        broken_line_family(tree_to_bush(rademacher_tree(7)), 7)


def _load_workloads():
    """perfbench/workloads.py, imported by path from the repository root."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module


def test_the_library_reads_only_the_tables(monkeypatch, capsys):
    # every row view (of an embedding, a martingale level, and the tests'
    # views of trees and bushes) goes through RationalTable.rows; a line's
    # segments are a view too, and after construction a bush's blocks and
    # weights are read through its child table only
    from testspaces.cli import main
    from testspaces.metric_core import RationalTable

    def unread(self, *args):
        raise AssertionError("library code read a table's rows, a line's segments or a bush's tuples")

    class Unread:
        __getitem__ = __iter__ = __len__ = __eq__ = __hash__ = unread

    build = DeltaBush.__post_init__

    def post_init(bush):
        build(bush)
        vars(bush).update(blocks=Unread(), weights=Unread())

    monkeypatch.setattr(RationalTable, "rows", unread)
    monkeypatch.setattr(BrokenLine, "segments", property(unread))
    monkeypatch.setattr(DeltaBush, "__post_init__", post_init)
    for argv in (["rnp", "tree", "--n", "6"], ["rnp", "lines", "--depth", "3"]):
        assert main(argv) == 0, capsys.readouterr().out
    rnp_lines = _load_workloads()._rnp_lines(4)
    assert rnp_lines == {"lines": 31, "gauge_delta": 1, "deviation": F(1, 2)}
    family = diamond_geodesic_family(2)
    run = martingale_from_embedding(family, diamond_l1_embedding(family.family), 1)
    for kind in ("l1", "l2"):
        martingale_check(Martingale(run.martingale.levels, NormedTarget(kind, run.martingale.target.dim)))
