"""RNP pipeline: delta-trees/bushes, gauge LP, broken lines, thickness,
martingales."""

import random
from fractions import Fraction as F

import pytest

from testspaces.embeddings import distortion
from testspaces.errors import CapExceededError, ValidationError
from testspaces.generators import diamond, diamond_weighting
from testspaces.rnp import (
    FAMILY_GEODESIC_CAP,
    BrokenLine,
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
    verify_delta_tree,
    _l1n,
    _sub,
)

from _oracles import pairwise_distortion, thickness_by_pairs


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
        root = tree.vectors[""]
        assert all(v == 1 for v in root)
        for lab, vec in tree.vectors.items():
            assert _l1n(vec, tree.atoms) == 1
            if lab:
                assert _l1n(_sub(vec, tree.vectors[lab[:-1]]), tree.atoms) == 1


def test_tree_to_bush_structure(bush3):
    assert len(bush3.levels[0]) == 1
    assert bush3.blocks[1] == ((0, 1),)
    assert bush3.weights[1] == (F(1, 2), F(1, 2))
    assert bush3.delta == 1


def test_gauge_values(bush3, gauge3):
    zero = tuple(F(0) for _ in range(bush3.atoms))
    assert gauge3.evaluate(zero) == 0
    for level in bush3.levels:
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
        assert gv <= _l1n(v, 8)
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
    root = bush3.levels[0][0]
    for line in lines.values():
        # sum of gauge lengths = sum of coefficients (per-vector gauge is 1)
        assert line.coefficients_sum() == 1
        assert line.vertices(bush3)[-1][1] == tuple(F(x) for x in root)
    # direct gauge evaluation on a few segments confirms the shortcut
    seg_coef, (lvl, j) = lines["01"].segments[0]
    direct = gauge3.evaluate(tuple(seg_coef * x for x in bush3.levels[lvl][j]))
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
        own = set(line.vertices(bush3))
        for other_lab, other in lines.items():
            if other_lab != lab and other_lab.startswith(lab):
                assert own <= set(other.vertices(bush3))


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


def test_thickness_matches_pair_loop(family3):
    # work_cap=300 truncates the control sets, so `partial` is compared too
    for fam in [diamond_geodesic_family(n) for n in range(3)] + [family3]:
        for budget in range(8):
            for cap in (10**7, 300):
                assert repr(thickness_alpha(fam, budget, cap)) == repr(thickness_by_pairs(fam, budget, cap))


def test_thickness_d3_budget_profile(family3):
    values = [thickness_alpha(family3, b).alpha for b in range(5)]
    assert values == [F(1), F(3, 4), F(1, 2), F(1, 4), F(0)]
    # alpha is non-increasing as control sets grow
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_geodesic_family_cap_fires_before_pair_tables(family3):
    assert len(family3.geodesics) == 128 <= FAMILY_GEODESIC_CAP
    with pytest.raises(CapExceededError):
        diamond_geodesic_family(4)  # 32768 geodesics, ~1.07e9 pair-table entries


def test_thickness_single_geodesic_family():
    fam = diamond_geodesic_family(0)
    assert len(fam.geodesics) == 1
    assert thickness_alpha(fam, 0).alpha == 0


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
    there = family3.vertex_at(0, F(1, 2))
    assert family3.vertex_at(resp.geodesic, F(1, 2)) == there
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
    # the family's apsp table gives the embedding a one-argument call builds
    assert diamond_l1_embedding(family3.family, family3.space) == diamond_l1_embedding(
        family3.family
    )


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


def test_constant_martingale_passes():
    level = PiecewiseLevel((F(0), F(1)), ((F(1, 2), F(0)),))
    level2 = PiecewiseLevel((F(0), F(1, 2), F(1)), ((F(1, 2), F(0)), (F(1, 2), F(0))))
    from testspaces.embeddings import NormedTarget

    mart = Martingale((level, level2), NormedTarget("l1", 2))
    report = martingale_check(mart)
    assert report.valid
    assert martingale_l1_diff(level, level2, mart.target) == 0


def test_gauge_as_normed_target(bush3, gauge3):
    from testspaces.embeddings import NormedTarget, norm

    target = NormedTarget("gauge", bush3.atoms, gauge=gauge3)
    assert norm(target, bush3.levels[1][0]) == 1
    diff = _sub(bush3.levels[1][0], bush3.levels[1][1])
    assert norm(target, diff) == gauge3.evaluate(diff)


def test_gauge_distortion_matches_pair_loop(bush3, gauge3):
    # gauge norms of the integer difference rows, compared exactly
    from testspaces.embeddings import Embedding, NormedTarget
    from testspaces.metric_core import apsp, path_graph

    vecs = (bush3.levels[0][0], bush3.levels[1][0], bush3.levels[1][1])
    target = NormedTarget("gauge", bush3.atoms, gauge=gauge3)
    emb = Embedding(apsp(path_graph(3)), vecs, target)
    assert repr(distortion(emb)) == repr(pairwise_distortion(emb))
    with pytest.raises(ValidationError, match="exact vectors only"):
        Embedding(emb.space, tuple(tuple(float(x) for x in v) for v in vecs), target)


def test_bush_must_sit_on_hyperplane(bush3):
    shifted = type(bush3)(
        bush3.atoms,
        tuple(tuple(tuple(x + 1 for x in vec) for vec in lvl) for lvl in bush3.levels),
        bush3.blocks,
        bush3.weights,
        bush3.delta,
    )
    with pytest.raises(ValidationError):
        broken_line_family(shifted, 1)
