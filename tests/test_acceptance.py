"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers.  Tolerances are pinned here, not configurable.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import math
import time
from fractions import Fraction as F

import pytest

from testspaces.embeddings import bourgain_distortion, james_alpha
from testspaces.generators import (
    UNIT,
    diamond,
    diamond_weighting,
    heisenberg_ball,
    laakso,
    laakso_weighting,
)
from testspaces.l2_distortion import (
    fork_gap_estimate,
    fork_select,
    min_distortion_l2,
    normalize_noncontractive,
)
from testspaces.markov import (
    downhill_walk,
    exact_convexity,
    mc_convexity,
    tree_walk_convexity_exact,
    tree_walk_convexity_mc,
)
from testspaces.metric_core import MetricSpace, apsp
from testspaces.rnp import (
    broken_line_family,
    bush_gauge,
    bush_gauge_delta,
    diamond_geodesic_family,
    diamond_l1_embedding,
    martingale_check,
    martingale_from_embedding,
    rademacher_tree,
    sibling_deviation,
    thickness_alpha,
    tree_to_bush,
    verify_delta_tree,
)

from _oracles import (
    _sub,
    adjacency,
    bush_levels,
    dijkstra_fractions,
    heisenberg_ball_by_words,
    min_l2_distortion_points,
    normalized_l1,
    vertex_pairs,
)


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS  {text}")


def test_criterion_1_markov_tree_walk_numbers():
    """rhs = 2^m exactly and piLower >= sqrt(m) for m = 1..6, p = 2."""
    started = time.time()
    pis = []
    for m in range(1, 7):
        est = tree_walk_convexity_exact(m, 2)
        assert est.rhs == 2**m, f"rhs != 2^{m}"
        assert est.lhs / est.rhs >= m, f"piLower < sqrt({m})"
        pis.append(est.pi_lower)
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(1, f"rhs=2^m and piLower>=sqrt(m) for m=1..6 (pi: "
               f"{', '.join(f'{x:.3f}' for x in pis)}; {elapsed:.1f}s)")


def test_criterion_2_monte_carlo_vs_dp():
    """1e5-sample estimates within 3 standard errors of exact values."""
    checks = []
    for m in range(1, 5):
        started = time.time()
        exact = tree_walk_convexity_exact(m, 2)
        mc = tree_walk_convexity_mc(m, 2.0, seed=2024, samples=100_000)
        dev = abs(mc.lhs - float(exact.lhs))
        assert dev <= 3 * mc.method.lhs_stderr, f"tree m={m} lhs off by {dev}"
        assert mc.rhs == float(exact.rhs)
        elapsed = time.time() - started
        assert elapsed < 60.0
        checks.append(f"T_{2**m}:{dev / mc.method.lhs_stderr:.2f}se")
    for maker, weighting, name in (
        (diamond, diamond_weighting(), "D"),
        (laakso, laakso_weighting(), "L"),
    ):
        for n in (1, 2):
            started = time.time()
            wb = downhill_walk(maker(n, weighting))
            exact = exact_convexity(wb.chain, wb.metric_map, wb.space, 2)
            mc = mc_convexity(wb.chain, wb.metric_map, wb.space, 2.0, seed=2024, samples=100_000)
            dev = abs(mc.lhs - float(exact.lhs))
            assert dev <= 3 * mc.method.lhs_stderr
            rdev = abs(mc.rhs - float(exact.rhs))
            assert rdev <= 3 * mc.method.rhs_stderr or rdev == 0.0
            elapsed = time.time() - started
            assert elapsed < 60.0
            checks.append(f"{name}_{n}:{dev / mc.method.lhs_stderr:.2f}se")
    _report(2, "MC within 3se of exact DP on " + ", ".join(checks))


def test_criterion_3_bourgain_uniform_bound():
    """Exact rational distortion <= 3 for n = 1..12, the largest depth under
    the table cap; grid alpha exactly 1/3."""
    worst = F(0)
    for n in range(1, 13):
        rep = bourgain_distortion(n)
        assert rep.distortion <= 3, f"distortion(F_{n}) = {rep.distortion} > 3"
        worst = max(worst, rep.distortion)
    res = james_alpha(6)
    assert res.empirical == F(1, 3)
    # the minimizing pattern (1, -2): sup of partial sums 1, block sums 1 + 2
    assert F(max(abs(1), abs(1 - 2)), abs(1) + abs(-2)) == F(1, 3)
    assert tuple(sorted(abs(c) for c in james_alpha(2).witness_coeffs)) == (1, 2)
    _report(3, f"distortion(F_n) <= 3 for n=1..12 (max {worst}); james grid = 1/3")


def test_criterion_4_euclidean_optimum(tree_l2_optimum):
    """1 on triangles, sqrt(2) on C_4 vs the coordinate-descent oracle,
    monotone c*(T_n)."""
    from testspaces.generators import cycle

    started = time.time()
    triangles = [
        ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
        ((0, 1, 2), (1, 0, 2), (2, 2, 0)),
        ((0, 2, 3), (2, 0, 4), (3, 4, 0)),
        ((0, 5, 5), (5, 0, 1), (5, 1, 0)),
    ]
    for rows in triangles:
        sp = MetricSpace(tuple(tuple(F(x) for x in r) for r in rows))
        res = min_distortion_l2(sp, tol=1e-4)
        assert abs(res.c_star - 1.0) <= 1e-4
        assert time.time() - started < 120.0

    c4 = apsp(cycle(4))
    started4 = time.time()
    res = min_distortion_l2(c4, tol=1e-4)
    assert time.time() - started4 < 120.0
    oracle = min_l2_distortion_points(c4.dist, 2, seed=7)
    assert abs(res.c_star - oracle) <= 1e-3
    assert abs(res.c_star - math.sqrt(2)) <= 1e-3

    cs = []
    for n in range(1, 6):
        startn = time.time()
        cs.append(tree_l2_optimum(n).c_star)
        assert time.time() - startn < 120.0
    assert abs(cs[0] - 1.0) <= 1e-4
    for a, b in zip(cs, cs[1:]):
        assert b >= a - 1e-3, f"c*(T_n) not nondecreasing: {cs}"
    _report(4, f"triangles=1, C_4={res.c_star:.5f}~sqrt2 (oracle {oracle:.5f}), "
               f"c*(T_1..5) = {', '.join(f'{c:.4f}' for c in cs)}")


def test_criterion_5_kloeckner_pipeline(tree_l2_optimum):
    """fork_select halves T_4 and T_6 without worsening distortion; the
    improvement clears the fork-gap estimate at the measured D."""
    notes = []
    for n in (4, 6):
        res = tree_l2_optimum(n)
        emb, rep = normalize_noncontractive(res.embedding)
        sel = fork_select(n, emb)  # raises unless exactly isometric to T_{n//2}
        d_in = float(sel.input_report.distortion)
        d_out = float(sel.report.distortion)
        assert d_out <= d_in + 1e-9
        est = fork_gap_estimate(d_in)
        assert est.feasible
        assert sel.improvement >= est.gap - 1e-3, (
            f"T_{n}: improvement {sel.improvement} below gap {est.gap}"
        )
        notes.append(f"T_{n}: {d_in:.4f}->{d_out:.4f} (gap {est.gap:.4f})")
    _report(5, "; ".join(notes))


def test_criterion_6_delta_tree_exactness():
    """Midpoint identity, unit norms, unit separation, exactly, n <= 10."""
    for n in range(1, 11):
        tree = rademacher_tree(n)
        verify_delta_tree(tree)
        assert tree.table.scale == 1
        rows = tree.table.num.tolist()  # label order: row i's parent is row (i - 1) // 2
        for i, vec in enumerate(rows):
            assert normalized_l1(vec, tree.atoms) == 1
            if i:
                assert normalized_l1(_sub(vec, rows[(i - 1) // 2]), tree.atoms) == 1
    _report(6, "rademacher_tree(n) exact for n = 1..10 (identities, norms, separation)")


def test_criterion_7_broken_lines():
    """Depth-3 bush pipeline: gauge-geodesic lines, deviation >= delta/2,
    vertex-set monotonicity under all extensions."""
    bush = tree_to_bush(rademacher_tree(3))
    gauge = bush_gauge(bush)
    for level in bush_levels(bush):
        for vec in level:
            assert gauge.evaluate(vec) == 1
    delta = bush_gauge_delta(bush, gauge)
    lines = broken_line_family(bush, 3)
    for line in lines.values():
        assert line.coefficients_sum() == 1  # sum of gauge lengths, exactly
    devs = []
    for lab in ("", "0", "1", "00", "01", "10", "11"):
        dev = sibling_deviation(bush, gauge, lines[lab + "0"], lines[lab + "1"])
        assert dev >= delta / 2
        devs.append(dev)
    for lab, line in lines.items():
        own = set(vertex_pairs(line, bush))
        for other_lab, other in lines.items():
            if other_lab != lab and other_lab.startswith(lab):
                assert own <= set(vertex_pairs(other, bush))
    _report(7, f"15 lines geodesic; sibling deviations >= delta/2 = {delta/2} "
               f"(min {min(devs)}); vertex monotonicity exact")


def test_criterion_8_martingale_bound():
    """Weighted D_3, measured-ell tent embedding, certified alpha, K = 2."""
    family = diamond_geodesic_family(3)
    emb = diamond_l1_embedding(diamond(3, diamond_weighting()))
    cert = thickness_alpha(family, 3)
    run = martingale_from_embedding(family, emb, steps=2)
    need = run.ell * cert.alpha / 4
    assert len(run.diff_norms) == 2
    for k, d in enumerate(run.diff_norms, start=1):
        assert d >= need, f"||M_{2*k} - M_{2*k-1}|| = {d} < {need}"
    report = martingale_check(run.martingale)
    assert report.valid
    assert report.conditional_expectation_ok and report.bounded_ok
    _report(8, f"ell = {run.ell}, alpha = {cert.alpha}, diffs = "
               f"{tuple(str(d) for d in run.diff_norms)} >= ell*alpha/4 = {need}; "
               "conditional expectations and bounds exact")


def test_criterion_9_cycle_into_tree_slice():
    """Exhaustive C_8 -> trees on <= 6 vertices: nothing below 5/3."""
    from testspaces.embeddings import cycle_tree_lower_oracle

    started = time.time()
    res = cycle_tree_lower_oracle(8, 6)
    elapsed = time.time() - started
    assert elapsed < 600.0
    bound = F(8, 3) - 1
    assert res.bound == bound
    # every map of 8 cycle vertices into <= 6 tree vertices collapses a pair,
    # so the minimum is vacuously above the bound; asserted as stated
    assert res.min_distortion is None or res.min_distortion >= bound
    # non-vacuous companions on C_6 and C_7: finite minima, still above m/3 - 1
    res6 = cycle_tree_lower_oracle(6, 6)
    assert res6.min_distortion is not None
    assert res6.min_distortion >= F(6, 3) - 1
    res7 = cycle_tree_lower_oracle(7, 7)
    assert res7.min_distortion is not None
    assert res7.min_distortion >= F(7, 3) - 1
    _report(9, f"C_8/<=6: min = {res.min_distortion} (all maps collapse; "
               f"{res.maps_searched} maps, {elapsed:.1f}s); C_6/<=6: min = {res6.min_distortion} >= 1; "
               f"C_7/<=7: min = {res7.min_distortion} >= 4/3")


def test_criterion_10_generator_ground_truth():
    """Counts, weighted-level isometric injections (n <= 4), Heisenberg balls
    vs the word-enumeration oracle (r <= 4)."""
    d2 = diamond(2, diamond_weighting())
    assert d2.graph.size == 12 and len(d2.graph.edges) == 16
    assert laakso(1, laakso_weighting()).graph.size == 6

    for maker, weighting in ((diamond, diamond_weighting()), (laakso, laakso_weighting())):
        prev = None
        for n in range(5):
            fam = maker(n, weighting)
            if prev is not None:
                old = fam.vertex_counts[-2]
                adj = adjacency(fam.graph)
                for src in range(old):
                    dist = dijkstra_fractions(adj, src)
                    for v in range(old):
                        assert dist[v] == prev.d(src, v)
            prev = apsp(fam.graph) if n <= 3 else None

    sizes = []
    for r in range(5):
        ball = heisenberg_ball(r)
        oracle = heisenberg_ball_by_words(r)
        assert ball.size == len(oracle)
        ident = ball.labels.index("0,0,0")
        for i, lab in enumerate(ball.labels):
            g = tuple(int(x) for x in lab.split(","))
            assert ball.d(ident, i) == oracle[g]
        sizes.append(ball.size)
    _report(10, f"V(D_2)=12, E(D_2)=16, V(L_1)=6; injections isometric n<=4; "
                f"Heisenberg balls {sizes} match the word oracle")
