"""Euclidean optimum via SDP feasibility + bisection, and the fork pipeline."""

import dataclasses
import functools
import math
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from _oracles import fork_gap_slsqp, sdp_feasible_loop, tree_label_distance, witness_bound
from testspaces import l2_distortion
from testspaces.embeddings import Embedding, NormedTarget, distortion
from testspaces.errors import UndecidedError, ValidationError
from testspaces.generators import (
    binary_tree,
    cycle,
    diamond,
    fork,
    heisenberg_ball,
    laakso,
    tree_labels,
)
from testspaces.l2_distortion import (
    fork_gap_estimate,
    fork_select,
    kloeckner_bound,
    min_distortion_l2,
    normalize_noncontractive,
    sdp_feasible,
)
from testspaces.metric_core import MetricSpace, apsp, path_graph


def _triangle(a, b, c):
    return MetricSpace(
        ((F(0), F(a), F(b)), (F(a), F(0), F(c)), (F(b), F(c), F(0)))
    )


def test_three_point_spaces_embed_isometrically():
    for tri in (_triangle(1, 1, 1), _triangle(1, 2, 3), _triangle(2, 3, 4)):
        res = min_distortion_l2(tri)
        assert res.c_star == pytest.approx(1.0, abs=1e-4)


def test_two_point_space():
    sp = MetricSpace(((F(0), F(3)), (F(3), F(0))))
    assert min_distortion_l2(sp).c_star == pytest.approx(1.0, abs=1e-4)


def test_space_without_a_positive_distance_is_rejected():
    sp = MetricSpace(((F(0), F(0)), (F(0), F(0))))
    with pytest.raises(ValidationError, match="positive distance"):
        min_distortion_l2(sp)


def test_c4_feasibility_thresholds():
    c4 = apsp(cycle(4)).scaled(F(1, 2))
    out = sdp_feasible(c4, 1.2, _mds(c4))
    # the first swept iterate proves c = 1.2 impossible; c_2(C_4)^2 = 2, so
    # no witness proves more than 2
    assert (out.status, out.iterations, out.certificate) == ("infeasible", 1, None)
    assert F(1.2) ** 2 < out.witness.bound == witness_bound(c4, out.witness.A) <= 2
    out = sdp_feasible(c4, 1.5, _mds(c4))
    assert (out.status, out.witness) == ("feasible", None)
    assert out.certificate.max_psd_violation <= 1e-7
    assert out.certificate.max_constraint_violation <= 1e-7
    # unit D_2 at 1.77 has no witness: the best residual after iteration 31
    # improves on the one after iteration 6 by at most STALL_REL, so the
    # window that ends at 31 gives the verdict (at 50 on checkpoints)
    d2 = _unit_diameter(apsp(diamond(2).graph))
    stalled = sdp_feasible(d2, 1.77, _mds(d2))
    assert (stalled.status, stalled.iterations) == ("stalled", l2_distortion.STALL_WINDOW + 6)
    assert sdp_feasible_loop(d2, 1.77, _mds(d2), checkpoints=True).iterations == 50


def test_c4_optimum_is_sqrt2():
    res = min_distortion_l2(apsp(cycle(4)))
    assert res.c_star == pytest.approx(math.sqrt(2), abs=1e-3)
    # returned embedding verified by the distortion module
    assert float(res.report.distortion) <= res.c_star * (1 + 10 * 1e-4)


def test_certificate_reconstruction_invariant(tree_l2_optimum):
    res = tree_l2_optimum(2, tol=1e-4)
    assert float(res.report.distortion) <= res.c_star * (1 + 10 * 1e-4)


def test_shared_tree_optimum_cannot_be_mutated(tree_l2_optimum):
    res = tree_l2_optimum(2)
    assert tree_l2_optimum(2) is res
    for obj, field in ((res, "c_star"), (res.embedding, "vectors"), (res.report, "lip")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, None)
    assert all(type(v) is tuple for v in (res.bracket, res.embedding.vectors, *res.embedding.vectors))
    with pytest.raises(ValueError):
        res.embedding.space.num[0, 1] = 0


def test_subspace_monotonicity(tree_l2_optimum):
    # a subspace cannot be harder to embed than the whole space
    t3 = apsp(binary_tree(3))
    sub = t3.restrict(range(7))  # contains an isometric copy of T_2
    full = tree_l2_optimum(3).c_star
    part = min_distortion_l2(sub).c_star
    assert part <= full + 1e-3


def test_tree_optimal_distortions_nondecreasing(tree_l2_optimum):
    values = [tree_l2_optimum(n).c_star for n in range(1, 5)]
    assert values[0] == pytest.approx(1.0, abs=1e-4)
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-3


def test_fork_gap_grid():
    est1 = fork_gap_estimate(1.0)
    assert not est1.feasible  # an isometric l2 fork cannot exist
    assert est1.gap == math.inf
    gaps = [fork_gap_estimate(D).gap for D in (1.5, 2.0, 3.0)]
    assert all(g > 0 for g in gaps)
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-9  # non-increasing on the sampled grid


def _unit_diameter(space):
    return space.scaled(1 / max(max(row) for row in space.dist))


def _mds(space):
    """The classical MDS double-centering of the squared distances, the
    cold start of the probes below."""
    n = space.size
    J = np.eye(n) - np.ones((n, n)) / n
    return -0.5 * J @ l2_distortion._distance_squares(space) @ J


def _asymmetric_warm_start(space, seed):
    rng = np.random.default_rng(seed)
    W = _mds(space) + 0.05 * rng.standard_normal((space.size, space.size))
    assert not np.array_equal(W, W.T)
    return W


def _heis_subset():
    ball = heisenberg_ball(2)
    return ball.restrict(range(0, ball.size, 3))


SDP_CASES = [
    # (space, c, MAX_ITER_DEFAULT, warm-start seed or None for the MDS start)
    ("C4", 1.2, 50_000, None),
    ("C4", 1.5, 50_000, None),
    ("C4", 1.3, 50_000, 1),
    ("C4", 1.5, 7, 2),
    ("T3", 1.4, 50_000, None),
    ("T3", 1.6, 50_000, 3),
    # capped before the earliest stall verdict at STALL_WINDOW + 1: undecided
    ("T3", 1.1, l2_distortion.STALL_WINDOW, None),
    ("D2", 1.7, 50_000, None),
    ("D2", 2.0, 50_000, 4),
    ("heis", 1.3, 50_000, None),
    ("heis", 1.6, 50_000, 5),
    ("heis", 1.2, l2_distortion.STALL_WINDOW + 1, 6),
]


@pytest.fixture(params=["gufunc", "fallback"])
def eigh_route(request, monkeypatch):
    """sdp_feasible on the LAPACK gufunc, or forced onto np.linalg.eigh."""
    if request.param == "fallback":
        monkeypatch.setattr(l2_distortion, "_eigh_lo", None)
    elif l2_distortion._eigh_lo is None:
        pytest.skip("this numpy has no eigh_lo gufunc")
    return request.param


def test_sdp_iteration_matches_oracle(eigh_route, monkeypatch):
    spaces = {
        "C4": _unit_diameter(apsp(cycle(4))),
        "T3": _unit_diameter(apsp(binary_tree(3))),
        "D2": _unit_diameter(apsp(diamond(2).graph)),
        "heis": _unit_diameter(_heis_subset()),
    }
    # the MDS starts include a Gram matrix that is not bitwise symmetric
    assert any(not np.array_equal(_mds(sp), _mds(sp).T) for sp in spaces.values())
    statuses = set()
    for name, c, max_iter, seed in SDP_CASES:
        sp = spaces[name]
        monkeypatch.setattr(l2_distortion, "MAX_ITER_DEFAULT", max_iter)
        warm = _mds(sp) if seed is None else _asymmetric_warm_start(sp, seed)
        got = sdp_feasible(sp, c, warm)
        want = sdp_feasible_loop(sp, c, warm)
        case = (name, c, max_iter, seed)
        statuses.add(got.status)
        if got.status == "infeasible":
            # the reference only stalls: it must not find a certificate where
            # a witness proves that none exists
            assert want.status != "feasible", case
            assert (got.iterations, got.certificate) == (1, None), case
            assert F(c) ** 2 < got.witness.bound == witness_bound(sp, got.witness.A), case
            monkeypatch.setattr(l2_distortion, "MAX_ITER_DEFAULT", 1)
            assert repr(got.residual) == repr(sdp_feasible_loop(sp, c, warm).residual), case
            continue
        assert got.witness is None, case
        assert (got.status, got.iterations) == (want.status, want.iterations), case
        if max_iter <= l2_distortion.STALL_WINDOW and got.status != "feasible":
            assert (got.status, got.iterations) == ("undecided", max_iter), case
        # the sliding window also closes at every multiple of STALL_WINDOW
        old = sdp_feasible_loop(sp, c, warm, checkpoints=True)
        if old.status == "stalled":
            assert got.status == "stalled" and got.iterations <= old.iterations, case
        assert repr(got.residual) == repr(want.residual), case
        assert (got.certificate is None) == (want.certificate is None), case
        if got.certificate is not None:
            assert got.certificate.Q.tobytes() == want.certificate.Q.tobytes(), case
            assert repr(got.certificate.max_constraint_violation) == repr(
                want.certificate.max_constraint_violation
            ), case
            assert repr(got.certificate.max_psd_violation) == repr(
                want.certificate.max_psd_violation
            ), case
    assert statuses == {"feasible", "infeasible", "stalled", "undecided"}


def _iterates(space, c, count):
    """Copies of the first `count` matrices sdp_feasible hands to eigh."""
    seen = []

    def record(Q, out):
        if len(seen) < count:
            seen.append(Q.copy())
        return eigh(Q, out)

    eigh = l2_distortion._eigh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(l2_distortion, "_eigh", record)
        mp.setattr(l2_distortion, "MAX_ITER_DEFAULT", count)
        sdp_feasible(space, c, _mds(space))
    return seen


def test_eigh_gufunc_returns_the_bits_of_np_linalg_eigh():
    if l2_distortion._eigh_lo is None:
        pytest.skip("this numpy has no eigh_lo gufunc")
    # probes that run past 40 iterations: T_3 stalls at 52, T_4 is feasible at 44
    for space, c in ((apsp(binary_tree(3)), 1.42), (apsp(binary_tree(4)), 1.58)):
        iterates = _iterates(_unit_diameter(space), c, 40)
        assert len(iterates) == 40
        for Q in iterates:
            n = Q.shape[0]
            out = np.empty(n), np.empty((n, n))
            got = l2_distortion._eigh(Q, out)
            assert got[0] is out[0] and got[1] is out[1]  # written in place
            want = np.linalg.eigh(Q)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


def _failing_eigh(monkeypatch, at, failure):
    """Make the at-th eigendecomposition of a probe fail."""
    calls = []
    eigh = l2_distortion._eigh

    def fake(Q, out):
        calls.append(1)
        return failure(eigh, Q, out) if len(calls) == at else eigh(Q, out)

    monkeypatch.setattr(l2_distortion, "_eigh", fake)


def _lapack_failure(eigh, Q, out):
    # LAPACK cannot decompose an infinite matrix: eigh_lo fills w and V with
    # NaN and flags invalid and divide, np.linalg.eigh raises LinAlgError
    return eigh(np.full_like(Q, np.inf), out)


def _raise_linalg_error(eigh, Q, out):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _nan_eigenvalues(eigh, Q, out):
    return np.full(Q.shape[0], np.nan), np.full(Q.shape, np.nan)


def _minus_inf_lowest_eigenvalue(eigh, Q, out):
    # clipped to 0, it would leave a finite iterate and an infinite residual
    w, V = eigh(Q, out)
    w[0] = -np.inf
    return w, V


@pytest.mark.parametrize(
    "failure", [_lapack_failure, _raise_linalg_error, _nan_eigenvalues, _minus_inf_lowest_eigenvalue]
)
def test_sdp_failed_eigendecomposition_is_undecided(eigh_route, monkeypatch, failure):
    # unit D_2 at 1.77 has no witness and runs 31 iterations
    d2 = _unit_diameter(apsp(diamond(2).graph))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(l2_distortion, "MAX_ITER_DEFAULT", 2)
        before = sdp_feasible(d2, 1.77, _mds(d2))
    _failing_eigh(monkeypatch, 3, failure)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sdp_feasible(d2, 1.77, _mds(d2))
    assert (out.status, out.iterations, out.certificate) == ("undecided", 3, None)
    # the residual is the best of the two iterations before the failure
    assert repr(out.residual) == repr(before.residual)


def test_distance_squares_are_correctly_rounded():
    # Python's float ** goes through libm's pow, which on glibc rounds the
    # square of float(33/41) the wrong way
    sp = _triangle(F(33, 41), 1, F(2, 3))
    for space in (sp, _unit_diameter(apsp(binary_tree(4))), apsp(cycle(7)).scaled(F(1, 3))):
        got = l2_distortion._distance_squares(space)
        want = [[float(F(x) ** 2) for x in row] for row in space.floats().tolist()]
        assert got.tolist() == want


def test_sdp_divergence_is_undecided(monkeypatch):
    # without the stall cutoff the projections on unit D_2 at c = 1.74 grow
    # geometrically until the iterate overflows; eigh would then raise
    monkeypatch.setattr(l2_distortion, "STALL_WINDOW", 10**9)
    d2 = _unit_diameter(apsp(diamond(2).graph))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sdp_feasible(d2, 1.74, _mds(d2))
    assert out.status == "undecided"
    assert out.certificate is None
    assert 0 < out.iterations < l2_distortion.MAX_ITER_DEFAULT
    assert math.isfinite(out.residual)


def test_stalled_probe_reports_its_best_residual():
    # unit T_3 at c = 1.6 from this warm start stalls at iteration 28 while
    # its iterates grow; the last residual is far above the best one
    t3 = _unit_diameter(apsp(binary_tree(3)))
    warm = _asymmetric_warm_start(t3, 3)
    window = l2_distortion.STALL_WINDOW
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(l2_distortion, "MAX_ITER_DEFAULT", window + 2)
        capped = sdp_feasible(t3, 1.6, warm)
    stalled = sdp_feasible(t3, 1.6, warm)
    assert (capped.status, stalled.status) == ("undecided", "stalled")
    assert stalled.iterations == window + 3
    assert stalled.residual <= capped.residual < 1
    oracle = sdp_feasible_loop(t3, 1.6, warm)
    assert (oracle.status, repr(oracle.residual)) == ("stalled", repr(stalled.residual))


def test_sdp_non_finite_start_is_undecided():
    c4 = _unit_diameter(apsp(cycle(4)))
    warm = _mds(c4)
    warm[0, 0] = np.inf
    out = sdp_feasible(c4, 1.5, warm)
    assert (out.status, out.iterations, out.certificate) == ("undecided", 1, None)
    # an infinite off-diagonal entry is clipped by the first sweep, as before
    warm = _mds(c4)
    warm[0, 1] = np.inf
    got = sdp_feasible(c4, 1.5, warm)
    want = sdp_feasible_loop(c4, 1.5, warm)
    assert (got.status, got.iterations, repr(got.residual)) == (
        want.status, want.iterations, repr(want.residual)
    )


@pytest.mark.parametrize("c", [0.5, math.inf, math.nan])
def test_sdp_bound_is_validated(c):
    c4 = apsp(cycle(4))
    with pytest.raises(ValidationError):
        sdp_feasible(c4, c, _mds(c4))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-4])
def test_tolerances_must_be_finite_and_positive(tol):
    with pytest.raises(ValidationError):
        min_distortion_l2(apsp(cycle(4)), tol=tol)


def test_min_distortion_l2_probes_at_the_module_constants(monkeypatch):
    # the probe tolerance and iteration cap are constants, read at each call
    t2 = apsp(binary_tree(2))
    default = min_distortion_l2(t2)
    monkeypatch.setattr(l2_distortion, "FEAS_TOL", 1e-3)
    assert min_distortion_l2(t2).c_star < default.c_star
    monkeypatch.setattr(l2_distortion, "MAX_ITER_DEFAULT", 1)
    with pytest.raises(UndecidedError, match="bracket top"):
        min_distortion_l2(t2)


def _stall_spaces():
    return [
        apsp(cycle(4)),
        apsp(cycle(6)),
        apsp(diamond(2).graph),
        laakso(1).metric_space(),
        apsp(binary_tree(3)),
        _heis_subset(),
    ]


def _t5_subset(variant):
    """The 18-point subset of T_5 that the benchmark seeds with `variant`."""
    t5 = apsp(binary_tree(5))
    return t5.restrict(sorted(random.Random(f"T5#{variant}").sample(range(t5.size), 18)))


def _fields(res):  # repr tells -0.0 from 0.0
    return repr((
        res.c_star,
        res.bracket,
        res.probes,
        res.undecided_probes,
        res.embedding.vectors,
        res.report.distortion,
    ))


def test_stall_window_keeps_the_optima_of_the_old_window(monkeypatch):
    # a stalled probe gives no certificate, so a shorter window changes an
    # L2Result only if some probe's decision flips
    spaces = _stall_spaces()
    got = [_fields(min_distortion_l2(sp, tol=1e-4)) for sp in spaces]
    monkeypatch.setattr(l2_distortion, "STALL_WINDOW", 200)
    want = [_fields(min_distortion_l2(sp, tol=1e-4)) for sp in spaces]
    assert got == want


def test_sliding_stall_window_keeps_the_results_of_checkpoints(monkeypatch):
    # the sliding window closes at every multiple of STALL_WINDOW too, so a
    # probe stalls no later than on checkpoints; an L2Result could change
    # only through a probe that the earlier verdict stops short of feasible
    spaces = _stall_spaces() + [_t5_subset(0), _t5_subset(6)]
    got = [min_distortion_l2(sp, tol=1e-4) for sp in spaces]
    checkpoints = functools.partial(sdp_feasible_loop, checkpoints=True)
    monkeypatch.setattr(l2_distortion, "sdp_feasible", checkpoints)
    want = [min_distortion_l2(sp, tol=1e-4) for sp in spaces]
    for new, old in zip(got, want):
        assert _fields(new) == _fields(old)
        counts = new.counts
        assert counts.feasible + counts.infeasible + counts.stalled + counts.undecided == new.probes
        assert counts.undecided == len(new.undecided_probes)
        # the reference only stalls; each of its stalls stalls or is proved
        # infeasible here
        assert old.counts.infeasible == 0
        merged = dataclasses.replace(counts, infeasible=0, stalled=counts.stalled + counts.infeasible)
        assert dataclasses.replace(merged, iterations=0) == dataclasses.replace(old.counts, iterations=0)
        assert counts.iterations <= old.counts.iterations
    assert sum(r.counts.iterations for r in got) < sum(r.counts.iterations for r in want)


def test_infeasible_probes_carry_exact_witnesses(monkeypatch):
    # every witness re-derives in Fractions and proves more than its c^2;
    # lower_bound is the largest of them, never above c_star^2
    probes = []

    def record(space, c, warm_start):
        out = probe(space, c, warm_start)
        probes.append((space, c, out))
        return out

    probe = l2_distortion.sdp_feasible
    monkeypatch.setattr(l2_distortion, "sdp_feasible", record)
    for space in _stall_spaces():
        probes.clear()
        res = min_distortion_l2(space, tol=1e-4)
        bounds = [out.witness.bound for _, _, out in probes if out.status == "infeasible"]
        assert res.counts.infeasible == len(bounds)
        for sp, c, out in probes:
            assert (out.status == "infeasible") == (out.witness is not None)
            if out.witness is not None:
                assert out.iterations == 1
                assert F(c) ** 2 < out.witness.bound == witness_bound(sp, out.witness.A)
        assert res.lower_bound == max(bounds, default=F(1))
        assert res.lower_bound <= F(res.c_star) ** 2
    # C_4 at c = 1 is proved infeasible with the exact c_2(C_4)^2 = 2
    assert min_distortion_l2(apsp(cycle(4))).lower_bound == 2


def test_fork_gap_closed_form_matches_slsqp():
    for D in (1.16, 1.2, 1.5, 2.0, 3.0):
        got, (want, stall) = fork_gap_estimate(D), fork_gap_slsqp(D)
        assert got.feasible and want.feasible and stall is None
        assert got.gap == pytest.approx(want.gap, abs=1e-9)
        assert got.K == pytest.approx(want.K, abs=1e-9)
        assert got.worst_min_norm == pytest.approx(want.worst_min_norm, abs=1e-9)
        assert got.gap <= want.gap + 1e-12
    assert not fork_gap_estimate(1.15).feasible
    assert not fork_gap_slsqp(1.15)[0].feasible
    # the exact boundary: forks exist iff 3 D^2 >= 4, i.e. D >= 2/sqrt(3)
    scale = 10**30
    below = F(math.isqrt(4 * scale**2 // 3), scale)
    above = below + F(1, scale)
    assert 3 * below**2 < 4 < 3 * above**2
    assert not fork_gap_estimate(below).feasible
    est = fork_gap_estimate(above)
    assert est.feasible and est.worst_min_norm >= 2
    assert 0 <= est.gap <= float(above) - 1


@pytest.mark.parametrize(
    # for float D the gap D - sup/2 is exact (Sterbenz); F(9, 7) needs rounding down
    "D", [2 / math.sqrt(3) + 1e-15, 1.16, 1.5, 2.0, 3.0, 10.0, 1e8, 2.0**500, F(7, 5), F(9, 7)]
)
def test_fork_gap_is_rounded_outward(D):
    est = fork_gap_estimate(D)
    exact = F(D)
    sup = F(est.worst_min_norm)
    # sup >= sqrt(2 D^2 + 2 D sqrt(D^2 - 1)), checked by squaring twice
    excess = sup**2 - 2 * exact**2
    assert excess >= 0 and excess**2 >= 4 * exact**2 * (exact**2 - 1)
    assert 0 <= F(est.gap) <= exact - sup / 2 or est.gap == 0
    assert est.K == est.gap * float(D)


def test_fork_gap_validation():
    for D in (0.5, 2.0**501, F(10) ** 400, math.inf, math.nan):
        with pytest.raises(ValidationError):
            fork_gap_estimate(D)


def test_fork_min_l2_distortion_between_feasibility_probes():
    # the fork itself: its optimum separates the infeasible/feasible D values
    res = min_distortion_l2(apsp(fork()))
    assert 1.1 < res.c_star < 1.5


def test_kloeckner_bound_closed_form():
    assert kloeckner_bound(1, 0.5) == 1.0
    # floor(log2 n) = 1, q = 2: positive root of D - K/D = 1
    K = 0.3
    assert kloeckner_bound(2, K) == pytest.approx((1 + math.sqrt(1 + 4 * K)) / 2, rel=1e-12)
    # the bound dominates (floor(log2 n) K)^(1/q)
    for n in (4, 9, 30):
        b = kloeckner_bound(n, K)
        assert b >= (math.floor(math.log2(n)) * K) ** 0.5 - 1e-12


def test_kloeckner_bound_rounds_down():
    # the float never exceeds the root of D^2 - D - bK, checked exactly, the
    # next float up already does, and both stay within a few ulps of the
    # closed-form root
    def excess(D, b, K):
        return F(D) * (F(D) - 1) - b * F(K)

    rng = random.Random(22)
    Ks = [0.3, 0.1, 1e-9, 7.25, 1e6] + [rng.uniform(1e-6, 50) for _ in range(200)]
    for K in Ks:
        for n in (2, 3, 4, 9, 100, 2**20, 10**9):
            b = math.floor(math.log2(n))
            D = kloeckner_bound(n, K)
            up = math.nextafter(D, math.inf)
            assert D >= 1 and excess(D, b, K) <= 0 < excess(up, b, K)
            assert D == pytest.approx((1 + math.sqrt(1 + 4 * b * K)) / 2, rel=1e-15)
    for K in (math.inf, math.nan, 0.0):
        with pytest.raises(ValidationError):
            kloeckner_bound(4, K)


def test_kloeckner_bound_below_measured_optima(tree_l2_optimum):
    K = min(fork_gap_estimate(D).K for D in (1.5, 2.0, 3.0))
    for n in range(2, 7):
        bound = kloeckner_bound(n, K)
        measured = tree_l2_optimum(n).c_star
        assert bound <= measured + 1e-3


def test_fork_select_structure_and_improvement(tree_l2_optimum):
    res = tree_l2_optimum(4)
    emb, rep = normalize_noncontractive(res.embedding)
    sel = fork_select(4, emb)
    assert len(sel.new_labels) == 7  # T_2
    assert float(sel.report.distortion) <= float(sel.input_report.distortion) + 1e-9
    # selected set under half distance is isometric to T_2 (checked inside),
    # and the labels relabel consistently
    assert set(sel.new_labels) == {"", "0", "1", "00", "01", "10", "11"}


def test_fork_select_depth_two_keeps_root_and_grandchildren(tree_l2_optimum):
    res = tree_l2_optimum(2)
    emb, _ = normalize_noncontractive(res.embedding)
    sel = fork_select(2, emb)  # one selection round: root + two grandchildren
    assert sel.new_labels == ("", "0", "1")
    assert sel.selected_labels[0] == ""
    assert all(len(lab) in (0, 2) for lab in sel.selected_labels)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_fork_select_frechet_input_gives_half_tree(n):
    sp = apsp(binary_tree(n))
    frechet = Embedding(sp, tuple(tuple(map(float, row)) for row in sp.dist), NormedTarget("l2", sp.size))
    sel = fork_select(n, normalize_noncontractive(frechet)[0])
    half = sel.embedding.space
    assert half.labels == sel.new_labels and sorted(half.labels) == sorted(tree_labels(n // 2))
    assert [[half.d(i, j) for j in range(half.size)] for i in range(half.size)] == [
        [tree_label_distance(a, b) for b in half.labels] for a in half.labels
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_fork_select_reads_rows_out_of_heap_order(n):
    # each tree vertex's row is found through its label, so a space whose
    # rows are shuffled selects the same vertices; the noise makes the
    # nearer grandchild differ from vertex to vertex
    sp = apsp(binary_tree(n))
    rng = np.random.default_rng(n)
    rows = sp.floats() + rng.uniform(0, 0.5, (sp.size, sp.size))
    emb = normalize_noncontractive(Embedding(sp, rows, NormedTarget("l2", sp.size)))[0]
    perm = rng.permutation(sp.size).tolist()
    shuffled = Embedding(sp.restrict(perm), emb.table[perm], emb.target, emb.scale)
    want, got = fork_select(n, emb), fork_select(n, shuffled)
    assert {lab[-1] for lab in want.selected_labels[1:]} == {"0", "1"}
    assert (got.selected_labels, got.new_labels) == (want.selected_labels, want.new_labels)
    assert got.report == want.report and got.embedding.space == want.embedding.space
    # the input report's witnesses are pairs of rows, which the shuffle moves
    values = lambda rep: (rep.lip, rep.colip, rep.distortion)
    assert values(got.input_report) == values(want.input_report)
    assert got.improvement == want.improvement


def test_fork_select_rejects_non_l2_targets():
    # the nearer grandchild is chosen in l2, so an embedding into another
    # norm is refused, even one whose vectors are those of an l2 embedding
    sp = apsp(binary_tree(2))
    rows = tuple(tuple(map(float, row)) for row in sp.dist)
    for kind in ("l1", "linf"):
        with pytest.raises(ValidationError, match="l2"):
            fork_select(2, Embedding(sp, rows, NormedTarget(kind, sp.size)))
    sel = fork_select(2, Embedding(sp, rows, NormedTarget("l2", sp.size)))
    assert sel.new_labels == ("", "0", "1")


def test_fork_select_rejects_contractive():
    sp = apsp(binary_tree(2))
    squeezed = Embedding(
        sp,
        tuple(tuple(0.1 * float(d) for d in row) for row in sp.dist),
        NormedTarget("l2", sp.size),
    )
    with pytest.raises(ValidationError):
        fork_select(2, squeezed)


@pytest.mark.parametrize(
    "space,n,first",
    [
        (apsp(path_graph(7)), 2, ""),  # points without labels
        (apsp(cycle(7)), 2, ""),
        (heisenberg_ball(1), 2, ""),
        (apsp(binary_tree(2)), 3, "000"),  # deeper than the labelled tree
        (apsp(binary_tree(2)), 10**6, "000"),
    ],
    ids=["path7", "cycle7", "heis1", "T2-as-T3", "T2-as-T1000000"],
)
def test_fork_select_names_the_first_missing_tree_label(space, n, first):
    # each used to end in a bare KeyError from the label lookup
    rows = tuple(tuple(map(float, row)) for row in space.dist)
    emb = Embedding(space, rows, NormedTarget("l2", space.size))
    with pytest.raises(ValidationError, match=rf"^embedding space has no point labelled {first!r}, a vertex of T_{n}$"):
        fork_select(n, emb)


def test_an_undecided_probe_moves_the_bracket_and_is_counted(monkeypatch):
    # capped at 25 iterations, probes in the middle of the bisection run out
    # before they decide: each moves lo up, as a stalled probe does, and is
    # listed and counted
    monkeypatch.setattr(l2_distortion, "MAX_ITER_DEFAULT", 25)
    res = min_distortion_l2(apsp(cycle(6)))
    counts = res.counts
    assert counts.undecided == len(res.undecided_probes) == 7
    assert counts.feasible + counts.infeasible + counts.stalled + counts.undecided == res.probes
    assert res.undecided_probes[0] == 1.4250241796259846
    assert list(res.undecided_probes) == sorted(res.undecided_probes)
    assert res.undecided_probes[-1] <= res.bracket[0] < res.c_star == res.bracket[1]
