"""Norms, distortion, Fréchet/Bourgain embeddings, James grid, submetric
active pairs, cycle-into-tree oracle."""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from testspaces.embeddings import (
    Embedding,
    NormedTarget,
    SubmetricSpace,
    _bourgain_classes,
    _bourgain_tree,
    _first_max,
    bourgain_distortion,
    bourgain_embed,
    bourgain_labeling,
    cycle_tree_lower_oracle,
    distortion,
    frechet_embed,
    james_alpha,
    map_distortion,
    norm,
    submetric_check,
    submetric_space_metric,
)
from testspaces.errors import CapExceededError, CollapsedPairError, ValidationError
from testspaces.generators import binary_tree, cycle, heisenberg_ball, tree_labels
from testspaces.metric_core import MetricSpace, RationalTable, apsp, path_graph
from testspaces.rnp import Martingale, PiecewiseLevel, martingale_check, martingale_l1_diff

from _oracles import (
    bourgain_distortion_sorted,
    bourgain_labeling_fractions,
    bourgain_pair_norms,
    bourgain_pair_sweep,
    cycle_tree_all_maps,
    distortion_tuples,
    entry_norm,
    first_max_knockout,
    james_alpha_by_vectors,
    martingale_check_fractions,
    martingale_l1_diff_fractions,
    pairwise_distortion,
    pairwise_map_distortion,
    rescaled_rows,
    scaled_rows,
)
from _strategies import random_connected_graph


def test_norm_examples():
    s2 = NormedTarget("summing", 2)
    assert norm(s2, (F(1), F(-1))) == 1
    assert norm(s2, (F(1), F(-2))) == 1
    assert norm(NormedTarget("linf", 2), (F(3), F(-4))) == 4
    assert norm(NormedTarget("l1", 3), (F(1, 2), F(-1, 2), F(2))) == 3
    assert norm(NormedTarget("l2", 2), (3.0, 4.0)) == pytest.approx(5.0)
    with pytest.raises(ValidationError):
        norm(s2, (F(1),))


def test_norm_sums_in_coordinate_order():
    # a compensated sum, like the builtin `sum` of floats from Python 3.12 on,
    # gives 1e16 + 2 and 1e8 + 1 ulp here
    assert norm(NormedTarget("l1", 3), (1e16, 1.0, 1.0)) == 1e16
    v = (1e8, 1.0, 1.0, 1.0, 1.0)
    target = NormedTarget("l2", 5)
    assert norm(target, v) == 1e8 != math.sqrt(math.fsum(x * x for x in v))
    # at distance 1 the distortion kernel's lip is the norm of v - 0
    emb = Embedding(MetricSpace(((0, 1), (1, 0))), (v, (0.0,) * 5), target)
    assert repr(distortion(emb).lip) == repr(norm(target, v))


def _random_vector(rng, kind, dim):
    if kind == "fraction":
        return tuple(F(rng.randint(-(10**25), 10**25), rng.randint(1, 10**12)) for _ in range(dim))
    if kind == "int":  # past int64, so the kernels run on Python ints
        return tuple(rng.choice((-1, 1)) * rng.randint(2**63, 2**70) for _ in range(dim))
    # floats whose sums absorb and cancel: the summation order shows
    big = rng.choice((1e16, 1e8, 1.0, 3e-5))
    return tuple(rng.choice((big, -big, rng.uniform(-1, 1), 1.0, -1.0)) for _ in range(dim))


def test_norm_matches_entry_oracle():
    rng = random.Random(15)
    for k in range(2400):
        kind = ("fraction", "int", "float")[k % 3]
        dim = 4 if k % 12 < 3 else rng.randint(1, 9)
        v = _random_vector(rng, kind, dim)
        for target in [NormedTarget(name, dim) for name in ("l1", "linf", "summing", "l2")]:
            got, want = norm(target, v), entry_norm(target, v)
            assert got == want, (target.kind, v)
            assert isinstance(got, float) == isinstance(want, float), (target.kind, v)


def test_distortion_scaling_invariance():
    emb = bourgain_embed(2)
    base = distortion(emb)
    for factor in (F(1, 3), F(5), F(7, 2)):
        scaled = distortion(emb.rescaled(factor))
        assert scaled.distortion == base.distortion


def test_distortion_collapse_error():
    sp = apsp(cycle(4))
    vecs = ((F(0),), (F(1),), (F(0),), (F(1),))
    with pytest.raises(CollapsedPairError) as exc:
        distortion(Embedding(sp, vecs, NormedTarget("l1", 1)))
    assert exc.value.pair == (0, 2)


@pytest.mark.parametrize("space", [apsp(cycle(6)), heisenberg_ball(2)])
def test_frechet_is_isometric(space):
    rep = distortion(frechet_embed(space))
    assert rep.distortion == 1


def test_frechet_two_points():
    sp = MetricSpace(((F(0), F(5)), (F(5), F(0))))
    assert distortion(frechet_embed(sp)).distortion == 1


def test_james_alpha_values():
    res = james_alpha(6)
    assert res.analytic_bound == F(1, 3)
    assert res.empirical == F(1, 3)
    # the ratio at a = (1, -2), j = 1 is exactly 1/3
    sup = max(abs(1), abs(1 - 2))
    assert F(sup, abs(1) + abs(-2)) == F(1, 3)
    res2 = james_alpha(2)
    assert res2.empirical == F(1, 3)
    assert tuple(abs(c) for c in res2.witness_coeffs) == (1, 2)


@pytest.mark.parametrize("m", range(2, 6))
@pytest.mark.parametrize("bound", range(1, 4))
def test_james_alpha_matches_vector_loop(m, bound):
    res = james_alpha(m, bound)
    got = (res.empirical, res.witness_coeffs, res.witness_j)
    assert repr(got) == repr(james_alpha_by_vectors(m, bound))


def test_james_alpha_single_ratios():
    # a = (1, -1), j = 1: partial sums 1, 0; denominator 2
    assert F(1, 2) == F(max(1, 0), abs(1) + abs(-1))


def test_bourgain_psi_phi():
    lab = bourgain_labeling(3)
    assert lab.psi["1"] == F(1, 2)
    assert lab.psi["01"] == F(-1, 4)
    assert lab.psi[""] == 0
    assert sorted(lab.phi.values()) == list(range(1, 16))


@pytest.mark.parametrize("n", range(11))
def test_bourgain_labeling_matches_fraction_sums(n):
    psi, phi = bourgain_labeling_fractions(n)
    lab = bourgain_labeling(n)
    assert lab.psi == psi and lab.phi == phi
    assert all(type(v) is F for v in lab.psi.values())
    assert all(type(v) is int for v in lab.phi.values())


@pytest.mark.parametrize("build", [bourgain_labeling, bourgain_embed, bourgain_distortion])
def test_bourgain_depth_cap_fires_first(build):
    # 2^14 - 1 vertices exceed TABLE_ENTRY_CAP; unchecked, n = 13 runs for
    # hours, and 2^(10^6 + 1) - 1 has more digits than an int may print
    for n in (13, 10**6):
        started = time.perf_counter()
        with pytest.raises(CapExceededError, match=f"^the number of table entries for the binary tree of depth {n} "):
            build(n)
        assert time.perf_counter() - started < 1.0
    assert len(bourgain_labeling(12).phi) == 2**13 - 1  # the largest depth under the cap


@pytest.mark.parametrize("n", range(1, 11))
def test_bourgain_child_intervals_disjoint(n):
    lab = bourgain_labeling(n)
    labels = sorted(lab.phi, key=lambda L: (len(L), L), reverse=True)
    lo = {}
    hi = {}
    size = {}
    for L in labels:  # leaves first
        lo[L] = hi[L] = lab.phi[L]
        size[L] = 1
        for bit in "01":
            if L + bit in lab.phi:
                lo[L] = min(lo[L], lo[L + bit])
                hi[L] = max(hi[L], hi[L + bit])
                size[L] += size[L + bit]
    for L in labels:
        # each subtree's phi image is a contiguous integer interval
        assert hi[L] - lo[L] + 1 == size[L]
        if len(L) < n:
            c0, c1 = L + "0", L + "1"
            assert hi[c0] < lo[c1] or hi[c1] < lo[c0]


def test_bourgain_embedding_lip_and_uniform_bound():
    for n in range(1, 6):
        rep = bourgain_distortion(n)
        assert rep.lip == 1
        assert rep.distortion <= 3
    assert bourgain_distortion(1).distortion == 2
    assert bourgain_distortion(2).distortion == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_bourgain_sparse_matches_dense(n):
    emb = bourgain_embed(n)
    dense = distortion(emb)
    sparse = bourgain_distortion(n)
    assert dense.distortion == sparse.distortion
    assert dense.lip == sparse.lip
    assert dense.colip == sparse.colip
    # same first maximizing pairs, in label form
    labels = emb.space.labels
    assert tuple(labels[i] for i in dense.lip_witness) == sparse.lip_witness
    assert tuple(labels[i] for i in dense.colip_witness) == sparse.colip_witness


@pytest.mark.parametrize("n", range(1, 9))
def test_bourgain_distortion_matches_sorted_oracle(n):
    assert bourgain_distortion(n) == bourgain_distortion_sorted(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_bourgain_distortion_matches_pair_sweep(n):
    assert bourgain_distortion(n) == bourgain_pair_sweep(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_bourgain_classes_are_first_pairs_with_their_norms(n):
    # every pair's class (la, lb, side) from its labels; the first pair of
    # each class in (a, b) order is the class's pair at the root, and that
    # pair's summing norm and distance in bourgain_embed(n) are the class's
    emb = bourgain_embed(n)
    labels = emb.space.labels
    assert labels == tuple(tree_labels(n))

    def key(a, b):
        c = 0
        while c < len(a) and a[c] == b[c]:
            c += 1
        return len(a) - c, len(b) - c, (a if c < len(a) else b)[c]

    first = {}
    for a, b in itertools.combinations(labels, 2):
        first.setdefault(key(a, b), (a, b))
    classes = _bourgain_classes(n)
    assert len(classes) == n * n + 2 * n
    order = [(labels.index(a), labels.index(b)) for a, b, _, _ in classes]
    assert order == sorted(order)
    assert {key(a, b): (a, b) for a, b, _, _ in classes} == first
    for (_, _, sup, dist), (i, j) in zip(classes, order):
        diff = tuple(x - y for x, y in zip(emb.vectors[i], emb.vectors[j]))
        assert norm(emb.target, diff) == sup
        assert emb.space.d(i, j) == dist


@pytest.mark.parametrize("n", range(1, 8))
def test_bourgain_pair_norms_closed_form(n):
    # each pair's closed-form summing norm and distance against the norm of
    # its difference vector in bourgain_embed(n)
    emb = bourgain_embed(n)
    size = emb.space.size
    assert emb.space.labels == tuple(tree_labels(n))  # the index order of _bourgain_tree
    pairs = itertools.combinations(range(size), 2)
    pairs = sorted(random.Random(n).sample(list(pairs), min(300, size * (size - 1) // 2)))
    first, second = (np.array(x) for x in zip(*pairs))
    sup, dist = bourgain_pair_norms(_bourgain_tree(n), first, second)
    for (a, b), s, d in zip(pairs, sup.tolist(), dist.tolist()):
        diff = tuple(x - y for x, y in zip(emb.vectors[a], emb.vectors[b]))
        assert s == norm(emb.target, diff)
        assert d == emb.space.d(a, b)


def test_bourgain_two_sided_bounds_small():
    # alpha d <= ||dF||_s <= d with alpha = 1/3, checked pairwise
    emb = bourgain_embed(3)
    sp = emb.space
    for i in range(sp.size):
        for j in range(i + 1, sp.size):
            dn = norm(emb.target, tuple(x - y for x, y in zip(emb.vectors[i], emb.vectors[j])))
            assert dn <= sp.d(i, j)
            assert 3 * dn >= sp.d(i, j)


def test_submetric_activity_examples():
    # x = (1,0), y = (0,1): l1 diff 2, summing norm 1 -> active iff Delta >= 2
    pts = ((F(1), F(0)), (F(0), F(1)))
    assert SubmetricSpace(pts, F(3, 2)).active_pairs() == []
    assert SubmetricSpace(pts, F(2)).active_pairs() == [(0, 1)]
    # boundary: ||x||_1 = 2 = Delta * ||x||_s with Delta = 2 -> active (inclusive)
    pts2 = ((F(1), F(-1)), (F(0), F(0)))
    assert SubmetricSpace(pts2, F(2)).active_pairs() == [(0, 1)]


def test_submetric_activity_monotone_in_delta():
    pts = tuple(
        tuple(F(a) for a in vec)
        for vec in itertools.product((-1, 0, 1), repeat=2)
    )
    small = set(SubmetricSpace(pts, F(3, 2)).active_pairs())
    large = set(SubmetricSpace(pts, F(3)).active_pairs())
    assert small <= large


def test_submetric_identity_map():
    pts = ((F(0), F(0)), (F(1), F(0)), (F(1), F(-1)), (F(2), F(1)))
    sub = SubmetricSpace(pts, F(2))
    emb = Embedding(submetric_space_metric(sub), pts, NormedTarget("l1", 2))
    res = submetric_check(sub, emb)
    assert res.violation is None
    assert res.constant == 1


def test_submetric_violation_reported():
    pts = ((F(0), F(0)), (F(1), F(0)))
    sub = SubmetricSpace(pts, F(2))
    emb = Embedding(
        submetric_space_metric(sub),
        ((F(0), F(0)), (F(1, 2), F(0))),
        NormedTarget("l1", 2),
    )
    res = submetric_check(sub, emb)
    assert res.violation == (0, 1)


def test_submetric_points_are_refused_at_construction():
    # no points, points of dimension 0, ragged, float or mixed points
    for pts in ((), ((),), ((F(1), F(0)), (F(1),)), ((0.5, 0.0),), ((F(1), 0.5),)):
        with pytest.raises(ValidationError):
            SubmetricSpace(pts, F(2))
    # Delta is compared exactly, so it must be a rational >= 1
    for delta in (F(1, 2), 1.5):
        with pytest.raises(ValidationError, match="Delta"):
            SubmetricSpace(((F(1), F(0)),), delta)


def test_cycle_into_path_order_map():
    # C_6 into the 6-path by vertex order: lip 5 on the wrap pair, colip 1
    c6 = apsp(cycle(6))
    p6 = apsp(path_graph(6))
    assert map_distortion(c6, p6, list(range(6))) == 5


def test_cycle_tree_oracle_c4():
    res = cycle_tree_lower_oracle(4, 4)
    assert res.min_distortion == 3
    assert res.min_distortion >= res.bound == F(1, 3)


def test_cycle_tree_oracle_collapse_slice():
    # trees on <= 3 vertices cannot host C_4 injectively
    res = cycle_tree_lower_oracle(4, 3)
    assert res.min_distortion is None


def test_cycle_tree_oracle_without_an_m_vertex_tree_builds_no_table():
    # C_4000 fits no tree on one vertex: the result comes from the map count
    # alone, before the 4000 x 4000 cycle table (1 GB as Python lists)
    import networkx  # noqa: F401

    tracemalloc.start()
    try:
        res = cycle_tree_lower_oracle(4000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.min_distortion, res.witness_tree_edges, res.witness_map) == (None, None, None)
    assert (res.bound, res.maps_searched) == (F(4000, 3) - 1, 1)
    assert peak < 2**20


def test_cycle_tree_budget(monkeypatch):
    import testspaces.embeddings as embeddings

    monkeypatch.setattr(embeddings, "CYCLE_TREE_MAP_BUDGET", 1000)
    with pytest.raises(CapExceededError):
        cycle_tree_lower_oracle(8, 6)


_TREES = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11}  # unlabeled trees per order
_ORACLE_SLICES = [
    (m, v)
    for m in range(3, 8)
    for v in range(1, 8)
    if 1 + sum(order**m * _TREES[order] for order in range(2, v + 1)) <= 2 * 10**6
]


@pytest.mark.parametrize("m,v", _ORACLE_SLICES)
def test_cycle_tree_oracle_matches_all_maps(m, v):
    # injective maps only against every map, collapsing ones included
    assert repr(cycle_tree_lower_oracle(m, v)) == repr(cycle_tree_all_maps(m, v))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)),
        min_size=2,
        max_size=5,
    )
)
def test_norm_axioms_on_random_triples(vectors):
    tgt = NormedTarget("summing", 3)
    vs = [tuple(F(x) for x in v) for v in vectors]
    for v in vs:
        assert norm(tgt, v) >= 0
        assert norm(tgt, tuple(-x for x in v)) == norm(tgt, v)
    a, b = vs[0], vs[1]
    assert norm(tgt, tuple(x + y for x, y in zip(a, b))) <= norm(tgt, a) + norm(tgt, b)


def _outcome(measure, emb):
    """repr of the report (so value types count), or the collapsed pair."""
    try:
        return repr(measure(emb))
    except CollapsedPairError as exc:
        return ("collapsed", exc.pair)


@st.composite
def _embeddings(draw):
    """Random embeddings whose ties, zero distances and collapsed pairs are
    frequent: small entries; int, Fraction or float vectors; all four
    exact-or-float norms; `huge` scales push the integer kernels onto
    object arrays."""
    n = draw(st.integers(2, 7))
    dim = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["l1", "linf", "summing", "l2"]))
    entry = draw(st.sampled_from(["int", "fraction", "float"]))
    huge = draw(st.booleans())
    dists = {}
    for i in range(n):
        for j in range(i + 1, n):
            d = F(draw(st.integers(0, 4)), draw(st.integers(1, 3)))
            dists[i, j] = dists[j, i] = d / 10**30 if huge else d
    table = tuple(tuple(dists.get((i, j), F(0)) for j in range(n)) for i in range(n))
    vectors = []
    for _ in range(n):
        vec = []
        for _ in range(dim):
            x = draw(st.integers(-3, 3))
            if entry == "int":
                vec.append(x * 10**25 if huge else x)
            elif entry == "fraction":
                vec.append(F(x, draw(st.integers(1, 3)) * (10**25 if huge else 1)))
            else:
                # quarters tie exactly; thirds and tenths round, so the
                # summation order shows
                vec.append(x / draw(st.sampled_from([4, 3, 10])) * (1e20 if huge else 1.0))
        vectors.append(tuple(vec))
    return Embedding(MetricSpace(table), tuple(vectors), NormedTarget(kind, dim))


@settings(max_examples=400, deadline=None)
@given(_embeddings())
def test_distortion_kernels_match_pair_loop(emb):
    # huge exact vectors in l2 are beyond float64's exact integers, so the
    # kernel divides Python ints there
    if any(emb.space.d(i, j) for i in range(emb.space.size) for j in range(i)):
        assert _outcome(distortion, emb) == _outcome(pairwise_distortion, emb)
    else:
        with pytest.raises(TypeError):
            pairwise_distortion(emb)
        with pytest.raises(ValidationError, match="positive distance"):
            distortion(emb)


def test_distortion_kernel_object_route():
    # numerators beyond int64: the kernels switch to Python ints and stay exact
    big = 3**45
    sp = MetricSpace(((F(0), F(big), F(1)), (F(big), F(0), F(big)), (F(1), F(big), F(0))))
    vecs = ((F(0), F(1, big)), (F(big), F(0)), (F(1), F(1, 7)))
    for kind in ("l1", "linf", "summing"):
        emb = Embedding(sp, vecs, NormedTarget(kind, 2))
        assert repr(distortion(emb)) == repr(pairwise_distortion(emb))
    table = RationalTable(vecs)
    assert table.num.dtype == object and table.scale == big * 7
    assert table.rows() == vecs
    assert RationalTable(((F(1, 2), 2**61),)).num.dtype == np.int64
    assert RationalTable(((F(1, 2), 2**61),), headroom=2).num.dtype == object


def _on_points(emb, idx):
    """The embedding on the points idx, built from its rows."""
    return Embedding(emb.space.restrict(idx), tuple(emb.vectors[i] for i in idx), emb.target)


@pytest.mark.parametrize("case", ["tent-D4s", "bourgain-T5", "tent-D4s-past-int64"])
def test_integer_kernels_at_benchmark_size(case):
    # 60 points, as the benchmark measures them: the tent embedding of
    # scaled D_4 in l1 (dim 86), Bourgain's T_5 embedding in the summing norm
    # (dim 63), and the tent rows times 2^70, which only Python ints hold
    from testspaces.generators import diamond, diamond_weighting
    from testspaces.rnp import diamond_l1_embedding

    if case == "bourgain-T5":
        emb = bourgain_embed(5)
    else:
        emb = diamond_l1_embedding(diamond(4, diamond_weighting()))
        if case.endswith("int64"):
            emb = emb.rescaled(2**70)
    emb = _on_points(emb, sorted(random.Random(case).sample(range(emb.space.size), 60)))
    assert emb.table.dtype == (object if case.endswith("int64") else np.int64)
    assert repr(distortion(emb)) == repr(distortion_tuples(emb.space, emb.vectors, emb.target))


@pytest.mark.parametrize("kind", ["l1", "summing", "linf"])
@pytest.mark.parametrize("vectors", [((F(5, 3),), (F(-1, 2),)), ((2**70,), (-3,)), ((0.1,), (0.7,))], ids=["fraction", "huge", "float"])
def test_single_pair_single_column(kind, vectors):
    # n = 2 is one block of one pair, and dim = 1 one column: the shape on
    # which a leading-axis reduce once broke bit-identity
    emb = Embedding(MetricSpace(((F(0), F(3, 2)), (F(3, 2), F(0)))), vectors, NormedTarget(kind, 1))
    assert repr(distortion(emb)) == repr(pairwise_distortion(emb))
    assert repr(distortion(emb)) == repr(distortion_tuples(emb.space, emb.vectors, emb.target))


def test_distortion_rejects_float_vanishing_distance():
    # float(d) == 0 for a positive d: measuring in floats would divide by
    # 0.0, so the space is rejected before the collapsed pair (1, 2) shows
    tiny = F(1, 10**400)
    sp = MetricSpace(((F(0), tiny, F(1)), (tiny, F(0), F(1)), (F(1), F(1), F(0))))
    with pytest.raises(ValidationError, match="0.0 in float64"):
        distortion(Embedding(sp, ((0.0,), (1.0,), (1.0,)), NormedTarget("l2", 1)))
    # exact vectors outside l2 are measured in integers, where d stays positive
    emb = Embedding(sp, ((F(0),), (F(1),), (F(2),)), NormedTarget("l1", 1))
    assert repr(distortion(emb)) == repr(pairwise_distortion(emb))


def test_distortion_rejects_negative_distance():
    sp = MetricSpace(((F(0), F(-1)), (F(-1), F(0))))
    for vecs in (((F(0),), (F(1),)), ((0.0,), (1.0,))):
        with pytest.raises(ValidationError, match="nonnegative"):
            distortion(Embedding(sp, vecs, NormedTarget("l1", 1)))


@pytest.mark.parametrize("kind", ["l1", "summing", "l2"])
def test_embedding_rejects_mixed_entries(kind):
    sp = apsp(cycle(4))
    vecs = ((F(0), 0.0), (F(1, 2), 1.0), (F(1), 0.5), (0.25, F(1, 3)))
    with pytest.raises(ValidationError, match="all exact"):
        Embedding(sp, vecs, NormedTarget(kind, 2))
    with pytest.raises(ValidationError, match="all exact"):
        Embedding(sp, ((0,), (1,), ("2",), (3,)), NormedTarget(kind, 1))


@st.composite
def _vertex_maps(draw):
    """A random apsp space, a random target apsp space, and a map between
    them, injective or not.  Scaling by 3^25 keeps the numerators in int64
    but not their cross-products; by 3^41/7 the numerators leave int64."""
    factor = draw(st.sampled_from([1, 3**25, F(3**41, 7)]))

    def space():
        return apsp(random_connected_graph(draw)).scaled(factor)

    source, target = space(), space()
    images = range(target.size)
    if source.size <= target.size and draw(st.booleans()):
        mapping = draw(st.permutations(images))[: source.size]
    else:
        mapping = draw(st.lists(st.sampled_from(images), min_size=source.size, max_size=source.size))
    return source, target, mapping


@settings(max_examples=400, deadline=None)
@given(_vertex_maps())
def test_map_distortion_matches_pair_loop(drawn):
    source, target, mapping = drawn
    value = map_distortion(source, target, mapping)
    assert value == pairwise_map_distortion(source, target, mapping)
    assert value is None or type(value) is F


def test_map_distortion_object_route():
    # int64 numerators whose cross-products leave int64 switch to Python ints
    path = apsp(path_graph(3))
    a, b = path.scaled(3**30), path.scaled(F(5**20, 7))
    assert a.num.dtype == b.num.dtype == np.int64
    for mapping in ([0, 1, 2], [0, 2, 1], [1, 0, 2], [0, 1, 1]):
        assert map_distortion(a, b, mapping) == pairwise_map_distortion(a, b, mapping)
    assert map_distortion(a, b, [0, 2, 1]) == 4
    assert map_distortion(a, b, [0, 1, 1]) is None
    with pytest.raises(ValidationError, match="positive distance"):
        map_distortion(MetricSpace(((F(0), F(0)), (F(0), F(0)))), path, [0, 1])
    with pytest.raises(ValidationError, match="one image per source point"):
        map_distortion(a, b, [0, 1])


def _first_max_cases():
    """(num, den) arrays: length 1, exact ties, ratios a float cannot tell
    apart, int64 entries near 2^63 and Python-int (object) entries."""
    rng = random.Random(41)
    big = 2**62
    cases = [
        ([5], [3]),
        ([0, 0, 0], [1, 2, 3]),
        ([2, 4, 6, 1], [1, 2, 3, 1]),  # three tied maxima: the first wins
        ([3, 1, 3], [2, 1, 2]),
        ([-3, -1, -2], [1, 1, 1]),  # negative numerators
        ([big + 1, big], [big, big - 1]),  # 1 + 2^-62 against 1 + ~2^-62
        ([big - 1, big], [big, big - 1]),
        ([3 * 2**61, 2**62 + 2**61 + 1], [3, 3]),  # ties below float resolution
        # the float ratios rank these two the wrong way round
        ([3328215373057276092, 141626186087543663], [47, 2]),
        ([2576941492797043917, 2457083748946018618], [43, 41]),
    ]
    for _ in range(200):
        n = rng.randint(1, 12)
        mag = rng.choice((10, 2**20, 2**61))
        den = [rng.randint(1, mag) for _ in range(n)]
        num = [rng.randint(0, mag) for _ in range(n)]
        if rng.random() < 0.5:  # plant ties with the running maximum
            k = rng.randrange(n)
            f = rng.randint(1, 3)
            num += [num[k] * f]
            den += [den[k] * f]
        cases.append((num, den))
    return cases


def test_first_max_matches_knockout():
    for num, den in _first_max_cases():
        products_fit = max(map(abs, num)) * max(den) <= 2**63 - 1
        kinds = [np.array(num, dtype=object), np.array(den, dtype=object)], [
            np.array(num, dtype=object),
            np.array(den, dtype=np.int64),
        ]
        if products_fit:
            kinds += ([np.array(num, dtype=np.int64), np.array(den, dtype=np.int64)],)
        for a, b in kinds:
            assert _first_max(a, b) == first_max_knockout(a, b), (num, den)
            if min(num) > 0:  # the reciprocal ratios too, as colip takes them
                assert _first_max(b, a) == first_max_knockout(b, a), (den, num)


def test_first_max_beyond_float_range():
    # Python ints that overflow a float: every index is a candidate
    huge = 10**400
    num = np.array([huge, huge + 1, 3 * huge, 3 * huge + 3], dtype=object)
    den = np.array([huge, huge, 3 * huge + 1, 3], dtype=object)
    assert _first_max(num, den) == first_max_knockout(num, den) == 3
    fractions = np.array([F(1, 3), F(2, 6), F(1, 10**400)], dtype=object)
    assert _first_max(fractions, np.array([1, 1, 1])) == 0


@st.composite
def _stored_rows(draw):
    """A space, its distance rows, rows and a target for every way a table
    is stored: int64-size and object-size numerators over mixed
    denominators (distances too), and floats (signed zeros included), in
    l1, l2, linf and summing."""
    kind = draw(st.sampled_from(["l1", "l2", "linf", "summing"]))
    entry = draw(st.sampled_from(["int", "fraction", "float"]))
    big = draw(st.sampled_from([1, 2**40, 2**70]))  # 2**70 needs Python ints
    n = draw(st.integers(2, 6))
    dim = draw(st.integers(1, 8))
    table = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = F(draw(st.integers(0, 6)) * big, draw(st.integers(1, 5)))

    def value():
        x = draw(st.integers(-4, 4))
        if entry == "int":
            return x * big
        if entry == "fraction":
            return F(x * big, draw(st.sampled_from([1, 2, 3, 7, 10**20])))
        return -0.0 if x == 0 and draw(st.booleans()) else x * big / draw(st.sampled_from([1, 3, 10]))

    rows = tuple(tuple(value() for _ in range(dim)) for _ in range(n))
    target = NormedTarget(kind, dim)
    return MetricSpace(table), tuple(map(tuple, table)), rows, target


def _result(compute):
    """repr of the value (so value types count), or the error raised."""
    try:
        return repr(compute())
    except (CollapsedPairError, ValidationError) as exc:
        return (type(exc).__name__, str(exc))


def _same_entries(got, want) -> bool:
    """Floats bit for bit (repr tells -0.0 from 0.0), exact entries equal in value."""
    def same(x, y):
        return repr(x) == repr(y) if isinstance(y, float) else not isinstance(x, float) and x == y

    return [len(v) for v in got] == [len(v) for v in want] and all(
        same(x, y) for u, v in zip(got, want) for x, y in zip(u, v)
    )


@settings(max_examples=300, deadline=None)
@given(_stored_rows())
def test_stored_table_matches_the_tuple_route(case):
    space, table, rows, target = case
    emb = Embedding(space, rows, target)
    assert _result(lambda: distortion(emb)) == _result(lambda: distortion_tuples(space, rows, target))
    assert _same_entries(emb.vectors, rows)
    exact = not isinstance(rows[0][0], float)
    assert {type(x) for v in emb.vectors for x in v} == ({F} if exact else {float})
    again = Embedding(space, emb.vectors, target)
    assert again == emb and (again.scale, again.table.dtype) == (emb.scale, emb.table.dtype)
    assert Embedding(space, np.array(rows, dtype=object), target) == emb
    for factor in (3, F(-2, 7), 0.1, 2**70, F(2**70, 3)):
        assert _same_entries(emb.rescaled(factor).vectors, rescaled_rows(rows, factor))
    # a MetricSpace and a martingale level hold the same table type
    assert space.dist == table and MetricSpace(np.array(table, dtype=object)) == space
    for factor in (2**70, F(2**70, 3)):
        assert space.scaled(factor).dist == scaled_rows(table, factor)
    breaks = tuple(F(k, len(rows)) for k in range(len(rows) + 1))
    if not exact:
        with pytest.raises(ValidationError, match="exact"):
            PiecewiseLevel(breaks, rows)
        return
    level, objects = PiecewiseLevel(breaks, rows), PiecewiseLevel(breaks, np.array(rows, dtype=object))
    assert _same_entries(level.values, rows) and objects == level and repr(objects) == repr(level)
    assert hash(objects) == hash(level)
    for factor in (2**70, F(2**70, 3)):
        big = PiecewiseLevel(breaks, rescaled_rows(rows, factor))
        assert _same_entries(big.values, rescaled_rows(rows, factor))
        mart = Martingale((level, big), target)
        assert repr(martingale_check(mart)) == repr(martingale_check_fractions(mart))
        if target.kind in ("l1", "linf", "summing"):
            assert martingale_l1_diff(level, big, target) == martingale_l1_diff_fractions(level, big, target)


def test_rescaling_zero_vectors_past_int64():
    # every product is 0, but the factor itself does not fit int64
    emb = Embedding(apsp(cycle(4)), ((0, 0),) * 4, NormedTarget("l1", 2))
    for factor in (2**70, F(2**70, 3), -(2**70)):
        big = emb.rescaled(factor)
        assert big.vectors == ((F(0), F(0)),) * 4 and big.table.dtype == np.int64


def test_the_library_reads_only_the_table(monkeypatch, tmp_path, capsys):
    from testspaces.cli import main
    from testspaces.formats import vectors_to_csv, write_space
    from testspaces.l2_distortion import fork_select, min_distortion_l2, normalize_noncontractive
    from testspaces.rnp import diamond_geodesic_family, diamond_l1_embedding, martingale_from_embedding

    t3, c4 = apsp(binary_tree(3)), apsp(cycle(4))
    vectors = ((F(0), F(1, 2)), (F(1), F(0)), (F(0), F(-1, 3)), (F(2), F(1)))
    paths = {name: str(tmp_path / name) for name in ("c4.csv", "vectors.csv", "gram.csv")}
    write_space(paths["c4.csv"], c4)
    (tmp_path / "vectors.csv").write_text(vectors_to_csv(vectors))

    def unread(self):
        raise AssertionError("library code read Embedding.vectors")

    monkeypatch.setattr(Embedding, "vectors", property(unread))
    frechet_l2 = Embedding(t3, t3.floats(), NormedTarget("l2", t3.size))
    for emb in (frechet_embed(t3), bourgain_embed(3), frechet_l2, Embedding(c4, vectors, NormedTarget("l2", 2))):
        distortion(emb)
    min_distortion_l2(c4)
    fork_select(3, normalize_noncontractive(frechet_l2)[0])
    family = diamond_geodesic_family(2)
    martingale_from_embedding(family, diamond_l1_embedding(family.family), 1)
    argvs = (
        ["distort", "--space", paths["c4.csv"], "--vectors", paths["vectors.csv"], "--target", "l1"],
        ["l2min", "--space", paths["c4.csv"], "--emit-gram", paths["gram.csv"]],
    )
    for argv in argvs:
        assert main(argv) == 0, capsys.readouterr().out
