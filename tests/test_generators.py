"""Generator families: counts, labels, isometric injections, Heisenberg balls."""

import hashlib
import re
from fractions import Fraction as F

import pytest

import testspaces.embeddings as embeddings
import testspaces.generators as generators
import testspaces.l2_distortion as l2_distortion
import testspaces.markov as markov
import testspaces.metric_core as metric_core
import testspaces.rnp as rnp
from testspaces.errors import CapExceededError, ValidationError
from testspaces.generators import (
    UNIT,
    Weighting,
    binary_tree,
    cycle,
    diamond,
    diamond_weighting,
    fork,
    heis_inv,
    heis_mul,
    heisenberg_ball,
    laakso,
    laakso_weighting,
    tree_product,
)
from testspaces.metric_core import apsp, verify_metric

from _oracles import adjacency, dijkstra_fractions, heisenberg_ball_by_words


def test_binary_tree_counts_and_diameter():
    g = binary_tree(3)
    assert g.size == 15
    sp = apsp(g)
    assert max(max(r) for r in sp.dist) == 6  # diameter 2n
    assert binary_tree(0).size == 1
    assert len(binary_tree(0).edges) == 0


def test_binary_tree_adjacency_matches_labels():
    g = binary_tree(3)
    labels = g.labels()
    adjacent = {(min(u, v), max(u, v)) for u, v, _ in g.edges}
    for i, a in enumerate(labels):
        for j in range(i + 1, len(labels)):
            b = labels[j]
            extends = (len(a) == len(b) + 1 and a[: len(b)] == b) or (
                len(b) == len(a) + 1 and b[: len(a)] == a
            )
            assert ((i, j) in adjacent) == extends


def test_fork_distances():
    sp = apsp(fork())
    a0, a1, a2, a2p = 0, 1, 2, 3
    assert sp.d(a0, a2) == 2
    assert sp.d(a2, a2p) == 2
    assert sp.d(a0, a1) == 1
    # isometric to {root, 0, 00, 01} inside T_2
    t2 = apsp(binary_tree(2))
    lab = {v: i for i, v in enumerate(t2.labels)}
    sub = [lab[""], lab["0"], lab["00"], lab["01"]]
    for i in range(4):
        for j in range(4):
            assert sp.d(i, j) == t2.d(sub[i], sub[j])


@pytest.mark.parametrize(
    "n,vertices,edges", [(0, 2, 1), (1, 4, 4), (2, 12, 16), (3, 44, 64), (4, 172, 256)]
)
def test_diamond_counts(n, vertices, edges):
    fam = diamond(n, diamond_weighting())
    assert fam.graph.size == vertices
    assert len(fam.graph.edges) == edges


@pytest.mark.parametrize("n,vertices,edges", [(0, 2, 1), (1, 6, 6), (2, 30, 36), (3, 174, 216)])
def test_laakso_counts(n, vertices, edges):
    fam = laakso(n, laakso_weighting())
    assert fam.graph.size == vertices
    assert len(fam.graph.edges) == edges


def test_weighted_source_sink_distances():
    for n in range(4):
        assert apsp(diamond(n, diamond_weighting()).graph).d(0, 1) == 1
        assert apsp(laakso(n, laakso_weighting()).graph).d(0, 1) == 1
    for n in range(1, 4):
        assert apsp(diamond(n, UNIT).graph).d(0, 1) == 2**n


@pytest.mark.parametrize("maker,weighting", [(diamond, diamond_weighting()), (laakso, laakso_weighting())])
def test_weighted_injections_are_isometric(maker, weighting):
    # old vertices keep their indices; their pairwise distances must be
    # preserved exactly at every level up to 4
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


# SHA-256 of the canonical structure of D_0..D_5 and L_0..L_4, recorded from
# the separate diamond and Laakso constructions that preceded the shared
# edge-replacement skeleton.  Downhill walks, the tent embedding, geodesic
# families and `gen --out` files all read these indices, edge orders and chains.
FAMILY_DIGESTS = {
    "diamond": {
        "unit": (
            "336fa7e1473a6a466327fc1f9233284031dd55919d2a062320eadcff35a79f0f",
            "40845e7568cf90740dd76956cf18d43bfe04e5c3471951fab72f8111dbf3935c",
            "83e8d04ae64220bc40aad331f5df96db6c5cdd5065258432c3e4a6c269681faf",
            "5f14fabf9a8650678484664fd2bee47101cc492fdedb3d473e7e357d287e455f",
            "eed3b69fa564c75072faea8891130f427bb4d7e9003e5c4a5310449f87436e38",
            "bbf293802339f410f2b9402858833436d82da1d8be3ceedf752133b56cec04ef",
        ),
        "scaled": (
            "336fa7e1473a6a466327fc1f9233284031dd55919d2a062320eadcff35a79f0f",
            "104fe67f2b5246a510e87e18322913ae1ebfeaf5626c41dd596d391aa42a1b03",
            "3ea7d87cfb816134be40014ca94ac1d8cefb2ede214099918e55a4ae251ac7e7",
            "f3a21942ffb3561893b8e06b6f31e2465af17bffbb9b9e2fdccaf4b46abc891f",
            "8ab4ee287e06d20294a7dfc54c451c808b8bbaa9b97a6de6f1ceaba2694586a2",
            "94d22a668e6bb27eb3c8686554912d6d1d4522535d609186a3aa4dccf8bd2365",
        ),
    },
    "laakso": {
        "unit": (
            "dd9a6c075eb6a378b537f1434c1bf36fcb89ab25ce3cab9e288f513f874f1129",
            "63f30aaac1a65c602d4507d520c5797ac61e9325a549e398684023078833e432",
            "f1b601e05aca880effc3c2a552476087489e3f394cae6f05ec555e4572371bf9",
            "45c044e23059b39273b404a87b1e3cdeeb92f31dbde3bb742dfb584099250bbc",
            "852589198aa06e06fdd75ef35bd1bd28b8912ff3412c04e95f272afa103d2c3f",
        ),
        "scaled": (
            "dd9a6c075eb6a378b537f1434c1bf36fcb89ab25ce3cab9e288f513f874f1129",
            "6c8bcd57c612ff9ae7309d24b84d25a13bc0a8552fefa8eeb40953e61d30e93a",
            "88ed19b9d4d029f2e7497ddee9db7aafa1ab5383ab13a5732b987db85d6c2736",
            "7192edd96137aea93feb8cfe99d2f8e5c49b4ebc9f0bb9168aa9287c5f26b7a5",
            "6a2f5d3c63755270c239526c238ee2d366bb31ef206b14bae0c4c6192d5dd770",
        ),
    },
}


def _structure_digest(fam) -> str:
    canon = (
        fam.kind,
        fam.level,
        fam.source,
        fam.sink,
        fam.vertex_counts,
        tuple((u, v, str(w)) for u, v, w in fam.graph.edges),
        fam.chains,
        tuple((unit.level, unit.ends) for unit in fam.units),
    )
    return hashlib.sha256(repr(canon).encode()).hexdigest()


@pytest.mark.parametrize(
    "maker,scaled", [(diamond, diamond_weighting), (laakso, laakso_weighting)]
)
@pytest.mark.parametrize("mode", ["unit", "scaled"])
def test_family_structure_is_pinned(maker, scaled, mode):
    w = UNIT if mode == "unit" else scaled()
    for n, expected in enumerate(FAMILY_DIGESTS[maker.__name__][mode]):
        assert _structure_digest(maker(n, w)) == expected, (maker.__name__, mode, n)


WEIGHTINGS = {
    "unit": lambda maker: UNIT,
    "scaled": lambda maker: diamond_weighting() if maker is diamond else laakso_weighting(),
}


@pytest.mark.parametrize("maker,top", [(diamond, 5), (laakso, 4)], ids=["diamond", "laakso"])
@pytest.mark.parametrize("weighting", sorted(WEIGHTINGS))
def test_metric_space_equals_apsp(maker, top, weighting):
    # the construction's table against Dijkstra: same numerators, scale,
    # dtype and labels on every level
    for n in range(top + 1):
        fam = maker(n, WEIGHTINGS[weighting](maker))
        built, searched = fam.metric_space(), apsp(fam.graph)
        assert built == searched, (n, weighting)
        assert built.num.dtype == searched.num.dtype and built.labels == fam.graph.labels()


def test_replacement_units_match_chains():
    for fam, sides in ((diamond(3), (0, 1)), (laakso(2), (2, 0, 1, 2))):
        assert [u.uid for u in fam.units] == list(range(len(fam.units)))
        for unit in fam.units:
            lo, hi = fam.vertex_counts[unit.level - 1], fam.vertex_counts[unit.level]
            assert all(lo <= v < hi for v in unit.middle)
            assert tuple(fam.chains[v][-1] for v in unit.middle) == tuple(
                (unit.uid, side) for side in sides
            )

def test_cycle_examples():
    sp = apsp(cycle(6))
    assert sp.d(0, 3) == 3
    assert max(max(r) for r in sp.dist) == 3
    sp4 = apsp(cycle(4))
    d1 = apsp(diamond(1, UNIT).graph)
    sorted4 = sorted(sorted(row) for row in sp4.dist)
    assert sorted4 == sorted(sorted(row) for row in d1.dist)
    with pytest.raises(ValidationError):
        cycle(2)


def test_tree_product():
    t1 = apsp(binary_tree(1))
    single = tree_product([1])
    assert single.size == t1.size
    assert all(
        single.d(i, j) == t1.d(i, j) for i in range(3) for j in range(3)
    )
    prod = tree_product([1, 1])
    root_root = prod.labels.index("(,)")
    leaf_leaf = prod.labels.index("(0,0)")
    assert prod.d(root_root, leaf_leaf) == 2
    assert verify_metric(prod).valid


def test_tree_product_cap():
    with pytest.raises(CapExceededError):
        tree_product([4, 4, 4])


@pytest.mark.parametrize("r,size", [(0, 1), (1, 5), (2, 17), (3, 53), (4, 135)])
def test_heisenberg_ball_sizes_match_word_oracle(r, size):
    ball = heisenberg_ball(r)
    oracle = heisenberg_ball_by_words(r)
    assert ball.size == size == len(oracle)
    # word distances from the identity agree with the enumeration oracle
    ident = ball.labels.index("0,0,0")
    for i, lab in enumerate(ball.labels):
        g = tuple(int(x) for x in lab.split(","))
        assert ball.d(ident, i) == oracle[g]


def test_heisenberg_left_invariance():
    ball = heisenberg_ball(2)
    elems = [tuple(int(x) for x in lab.split(",")) for lab in ball.labels]
    index = {g: i for i, g in enumerate(elems)}
    inside = set(elems)
    for g in elems:
        for u in elems:
            for v in elems:
                gu, gv = heis_mul(g, u), heis_mul(g, v)
                if gu in inside and gv in inside:
                    assert ball.d(index[gu], index[gv]) == ball.d(index[u], index[v])


def test_heisenberg_metric_axioms():
    assert verify_metric(heisenberg_ball(2)).valid


def test_weighting_validation():
    with pytest.raises(ValidationError):
        Weighting("bogus")
    # scaled edges are f^(-n), f the gadget's end-to-end hop count
    for maker, f in ((diamond, 2), (laakso, 4)):
        assert {w for _, _, w in maker(3, Weighting("scaled")).graph.edges} == {F(1, f**3)}
        assert {w for _, _, w in maker(3, UNIT).graph.edges} == {1}


def test_caps(monkeypatch):
    monkeypatch.setattr(generators, "VERTEX_CAP", 20)
    with pytest.raises(CapExceededError):
        diamond(3, UNIT)
    # D_2 has 12 vertices and L_2 has 30: the cap is inclusive
    monkeypatch.setattr(generators, "VERTEX_CAP", 12)
    assert diamond(2, UNIT).graph.size == 12
    monkeypatch.setattr(generators, "VERTEX_CAP", 11)
    with pytest.raises(CapExceededError, match="^the number of vertices of diamond level 2 exceeds cap 11$"):
        diamond(2, UNIT)
    monkeypatch.setattr(generators, "VERTEX_CAP", 30)
    assert laakso(2, UNIT).graph.size == 30
    monkeypatch.setattr(generators, "VERTEX_CAP", 29)
    with pytest.raises(CapExceededError, match="^the number of vertices of laakso level 2 exceeds cap 29$"):
        laakso(2, UNIT)
    monkeypatch.setattr(generators, "VERTEX_CAP", 100)
    with pytest.raises(CapExceededError):
        binary_tree(8)
    with pytest.raises(CapExceededError):
        heisenberg_ball(9)


@pytest.mark.parametrize("n", [17, 10**9])
def test_tree_labels_stop_at_the_vertex_cap(n):
    # tree_labels listed 2^(n+1) - 1 strings for any n: it now stops where
    # binary_tree does, before listing one (10^9 would never return)
    want = f"the number of vertices of the binary tree of depth {n} exceeds cap {generators.VERTEX_CAP}"
    with pytest.raises(CapExceededError, match=f"^{re.escape(want)}$"):
        generators.tree_labels(n)
    assert generators.tree_labels(2) == ["", "0", "1", "00", "01", "10", "11"]


@pytest.mark.parametrize("radius", [2 * generators.HEISENBERG_RADIUS_CAP + 1, 10**6])
def test_word_length_search_stops_past_the_ball_cap(radius):
    # heisenberg_ball searches radius 2r <= 2 HEISENBERG_RADIUS_CAP; a larger
    # search grew until memory ran out and is refused before it starts
    want = f"the radius {radius} of the Heisenberg word-length search (it grows ~ r^4) exceeds cap 16"
    with pytest.raises(CapExceededError, match=f"^{re.escape(want)}$"):
        generators.heisenberg_word_lengths(radius)
    assert len(generators.heisenberg_word_lengths(2)) == 17


def _t4_frechet():
    """The Fréchet l2 embedding of T_4, made non-contractive."""
    space = apsp(binary_tree(4))
    rows = tuple(tuple(map(float, row)) for row in space.dist)
    frechet = embeddings.Embedding(space, rows, embeddings.NormedTarget("l2", space.size))
    return l2_distortion.normalize_noncontractive(frechet)[0]


def _lazy_path():
    walk = markov.lazy_path_walk(2)
    return walk.chain, walk.metric_map, walk.space


def _unit_diamond_martingale(steps):
    family = rnp.diamond_geodesic_family(1)
    return rnp.martingale_from_embedding(family, rnp.diamond_l1_embedding(family.family), steps)


# every metric_core.check_int call, each with the full message it refuses with:
# "<need>, got <value!r>"
INT_ARGUMENTS = [
    ("binary_tree-2.0", lambda: binary_tree(2.0), "depth must be an int >= 0, got 2.0"),
    ("binary_tree-True", lambda: binary_tree(True), "depth must be an int >= 0, got True"),
    ("tree_labels-2.0", lambda: generators.tree_labels(2.0), "depth must be an int >= 0, got 2.0"),
    ("tree_labels-True", lambda: generators.tree_labels(True), "depth must be an int >= 0, got True"),
    ("cycle-5.0", lambda: cycle(5.0), "cycle needs an int m >= 3, got 5.0"),
    ("diamond-1.0", lambda: diamond(1.0), "level must be an int >= 0, got 1.0"),
    ("laakso-True", lambda: laakso(True), "level must be an int >= 0, got True"),
    ("tree_product-1.0", lambda: tree_product([1.0]), "each depth must be an int >= 0, got 1.0"),
    ("heisenberg_ball-1.0", lambda: heisenberg_ball(1.0), "radius must be an int >= 0, got 1.0"),
    (
        "heisenberg_word_lengths-True",
        lambda: generators.heisenberg_word_lengths(True),
        "radius must be an int >= 0, got True",
    ),
    (
        "path_graph-2.0",
        lambda: metric_core.path_graph(2.0),
        "path needs at least one vertex, an int count, got 2.0",
    ),
    (
        "RationalTable-scale-2.0",
        lambda: metric_core.RationalTable([[0]], 2.0),
        "a table's scale must be a positive int, got 2.0",
    ),
    ("lazy_path_walk-2.5", lambda: markov.lazy_path_walk(2.5), "need an int horizon >= 1, got 2.5"),
    ("downward_tree_walk-1.0", lambda: markov.downward_tree_walk(1.0), "need an int m >= 1, got 1.0"),
    (
        "downhill_walk-horizon-2.0",
        lambda: markov.downhill_walk(diamond(1), 2.0),
        "need an int horizon >= 1, got 2.0",
    ),
    (
        "downhill_exact-horizon-2.0",
        lambda: markov.downhill_convexity_exact(diamond(1), 2, 2.0),
        "need an int horizon >= 1, got 2.0",
    ),
    (
        "downhill_exact-p-2.0",
        lambda: markov.downhill_convexity_exact(diamond(1), 2.0),
        "exact mode needs integer p >= 1, got 2.0",
    ),
    ("lazy_path_exact-T-2.5", lambda: markov.lazy_path_convexity_exact(2.5, 2), "need an int horizon >= 1, got 2.5"),
    ("lazy_path_exact-p-0", lambda: markov.lazy_path_convexity_exact(2, 0), "exact mode needs integer p >= 1, got 0"),
    (
        "exact_convexity-p-2.0",
        lambda: markov.exact_convexity(*_lazy_path(), 2.0),
        "exact mode needs integer p >= 1, got 2.0",
    ),
    (
        "mc_convexity-seed-1.0",
        lambda: markov.mc_convexity(*_lazy_path(), 2, 1.0, 10),
        "need an int seed >= 0, got 1.0",
    ),
    (
        "mc_convexity-samples-10.0",
        lambda: markov.mc_convexity(*_lazy_path(), 2, 1, 10.0),
        "need an int number of samples >= 1, got 10.0",
    ),
    ("tree_walk_exact-m-1.0", lambda: markov.tree_walk_convexity_exact(1.0, 2), "need an int m >= 1, got 1.0"),
    ("tree_walk_exact-p-2.0", lambda: markov.tree_walk_convexity_exact(1, 2.0), "need an int p >= 1, got 2.0"),
    ("tree_walk_mc-m-1.0", lambda: markov.tree_walk_convexity_mc(1.0, 2, 0, 10), "need an int m >= 1, got 1.0"),
    ("NormedTarget-dim-2.0", lambda: embeddings.NormedTarget("l1", 2.0), "dimension must be an int >= 1, got 2.0"),
    ("NormedTarget-dim-True", lambda: embeddings.NormedTarget("l1", True), "dimension must be an int >= 1, got True"),
    ("bourgain_labeling-2.0", lambda: embeddings.bourgain_labeling(2.0), "depth must be an int >= 0, got 2.0"),
    ("bourgain_embed-2.0", lambda: embeddings.bourgain_embed(2.0), "depth must be an int >= 1, got 2.0"),
    ("bourgain_distortion-2.0", lambda: embeddings.bourgain_distortion(2.0), "depth must be an int >= 1, got 2.0"),
    ("james_alpha-m-2.5", lambda: embeddings.james_alpha(2.5), "need an int m >= 2, got 2.5"),
    (
        "james_alpha-bound-1.5",
        lambda: embeddings.james_alpha(3, 1.5),
        "empty coefficient grid: need an int bound >= 1, got 1.5",
    ),
    ("cycle_tree-m-6.0", lambda: embeddings.cycle_tree_lower_oracle(6.0, 5), "cycle needs an int m >= 3, got 6.0"),
    (
        "cycle_tree-vertices-5.0",
        lambda: embeddings.cycle_tree_lower_oracle(6, 5.0),
        "need an int max_tree_vertices >= 1, got 5.0",
    ),
    ("kloeckner_bound-4.0", lambda: l2_distortion.kloeckner_bound(4.0, 1.0), "depth must be an int >= 1, got 4.0"),
    ("kloeckner_bound-True", lambda: l2_distortion.kloeckner_bound(True, 1.0), "depth must be an int >= 1, got True"),
    ("fork_select-4.0", lambda: l2_distortion.fork_select(4.0, _t4_frechet()), "need an int depth >= 2, got 4.0"),
    ("rademacher_tree-2.0", lambda: rnp.rademacher_tree(2.0), "depth must be an int >= 1, got 2.0"),
    (
        "broken_line_family-1.0",
        lambda: rnp.broken_line_family(rnp.tree_to_bush(rnp.rademacher_tree(2)), 1.0),
        "label depth must be an int >= 0, got 1.0",
    ),
    ("diamond_geodesic_family-1.0", lambda: rnp.diamond_geodesic_family(1.0), "level must be an int >= 0, got 1.0"),
    (
        "thickness_alpha-budget-1.0",
        lambda: rnp.thickness_alpha(rnp.diamond_geodesic_family(1), 1.0),
        "control budget must be an int >= 0, got 1.0",
    ),
    (
        "martingale-steps-1.0",
        lambda: _unit_diamond_martingale(1.0),
        "the double-step count must be an int >= 1, got 1.0",
    ),
]


@pytest.mark.parametrize("call, message", [pytest.param(*case[1:], id=case[0]) for case in INT_ARGUMENTS])
def test_sizes_and_depths_are_ints(call, message):
    # each float raised a bare TypeError from range, a shift or a slice, and
    # True, or a float nothing choked on, was taken as its number; now each
    # refuses through metric_core.check_int with its full message
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
