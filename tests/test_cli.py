"""CLI: schemas, determinism, exit codes."""

import json
import math
import tracemalloc
from fractions import Fraction as F

import pytest

from testspaces import generators
from testspaces.cli import build_parser, main
from testspaces.formats import read_graph, read_space, vectors_to_csv, write_graph, write_space
from testspaces.l2_distortion import min_distortion_l2
from testspaces.metric_core import apsp


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(out)


def test_gen_diamond_writes_graph(tmp_path, capsys):
    out = tmp_path / "d2.json"
    code, rep = run_cli(
        capsys, "gen", "--family", "diamond", "--n", "2", "--weighting", "scaled",
        "--out", str(out),
    )
    assert code == 0
    assert rep["result"]["vertices"] == 12
    assert rep["result"]["edges"] == 16
    g = read_graph(str(out))
    assert g.size == 12


def test_apsp_command(tmp_path, capsys):
    gpath = tmp_path / "t2.json"
    run_cli(capsys, "gen", "--family", "tree", "--n", "2", "--out", str(gpath))
    dpath = tmp_path / "t2.csv"
    code, rep = run_cli(capsys, "apsp", "--graph", str(gpath), "--out", str(dpath))
    assert code == 0
    assert rep["result"]["diameter"] == "4"
    assert read_space(str(dpath)).size == 7


def test_markov_tree_exact_rhs(capsys):
    code, rep = run_cli(
        capsys, "markov", "--walk", "tree", "--n", "3", "--p", "2", "--mode", "exact"
    )
    assert code == 0
    assert rep["result"]["rhs"] == "8"  # 2^m with m = 3


def test_markov_exact_pi_lower_beyond_float_range(capsys):
    # at p = 2000 the exact lhs/rhs exceeds the float range; the root is
    # taken in logs instead of overflowing
    code, rep = run_cli(
        capsys, "markov", "--walk", "tree", "--n", "3", "--p", "2000", "--mode", "exact"
    )
    assert code == 0
    ratio = F(rep["result"]["lhs"]) / F(rep["result"]["rhs"])
    log_ratio = math.log(ratio.numerator) - math.log(ratio.denominator)
    assert log_ratio > 1024 * math.log(2)  # float(ratio) would overflow
    pi = rep["result"]["piLower"]
    assert math.isfinite(pi) and pi == pytest.approx(math.exp(log_ratio / 2000), rel=1e-12)


@pytest.mark.parametrize("n, pi", [(13, 6.6242), (14, 6.9192)])
def test_markov_tree_exact_past_the_mc_horizon_cap(capsys, n, pi):
    # the exact tree pass has no term table, so T = 8192 and 16384 run; at
    # n = 14 the lhs numerator has more digits than int-to-str allows
    code, rep = run_cli(capsys, "markov", "--walk", "tree", "--n", str(n), "--mode", "exact")
    assert code == 0
    assert rep["result"]["rhs"] == str(2**n)
    assert rep["result"]["piLower"] == pytest.approx(pi, abs=1e-4)
    assert len(rep["result"]["lhs"]) > (4300 if n == 14 else 2000)


def test_markov_tree_exact_caps_its_bit_work(capsys):
    # T (T + p ceil(log2 2T)) = 4.3e9 bit operations at n = 16: the cap
    # fires before any arithmetic
    tracemalloc.start()
    try:
        code, rep = run_cli(capsys, "markov", "--walk", "tree", "--n", "16", "--mode", "exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert rep["error"]["kind"] == "cap_exceeded"
    assert "bit operations" in rep["error"]["message"]
    assert peak < 2**20


@pytest.mark.parametrize("n", ["13", "2000"])
def test_markov_tree_mc_caps_its_term_table(capsys, n):
    # the (T + 1)^2 term table is checked from n before T = 2^n is formed;
    # at n = 2000, 2T would not even convert to a float
    code, rep = run_cli(
        capsys, "markov", "--walk", "tree", "--n", n, "--mode", "mc", "--seed", "1",
        "--samples", "10",
    )
    assert code == 3
    assert rep["error"]["kind"] == "cap_exceeded"
    assert "table entries" in rep["error"]["message"]


@pytest.mark.parametrize("walk", ["tree", "path"])
def test_markov_horizon_only_for_downhill_walks(capsys, walk):
    code, rep = run_cli(
        capsys, "markov", "--walk", walk, "--n", "2", "--mode", "exact", "--horizon", "99"
    )
    assert code == 2
    assert rep["error"]["kind"] == "validation"
    assert "--horizon" in rep["error"]["message"]


def test_markov_mc_requires_seed(capsys):
    code, rep = run_cli(
        capsys, "markov", "--walk", "tree", "--n", "2", "--p", "2", "--mode", "mc"
    )
    assert code == 2
    assert rep["error"]["kind"] == "validation"


@pytest.mark.parametrize(
    "walk, n", [("diamond", "1"), ("laakso", "1"), ("path", "4"), ("tree", "1")]
)
@pytest.mark.parametrize(
    "bad", [("--seed", "-1"), ("--p", "0"), ("--p", "-2")], ids="{0[0]}={0[1]}".format
)
def test_markov_mc_rejects_negative_seed_and_p_below_one(capsys, walk, n, bad):
    # the last --seed given wins
    code, rep = run_cli(
        capsys, "markov", "--walk", walk, "--n", n, "--mode", "mc", "--samples", "10",
        "--seed", "3", *bad,
    )
    assert code == 2
    assert rep["error"]["kind"] == "validation"


@pytest.mark.parametrize(
    "walk, n, distance",
    [("path", "4", "4.0"), ("tree", "3", "16.0"), ("laakso", "1", "0.25"), ("diamond", "2", "0.25")],
)
def test_markov_mc_rejects_p_beyond_float_range(capsys, walk, n, distance):
    # at p = 2000, d^p overflows for d > 1 and underflows for d < 1: Monte
    # Carlo would print a traceback, NaN or lhs = rhs = 0, so it points to
    # the exact mode instead
    code, rep = run_cli(
        capsys, "markov", "--walk", walk, "--n", n, "--p", "2000", "--mode", "mc",
        "--seed", "1", "--samples", "200",
    )
    assert code == 2
    assert rep["error"]["kind"] == "validation"
    message = rep["error"]["message"]
    assert f"distance of {distance} " in message and "--mode exact" in message


def test_distort_bourgain_vectors(tmp_path, capsys):
    from testspaces.embeddings import bourgain_embed
    from testspaces.formats import write_graph
    from testspaces.generators import binary_tree

    emb = bourgain_embed(4)
    gpath = tmp_path / "t4.json"
    write_graph(str(gpath), binary_tree(4))
    vpath = tmp_path / "bourgain.csv"
    vpath.write_text(vectors_to_csv(emb.vectors))
    code, rep = run_cli(
        capsys, "distort", "--space", str(gpath), "--vectors", str(vpath),
        "--target", "summing",
    )
    assert code == 0
    assert rep["result"]["lip"] == "1"
    assert F(rep["result"]["distortion"]) <= 3


def test_l2min_three_points(tmp_path, capsys):
    space = tmp_path / "tri.csv"
    space.write_text("0,1,1\n1,0,1\n1,1,0\n")
    code, rep = run_cli(capsys, "l2min", "--space", str(space), "--tol", "1e-4")
    assert code == 0
    assert abs(rep["result"]["c_star"] - 1.0) <= 1e-4


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
def test_l2min_tolerance_must_be_finite_and_positive(tmp_path, capsys, tol):
    space = tmp_path / "c6.json"
    write_graph(str(space), generators.cycle(6))
    code = main(["l2min", "--space", str(space), f"--tol={tol}"])
    printed = capsys.readouterr()
    assert code == 2
    rep = json.loads(printed.out)  # strict JSON: NaN and Infinity are not
    assert rep["error"]["kind"] == "validation"
    value = float(tol)
    assert rep["config"]["tol"] == (value if math.isfinite(value) else repr(value))
    for stream in (printed.out, printed.err):
        assert "NaN" not in stream and "Infinity" not in stream


@pytest.mark.parametrize("command", ["distort", "l2min"])
def test_space_csv_must_be_a_metric(tmp_path, capsys, command):
    space = tmp_path / "bent.csv"
    space.write_text("0,1,3\n1,0,1\n3,1,0\n")  # d(0,2) = 3 > d(0,1) + d(1,2)
    vectors = tmp_path / "vec.csv"
    vectors.write_text("0\n1\n2\n")
    extra = ["--vectors", str(vectors), "--target", "l1"] if command == "distort" else []
    code, rep = run_cli(capsys, command, "--space", str(space), *extra)
    assert code == 2
    assert rep["error"]["kind"] == "validation"
    assert "triangle violation, d(0,2) = 3 > d(0,1) + d(1,2) = 2" in rep["error"]["message"]


def test_rnp_commands(capsys):
    code, rep = run_cli(capsys, "rnp", "tree", "--n", "4")
    assert code == 0 and rep["result"]["identities"] == "exact"
    code, rep = run_cli(capsys, "rnp", "lines", "--depth", "2")
    assert code == 0
    assert rep["result"]["deviation_ge_half_delta"] is True
    code, rep = run_cli(
        capsys, "rnp", "martingale", "--diamond", "2", "--steps", "1",
        "--control-budget", "1",
    )
    assert code == 0
    assert rep["result"]["diffs_meet_bound"] is True
    assert rep["result"]["martingale_valid"] is True


def test_rnp_martingale_rejects_a_negative_control_budget(capsys):
    code, rep = run_cli(
        capsys, "rnp", "martingale", "--diamond", "3", "--steps", "1", "--control-budget", "-1"
    )
    assert code == 2
    assert rep["error"]["kind"] == "validation"
    assert "control budget" in rep["error"]["message"]


def test_oracle_commands(capsys):
    code, rep = run_cli(capsys, "oracle", "james-alpha", "--m", "3")
    assert code == 0 and rep["result"]["empirical"] == "1/3"
    code, rep = run_cli(capsys, "oracle", "cycle-tree", "--m", "4", "--max-tree-vertices", "4")
    assert code == 0
    assert rep["result"]["min_distortion"] == "3"


def test_validation_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, rep = run_cli(capsys, "apsp", "--graph", str(missing))
    assert code == 2
    assert rep["error"]["kind"] == "validation"


@pytest.mark.parametrize(
    "graph",
    [
        '{"vertices": [{"id": 0}, {"id": 1}], "edges": [[0, 1]]}',
        '{"vertices": [{"id": "a"}], "edges": []}',
        '{"vertices": [{"id": 0}, {"id": 1.9}], "edges": [[0, 1, "1"]]}',
        '{"vertices": [{"id": 0}, {"id": true}], "edges": [[0, 1, "1"]]}',
        '{"vertices": [{"id": 0}, {"id": 1}, {"id": 2}], "edges": [[0, 2.7, "1"]]}',
        '{"vertices": [{"id": 0, "label": [1]}], "edges": []}',
    ],
    ids=[
        "edge-not-a-triple",
        "vertex-id-not-an-int",
        "vertex-id-float",
        "vertex-id-bool",
        "endpoint-float",
        "label-list",
    ],
)
def test_apsp_rejects_malformed_graph_json(tmp_path, capsys, graph):
    gpath = tmp_path / "bad.json"
    gpath.write_text(graph)
    code, rep = run_cli(capsys, "apsp", "--graph", str(gpath))
    assert code == 2
    assert rep["error"]["kind"] == "validation"
    assert "malformed graph JSON" in rep["error"]["message"]


@pytest.mark.parametrize("reader", ["graph", "space", "vectors"])
def test_non_utf8_input_is_a_validation_error(tmp_path, capsys, reader):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"0,1\n1,\xff\n")
    good = tmp_path / "good.csv"
    good.write_text("0,1\n1,0\n")
    argv = {
        "graph": ["apsp", "--graph", str(bad)],
        "space": ["l2min", "--space", str(bad)],
        "vectors": ["distort", "--space", str(good), "--vectors", str(bad), "--target", "l1"],
    }[reader]
    code, rep = run_cli(capsys, *argv)
    assert code == 2
    assert rep["error"]["kind"] == "validation"
    assert "is not UTF-8 text" in rep["error"]["message"]


def test_gen_product_rejects_bad_depths(capsys):
    code, rep = run_cli(capsys, "gen", "--family", "product", "--depths", "2,x")
    assert code == 2
    assert rep["error"]["kind"] == "validation"
    assert "--depths" in rep["error"]["message"]


@pytest.mark.parametrize("vertices", ["0", "-3"])
def test_oracle_cycle_tree_rejects_empty_tree_range(capsys, vertices):
    code, rep = run_cli(capsys, "oracle", "cycle-tree", "--m", "5", "--max-tree-vertices", vertices)
    assert code == 2
    assert rep["error"]["kind"] == "validation"


def test_apsp_rejects_empty_graph(tmp_path, capsys):
    gpath = tmp_path / "empty.json"
    gpath.write_text('{"vertices": [], "edges": []}')
    code, rep = run_cli(capsys, "apsp", "--graph", str(gpath))
    assert code == 2
    assert rep["error"]["kind"] == "validation"
    assert "at least one vertex" in rep["error"]["message"]


def _equilateral_csv(n, d):
    return "".join(",".join("0" if i == j else str(d) for j in range(n)) + "\n" for i in range(n))


@pytest.mark.parametrize(
    "argv, inputs, field",
    [
        (["l2min"], {"space": _equilateral_csv(2, 10**300)}, "result.verified_distortion"),
        (["l2min"], {"space": _equilateral_csv(4, 10**160)}, "result.verified_distortion"),
        (
            ["distort", "--target", "l2"],
            {"space": _equilateral_csv(2, 1), "vectors": "0.0,0.0\n1e200,1e200\n"},
            "result.distortion",
        ),
    ],
    ids=["l2min-2-points-1e300", "l2min-equilateral-4-1e160", "distort-l2-1e200"],
)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_non_finite_result_is_undecided(tmp_path, capsys, argv, inputs, field):
    """A float result that overflows to NaN or infinity exits 4 and names
    its field; the report stays strict JSON."""
    for name, text in inputs.items():
        (tmp_path / f"{name}.csv").write_text(text)
        argv = [*argv, f"--{name}", str(tmp_path / f"{name}.csv")]
    code = main(argv)
    out = capsys.readouterr().out
    rep = json.loads(out, parse_constant=pytest.fail)  # NaN and Infinity are not JSON
    assert code == 4 and "result" not in rep
    assert rep["error"] == {"kind": "undecided", "message": f"{field} is not a finite number"}


def test_distort_rejects_float_vanishing_distance(tmp_path, capsys):
    # a valid metric whose positive distance 1/10^400 is 0.0 in float64
    space = tmp_path / "tiny.csv"
    tiny = "1/" + "1" + "0" * 400
    space.write_text(f"0,{tiny},1\n{tiny},0,1\n1,1,0\n")
    vectors = tmp_path / "vec.csv"
    vectors.write_text("0.0\n1.0\n2.0\n")
    code, rep = run_cli(
        capsys, "distort", "--space", str(space), "--vectors", str(vectors), "--target", "l1"
    )
    assert code == 2
    assert rep["error"]["kind"] == "validation"
    assert "0.0 in float64" in rep["error"]["message"]


def test_cap_exit_code(capsys):
    code, rep = run_cli(capsys, "gen", "--family", "heis", "--n", "99")
    assert code == 3
    assert rep["error"]["kind"] == "cap_exceeded"
    code, rep = run_cli(capsys, "rnp", "martingale", "--diamond", "4", "--steps", "1")
    assert code == 3
    assert rep["error"]["kind"] == "cap_exceeded"
    # 7^20 ≈ 8e16 grid points: at 10^5 per second the search would never return
    code, rep = run_cli(capsys, "oracle", "james-alpha", "--m", "20")
    assert code == 3
    assert rep["error"]["kind"] == "cap_exceeded"
    # D_7 has 10 924 points: its distance table would hold 1.2e8 entries
    code, rep = run_cli(capsys, "markov", "--walk", "diamond", "--n", "7", "--mode", "exact")
    assert code == 3
    assert rep["error"]["kind"] == "cap_exceeded"
    assert "10924x10924" in rep["error"]["message"]
    # broken lines of depth L have 4^L segments: the cap fires before the
    # tree of depth 8 or 12 is built
    for depth in ("8", "12"):
        code, rep = run_cli(capsys, "rnp", "lines", "--depth", depth)
        assert code == 3
        assert rep["error"]["kind"] == "cap_exceeded"
        assert "broken-line segments" in rep["error"]["message"]


@pytest.mark.parametrize(
    "walk",
    [["diamond", "--n", "1", "--horizon", "9000"], ["tree", "--n", "13"]],
    ids=["diamond-horizon-9000", "tree-13"],
)
def test_markov_mc_caps_the_term_table(capsys, walk):
    # (T, T + 1) and (T, T + 2) term tables of 8.1e7 and 6.7e7 float64
    # entries: the cap fires before either is allocated
    tracemalloc.start()
    try:
        code, rep = run_cli(
            capsys, "markov", "--walk", *walk, "--mode", "mc", "--seed", "1", "--samples", "10"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert rep["error"]["kind"] == "cap_exceeded"
    # the capped table holds the window's split-time terms, not distances
    assert "distance table" not in rep["error"]["message"]
    assert peak < 50 * 2**20


def test_determinism_identical_payloads(capsys):
    def payload():
        code, rep = run_cli(
            capsys, "markov", "--walk", "diamond", "--n", "1", "--p", "2",
            "--mode", "mc", "--seed", "17", "--samples", "200",
        )
        assert code == 0
        rep["meta"].pop("elapsed_s")
        return json.dumps(rep, sort_keys=True)

    assert payload() == payload()


def test_gen_product_and_heis(tmp_path, capsys):
    out = tmp_path / "prod.csv"
    code, rep = run_cli(
        capsys, "gen", "--family", "product", "--depths", "1,1", "--out", str(out)
    )
    assert code == 0 and rep["result"]["points"] == 9
    assert read_space(str(out)).size == 9
    code, rep = run_cli(capsys, "gen", "--family", "heis", "--n", "2")
    assert code == 0 and rep["result"]["points"] == 17


@pytest.mark.parametrize("depths,code", [("12,12", 3), ("1000000000", 3), ("-1,2", 2)])
def test_gen_product_checks_depths_before_building_factors(monkeypatch, capsys, depths, code):
    # the depths give the product's size, so no factor table is built first
    def no_apsp(graph):
        raise AssertionError("a factor table was built before the size check")

    monkeypatch.setattr(generators, "apsp", no_apsp)
    got, rep = run_cli(capsys, "gen", "--family", "product", f"--depths={depths}")
    assert got == code
    assert rep["error"]["kind"] == ("cap_exceeded" if code == 3 else "validation")


@pytest.mark.parametrize("family", ["diamond", "laakso"])
@pytest.mark.parametrize("weighting", ["unit", "scaled"])
def test_gen_writes_the_generators_weighting(tmp_path, capsys, family, weighting):
    out, ref = tmp_path / "cli.json", tmp_path / "ref.json"
    code, _ = run_cli(
        capsys, "gen", "--family", family, "--n", "2", "--weighting", weighting, "--out", str(out)
    )
    assert code == 0
    scaled = {"diamond": generators.diamond_weighting, "laakso": generators.laakso_weighting}
    w = scaled[family]() if weighting == "scaled" else generators.UNIT
    write_graph(str(ref), getattr(generators, family)(2, w).graph)
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("name", ["D2", "C4", "C6", "C7", "C8"])
def test_l2min_gram_sums_in_coordinate_order(tmp_path, capsys, name):
    # each entry is the left-to-right sum from 0 of the coordinate products,
    # as the builtin `sum` of Python 3.11 gives it; C_5 and C_9 are left out
    # because the solver leaves them undecided
    graph = generators.diamond(2).graph if name == "D2" else generators.cycle(int(name[1:]))
    space, gram = tmp_path / "space.csv", tmp_path / "gram.csv"
    write_space(str(space), apsp(graph))
    code, _ = run_cli(capsys, "l2min", "--space", str(space), "--emit-gram", str(gram))
    assert code == 0
    vecs = min_distortion_l2(read_space(str(space))).embedding.vectors  # deterministic
    lines = []
    for u in vecs:
        row = []
        for v in vecs:
            total = 0
            for a, b in zip(u, v):
                total += a * b
            row.append(repr(total))
        lines.append(",".join(row) + "\n")
    assert gram.read_text() == "".join(lines)


def test_parser_is_built_once_and_calls_stay_independent(capsys):
    # one shared parser: an override in one call must not leak into the next
    assert build_parser() is build_parser()
    argv = ("markov", "--walk", "tree", "--n", "2", "--mode", "exact")
    _, first = run_cli(capsys, *argv)
    code, other = run_cli(capsys, *argv, "--p", "3")
    assert code == 0 and other["config"]["p"] == 3
    _, again = run_cli(capsys, *argv)
    assert again["config"] == first["config"] and again["config"]["p"] == 2
    assert again["result"] == first["result"]
