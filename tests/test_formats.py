"""Serialization round trips: graph JSON, distance CSV, vector CSV."""

import decimal
from fractions import Fraction as F

import numpy as np
import pytest

from _oracles import (
    space_from_csv_per_entry,
    space_to_csv_per_entry,
    vectors_from_csv_per_entry,
    vectors_to_csv_per_entry,
)
from testspaces import formats
from testspaces.errors import ValidationError
from testspaces.formats import (
    graph_from_json,
    graph_to_json,
    parse_rational,
    rational_str,
    space_from_csv,
    space_to_csv,
    vectors_from_csv,
    vectors_to_csv,
)
from testspaces.generators import (
    binary_tree,
    diamond,
    diamond_weighting,
    heisenberg_ball,
    tree_product,
)
from testspaces.metric_core import MetricSpace, apsp


def test_rational_strings():
    assert rational_str(F(1, 4)) == "1/4"
    assert rational_str(F(8, 4)) == "2"
    assert parse_rational("3/7") == F(3, 7)
    assert parse_rational("-2") == F(-2)
    with pytest.raises(ValidationError):
        parse_rational("1/0")
    with pytest.raises(ValidationError):
        parse_rational("x")


@pytest.mark.parametrize(
    "x", [F(10**5000 + 7), F(-(3**20000)), F(3**9000, 2**20001), F(10**600), F(10**1200 - 1, 7)]
)
def test_rational_strings_past_the_int_digit_limit(x):
    # str(int) refuses more than 4300 digits by default; Decimal writes
    # every digit by another route
    num, den = (str(decimal.Decimal(v)) for v in (x.numerator, x.denominator))
    assert rational_str(x) == (num if den == "1" else f"{num}/{den}")


def test_graph_round_trip():
    g = diamond(2, diamond_weighting()).graph
    data = graph_to_json(g)
    assert data["edges"][0][2] == "1/4"
    back = graph_from_json(data)
    assert back == g
    t = binary_tree(2)
    assert graph_from_json(graph_to_json(t)) == t


def test_graph_json_validation():
    with pytest.raises(ValidationError):
        graph_from_json({"vertices": [{"id": 0}], "edges": [[0, 0, "1"]]})


@pytest.mark.parametrize(
    "data",
    [
        {"vertices": [{"id": 0}, {"id": 1}], "edges": [[0, 1]]},
        {"vertices": [{"id": "a"}], "edges": []},
        {"vertices": [{"id": 0}, {"id": 1.9}], "edges": [[0, 1, "1"]]},
        {"vertices": [{"id": 0}, {"id": True}], "edges": [[0, 1, "1"]]},
        {"vertices": [{"id": 0}, {"id": 1}, {"id": 2}], "edges": [[0, 2.7, "1"]]},
        {"vertices": [{"id": 0}, {"id": 1}], "edges": [[False, 1, "1"]]},
        {"vertices": [{"id": 0, "label": [1]}], "edges": []},
        {"vertices": [{"id": 0, "label": 7}], "edges": []},
    ],
    ids=[
        "edge-not-a-triple",
        "vertex-id-not-an-int",
        "vertex-id-float",
        "vertex-id-bool",
        "endpoint-float",
        "endpoint-bool",
        "label-list",
        "label-int",
    ],
)
def test_graph_json_rejects_malformed_entries(data):
    with pytest.raises(ValidationError, match="malformed graph JSON"):
        graph_from_json(data)


def test_space_csv_round_trip():
    sp = apsp(diamond(1, diamond_weighting()).graph)
    text = space_to_csv(sp)
    back = space_from_csv(text)
    assert back.dist == sp.dist


def test_space_csv_must_be_square():
    with pytest.raises(ValidationError):
        space_from_csv("0,1\n1\n")


def test_vectors_round_trip_exact_and_float():
    exact = ((F(1, 3), F(-2)), (F(0), F(5, 7)))
    text = vectors_to_csv(exact)
    assert vectors_from_csv(text) == exact
    floats = ((1.25, -0.5),)
    back = vectors_from_csv(vectors_to_csv(floats))
    assert back == floats


def test_vector_file_is_exact_only_when_all_rational():
    # one float row makes the whole file float, so no report mixes types
    assert vectors_from_csv("1,2\n0.5,1\n3,1\n") == ((1.0, 2.0), (0.5, 1.0), (3.0, 1.0))
    assert vectors_from_csv("1,2/3\n-4,1\n") == ((F(1), F(2, 3)), (F(-4), F(1)))
    with pytest.raises(ValidationError, match="bad float"):
        vectors_from_csv("1/2,0.5\n")


def _outcome(fn, *args):
    """fn(*args), or the type and message of the ValidationError it raises."""
    try:
        return fn(*args)
    except ValidationError as e:
        return ValidationError, str(e)


def _same_space(got, want):
    assert (got.num.dtype, got.num.shape, got.scale) == (want.num.dtype, want.num.shape, want.scale)
    assert got.num.tolist() == want.num.tolist()


def _same_entries(got, want):
    # equal values of equal types: 0.0 and -0.0, or 1 and 1.0, do not pass
    assert [[(type(x), repr(x)) for x in row] for row in got] == [
        [(type(x), repr(x)) for x in row] for row in want
    ]


TABLES = {
    "mixed-denominators": "0,1/2,1/3\n1/2,0,5/6\n1/3,5/6,0\n",
    "object-numerators": f"0,{2**70},1/3\n{2**70},0,{2**70 + 1}\n1/3,{2**70 + 1},0\n",
    "near-int64": f"0,{2**62}\n{2**62},0\n",
    "token-spellings": "0, 1/2,+3\n1/2,0,03\n2/4,3,-0\n",
    "blank-lines": "\n0,1\n\n1,0\n",
    "empty": "",
    "one-point": "0\n",
    "decimal-tokens": "0,0.5\n1/2,0\n",
}


@pytest.mark.parametrize("text", TABLES.values(), ids=TABLES.keys())
def test_space_csv_matches_the_per_entry_route(text):
    got, want = space_from_csv(text), space_from_csv_per_entry(text)
    _same_space(got, want)
    assert space_to_csv(got) == space_to_csv_per_entry(want)


def test_space_csv_writes_the_per_entry_bytes():
    spaces = [
        apsp(diamond(2, diamond_weighting()).graph),
        apsp(diamond(2, diamond_weighting()).graph).scaled(F(7, 3)),
        MetricSpace(np.array([[0, -3], [-3, 5]]), 5),  # the writer takes any table
        heisenberg_ball(2),
        tree_product([2, 1]),
        MetricSpace(np.array([[0, 2**70], [2**70, 0]], dtype=object), 3),
    ]
    for sp in spaces:
        text = space_to_csv(sp)
        assert text == space_to_csv_per_entry(sp)
        _same_space(space_from_csv(text), sp)


BAD_TABLES = {
    "bad-token-and-ragged": "0,1,x\n1,0\n",
    "first-bad-token-wins": "0,y,x\nx,0,1\n1,1,0\n",
    "zero-denominator": "0,1/0\n1/0,0\n",
    "ragged": "0,1\n1\n",
}


@pytest.mark.parametrize("text", BAD_TABLES.values(), ids=BAD_TABLES.keys())
def test_space_csv_errors_match_the_per_entry_route(text):
    got = _outcome(space_from_csv, text)
    assert got[0] is ValidationError
    assert got == _outcome(space_from_csv_per_entry, text)


VECTOR_FILES = {
    "exact-negative": "1,-2/3\n-4,1\n-4,-2/3\n",
    "exact-spellings": " 1/2,+3\n03,2/4\n-0,1/2\n",
    "float": "1.5,-0.5\n-0.0,0.0\n1e-3,-2\n",
    "float-specials": "inf,-inf\nnan,1E5\n",
    "float-mixed-with-rationals": "1,2\n0.5,1\n3,1\n",
    "bad-float": "1/2,0.5\n",
    "bad-rational": "1,x\ny,1\n",
    "empty": "",
}


@pytest.mark.parametrize("text", VECTOR_FILES.values(), ids=VECTOR_FILES.keys())
def test_vectors_csv_matches_the_per_entry_route(text):
    got, want = _outcome(vectors_from_csv, text), _outcome(vectors_from_csv_per_entry, text)
    if want[:1] == (ValidationError,):
        assert got == want
        return
    _same_entries(got, want)
    assert vectors_to_csv(got) == vectors_to_csv_per_entry(want)


def test_vectors_to_csv_writes_the_per_entry_bytes():
    cases = [
        ((F(1, 3), F(-2)), (0, F(5, 7)), (True, -1)),
        ((1.0, 1), (0.0, -0.0), (F(1), 1.0)),  # equal values, different text
        ((np.float64(0.1), np.int64(3)), (float("nan"), float("-inf"))),
        ((2**70, F(-(2**70), 3)),),
        ((), (1,)),
    ]
    for vectors in cases:
        assert vectors_to_csv(vectors) == vectors_to_csv_per_entry(vectors)


def test_each_distinct_token_is_parsed_once(monkeypatch):
    seen = []

    def counting(s):
        seen.append(s)
        return parse_rational(s)

    monkeypatch.setattr(formats, "parse_rational", counting)
    sp = apsp(diamond(2, diamond_weighting()).graph)
    text = space_to_csv(sp)
    assert space_from_csv(text).dist == sp.dist
    tokens = [tok for line in text.splitlines() for tok in line.split(",")]
    assert seen == list(dict.fromkeys(tokens)) and len(seen) < len(tokens) // 10

    seen.clear()
    assert vectors_from_csv("1,1/2\n1/2,-1\n1,2/4\n") == ((1, F(1, 2)), (F(1, 2), -1), (1, F(1, 2)))
    assert seen == ["1", "1/2", "-1", "2/4"]
