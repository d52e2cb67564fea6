"""Serialization round trips: graph JSON, distance CSV, vector CSV."""

from fractions import Fraction as F

import pytest

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
from testspaces.generators import diamond, diamond_weighting, binary_tree
from testspaces.metric_core import apsp


def test_rational_strings():
    assert rational_str(F(1, 4)) == "1/4"
    assert rational_str(F(8, 4)) == "2"
    assert parse_rational("3/7") == F(3, 7)
    assert parse_rational("-2") == F(-2)
    with pytest.raises(ValidationError):
        parse_rational("1/0")
    with pytest.raises(ValidationError):
        parse_rational("x")


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
    ],
    ids=["edge-not-a-triple", "vertex-id-not-an-int"],
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
