"""File formats: JSON graphs, CSV distance tables, CSV vector files.

Rationals are serialized as "p/q" strings (or "p" when integral); floats as
shortest round-trip decimals.  All writers emit deterministic byte streams
for a given value.  A table holds few distinct values, so the table readers
convert each distinct token once, in first-occurrence order (the first bad
token is the one reported), and the distance-table writer formats each
distinct numerator once.  A distance table goes from its tokens to integer
numerators over one scale, with no Fraction per entry.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .metric_core import MetricSpace, PointId, RationalTable, WeightedGraph, read_only


def _long_decimal(n: int) -> str:
    """str(n) for an n past the interpreter's int-to-str digit limit (4300
    by default, never below 640): n is written 600 digits at a time."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n:
        n, r = divmod(n, 10**600)
        chunks.append(r)
    return sign + str(chunks[-1]) + "".join(f"{r:0600d}" for r in reversed(chunks[:-1]))


def rational_str(x: Fraction) -> str:
    x = Fraction(x)
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError:  # more digits than int-to-str allows
        num = _long_decimal(x.numerator)
        return num if x.denominator == 1 else f"{num}/{_long_decimal(x.denominator)}"


def parse_rational(s) -> Fraction:
    try:
        return Fraction(str(s).strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ValidationError(f"bad rational {s!r}: {e}") from None


def _distinct(rows, convert) -> dict:
    """convert(token) for each distinct token of `rows`, in first-occurrence order."""
    return {tok: convert(tok) for tok in dict.fromkeys(itertools.chain.from_iterable(rows))}


def _csv_lines(rows) -> str:
    """CSV lines of rows of formatted rationals and floats: no such field
    needs quoting, so these are csv.writer's bytes."""
    return "".join(",".join(row) + "\n" for row in rows)


def _read_text(path: str) -> str:
    """The contents of a UTF-8 text file; any other bytes are a ValidationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path} is not UTF-8 text: {e}") from None


# --- graphs -----------------------------------------------------------------

def graph_to_json(graph: WeightedGraph) -> dict:
    vertices = []
    for p in graph.vertices:
        entry = {"id": p.index}
        if p.label is not None:
            entry["label"] = p.label
        vertices.append(entry)
    edges = [[u, v, rational_str(w)] for u, v, w in graph.edges]
    return {"vertices": vertices, "edges": edges}


def _json_int(x, what: str) -> int:
    """x when it is a JSON integer: a float or a bool is no vertex id."""
    if type(x) is not int:
        raise TypeError(f"{what} {x!r} is not an integer")
    return x


def _json_label(vertex: dict) -> Optional[str]:
    label = vertex.get("label")
    if label is not None and type(label) is not str:
        raise TypeError(f"label {label!r} is not a string")
    return label


def graph_from_json(data: dict) -> WeightedGraph:
    try:
        vertices = tuple(
            PointId(_json_int(v["id"], "vertex id"), _json_label(v)) for v in data["vertices"]
        )
        edges = tuple(
            (_json_int(u, "edge endpoint"), _json_int(v, "edge endpoint"), parse_rational(w))
            for u, v, w in data["edges"]
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"malformed graph JSON: {e}") from None
    return WeightedGraph(vertices, edges)


def write_graph(path: str, graph: WeightedGraph) -> None:
    text = json.dumps(graph_to_json(graph), indent=1, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")  # one write, not one per encoder chunk


def read_graph(path: str) -> WeightedGraph:
    return graph_from_json(json.loads(_read_text(path)))


# --- distance tables --------------------------------------------------------

def space_to_csv(space: MetricSpace) -> str:
    rows = space.num.tolist()
    values = set(itertools.chain.from_iterable(rows))
    text = {x: rational_str(Fraction(x, space.scale)) for x in values}
    return _csv_lines([[text[x] for x in row] for row in rows])


def space_from_csv(text: str) -> MetricSpace:
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    exact = _distinct(rows, parse_rational)
    if any(len(row) != len(rows) for row in rows):
        raise ValidationError("distance table must be square")
    values = RationalTable([list(exact.values())])
    position = {tok: k for k, tok in enumerate(exact)}
    at = np.array([position[tok] for row in rows for tok in row], dtype=np.intp)
    return MetricSpace(read_only(values.num[0, at].reshape(len(rows), len(rows))), values.scale)


def write_space(path: str, space: MetricSpace) -> None:
    with open(path, "w") as fh:
        fh.write(space_to_csv(space))


def read_space(path: str) -> MetricSpace:
    return space_from_csv(_read_text(path))


# --- vector files -----------------------------------------------------------

def vectors_to_csv(vectors: Sequence[Sequence]) -> str:
    return _csv_lines(
        [rational_str(x) if isinstance(x, (int, Fraction)) else repr(float(x)) for x in vec]
        for vec in vectors
    )


def vectors_from_csv(text: str) -> tuple[tuple, ...]:
    """The vectors of a CSV file: exact when every entry is a rational
    string ("p" or "p/q", no decimal point or exponent), floats otherwise."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if all("." not in x and "e" not in x.lower() for row in rows for x in row):
        value = _distinct(rows, parse_rational)
    else:
        try:
            value = _distinct(rows, float)
        except ValueError as e:
            raise ValidationError(f"bad float in vector file: {e}") from None
    return tuple(tuple(value[x] for x in row) for row in rows)


def read_vectors(path: str) -> tuple[tuple, ...]:
    return vectors_from_csv(_read_text(path))


def load_space_arg(path: str) -> MetricSpace:
    """A --space argument: a graph JSON (apsp is applied) or a distance CSV,
    which must satisfy the metric axioms (else ValidationError naming the
    first violation)."""
    from .metric_core import apsp, verify_metric

    if path.endswith(".json"):
        return apsp(read_graph(path))
    space = read_space(path)
    report = verify_metric(space)
    if not report.valid:
        first = report.violations[0]
        raise ValidationError(f"{path} is not a metric: {first.kind} violation, {first.detail}")
    return space
