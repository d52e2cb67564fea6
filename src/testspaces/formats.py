"""File formats: JSON graphs, CSV distance tables, CSV vector files.

Rationals are serialized as "p/q" strings (or "p" when integral); floats as
shortest round-trip decimals.  All writers emit deterministic byte streams
for a given value.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Sequence

from .errors import ValidationError
from .metric_core import MetricSpace, PointId, WeightedGraph


def rational_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(s) -> Fraction:
    try:
        return Fraction(str(s).strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ValidationError(f"bad rational {s!r}: {e}") from None


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


def graph_from_json(data: dict) -> WeightedGraph:
    try:
        vertices = tuple(
            PointId(int(v["id"]), v.get("label")) for v in data["vertices"]
        )
        edges = tuple(
            (int(u), int(v), parse_rational(w)) for u, v, w in data["edges"]
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"malformed graph JSON: {e}") from None
    return WeightedGraph(vertices, edges)


def write_graph(path: str, graph: WeightedGraph) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_json(graph), fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_graph(path: str) -> WeightedGraph:
    with open(path) as fh:
        return graph_from_json(json.load(fh))


# --- distance tables --------------------------------------------------------

def space_to_csv(space: MetricSpace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in space.num.tolist():
        writer.writerow([rational_str(Fraction(x, space.scale)) for x in row])
    return buf.getvalue()


def space_from_csv(text: str) -> MetricSpace:
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    return MetricSpace.from_rows([[parse_rational(x) for x in row] for row in rows])


def write_space(path: str, space: MetricSpace) -> None:
    with open(path, "w") as fh:
        fh.write(space_to_csv(space))


def read_space(path: str) -> MetricSpace:
    with open(path) as fh:
        return space_from_csv(fh.read())


# --- vector files -----------------------------------------------------------

def vectors_to_csv(vectors: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for vec in vectors:
        writer.writerow(
            [rational_str(x) if isinstance(x, (int, Fraction)) else repr(float(x)) for x in vec]
        )
    return buf.getvalue()


def vectors_from_csv(text: str) -> tuple[tuple, ...]:
    """The vectors of a CSV file: exact when every entry is a rational
    string ("p" or "p/q", no decimal point or exponent), floats otherwise."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if all("." not in x and "e" not in x.lower() for row in rows for x in row):
        return tuple(tuple(parse_rational(x) for x in row) for row in rows)
    try:
        return tuple(tuple(float(x) for x in row) for row in rows)
    except ValueError as e:
        raise ValidationError(f"bad float in vector file: {e}") from None


def read_vectors(path: str) -> tuple[tuple, ...]:
    with open(path) as fh:
        return vectors_from_csv(fh.read())


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
