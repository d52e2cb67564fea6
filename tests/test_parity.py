"""Bit-identity of the library's exact results, as a committed check.

`parity_digests.json` holds the sha256 of the repr of every result below,
computed over a fixed input set: the distance tables of the paper's test
spaces, the distortion of the Fréchet, Bourgain and tent embeddings,
`bourgain_distortion` at depths 1-12 (witnesses included), the RNP
pipelines of D_2 and D_3, the geodesic pair tables of D_0-D_3, the delta-tree pipeline at depths 1-5, two
delta-bushes that are not trees, the submetric checks, the exact Markov convexity estimates (unit
D_3 also at p = 20000 and the tree walk at m = 16, their integers in hex;
the renewal sums' lhs and rhs on unit and scaled D_6-D_8 and L_5) and the
CLI `result` of the README commands (l2min and Monte Carlo left out) and of
`rnp lines --depth 5`.  Tables are printed whole, not summarized.

After a deliberate change to any of these results, rewrite the file with

    PYTHONPATH=src python tests/test_parity.py --write

so that the change shows up as a diff of `tests/parity_digests.json`; the
command prints each key it adds, removes or changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import numpy as np

from testspaces import cli
from testspaces import embeddings as em
from testspaces import generators as gen
from testspaces import l2_distortion as l2
from testspaces import markov as mk
from testspaces import rnp
from testspaces.errors import ValidationError
from testspaces.metric_core import apsp

from _oracles import bush_levels, tree_vectors

DIGESTS = Path(__file__).with_name("parity_digests.json")
BUDGET_S = 5.0


def _spaces():
    """name -> MetricSpace: D_1-D_4 and L_1-L_3 (unit and scaled) by
    `metric_space()`, T_2-T_6 by `apsp`."""
    spaces = {}
    for n in range(1, 5):
        spaces[f"D{n}"] = gen.diamond(n).metric_space()
        spaces[f"D{n}s"] = gen.diamond(n, gen.diamond_weighting()).metric_space()
    for n in range(1, 4):
        spaces[f"L{n}"] = gen.laakso(n).metric_space()
        spaces[f"L{n}s"] = gen.laakso(n, gen.laakso_weighting()).metric_space()
    for n in range(2, 7):
        spaces[f"T{n}"] = apsp(gen.binary_tree(n))
    return spaces


def _subset(key: str, size: int, k: int) -> list[int]:
    return sorted(random.Random(key).sample(range(size), min(k, size)))


def _restricted(emb: em.Embedding, idx: list[int]) -> em.Embedding:
    """The embedding on the points idx, built from its rows."""
    return em.Embedding(emb.space.restrict(idx), tuple(emb.vectors[i] for i in idx), emb.target)


def _embedding_cases(spaces):
    for name, space in spaces.items():
        emb = em.frechet_embed(space)
        if space.size <= 60:
            yield f"frechet/{name}", emb
        yield f"distortion/frechet/{name}", em.distortion(emb)
        if space.size > 60:
            sub = _restricted(emb, _subset(name, space.size, 40))
            yield f"distortion/frechet/{name}-40", em.distortion(sub)
    for name in ("D2", "T3", "L1s"):
        space = spaces[name]
        l2_rows = em.Embedding(space, space.floats(), em.NormedTarget("l2", space.size))
        yield f"distortion/frechet-l2/{name}", em.distortion(l2_rows)
    for n in range(1, 6):
        emb = em.bourgain_embed(n)
        if n <= 3:
            yield f"bourgain/{n}", emb
        yield f"distortion/bourgain/{n}", em.distortion(emb)
    emb = em.bourgain_embed(5)
    yield "distortion/bourgain/5-40", em.distortion(_restricted(emb, _subset("b5", emb.space.size, 40)))
    for n in range(1, 13):
        yield f"bourgain_distortion/{n}", em.bourgain_distortion(n)
    for n in range(1, 5):
        for weighted in (False, True):
            fam = gen.diamond(n, gen.diamond_weighting()) if weighted else gen.diamond(n)
            emb = rnp.diamond_l1_embedding(fam)
            name = f"D{n}{'s' if weighted else ''}"
            if n <= 2:
                yield f"tent/{name}", emb
                for factor in (F(2, 3), -3, 2**70, F(2**70, 3), 0.5):
                    yield f"tent/{name}/rescaled-{factor}", emb.rescaled(factor)
            yield f"distortion/tent/{name}", em.distortion(emb)
            if emb.space.size > 60:
                sub = _restricted(emb, _subset(name, emb.space.size, 40))
                yield f"distortion/tent/{name}-40", em.distortion(sub)
    for n in range(2, 6):
        space = spaces[f"T{n}"]
        frechet_l2 = em.Embedding(space, space.floats(), em.NormedTarget("l2", space.size))
        normalized, colip = l2.normalize_noncontractive(frechet_l2)
        yield f"fork_select/T{n}", (l2.fork_select(n, normalized), colip)


def _rnp_cases():
    for n in (2, 3):
        family = rnp.diamond_geodesic_family(n)
        emb = rnp.diamond_l1_embedding(family.family)
        for steps in (1, 2, 3):
            run = rnp.martingale_from_embedding(family, emb, steps)
            yield f"martingale/D{n}/{steps}", run
            mart = run.martingale
            for bound in (F(1), F(1, 3)):
                yield f"martingale_check/D{n}/{steps}/{bound}", rnp.martingale_check(mart, bound)
            for kind in ("linf", "summing", "l2"):
                other = rnp.Martingale(mart.levels, em.NormedTarget(kind, mart.target.dim))
                yield f"martingale_check/D{n}/{steps}/{kind}", rnp.martingale_check(other, F(1, 5))
        for budget in (1, 2, 3):
            yield f"thickness/D{n}/{budget}", rnp.thickness_alpha(family, budget)


def _pair_table_cases():
    """The pair tables of the geodesic families of D_0-D_3 as lists of ints,
    so that they compare by value whatever integer type holds them."""
    for n in range(4):
        family = rnp.diamond_geodesic_family(n)
        for name in ("_common", "_total", "_nbubbles"):
            yield f"pair_tables/D{n}/{name}", getattr(family, name).tolist()


def _strs(rows):
    """Rows as strings of their entries, so an int and the equal Fraction agree."""
    return tuple(tuple(map(str, row)) for row in rows)


def _delta_tree_cases():
    """The delta-tree pipeline at depths 1-5: tree rows by label, bush level
    rows, the gauge separation, every broken line, the deviation of the
    siblings below "", "0" and "1", and gauge values on fixed vectors, also
    under a generator outside the unit ball (so that the LP runs)."""
    for depth in range(1, 6):
        tree = rnp.rademacher_tree(depth)
        yield f"delta_tree/{depth}", tuple((lab, _strs([vec])[0]) for lab, vec in tree_vectors(tree).items())
        bush = rnp.tree_to_bush(tree)
        levels = bush_levels(bush)
        yield f"bush_levels/{depth}", tuple(_strs(level) for level in levels)
        gauge = rnp.bush_gauge(bush)
        yield f"bush_gauge_delta/{depth}", rnp.bush_gauge_delta(bush, gauge)
        lines = rnp.broken_line_family(bush, depth)
        yield f"broken_lines/{depth}", lines
        for lab in ("", "0", "1"):
            if len(lab) < depth:
                dev = rnp.sibling_deviation(bush, gauge, lines[lab + "0"], lines[lab + "1"])
                yield f"sibling_deviation/{depth}/{lab!r}", dev
        atoms, rng = bush.atoms, random.Random(depth)
        root, last = levels[0][0], levels[-1][-1]
        vectors = [
            tuple(rng.randint(-5, 5) for _ in range(atoms)),
            tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(atoms)),
            tuple(rng.uniform(-3, 3) for _ in range(atoms)),
            tuple(a - b for a, b in zip(last, root)),
        ]
        yield f"gauge/{depth}", tuple(gauge.evaluate(v) for v in vectors)
        if depth <= 3:
            outside = (2,) + tuple(root[1:])
            gens = tuple(vec for level in levels for vec in level) + (outside,)
            lp = rnp.GaugeNorm(atoms, gens)
            yield f"gauge_lp/{depth}", tuple(lp.evaluate(v) for v in vectors + [outside])


def _bushes():
    """The uneven bush (one block of three, weights 1/2, 1/4, 1/4) and a
    depth-2 bush at delta 0 with a block of one vector and a block of
    three out of row order, one weight an int."""
    h, q = F(1, 2), F(1, 4)
    kids = ((2, 0, 1, 1), (0, 2, 2, 0), (0, 2, 0, 2))
    uneven = rnp.DeltaBush(4, ((1, 1, 1, 1),) + kids, (1, 3), ((), ((0, 1, 2),)), ((), (h, q, q)), h)
    rows = ((1, 1, 1, 1), (2, 0, 2, 0), (0, 2, 0, 2), (1, 3, 0, 0), (-h, 5 * h, -h, 5 * h), (0, 0, 1, 3), (2, 0, 2, 0))
    blocks = ((), ((0, 1),), ((3,), (0, 2, 1)))
    mixed = rnp.DeltaBush(4, rows, (1, 2, 4), blocks, ((), (h, h), (q, h, q, 1)), F(0))
    return {"uneven": uneven, "mixed": mixed}


def _bush_cases():
    """Per bush of `_bushes`: the `verify_bush` outcome, the gauge
    separation, every broken line and the deviation of every sibling pair."""
    for name, bush in _bushes().items():
        try:
            rnp.verify_bush(bush)
            outcome = None
        except ValidationError as exc:
            outcome = str(exc)
        yield f"verify_bush/{name}", outcome
        gauge = rnp.bush_gauge(bush)
        yield f"bush_gauge_delta/{name}", rnp.bush_gauge_delta(bush, gauge)
        depth = len(bush.sizes) - 1
        lines = rnp.broken_line_family(bush, depth)
        yield f"broken_lines/{name}", lines
        for lab in lines:
            if len(lab) < depth:
                dev = rnp.sibling_deviation(bush, gauge, lines[lab + "0"], lines[lab + "1"])
                yield f"sibling_deviation/{name}/{lab!r}", dev


def _submetric_cases():
    grid = tuple(tuple(F(a) for a in vec) for vec in itertools.product((-1, 0, 1), repeat=2))
    inputs = {
        "pair": ((F(1), F(0)), (F(0), F(1))),
        "boundary": ((F(1), F(-1)), (F(0), F(0))),
        "identity": ((F(0), F(0)), (F(1), F(0)), (F(1), F(-1)), (F(2), F(1))),
        "grid": grid,
        "thirds": tuple(tuple(F(a, 3) for a in vec) for vec in itertools.product((-2, 1, 3), repeat=3)),
    }
    for name, pts in inputs.items():
        dim = len(pts[0])
        for delta in (F(1), F(3, 2), F(2), F(3)):
            sub = em.SubmetricSpace(pts, delta)
            yield f"active_pairs/{name}/{delta}", sub.active_pairs()
            space = em.submetric_space_metric(sub)
            yield f"submetric_metric/{name}/{delta}", space
            halved = tuple(tuple(x / 2 for x in p) for p in pts)
            for kind in ("l1", "summing", "linf"):
                target = em.NormedTarget(kind, dim)
                for label, rows in (("id", pts), ("half", halved)):
                    check = em.submetric_check(sub, em.Embedding(space, rows, target))
                    yield f"submetric_check/{name}/{delta}/{kind}/{label}", check
            floats = tuple(tuple(float(x) for x in p) for p in pts)
            check = em.submetric_check(sub, em.Embedding(space, floats, em.NormedTarget("l2", dim)))
            yield f"submetric_check/{name}/{delta}/l2", check


def _in_hex(est):
    """An estimate with its integers in hex."""
    ints = (est.lhs.numerator, est.lhs.denominator, est.rhs.numerator, est.rhs.denominator)
    return (est.p, est.method, *map(hex, ints))


def _markov_cases():
    walks = {
        "D3": lambda: mk.downhill_walk(gen.diamond(3, gen.diamond_weighting())),
        "L2": lambda: mk.downhill_walk(gen.laakso(2, gen.laakso_weighting())),
        "D4-T3": lambda: mk.downhill_walk(gen.diamond(4, gen.diamond_weighting()), horizon=3),
        "lazy-16": lambda: mk.lazy_path_walk(16),
        "lazy-20": lambda: mk.lazy_path_walk(20),
    }
    for name, make in walks.items():
        w = make()
        yield f"markov/exact/{name}", mk.exact_convexity(w.chain, w.metric_map, w.space, 2)
    for m in (3, 4, 6):
        yield f"markov/tree/{m}", mk.tree_walk_convexity_exact(m, 2)
    # the tree walk at the cap's reach and the DP's large-p path: their
    # integers pass the int-to-str digit limit
    yield "markov/tree/16", _in_hex(mk.tree_walk_convexity_exact(16, 2))
    w = mk.downhill_walk(gen.diamond(3))
    yield "markov/exact/D3u-p20000", _in_hex(mk.exact_convexity(w.chain, w.metric_map, w.space, 20_000))
    # the renewal sums past the DP's reach, on unit and scaled families
    for maker, levels in ((gen.diamond, (6, 7, 8)), (gen.laakso, (5,))):
        for n in levels:
            for scaled in (False, True):
                family = maker(n, gen.Weighting("scaled")) if scaled else maker(n)
                est = mk.downhill_convexity_exact(family, 2)
                yield f"markov/renewal/{family.kind}{n}{'s' if scaled else ''}", (est.lhs, est.rhs)


README_COMMANDS = (
    "gen --family diamond --n 2 --weighting scaled --out d2.json",
    "gen --family heis --n 3 --out ball.csv",
    "apsp --graph d2.json --out d2.csv",
    "gen --family tree --n 4 --out t4.json",
    "distort --space t4.json --vectors vectors.csv --target summing",
    "distort --space d2.csv --vectors vec_d2.csv --target l1",
    "markov --walk tree --n 3 --p 2 --mode exact",
    "rnp tree --n 6",
    "rnp lines --depth 3",
    "rnp martingale --diamond 3 --steps 2 --control-budget 3",
    "oracle cycle-tree --m 8 --max-tree-vertices 6",
    "oracle james-alpha --m 6 --bound 3",
)


def _vectors_csv(path: str, rows: int, dim: int, seed: int) -> None:
    rng = random.Random(seed)
    lines = [",".join(str(rng.randint(-9, 9)) for _ in range(dim)) for _ in range(rows)]
    Path(path).write_text("\n".join(lines) + "\n")


def _cli_cases():
    """The `result` of each README command (and the bytes of the files it
    writes), run in a scratch directory with relative paths."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            _vectors_csv("vectors.csv", 2**5 - 1, 3, 1)  # one row per vertex of T_4
            _vectors_csv("vec_d2.csv", 12, 3, 2)  # D_2 has 12 vertices
            for command in README_COMMANDS + ("rnp lines --depth 5",):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(command.split())
                report = json.loads(out.getvalue())
                yield f"cli/{command}", (code, json.dumps(report.get("result"), sort_keys=True))
                if "--out" in command:
                    name = command.split()[-1]
                    yield f"cli/{command}/file", Path(name).read_bytes()
        finally:
            os.chdir(here)


def compute_digests() -> dict[str, str]:
    """key -> sha256 of the repr of each result, arrays printed in full."""
    out = {}
    with np.printoptions(threshold=sys.maxsize):
        cases = itertools.chain(
            _embedding_cases(_spaces()),
            _rnp_cases(),
            _pair_table_cases(),
            _delta_tree_cases(),
            _bush_cases(),
            _submetric_cases(),
            _markov_cases(),
            _cli_cases(),
        )
        for name, space in _spaces().items():
            out[f"space/{name}"] = hashlib.sha256(repr(space).encode()).hexdigest()
        for key, value in cases:
            assert key not in out, key
            out[key] = hashlib.sha256(repr(value).encode()).hexdigest()
    return out


def test_results_match_the_committed_digests():
    start = time.perf_counter()
    got = compute_digests()
    elapsed = time.perf_counter() - start
    want = json.loads(DIGESTS.read_text())
    changed = [key for key in want if got.get(key) != want[key]]
    assert not changed, f"first changed result: {changed[0]} ({len(changed)} of {len(want)} differ)"
    assert sorted(got) == sorted(want), sorted(set(got) ^ set(want))
    assert elapsed < BUDGET_S, f"digests took {elapsed:.1f} s"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    old, new = json.loads(DIGESTS.read_text()), compute_digests()
    changed = {key for key in old.keys() & new.keys() if old[key] != new[key]}
    for word, keys in (("added", new.keys() - old.keys()), ("removed", old.keys() - new.keys()), ("changed", changed)):
        for key in sorted(keys):
            print(f"{word}: {key}")
    DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
