"""Source hygiene: no module in the package imports a name it never uses
or imports scipy, networkx only lists the cycle oracle's trees, only the
metric core and the Fréchet embedding read the Fraction view of a
distance table, only a graph's constructor reads its edges' adjacency
(everything else reads the CSR tables of graphs and Markov chains), the
built-in walks build their chains without Fractions,
the martingale code reads integer grids (no `Fraction` breaks, no scan of
the parameters, no bisection), the simplex pivot does integer arithmetic only, the
diamond and Laakso walks and embeddings never search for shortest paths,
the built-in walks' renewal sums build and read no distance table,
the Markov module seeds one Monte Carlo block loop and nothing else and
cuts a distance table with `np.ix_` in one function only, the thickness
certificate takes its control sets in one block loop,
numpy's private `_umath_linalg` is reached only behind an `np.linalg.eigh`
fallback, every library function the benchmark traces by name still
exists, `norm` measures with the row kernels of `distortion`, no
tree-label prefix formula stands beside the tree space, the Bourgain
distortion sweeps no label pairs, caps are module constants, not
per-call options, one function raises CapExceededError, one function
checks an integer argument's type and least value, and the binary
tree's heap layout and a scaled family's edge length are stated once, in
`generators`, the geodesic pair tables are built by one loop over the
parameters without packing bits, and no module calls a numpy function
newer than the floor `pyproject.toml` declares."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "testspaces"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imports(tree: ast.Module):
    """(scope, import node) pairs; the scope is the innermost enclosing
    function, or the module for top-level imports."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((scope, child))
            visit(child, child if isinstance(child, SCOPES) else scope)

    visit(tree, tree)
    return found


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    unused = []
    for scope, node in _imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in used:
                unused.append(f"line {node.lineno}: {bound}")
    return unused


def test_checker_sees_module_and_local_scopes():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from typing import Optional\n"
        "def f() -> Optional[int]:\n"
        "    from math import pi, tau\n"
        "    return pi\n"
        "def g():\n"
        "    import json\n"
        "    return os.sep, tau\n"
    )
    assert unused_imports(source) == ["line 2: system", "line 5: tau", "line 8: json"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_src_does_not_import_scipy():
    # scipy is a test-only dependency: the oracles use it, the library does not
    found = []
    for path in sorted(SRC.glob("*.py")):
        for _, node in _imports(ast.parse(path.read_text())):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def networkx_reach(source: str) -> list[tuple[str, str]]:
    """(innermost function name, networkx name) for every networkx name the
    source reaches: each name of a `from networkx import ...`, and each
    attribute read off a name that `import networkx` binds in its scope."""
    found = []
    for scope, node in _imports(ast.parse(source)):
        where = getattr(scope, "name", None)
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "networkx":
                found += [(where, alias.name) for alias in node.names]
            continue
        for alias in node.names:
            if alias.name.split(".")[0] == "networkx":
                bound = alias.asname or "networkx"
                found += [
                    (where, n.attr)
                    for n in ast.walk(scope)
                    if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == bound
                ]
    return found


def test_networkx_only_enumerates_trees():
    # the library computes its own shortest paths; networkx only lists the
    # unlabeled trees the cycle-into-trees oracle searches
    found = [
        (path.name, where, name)
        for path in sorted(SRC.glob("*.py"))
        for where, name in networkx_reach(path.read_text())
    ]
    assert found == [("embeddings.py", "cycle_tree_lower_oracle", "nonisomorphic_trees")]
    source = "import networkx as nx\nfrom networkx import path_graph\ndef f():\n    return nx.cycle_graph(3)\n"
    assert networkx_reach(source) == [(None, "cycle_graph"), (None, "path_graph")]


DIST_READERS = {("metric_core.py", None)}


def dist_reads(source: str) -> list[tuple[str, int]]:
    """(innermost function name, line) of every `.dist` attribute read."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "dist":
                found.append((scope, child.lineno))
            visit(child, child.name if isinstance(child, SCOPES) else scope)

    visit(ast.parse(source), None)
    return found


def test_only_the_metric_core_reads_fraction_tables():
    # consumers read the integer numerators (`num`, `scale`), so the
    # representation stays known to metric_core alone
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for scope, line in dist_reads(path.read_text())
        if (path.name, None) not in DIST_READERS and (path.name, scope) not in DIST_READERS
    ]
    assert found == []
    assert dist_reads("def f(s):\n    return s.dist[0]\n") == [("f", 2)]


def table_bypasses(source: str) -> list[tuple[str, int, str]]:
    """(scope, line, name) of every definition, call or read of `adjacency`
    and every `.transition` read; the scope is the dotted path of enclosing
    classes and functions ("" at module level)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, SCOPES + (ast.ClassDef,)):
                inner = f"{scope}.{child.name}".lstrip(".")
                if child.name == "adjacency":
                    found.append((inner, child.lineno, "adjacency"))
            elif isinstance(child, ast.Attribute) and child.attr in ("adjacency", "transition"):
                found.append((scope, child.lineno, child.attr))
            elif isinstance(child, ast.Name) and child.id == "adjacency":
                found.append((scope, child.lineno, "adjacency"))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_graph_and_chain_tables_are_read_once():
    # a graph's edges are turned into one CSR table by its constructor, and
    # a chain is its CSR table; every reader goes through those tables, and
    # no chain has rows left to read
    found = [
        f"{path.name}:{line} {name} in {scope or 'module'}"
        for path in sorted(SRC.glob("*.py"))
        for scope, line, name in table_bypasses(path.read_text())
    ]
    assert found == []
    bypasses = (
        "class G:\n    def adjacency(self):\n        pass\n"
        "class C:\n    def __post_init__(self):\n        return self.transition\n"
        "def f(g, chain):\n    return g.adjacency(), adjacency(g), chain.transition[0]\n"
    )
    assert table_bypasses(bypasses) == [
        ("G.adjacency", 2, "adjacency"),
        ("C.__post_init__", 6, "transition"),
        ("f", 8, "adjacency"),
        ("f", 8, "adjacency"),
        ("f", 8, "transition"),
    ]


GRID_READERS = ("martingale_from_embedding", "_level_from_points", "martingale_l1_diff", "martingale_check")


def grid_bypasses(source: str) -> list[tuple[str, int, str]]:
    """(scope, line, what) of every `bisect` import, every `.index` call on
    `params` (a name or an attribute), every `vertex_at` definition or call
    (the view lives in tests/_oracles.py), and, inside the GRID_READERS,
    every `.breaks`, `.values` or `.params` read and every `_over_lcm` call;
    the scope is the enclosing top-level function ("" at module level and
    in classes)."""
    found = []

    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            reader = scope in GRID_READERS
            if isinstance(child, ast.Import) and any(a.name == "bisect" for a in child.names):
                found.append((scope, child.lineno, "bisect"))
            elif isinstance(child, ast.ImportFrom) and child.module == "bisect":
                found.append((scope, child.lineno, "bisect"))
            elif isinstance(child, ast.Call) and name(child.func) == "index":
                if isinstance(child.func, ast.Attribute) and name(child.func.value) == "params":
                    found.append((scope, child.lineno, "params.index"))
            elif isinstance(child, ast.Call) and name(child.func) == "vertex_at":
                found.append((scope, child.lineno, "vertex_at"))
            elif isinstance(child, SCOPES) and child.name == "vertex_at":
                found.append((scope, child.lineno, "vertex_at"))
            elif isinstance(child, ast.Call) and reader and name(child.func) == "_over_lcm":
                found.append((scope, child.lineno, "_over_lcm"))
            elif isinstance(child, ast.Attribute) and reader and child.attr in ("breaks", "values", "params"):
                found.append((scope, child.lineno, child.attr))
            top = isinstance(child, SCOPES) and isinstance(node, ast.Module)
            visit(child, child.name if top else scope)

    visit(ast.parse(source), "")
    return found


def test_martingale_reads_integer_grids():
    # geodesic parameters and martingale breaks are integer ticks: the
    # martingale code reads each level's grid and the family's positions,
    # never the Fraction views, a scan of params or a bisection of breaks
    source = (SRC / "rnp.py").read_text()
    defined = {n.name for n in ast.parse(source).body if isinstance(n, SCOPES)}
    assert set(GRID_READERS) <= defined
    found = [
        f"{path.name}:{line} {what} in {scope or 'module'}"
        for path in sorted(SRC.glob("*.py"))
        for scope, line, what in grid_bypasses(path.read_text())
        if what != "bisect" or path.name == "rnp.py"
    ]
    assert found == []
    bypasses = (
        "import bisect\n"
        "def martingale_check(m, family):\n"
        "    return m.levels[0].breaks, family.vertex_at(0, 1), _over_lcm(b)\n"
        "def other(family, params, level):\n"
        "    return family.params.index(1), params.index(2), family.params, level.breaks\n"
        "def martingale_from_embedding(family):\n"
        "    def level(g):\n"
        "        return family.params[g]\n"
        "class GeodesicFamily:\n"
        "    def vertex_at(self, g, param):\n"
        "        return self.vertex_at(g, param)\n"
    )
    assert grid_bypasses(bypasses) == [
        ("", 1, "bisect"),
        ("martingale_check", 3, "breaks"),
        ("martingale_check", 3, "vertex_at"),
        ("martingale_check", 3, "_over_lcm"),
        ("other", 5, "params.index"),
        ("other", 5, "params.index"),
        ("martingale_from_embedding", 8, "params"),
        ("", 10, "vertex_at"),
        ("", 11, "vertex_at"),
    ]


def fraction_work(source: str, function: str) -> list[tuple[int, str]]:
    """(line, what) for every `Fraction` name or attribute and every true
    division inside the named top-level function: the ways a pivot builds
    Fractions, whether by calling the class or by dividing Fractions."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, SCOPES) and node.name == function:
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and n.id == "Fraction":
                    found.append((n.lineno, "Fraction"))
                elif isinstance(n, ast.Attribute) and n.attr == "Fraction":
                    found.append((n.lineno, "Fraction"))
                elif isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div):
                    found.append((n.lineno, "/"))
    return found


def test_simplex_pivot_builds_no_fractions():
    # the tableau is integer rows over row denominators; a Fraction table
    # must not creep back into the pivot
    source = (SRC / "exactlp.py").read_text()
    assert "_pivot" in {n.name for n in ast.parse(source).body if isinstance(n, SCOPES)}
    assert fraction_work(source, "_pivot") == []
    fraction_pivot = (
        "import fractions\n"
        "def _pivot(T, row, col):\n"
        "    piv = T[row][col]\n"
        "    T[row] = [x / piv for x in T[row]]\n"
        "    T[0][0] = fractions.Fraction(1)\n"
        "def other(x):\n"
        "    return Fraction(x) / 2\n"
    )
    assert fraction_work(fraction_pivot, "_pivot") == [(4, "/"), (5, "Fraction")]


CHAIN_BUILDERS = ("MarkovChain", "_uniform_chain", "downward_tree_walk", "downhill_walk", "lazy_path_walk")


def fraction_names(source: str, names) -> list[tuple[str, int]]:
    """(definition, line) of every `Fraction` name or attribute inside the
    named top-level functions and classes."""
    return [
        (node.name, n.lineno)
        for node in ast.parse(source).body
        if isinstance(node, SCOPES + (ast.ClassDef,)) and node.name in names
        for n in ast.walk(node)
        if "Fraction" in (getattr(n, "id", None), getattr(n, "attr", None))
    ]


def test_chains_are_built_without_fractions():
    # the built-in walks build their CSR tables in integers and a chain
    # takes its table as given: no Fraction row is made and undone
    source = (SRC / "markov.py").read_text()
    defined = {n.name for n in ast.parse(source).body if isinstance(n, SCOPES + (ast.ClassDef,))}
    assert set(CHAIN_BUILDERS) <= defined
    assert fraction_names(source, CHAIN_BUILDERS) == []
    rows = (
        "import fractions\n"
        "class MarkovChain:\n"
        "    def __post_init__(self):\n"
        "        return isinstance(self.D, Fraction)\n"
        "def lazy_path_walk(T):\n"
        "    return fractions.Fraction(1, 2)\n"
        "def other():\n"
        "    return Fraction(1)\n"
    )
    assert fraction_names(rows, CHAIN_BUILDERS) == [("MarkovChain", 4), ("lazy_path_walk", 6)]


def calls_in(source: str, function: str) -> set[str]:
    """Names called inside the named top-level function, as `f(...)` or
    `module.f(...)`."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, SCOPES) and node.name == function:
            for n in ast.walk(node):
                if isinstance(n, ast.Call):
                    f = n.func
                    found.add(f.id if isinstance(f, ast.Name) else getattr(f, "attr", None))
    return found


@pytest.mark.parametrize(
    "module,function",
    [
        ("markov.py", "downhill_walk"),
        ("rnp.py", "diamond_geodesic_family"),
        ("rnp.py", "diamond_l1_embedding"),
    ],
)
def test_family_tables_come_from_the_construction(module, function):
    # diamonds and Laakso graphs read RecursiveFamily.metric_space; the
    # Dijkstra search serves general graphs only
    calls = calls_in((SRC / module).read_text(), function)
    assert "metric_space" in calls and "apsp" not in calls
    assert calls_in("def f(g, mc):\n    return apsp(g), mc.apsp(g)\n", "f") == {"apsp"}


def test_renewal_sums_read_no_table(monkeypatch):
    """downhill_convexity_exact and lazy_path_convexity_exact work from the
    walk's construction: no distance table is built or read, whether they
    are called directly or through exact_convexity on a built-in walk."""
    import tracemalloc
    from fractions import Fraction as F

    import numpy as np

    markov = importlib.import_module("testspaces.markov")
    generators = importlib.import_module("testspaces.generators")
    families = [generators.diamond(3), generators.laakso(2, generators.laakso_weighting())]
    built = [markov.downhill_walk(families[0]), markov.lazy_path_walk(8)]

    def refuse(*args, **kwargs):
        raise AssertionError("the renewal sums read a table")

    monkeypatch.setattr(generators.RecursiveFamily, "metric_space", refuse)
    monkeypatch.setattr(markov, "apsp", refuse)
    monkeypatch.setattr(markov, "_reached_table", refuse)
    monkeypatch.setattr(np, "unique", refuse)
    for family in families:
        markov.downhill_convexity_exact(family, 2)
    markov.lazy_path_convexity_exact(8, 2)
    for walk in built:
        markov.exact_convexity(walk.chain, walk.metric_map, walk.space, 2)
    # scaled D_8's int32 table would take 43 692^2 * 4 bytes, about 7.6 GB
    d8 = generators.diamond(8, generators.diamond_weighting())
    tracemalloc.start()
    try:
        est = markov.downhill_convexity_exact(d8, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (est.lhs, est.rhs) == (F(51978073, 2147483648), F(1, 256))
    assert peak < 5 * 2**20


def _load_spans():
    """perfbench/spans.py, imported by path from the repository root."""
    path = SRC.parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module


def test_benchmark_spans_resolve():
    """The benchmark's traced runs rebind library functions by name and
    compute counters from their arguments: a rename or a chain-format change
    must fail here, not only in a traced benchmark run."""
    from fractions import Fraction as F

    from testspaces.metric_core import MetricSpace

    spans = _load_spans()
    for entries in spans.LAYERS.values():
        for mod_name, fn_name, _ in entries:
            module = importlib.import_module(f"testspaces.{mod_name}")
            assert inspect.isfunction(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"

    markov = importlib.import_module("testspaces.markov")
    originals = (markov.exact_convexity, markov.mc_convexity)
    # 0 moves to 0 and 1 with 1/2 each, 1 is absorbing
    chain = markov.MarkovChain([0, 2, 3], [0, 1, 1], [1, 1, 2], 2, 0, 2)
    space = MetricSpace(((F(0), F(1)), (F(1), F(0))))
    mmap = markov.MetricMap((0, 1))
    tracer = spans.Tracer()
    tracer.install()
    try:
        markov.exact_convexity(chain, mmap, space, 2)
        markov.mc_convexity(chain, mmap, space, 2.0, seed=1, samples=10)
    finally:
        tracer.uninstall()
    assert (markov.exact_convexity, markov.mc_convexity) == originals
    # n = 2, T = 2: (T-1) n^3 + 2T n^2 + T n^3 = 40 dense multiplies; the
    # window (k, t) in {0, 1} x {1, 2} simulates 2 + 3 + 2 + 4 steps for the
    # lhs and 1 + 2 for the rhs, per sample
    assert spans.counts(tracer.spans) == {"markov.exact.mult_ops": 40, "markov.mc.steps": 140}


def calls_named(source: str, name: str) -> list[int]:
    """Lines of every call to `name(...)` or `module.name(...)`."""
    return [
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call)
        and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
    ]


def test_markov_has_one_monte_carlo_engine():
    # every estimator draws from the one block loop's substreams; the
    # per-term substreams belong to the test oracles
    source = (SRC / "markov.py").read_text()
    assert len(calls_named(source, "SeedSequence")) == 1
    defined = {n.name for n in ast.walk(ast.parse(source)) if isinstance(n, SCOPES)}
    assert defined.isdisjoint({"_mc_window", "_rng_for"})
    sample = "import numpy as np\nnp.random.SeedSequence(1)\nSeedSequence(2)\n"
    assert calls_named(sample, "SeedSequence") == [2, 3]


def test_thickness_takes_control_sets_in_one_block_loop():
    # the candidates are cut once per geodesic and the sets taken a block at
    # a time: no ragged sub-blocks (reduceat, searchsorted), and every list
    # holds one block of the set generator, an islice bounded by _BLOCK
    tree = ast.parse((SRC / "rnp.py").read_text())
    defined = {n.name: n for n in ast.walk(tree) if isinstance(n, SCOPES)}
    assert defined.keys().isdisjoint({"_distinct_common", "_set_maxima"})
    kernel = defined["thickness_alpha"]
    source = ast.unparse(kernel)
    assert len([n for n in ast.walk(kernel) if isinstance(n, (ast.For, ast.While))]) == 1
    assert calls_named(source, "reduceat") == calls_named(source, "searchsorted") == []
    lists = [n for n in ast.walk(kernel) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "list"]
    assert lists
    for call in lists:
        block = ast.unparse(call)
        assert calls_named(block, "islice") and "_BLOCK" in block, block


def test_markov_estimators_read_one_reached_table():
    # the exact DP and Monte Carlo read the table of one front end, so one
    # function cuts the reached points' distances out with np.ix_
    tree = ast.parse((SRC / "markov.py").read_text())
    sites = [f.name for f in ast.walk(tree) if isinstance(f, SCOPES) and calls_named(ast.unparse(f), "ix_")]
    assert sites == ["_reached_table"]


PRIVATE_NUMPY = "_umath_linalg"


def _catches_import_error(handler: ast.ExceptHandler) -> bool:
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(k, ast.Name) and k.id == "ImportError" for k in kinds)


def _calls_linalg_eigh(node: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "eigh"
        and isinstance(n.func.value, ast.Attribute)
        and n.func.value.attr == "linalg"
        for n in ast.walk(node)
    )


def private_numpy_uses(source: str) -> list[tuple[int, bool]]:
    """(line, guarded) for every mention of numpy's private `_umath_linalg`
    in code.  A mention is guarded when it is a `from ... import` inside a
    `try` that catches ImportError, and every function that reads a name it
    binds also calls `np.linalg.eigh`, the public route."""
    tree = ast.parse(source)
    in_try = {
        id(n)
        for t in ast.walk(tree)
        if isinstance(t, ast.Try) and any(_catches_import_error(h) for h in t.handlers)
        for stmt in t.body
        for n in ast.walk(stmt)
    }

    def falls_back(name: str) -> bool:
        readers = [
            f for f in ast.walk(tree)
            if isinstance(f, SCOPES) and any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(f))
        ]
        return bool(readers) and all(_calls_linalg_eigh(f) for f in readers)

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mentions = PRIVATE_NUMPY in (node.module or "").split(".")
        elif isinstance(node, ast.Import):
            mentions = any(PRIVATE_NUMPY in a.name.split(".") for a in node.names)
        else:
            mentions = PRIVATE_NUMPY in (getattr(node, "attr", None), getattr(node, "id", None))
        if mentions:
            guarded = (
                isinstance(node, ast.ImportFrom)
                and id(node) in in_try
                and all(falls_back(a.asname or a.name) for a in node.names)
            )
            found.append((node.lineno, guarded))
    return sorted(found)


def test_markov_has_one_exact_front_and_one_bit_work_cap(monkeypatch):
    # the tree walk and the lazy path share one prefix pass, and every
    # exact pass checks its bit work against the one cap
    module = ast.parse((SRC / "markov.py").read_text())
    assigned = {t.id for n in ast.walk(module) if isinstance(n, ast.Assign) for t in n.targets if isinstance(t, ast.Name)}
    assert sorted(name for name in assigned if name.endswith("_BIT_WORK_CAP")) == ["DP_BIT_WORK_CAP"]
    markov = importlib.import_module("testspaces.markov")
    calls = []

    def refuse(tree, *args):
        calls.append(tree)
        raise RuntimeError("the shared pass")

    monkeypatch.setattr(markov, "_prefix_sums", refuse)
    for call in (lambda: markov.tree_walk_convexity_exact(3, 2), lambda: markov.lazy_path_convexity_exact(5, 2)):
        with pytest.raises(RuntimeError, match="the shared pass"):
            call()
    assert calls == [True, False]


def test_private_numpy_only_behind_the_eigh_fallback():
    # the SDP loop takes eigh_lo straight from numpy's LAPACK gufuncs; a
    # numpy without that private name must still run on np.linalg.eigh
    mentioned = [path.name for path in sorted(SRC.glob("*.py")) if PRIVATE_NUMPY in path.read_text()]
    assert mentioned == ["l2_distortion.py"]
    uses = private_numpy_uses((SRC / "l2_distortion.py").read_text())
    assert uses and all(guarded for _, guarded in uses)

    fallback = (
        "try:\n"
        "    from numpy.linalg._umath_linalg import eigh_lo\n"
        "except ImportError:\n"
        "    eigh_lo = None\n"
        "def f(q):\n"
        "    return np.linalg.eigh(q) if eigh_lo is None else eigh_lo(q)\n"
    )
    assert private_numpy_uses(fallback) == [(2, True)]
    no_fallback = fallback.replace("np.linalg.eigh(q) if eigh_lo is None else ", "")
    assert private_numpy_uses(no_fallback) == [(2, False)]
    unguarded = "from numpy.linalg._umath_linalg import eigh_lo\ndef f(q):\n    return np.linalg.eigh(q)\n"
    assert private_numpy_uses(unguarded) == [(1, False)]
    attribute = "import numpy as np\nw = np.linalg._umath_linalg.eigh_lo(q)\n"
    assert private_numpy_uses(attribute) == [(2, False)]


ENTRY_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def entry_work(source: str, function: str) -> list[tuple[int, str]]:
    """(line, what) for every call of the builtin `sum` and every loop or
    comprehension inside the named top-level function."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, SCOPES) and node.name == function:
            for n in ast.walk(node):
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "sum":
                    found.append((n.lineno, "sum"))
                elif isinstance(n, ENTRY_LOOPS):
                    found.append((n.lineno, "loop"))
    return sorted(found)


def test_norm_and_tree_metric_have_one_route():
    # `norm` measures a vector with the row kernels that `distortion` and
    # `submetric_check` run on all pairs (through `_difference_norms`), never
    # entry by entry (the per-entry route is the test oracle); the tree
    # metric is apsp of the binary tree, with no label-prefix formula beside it
    source = (SRC / "embeddings.py").read_text()
    assert entry_work(source, "norm") == []
    assert "RationalTable" in calls_in(source, "norm")
    for function in ("norm", "_difference_norms"):
        [scope] = [n for n in ast.parse(source).body if isinstance(n, SCOPES) and n.name == function]
        assert "_ROW_NORMS" in {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}, function
    for function in ("distortion", "submetric_check"):
        assert "_difference_norms" in calls_in(source, function), function
    sample = "def norm(t, v):\n    s = sum(abs(x) for x in v)\n    for x in v:\n        s = max(s, x)\n"
    assert entry_work(sample, "norm") == [(2, "loop"), (2, "sum"), (3, "loop")]
    assert [path.name for path in sorted(SRC.glob("*.py")) if "common_prefix" in path.read_text()] == []


def test_bourgain_distortion_sweeps_no_pairs():
    # bourgain_distortion reduces over its n^2 + 2n pair classes; the sweep
    # over every label pair in blocks is the test oracle's, not the library's
    swept = ("_pair_blocks", "_PAIR_BLOCK")
    oracles = Path(__file__).with_name("_oracles.py").read_text()
    assert all(name in oracles for name in swept)
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert [name for name in swept if name in text] == [], path.name


# the thickness constant's control budget is the paper's quantity, not a cap
CAP_OPTION_EXEMPT = {"control_budget"}


def cap_options(functions) -> list[str]:
    """`name(parameter)` for every parameter ending in `_cap`, `_budget` or
    `_iter`, or named `cap` or `modulus`, of the (name, function) pairs."""
    return [
        f"{name}({p})"
        for name, fn in functions
        for p in inspect.signature(fn).parameters
        if (p.endswith(("_cap", "_budget", "_iter")) or p in ("cap", "modulus")) and p not in CAP_OPTION_EXEMPT
    ]


def public_functions():
    """(name, function) for every public function of the package and every
    public method or `__init__` of its public classes."""
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"testspaces.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield name, obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    public = attr == "__init__" or not attr.startswith("_")
                    if public and inspect.isfunction(member):
                        yield f"{name}.{attr}", member


def test_caps_are_constants_not_options():
    # every cap, budget, iteration cap and modulus is one module constant
    # that no caller sets per call (tests monkeypatch the constant)
    functions = dict(public_functions())
    assert functions["thickness_alpha"] is importlib.import_module("testspaces.rnp").thickness_alpha
    # the one cap check takes the constant it compares against
    assert cap_options(functions.items()) == ["check_cap(cap)"]

    def f(n, vertex_cap=10, map_budget=5, control_budget=1, modulus=None, cap=3, max_iter=50):
        return n

    assert cap_options([("f", f)]) == ["f(vertex_cap)", "f(map_budget)", "f(modulus)", "f(cap)", "f(max_iter)"]


def cap_refusals(source: str) -> list[str]:
    """The enclosing function of every `raise CapExceededError` in source."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "CapExceededError":
                    found.append(scope)
            visit(child, child.name if isinstance(child, SCOPES) else scope)

    visit(ast.parse(source), "<module>")
    return found


def test_one_cap_check():
    # every cap refuses through metric_core.check_cap, which forms its
    # message only when it refuses
    raises = {path.stem: cap_refusals(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {stem: found for stem, found in raises.items() if found} == {"metric_core": ["check_cap"]}
    sample = "def f(n):\n    if n:\n        raise CapExceededError('x')\n    raise CapExceededError\n"
    assert cap_refusals(sample) == ["f", "f"]


def int_type_checks(source: str) -> list[str]:
    """The enclosing scope, as Class.method or function, of every
    `type(X) is not int` comparison in source."""
    found = []

    def visit(node, scope, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Compare) and getattr(getattr(child.left, "func", None), "id", None) == "type":
                pairs = zip(child.ops, child.comparators)
                if any(isinstance(op, ast.IsNot) and getattr(c, "id", None) == "int" for op, c in pairs):
                    found.append(scope)
            if isinstance(child, ast.ClassDef):
                visit(child, scope, child.name)
            elif isinstance(child, SCOPES):
                visit(child, f"{cls}.{child.name}" if cls else child.name, None)
            else:
                visit(child, scope, cls)

    visit(ast.parse(source), "<module>", None)
    return found


def test_one_int_check():
    # every count, size, depth, level, radius, horizon, seed and exact
    # exponent is refused through metric_core.check_int; the type checks
    # left by hand test ranges, exactness or JSON types, not a least count
    checks = {path.stem: set(int_type_checks(path.read_text())) for path in sorted(SRC.glob("*.py"))}
    assert {stem: found for stem, found in checks.items() if found} == {
        "formats": {"_json_int"},
        "markov": {"MarkovChain.__post_init__", "MetricMap.__post_init__"},
        "metric_core": {"WeightedGraph.__post_init__", "check_int"},
        "rnp": {"DeltaTree.__post_init__", "DeltaBush.__post_init__", "GeodesicFamily._check_index"},
    }
    sample = (
        "def f(n):\n"
        "    if type(n) is not int or n < 1:\n"
        "        raise ValidationError(f'need an int n >= 1, got {n!r}')\n"
        "    return [d for d in n if type(d) is int]\n"
        "class C:\n"
        "    def g(self):\n"
        "        return any(type(x) is not int for x in self.xs)\n"
    )
    assert int_type_checks(sample) == ["f", "C.g"]


def tree_layout_copies(source: str) -> list[tuple[int, str]]:
    """(line, what) for every clipped tree size 2 ** (min(...) + 1), every
    tree_labels list that is counted with len or indexed, and every label
    built by appending a literal "0" or "1", by line."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = node.right
            clipped = isinstance(exponent, ast.BinOp) and isinstance(exponent.left, ast.Call)
            if clipped and getattr(exponent.left.func, "id", None) == "min":
                found.append((node.lineno, "clipped tree size"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "tree_labels":
            parent = parents[node]
            if isinstance(parent, ast.Subscript) and parent.value is node:
                found.append((node.lineno, "indexed labels"))
            elif isinstance(parent, ast.Call) and getattr(parent.func, "id", None) == "len":
                found.append((node.lineno, "counted labels"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            if isinstance(node.right, ast.Constant) and node.right.value in ("0", "1"):
                found.append((node.lineno, "appended bit"))
    return sorted(found)


def test_tree_layout_and_family_scale_live_in_generators():
    # T_n's heap layout and its clipped vertex count (tree_order) are stated
    # once, in generators: no other module counts rows, finds a parent
    # through tree_labels or walks to a child by appending a bit to its
    # label; and a scaled family's edge length f^(-n) comes
    # from its gadget, so Weighting holds only the mode
    copies = {path.stem: tree_layout_copies(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    found = {stem: [what for _, what in hits] for stem, hits in copies.items() if hits}
    assert found == {"generators": ["clipped tree size"]}
    weighting = importlib.import_module("testspaces.generators").Weighting
    assert [field.name for field in dataclasses.fields(weighting)] == ["mode"]
    sample = (
        "rows = len(tree_labels(depth))\n"
        "for lab in tree_labels(depth):\n"
        "    parent = tree_labels(depth)[(i - 1) // 2]\n"
        "order = 2 ** (min(n, CAP.bit_length()) + 1) - 1\n"
        "pairs = 2 ** min(m, CAP.bit_length()) + 1\n"
        "child = lab + '0'\n"
        "first = '1' + '0' * k\n"
    )
    want = [(1, "counted labels"), (3, "indexed labels"), (4, "clipped tree size"), (6, "appended bit")]
    assert tree_layout_copies(sample) == want


# numpy functions newer than numpy 1.24, with the release that added them
NUMPY_ADDED = {
    "bitwise_count": (2, 0),
    "isdtype": (2, 0),
    "vecdot": (2, 0),
    "matrix_transpose": (2, 0),
    "concat": (2, 0),
    "permute_dims": (2, 0),
    "pow": (2, 0),
    "astype": (2, 0),
    "trapezoid": (2, 0),
    "unique_all": (2, 0),
    "unique_counts": (2, 0),
    "unique_inverse": (2, 0),
    "unique_values": (2, 0),
    "unstack": (2, 1),
    "cumulative_sum": (2, 1),
    "cumulative_prod": (2, 1),
}


def numpy_calls(source, names) -> list[tuple[int, str]]:
    """(line, name) for every call `np.name(...)` or `numpy.name(...)` of the
    names in source, a string or a parsed node."""
    return [
        (n.lineno, n.func.attr)
        for n in ast.walk(ast.parse(source) if isinstance(source, str) else source)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and getattr(n.func.value, "id", None) in ("np", "numpy")
        and n.func.attr in names
    ]


def pair_table_work(source: str) -> list[tuple[int, str]]:
    """(line, what) in GeodesicFamily.__post_init__ for every for loop that
    does not run over the parameters (`self._points`) and every np.packbits."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef) and cls.name == "GeodesicFamily"):
            continue
        for method in (f for f in cls.body if isinstance(f, SCOPES) and f.name == "__post_init__"):
            for node in ast.walk(method):
                if isinstance(node, ast.For) and "self._points" not in ast.unparse(node.iter):
                    found.append((node.lineno, f"loop over {ast.unparse(node.iter)}"))
            found += [(line, f"np.{name}") for line, name in numpy_calls(method, {"packbits"})]
    return sorted(found)


def test_pair_tables_loop_over_parameters_on_the_numpy_floor():
    # GeodesicFamily builds its n_geo^2 pair tables in one pass per
    # parameter and never packs bits along the parameters (slower than the
    # whole build); no module calls numpy past the declared floor, so the
    # bubble counts take a byte table, not np.bitwise_count (numpy 2.0)
    source = (SRC / "rnp.py").read_text()
    assert pair_table_work(source) == []
    assert "for t, v in enumerate(self._points):" in source
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text()
    floor = tuple(map(int, re.search(r'"numpy>=(\d+)\.(\d+)', pyproject).groups()))
    newer = {name for name, added in NUMPY_ADDED.items() if added > floor}
    assert floor >= (2, 0) or "bitwise_count" in newer
    found = {path.stem: numpy_calls(path.read_text(), newer) for path in sorted(SRC.glob("*.py"))}
    assert {stem: hits for stem, hits in found.items() if hits} == {}
    sample = (
        "class GeodesicFamily:\n"
        "    def __post_init__(self):\n"
        "        for t, v in enumerate(self._points):\n"
        "            z = m.astype(int)\n"
        "        for g in range(len(self.geodesics)):\n"
        "            bits = np.packbits(z, axis=0)\n"
        "        c = numpy.bitwise_count(bits)\n"
    )
    assert pair_table_work(sample) == [(5, "loop over range(len(self.geodesics))"), (6, "np.packbits")]
    assert numpy_calls(sample, newer) == [(7, "bitwise_count")]
