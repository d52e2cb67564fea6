"""Source hygiene: no module in the package imports a name it never uses."""

import ast
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
