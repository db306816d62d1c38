"""No name in src/gq3 or tests is bound and then never read: no function
keeps a local that nothing in it reads (``_`` names a value thrown away),
and no module imports a name it never uses.  No linter is installed, so
this reads the syntax tree with the standard library's ast."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCES = sorted([*(TESTS.parent / "src" / "gq3").glob("*.py"), *TESTS.glob("*.py")])
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(tree) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _imported(node) -> list[str]:
    return [(alias.asname or alias.name).partition(".")[0] for alias in node.names
            if getattr(node, "module", None) != "__future__"]


def _local_bindings(function) -> list[tuple[str, int]]:
    """Each name the function's own scope binds, with its line; nested
    functions and classes are scopes of their own, and only their names
    are bound here."""
    out, declared = [], set()
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.append((node.id, node.lineno))
        elif isinstance(node, (ast.ExceptHandler, ast.MatchAs, ast.MatchStar)) and node.name:
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [(name, node.lineno) for name in _imported(node)]
        if isinstance(node, SCOPES):
            out.append((node.name, node.lineno))
            continue
        stack.extend(ast.iter_child_nodes(node))
    return [(name, line) for name, line in out if name != "_" and name not in declared]


def unread_bindings(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            reads = _reads(function)
            found += [f"{path.name}:{line} {function.name} binds {name}"
                      for name, line in _local_bindings(function) if name not in reads]
    reads = _reads(tree)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"{path.name}:{node.lineno} imports {name}"
                      for name in _imported(node) if name not in reads]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unread_bindings(path):
    assert unread_bindings(path) == []


@pytest.mark.parametrize("source, finding", [
    ("def f(q):\n    p, d = divmod(q, 2)\n    return p\n", "m.py:2 f binds d"),
    ("def f(x):\n    try:\n        return x()\n    except ValueError as exc:\n"
     "        return None\n", "m.py:4 f binds exc"),
    ("def f(w):\n    match w:\n        case (a, b):\n            return a\n", "m.py:3 f binds b"),
    ("def f():\n    def g():\n        return 1\n    return 2\n", "m.py:2 f binds g"),
    ("def f():\n    from os import sep\n    return 1\n", "m.py:2 f binds sep"),
    ("import os.path\nimport json as j\n", "m.py:1 imports os"),
])
def test_unread_bindings_are_found(tmp_path, source, finding):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert finding in unread_bindings(path)


@pytest.mark.parametrize("source", [
    "def f(q):\n    p, _ = divmod(q, 2)\n    return p\n",
    "def f():\n    x = 1\n    def g():\n        return x\n    return g\n",
    "def f():\n    total = 0\n    for k in range(3):\n        total += k\n    return total\n",
    "from __future__ import annotations\nimport os\n\ndef f() -> os.PathLike:\n    pass\n",
])
def test_read_bindings_are_not_found(tmp_path, source):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert unread_bindings(path) == []
