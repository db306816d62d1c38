"""No name in src/gq3 or tests is bound and then never read: no function
keeps a local that nothing in it reads (``_`` names a value thrown away),
and no module imports a name it never uses.  No function, class or method
of src/gq3 goes unreferenced in src/gq3.  No linter is installed, so
this reads the syntax tree with the standard library's ast.  Each entry
of the mutant ledger still applies, and README's python example runs."""

import ast
import json
import re
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = sorted((TESTS.parent / "src" / "gq3").glob("*.py"))
SOURCES = sorted([*PACKAGE, *TESTS.glob("*.py")])
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


# The CLI entry point, which the package's script table names.
ENTRY_POINTS = {"cli.main"}
# Referenced only from tests or the bench; this list may only shrink.
UNREFERENCED = {
    "cohom.lambda_matrix",
    "freelie.tensor_to_hall",
    "zqlin.ZqMatrix.transpose",
    "zqlin.ZqMatrix.apply_to_vector",
    "zqlin.row_space",
    "zqlin.subspace_intersect",
}


def _references(tree) -> Counter:
    """Each name read, and each attribute named, in the tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   or isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store))


def unreferenced_definitions(paths) -> set[str]:
    """module.name of each top-level function and class, and each method
    (dunder methods aside), that the modules never name outside its own body."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    references = sum(map(_references, trees.values()), Counter())
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, SCOPES):
                continue
            definitions = [(f"{module}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                definitions += [(f"{module}.{node.name}.{method.name}", method)
                                for method in node.body
                                if isinstance(method, SCOPES) and not method.name.startswith("__")]
            found.update(name for name, definition in definitions
                         if references[definition.name] == _references(definition)[definition.name])
    return found


def test_every_definition_is_referenced():
    found = unreferenced_definitions(PACKAGE) - ENTRY_POINTS
    assert found - UNREFERENCED == set(), "unreferenced in src/gq3"
    assert UNREFERENCED - found == set(), "referenced or gone now: drop from UNREFERENCED"


@pytest.mark.parametrize("source, found", [
    ("def f():\n    return 1\n", {"m.f"}),
    ("def f(n):\n    return f(n - 1) if n else 0\n", {"m.f"}),
    ("def f():\n    return 1\n\ndef g():\n    return f()\n", {"m.g"}),
    ("class C:\n    def __len__(self):\n        return 0\n\n    def size(self):\n"
     "        return len(self)\n\nC\n", {"m.C.size"}),
    ("class C:\n    def size(self):\n        return 0\n\nC().size\n", set()),
])
def test_unreferenced_definitions_are_found(tmp_path, source, found):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert unreferenced_definitions([path]) == found


MUTANTS = json.loads((TESTS / "mutants.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", MUTANTS, ids=lambda entry: entry["id"])
def test_each_mutant_applies_exactly_once(entry):
    """The old text of each ledger entry (tests/run_mutants.py runs them)
    occurs exactly once in its file, and the entry names tests that exist:
    code that moves takes its mutants with it."""
    root = TESTS.parent
    assert (root / entry["file"]).read_text(encoding="utf-8").count(entry["old"]) == 1
    assert entry["old"] != entry["new"] and entry["tests"]
    for test in entry["tests"]:
        path, _, name = test.partition("::")
        assert f"def {name.partition('[')[0]}(" in (root / path).read_text(encoding="utf-8"), test


def test_readme_python_example_runs():
    """README's one python block runs as written."""
    (code,) = re.findall(r"```python\n(.*?)```", (TESTS.parent / "README.md").read_text(encoding="utf-8"),
                         re.DOTALL)
    exec(compile(code, "README.md", "exec"), {})
