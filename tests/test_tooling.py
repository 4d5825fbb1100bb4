"""Code that nothing uses gets deleted: a static scan of the package source.

Each module of src/dticalib is parsed with the standard-library ast. An
imported name that its module never references fails, as does a top-level
private def (a function or class named _x) that no code in the package
references outside its own body. The package __init__ is exempt from the
import check, because its imports are the public namespace.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dticalib"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unused_imports(tree: ast.Module) -> list:
    """(name, line) of each name an import binds that the module never reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    return [(name, line) for name, line in bound if name not in read]


def referenced_names(statements) -> set:
    """Names read as variables or attributes, or imported by name, in statements."""
    names = set()
    for statement in statements:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def unreferenced_private_defs(trees: dict) -> list:
    """(module, name, line) of each top-level _private def or class of the
    {module: tree} set that no statement but its own references."""
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            others = (s for t in trees.values() for s in t.body if s is not node)
            if node.name not in referenced_names(others):
                found.append((module, node.name, node.lineno))
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    assert unused_imports(parse(path)) == []


def test_every_private_def_is_referenced():
    assert unreferenced_private_defs({p.name: parse(p) for p in MODULES}) == []


def test_scan_finds_an_unused_import_and_an_unreferenced_def():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "from json import dumps, loads\n"
        "def _dead():\n"
        "    return _dead(os.sep)\n"  # a def that only calls itself is still dead
        "def _live():\n"
        "    return loads('1')\n"
        "VALUE = _live()\n"
    )
    assert unused_imports(tree) == [("dumps", 3)]
    assert unreferenced_private_defs({"m.py": tree}) == [("m.py", "_dead", 4)]
