"""No module of the package or of its tests imports a name that it never uses,
and every name a package module exports is bound in it."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sspmsrk"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name an import binds and the module never reads;
    a name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(_exported(tree))
    return [(line, name) for line, name in bound if name not in used]


def _exported(tree: ast.Module) -> list[str]:
    """The names in the module's top-level ``__all__``."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            out += ast.literal_eval(node.value)
    return out


def unbound_exports(source: str) -> list[str]:
    """Names in ``__all__`` that no top-level def, class, assignment or import binds."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {t.id for t in targets if isinstance(t, ast.Name)}
    return [name for name in _exported(tree) if name not in bound]


def test_checker_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp, numpy.linalg\n"
              "from m import (a, b as c,\n"
              "    d)\n"
              "__all__ = ['d']\n"
              "x: a = numpy.linalg.norm\n")
    assert unused_imports(source) == [(2, "os"), (2, "osp"), (3, "c")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_only_unbound_exports():
    source = ("import os.path, numpy as np\n"
              "from m import a, b as c\n"
              "X: int = 1\n"
              "Y = Z = 2\n"
              "def f(): g = 3\n"
              "class K: pass\n"
              "__all__ = ['os', 'np', 'a', 'b', 'c', 'X', 'Y', 'Z', 'f', 'g', 'K']\n")
    assert unbound_exports(source) == ["b", "g"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text()) == []
