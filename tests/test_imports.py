"""No module of the package or of its tests imports a name that it never uses."""

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
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in used]


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
