"""No module of the package or of its tests imports a name that it never uses,
every name a package module exports is bound in it and is read in the package
or exported by it, every private name a package module defines is read in the
package, every name the README gives in code is still in the package,
scipy's solvers load only when a function needs them, no package module
writes past a frozen dataclass outside its ``__post_init__``, and every
dataclass that holds an array compares by identity."""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sspmsrk import optimizer, theory

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sspmsrk"
README = TESTS.parent / "README.md"


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


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of every private name that a module binds at its
    top level, by def, class or assignment, and that no module of ``sources``
    reads as a name, an attribute or an imported name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [(module, node.lineno, name) for name in names
                      if name.startswith("_") and not name.startswith("__") and name not in read]
    return found


def test_checker_flags_only_unread_private_names():
    sources = {"a": ("_A = 1\n"
                     "_B: int = 2\n"
                     "__all__ = []\n"
                     "def _f(): return _A\n"
                     "class _K: _D = 3\n"
                     "def g(): _E = 4\n"
                     "_G = _H = 5\n"),
               "b": ("from a import _K\n"
                     "import a\n"
                     "x = a._G\n")}
    assert unread_private_names(sources) == [("a", 2, "_B"), ("a", 4, "_f"), ("a", 7, "_H")]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def orphan_exports(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of every name in a module's ``__all__`` that no module of
    ``sources`` reads, as a name or an attribute, and that the package module
    ``__init__`` does not export; a def and an ``__all__`` entry are no reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    package = set(_exported(trees["__init__"])) if "__init__" in trees else set()
    return [(module, name) for module, tree in trees.items() if module != "__init__"
            for name in _exported(tree) if name not in read | package]


def test_checker_flags_only_orphan_exports():
    sources = {"__init__": ("from .a import f\n"
                            "__all__ = ['f']\n"),
               "a": ("__all__ = ['f', 'g', 'h', 'K', 'X']\n"
                     "X = 1\n"
                     "def f(): pass\n"
                     "def g(): return h()\n"
                     "def h(): pass\n"
                     "class K: pass\n"),
               "b": ("from . import a\n"
                     "from .a import X\n"
                     "a.K = None\n")}
    assert orphan_exports(sources) == [("a", "g"), ("a", "K"), ("a", "X")]


def test_every_export_is_read_or_reexported():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert orphan_exports(sources) == []


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


def readme_names(text: str, modules: list[str]) -> tuple[list[tuple[str, str]], list[str]]:
    """The (module, name) of every code span of ``text`` that starts with
    ``module.name`` for one of ``modules``, and every code span that is a
    constant: upper case with an underscore."""
    spans = re.findall(r"`([^`\n]+)`", text)
    dotted = [m.groups() for m in (re.match(r"(\w+)\.(\w+)", span) for span in spans)
              if m and m.group(1) in modules]
    constants = [span for span in spans if re.fullmatch(r"[A-Z][A-Z0-9]*_[A-Z0-9_]*", span)]
    return dotted, constants


def test_readme_checker_finds_module_names_and_constants():
    text = ("`optimizer.embed(method, s, k)` and `scipy.optimize`, `SearchResult.R`,\n"
            "`MAX_INNER_ITERS` = 500, `PYTHONPATH`, `R_sk2(s)` and `theory.R`.")
    assert readme_names(text, ["optimizer", "theory"]) == (
        [("optimizer", "embed"), ("theory", "R")], ["MAX_INNER_ITERS"])


def test_every_name_the_readme_gives_exists():
    stems = [path.stem for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    modules = {stem: importlib.import_module(f"sspmsrk.{stem}") for stem in stems}
    dotted, constants = readme_names(README.read_text(), stems)
    assert dotted and constants
    assert [f"{m}.{name}" for m, name in dotted if not hasattr(modules[m], name)] == []
    assert [name for name in constants
            if not any(hasattr(module, name) for module in modules.values())] == []


#: scipy subpackages the package loads only inside the functions that need them
SOLVERS = ("scipy.optimize", "scipy.integrate")


def eager_solver_imports(source: str) -> list[tuple[int, str]]:
    """(line, dotted name) of every import of a SOLVERS module that runs when
    the module loads, that is, outside any function body; ``from m import a``
    gives m.a."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, a.name) for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                module = "." * child.level + (child.module or "")
                found.extend((child.lineno, f"{module}.{a.name}") for a in child.names)
            visit(child)

    visit(ast.parse(source))
    return [(line, name) for line, name in found
            if any(name == m or name.startswith(m + ".") for m in SOLVERS)]


def test_checker_flags_only_module_level_solver_imports():
    source = ("import scipy, scipy.linalg\n"
              "from scipy import optimize\n"
              "try:\n"
              "    import scipy.integrate as si\n"
              "except ImportError:\n"
              "    pass\n"
              "class K:\n"
              "    from scipy.optimize import linprog\n"
              "def f():\n"
              "    from scipy.optimize import least_squares\n"
              "    import scipy.integrate\n")
    assert eager_solver_imports(source) == [
        (2, "scipy.optimize"), (4, "scipy.integrate"), (8, "scipy.optimize.linprog")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_solver_import_at_module_level(path):
    assert eager_solver_imports(path.read_text()) == []


#: run in a fresh interpreter, as the test process has scipy.optimize loaded
_COLD_START = """
import json, sys
sys.path.insert(0, sys.argv[1])
import sspmsrk, sspmsrk.cli, sspmsrk.msrkio, sspmsrk.optimizer, sspmsrk.pdelab
from sspmsrk import cli, optimizer, theory

def loaded():
    return [m for m in {solvers!r} if m in sys.modules]

report = {{"after_import": loaded()}}
so2, out = sys.argv[2] + "/so2.msrk", sys.argv[2] + "/out.csv"
codes = [
    cli.main(["gen-so2", "--stages", "2", "--steps", "2", "--out", so2]),
    cli.main(["stepsearch", "--problem", "advection", "--method", so2, "--property", "tvd",
              "--resolution", "0.05", "--tf", "0.05", "--out", out]),
    cli.main(["run", "--problem", "buckley", "--method", so2, "--dt", "0.002", "--tf", "0.02",
              "--out", out]),
]
report.update(codes=codes, after_commands=loaded())
result = optimizer.maximize_ssp(optimizer.SearchSpec(s=2, k=2, p=3, starts=1))
report.update(R=theory.linear_bound(2, 2, 3).hex(), C=result.C.hex(),
              certified=result.certified, after_solvers=loaded())
print(json.dumps(report))
"""


def test_cold_start_loads_the_solvers_only_on_first_use(tmp_path):
    script = _COLD_START.format(solvers=SOLVERS)
    proc = subprocess.run([sys.executable, "-c", script, str(SRC.parent), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["after_import"] == []
    assert report["codes"] == [0, 0, 0]
    assert report["after_commands"] == []
    # the solvers load on first use and give what they give with scipy loaded up front
    assert "scipy.optimize" in report["after_solvers"]
    assert report["R"] == theory.linear_bound(2, 2, 3).hex()
    result = optimizer.maximize_ssp(optimizer.SearchSpec(s=2, k=2, p=3, starts=1))
    assert (report["C"], report["certified"]) == (result.C.hex(), True)


def frozen_writes(source: str) -> list[tuple[int, str]]:
    """(line, innermost enclosing function) of every ``object.__setattr__``
    call outside a ``__post_init__``: a frozen object normalizes its fields
    there, and a value computed from it is a ``functools.cached_property``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__setattr__"
                    and isinstance(child.func.value, ast.Name) and child.func.value.id == "object"
                    and function != "__post_init__"):
                found.append((child.lineno, function))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else function)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_flags_only_frozen_writes_outside_post_init():
    source = ("object.__setattr__(a, 'x', 1)\n"
              "class K:\n"
              "    def __post_init__(self):\n"
              "        object.__setattr__(self, 'x', 1)\n"
              "        def inner():\n"
              "            object.__setattr__(self, 'y', 2)\n"
              "    def memo(self):\n"
              "        setattr(self, 'x', 1)\n"
              "        self.__setattr__('x', 1)\n"
              "        return object.__setattr__(self, 'z', 3)\n")
    assert frozen_writes(source) == [(1, "<module>"), (6, "inner"), (10, "memo")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_frozen_write_outside_post_init(path):
    assert frozen_writes(path.read_text()) == []


def array_dataclasses_compared_by_value(source: str) -> list[tuple[int, str]]:
    """(line, name) of every class decorated ``@dataclass`` (or ``@dataclasses.dataclass``)
    with a field whose annotation names ``NDArray``, and without ``eq=False``: the
    generated ``==`` raises on the arrays, and the class is unhashable."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        holds_array = any(
            isinstance(n, ast.Name) and n.id == "NDArray"
            for field in node.body if isinstance(field, ast.AnnAssign)
            for n in ast.walk(field.annotation))
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            target = call.func if call else deco
            if getattr(target, "id", getattr(target, "attr", None)) != "dataclass":
                continue
            eq = [kw.value for kw in (call.keywords if call else ()) if kw.arg == "eq"]
            by_identity = eq and isinstance(eq[0], ast.Constant) and eq[0].value is False
            if holds_array and not by_identity:
                found.append((node.lineno, node.name))
    return found


def test_checker_flags_only_array_dataclasses_compared_by_value():
    source = ("@dataclass\n"
              "class A:\n"
              "    x: NDArray\n"
              "@dataclasses.dataclass(frozen=True)\n"
              "class B:\n"
              "    x: Optional[NDArray] = None\n"
              "@dataclass(frozen=True, eq=False)\n"
              "class C:\n"
              "    x: NDArray\n"
              "@dataclass(eq=True)\n"
              "class D:\n"
              "    x: list[NDArray]\n"
              "@dataclass\n"
              "class E:\n"
              "    x: float\n"
              "    y = np.zeros(3)\n"
              "class F(NamedTuple):\n"
              "    x: NDArray\n")
    assert array_dataclasses_compared_by_value(source) == [(2, "A"), (5, "B"), (11, "D")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_array_dataclasses_compare_by_identity(path):
    assert array_dataclasses_compared_by_value(path.read_text()) == []
