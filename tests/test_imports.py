"""Every module in the package uses every name it imports, every
module-level private name is referenced somewhere in the package, every
private method, or method of a private class, is read as an attribute
somewhere in the package, only
``laurent.py`` reads the fields of a ``LaurentPoly``, no re-export hides
a submodule, and importing the package fills no memo.

Re-exports in ``__init__.py`` and ``from __future__`` imports are exempt.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qapery

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qapery"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_flags_an_unused_name():
    source = "from __future__ import annotations\nimport os, sys\nfrom a.b import c as d\nsys.exit(d)\n"
    assert _unused_imports(source) == [(2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _unreferenced_private_names(sources):
    """(module, name) for each module-level ``_private`` function, class or
    constant in ``sources`` (module -> text) that no module references, and
    (module, "Class.method") for each method, not a dunder, that is private
    or belongs to a private class and that no module reads as an attribute
    (``x.method``)."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined, methods = [], []
    referenced, attributes = set(), set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods += [(module, node.name, item.name) for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("__")
                            and (item.name.startswith("_") or _private(node.name))]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [(module, n) for n in names if _private(n)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return sorted([(module, name) for module, name in defined if name not in referenced]
                  + [(module, "%s.%s" % (cls, name)) for module, cls, name in methods
                     if name not in attributes])


def test_detector_flags_an_unreferenced_private_name():
    sources = {
        "a": "_USED = 1\n_SET_ONLY = 2\ndef _dead():\n    return _USED\nclass _Kept:\n    pass\n",
        "b": "from a import _Kept\nimport a\nx = a._dead\n__all__ = []\n",
    }
    assert _unreferenced_private_names(sources) == [("a", "_SET_ONLY")]


def test_detector_flags_an_uncalled_private_method():
    # a method is used only when read as an attribute: a bare name in the
    # class body, or a call of the same name elsewhere, does not count
    sources = {
        "a": ("class _P:\n    def __init__(self):\n        self.read()\n"
              "    def read(self):\n        return dead\n    def dead(self):\n        pass\n"
              "class Q:\n    def public(self):\n        pass\n    def _kept(self):\n        pass\n"
              "    def _gone(self):\n        pass\n"),
        "b": "from a import _P, Q\nQ()._kept()\n_gone = 1\nprint(_gone)\n",
    }
    assert _unreferenced_private_names(sources) == [("a", "Q._gone"), ("a", "_P.dead")]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert _unreferenced_private_names(sources) == []


#: The storage of ``LaurentPoly``, present and past.
SLOTS = {"_low", "_coeffs", "_den", "_terms"}


def _slot_reads(source: str):
    """Line numbers of the attribute accesses in ``source`` that name a slot."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in SLOTS)


def test_detector_flags_a_slot_read():
    source = "def f(p):\n    return p.terms()\n\n\ndef g(p):\n    return p._coeffs[0] + p._den\n"
    assert _slot_reads(source) == [6, 6]


def test_only_laurent_reads_the_representation():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    reads = [(p.name, line) for p in paths if p.name != "laurent.py"
             for line in _slot_reads(p.read_text(encoding="utf-8"))]
    assert reads == []


#: The importable submodules; ``__main__`` runs the CLI when imported.
SUBMODULES = [p.stem for p in MODULES if p.stem != "__main__"]


@pytest.mark.parametrize("name", SUBMODULES)
def test_package_attribute_is_the_submodule(name):
    importlib.import_module("qapery." + name)
    assert getattr(qapery, name) is sys.modules["qapery." + name]


def test_import_builds_nothing():
    """A fresh ``import qapery.checks`` leaves every memo empty, so that no
    construction moves into import, which every process pays; ``checks``
    itself holds no memo."""
    probe = (
        "from qapery import checks, cyclotomic, qcombinatorics, sequences\n"
        "tables = [cyclotomic._CYCLOTOMIC, qcombinatorics._QBIN_CACHE,\n"
        "          qcombinatorics._QBIN_POW_CACHE, qcombinatorics._PASCAL_CACHE]\n"
        "memos = [cyclotomic._modulus_parts, cyclotomic._field, sequences.apery_q_krz_binform]\n"
        "own = [name for name, f in vars(checks).items() if hasattr(f, 'cache_info')\n"
        "       and f.__module__ == checks.__name__]\n"
        "print([len(t) for t in tables], [f.cache_info().currsize for f in memos], own)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == "[0, 0, 0, 0] [0, 0, 0] []".split()
