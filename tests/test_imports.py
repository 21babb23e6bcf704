"""Every name a module imports is used in that module, every module it
imports from outside the package is in the standard library, and one
place reads the enumeration bound.

The first check covers the package, the tests and the tools;
``__init__.py`` re-exports names it does not use, so it is left out.  A
name counts as used if it appears as a name or as the base of an attribute
anywhere in the module, annotations included, or is listed in
``__all__``.  The package stays standard-library only, so each absolute
import must name a top-level module in ``sys.stdlib_module_names``.
``ENUMERATION_BOUND`` is read only by ``PermGroup._cayley_walk``, the
one place that refuses enumeration: a load of the name, of an attribute
of that name, or an import of it anywhere else in the package is a second
reader.  The walk numbers a group's elements as ``elements()`` does, and
the order in which it found them, ``PermGroup._fill``, is read by the fill
along the walk, which also proves a map on the Schreier edges
(``_tree_values``), and the Schreier edges that ``induce`` spells
(``_off_tree_edges``) alone, so that every other
reader, in ``perm`` or out of it, sees one numbering.  The stabilizer
chain is ``perm``'s alone: no other module names it or a routine that reads
or builds it, so every other module grows its groups through ``PermGroup``
and ``_sifted``.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "xmodlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree)
            if name not in used]


def test_detects_unused_import():
    source = "from .perm import _closure, _context\n_context(1, 2)\n"
    assert unused_imports(source) == [("_closure", 1)]
    assert unused_imports("import json\njson.dumps(1)\n") == []


ROOT = SRC.parent.parent
# the package's modules but ``__init__.py``, then the tests and the tools
CHECKED = (MODULES + sorted((ROOT / "tests").glob("*.py"))
           + sorted((ROOT / "tools").glob("*.py")))


@pytest.mark.parametrize(
    "path", CHECKED,
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def absolute_imports(source):
    """(top-level module, line) for every absolute import."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def non_stdlib_imports(source):
    return [(name, line) for name, line in absolute_imports(source)
            if name not in sys.stdlib_module_names]


def test_detects_non_stdlib_import():
    source = ("import numpy.linalg\nfrom . import perm\n"
              "from collections import Counter\nfrom .perm import _context\n")
    assert list(absolute_imports(source)) == [("numpy", 1), ("collections", 3)]
    assert non_stdlib_imports(source) == [("numpy", 1)]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_standard_library_only(path):
    assert non_stdlib_imports(path.read_text()) == []


class _Readers(ast.NodeVisitor):
    """(enclosing class and function names, line) of every read of
    ``name``."""

    def __init__(self, name):
        self.name = name
        self.scope = []
        self.found = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def _read(self, node):
        self.found.append((".".join(self.scope), node.lineno))

    def visit_Name(self, node):
        if node.id == self.name and isinstance(node.ctx, ast.Load):
            self._read(node)

    def visit_Attribute(self, node):
        if node.attr == self.name and isinstance(node.ctx, ast.Load):
            self._read(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if any(alias.name == self.name for alias in node.names):
            self._read(node)


def readers(source, name="ENUMERATION_BOUND"):
    visitor = _Readers(name)
    visitor.visit(ast.parse(source))
    return visitor.found


def test_detects_enumeration_bound_readers():
    source = ("from .perm import ENUMERATION_BOUND\n"
              "ENUMERATION_BOUND = 1\n"
              "class G:\n"
              "    def walk(self):\n"
              "        return ENUMERATION_BOUND\n"
              "def witness(perm):\n"
              "    return perm.ENUMERATION_BOUND\n")
    assert readers(source) == [("", 1), ("G.walk", 5), ("witness", 7)]


def test_enumeration_bound_read_only_by_the_walk():
    found = {(path.name, scope) for path in sorted(SRC.rglob("*.py"))
             for scope, _ in readers(path.read_text())}
    assert found == {("perm.py", "PermGroup._cayley_walk")}


def walk_order_readers(sources):
    """(file name, scope) of every read of ``_fill`` in the given
    ``(file name, text)`` pairs."""
    return {(name, scope) for name, text in sources
            for scope, _ in readers(text, "_fill")}


def test_detects_walk_order_readers():
    xmod = ((SRC / "xmod.py").read_text()
            + "\n\ndef first_found(X):\n    return X.Q._fill[1]\n")
    found = walk_order_readers([("xmod.py", xmod)])
    assert ("xmod.py", "first_found") in found
    source = ("class G:\n"
              "    def walk(self):\n"
              "        self._fill = ()\n"
              "        return self._fill\n")
    assert readers(source, "_fill") == [("G.walk", 4)]


def test_walk_order_read_only_by_the_fill_and_the_schreier_edges():
    found = walk_order_readers((path.name, path.read_text())
                               for path in sorted(SRC.rglob("*.py")))
    assert found == {("perm.py", "_tree_values"),
                     ("perm.py", "_off_tree_edges")}


# the stabilizer chain and the routines that read or build it
CHAIN_NAMES = frozenset({
    "_levels", "_strip", "_strip_at", "_extend_chain", "_build_chain",
    "_complete_chain", "_rebuild_orbit", "_transversal_inverse",
    "_chain_order", "_on_chain", "_irredundant",
})


def chain_names(source):
    """The chain names the source mentions: as a name, an attribute, an
    import or a definition."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        found.update(CHAIN_NAMES.intersection(names))
    return found


def test_detects_chain_names():
    induce = (SRC / "induce.py").read_text()
    reads = induce + "\n\ndef depth(G):\n    return len(G._levels)\n"
    assert chain_names(reads) == {"_levels"}
    imports = "from .perm import _strip as strip\n" + induce
    assert chain_names(imports) == {"_strip"}
    # a constructor is allowed: ``squares.gamma`` builds a bounded group
    source = ("from .perm import PermGroup\n"
              "def regular(gens, n):\n"
              "    return PermGroup._bounded(n, gens, n)\n")
    assert chain_names(source) == set()


@pytest.mark.parametrize("path", [p for p in sorted(SRC.rglob("*.py"))
                                  if p.name != "perm.py"],
                         ids=lambda p: p.name)
def test_chain_named_only_in_perm(path):
    assert chain_names(path.read_text()) == set()
