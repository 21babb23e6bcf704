"""Every name a module imports is used in that module, and every module
it imports from outside the package is in the standard library.

``__init__.py`` re-exports names it does not use, so it is left out of the
first check.  A name counts as used if it appears as a name or as the base
of an attribute anywhere in the module, annotations included, or is listed
in ``__all__``.  The package stays standard-library only, so each absolute
import must name a top-level module in ``sys.stdlib_module_names``.
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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
