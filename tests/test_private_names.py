"""Every module-level private name in the package is used.

A private function, class or constant (a name with one leading underscore,
bound at module level in `src/mcfflow/*.py`) must be referenced somewhere
in the package outside its own definition: as a name, as an attribute
(`trajio._dumps`) or in a `from ... import`.  A helper left behind when its
last caller goes, such as a scalar twin of an array path, fails here.
"""

import ast
import collections
import pathlib

import pytest

import mcfflow

MODULES = sorted(pathlib.Path(mcfflow.__file__).parent.glob("*.py"))


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree):
    """{private name: its defining statement} over one module's top level."""
    found = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found.update({name: stmt for name in names if _is_private(name)})
    return found


def _references(node):
    """Counter of the names used under node."""
    used = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            used[n.id] += 1
        elif isinstance(n, ast.Attribute):
            used[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            used.update(a.name for a in n.names)
    return used


TREES = {p: ast.parse(p.read_text()) for p in MODULES}
USED = sum((_references(tree) for tree in TREES.values()), collections.Counter())


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_private_names_are_referenced(path):
    unused = [name for name, stmt in _definitions(TREES[path]).items()
              if USED[name] == _references(stmt)[name]]
    assert unused == []


def test_private_definitions_are_seen():
    # the scan would pass vacuously if it found no definitions
    found = set()
    for tree in TREES.values():
        found |= set(_definitions(tree))
    assert {"_TrigInterp", "_extrema", "_ROUND_RTOL", "_dumps"} <= found
