"""The package keeps one cache of grid constants.

Every array that depends on a grid alone belongs to the grid's plan
(`bodies.grid_plan`), so `src/mcfflow` has exactly one `functools` cache,
the one on `grid_plan`, and no object-lifetime bookkeeping (`weakref`).  A
second per-grid cache, or a registry keyed by object identity, fails here.
"""

import ast
import pathlib

import mcfflow

MODULES = sorted(pathlib.Path(mcfflow.__file__).parent.glob("*.py"))
TREES = {p.stem: ast.parse(p.read_text()) for p in MODULES}
CACHES = {"lru_cache", "cache"}


def _cached_functions():
    """(module, function) of every use of functools.lru_cache or
    functools.cache, however imported, by the function it decorates (None
    where it is not a decorator)."""
    found = []
    for module, tree in TREES.items():
        aliases = {a.asname or a.name for n in ast.walk(tree)
                   if isinstance(n, ast.ImportFrom) and n.module == "functools"
                   for a in n.names if a.name in CACHES}
        decorated = {id(n): f.name for f in ast.walk(tree)
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for d in f.decorator_list for n in ast.walk(d)}
        found += [(module, decorated.get(id(n))) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr in CACHES
                  and isinstance(n.value, ast.Name) and n.value.id == "functools"
                  or isinstance(n, ast.Name) and n.id in aliases]
    return found


def test_grid_plan_is_the_only_cache():
    assert _cached_functions() == [("bodies", "grid_plan")]


def test_no_module_imports_weakref():
    imports = [(module, node.lineno) for module, tree in TREES.items()
               for node in ast.walk(tree)
               if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "weakref"
                                                        for a in node.names)
               or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0]
               == "weakref"]
    assert imports == []
