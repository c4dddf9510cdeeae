"""No module of the package draws random numbers outside the two seeded
body generators.

Reruns must stay byte-identical, so randomness is confined to
`bodies.random_convex_curve` and `bodies.random_convex_profile`, which take
an explicit seed.  Any other `import random`, `numpy.random` or
`default_rng` in the package fails here.
"""

import ast
import pathlib

import pytest

import mcfflow

MODULES = sorted(pathlib.Path(mcfflow.__file__).parent.glob("*.py"))
SEEDED = {("bodies", "random_convex_curve"), ("bodies", "random_convex_profile")}


def _is_rng(node):
    """True for an import of `random` or `numpy.random`, and for a use of
    `<x>.random` or `default_rng`."""
    if isinstance(node, ast.Import):
        return any(a.name == "random" or a.name.startswith("numpy.random") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return (module == "random" or module.startswith("numpy.random")
                or (module == "numpy" and any(a.name == "random" for a in node.names)))
    if isinstance(node, ast.Attribute):
        return node.attr in ("random", "default_rng")
    return isinstance(node, ast.Name) and node.id == "default_rng"


def _rng_lines(path):
    """{function name or None: [line of each RNG use]} over the top-level
    statements of one module."""
    found = {}
    for stmt in ast.parse(path.read_text()).body:
        name = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        lines = [n.lineno for n in ast.walk(stmt) if _is_rng(n)]
        if lines:
            found.setdefault(name, []).extend(lines)
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_randomness_only_in_seeded_generators(path):
    outside = {name: lines for name, lines in _rng_lines(path).items()
               if (path.stem, name) not in SEEDED}
    assert outside == {}


def test_seeded_generators_are_seen():
    # the scan above would pass vacuously if it missed the known uses
    found = _rng_lines(pathlib.Path(mcfflow.__file__).parent / "bodies.py")
    assert {("bodies", name) for name in found} == SEEDED
