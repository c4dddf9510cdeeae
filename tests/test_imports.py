"""Every module-level import in the package modules is used.

No linter runs on this code base, so unused imports are found here: a name
bound by an import at module level must appear again in the module (an
attribute's base counts).  `__init__` is left out, since its imports are
the package's public names.
"""

import ast
import pathlib

import pytest

import mcfflow

MODULES = sorted(p for p in pathlib.Path(mcfflow.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []
