"""Every module-level import in the package modules is used, and importing
the package loads neither scipy nor jsonschema.

No linter runs on this code base, so unused imports are found here: a name
bound by an import at module level must appear again in the module (an
attribute's base counts).  `__init__` is left out, since its imports are
the package's public names.  scipy and jsonschema are test-only oracles.
"""

import ast
import os
import pathlib
import subprocess
import sys

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


def _loaded_by_import(packages):
    """The modules of `packages` that a fresh `import mcfflow` loads."""
    # a fresh interpreter: this test process has the oracles loaded
    root = str(pathlib.Path(mcfflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, mcfflow; "
         f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    return done.stdout.strip()


def test_import_loads_no_scipy():
    assert _loaded_by_import(["scipy"]) == "[]"


def test_import_loads_no_jsonschema():
    # nor the packages jsonschema brings: run configs are checked in-house
    assert _loaded_by_import(["jsonschema", "referencing", "attrs", "rpds"]) == "[]"
