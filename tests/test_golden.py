"""The golden output corpus: every file and standard output `mcfflow` writes
for the cases of `golden_corpus.CASES`, regenerated through `cli.main`,
against the SHA-256 table in tests/golden/sha256.json.

A change that moves an output fails here until the table is rewritten with
``PYTHONPATH=src python tests/golden_corpus.py``, which a change that means to
move an output does in the same commit, naming the cases that moved.  Under an
environment other than the table's (numpy version, Python, system, machine,
libc, numpy's SIMD dispatch level), where numpy may round differently, moved
outputs are reported as a skip that names both environments; under the
table's environment they fail.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import golden_corpus
import mcfflow


def test_outputs_match_the_golden_table(tmp_path):
    table = json.loads(golden_corpus.TABLE.read_text())
    got = golden_corpus.generate(tmp_path)
    moved = sorted(name for name in table["cases"].keys() | got.keys()
                   if table["cases"].get(name) != got.get(name))
    env = golden_corpus.environment()
    if moved and env != table["environment"]:
        pytest.skip(f"cases {moved} differ from the table, recorded under "
                    f"{table['environment']}; this environment is {env}: rewrite the "
                    f"table here to compare")
    assert not moved, (f"cases {moved} moved; a change that means to move them rewrites "
                       f"the table with tests/golden_corpus.py and names them")


def test_every_case_but_the_bad_config_writes_and_exits_0():
    # a table rewritten while a case fails would hold that failure
    cases = json.loads(golden_corpus.TABLE.read_text())["cases"]
    assert cases.keys() == golden_corpus.CASES.keys()
    assert cases.pop("run-cap-initial") == {"exit": 2, "file": None, "stdout": None}
    assert all(entry["exit"] == 0 and (entry["file"] or entry["stdout"])
               for entry in cases.values())
    assert all(cases["rescale"]["file"])  # the rescaled trajectory and the report


def test_a_moved_case_fails_here_and_skips_only_elsewhere(monkeypatch, tmp_path):
    table = json.loads(golden_corpus.TABLE.read_text())
    moved = {**table["cases"], "geom-oval": {**table["cases"]["geom-oval"], "stdout": "0" * 64}}
    monkeypatch.setattr(golden_corpus, "generate", lambda out: moved)
    monkeypatch.setattr(golden_corpus, "environment", lambda: table["environment"])
    with pytest.raises(AssertionError, match="geom-oval"):
        test_outputs_match_the_golden_table(tmp_path)
    monkeypatch.setattr(golden_corpus, "environment",
                        lambda: {**table["environment"], "numpy": "0.0"})
    with pytest.raises(pytest.skip.Exception, match="geom-oval"):
        test_outputs_match_the_golden_table(tmp_path)


def test_the_environment_names_the_simd_level():
    # numpy's loops without AVX-512 round some outputs differently: a process
    # with them turned off must not read as the table's environment
    assert golden_corpus.environment()["simd"] == golden_corpus.simd_level()
    if golden_corpus.simd_level() != "X86_V4":
        pytest.skip(f"numpy dispatches to {golden_corpus.simd_level()} here, not X86_V4")
    paths = [pathlib.Path(m.__file__).resolve().parent for m in (golden_corpus, mcfflow)]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4",
               PYTHONPATH=os.pathsep.join([str(paths[0]), str(paths[1].parent)]))
    done = subprocess.run([sys.executable, "-c", "import golden_corpus; "
                           "print(golden_corpus.simd_level())"],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.strip() == "X86_V3"
