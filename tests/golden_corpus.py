"""The golden output corpus: the bytes `mcfflow` writes for fixed inputs.

    PYTHONPATH=src python tests/golden_corpus.py

runs every case below through `cli.main` in a temporary directory and
rewrites the table `tests/golden/sha256.json`: per case, the exit status and
the SHA-256 of the file it writes (a list of them for a case that writes
several) and of its standard output.  The run
configs are the `tests/golden/*.json` next to the table.
`tests/test_golden.py` regenerates the outputs and compares them with the
table.  A change that means to move an output reruns this script and names
the cases that moved.

The hashes hold for the environment the table records (`environment`):
numpy's SIMD sin, cos and hypot may round differently under another numpy,
on another machine, or at another SIMD dispatch level (`simd_level`: without
AVX-512, some transcendental loops round differently in the last digit).
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from mcfflow import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
TABLE = GOLDEN / "sha256.json"

# name: (argv, the file it writes, or a tuple of the files); "{golden}" is the
# configs' directory and "{out}" the output directory, so later cases read
# what earlier ones wrote
CASES = {
    "run-curve": (["run", "--config", "{golden}/curve.json", "--out", "{out}/curve.jsonl"],
                  "curve.jsonl"),
    "run-sphere2": (["run", "--config", "{golden}/sphere2.json", "--out", "{out}/sphere2.jsonl"],
                    "sphere2.jsonl"),
    "run-sphere3": (["run", "--config", "{golden}/sphere3.json", "--out", "{out}/sphere3.jsonl"],
                    "sphere3.jsonl"),
    "run-cap": (["run", "--config", "{golden}/cap.json", "--out", "{out}/cap.jsonl"],
                "cap.jsonl"),
    # a cap run takes no initial block: exit 2, nothing written
    "run-cap-initial": (["run", "--config", "{golden}/cap_initial.json",
                         "--out", "{out}/cap-initial.jsonl"], "cap-initial.jsonl"),
    **{f"classify-{name}": (["classify", "--traj", f"{{out}}/{name}.jsonl",
                             "--out", f"{{out}}/classify-{name}.json"], f"classify-{name}.json")
       for name in ("curve", "sphere2", "sphere3")},
    **{f"diagnose-{name}": (["diagnose", "--traj", f"{{out}}/{name}.jsonl", "--k", "1",
                             "--out", f"{{out}}/diagnose-{name}.csv"], f"diagnose-{name}.csv")
       for name in ("curve", "sphere2", "sphere3")},
    "exact-oval": (["exact", "--family", "oval", "--n", "1", "--t", "-2", "--resolution", "64",
                    "--out", "{out}/oval.jsonl"], "oval.jsonl"),
    "geom-oval": (["geom", "--body", "{out}/oval.jsonl", "--directions", "8"], None),
    # a perturbed sphere of radius 20 from t0 = -100: its rescale window
    # [-50, -1] recentres every slice through the Chebyshev LP
    "run-rescale": (["run", "--config", "{golden}/rescale.json", "--out", "{out}/rescale.jsonl"],
                    "rescale.jsonl"),
    "rescale": (["rescale", "--traj", "{out}/rescale.jsonl", "--window", "50",
                 "--out", "{out}/rescaled.jsonl", "--report", "{out}/rescale-report.json"],
                ("rescaled.jsonl", "rescale-report.json")),
}


def simd_level():
    """The highest x86-64 microarchitecture level numpy dispatches to in this
    process, "X86_V2", "X86_V3" or "X86_V4" (AVX-512), or None for none of
    them.  ``NPY_DISABLE_CPU_FEATURES`` lowers it."""
    from numpy._core._multiarray_umath import __cpu_features__ as features
    found = [level for level in ("X86_V2", "X86_V3", "X86_V4") if features.get(level)]
    return found[-1] if found else None


def environment():
    """What the hashes depend on besides the code."""
    libc, version = platform.libc_ver()
    return {"numpy": np.__version__, "python": platform.python_version(),
            "system": platform.system(), "machine": platform.machine(),
            "libc": f"{libc} {version}".strip(), "simd": simd_level()}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _file_sha256(out, written):
    """SHA-256 of the file out/written, None if there is none."""
    path = Path(out) / written
    return _sha256(path.read_bytes()) if path.exists() else None


def generate(out):
    """Run every case with outputs under the directory out; {case: entry}."""
    table = {}
    for name, (argv, written) in CASES.items():
        argv = [a.format(golden=GOLDEN, out=out) for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if isinstance(written, tuple):
            files = [_file_sha256(out, w) for w in written]
        else:
            files = written and _file_sha256(out, written)
        table[name] = {
            "exit": code,
            "file": files,
            "stdout": _sha256(stdout.getvalue().encode()) if stdout.getvalue() else None,
        }
    return table


def main():
    with tempfile.TemporaryDirectory() as out:
        cases = generate(out)
    TABLE.write_text(json.dumps({"environment": environment(), "cases": cases},
                                indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {TABLE}")


if __name__ == "__main__":
    sys.exit(main())
