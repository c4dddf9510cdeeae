"""The golden output corpus: the bytes `mcfflow` writes for fixed inputs.

    PYTHONPATH=src python tests/golden_corpus.py

runs every case below through `cli.main` in a temporary directory and
rewrites the table `tests/golden/sha256.json`: per case, the exit status and
the SHA-256 of the file it writes and of its standard output.  The run
configs are the `tests/golden/*.json` next to the table.
`tests/test_golden.py` regenerates the outputs and compares them with the
table.  A change that means to move an output reruns this script and names
the cases that moved.

The hashes hold for the environment the table records (`environment`):
numpy's SIMD sin, cos and hypot may round differently under another numpy or
on another machine.
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

# name: (argv, the file it writes); "{golden}" is the configs' directory and
# "{out}" the output directory, so later cases read what earlier ones wrote
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
}


def environment():
    """What the hashes depend on besides the code."""
    libc, version = platform.libc_ver()
    return {"numpy": np.__version__, "python": platform.python_version(),
            "system": platform.system(), "machine": platform.machine(),
            "libc": f"{libc} {version}".strip()}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def generate(out):
    """Run every case with outputs under the directory out; {case: entry}."""
    table = {}
    for name, (argv, written) in CASES.items():
        argv = [a.format(golden=GOLDEN, out=out) for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        path = Path(out) / written if written else None
        table[name] = {
            "exit": code,
            "file": _sha256(path.read_bytes()) if path and path.exists() else None,
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
