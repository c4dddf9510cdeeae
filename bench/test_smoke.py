"""Smoke test of the benchmark: tiny inputs, every workload, traced and not.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import verdict

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = {"cli", "engine", "bodies", "_solvers", "exact", "geometry",
          "diagnostics", "analysis", "trajio"}
SEED = 7


def run_bench(root, workload, trace):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run_bench(ROOT, workload, trace)
            assert done.returncode == 0, done.stderr
            record = ROOT / ".bench_out" / "records" / f"{workload}-seed{SEED}-smoke-trace{trace}.json"
            out[workload, trace] = (json.loads(done.stdout.splitlines()[-1]),
                                    json.loads(record.read_text()))
    return out


def test_every_metric_is_emitted_with_its_unit(results):
    for (workload, trace), (line, _) in results.items():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True, workload
        assert line["failed"] == 0 and line["attempted"] >= 1
        spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        units = {k: v["unit"] for k, v in line["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in spec}, (workload, trace)
        for metric in line["metrics"].values():
            assert isinstance(metric["value"], (int, float))


def test_end_to_end_metrics_are_never_zero(results):
    for workload in WORKLOADS:
        line, record = results[workload, 0]
        for name, metric in line["metrics"].items():
            assert metric["value"] > 0, (workload, name)
        assert record["failed_frac"] == 0.0
        assert record["op_tail"]["count"] == line["attempted"]
        env = record["env"]
        assert set(env["threads"].values()) == {"1"}
        assert env["src_lines"] > 0 and env["python"] and env["numpy"] and env["scipy"]


def test_traced_runs_cover_every_layer(results):
    seen = set()
    for workload in WORKLOADS:
        seen.update(results[workload, 1][1]["layers_traced"])
        assert (ROOT / ".bench_out" / "spans" / f"{workload}-seed{SEED}-smoke.jsonl.gz").is_file()
    assert LAYERS <= seen


def test_layer_signatures(results):
    layer = {w: results[w, 1][0]["metrics"] for w in WORKLOADS}
    value = lambda w, name: layer[w][name]["value"]
    assert value("flow-run", "engine.stencil_evals_per_step") == pytest.approx(6.0, abs=0.05)
    assert value("trajectory-analysis", "geometry.measure.repeat_ratio") > 1.0
    assert value("body-sweep", "geometry.measure.repeat_ratio") == 1.0
    for w in ("trajectory-analysis", "body-sweep"):
        assert value(w, "engine.evolve.self_s") == 0.0
        assert value(w, "bodies.stencil.s") == 0.0
    assert value("flow-run", "trajio.write.bytes") > 0
    assert value("trajectory-analysis", "trajio.read.bytes") > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "body-sweep", 0)
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_verdicts():
    base = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.2 for v in base]
    pairs = lambda other: list(zip(base, other))
    assert verdict(base, faster, pairs(faster), "lower", 0.1)[0] == "improved"
    assert verdict(base, slower, pairs(slower), "lower", 0.1)[0] == "worse"
    assert verdict(base, base, pairs(base), "lower", 0.1)[0] == "unchanged"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert verdict(noisy, base, list(zip(noisy, base)), "lower", 0.1)[0] == "unresolved"
    # a noisy base does not hide a clear regression
    assert verdict(noisy, [v * 2.0 for v in noisy], [(v, v * 2.0) for v in noisy],
                   "lower", 0.1)[0] == "worse"
    assert verdict(base, faster, pairs(faster), "higher", 0.1)[0] == "worse"
