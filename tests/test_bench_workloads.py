"""The benchmark's workloads run on the package as it is.

`bench/workloads.py` calls the package's public entry points
(`analysis.diameter_curvature_check(traj)`, `analysis.soliton_proximity`,
`cli.main`, ...).  A changed signature would otherwise show only when the
benchmark runs.  Each workload is set up at its smoke size, and every
operation of its first repeat is run and checked as the benchmark does.  The
module is loaded from its source without importing the bench directory.
"""

import importlib.util
import pathlib
import sys

import pytest

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["flow-run", "trajectory-analysis", "body-sweep"])
def test_every_smoke_operation_passes_its_check(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](smoke=True)
    state = workload.setup(str(tmp_path), 1)
    ops = workload.ops(state, 0)
    assert ops
    for op in ops:
        op.check(op.run())
