"""mcfflow benchmark harness.

    python3 bench/run.py --workload flow-run --seed 1 --seconds 35 --trace 0

Runs one workload (flow-run, trajectory-analysis or body-sweep, see
bench/METRICS.md) in this process, single-threaded, from the source tree
next to this directory.  Set-up is timed several times; then the workload's
fixed operation list is repeated until --seconds have passed.  Every
operation's output is checked after its timed region.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced repeats and reports the per-layer metrics from the traced ones.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full record (environment, every sample,
every failure) goes to .bench_out/records/ and the spans of a traced run to
.bench_out/spans/.  --smoke shrinks every input and runs the fewest repeats,
for a quick functional run.
"""

import os
import sys

# pin BLAS/OpenMP pools to one thread before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

from stats import tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
WORKLOAD_NAMES = ("flow-run", "trajectory-analysis", "body-sweep")
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "ok_frac": "frac", "peak_rss_mb": "MB", "err_share": "frac",
}
# err_share below this reads as this: closed-form errors at rounding level
# (a few ulps) vary with the order of float operations, not with accuracy
ERR_SHARE_FLOOR = 1e-4
IMPORT_REPEATS = 7
# An import happens once per process, so a fresh interpreter repeats it.  The
# child times its own import, then runs the reference kernel on its own core
# right after it, as the Clock does after a region.
IMPORT_PROBE = """
import time
start = time.perf_counter()
import mcfflow
took = time.perf_counter() - start
import calibrate
print(took, *(calibrate.reference_time() for _ in range(5)))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs")
    return p.parse_args(argv)


def environment():
    import numpy
    import scipy
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                  capture_output=True, text=True)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "mcfflow").glob("*.py")))
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_lines": src_lines,
    }


def run_repeat(ops, repeat, clock, tracer, check_failed):
    """Run one pass of the op list and check each output; returns its record.

    Op times are in reference seconds (see calibrate.py), and checks run
    outside the timed region."""
    samples = []
    for i, op in enumerate(ops):
        op_id = f"{repeat}.{i}"
        error = None
        if tracer is not None:
            tracer.install(op_id)
        clock.start()
        try:
            out = op.run()
        except Exception:
            error = traceback.format_exc(limit=-3)
        finally:
            elapsed, raw = clock.stop()
            if tracer is not None:
                tracer.uninstall()
        share = None
        if error is None:
            try:
                share = op.check(out)
            except check_failed as err:
                error = f"check failed: {err}"
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=-3)
        samples.append({"op": op_id, "label": op.label, "s": elapsed, "raw_s": raw,
                        "error": error, "err_share": share})
    return {"repeat": repeat, "traced": tracer is not None,
            "wall_s": sum(s["s"] for s in samples),
            "raw_wall_s": sum(s["raw_s"] for s in samples), "ops": samples}


def end_to_end(setup, repeats):
    ops = [s for r in repeats for s in r["ops"]]
    durations = [s["s"] for s in ops]
    failed = sum(s["error"] is not None for s in ops)
    shares = [s["err_share"] for s in ops if s["err_share"] is not None]
    tail_value, tail_pct, count = tail(durations)
    metrics = {
        "setup_s": statistics.median(setup["import_s"]) + statistics.median(setup["samples_s"]),
        "wall_s": statistics.median(r["wall_s"] for r in repeats),
        "op_p50_s": statistics.median(durations),
        "op_tail_s": tail_value,
        "ok_frac": 1.0 - failed / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # a workload whose closed-form checks all failed used all its tolerance
        "err_share": max([ERR_SHARE_FLOOR] + shares) if shares else 1.0,
    }
    detail = {"samples": {"repeats": len(repeats), "ops": len(ops)},
              "raw": {"setup_s": statistics.median(setup["raw_import_s"])
                      + statistics.median(setup["raw_samples_s"]),
                      "wall_s": statistics.median(r["raw_wall_s"] for r in repeats),
                      "op_p50_s": statistics.median(s["raw_s"] for s in ops)},
              "op_tail": {"percentile": tail_pct, "count": count},
              "failed_frac": failed / len(ops)}
    return metrics, detail


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mcfflow" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no mcfflow source tree under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import mcfflow  # noqa: F401  (compiles the package's bytecode if need be)

    import calibrate
    import spans
    import workloads

    clock = calibrate.Clock()

    out = ROOT / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    workdir = out / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    tracer = spans.Tracer() if args.trace else None
    try:
        setup = {"import_s": [], "samples_s": [], "raw_import_s": [], "raw_samples_s": []}
        child_env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
        for _ in range(IMPORT_REPEATS):
            done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env,
                                  check=True, capture_output=True, text=True)
            raw, *kernel = map(float, done.stdout.split())
            setup["import_s"].append(calibrate.scaled(raw, kernel))
            setup["raw_import_s"].append(raw)
        setup_spans = ([], [])
        for k in range(SETUP_REPEATS):
            traced = tracer is not None and k == SETUP_REPEATS - 1
            mark = tracer.mark() if traced else None
            if traced:
                tracer.install("setup")
            clock.start()
            try:
                state = workload.setup(str(workdir), args.seed)
            finally:
                elapsed, raw = clock.stop()
                if traced:
                    tracer.uninstall()
            setup["samples_s"].append(elapsed)
            setup["raw_samples_s"].append(raw)
            if traced:
                setup_spans = tracer.since(mark)

        repeats, layer_groups = [], []
        min_repeats = (2 if args.trace else 3) if not args.smoke else (1 + args.trace)
        measure_start = time.perf_counter()
        repeat = 0
        while True:
            t0 = time.perf_counter()
            ops = workload.ops(state, repeat)
            traced = tracer is not None and repeat % 2 == 1
            mark = tracer.mark() if traced else None
            repeats.append(run_repeat(ops, repeat, clock, tracer if traced else None,
                                      workloads.CheckFailed))
            if traced:
                scale = repeats[-1]["wall_s"] / repeats[-1]["raw_wall_s"]
                layer_groups.append(spans.layer_metrics(tracer.since(mark), scale))
            repeat += 1
            elapsed = time.perf_counter() - measure_start
            if repeat >= min_repeats and \
                    (args.smoke or elapsed + (time.perf_counter() - t0) > args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in repeats if not r["traced"]]
    metrics, detail = end_to_end(setup, plain)
    attempted = sum(len(r["ops"]) for r in repeats)
    failures = [dict(s, repeat=r["repeat"]) for r in repeats for s in r["ops"]
                if s["error"] is not None]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "env": environment(),
              "setup": setup, "end_to_end": metrics, **detail,
              "failures": failures, "repeats": repeats}
    if args.trace:
        layer = spans.median_metrics(layer_groups)
        layer.update(spans.setup_metrics(
            setup_spans, setup["samples_s"][-1] / setup["raw_samples_s"][-1]))
        traced_wall = statistics.median(r["wall_s"] for r in repeats if r["traced"])
        layer["trace.overhead_frac"] = traced_wall / metrics["wall_s"] - 1.0
        record["per_layer"] = layer
        record["layers_traced"] = tracer.layers_seen()
        printed = {k: {"value": v, "unit": spans.unit_of(k)} for k, v in layer.items()}
        (out / "spans").mkdir(parents=True, exist_ok=True)
        labels = {s["op"]: s["label"] for r in repeats for s in r["ops"]}
        tracer.write(out / "spans" / f"{tag}.jsonl.gz", labels)
    else:
        printed = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    (out / "records").mkdir(parents=True, exist_ok=True)
    with open(out / "records" / f"{tag}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    for s in failures:
        sys.stderr.write(f"bench: op {s['op']} ({s['label']}) failed: {s['error']}\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
