"""Every subcommand on every kind of input exits 0, 2 or 3, never with a
traceback.

`cli.main` is called in-process: an exception escaping it would be a
traceback and exit status 1 in the `mcfflow` process.
"""

import json
import math

import numpy as np
import pytest

from mcfflow import bodies, cli, diagnostics, engine, exact, trajio
from mcfflow._solvers import InfeasibleError
from mcfflow.diagnostics import NonPositiveCurvatureError
from mcfflow.engine import TimeSlice


DROP = object()
# edits of a run's second snapshot record (line 3): source file, new fields;
# a callable field value maps the field's old value to the new one
EDITED_RECORDS = {
    "empty_shift": ("axisym13_traj", {"shift": []}),
    "axisym_shift2": ("axisym13_traj", {"shift": [0.0, 0.0]}),
    "curve_shift1": ("curve_traj", {"shift": [0.0]}),
    "scalar_data": ("curve_traj", {"data": 5.0}),
    "null_time": ("curve_traj", {"t": None}),
    "string_time": ("curve_traj", {"t": "x"}),
    "curve_n7": ("curve_traj", {"n": 7}),
    "fractional_N": ("curve_traj", {"N": 32.5}),
    "string_N": ("curve_traj", {"N": "x"}),
    "list_R": ("cap_traj", {"R": [1]}),
    "no_R": ("cap_traj", {"R": DROP}),
    # JSON types: a number written as a string, a bool for an integer
    "numeric_string_time": ("curve_traj", {"t": str}),
    "true_n": ("curve_traj", {"n": True}),
    "float_n": ("curve_traj", {"n": 1.0}),
    "numeric_string_data": ("curve_traj", {"data": lambda data: [str(v) for v in data]}),
    "huge_int_time": ("curve_traj", {"t": -10 ** 400}),  # no float holds it
    "cap_fractional_N": ("cap_traj", {"N": 32.5}),
    "cap_string_R": ("cap_traj", {"R": str}),
    # a cap slice in another ambient sphere (the run has R = 3)
    "cap_other_R": ("cap_traj", {"R": 5.0}),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("matrix")
    paths = {k: str(d / f"{k}.jsonl") for k in
             ("curve", "axisym", "cap", "cap_traj", "equator_traj", "axisym13_traj",
              "curve_traj", "report",
              "truncated", "four_point", "bad_controls", "list_gauge",
              "array_header", *EDITED_RECORDS, "string_count")}
    assert cli.main(["exact", "--family", "sphere", "--n", "1", "--t", "-1",
                     "--resolution", "32", "--out", paths["curve"]]) == 0
    assert cli.main(["exact", "--family", "sphere", "--n", "2", "--t", "-1",
                     "--resolution", "32", "--out", paths["axisym"]]) == 0
    assert cli.main(["exact", "--family", "cap", "--n", "2", "--R", "3", "--t", "-1",
                     "--out", paths["cap"]]) == 0
    assert cli.main(["exact", "--family", "cylinder", "--n", "3", "--k", "1", "--t", "-2",
                     "--out", paths["report"]]) == 0
    configs = {
        # covers the rescaling window [-10, -1]
        "cap_traj": {"engine": "cap", "n": 2, "t0": -12.0, "t_stop": -0.5,
                     "controls": {"max_dt": 0.1, "snapshot_stride": 10},
                     "cap": {"R": 3.0, "rho0": exact.cap_radius(3.0, 2, -12.0)}},
        "equator_traj": {"engine": "cap", "n": 2, "t0": -5.0,
                         "cap": {"R": 1.0, "rho0": math.pi / 2.0}},
        "axisym13_traj": {"engine": "axisym", "n": 13, "N": 32, "t0": -100.0,
                          "controls": {"max_dt": 1.0, "stop_rho_plus": 30.0},
                          "initial": {"family": {"kind": "sphere"}}},
        "curve_traj": {"engine": "curve", "n": 1, "N": 32, "t0": -1.0,
                       "controls": {"cfl": 0.4, "max_dt": 1e-2, "stop_rho_plus": 0.3,
                                    "snapshot_stride": 8},
                       "initial": {"random": {"seed": 3, "amplitude": 0.3}}},
    }
    for name, cfg in configs.items():
        cfg_path = d / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(cfg_path), "--out", paths[name]]) == 0
    text = open(paths["curve_traj"]).read()
    with open(paths["truncated"], "w") as f:
        f.write(text[: 2 * len(text) // 3])
    header, *records = text.splitlines()
    with open(paths["array_header"], "w") as f:
        f.write("\n".join(["[1, 2]", *records]) + "\n")
    for name, key, value in (("bad_controls", "controls", {"cfl": 0.4, "bogus": 1}),
                             ("list_gauge", "gauge", [1]),
                             ("string_count", "count", str(len(records)))):
        # a control FlowControls does not have; a block that is not an object;
        # a record count written as a string
        edited = {**json.loads(header), key: value}
        with open(paths[name], "w") as f:
            f.write("\n".join([json.dumps(edited), *records]) + "\n")
    for name, (source, fields) in EDITED_RECORDS.items():
        # the first slice as written, then the second slice edited
        head, first, second, *rest = open(paths[source]).read().splitlines()
        old = json.loads(second)
        rec = {k: v(old[k]) if callable(v) else v
               for k, v in {**old, **fields}.items() if v is not DROP}
        with open(paths[name], "w") as f:
            f.write("\n".join([head, first, json.dumps(rec), *rest]) + "\n")
    # the support of a rounded triangle: convex by the 3-point test that
    # validates bodies, not by the engine's 4-point stencil
    theta = np.arange(64) * (2.0 * math.pi / 64)
    vertices = np.array([[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8]])
    h = np.max(vertices @ np.vstack([np.cos(theta), np.sin(theta)]), axis=0) + 0.05
    trajio.write_slice(TimeSlice(-1.0, bodies.SupportProfile("curve", 1, h)),
                       paths["four_point"])
    for name, path in list(paths.items()):
        for engine_kind, n in (("curve", 1), ("axisym", 2)):
            cfg_path = d / f"run-{name}-{engine_kind}.json"
            cfg_path.write_text(json.dumps({
                "engine": engine_kind, "n": n, "t0": -1.0,
                "controls": {"max_dt": 1e-2, "stop_rho_plus": 0.3, "snapshot_stride": 8},
                "initial": {"file": path}}))
    return d, paths


def _argvs(d, path, name):
    out = str(d / "out")
    return [
        ["run", "--config", str(d / f"run-{name}-curve.json"), "--out", out],
        ["run", "--config", str(d / f"run-{name}-axisym.json"), "--out", out],
        ["geom", "--body", path],
        ["diagnose", "--traj", path, "--out", out],
        ["classify", "--traj", path, "--out", out],
        ["rescale", "--traj", path, "--window", "10", "--out", out,
         "--report", str(d / "report")],
    ]


@pytest.mark.parametrize("name", ["curve", "axisym", "cap", "cap_traj", "equator_traj",
                                  "axisym13_traj", "curve_traj", "report", "truncated",
                                  "four_point"])
def test_subcommands_exit_cleanly(inputs, name, capsys):
    d, paths = inputs
    for argv in _argvs(d, paths[name], name):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err


@pytest.mark.parametrize("family", ["sphere", "oval", "cap", "cylinder", "grim-reaper"])
@pytest.mark.parametrize("t", ["-1", "0", "1"])
def test_exact_exits_cleanly(tmp_path, family, t, capsys):
    code = cli.main(["exact", "--family", family, "--n", "2", "--t", t,
                     "--resolution", "32", "--out", str(tmp_path / "x.jsonl")])
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_oval_in_higher_dimension_is_bad_input(tmp_path, capsys):
    # the oval and the grim reaper are plane curves; --n 2 must not
    # silently write one
    for family in ("oval", "grim-reaper"):
        assert cli.main(["exact", "--family", family, "--n", "2", "--t", "-1",
                         "--resolution", "32", "--out", str(tmp_path / "x.jsonl")]) == 2
        assert "--n 1" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()


@pytest.mark.parametrize("t, expected", [("-1e3", -1000.0), ("-2.5e-1", -0.25),
                                         ("-1000", -1000.0), ("1e-3", 1e-3)])
def test_exact_takes_times_in_exponent_form(tmp_path, t, expected):
    # argparse reads '-1e3' as an option unless main joins it to --t
    out = str(tmp_path / "x.jsonl")
    family = "sphere" if expected < 0.0 else "grim-reaper"
    assert cli.main(["exact", "--family", family, "--n", "1", "--t", t,
                     "--resolution", "32", "--out", out]) == 0
    if family == "sphere":
        assert trajio.read_slice(out).t == expected
    else:
        assert json.loads(open(out).read())["t"] == expected


# what each malformed file's message must hold besides "line "
MESSAGES = {"bad_controls": "line 1: ", "list_gauge": "line 1: ", "array_header": "line 1: ",
            **{name: "line 3: " for name in EDITED_RECORDS}, "string_count": "expected '"}


@pytest.mark.parametrize("name", MESSAGES)
def test_malformed_records_are_bad_input(inputs, name, capsys):
    # every subcommand reports the file's bad line, as for the matrix above
    d, paths = inputs
    for argv in _argvs(d, paths[name], name):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "line " in err and MESSAGES[name] in err, (argv, err)


def test_cap_inputs_are_rejected_as_bad_input(inputs, capsys):
    d, paths = inputs
    assert cli.main(["geom", "--body", paths["cap"]]) == 2
    assert cli.main(["rescale", "--traj", paths["cap_traj"], "--window", "10",
                     "--out", str(d / "o"), "--report", str(d / "r")]) == 2
    assert cli.main(["run", "--config", str(d / "run-cap-axisym.json"),
                     "--out", str(d / "o")]) == 2
    assert "geodesic cap" in capsys.readouterr().err


def test_four_point_non_convex_start_is_bad_input(inputs, capsys):
    d, _ = inputs
    assert cli.main(["run", "--config", str(d / "run-four_point-curve.json"),
                     "--out", str(d / "o")]) == 2
    assert "4-point" in capsys.readouterr().err


def test_engine_errors_map_to_numerical_abort(monkeypatch, inputs):
    d, _ = inputs

    def lose_convexity(*args):
        raise engine.ConvexityLostError("forced")

    monkeypatch.setattr(cli, "evolve", lose_convexity)
    assert cli.main(["run", "--config", str(d / "run-curve-curve.json"),
                     "--out", str(d / "o")]) == 3


@pytest.mark.parametrize("error", [InfeasibleError("forced"),
                                   NonPositiveCurvatureError("forced")],
                         ids=["infeasible", "non-positive-curvature"])
def test_input_body_errors_map_to_bad_input(monkeypatch, inputs, error):
    # a read body is validated (finite, h > 0, h'' + h > 0), which rules out
    # both errors on real inputs; the mapping is still fixed here
    d, paths = inputs

    def fail(*args):
        raise error

    monkeypatch.setattr(cli.geometry, "measure", fail)
    assert cli.main(["geom", "--body", paths["curve"]]) == 2


@pytest.mark.parametrize("count", [-1, cli.MAX_DIRECTIONS + 1, 10 ** 12],
                         ids=["negative", "over-cap", "huge"])
def test_geom_directions_out_of_range_are_bad_input(inputs, count, capsys):
    # a negative count read as 0 and exited 0; a huge one raised numpy's
    # MemoryError in linspace, which escaped as a traceback
    _, paths = inputs
    assert cli.main(["geom", "--body", paths["curve"], "--directions", str(count)]) == 2
    assert "--directions must lie in [0, 65536]" in capsys.readouterr().err


def test_geom_directions_sample_one_width_each(inputs, capsys):
    _, paths = inputs
    assert cli.main(["geom", "--body", paths["curve"], "--directions", "16"]) == 0
    record = json.loads(capsys.readouterr().out)
    body = trajio.read_slice(paths["curve"]).body
    assert record["width_samples"] == [
        cli.geometry.width(body, float(a))
        for a in np.linspace(0.0, math.pi, 16, endpoint=False)]


@pytest.fixture(scope="module")
def oval_windows(tmp_path_factory):
    """The exact oval at 5 times in [-3, -1], and at t = -3 and -0.5 only."""
    d = tmp_path_factory.mktemp("windows")
    paths = {}
    for name, times in (("five", np.linspace(-3.0, -1.0, 5)), ("gap", [-3.0, -0.5])):
        paths[name] = str(d / f"{name}.jsonl")
        trajio.write_trajectory(exact.sample_trajectory(exact.ExactFamily("oval"), times, 64),
                                paths[name])
    return d, paths


@pytest.mark.parametrize("name, window", [("five", "0.5"), ("five", "-1"), ("five", "nan"),
                                          ("five", "inf"), ("gap", "2")])
def test_rescale_window_without_snapshots_is_bad_input(oval_windows, name, window, capsys):
    # a window below 1, not finite, or holding no snapshot selects nothing
    d, paths = oval_windows
    assert cli.main(["rescale", "--traj", paths[name], "--window", window,
                     "--out", str(d / "o"), "--report", str(d / "r")]) == 2
    assert "window" in capsys.readouterr().err
    assert cli.main(["rescale", "--traj", paths["five"], "--window", "3",
                     "--out", str(d / "o"), "--report", str(d / "r")]) == 0


# each subcommand's input and output paths, one at a time naming a directory;
# "{initial}" is a run config whose initial.file is the directory, "{sphere}"
# the exact sphere over a window classify takes
DIRECTORY_PATHS = {
    "exact-out": ["exact", "--family", "sphere", "--n", "1", "--t", "-1",
                  "--resolution", "32", "--out", "{dir}"],
    "run-config": ["run", "--config", "{dir}", "--out", "{out}"],
    "run-initial-file": ["run", "--config", "{initial}", "--out", "{out}"],
    "run-out": ["run", "--config", "{run}", "--out", "{dir}"],
    "geom-body": ["geom", "--body", "{dir}"],
    "diagnose-traj": ["diagnose", "--traj", "{dir}", "--out", "{out}"],
    "diagnose-out": ["diagnose", "--traj", "{traj}", "--out", "{dir}"],
    "classify-traj": ["classify", "--traj", "{dir}", "--out", "{out}"],
    "classify-out": ["classify", "--traj", "{sphere}", "--out", "{dir}"],
    "rescale-traj": ["rescale", "--traj", "{dir}", "--window", "3", "--out", "{out}",
                     "--report", "{out}"],
    "rescale-out": ["rescale", "--traj", "{oval}", "--window", "3", "--out", "{dir}",
                    "--report", "{out}"],
    "rescale-report": ["rescale", "--traj", "{oval}", "--window", "3", "--out", "{out}",
                       "--report", "{dir}"],
}


@pytest.mark.parametrize("row", DIRECTORY_PATHS)
def test_directory_paths_are_bad_input(inputs, oval_windows, tmp_path, row, capsys):
    # opening a directory raised IsADirectoryError, which escaped as a traceback
    d, paths = inputs
    initial = tmp_path / "initial.json"
    initial.write_text(json.dumps({"engine": "curve", "n": 1, "t0": -1.0,
                                   "initial": {"file": str(tmp_path)}}))
    sphere = str(tmp_path / "sphere.jsonl")
    trajio.write_trajectory(exact.sample_trajectory(
        exact.ExactFamily("sphere", n=2), np.geomspace(-100.0, -0.1, 12), 32), sphere)
    fields = {"dir": str(tmp_path), "out": str(tmp_path / "o"), "initial": str(initial),
              "run": str(d / "run-curve-curve.json"), "traj": paths["curve_traj"],
              "oval": oval_windows[1]["five"], "sphere": sphere}
    assert cli.main([a.format(**fields) for a in DIRECTORY_PATHS[row]]) == 2
    assert "Is a directory" in capsys.readouterr().err
    # a failed command leaves no output behind: rescale wrote its --out
    # before it found the --report path unwritable, and kept it
    assert not (tmp_path / "o").exists()


EXACT_FAMILIES = {"sphere": ["--n", "2"], "oval": ["--n", "1"], "cap": ["--n", "2", "--R", "3"],
                  "cylinder": ["--n", "3", "--k", "1"], "grim-reaper": ["--n", "1"]}


@pytest.mark.parametrize("resolution", [16385, 10 ** 15], ids=["over-cap", "huge"])
@pytest.mark.parametrize("family", EXACT_FAMILIES)
def test_exact_resolution_above_the_grid_cap_is_bad_input(tmp_path, family, resolution,
                                                          capsys):
    # 16,385 ran (the oval refused it as odd); 10**15 raised numpy's
    # MemoryError, a traceback, where the family samples a grid, and the cap
    # and the cylinder, which sample none, ignored it
    out = tmp_path / "x.json"
    assert cli.main(["exact", "--family", family, *EXACT_FAMILIES[family], "--t", "-1",
                     "--resolution", str(resolution), "--out", str(out)]) == 2
    assert "--resolution must be at most 16384" in capsys.readouterr().err
    assert not out.exists()


def test_exact_resolution_at_the_grid_cap_runs(tmp_path):
    out = str(tmp_path / "x.jsonl")
    assert cli.main(["exact", "--family", "sphere", "--n", "2", "--t", "-1",
                     "--resolution", "16384", "--out", out]) == 0
    assert trajio.read_slice(out).body.N == 16384


BAD_EXPONENTS = [
    ("--p", "0", "p must be"), ("--p", "-1", "p must be"), ("--p", "nan", "p must be"),
    ("--p", "inf", "p must be"), ("--sigma", "-1", "sigma must"),
    ("--sigma", "2.5", "sigma must"), ("--sigma", "nan", "sigma must")]


@pytest.mark.parametrize("option, value, message", BAD_EXPONENTS)
def test_diagnose_exponents_out_of_range_are_bad_input(inputs, option, value, message,
                                                       capsys):
    d, paths = inputs
    argv = ["diagnose", "--traj", paths["curve_traj"], "--out", str(d / "o")]
    assert cli.main(argv + [option, value]) == 2
    assert message in capsys.readouterr().err
    assert cli.main(argv) == 0


@pytest.mark.parametrize("option, value, message", BAD_EXPONENTS)
def test_diagnose_exponents_checked_without_positive_slices(inputs, option, value,
                                                            message, capsys):
    # the equator has H = 0 on every slice, so no slice computes the deficit
    d, paths = inputs
    out = d / "equator.csv"
    argv = ["diagnose", "--traj", paths["equator_traj"], "--out", str(out)]
    assert cli.main(argv + [option, value]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, k", [("curve_traj", "2"), ("curve_traj", "-1"),
                                     ("axisym13_traj", "14"), ("cap_traj", "3")])
def test_diagnose_k_out_of_range_writes_nothing(inputs, name, k, capsys):
    # k-convexity needs 1 <= k <= n, the n of the file's slices
    d, paths = inputs
    out = d / f"k-{name}.csv"
    assert cli.main(["diagnose", "--traj", paths[name], "--k", k, "--out", str(out)]) == 2
    assert "out of range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["equator_traj", "axisym13_traj"])
def test_diagnose_reads_equator_and_n13_runs(inputs, name, capsys):
    # an equator has H = |A| = |grad H| = 0 (0/0 in the gradient ratio and
    # the Harnack drift); the n = 13 sphere overflows |M|^14 in iso_ratio
    d, paths = inputs
    assert cli.main(["diagnose", "--traj", paths[name], "--out", str(d / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_diagnose_k_skips_slices_without_positive_curvature(inputs, tmp_path, capsys):
    # an equator has H = 0, so its k-convexity margin is 0/0; the margin is
    # taken over the slices with min H > H_FLOOR, as for eps_min, and is
    # null when there is none
    d, paths = inputs
    argv = ["diagnose", "--k", "1", "--out", str(tmp_path / "o.csv"), "--traj"]
    assert cli.main(argv + [paths["equator_traj"]]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["kconvex_margin"] is None
    equator, cap = exact.equator_slice(1.0, 2), exact.cap_slice(1.0, 2, -1.0)
    margins = []
    for first, second in ((equator, cap), (cap, equator)):
        traj = engine.Trajectory([TimeSlice(-2.0, first), TimeSlice(-1.0, second)], {})
        path = str(tmp_path / "mixed.jsonl")
        trajio.write_trajectory(traj, path)
        assert cli.main(argv + [path]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        margins.append(json.loads(out)["kconvex_margin"])
        report = diagnostics.pinching_report(traj, k_values=(1,))
        assert report.kconvex_margin[1] == margins[-1]
    assert margins == [0.5, 0.5]


def test_oval_near_extinction_is_the_round_body(tmp_path):
    # acosh(exp(1e-20)) rounds to 0, which made every support value 0
    out = str(tmp_path / "x.jsonl")
    assert cli.main(["exact", "--family", "oval", "--n", "1", "--t", "-1e-20",
                     "--resolution", "32", "--out", out]) == 0
    h = trajio.read_slice(out).body.h
    np.testing.assert_allclose(h, math.sqrt(2e-20), rtol=1e-15)


def test_oval_times_below_the_range_of_exp_are_bad_input(tmp_path, capsys):
    # the oval's closed form takes e^(-t), which overflows below t ~ -709.78
    out = str(tmp_path / "x.jsonl")
    argv = ["exact", "--family", "oval", "--n", "1", "--resolution", "32", "--out", out]
    assert cli.main(argv + ["--t", "-900"]) == 2
    assert "t = -900" in capsys.readouterr().err
    cfg = tmp_path / "oval.json"
    cfg.write_text(json.dumps({"engine": "curve", "n": 1, "N": 32, "t0": -900.0,
                               "initial": {"family": {"kind": "oval"}}}))
    assert cli.main(["run", "--config", str(cfg), "--out", out]) == 2
    assert "t = -900" in capsys.readouterr().err
    assert cli.main(argv + ["--t", "-709"]) == 0


def test_cap_floor_below_resolution_names_the_control(tmp_path, capsys):
    # cos(stop_rho_plus / R) rounds to 1, so the floor time is the extinction time
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps({"engine": "cap", "n": 2, "t0": -5.0,
                               "controls": {"stop_rho_plus": 1e-9},
                               "cap": {"R": 3.0, "rho0": 1.0}}))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "stop_rho_plus" in capsys.readouterr().err


def test_cap_window_beyond_the_slice_bound_is_bad_input(tmp_path, capsys):
    # 1e18 snapshots: numpy raised its own MemoryError ("Unable to allocate")
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps({"engine": "cap", "n": 2, "t0": -1e6,
                               "controls": {"max_dt": 1e-12, "snapshot_stride": 1},
                               "cap": {"R": 3000.0, "rho0": 1000.0}}))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "max_dt" in err and "snapshot_stride" in err


@pytest.mark.parametrize("edit", [{"N": 10 ** 13}, {"initial": {"random": {"modes": 10 ** 11}}}],
                         ids=["N", "modes"])
def test_oversized_grids_are_bad_input(tmp_path, edit, capsys):
    # numpy's MemoryError at the first allocation escaped as a traceback
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"engine": "curve", "n": 1, "t0": -1.0, **edit}))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "greater than the maximum" in capsys.readouterr().err


# a cap run's config with one control or cap value out of range, and the
# control's name; FlowControls and CapState refuse them, the schema checks
# only their types
OUT_OF_RANGE = {
    "cfl": ({"controls": {"cfl": 0.9}}, "cfl must lie in (0, 0.5]"),
    "max_dt": ({"controls": {"max_dt": -1}}, "max_dt must be positive"),
    "stop_rho_plus": ({"controls": {"stop_rho_plus": 0}}, "stop_rho_plus must be positive"),
    "snapshot_stride": ({"controls": {"snapshot_stride": 0}},
                        "snapshot_stride must be a positive integer"),
    "cap.R": ({"cap": {"R": -1, "rho0": 1.0}}, None),
    "cap.rho0": ({"cap": {"R": 3.0, "rho0": 0}}, None),
}


@pytest.mark.parametrize("name", OUT_OF_RANGE)
def test_out_of_range_controls_and_caps_are_bad_input(tmp_path, name, capsys):
    edit, message = OUT_OF_RANGE[name]
    cfg, out = tmp_path / "cap.json", tmp_path / "o.jsonl"
    cfg.write_text(json.dumps({"engine": "cap", "n": 2, "t0": -5.0,
                               "cap": {"R": 3.0, "rho0": 1.0}, **edit}))
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mcfflow: ") and "Traceback" not in err
    assert message is None or message in err
    assert not out.exists()


def test_curve_config_with_a_cap_block_is_bad_input(tmp_path, capsys):
    # a curve run never reads its cap block, so an out-of-range R ran
    cfg, out = tmp_path / "curve.json", tmp_path / "o.jsonl"
    cfg.write_text(json.dumps({**_small_run(n=1, seed=3), "cap": {"R": -1, "rho0": 1.0}}))
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "a curve run takes no 'cap' block" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("names", [("family", "random"), ("file", "family"),
                                   ("file", "random"), ("file", "family", "random")],
                         ids="+".join)
def test_initial_naming_more_than_one_body_is_bad_input(inputs, tmp_path, names, capsys):
    # the first of file, family and random silently won, and the header
    # recorded the seed of an ignored random block
    _, paths = inputs
    blocks = {"file": paths["curve"], "family": {"kind": "sphere"}, "random": {"seed": 3}}
    cfg = tmp_path / "two.json"
    cfg.write_text(json.dumps({"engine": "curve", "n": 1, "N": 32, "t0": -1.0,
                               "controls": {"max_dt": 1e-2, "stop_rho_plus": 0.3},
                               "initial": {name: blocks[name] for name in names}}))
    out = tmp_path / "o.jsonl"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"initial names {' and '.join(names)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["random", "family", "file"])
def test_cap_config_with_an_initial_block_is_bad_input(inputs, tmp_path, name, capsys):
    # a cap run starts from its cap block; it ignored an initial block, yet
    # the header recorded the seed of a random one
    _, paths = inputs
    initial = {"file": paths["curve"], "family": {"kind": "sphere"}, "random": {"seed": 3}}
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps({"engine": "cap", "n": 2, "t0": -5.0,
                               "cap": {"R": 1.0, "rho0": 1.0},
                               "initial": {name: initial[name]}}))
    out = tmp_path / "o.jsonl"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "takes no 'initial' block" in capsys.readouterr().err
    assert not out.exists()


def _small_run(n=2, N=32, seed=None):
    """A short run's config: a curve from a random seed, or an axisym sphere."""
    initial = {"random": {"seed": seed}} if seed is not None else {"family": {"kind": "sphere"}}
    return {"engine": "curve" if seed is not None else "axisym", "n": n, "N": N, "t0": -1.0,
            "controls": {"max_dt": 1e-2, "stop_rho_plus": 0.3, "snapshot_stride": 8},
            "initial": initial}


# the config of each integer key given a number type; JSON Schema counts 32.0
# as an integer, and as floats the three ran into a traceback or an unreadable
# header
INTEGER_KEYS = {
    "N": lambda number: _small_run(N=number(32)),
    "seed": lambda number: _small_run(n=1, seed=number(3)),
    "n": lambda number: _small_run(n=number(2)),
}


@pytest.mark.parametrize("name", INTEGER_KEYS)
def test_integral_floats_at_integer_keys_run_as_integers(tmp_path, name, capsys):
    # the run writes what the integer writes, under the hash of the config as
    # read, so every subcommand reads it as it reads the integer's run
    written = []
    for number in (int, float):
        cfg = INTEGER_KEYS[name](number)
        cfg_path, out = tmp_path / "cfg.json", str(tmp_path / f"{number.__name__}.jsonl")
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == 0
        assert cli.main(["diagnose", "--traj", out, "--out", str(tmp_path / "d.csv")]) == 0
        assert capsys.readouterr().err == ""
        header, *records = open(out).read().splitlines()
        header = json.loads(header)
        assert header["provenance"].pop("config_hash") == trajio.config_hash(cfg)
        written.append((header, records))
    assert written[0] == written[1]
