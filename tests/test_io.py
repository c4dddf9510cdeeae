"""Serialization contracts and the command line surface."""

import dataclasses
import json
import math
import os

from hypothesis import given, settings, strategies as st
import jsonschema
import numpy as np
import pytest

from mcfflow import analysis, bodies, cli, diagnostics, engine, exact, geometry, trajio


@pytest.fixture
def sphere_traj():
    return exact.sample_trajectory(exact.ExactFamily("sphere", 1),
                                   [-3.0, -2.0, -1.0], 64)


def test_roundtrip_bit_identical(tmp_path, sphere_traj):
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    trajio.write_trajectory(sphere_traj, p1)
    back = trajio.read_trajectory(p1)
    trajio.write_trajectory(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for s1, s2 in zip(sphere_traj.slices, back.slices):
        assert s1.t == s2.t
        assert np.array_equal(s1.body.h, s2.body.h)


def test_roundtrip_engine_run_with_shifts(tmp_path):
    init = bodies.random_convex_curve(64, seed=5).scaled(1.5)
    ctrl = engine.FlowControls(cfl=0.4, max_dt=1e-2, stop_rho_plus=0.4,
                               snapshot_stride=16)
    run = engine.evolve(init, -1.0, ctrl)
    p1 = tmp_path / "run.jsonl"
    p2 = tmp_path / "run2.jsonl"
    trajio.write_trajectory(run, p1)
    back = trajio.read_trajectory(p1)
    trajio.write_trajectory(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.meta["controls"] == run.meta["controls"]


def test_header_with_refinement_control_still_reads(tmp_path, sphere_traj):
    # files written while FlowControls had a `refinement` field carry it
    controls = engine.FlowControls(cfl=0.3)
    traj = engine.Trajectory(sphere_traj.slices, {"controls": controls})
    p = tmp_path / "old.jsonl"
    trajio.write_trajectory(traj, p)
    text = p.read_text()
    assert '"snapshot_stride":32}' in text
    p.write_text(text.replace('"snapshot_stride":32}',
                              '"snapshot_stride":32,"refinement":256}', 1))
    back = trajio.read_trajectory(p)
    assert back.meta["controls"] == controls
    assert all(np.array_equal(a.body.h, b.body.h) for a, b in zip(traj.slices, back.slices))


def test_controls_fields_payload_and_schema_agree(tmp_path):
    # a control must be settable, written and read in all three places
    names = {f.name for f in dataclasses.fields(engine.FlowControls)}
    assert set(trajio.CONFIG_SCHEMA["properties"]["controls"]["properties"]) == names
    # a run's controls, each away from its default, through config and header
    controls = {"cfl": 0.3, "max_dt": 0.05, "stop_rho_plus": 0.2, "snapshot_stride": 4}
    assert all(getattr(engine.FlowControls(), k) != v for k, v in controls.items())
    cfg, out = tmp_path / "cfg.json", tmp_path / "run.jsonl"
    cfg.write_text(json.dumps({"engine": "cap", "n": 2, "t0": -2.0, "controls": controls,
                               "cap": {"R": 3.0, "rho0": exact.cap_radius(3.0, 2, -2.0)}}))
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
    assert json.loads(out.read_text().splitlines()[0])["controls"] == controls
    assert trajio.read_trajectory(out).meta["controls"] == engine.FlowControls(**controls)


def _small_oval():
    return exact.sample_trajectory(exact.ExactFamily("oval", 1),
                                   -np.geomspace(10.0, 0.5, 12), 64)


def _rescaled_oval():
    return analysis.type_two_rescale(_small_oval(), 5.0)


@pytest.mark.parametrize("producer", ["evolve", "evolve_cap", "sample_trajectory",
                                      "type_two_rescale"])
def test_meta_holds_what_the_header_carries(tmp_path, producer, cap_run):
    # read(write(x)).meta agrees with x.meta on every key, and x.meta holds
    # nothing the header does not carry but the run counter accepted_steps
    traj = {
        "evolve": lambda: engine.evolve(bodies.random_convex_curve(64, seed=5).scaled(1.5),
                                        -1.0, engine.FlowControls(cfl=0.4, stop_rho_plus=0.4,
                                                                  snapshot_stride=16)),
        "evolve_cap": lambda: cap_run,
        "sample_trajectory": lambda: exact.sample_trajectory(exact.ExactFamily("sphere", 2),
                                                             [-3.0, -2.0, -1.0], 32),
        "type_two_rescale": _rescaled_oval,
    }[producer]()
    p = tmp_path / "t.jsonl"
    trajio.write_trajectory(traj, p)
    back = trajio.read_trajectory(p)
    assert set(traj.meta) - {"accepted_steps"} <= set(back.meta)
    for key, value in back.meta.items():
        # a key the producer leaves out is written from the slices or as null
        assert value == traj.meta.get(key, traj.engine if key == "engine" else None), key


def test_header_without_engine_is_labelled_by_its_slices(tmp_path):
    p = tmp_path / "sphere.jsonl"
    trajio.write_trajectory(exact.sample_trajectory(exact.ExactFamily("sphere", 2),
                                                    [-2.0, -1.0], 32), p)
    header, *records = p.read_text().splitlines()
    bare = {k: v for k, v in json.loads(header).items() if k != "engine"}
    p.write_text("\n".join([json.dumps(bare), *records]) + "\n")
    back = trajio.read_trajectory(p)
    assert back.meta["engine"] is None
    out = tmp_path / "again.jsonl"
    trajio.write_trajectory(back, out)
    assert json.loads(out.read_text().splitlines()[0])["engine"] == "axisym"


def test_rescaled_flow_is_written_as_the_cli_writes_it(tmp_path):
    rf = _rescaled_oval()
    assert isinstance(rf, engine.Trajectory)
    assert rf.meta == {"engine": "rescaled:curve"}
    oval = tmp_path / "oval.jsonl"
    trajio.write_trajectory(_small_oval(), oval)
    direct, cli_out = tmp_path / "direct.jsonl", tmp_path / "cli.jsonl"
    trajio.write_trajectory(rf, direct)
    assert run_cli("rescale", "--traj", str(oval), "--window", "5", "--out", str(cli_out),
                   "--report", str(tmp_path / "r.json")) == 0
    assert direct.read_bytes() == cli_out.read_bytes()


def test_roundtrip_cap(tmp_path, cap_run):
    p1 = tmp_path / "cap.jsonl"
    p2 = tmp_path / "cap2.jsonl"
    trajio.write_trajectory(cap_run, p1)
    trajio.write_trajectory(trajio.read_trajectory(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_contract(tmp_path, sphere_traj):
    p = tmp_path / "t.jsonl"
    trajio.write_trajectory(sphere_traj, p)
    header = json.loads(p.read_text().splitlines()[0])
    assert header["schema"] == "mcfflow/1"
    assert header["engine"] == "exact:sphere"
    assert header["n"] == 1 and header["N"] == 64


def test_schema_mismatch_rejected(tmp_path, sphere_traj):
    p = tmp_path / "t.jsonl"
    trajio.write_trajectory(sphere_traj, p)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(p.read_text().replace("mcfflow/1", "mcfflow/2", 1))
    with pytest.raises(trajio.SchemaMismatchError):
        trajio.read_trajectory(bad)


def test_truncated_line_reports_line_number(tmp_path, sphere_traj):
    p = tmp_path / "t.jsonl"
    trajio.write_trajectory(sphere_traj, p)
    lines = p.read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines[:-1] + [lines[-1][:25]]) + "\n")
    with pytest.raises(trajio.CorruptRecordError) as err:
        trajio.read_trajectory(bad)
    assert err.value.line_no == len(lines)


def test_nan_payload_rejected(tmp_path, sphere_traj):
    p = tmp_path / "t.jsonl"
    trajio.write_trajectory(sphere_traj, p)
    lines = p.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["data"][3] = "NaN"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(rec).replace('"NaN"', "NaN")]
                             + lines[2:]) + "\n")
    with pytest.raises(trajio.CorruptRecordError):
        trajio.read_trajectory(bad)


def test_write_rejects_nonfinite():
    sl = engine.TimeSlice(-1.0, exact.sphere_slice(1, -1.0, 64))
    sl.body.h[0] = math.inf
    with pytest.raises(ValueError):
        trajio.write_trajectory(engine.Trajectory([sl]), "/dev/null")


def test_slices_on_different_grids_are_refused(tmp_path, capsys):
    # a hand-written file: two N = 32 slices, then one N = 64 slice
    slices = [engine.TimeSlice(t, exact.sphere_slice(1, t, N))
              for t, N in ((-3.0, 32), (-2.0, 32), (-1.0, 64))]
    header = {"schema": trajio.SCHEMA_VERSION, "kind": "trajectory", "engine": "curve",
              "n": 1, "N": 32, "count": 3}
    records = [{"t": sl.t, "repr": trajio.REPR_CURVE, "n": 1, "N": sl.body.N,
                "data": list(sl.body.h)} for sl in slices]
    path = tmp_path / "mixed.jsonl"
    # with the header's N, and without it (the first slice's N holds)
    for head in (header, {k: v for k, v in header.items() if k != "N"}):
        path.write_text("\n".join(json.dumps(r) for r in [head, *records]) + "\n")
        with pytest.raises(trajio.CorruptRecordError, match="N = 64") as err:
            trajio.read_trajectory(path)
        assert err.value.line_no == 4
    assert cli.main(["diagnose", "--traj", str(path), "--out", str(tmp_path / "d.csv")]) == 2
    assert "line 4" in capsys.readouterr().err
    with pytest.raises(ValueError, match="slice 2 has N = 64"):
        engine.Trajectory(slices)


def test_trajectory_reads_kind_n_and_N_off_its_slices():
    ts = (-3.0, -2.0, -1.0)
    for family, (kind, n, N) in ((exact.ExactFamily("sphere", 1), ("curve", 1, 32)),
                                 (exact.ExactFamily("sphere", 3), ("axisym", 3, 32)),
                                 (exact.ExactFamily("cap", 2, R=3.0), ("cap", 2, None))):
        traj = exact.sample_trajectory(family, ts, 32)
        assert (traj.engine, traj.n, traj.N) == (kind, n, N)
    curve = [engine.TimeSlice(t, exact.sphere_slice(1, t, 32)) for t in ts[:2]]
    axisym = [engine.TimeSlice(t, exact.sphere_slice(2, t, 32)) for t in ts[:2]]
    for slices, message in (
            (curve + [engine.TimeSlice(-1.0, exact.cap_slice(3.0, 2, -1.0))],
             "slice 2 has kind = cap, not the trajectory's kind = curve"),
            (axisym + [engine.TimeSlice(-1.0, exact.sphere_slice(3, -1.0, 32))],
             "slice 2 has n = 3, not the trajectory's n = 2"),
            ([], "at least one slice")):
        with pytest.raises(ValueError, match=message):
            engine.Trajectory(slices)


def _record(tmp_path, body):
    """The snapshot record written for body at t = -2."""
    path = tmp_path / "one.jsonl"
    trajio.write_slice(engine.TimeSlice(-2.0, body), path)
    return path.read_text().splitlines()[1]


@pytest.mark.parametrize("case", ["header_n", "mixed_n", "mixed_kind"])
def test_slices_of_another_kind_or_n_are_refused(tmp_path, case, capsys):
    # a header n = 3 over n = 2 slices; an n = 5 slice, then a curve slice,
    # among n = 2 slices
    path = tmp_path / "sphere.jsonl"
    family = exact.ExactFamily("sphere", 2)
    trajio.write_trajectory(exact.sample_trajectory(family, [-3.0, -2.0, -1.0], 32), path)
    header, *records = path.read_text().splitlines()
    line, message, lines = {
        "header_n": (2, "n = 2 differs from the trajectory's n = 3",
                     [json.dumps({**json.loads(header), "n": 3}), *records]),
        "mixed_n": (3, "n = 5 differs from the trajectory's n = 2",
                    [header, records[0], _record(tmp_path, exact.sphere_slice(5, -2.0, 32)),
                     records[2]]),
        "mixed_kind": (3, "kind = 'curve' differs from the trajectory's kind = 'axisym'",
                       [header, records[0], _record(tmp_path, exact.sphere_slice(1, -2.0, 32)),
                        records[2]]),
    }[case]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(trajio.CorruptRecordError, match=message) as err:
        trajio.read_trajectory(path)
    assert err.value.line_no == line
    out = tmp_path / "d.csv"
    assert cli.main(["diagnose", "--traj", str(path), "--out", str(out)]) == 2
    assert f"line {line}: " in capsys.readouterr().err
    assert not out.exists()


def test_config_validation_and_hash(tmp_path):
    cfg = {"engine": "curve", "n": 1, "N": 64, "t0": -1.0,
           "initial": {"random": {"seed": 3}}}
    trajio.validate_config(cfg)
    h1 = trajio.config_hash(cfg)
    h2 = trajio.config_hash(json.loads(json.dumps(cfg)))
    assert h1 == h2 and len(h1) == 64
    with pytest.raises(ValueError):
        trajio.validate_config({**cfg, "bogus": 1})
    with pytest.raises(ValueError):
        trajio.validate_config({**cfg, "t0": 1.0})


def test_config_schema_and_messages():
    # the cached validator skips the metaschema check, so it is made here,
    # and it must report the error jsonschema.validate would
    jsonschema.Draft202012Validator.check_schema(trajio.CONFIG_SCHEMA)
    cfg = {"engine": "curve", "n": 1, "t0": -1.0}
    for bad in ({**cfg, "bogus": 1}, {"n": 1}, [], {**cfg, "n": "1", "t0": 1.0},
                {**cfg, "initial": {"random": {"amplitude": 2, "seed": -1}}}):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(bad, trajio.CONFIG_SCHEMA)
        with pytest.raises(ValueError) as got:
            trajio.validate_config(bad)
        assert str(got.value) == f"invalid config: {expected.value.message}"


BOUND_KEYWORDS = ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")
# JSON values of every type, some of them config blocks at the wrong place
OFF_TYPE = [True, False, None, "1", "", [], [1.0], {}, {"kind": "sphere"},
            {"seed": 3}, 0, 1.5]


def _schema_keys(schema):
    for key, sub in schema.get("properties", {}).items():
        yield key
        yield from _schema_keys(sub)


UNKNOWN_KEYS = ["bogus", "Engine", *sorted(set(_schema_keys(trajio.CONFIG_SCHEMA)))]


def _next_to_bounds(schema):
    """A leaf's values at and next to each bound, of the right and wrong JSON
    types, split by jsonschema into (valid, invalid)."""
    if "enum" in schema:
        values = [*schema["enum"], "bogus"]
    elif schema["type"] == "string":
        values = ["run.jsonl", ""]
    else:
        values = []
        for bound in [schema[k] for k in BOUND_KEYWORDS if k in schema] or [0]:
            for v in (bound - 1, math.nextafter(bound, -math.inf), bound,
                      math.nextafter(bound, math.inf), bound + 0.5, bound + 1):
                values += [v, float(v)]  # an integral float is an integer
    values += OFF_TYPE
    is_valid = jsonschema.Draft202012Validator(schema).is_valid
    return [v for v in values if is_valid(v)], [v for v in values if not is_valid(v)]


def _near(schema):
    """Instances of schema, mostly valid, with every kind of error drawable:
    values next to each bound, bools, integral floats, strings, unknown or
    misplaced keys, missing required keys and values of the wrong type."""
    if "properties" not in schema:
        valid, invalid = _next_to_bounds(schema)
        return st.integers(0, 9).flatmap(
            lambda i: st.sampled_from(invalid if i == 0 else valid))
    properties = {key: _near(sub) for key, sub in schema["properties"].items()}
    required = schema.get("required", ())

    @st.composite
    def objects(draw):
        if draw(st.integers(0, 23)) == 0:
            return draw(st.sampled_from(OFF_TYPE))
        cfg = {}
        for key, values in properties.items():
            # a required key is left out once in 16 draws, another in 2
            if draw(st.integers(0, 15) if key in required else st.booleans()):
                cfg[key] = draw(values)
        if draw(st.integers(0, 15)) == 0:
            for key in draw(st.lists(st.sampled_from(UNKNOWN_KEYS), min_size=1, max_size=3)):
                cfg[key] = draw(st.sampled_from([1, {}, "x"]))
        return cfg

    return objects()


def _leaves(schema, given, got):
    """(schema type, given value, validated value) at each key of a valid config."""
    if "properties" not in schema:
        yield schema.get("type"), given, got
        return
    assert given.keys() == got.keys()
    for key in given:
        yield from _leaves(schema["properties"][key], given[key], got[key])


# the error jsonschema.validate(cfg, CONFIG_SCHEMA) raises is this validator's
# best_match; the schema itself is checked once, in test_config_schema_and_messages
ORACLE = jsonschema.Draft202012Validator(trajio.CONFIG_SCHEMA)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_near(trajio.CONFIG_SCHEMA))
def test_config_walker_agrees_with_jsonschema(cfg):
    # accept or refuse as jsonschema does, with its message; an accepted
    # config comes back with integral floats at integer keys as int
    expected = jsonschema.exceptions.best_match(ORACLE.iter_errors(cfg))
    if expected is not None:
        with pytest.raises(ValueError) as got:
            trajio.validate_config(cfg)
        assert str(got.value) == f"invalid config: {expected.message}"
        return
    valid = trajio.validate_config(cfg)
    for kind, given_value, value in _leaves(trajio.CONFIG_SCHEMA, cfg, valid):
        assert value == given_value
        assert type(value) is (int if kind == "integer" else type(given_value))


def test_config_walker_reads_only_its_keywords():
    # so CONFIG_SCHEMA cannot grow a keyword the walker would ignore
    for schema in ({"type": "integer", "multipleOf": 2},
                   {"type": "object", "additionalProperties": {"type": "string"}}):
        with pytest.raises(NotImplementedError):
            trajio._walk(schema, 4, (), [])


def test_integral_floats_keep_the_config_hash(tmp_path):
    # 4.0 is an integer: it is handed back as 4, and hashed as read
    cfg = {"engine": "cap", "n": 2.0, "t0": -2.0, "controls": {"snapshot_stride": 4.0},
           "cap": {"R": 3.0, "rho0": 1.0}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    valid, digest = trajio.load_config(path)
    assert (valid["n"], valid["controls"]["snapshot_stride"]) == (2, 4)
    assert type(valid["n"]) is type(valid["controls"]["snapshot_stride"]) is int
    assert digest == trajio.config_hash(cfg) != trajio.config_hash(valid)


def test_emit_csv_report(tmp_path):
    out = tmp_path / "r.csv"
    trajio.emit_report({"columns": ["a", "b"], "rows": [[1.0, None], [2.5, 3.5]]},
                       out, format="csv")
    lines = out.read_text().splitlines()
    assert lines[0] == "a,b"
    assert len(lines) == 3
    assert lines[1].startswith("1,")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_exact_and_geom(tmp_path, capsys):
    out = tmp_path / "s.jsonl"
    assert run_cli("exact", "--family", "sphere", "--n", "2", "--t", "-1",
                   "--resolution", "64", "--out", str(out)) == 0
    assert run_cli("geom", "--body", str(out)) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["rho_plus"] == pytest.approx(2.0, abs=1e-9)
    assert rec["iso_ratio"] == pytest.approx(36.0 * math.pi, rel=1e-3)


def test_cli_exact_cylinder_reference(tmp_path):
    out = tmp_path / "c.json"
    assert run_cli("exact", "--family", "cylinder", "--n", "3", "--k", "1",
                   "--t", "-2", "--out", str(out)) == 0
    rec = json.loads(out.read_text())
    assert rec["ratio_A2_H2"] == pytest.approx(0.5, rel=1e-12)
    assert rec["radius"] == pytest.approx(math.sqrt(8.0), rel=1e-12)


def test_cli_run_deterministic(tmp_path, capsys):
    cfg = {"engine": "curve", "n": 1, "N": 64, "t0": -0.5,
           "controls": {"cfl": 0.4, "max_dt": 0.01, "stop_rho_plus": 0.3,
                        "snapshot_stride": 16},
           "initial": {"random": {"seed": 7}}}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    o1, o2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
    assert run_cli("run", "--config", str(cfg_path), "--out", str(o1)) == 0
    assert run_cli("run", "--config", str(cfg_path), "--out", str(o2)) == 0
    assert o1.read_bytes() == o2.read_bytes()
    header = json.loads(o1.read_text().splitlines()[0])
    assert header["provenance"]["config_hash"] == trajio.config_hash(cfg)


# initial block ("file": an exact sphere slice; None: no block), --seed
# given, the header's provenance.seed
RUN_SEEDS = {
    "random-seed": ({"random": {"seed": 7}}, ["--seed", "5"], 7),
    "random-no-seed": ({"random": {"amplitude": 0.3}}, ["--seed", "5"], 5),
    "no-initial": (None, ["--seed", "5"], 5),
    "no-initial-default": (None, [], 0),
    "family": ({"family": {"kind": "sphere"}}, ["--seed", "5"], None),
    "file": ("file", ["--seed", "5"], None),
    "cap": ("cap", ["--seed", "5"], None),
}


@pytest.mark.parametrize("name", RUN_SEEDS)
def test_run_records_a_seed_only_for_a_random_body(tmp_path, name):
    # a cap, family or file run recorded --seed (0 by default) as if its body
    # had been drawn from it
    initial, seed_argv, seed = RUN_SEEDS[name]
    cfg = {"engine": "curve", "n": 1, "N": 32, "t0": -1.0,
           "controls": {"max_dt": 0.01, "stop_rho_plus": 0.3, "snapshot_stride": 16}}
    if initial == "cap":
        cfg = {"engine": "cap", "n": 2, "t0": -1.0, "cap": {"R": 3.0, "rho0": 1.0}}
    elif initial == "file":
        body = str(tmp_path / "body.jsonl")
        assert run_cli("exact", "--family", "sphere", "--n", "1", "--t", "-1",
                       "--resolution", "32", "--out", body) == 0
        cfg["initial"] = {"file": body}
    elif initial is not None:
        cfg["initial"] = initial
    cfg_path, out = tmp_path / "run.json", tmp_path / "t.jsonl"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(*seed_argv, "run", "--config", str(cfg_path), "--out", str(out)) == 0
    assert json.loads(out.read_text().splitlines()[0])["provenance"]["seed"] == seed
    assert trajio.read_trajectory(str(out)).meta["seed"] == seed


def test_cli_diagnose_row_count(tmp_path, capsys):
    traj = exact.sample_trajectory(exact.ExactFamily("sphere", 2),
                                   -np.geomspace(4.0, 0.5, 12), 64)
    tp = tmp_path / "t.jsonl"
    trajio.write_trajectory(traj, tp)
    out = tmp_path / "d.csv"
    assert run_cli("diagnose", "--traj", str(tp), "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + len(traj.slices)  # header + one row per slice


_DIAGNOSE_RUNS = {
    "curve": {"engine": "curve", "n": 1, "N": 32, "t0": -1.0,
              "controls": {"cfl": 0.4, "max_dt": 1e-2, "stop_rho_plus": 0.3,
                           "snapshot_stride": 8},
              "initial": {"random": {"seed": 3, "amplitude": 0.3}}},
    "axisym": {"engine": "axisym", "n": 2, "N": 32, "t0": -1.0,
               "controls": {"cfl": 0.3, "max_dt": 1e-2, "stop_rho_plus": 0.4,
                            "snapshot_stride": 16},
               "initial": {"random": {"seed": 4, "amplitude": 0.2, "radius": 1.4}}},
    "axisym13": {"engine": "axisym", "n": 13, "N": 32, "t0": -100.0,
                 "controls": {"max_dt": 1.0, "stop_rho_plus": 30.0},
                 "initial": {"family": {"kind": "sphere"}}},
    "cap": {"engine": "cap", "n": 2, "t0": -2.0,
            "controls": {"max_dt": 0.05, "snapshot_stride": 4, "stop_rho_plus": 0.5},
            "cap": {"R": 2.0, "rho0": 1.2}},
    "equator": {"engine": "cap", "n": 2, "t0": -5.0,
                "controls": {"max_dt": 0.1, "snapshot_stride": 4},
                "cap": {"R": 1.0, "rho0": math.pi / 2.0}},
}


@pytest.fixture(scope="module")
def diagnose_inputs(tmp_path_factory):
    """Trajectory files written by `mcfflow run`, plus a rescaled oval with
    tau >= 0 on every slice (its anchor is the earliest one)."""
    d = tmp_path_factory.mktemp("diagnose")
    paths = {}
    for name, cfg in _DIAGNOSE_RUNS.items():
        (d / f"{name}.json").write_text(json.dumps(cfg))
        paths[name] = str(d / f"{name}.jsonl")
        assert run_cli("run", "--config", str(d / f"{name}.json"), "--out", paths[name]) == 0
    oval = str(d / "oval.jsonl")
    trajio.write_trajectory(exact.sample_trajectory(
        exact.ExactFamily("oval"), np.linspace(-3.0, -1.0, 5), 64), oval)
    paths["rescaled"] = str(d / "rescaled.jsonl")
    assert run_cli("rescale", "--traj", oval, "--window", "3", "--out", paths["rescaled"],
                   "--report", str(d / "r.json")) == 0
    return d, paths


def _expected_diagnose_row(traj, i, sigma, p):
    """One diagnose.csv row from the public per-slice functions; None is blank."""
    sl = traj.slices[i]
    field = diagnostics.curvature_field(sl)
    positive = float(np.min(field.H)) > diagnostics.H_FLOOR
    if isinstance(sl.body, bodies.CapState):
        measured = [None] * 4
    else:
        m = geometry.measure(sl.body)
        measured = [m.diam, m.rho_minus, m.rho_plus, m.iso_ratio]
    # |grad A| = 0 wherever |A| = 0 (an equator): the ratio reads 0 there
    grad = float(np.max(field.grad_A2 / field.A2 ** 2)) if np.min(field.A2) > 0.0 else 0.0
    return [sl.t,
            field.eps_min() if positive else None,
            max(0.0, field.ahh_max() - 1.0 / field.n) if positive else None,
            (diagnostics.umbilic_deficit(sl, sigma).lp_integral(p) ** (1.0 / p)
             if positive else None),
            diagnostics.harnack_quantity(traj, sl.t)[1] if 0 < i < len(traj) - 1 else None,
            math.sqrt(-sl.t) * float(np.max(field.H)) if sl.t < 0.0 else None,
            *measured, grad]


@pytest.mark.parametrize("name", ["curve", "axisym", "axisym13", "cap", "equator",
                                  "rescaled"])
def test_cli_diagnose_cells_match_the_public_functions(diagnose_inputs, name, capsys):
    d, paths = diagnose_inputs
    sigma, p = 0.1, 3.0
    out = d / f"{name}.csv"
    assert run_cli("diagnose", "--traj", paths[name], "--sigma", str(sigma), "--p", str(p),
                   "--out", str(out)) == 0
    header, *lines = out.read_text().splitlines()
    assert header.split(",") == ["t", "eps_min", "f0_max", "fsigma_lp", "harnack_min",
                                 "typeI", "diam", "rho_minus", "rho_plus", "iso_ratio",
                                 "grad_ratio"]
    cells = [[None if c == "" else float(c) for c in line.split(",")] for line in lines]
    traj = trajio.read_trajectory(paths[name])
    assert cells == [_expected_diagnose_row(traj, i, sigma, p) for i in range(len(traj))]
    # each blanking rule is exercised by at least one input
    blank = {"cap": 6, "equator": 1, "rescaled": 5}
    if name in blank:
        assert all(row[blank[name]] is None for row in cells)
    assert cells[0][4] is None and cells[-1][4] is None and len(cells) >= 3


def test_cli_classify_and_rescale(tmp_path, capsys, oval_exact_traj):
    tp = tmp_path / "oval.jsonl"
    trajio.write_trajectory(oval_exact_traj, tp)
    rep = tmp_path / "r.json"
    assert run_cli("classify", "--traj", str(tp), "--out", str(rep)) == 0
    payload = json.loads(rep.read_text())
    assert payload["conditions"]["vii"]["verdict"] == "GrowingTrend"
    assert run_cli("rescale", "--traj", str(tp), "--window", "50",
                   "--out", str(tmp_path / "resc.jsonl"),
                   "--report", str(tmp_path / "rr.json")) == 0
    rr = json.loads((tmp_path / "rr.json").read_text())
    assert abs(rr["L_k"] - 1.0) <= 0.05
    assert rr["soliton_residual"] <= 0.02


def test_cli_exit_codes(tmp_path):
    assert run_cli("run", "--config", "/nonexistent.json",
                   "--out", str(tmp_path / "x.jsonl")) == 2
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"engine": "curve", "n": 1, "t0": -1.0,
                                   "bogus": True}))
    assert run_cli("run", "--config", str(bad_cfg),
                   "--out", str(tmp_path / "x.jsonl")) == 2
    assert run_cli("nonsense") == 2


def test_cli_classify_report_determinism(tmp_path, sphere_exact_traj):
    tp = tmp_path / "s.jsonl"
    trajio.write_trajectory(sphere_exact_traj, tp)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli("classify", "--traj", str(tp), "--out", str(r1)) == 0
    assert run_cli("classify", "--traj", str(tp), "--out", str(r2)) == 0
    assert r1.read_bytes() == r2.read_bytes()
    payload = json.loads(r1.read_text())
    for key in ("ii", "iii", "iv", "v", "vi", "vii"):
        assert payload["conditions"][key]["verdict"] == "BoundedInWindow"


def test_cli_numerical_abort_exit_code(monkeypatch, tmp_path):
    def boom(args):
        raise engine.StepFailedError("forced abort")
    monkeypatch.setitem(cli._DISPATCH, "geom", boom)
    tp = tmp_path / "s.jsonl"
    trajio.write_trajectory(exact.sample_trajectory(
        exact.ExactFamily("sphere", 1), [-1.0], 64), tp)
    assert run_cli("geom", "--body", str(tp)) == 3
