"""Persistence and report emission.

Trajectory files are line-delimited JSON: a header record first (schema
version "mcfflow/1"), then one snapshot per line.  Floats are serialized
in their shortest round-trip form (repr), which reproduces every double
bit-exactly, so read(write(x)) == x on all numeric fields.  Geometry
payloads reject NaN/Inf on both write and read.  Outputs carry no
timestamps; provenance is a config hash plus the seed, so reruns are
byte-identical.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math

import jsonschema
import numpy as np

from .bodies import CapState, MODE_AXISYM, MODE_CURVE, SupportProfile
from .engine import FlowControls, TimeSlice, Trajectory, _kind

SCHEMA_VERSION = "mcfflow/1"

REPR_CURVE = "support_curve"
REPR_AXISYM = "axisym_profile"
REPR_CAP = "cap"


class SchemaMismatchError(ValueError):
    """File schema version differs from mcfflow/1."""


class CorruptRecordError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _finite(x):
    if not math.isfinite(x):
        raise ValueError("non-finite value in numeric payload")
    return x


def _clean(obj):
    """Normalize a payload tree: numpy -> python, rejecting NaN/Inf."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return _finite(float(obj))
    if isinstance(obj, (np.integer, int)) or obj is None or isinstance(obj, (str, bool)):
        return int(obj) if isinstance(obj, np.integer) else obj
    raise TypeError(f"unserializable value of type {type(obj)!r}")


def _dumps(payload):
    return json.dumps(_clean(payload), allow_nan=False, separators=(",", ":"))


def _controls_payload(controls):
    if controls is None:
        return None
    return {"cfl": controls.cfl, "max_dt": controls.max_dt,
            "stop_rho_plus": controls.stop_rho_plus,
            "snapshot_stride": controls.snapshot_stride}


def _slice_payload(sl, gauge):
    body = sl.body
    if isinstance(body, CapState):
        rec = {"t": sl.t, "repr": REPR_CAP, "n": body.n, "N": 1,
               "data": [body.rho], "R": body.R}
    elif body.mode == MODE_CURVE:
        rec = {"t": sl.t, "repr": REPR_CURVE, "n": 1, "N": body.N,
               "data": list(body.h)}
    else:
        rec = {"t": sl.t, "repr": REPR_AXISYM, "n": body.n, "N": body.N,
               "data": list(body.h)}
    if sl.shift is not None:
        shift = sl.shift
        rec["shift"] = list(np.atleast_1d(np.asarray(shift, dtype=float)))
    rec["gauge"] = gauge
    return rec


def write_trajectory(traj, path):
    """Write a trajectory as header + one snapshot record per line."""
    meta = traj.meta or {}
    gauge = {
        "t_ext_estimate": meta.get("s_ext"),
        "recentered": any(s.shift is not None for s in traj.slices),
    }
    header = {
        "schema": SCHEMA_VERSION,
        "kind": "trajectory",
        "engine": meta.get("engine", traj.engine),
        "n": traj.n,
        "N": traj.N,
        "count": len(traj.slices),
        "controls": _controls_payload(meta.get("controls")),
        "gauge": gauge,
        "provenance": {
            "seed": meta.get("seed"),
            "config_hash": meta.get("config_hash"),
            "user_t0": meta.get("user_t0"),
        },
        "ambient_R": meta.get("R"),
    }
    with open(path, "w") as f:
        f.write(_dumps(header) + "\n")
        for sl in traj.slices:
            f.write(_dumps(_slice_payload(sl, gauge)) + "\n")


def _parse_line(line, line_no):
    try:
        rec = json.loads(line, parse_constant=_reject_constant)
    except ValueError as err:
        raise CorruptRecordError(line_no, f"invalid JSON ({err})") from None
    if not isinstance(rec, dict):
        raise CorruptRecordError(line_no, "record is not a JSON object")
    return rec


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name!r} in payload")


def _finite_array(values):
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite geometry payload")
    return arr


_REPR_KIND = {REPR_CURVE: MODE_CURVE, REPR_AXISYM: MODE_AXISYM, REPR_CAP: "cap"}


def _record_slice(rec):
    """(TimeSlice, the record's own (kind, n, N)) of one snapshot record; a
    malformed record raises TypeError, ValueError or KeyError."""
    t, n, N, data = rec["t"], rec["n"], rec["N"], _finite_array(rec["data"])
    kind = _REPR_KIND.get(rec["repr"])
    if kind is None:
        raise ValueError(f"unknown repr {rec['repr']!r}")
    if kind == "cap":
        if len(data) != 1:
            raise ValueError("cap record needs one value")
        body = CapState(float(rec["R"]), int(n), float(data[0]))
    else:
        body = SupportProfile(kind, int(n), data)
    shift = rec.get("shift")
    if shift is not None:
        size = 2 if kind == MODE_CURVE else 1
        shift = _finite_array(shift)
        if shift.shape != (size,):
            raise ValueError(f"{kind} shift needs {size} value(s), not {shift.tolist()!r}")
        shift = shift if size == 2 else float(shift[0])
    return TimeSlice(float(t), body, shift), (kind, n, None if kind == "cap" else N)


def _header_block(header, key):
    """A header's sub-object, {} when it is absent or null."""
    block = header.get(key)
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise CorruptRecordError(1, f"header {key} is not an object")
    return block


def read_trajectory(path):
    """Read a trajectory file; bit-exact inverse of write_trajectory."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise SchemaMismatchError("empty file")
    header = _parse_line(lines[0], 1)
    if header.get("schema") != SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"schema {header.get('schema')!r} is not {SCHEMA_VERSION!r}")
    # every record's kind, n and N: the header's n and N where present, else the first record's
    expect = {key: header[key] for key in ("n", "N") if header.get(key) is not None}
    slices = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            raise CorruptRecordError(i, "blank record")
        rec = _parse_line(line, i)
        try:
            sl, stated = _record_slice(rec)
        except KeyError as err:
            raise CorruptRecordError(i, f"missing field {err}") from None
        except (TypeError, ValueError) as err:
            raise CorruptRecordError(i, str(err)) from None
        for key, got, own in zip(("kind", "n", "N"), _kind(sl.body), stated):
            if got != own:
                raise CorruptRecordError(i, f"record {key} = {own!r} does not fit its "
                                         f"data ({key} = {got!r})")
            want = expect.setdefault(key, got)
            if got != want:
                raise CorruptRecordError(i, f"slice {key} = {got!r} differs from the "
                                         f"trajectory's {key} = {want!r}")
        slices.append(sl)
    count = header.get("count")
    if count is not None and count != len(slices):
        raise CorruptRecordError(len(lines), f"expected {count!r} records, "
                                 f"found {len(slices)}")
    if not slices:
        raise CorruptRecordError(len(lines), f"no snapshot records (file kind "
                                 f"{header.get('kind')!r})")
    gauge, provenance, controls = (_header_block(header, key)
                                   for key in ("gauge", "provenance", "controls"))
    meta = {
        "engine": header.get("engine", "curve"),
        "s_ext": gauge.get("t_ext_estimate"),
        "seed": provenance.get("seed"),
        "config_hash": provenance.get("config_hash"),
        "user_t0": provenance.get("user_t0"),
        "R": header.get("ambient_R"),
    }
    if controls:
        controls.pop("refinement", None)  # written by versions that had the option
        try:
            meta["controls"] = FlowControls(**controls)
        except (TypeError, ValueError) as err:
            raise CorruptRecordError(1, f"bad header controls ({err})") from None
    return Trajectory(slices, meta)


def write_slice(sl, path):
    """Write a single snapshot as a one-record trajectory file."""
    write_trajectory(Trajectory([sl]), path)


def read_slice(path):
    traj = read_trajectory(path)
    if len(traj.slices) != 1:
        raise ValueError(f"{path} holds {len(traj.slices)} snapshots, expected 1")
    return traj.slices[0]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def emit_report(report, path, format="json"):
    """Write a report object (anything with .payload() or a dict) stably.

    JSON keeps insertion order; CSV expects a payload of the form
    {"columns": [...], "rows": [[...], ...]} and writes one line per row.
    """
    payload = report.payload() if hasattr(report, "payload") else report
    if format == "json":
        with open(path, "w") as f:
            f.write(_dumps(payload) + "\n")
        return
    if format == "csv":
        if not (isinstance(payload, dict) and "columns" in payload and "rows" in payload):
            raise ValueError("CSV reports need 'columns' and 'rows'")
        buf = io.StringIO()
        buf.write(",".join(payload["columns"]) + "\n")
        for row in payload["rows"]:
            cells = []
            for v in row:
                if v is None:
                    cells.append("")
                elif isinstance(v, str):
                    cells.append(v)
                else:
                    cells.append(f"{_finite(float(v)):.17g}")
            buf.write(",".join(cells) + "\n")
        with open(path, "w") as f:
            f.write(buf.getvalue())
        return
    raise ValueError(f"unknown report format {format!r}")


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["engine", "n", "t0"],
    "properties": {
        "engine": {"enum": ["curve", "axisym", "cap"]},
        "n": {"type": "integer", "minimum": 1},
        "N": {"type": "integer", "minimum": 16},
        "t0": {"type": "number", "exclusiveMaximum": 0},
        "t_stop": {"type": "number"},
        "controls": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "cfl": {"type": "number", "exclusiveMinimum": 0, "maximum": 0.5},
                "max_dt": {"type": "number", "exclusiveMinimum": 0},
                "stop_rho_plus": {"type": "number", "exclusiveMinimum": 0},
                "snapshot_stride": {"type": "integer", "minimum": 1},
            },
        },
        "cap": {
            "type": "object",
            "additionalProperties": False,
            "required": ["R", "rho0"],
            "properties": {
                "R": {"type": "number", "exclusiveMinimum": 0},
                "rho0": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "initial": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "family": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind"],
                    "properties": {
                        "kind": {"enum": ["sphere", "oval"]},
                        "t": {"type": "number", "exclusiveMaximum": 0},
                        "scale": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                "file": {"type": "string"},
                "random": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "seed": {"type": "integer", "minimum": 0},
                        "modes": {"type": "integer", "minimum": 2},
                        "amplitude": {"type": "number",
                                      "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                        "radius": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
            },
        },
    },
}


def load_config(path):
    """Load and validate a run configuration; returns (config, hash)."""
    with open(path) as f:
        try:
            cfg = json.load(f, parse_constant=_reject_constant)
        except ValueError as err:
            raise ValueError(f"{path}: invalid JSON ({err})") from None
    validate_config(cfg)
    return cfg, config_hash(cfg)


@functools.cache
def _config_validator():
    # built on first use, not at import; CONFIG_SCHEMA is checked by a test
    # instead of on every call, as jsonschema.validate would do
    return jsonschema.Draft202012Validator(CONFIG_SCHEMA)


def validate_config(cfg):
    # best_match is the error jsonschema.validate raises
    err = jsonschema.exceptions.best_match(_config_validator().iter_errors(cfg))
    if err is not None:
        raise ValueError(f"invalid config: {err.message}")


def config_hash(cfg):
    """Cryptographic digest of the canonicalized config (provenance tag)."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"),
                           allow_nan=False)
    return hashlib.sha256(canonical.encode()).hexdigest()
