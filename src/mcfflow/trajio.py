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

import dataclasses
import hashlib
import io
import json
import math
import numbers
import operator

import numpy as np

from .bodies import CapState, MODE_AXISYM, MODE_CURVE, SupportProfile
from .engine import _KIND_KEYS, FlowControls, TimeSlice, Trajectory, _kind

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
        if not np.isfinite(obj).all():
            raise ValueError("non-finite value in numeric payload")
        return obj.tolist()
    if isinstance(obj, (np.floating, float)):
        return _finite(float(obj))
    if isinstance(obj, (np.integer, int)) or obj is None or isinstance(obj, (str, bool)):
        return int(obj) if isinstance(obj, np.integer) else obj
    raise TypeError(f"unserializable value of type {type(obj)!r}")


def _dumps(payload):
    return json.dumps(_clean(payload), allow_nan=False, separators=(",", ":"))


def _slice_payload(sl, gauge):
    body = sl.body
    if isinstance(body, CapState):
        rec = {"t": sl.t, "repr": REPR_CAP, "n": body.n, "N": 1,
               "data": [body.rho], "R": body.R}
    elif body.mode == MODE_CURVE:
        rec = {"t": sl.t, "repr": REPR_CURVE, "n": 1, "N": body.N,
               "data": body.h}
    else:
        rec = {"t": sl.t, "repr": REPR_AXISYM, "n": body.n, "N": body.N,
               "data": body.h}
    if sl.shift is not None:
        rec["shift"] = np.atleast_1d(np.asarray(sl.shift, dtype=float))
    rec["gauge"] = gauge
    return rec


def write_trajectory(traj, path):
    """Write a trajectory as header + one snapshot record per line."""
    meta = traj.meta or {}
    controls = meta.get("controls")
    gauge = {
        "t_ext_estimate": meta.get("s_ext"),
        "recentered": any(s.shift is not None for s in traj.slices),
    }
    header = {
        "schema": SCHEMA_VERSION,
        "kind": "trajectory",
        "engine": meta.get("engine") or traj.engine,
        "n": traj.n,
        "N": traj.N,
        "count": len(traj.slices),
        "controls": None if controls is None else dataclasses.asdict(controls),
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


_NUMBER = {int, float}  # a JSON number as json.loads gives it; a bool is neither


def _field(rec, key, types=_NUMBER):
    """rec[key], whose type must be one of types exactly (bool subclasses int)."""
    value = rec[key]
    if type(value) not in types:
        raise TypeError(f"{key} = {value!r} is not "
                        f"{'a number' if types is _NUMBER else 'an integer'}")
    return value


def _numbers(rec, key):
    """rec[key] as a finite float array; it must be a list of JSON numbers."""
    values = rec[key]
    if type(values) is not list or not set(map(type, values)) <= _NUMBER:
        raise TypeError(f"{key} is not a list of numbers")
    return _finite_array(values)


def _record_slice(rec):
    """(TimeSlice, the record's own (kind, n, N, R)) of one snapshot record; a
    malformed record raises TypeError, ValueError, OverflowError or KeyError."""
    t, n, N = float(_field(rec, "t")), _field(rec, "n", {int}), _field(rec, "N", {int})
    data = _numbers(rec, "data")
    kind = _REPR_KIND.get(rec["repr"])
    if kind is None:
        raise ValueError(f"unknown repr {rec['repr']!r}")
    if kind == "cap":
        if N != 1 or len(data) != 1:
            raise ValueError(f"cap record needs N = 1 and one value, not N = {N!r} "
                             f"and {len(data)}")
        R, N = float(_field(rec, "R")), None
        body = CapState(R, n, float(data[0]))
    else:
        R = None
        body = SupportProfile(kind, n, data)
    shift = None
    if rec.get("shift") is not None:
        size = 2 if kind == MODE_CURVE else 1
        shift = _numbers(rec, "shift")
        if shift.shape != (size,):
            raise ValueError(f"{kind} shift needs {size} value(s), not {shift.tolist()!r}")
        shift = shift if size == 2 else float(shift[0])
    return TimeSlice(t, body, shift), (kind, n, N, R)


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
    # every record's kind, n, N and R: the header's n and N where present, else
    # the first record's
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
        except (TypeError, ValueError, OverflowError) as err:
            raise CorruptRecordError(i, str(err)) from None
        for key, got, own in zip(_KIND_KEYS, _kind(sl.body), stated):
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
        "engine": header.get("engine"),
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

MAX_GRID = 16384  # the largest grid N a run config or `exact --resolution` takes

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["engine", "n", "t0"],
    "properties": {
        "engine": {"enum": ["curve", "axisym", "cap"]},
        "n": {"type": "integer", "minimum": 1},
        "N": {"type": "integer", "minimum": 16, "maximum": MAX_GRID},
        "t0": {"type": "number", "exclusiveMaximum": 0},
        "t_stop": {"type": "number"},
        # FlowControls and CapState refuse an out-of-range control or cap
        "controls": {
            "type": "object",
            "additionalProperties": False,
            "properties": {f.name: {"type": {"int": "integer", "float": "number"}[f.type]}
                           for f in dataclasses.fields(FlowControls)},
        },
        "cap": {
            "type": "object",
            "additionalProperties": False,
            "required": ["R", "rho0"],
            "properties": {"R": {"type": "number"}, "rho0": {"type": "number"}},
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
                        "modes": {"type": "integer", "minimum": 2, "maximum": 256},
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
    """Load and validate a run configuration; returns (config, hash): the
    config as validate_config hands it back, the hash of the config as read."""
    with open(path) as f:
        try:
            cfg = json.load(f, parse_constant=_reject_constant)
        except ValueError as err:
            raise ValueError(f"{path}: invalid JSON ({err})") from None
    return validate_config(cfg), config_hash(cfg)


# keyword: (refuses(value, bound), message) of the four numeric bounds
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum"),
}
_KEYWORDS = {"type", "enum", "required", "properties", "additionalProperties", *_BOUNDS}
_TYPES = {"object": dict, "string": str, "number": numbers.Number, "integer": int}


def _is_type(value, name):
    if isinstance(value, bool):
        return False
    if name == "integer" and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, _TYPES[name])


def _walk(schema, value, path, errors):
    """value with integral floats at integer keys made int; appends
    (relevance, message) to errors for each error, in jsonschema's order."""
    if schema.keys() - _KEYWORDS or schema.get("additionalProperties", False) is not False:
        raise NotImplementedError(f"schema keywords beyond the walker's: {schema!r}")
    # jsonschema.exceptions.relevance: shallower, later path, value not of the type
    rank = (-len(path), path, not ("type" in schema and _is_type(value, schema["type"])))
    is_object = isinstance(value, dict)
    out = dict(value) if is_object else value
    for key, arg in schema.items():
        if key == "type":
            if not _is_type(value, arg):
                errors.append((rank, f"{value!r} is not of type {arg!r}"))
            elif arg == "integer":
                out = int(value)
        elif key == "enum":
            if value not in arg:
                errors.append((rank, f"{value!r} is not one of {arg!r}"))
        elif key in _BOUNDS:
            refuses, text = _BOUNDS[key]
            if _is_type(value, "number") and refuses(value, arg):
                errors.append((rank, f"{value!r} is {text} of {arg!r}"))
        elif not is_object:
            continue
        elif key == "required":
            errors += [(rank, f"{name!r} is a required property")
                       for name in arg if name not in value]
        elif key == "properties":
            for name, sub in arg.items():
                if name in value:
                    out[name] = _walk(sub, value[name], path + (name,), errors)
        else:  # additionalProperties: false
            extras = sorted(value.keys() - schema.get("properties", {}).keys(), key=str)
            if extras:
                errors.append((rank, f"Additional properties are not allowed "
                               f"({', '.join(map(repr, extras))} "
                               f"{'was' if len(extras) == 1 else 'were'} unexpected)"))
    return out


def validate_config(cfg):
    """cfg checked against CONFIG_SCHEMA; returns it with every integral float
    at an integer key as an int, or raises ValueError.

    CONFIG_SCHEMA is read by a walker of a subset of JSON Schema draft 2020-12:
    the keywords type (object, integer, number or string), enum, required,
    properties, additionalProperties (false only), minimum, maximum,
    exclusiveMinimum and exclusiveMaximum.  Any other keyword raises
    NotImplementedError.  As in the draft, a bool is neither a number nor an
    integer, and a float with an integral value is an integer.  The message is
    the one jsonschema.validate(cfg, CONFIG_SCHEMA) raises, that of the error
    jsonschema.exceptions.best_match picks: the shallowest, then the one at
    the greatest key path, then the first in schema order.
    """
    errors = []
    cfg = _walk(CONFIG_SCHEMA, cfg, (), errors)
    if errors:
        raise ValueError(f"invalid config: {max(errors, key=operator.itemgetter(0))[1]}")
    return cfg


def config_hash(cfg):
    """Cryptographic digest of the canonicalized config (provenance tag)."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"),
                           allow_nan=False)
    return hashlib.sha256(canonical.encode()).hexdigest()
