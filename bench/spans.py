"""Layer spans for traced benchmark runs, recorded from outside the package.

`Tracer.install` replaces the public entry points of each mcfflow layer with
timing wrappers, in the defining module and in every sibling module that
imported the same function with ``from ... import`` (for example
``engine.d2_periodic4`` and ``analysis.type_quantities``), and
`Tracer.uninstall` puts the originals back.  A span is
``[id, parent, op, name, start_ns, end_ns, note]``.  The leaf calls made
hundreds of thousands of times per repeat (stencils and the support
interpolant) are kept as one counter per (op, name, parent span) instead:
``[op, name, parent, calls, ns, points]``.  Spans and counters stay in
memory and are written out once, at the end of the run.  Self time is a
span's duration minus the durations of its direct children and leaf calls
(calls are strictly nested, since the benchmark is single-threaded).
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import statistics
import sys
import time

import numpy as np

# layer -> entry points; "Class.method" names are patched on the class
LAYERS = {
    "cli": ["main"],
    "engine": ["evolve", "evolve_cap"],
    "bodies": ["d2_periodic4", "d2_reflect4", "d1_reflect4",
               "SupportProfile.validate"],
    "_solvers": ["chebyshev_center_curve", "chebyshev_center_axis",
                 "min_enclosing_circle", "axis_enclosing_ball"],
    "exact": ["sample_trajectory", "sphere_slice", "angenent_oval_slice"],
    "geometry": ["measure", "min_max_width", "diameter", "inner_radius",
                 "outer_radius", "intrinsic_diameter", "area_and_volume"],
    "diagnostics": ["curvature_field", "umbilic_deficit", "type_quantities",
                    "harnack_quantity", "pinching_report"],
    "analysis": ["check_conditions", "diameter_curvature_check",
                 "type_two_rescale", "soliton_proximity"],
    "trajio": ["write_trajectory", "read_trajectory", "emit_report",
               "load_config"],
}

LEAVES = {"bodies.d2_periodic4", "bodies.d2_reflect4", "bodies.d1_reflect4",
          "bodies.interp.value", "bodies.interp.derivative"}
STENCILS = ("bodies.d2_periodic4", "bodies.d2_reflect4", "bodies.d1_reflect4")
D2_STENCILS = ("bodies.d2_periodic4", "bodies.d2_reflect4")
INTERP = ("bodies.interp.value", "bodies.interp.derivative")
LP = ("_solvers.chebyshev_center_curve", "_solvers.chebyshev_center_axis")
MEC = ("_solvers.min_enclosing_circle", "_solvers.axis_enclosing_ball")
GEOMETRY_PARTS = ("min_max_width", "diameter", "inner_radius", "outer_radius",
                  "intrinsic_diameter", "area_and_volume")


def _subject(args, _out):
    """The body a measurement is taken of (a TimeSlice counts as its body)."""
    obj = args[0]
    return getattr(obj, "body", obj)


def _accepted_steps(_args, out):
    return int(out.meta.get("accepted_steps", 0))


def _file_bytes(index):
    return lambda args, _out: os.path.getsize(args[index])


def _points(args, _out):
    return int(np.size(args[1]))


# what a span records besides its times, by span name
NOTES = {
    "geometry.measure": _subject,
    "diagnostics.curvature_field": _subject,
    "engine.evolve": _accepted_steps,
    "trajio.write_trajectory": _file_bytes(1),
    "trajio.read_trajectory": _file_bytes(0),
}


class Tracer:
    """Records nested spans around the layer entry points while installed."""

    def __init__(self):
        self.spans = []
        self.leaves = []
        self._leaf_index = {}
        self.op = None
        self._stack = []
        self._sites = self._find_sites()

    def _find_sites(self):
        """Every (owner, attribute, original, wrapper) to patch on install."""
        from mcfflow import bodies
        packages = [m for name, m in sorted(sys.modules.items())
                    if name == "mcfflow" or name.startswith("mcfflow.")]
        sites = []
        for layer, names in LAYERS.items():
            module = sys.modules[f"mcfflow.{layer}"]
            for attr in names:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    fn = cls.__dict__[meth]
                    sites.append((cls, meth, fn, self._wrap(f"{layer}.{attr}", fn)))
                    continue
                fn = getattr(module, attr)
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for owner in packages:
                    for alias, value in list(vars(owner).items()):
                        if value is fn:
                            sites.append((owner, alias, fn, wrapper))
        # the interpolant that SupportProfile.interpolator() hands out
        probe = bodies.SupportProfile("curve", 1, np.ones(16)).interpolator()
        cls = type(probe)
        for meth, name in (("__call__", "bodies.interp.value"),
                           ("derivative", "bodies.interp.derivative")):
            fn = cls.__dict__[meth]
            sites.append((cls, meth, fn, self._wrap(name, fn)))
        return sites

    def _wrap(self, name, fn):
        if name in LEAVES:
            return self._wrap_leaf(name, fn)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, self.op, name,
                   clock(), 0, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if note is not None:
                rec[6] = note(args, out)
            return out
        return wrapper

    def _wrap_leaf(self, name, fn):
        stack = self._stack
        index = self._leaf_index
        leaves = self.leaves
        clock = time.perf_counter_ns
        points = name.startswith("bodies.interp")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            elapsed = clock() - start
            key = (self.op, name, stack[-1] if stack else -1)
            rec = index.get(key)
            if rec is None:
                rec = index[key] = [self.op, name, key[2], 0, 0, 0]
                leaves.append(rec)
            rec[3] += 1
            rec[4] += elapsed
            if points:
                rec[5] += np.size(args[1])
            return out
        return wrapper

    def install(self, op):
        self.op = op
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn, _ in self._sites:
            setattr(owner, attr, fn)
        self.op = None

    def mark(self):
        """Where the next group of spans and leaf counters starts."""
        return len(self.spans), len(self.leaves)

    def since(self, mark):
        """The spans and leaf counters recorded after `mark`."""
        return self.spans[mark[0]:], self.leaves[mark[1]:]

    def layers_seen(self):
        names = [rec[3] for rec in self.spans] + [rec[1] for rec in self.leaves]
        return sorted({name.split(".")[0] for name in names})

    def write(self, path, ops):
        """Write spans, then leaf counters, as JSON lines (gzip) after a
        header naming the ops and the fields."""
        ids = {}
        with gzip.open(path, "wt") as f:
            f.write(json.dumps({"ops": ops, "span": [
                "id", "parent", "op", "name", "start_ns", "end_ns", "note"],
                "leaf": ["op", "name", "parent", "calls", "ns", "points"]}) + "\n")
            for rec in self.spans:
                note = rec[6]
                if note is not None and not isinstance(note, (int, float)):
                    note = ids.setdefault(id(note), len(ids))  # subject number
                f.write(json.dumps({"span": rec[:6] + [note]}) + "\n")
            for rec in self.leaves:
                f.write(json.dumps({"leaf": rec}) + "\n")


def _aggregate(group):
    """Per name: calls, inclusive seconds, self seconds, notes."""
    spans, leaves = group
    child = {}
    ids = {rec[0] for rec in spans}
    for rec in spans:
        if rec[1] in ids:
            child[rec[1]] = child.get(rec[1], 0) + rec[5] - rec[4]
    agg = {}
    for op, name, parent, calls, ns, points in leaves:
        if parent in ids:
            child[parent] = child.get(parent, 0) + ns
        a = agg.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0, "notes": [0]})
        a["calls"] += calls
        a["incl"] += ns * 1e-9
        a["self"] += ns * 1e-9
        a["notes"][0] += points
    for rec in spans:
        dur = rec[5] - rec[4]
        a = agg.setdefault(rec[3], {"calls": 0, "incl": 0.0, "self": 0.0, "notes": []})
        a["calls"] += 1
        a["incl"] += dur * 1e-9
        a["self"] += (dur - child.get(rec[0], 0)) * 1e-9
        if rec[6] is not None:
            a["notes"].append(rec[6])
    return agg


_EMPTY = {"calls": 0, "incl": 0.0, "self": 0.0, "notes": []}


def _repeat_ratio(a):
    distinct = len({id(obj) for obj in a["notes"]})
    return a["calls"] / distinct if distinct else 0.0


def layer_metrics(group, scale=1.0):
    """Per-layer metrics of one group (one repeat of the op list), with
    times multiplied by `scale` (raw to reference seconds)."""
    agg = _aggregate(group)
    get = lambda name: agg.get(name, _EMPTY)
    total = lambda names, key: sum(get(n)[key] for n in names)
    evolve = get("engine.evolve")
    steps = sum(evolve["notes"])
    interp_evals = total(INTERP, "calls")
    interp_points = sum(sum(get(n)["notes"]) for n in INTERP)
    m = {
        "engine.evolve.self_s": evolve["self"],
        "engine.us_per_step": evolve["incl"] / steps * 1e6 if steps else 0.0,
        "engine.accepted_steps": steps,
        "engine.stencil_evals_per_step":
            total(D2_STENCILS, "calls") / steps if steps else 0.0,
        "engine.evolve_cap.s": get("engine.evolve_cap")["incl"],
        "bodies.stencil.calls": total(STENCILS, "calls"),
        "bodies.stencil.s": total(STENCILS, "incl"),
        "bodies.interp.evals": interp_evals,
        "bodies.interp.points_per_eval":
            interp_points / interp_evals if interp_evals else 0.0,
        "bodies.interp.s": total(INTERP, "incl"),
        "bodies.validate.calls": get("bodies.SupportProfile.validate")["calls"],
        "bodies.validate.s": get("bodies.SupportProfile.validate")["incl"],
        "solvers.lp.calls": total(LP, "calls"),
        "solvers.lp.s": total(LP, "incl"),
        "solvers.mec.calls": total(MEC, "calls"),
        "solvers.mec.s": total(MEC, "incl"),
        "geometry.measure.calls": get("geometry.measure")["calls"],
        "geometry.measure.s": get("geometry.measure")["incl"],
        "geometry.measure.repeat_ratio": _repeat_ratio(get("geometry.measure")),
    }
    for part in GEOMETRY_PARTS:
        m[f"geometry.{part}.s"] = get(f"geometry.{part}")["self"]
    cf = get("diagnostics.curvature_field")
    m["diagnostics.curvature_field.calls"] = cf["calls"]
    m["diagnostics.curvature_field.s"] = cf["incl"]
    m["diagnostics.curvature_field.repeat_ratio"] = _repeat_ratio(cf)
    for name in ("diagnostics.type_quantities", "diagnostics.harnack_quantity",
                 "diagnostics.pinching_report", "analysis.check_conditions",
                 "analysis.diameter_curvature_check", "analysis.type_two_rescale",
                 "analysis.soliton_proximity", "cli.main"):
        m[f"{name}.self_s"] = get(name)["self"]
    m["trajio.write.s"] = get("trajio.write_trajectory")["incl"]
    m["trajio.write.bytes"] = sum(get("trajio.write_trajectory")["notes"])
    m["trajio.read.s"] = get("trajio.read_trajectory")["incl"]
    m["trajio.read.bytes"] = sum(get("trajio.read_trajectory")["notes"])
    m["trajio.emit_report.s"] = get("trajio.emit_report")["incl"]
    m["trajio.load_config.s"] = get("trajio.load_config")["incl"]
    for name in m:
        if unit_of(name) in ("s", "us"):
            m[name] *= scale
    return m


def setup_metrics(group, scale=1.0):
    """Per-layer metrics taken from one traced set-up."""
    return {"exact.sample_trajectory.s":
            _aggregate(group).get("exact.sample_trajectory", _EMPTY)["incl"] * scale}


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("us_per_step"):
        return "us"
    if name.endswith("repeat_ratio"):
        return "ratio"
    if name.endswith("overhead_frac"):
        return "frac"
    return "count"


def median_metrics(groups):
    """Median of each metric over groups (counts repeat exactly across them)."""
    return {k: statistics.median(g[k] for g in groups) for k in groups[0]}
