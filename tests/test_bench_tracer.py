"""The benchmark tracer's names resolve against the package.

`bench/spans.py` times the package by patching the entry points it names in
`LAYERS`, wherever a module of the package binds them.  A rename, or an
engine that stops calling a traced stencil through its traced name, would
otherwise show only in a traced benchmark run, as a layer reading 0.  The
tracer is loaded from its source without importing the bench directory.
"""

import pathlib
import sys
import types

# the tracer finds each layer in sys.modules
from mcfflow import (_solvers, analysis, bodies, cli, diagnostics, engine,  # noqa: F401
                     exact, geometry, trajio)
from mcfflow.bodies import random_convex_curve, random_convex_profile

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
ENGINE_STENCILS = ("d2_periodic4", "d2_reflect4", "d1_reflect4")


def _spans():
    module = types.ModuleType("spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    spans = _spans()
    for layer, names in spans.LAYERS.items():
        for name in names:
            owner = sys.modules[f"mcfflow.{layer}"]
            for part in name.split("."):
                assert hasattr(owner, part), f"mcfflow.{layer}.{name}"
                owner = getattr(owner, part)
            assert callable(owner), f"mcfflow.{layer}.{name}"


def test_engine_binds_the_traced_stencils():
    sites = {(getattr(owner, "__name__", None), attr, original)
             for owner, attr, original, _ in _spans().Tracer()._sites}
    for name in ENGINE_STENCILS:
        assert ("mcfflow.engine", name, getattr(bodies, name)) in sites, name


def test_a_traced_measure_counts_one_enclosing_ball_per_body():
    spans = _spans()
    tracer = spans.Tracer()
    mark = tracer.mark()
    tracer.install("measure")
    try:
        for body in (random_convex_curve(32, 1), random_convex_profile(2, 32, 1)):
            geometry.measure(body)
    finally:
        tracer.uninstall()
    group = tracer.since(mark)
    names = [rec[3] for rec in group[0]]
    assert names.count("_solvers.min_enclosing_circle") == 1
    assert names.count("_solvers.axis_enclosing_ball") == 1
    metrics = spans.layer_metrics(group)
    assert metrics["solvers.mec.calls"] == metrics["geometry.measure.calls"] == 2
