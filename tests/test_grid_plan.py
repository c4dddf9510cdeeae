"""The grid plans and the LP's memo of basis inverses.

A grid plan (`bodies.grid_plan`) holds the arrays of one grid that depend on
nothing but the grid, shared by every body on it; the dual simplex keeps
recent basis inverses in a bounded memo (`_solvers._INVERSES`).  Neither may
change an output: every value below must have the same bytes whether both
were built fresh for the body or reused from the bodies before it.
"""

import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import mcfflow
from mcfflow import _solvers, bodies, diagnostics, engine, geometry


def _clear():
    """Forget every plan, per-grid table and basis inverse."""
    bodies.grid_plan.cache_clear()
    bodies._spectral_grid.cache_clear()
    geometry._search.cache_clear()
    _solvers._PLAN_MATRICES.clear()
    _solvers._INVERSES.clear()


def _pool(count=200):
    """Criterion-3 pool bodies: 4/5 plane curves, 1/5 axisymmetric."""
    curves = count * 4 // 5
    pool = [bodies.random_convex_curve(96, seed=s, amplitude=0.25 + 0.65 * (s % 10) / 10.0)
            for s in range(curves)]
    pool += [bodies.random_convex_profile(2, 64, seed=s, amplitude=0.25 + 0.65 * (s % 8) / 8.0)
             for s in range(count - curves)]
    return pool


def _perturbed_sphere_slices():
    """The slices of a 5%-perturbed sphere of radius 20 evolved from t0 = -100."""
    base = bodies.random_convex_profile(2, 32, 11, modes=4, amplitude=0.05, radius=20.0)
    controls = engine.FlowControls(cfl=0.5, max_dt=1.0, stop_rho_plus=1.0, snapshot_stride=16)
    return [sl.body for sl in engine.evolve(base, -100.0, controls).slices]


def _outputs(mode, n, h):
    """The bytes of measure, recentre and curvature_field of a fresh body."""
    body = bodies.SupportProfile(mode, n, h)
    m = np.array(dataclasses.astuple(geometry.measure(body)))
    hc, shift = bodies.recentre(mode, h)
    field = diagnostics.curvature_field(body)
    arrays = [m, hc, np.asarray(shift)] + [np.asarray(getattr(field, f.name))
                                           for f in dataclasses.fields(field) if f.name != "n"]
    return [a.tobytes() for a in arrays]


def test_shared_arrays_are_read_only():
    for body in (bodies.random_convex_curve(32, 1), bodies.random_convex_profile(2, 32, 1)):
        field = diagnostics.curvature_field(body)
        for a in (body.angles(), body.normals(), body.weights(), field.nu):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        plan = body.plan
        assert body.angles() is plan.angles and field.nu is plan.normals
        assert not plan.lp_matrix.flags.writeable


@pytest.mark.parametrize("source", ["pool", "perturbed-sphere"])
def test_outputs_are_the_same_from_fresh_and_reused_plans(source):
    found = _pool() if source == "pool" else _perturbed_sphere_slices()
    cases = [(b.mode, b.n, b.h) for b in found]
    warm = [_outputs(*case) for case in cases]  # in order: consecutive slices reuse bases
    cold = []
    for case in cases:
        _clear()
        cold.append(_outputs(*case))
    assert cold == warm


def test_the_memo_stays_within_its_bound():
    _clear()
    largest = 0
    for seed in range(1000):
        grid = seed % 3
        if grid == 0:
            bodies.random_convex_curve(32, seed, amplitude=0.8)
        elif grid == 1:
            bodies.random_convex_curve(96, seed, amplitude=0.5)
        else:
            bodies.random_convex_profile(2, 48, seed, amplitude=0.8)
        largest = max(largest, len(_solvers._INVERSES))
    assert 0 < largest <= _solvers._MAX_INVERSES


def test_plans_stay_within_their_bound_and_take_their_matrices_along():
    _clear()
    grids = range(16, 16 + 4 * bodies._MAX_GRIDS, 2)  # 2 * _MAX_GRIDS curve grids
    first = [bodies.grid_plan(bodies.MODE_CURVE, m).normals for m in grids[:3]]
    for m in grids:
        h = bodies.random_convex_curve(m, m).h
        # the plan's matrix, and one built for a copy of its normals
        c, r = bodies.chebyshev_ball(bodies.MODE_CURVE, h)
        copy = np.array(bodies.grid_plan(bodies.MODE_CURVE, m).normals)
        c_copy, r_copy = _solvers.chebyshev_center_curve(copy, h)
        assert c.tobytes() == c_copy.tobytes() and r == r_copy
        assert len(_solvers._PLAN_MATRICES) <= bodies._MAX_GRIDS + len(first)
    assert bodies.grid_plan.cache_info().currsize == bodies._MAX_GRIDS
    # a dropped plan whose normals are still held keeps its matrix, and a
    # rebuilt one makes new normals with a matrix of their own
    assert all(id(nu) in _solvers._PLAN_MATRICES for nu in first)
    again = bodies.grid_plan(bodies.MODE_CURVE, grids[0]).normals
    assert again is not first[0] and id(again) in _solvers._PLAN_MATRICES
    del first
    assert len(_solvers._PLAN_MATRICES) == bodies._MAX_GRIDS


def test_import_builds_no_plan():
    # a fresh interpreter: this test process has built plans already
    root = str(pathlib.Path(mcfflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", "import mcfflow; from mcfflow import _solvers, bodies, geometry; "
         "print(bodies.grid_plan.cache_info().currsize, "
         "bodies._spectral_grid.cache_info().currsize, geometry._search.cache_info().currsize, "
         "len(_solvers._PLAN_MATRICES), len(_solvers._INVERSES))"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.split() == ["0"] * 5
