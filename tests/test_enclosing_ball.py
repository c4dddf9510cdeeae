"""The enclosing-ball LP against scipy's linprog, and on degenerate bodies
whose sampled enclosing radius has a closed form.

`min_enclosing_circle` and `axis_enclosing_ball` solve
minimize R subject to h_j - <c, G_j> <= R on the support samples h, G the
normals (curve) or the cosines (axisym, centre on the axis).  HiGHS solves the
same LP as written, without the shift the dual simplex runs it through, so
the radii must agree to rounding, and the returned centre must realize the
returned radius.
"""

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from mcfflow import _solvers, bodies, exact, geometry

CURVE_GRID = bodies.grid_plan("curve", 96)
AXIS_GRID = bodies.grid_plan("axisym", 65)


def _solve(body):
    """(c, R) of the body's enclosing ball, c as a 1-d array, and G."""
    A = body.plan.lp_matrix
    if body.mode == "curve":
        c, r = _solvers.min_enclosing_circle(A, body.h)
        return c, r, body.plan.normals
    a, r = _solvers.axis_enclosing_ball(A, body.h)
    return np.array([a]), r, body.plan.cos[:, None]


def _linprog_radius(G, h):
    """min R subject to h_j - <c, G_j> <= R, by HiGHS."""
    d = G.shape[1]
    cost = np.append(np.zeros(d), 1.0)
    rows = -np.column_stack([G, np.ones(len(h))])
    done = linprog(cost, A_ub=rows, b_ub=-h, bounds=[(None, None)] * (d + 1),
                   method="highs")
    assert done.status == 0, done.message
    return float(done.x[-1])


def _bodies():
    """Part of the criterion-3 pool moved off-centre, oval slices out to
    t = -50, and the disk and ball."""
    out = [bodies.random_convex_curve(96, seed=s, amplitude=0.25 + 0.65 * (s % 10) / 10.0)
           for s in range(100)]
    out += [bodies.random_convex_profile(2, 64, seed=s, amplitude=0.25 + 0.65 * (s % 8) / 8.0)
            for s in range(20)]
    shifts = np.random.default_rng(11).uniform(-0.5, 0.5, size=(len(out), 2))
    out = [bodies.SupportProfile(b.mode, b.n, b.h + bodies.shift_support(
        b.mode, b.h, s if b.mode == "curve" else s[0])) for b, s in zip(out, shifts)]
    out += [exact.angenent_oval_slice(t, 128) for t in (-0.5, -3.0, -11.74, -20.0, -50.0)]
    out += [bodies.SupportProfile("curve", 1, np.full(96, 1.0)),
            bodies.SupportProfile("axisym", 2, np.full(65, 1.0))]
    return out


def test_enclosing_balls_match_references():
    for body in _bodies():
        c, r, G = _solve(body)
        assert r == pytest.approx(_linprog_radius(G, body.h), rel=1e-9, abs=0.0), body.mode
        assert float(np.max(body.h - G @ c)) == pytest.approx(r, rel=1e-12, abs=0.0)
        assert geometry.outer_radius(body) == r


def _point_set_support(pts):
    """Support samples of the convex hull of a finite point set."""
    return np.max(CURVE_GRID.normals @ np.array(pts, dtype=float).T, axis=1)


def _segment_radius(half_length, angle):
    """The sampled enclosing radius of a segment: its half-length times the
    largest |cos| between the segment and a sample normal."""
    return half_length * float(np.max(np.abs(np.cos(CURVE_GRID.angles - angle))))


@pytest.mark.parametrize("pts, radius, centre", [
    ([[0.3, -2.0]], 0.0, (0.3, -2.0)),
    ([[1.0, 1.0], [4.0, 5.0]], _segment_radius(2.5, math.atan2(4.0, 3.0)), None),
    ([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [-1.0, -1.0]], 2.0 * math.sqrt(2.0), None),
    ([[2.0, 0.0]] * 3 + [[0.0, 2.0]] * 2 + [[-2.0, 0.0]] * 4, 2.0, None),
    ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.6, 0.8]], 1.0, (0.0, 0.0)),
], ids=["one", "two", "collinear", "duplicated", "cocircular"])
def test_degenerate_point_sets(pts, radius, centre):
    # every sample normal of a 96-point grid is a multiple of pi/48, so the
    # diagonal and axis directions of these sets are sampled; a segment or a
    # segment's worth of centres is optimal unless a centre is given
    h = _point_set_support(pts)
    c, r = _solvers.min_enclosing_circle(CURVE_GRID.lp_matrix, h)
    assert r == pytest.approx(radius, rel=1e-12, abs=1e-14)
    assert float(np.max(h - CURVE_GRID.normals @ c)) == pytest.approx(r, rel=1e-12, abs=1e-14)
    if centre is not None:
        assert np.allclose(c, centre, rtol=0.0, atol=1e-14)


def test_degenerate_axis_sets():
    # one orbit of radius 2 at x = 0.5: the equator phi = pi/2 is sampled,
    # and every centre within 2 tan(step/2) of 0.5 is optimal
    h = 0.5 * AXIS_GRID.cos + 2.0 * AXIS_GRID.sin
    a, r = _solvers.axis_enclosing_ball(AXIS_GRID.lp_matrix, h)
    assert r == pytest.approx(2.0, rel=1e-12)
    assert abs(a - 0.5) <= 2.0 * math.tan(math.pi / 128.0) * (1.0 + 1e-12)
    # points on the axis only, at -1, 0 and 3
    h = np.maximum(3.0 * AXIS_GRID.cos, np.maximum(-AXIS_GRID.cos, 0.0))
    assert _solvers.axis_enclosing_ball(AXIS_GRID.lp_matrix, h) == (1.0, 2.0)
