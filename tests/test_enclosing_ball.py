"""The support-set enclosing balls against scalar Welzl and golden-section
references.

The references below computed outer radii before the support-set iteration
replaced them: Welzl's randomized incremental minimum enclosing circle
(Welzl 1991), one Python iteration per point in a seeded random order, and a
140-step golden-section search for the axial ball.  Both solve the same
problem, so the radii must agree to rounding, the new radius may not exceed
the reference's, and every input point must lie in the returned ball.
"""

import math

import numpy as np
import pytest

from mcfflow import _solvers, bodies, exact

REL = 1e-12


def _ref_in_circle(c, p):
    return c is not None and math.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * (1.0 + REL) + 1e-300


def _ref_diameter_circle(p, q):
    cx = 0.5 * (p[0] + q[0])
    cy = 0.5 * (p[1] + q[1])
    return (cx, cy, max(math.hypot(cx - p[0], cy - p[1]), math.hypot(cx - q[0], cy - q[1])))


def _ref_circumcircle(a, b, c):
    ox = (min(a[0], b[0], c[0]) + max(a[0], b[0], c[0])) / 2.0
    oy = (min(a[1], b[1], c[1]) + max(a[1], b[1], c[1])) / 2.0
    ax, ay = a[0] - ox, a[1] - oy
    bx, by = b[0] - ox, b[1] - oy
    cx, cy = c[0] - ox, c[1] - oy
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0.0:
        return None
    x = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
              + (cx * cx + cy * cy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
              + (cx * cx + cy * cy) * (bx - ax)) / d
    r = max(math.hypot(x - a[0], y - a[1]), math.hypot(x - b[0], y - b[1]),
            math.hypot(x - c[0], y - c[1]))
    return (x, y, r)


def _mec_two_fixed(pts, p, q):
    circ = _ref_diameter_circle(p, q)
    left = right = None
    px, py = p
    qx, qy = q

    def side(c):
        return (qx - px) * (c[1] - py) - (qy - py) * (c[0] - px)

    for r in pts:
        if _ref_in_circle(circ, r):
            continue
        cc = _ref_circumcircle(p, q, r)
        if cc is None:
            continue
        cross = side(r)
        if cross > 0.0 and (left is None or side(cc) > side(left)):
            left = cc
        elif cross < 0.0 and (right is None or side(cc) < side(right)):
            right = cc
    if left is None and right is None:
        return circ
    if left is None:
        return right
    if right is None:
        return left
    return left if left[2] <= right[2] else right


def _mec_one_fixed(pts, p):
    c = (p[0], p[1], 0.0)
    for i, q in enumerate(pts):
        if not _ref_in_circle(c, q):
            c = _ref_diameter_circle(p, q) if c[2] == 0.0 else _mec_two_fixed(pts[: i + 1], p, q)
    return c


def welzl_circle(pts, seed=0x5EED):
    """(cx, cy, r) by Welzl's algorithm over a seeded shuffle."""
    order = np.random.default_rng(seed).permutation(len(pts))
    shuffled = [tuple(float(v) for v in pts[i]) for i in order]
    c = None
    for i, p in enumerate(shuffled):
        if not _ref_in_circle(c, p):
            c = _mec_one_fixed(shuffled[: i + 1], p)
    return c


def golden_axis_ball(x, rsq):
    """(a, r) minimizing max_j (x_j - a)^2 + rsq_j by golden-section search."""
    def f(a):
        return float(np.max((x - a) ** 2 + rsq))

    a, b = float(np.min(x)), float(np.max(x))
    if b - a < 1e-300:
        return a, math.sqrt(f(a))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c1, c2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(140):
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = f(c2)
    best = 0.5 * (a + b)
    return best, math.sqrt(f(best))


def _bodies():
    """The criterion-3 pool, finer curves, oval slices out to t = -50, and
    the disk and ball."""
    out = [bodies.random_convex_curve(96, seed=s, amplitude=0.25 + 0.65 * (s % 10) / 10.0)
           for s in range(800)]
    out += [bodies.random_convex_profile(2, 64, seed=s, amplitude=0.25 + 0.65 * (s % 8) / 8.0)
            for s in range(200)]
    out += [bodies.random_convex_curve(256, seed=s, amplitude=0.6) for s in range(20)]
    out += [exact.angenent_oval_slice(t, 128) for t in (-0.5, -3.0, -11.74, -20.0, -50.0)]
    out += [bodies.SupportProfile("curve", 1, np.full(96, 1.0)),
            bodies.SupportProfile("axisym", 2, np.full(65, 1.0))]
    return out


def test_enclosing_balls_match_references():
    for body in _bodies():
        pts = body.boundary_points()
        if body.mode == "curve":
            c, r = _solvers.min_enclosing_circle(pts)
            ref = welzl_circle(pts)[2]
            dist = np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1])
        else:
            x, rsq = pts[:, 0], pts[:, 1] ** 2
            a, r = _solvers.axis_enclosing_ball(x, rsq)
            ref = golden_axis_ball(x, rsq)[1]
            dist = np.sqrt((x - a) ** 2 + rsq)
        assert r == pytest.approx(ref, rel=REL, abs=0.0), (body.mode, body.N)
        assert r <= ref * (1.0 + REL)
        assert np.max(dist) <= r * (1.0 + REL)


@pytest.mark.parametrize("pts, centre, radius", [
    ([[0.3, -2.0]], (0.3, -2.0), 0.0),
    ([[1.0, 1.0], [4.0, 5.0]], (2.5, 3.0), 2.5),
    ([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [-1.0, -1.0]], (1.0, 1.0), 2.0 * math.sqrt(2.0)),
    ([[2.0, 0.0]] * 3 + [[0.0, 2.0]] * 2 + [[-2.0, 0.0]] * 4, (0.0, 0.0), 2.0),
    ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.6, 0.8]], (0.0, 0.0), 1.0),
], ids=["one", "two", "collinear", "duplicated", "cocircular"])
def test_degenerate_point_sets(pts, centre, radius):
    c, r = _solvers.min_enclosing_circle(np.array(pts))
    assert r == pytest.approx(radius, rel=REL, abs=1e-15)
    assert np.allclose(c, centre, rtol=0.0, atol=1e-15)


def test_degenerate_axis_sets():
    # one orbit; orbits only on the axis; one orbit repeated
    assert _solvers.axis_enclosing_ball([0.5], [4.0]) == (0.5, 2.0)
    assert _solvers.axis_enclosing_ball([-1.0, 3.0, 0.0], [0.0, 0.0, 0.0]) == (1.0, 2.0)
    a, r = _solvers.axis_enclosing_ball([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, 0.0])
    assert a == pytest.approx(0.25, abs=1e-15)
    assert r == pytest.approx(1.25, rel=REL)


@pytest.mark.parametrize("pts", [np.empty((0, 2)), np.array([[0.0, 1.0], [math.nan, 0.0]]),
                                 np.array([[math.inf, 1.0]]), np.zeros((3, 3)), np.zeros(4)],
                         ids=["empty", "nan", "inf", "three-columns", "flat"])
def test_bad_point_sets_raise(pts):
    with pytest.raises(ValueError):
        _solvers.min_enclosing_circle(pts)


def test_bad_orbits_raise():
    with pytest.raises(ValueError):
        _solvers.axis_enclosing_ball([], [])
    with pytest.raises(ValueError):
        _solvers.axis_enclosing_ball([0.0, 1.0], [1.0, math.nan])


def test_iteration_cap_is_a_numerical_abort(monkeypatch):
    monkeypatch.setattr(_solvers, "_MAX_SUPPORT_ITERS", 0)
    with pytest.raises(FloatingPointError):
        _solvers.min_enclosing_circle(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 2.0]]))
