"""The dual-simplex Chebyshev centres against a scalar Seidel LP.

The reference below is the randomized incremental LP (Seidel 1991) that
computed Chebyshev centres before the dual simplex replaced it: one Python
iteration per constraint, a seeded random order and a bounding box.  Both
solve max r subject to <c, nu_j> + r <= h_j, so their radii must agree to
rounding, and the centre the simplex returns must violate no support plane.
The centres themselves may differ where the optimum is a segment (the
stadium below), since any point of it is optimal.
"""

import math

import numpy as np
import pytest

from mcfflow import _solvers, bodies, exact
from mcfflow._solvers import InfeasibleError


def _scalar_lp_1d(A, b, c, lo, hi, tol):
    for a, bb in zip(A, b):
        a = a[0]
        if abs(a) <= tol * 1e-4:
            if bb < -tol:
                raise InfeasibleError("contradictory constant constraint")
            continue
        x = bb / a
        if a > 0.0:
            hi = min(hi, x)
        else:
            lo = max(lo, x)
    if lo > hi + tol:
        raise InfeasibleError("empty interval")
    hi = max(hi, lo)
    return np.array([lo if c[0] >= 0.0 else hi])


def _scalar_seidel(A, b, c, lo, hi, rng, tol):
    """minimize c.x subject to A x <= b and lo <= x <= hi."""
    d = len(c)
    if d == 1:
        return _scalar_lp_1d(A, b, c, float(lo[0]), float(hi[0]), tol)
    m = len(b)
    if m:
        order = rng.permutation(m)
        A = A[order]
        b = b[order]
    x = np.where(c > 0.0, lo, hi).astype(float)
    for i in range(m):
        ai = A[i]
        bi = b[i]
        if float(ai @ x) <= bi + tol:
            continue
        k = int(np.argmax(np.abs(ai)))
        aik = ai[k]
        if abs(aik) < tol * 1e-3:
            raise InfeasibleError("violated constraint with null gradient")
        idx = [l for l in range(d) if l != k]
        ai_idx = ai[idx]
        rows = []
        rhs = []
        for j in range(i):
            rows.append(A[j][idx] - (A[j][k] / aik) * ai_idx)
            rhs.append(b[j] - (A[j][k] / aik) * bi)
        for s, t in ((1.0, hi[k]), (-1.0, -lo[k])):
            rows.append(-(s / aik) * ai_idx)
            rhs.append(t - (s / aik) * bi)
        c_red = c[idx] - (c[k] / aik) * ai_idx
        y = _scalar_seidel(np.array(rows), np.array(rhs), c_red, lo[idx], hi[idx], rng, tol)
        x = np.empty(d)
        x[idx] = y
        x[k] = (bi - float(ai_idx @ y)) / aik
    return x


def _reference_radius(G, h):
    """Chebyshev radius by the scalar Seidel LP, boxed as it used to be."""
    bound = 2.0 * float(np.max(np.abs(h))) + 1.0
    d = G.shape[1]
    A = np.column_stack([G, np.ones(len(h))])
    c = np.append(np.zeros(d), -1.0)
    lo = np.append(np.full(d, -bound), 0.0)
    hi = np.full(d + 1, bound)
    x = _scalar_seidel(A, h.copy(), c, lo, hi, np.random.default_rng(0xC3B1),
                       1e-9 * max(1.0, bound))
    return float(x[-1])


def _rows(mode, m):
    """G of the constraints <c, G_j> + r <= h_j on m samples."""
    ang = bodies.sample_angles(mode, m)
    if mode == "curve":
        return np.column_stack([np.cos(ang), np.sin(ang)])
    return np.cos(ang)[:, None]


def _chebyshev(mode, h):
    """(c, r) from the public solver for this mode, c as a 1-d array."""
    A = _solvers.constraint_matrix(_rows(mode, len(h)))
    if mode == "curve":
        return _solvers.chebyshev_center_curve(A, h)
    a, r = _solvers.chebyshev_center_axis(A, h)
    return np.array([a]), r


def _cases():
    """(mode, h) pairs: the criterion-3 pool moved off-centre, finer and
    elongated curves, round bodies and stadiums with a segment of optima."""
    pool = [bodies.random_convex_curve(96, seed=s, amplitude=0.25 + 0.65 * (s % 10) / 10.0)
            for s in range(240)]
    pool += [bodies.random_convex_profile(2, 64, seed=s, amplitude=0.25 + 0.65 * (s % 8) / 8.0)
             for s in range(60)]
    shifts = np.random.default_rng(7).uniform(-0.3, 0.3, size=(len(pool), 2))
    cases = [(b.mode, b.h + bodies.shift_support(b.mode, b.h, s if b.mode == "curve" else s[0]))
             for b, s in zip(pool, shifts)]
    cases += [("curve", bodies.random_convex_curve(256, seed=s, amplitude=0.6).h)
              for s in range(10)]
    cases += [("curve", exact.angenent_oval_slice(t, 128).h) for t in (-0.5, -3.0, -10.0)]
    cases += [("curve", exact.sphere_slice(1, -1.0, 64).h),
              ("axisym", exact.sphere_slice(2, -1.0, 64).h)]
    for mode, m in (("curve", 64), ("axisym", 33)):
        # a segment of length 2 thickened by 0.5: every centre on it is optimal
        cases.append((mode, np.abs(np.cos(bodies.sample_angles(mode, m))) + 0.5))
    return cases


def test_chebyshev_centres_match_scalar_lp():
    for mode, h in _cases():
        G = _rows(mode, len(h))
        c, r = _chebyshev(mode, h)
        assert r == pytest.approx(_reference_radius(G, h), rel=1e-12, abs=0.0), mode
        tol = 1e-9 * max(1.0, 2.0 * float(np.max(np.abs(h))) + 1.0)
        assert np.min(h - G @ c - r) >= -tol, mode


@pytest.mark.parametrize("mode", ["curve", "axisym"])
@pytest.mark.parametrize("h, message", [
    (np.full(33, -1.0), "empty body"),
    (np.where(np.arange(33) == 5, math.nan, 1.0), "non-finite"),
], ids=["empty", "nan"])
def test_infeasible_bodies_raise(mode, h, message):
    with pytest.raises(InfeasibleError, match=message):
        _chebyshev(mode, h)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("component", [0, 1])
def test_chebyshev_center_curve_refuses_non_finite_normals(bad, component):
    # one bad entry of one normal: the simplex returned a NaN centre with a
    # finite radius, or raised an error that named neither the normal nor its
    # row; the matrix the simplex takes is refused as it is built
    body = bodies.random_convex_curve(32, 1)
    nu = body.normals().copy()
    nu[5, component] = bad
    with pytest.raises(InfeasibleError, match=r"^non-finite normal in row 5$"):
        _solvers.chebyshev_center_curve(_solvers.constraint_matrix(nu), body.h)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_chebyshev_center_axis_refuses_non_finite_normals(bad):
    body = bodies.random_convex_profile(2, 32, 1)
    cosphi = np.cos(body.angles())
    cosphi[7] = bad
    with pytest.raises(InfeasibleError, match=r"^non-finite normal in row 7$"):
        _solvers.chebyshev_center_axis(_solvers.constraint_matrix(cosphi), body.h)
