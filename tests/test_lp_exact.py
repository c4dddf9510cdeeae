"""The array form of the Seidel LP against a copy of its scalar form.

The copy below is `_solvers._seidel` and `_lp_1d` as they were written
before their row operations moved to numpy: one Python iteration per
constraint.  Chebyshev centres computed through either must agree bit for
bit, and both infeasibility errors must still be raised.
"""

import numpy as np
import pytest

from mcfflow import _solvers, bodies
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


def _centres(body, shift):
    """Chebyshev centre of the body moved off its own centre by `shift`."""
    if body.mode == "curve":
        nu = body.normals()
        centre, r = _solvers.chebyshev_center_curve(nu, body.h + nu @ shift)
        return np.append(centre, r)
    cosphi = np.cos(body.angles())
    return np.array(_solvers.chebyshev_center_axis(cosphi, body.h + shift[0] * cosphi))


def test_chebyshev_centres_match_scalar_lp(monkeypatch):
    # criterion-3 pool bodies (4/5 plane curves, 1/5 axisymmetric)
    pool = [bodies.random_convex_curve(96, seed=s, amplitude=0.25 + 0.65 * (s % 10) / 10.0)
            for s in range(240)]
    pool += [bodies.random_convex_profile(2, 64, seed=s, amplitude=0.25 + 0.65 * (s % 8) / 8.0)
             for s in range(60)]
    shifts = np.random.default_rng(7).uniform(-0.3, 0.3, size=(len(pool), 2))
    new = [_centres(body, shift) for body, shift in zip(pool, shifts)]
    monkeypatch.setattr(_solvers, "_seidel", _scalar_seidel)
    old = [_centres(body, shift) for body, shift in zip(pool, shifts)]
    assert all(np.array_equal(a, b) for a, b in zip(new, old))


def _infeasible_message(seidel, A, b):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.array([0.0, -1.0])
    lo, hi = np.full(2, -10.0), np.full(2, 10.0)
    with pytest.raises(InfeasibleError) as info:
        seidel(A, b, c, lo, hi, np.random.default_rng(0), 1e-9)
    return str(info.value)


@pytest.mark.parametrize("A, b, message", [
    # y <= 1 and y >= 2: eliminating y leaves 0 <= -1
    ([[0.0, 1.0], [0.0, -1.0]], [1.0, -2.0], "contradictory constant constraint"),
    # 0 <= -1 on the starting corner
    ([[0.0, 0.0]], [-1.0], "violated constraint with null gradient"),
])
def test_infeasible_systems_raise(A, b, message):
    assert _infeasible_message(_solvers._seidel, A, b) == message
    assert _infeasible_message(_scalar_seidel, A, b) == message
