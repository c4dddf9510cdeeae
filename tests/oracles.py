"""Reference computations shared by several test modules.

Each is an independent, slower or more literal form of something the
package computes, kept here for tests to compare against.
"""

import math

import numpy as np

from mcfflow import geometry
from mcfflow._solvers import InfeasibleError
from mcfflow.bodies import MODE_CURVE, _pad


def cubic_excess_pairform(lambdas):
    """Z = H tr(A^3) - |A|^4 in its pair form sum_{i<j} l_i l_j (l_i - l_j)^2."""
    lambdas = np.atleast_2d(lambdas)
    out = np.zeros(len(lambdas))
    n = lambdas.shape[1]
    for i in range(n):
        for j in range(i + 1, n):
            li, lj = lambdas[:, i], lambdas[:, j]
            out += li * lj * (li - lj) ** 2
    return out


# ---------------------------------------------------------------------------
# The engine's 4th-order stencils, written out: five weights summed left to
# right, in the order `np.correlate` sums them.
# ---------------------------------------------------------------------------

def stencil_weights(dx):
    """(w_rho, w_d1) on a grid of step dx: the 5-point h'' weights scaled by
    -1/(32 cos dx - 2 cos 2dx - 30), plus 1 at the centre, and the 5-point h'
    weights over 16 sin dx - 2 sin 2dx; both denominators are formed without
    cancellation, as -16 s (3 + s) with s = sin^2(dx/2) and 4 sin dx (4 - cos dx)."""
    s = math.sin(0.5 * dx) ** 2
    w_rho = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (16.0 * s * (3.0 + s))
    w_rho[2] += 1.0
    w_d1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (4.0 * math.sin(dx) * (4.0 - math.cos(dx)))
    return w_rho, w_d1


def five_point(shifted, w):
    """w[0] e0 + ... + w[4] e4, summed left to right, of the shifted samples
    e0..e4 (e_i reads the sample i - 2 places along)."""
    e0, e1, e2, e3, e4 = shifted
    return w[0] * e0 + w[1] * e1 + w[2] * e2 + w[3] * e3 + w[4] * e4


# ---------------------------------------------------------------------------
# The dual simplex of `mcfflow._solvers` as it was written when every scalar
# went through numpy, with an array ratio test.  Frozen here so the solver can
# be checked against it bit for bit.
# ---------------------------------------------------------------------------

def max_inscribed(G, h, basis):
    """(c, r) maximizing r subject to G c + r <= h, from a dual-feasible basis."""
    h = np.asarray(h, dtype=float)
    if not np.isfinite(h).all():
        raise InfeasibleError("non-finite support value")
    A = np.column_stack([G, np.ones(len(h))])
    tol = 1e-9 * max(1.0, 2.0 * float(np.max(np.abs(h))) + 1.0)
    basis = np.array(basis)
    seen, bland = set(), False
    while True:
        Binv = np.linalg.inv(A[basis])
        x = Binv @ h[basis]
        s = h - A @ x
        violated = s < -tol
        if not violated.any():
            break
        key = tuple(basis)
        if key in seen:
            if bland:
                raise InfeasibleError("dual simplex cycled under Bland's rule")
            bland, seen = True, set()
        seen.add(key)
        q = int(violated.argmax()) if bland else int(s.argmin())
        mu = A[q] @ Binv
        up = mu > 0.0
        if not up.any():
            raise InfeasibleError("no basis row can leave: the constraints are inconsistent")
        ratio = np.where(up, Binv[-1] / np.where(up, mu, 1.0), np.inf)
        basis[int(ratio.argmin())] = q
        basis.sort()
    if x[-1] < -tol:
        raise InfeasibleError("empty body: the support planes leave no room for a ball")
    return x[:-1], float(x[-1])


# ---------------------------------------------------------------------------
# The width and diameter search of `mcfflow.geometry` as it was written when
# its refinement ran as array operations: every start's state in arrays,
# updated by elementwise `np.where`, and one minimizing pass per search.
# Frozen here so `geometry._extrema` can be checked against it bit for bit.
# ---------------------------------------------------------------------------

_ROUND_RTOL = 1e-12
_MAX_TIES = 8
_XATOL = 1e-13
_MAX_ITER = 100


def width_rows(body, t, orders, nyquist):
    rows = body.interpolator().derivative(
        np.concatenate([t, geometry._antipodal_angle(body, t)]), orders, nyquist)
    da = (1.0 if body.mode == MODE_CURVE else -1.0) ** np.asarray(orders)  # a'^m
    return rows[:, :len(t)] + da[:, None] * rows[:, len(t):]


def starts(body, v):
    best = float(np.min(v))
    ties = np.flatnonzero(v <= best + _ROUND_RTOL * abs(best))
    out = [int(np.argmin(v))]
    if len(ties) <= _MAX_TIES:
        e = _pad(body.mode, v, 1)
        lo, hi = np.minimum(e[:-2], e[2:]), np.maximum(e[:-2], e[2:])
        humps = (v <= lo) & (v - (hi - v) <= best)
        humps[ties] = False
        out += np.flatnonzero(humps).tolist()
    return out


def extrema(body):
    grid = geometry._search_grid(body)
    step = grid[1] - grid[0]
    w, c = geometry._grid_width_and_chord(body)
    signs = (1.0, -1.0, -1.0)
    q, i = np.array([(k, j) for k, v in enumerate((w, w, c))
                     for j in starts(body, signs[k] * v)]).T
    sign, chord, x = np.take(signs, q), q == 2, grid[i]
    found = list(zip(q, sign * np.where(chord, c[i], w[i]), x))
    lo, hi = x - step, x + step
    value = np.empty(len(x))
    todo = np.arange(len(x))
    for _ in range(_MAX_ITER):
        if not len(todo):
            break
        t = x[todo]
        W, W1, W2, D, D1, D2 = width_rows(body, t, (0, 1, 2, 1, 2, 3),
                                          (True, True, True, False, False, False))
        C = np.hypot(W, D)
        C1 = (W * W1 + D * D1) / C
        C2 = (W1 * W1 + W * W2 + D1 * D1 + D * D2 - C1 * C1) / C
        ch, sg = chord[todo], sign[todo]
        value[todo] = np.where(ch, C, W)
        d1 = sg * np.where(ch, C1, W1)
        d2 = sg * np.where(ch, C2, W2)
        hi[todo] = np.where(d1 > 0.0, t, hi[todo])
        lo[todo] = np.where(d1 > 0.0, lo[todo], t)
        newton = d2 > 0.0
        dx = -d1 / np.where(newton, d2, 1.0)
        done = np.abs(d1) <= _XATOL * d2
        inside = newton & (lo[todo] < t + dx) & (t + dx < hi[todo])
        dx = np.where(inside | done, dx, 0.5 * (lo[todo] + hi[todo]) - t)
        done |= np.abs(dx) <= _XATOL
        x[todo] = t + dx
        todo = todo[~done]
    found += zip(q, sign * value, x)
    best = [min((v, a) for k, v, a in found if k == j) for j in range(3)]
    return tuple((s * float(v), float(a)) for s, (v, a) in zip(signs, best))
