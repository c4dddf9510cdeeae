"""Reference computations shared by several test modules.

Each is an independent, slower or more literal form of something the
package computes, kept here for tests to compare against.
"""

import itertools
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
# The two small solvers of `mcfflow._solvers` as they were written when every
# scalar went through numpy: one `np.hypot` call per distance, one containment
# test per point and candidate, and an array ratio test in the dual simplex.
# Frozen here so the solvers can be checked against them bit for bit.
# ---------------------------------------------------------------------------

_REL_EPS = 1.0 + 1e-12
_MAX_SUPPORT_ITERS = 64


def _in_circle(c, p):
    return np.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * _REL_EPS + 1e-300


def _diameter_circle(p, q):
    cx = 0.5 * (p[0] + q[0])
    cy = 0.5 * (p[1] + q[1])
    r = max(np.hypot(cx - p[0], cy - p[1]), np.hypot(cx - q[0], cy - q[1]))
    return (cx, cy, r)


def _circumcircle(a, b, c):
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
    r = max(np.hypot(x - a[0], y - a[1]),
            np.hypot(x - b[0], y - b[1]),
            np.hypot(x - c[0], y - c[1]))
    return (x, y, r)


def _smallest_cover(support):
    best = None
    for k in (2, 3):
        for sub in itertools.combinations(support, k):
            c = _diameter_circle(*sub) if k == 2 else _circumcircle(*sub)
            if c is None or (best is not None and c[2] >= best[1][2]):
                continue
            if all(_in_circle(c, p) for p in support):
                best = (list(sub), c)
    return best


def enclosing_circle(pts):
    """(cx, cy, r) of the minimum enclosing circle of an (m,2) point array."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ValueError("expected a nonempty (m,2) point array")
    if not np.isfinite(pts).all():
        raise ValueError("non-finite point in the enclosing-circle input")
    x, y = pts[:, 0], pts[:, 1]
    i = int(np.argmax(np.hypot(x - x[0], y - y[0])))
    j = int(np.argmax(np.hypot(x - x[i], y - y[i])))
    support = [tuple(pts[i]), tuple(pts[j])]
    c = _diameter_circle(*support)
    for _ in range(_MAX_SUPPORT_ITERS):
        d = np.hypot(x - c[0], y - c[1])
        k = int(np.argmax(d))
        if d[k] <= c[2] * _REL_EPS + 1e-300:
            return c
        support, c = _smallest_cover(support + [tuple(pts[k])])
    raise FloatingPointError(
        f"enclosing circle did not settle in {_MAX_SUPPORT_ITERS} support updates")


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
