"""Small exact solvers backing the convex-body measurements.

Everything here is deliberately dependency-free and deterministic: the
inscribed-ball problem is a linear program in at most three unknowns and the
enclosing-ball problem is the classic minimum enclosing circle.  Randomized
orders use explicitly seeded generators so repeated runs are bit-identical.
"""

from __future__ import annotations

import numpy as np


class InfeasibleError(ValueError):
    """Raised when a constraint system admits no solution (corrupt body)."""


# ---------------------------------------------------------------------------
# Seidel-style randomized incremental LP, dimensions 1..3 (Seidel 1991).
#
# minimize c.x  subject to  A x <= b  and  lo <= x <= hi  (componentwise).
# Expected O(d! m) for m constraints; m <= 4096 here.  The constraints are
# taken in a seeded random order.  One array comparison finds the next one
# the current optimum violates (NaN counts as violated); the prefix before
# it is then reduced onto its hyperplane with array operations, and the
# 1-d base case is a masked min/max.  The arithmetic is the same, element
# by element, as a scalar loop over the constraints.
# ---------------------------------------------------------------------------

def _lp_1d(A, b, c, lo, hi, tol):
    a = A[:, 0]
    null = np.abs(a) <= tol * 1e-4
    if (b[null] < -tol).any():
        raise InfeasibleError("contradictory constant constraint")
    x = b / np.where(null, 1.0, a)
    # fmin/fmax skip NaN bounds, as the scalar min/max did
    hi = float(np.fmin.reduce(x[~null & (a > 0.0)], initial=hi))
    lo = float(np.fmax.reduce(x[~null & ~(a > 0.0)], initial=lo))
    if lo > hi + tol:
        raise InfeasibleError("empty interval")
    hi = max(hi, lo)
    return np.array([lo if c[0] >= 0.0 else hi])


def _seidel(A, b, c, lo, hi, rng, tol):
    d = len(c)
    if d == 1:
        return _lp_1d(A, b, c, float(lo[0]), float(hi[0]), tol)
    m = len(b)
    if m:
        order = rng.permutation(m)
        A = A[order]
        b = b[order]
    # start at the box corner optimal for the unconstrained problem
    x = np.where(c > 0.0, lo, hi).astype(float)
    i = 0
    while i < m:
        violated = ~(A[i:] @ x <= b[i:] + tol)
        j = int(violated.argmax())
        if not violated[j]:
            break
        i += j
        ai = A[i]
        bi = b[i]
        # optimum of the prefix lies on this hyperplane; eliminate one variable
        k = int(np.argmax(np.abs(ai)))
        aik = ai[k]
        if abs(aik) < tol * 1e-3:
            raise InfeasibleError("violated constraint with null gradient")
        idx = [l for l in range(d) if l != k]
        ai_idx = ai[idx]
        f = A[:i, k] / aik
        rows = np.empty((i + 2, d - 1))
        rhs = np.empty(i + 2)
        rows[:i] = A[:i][:, idx] - f[:, None] * ai_idx
        rhs[:i] = b[:i] - f * bi
        # the eliminated variable keeps its box bounds as ordinary constraints
        box = np.array([1.0, -1.0]) / aik
        rows[i:] = -box[:, None] * ai_idx
        rhs[i:] = np.array([hi[k], -lo[k]]) - box * bi
        c_red = c[idx] - (c[k] / aik) * ai_idx
        y = _seidel(rows, rhs, c_red, lo[idx], hi[idx], rng, tol)
        x = np.empty(d)
        x[idx] = y
        x[k] = (bi - float(ai_idx @ y)) / aik
        i += 1
    return x


# ---------------------------------------------------------------------------
# Chebyshev centers (largest inscribed ball).
# ---------------------------------------------------------------------------

def chebyshev_center_curve(nu, h, seed=0xC3B1):
    """Largest inscribed circle for a plane body given support samples.

    nu: (m,2) unit outer normals, h: (m,) support values.  Solves
    max r subject to <c, nu_j> + r <= h_j.  Returns (center(2,), radius).
    """
    nu = np.asarray(nu, dtype=float)
    h = np.asarray(h, dtype=float)
    bound = 2.0 * float(np.max(np.abs(h))) + 1.0
    A = np.column_stack([nu, np.ones(len(h))])
    c = np.array([0.0, 0.0, -1.0])  # maximize r
    lo = np.array([-bound, -bound, 0.0])
    hi = np.array([bound, bound, bound])
    rng = np.random.default_rng(seed)
    x = _seidel(A, h.copy(), c, lo, hi, rng, 1e-9 * max(1.0, bound))
    return x[:2], float(x[2])


def chebyshev_center_axis(cosphi, h, seed=0xA715):
    """Largest inscribed ball with center constrained to the symmetry axis.

    Solves max r subject to a*cos(phi_j) + r <= h_j over the axial
    coordinate a.  Returns (a, radius).
    """
    cosphi = np.asarray(cosphi, dtype=float)
    h = np.asarray(h, dtype=float)
    bound = 2.0 * float(np.max(np.abs(h))) + 1.0
    A = np.column_stack([cosphi, np.ones(len(h))])
    c = np.array([0.0, -1.0])
    lo = np.array([-bound, 0.0])
    hi = np.array([bound, bound])
    rng = np.random.default_rng(seed)
    x = _seidel(A, h.copy(), c, lo, hi, rng, 1e-9 * max(1.0, bound))
    return float(x[0]), float(x[1])


# ---------------------------------------------------------------------------
# Minimum enclosing circle (plane case) and axial enclosing ball.
# ---------------------------------------------------------------------------

_REL_EPS = 1.0 + 1e-12


def _in_circle(c, p):
    return c is not None and np.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * _REL_EPS + 1e-300


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


def _mec_two_fixed(pts, p, q):
    circ = _diameter_circle(p, q)
    left = None
    right = None
    px, py = p
    qx, qy = q
    for r in pts:
        if _in_circle(circ, r):
            continue
        cross = (qx - px) * (r[1] - py) - (qy - py) * (r[0] - px)
        cc = _circumcircle(p, q, r)
        if cc is None:
            continue
        ccross = (qx - px) * (cc[1] - py) - (qy - py) * (cc[0] - px)
        if cross > 0.0 and (left is None or ccross > (qx - px) * (left[1] - py) - (qy - py) * (left[0] - px)):
            left = cc
        elif cross < 0.0 and (right is None or ccross < (qx - px) * (right[1] - py) - (qy - py) * (right[0] - px)):
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
        if not _in_circle(c, q):
            if c[2] == 0.0:
                c = _diameter_circle(p, q)
            else:
                c = _mec_two_fixed(pts[: i + 1], p, q)
    return c


def min_enclosing_circle(points, seed=0x5EED):
    """Exact minimum enclosing circle of a point set; (center(2,), radius)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ValueError("expected a nonempty (m,2) point array")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pts))
    shuffled = [tuple(pts[i]) for i in order]
    c = None
    for i, p in enumerate(shuffled):
        if not _in_circle(c, p):
            c = _mec_one_fixed(shuffled[: i + 1], p)
    return np.array([c[0], c[1]]), float(c[2])


def axis_enclosing_ball(x, rsq):
    """Smallest ball centered on the axis enclosing circular orbits.

    Orbit j lives at axial coordinate x_j with squared distance rsq_j from
    the axis.  The max of the quadratics (x_j - a)^2 + rsq_j is convex in a,
    so a golden-section search is exact up to the iteration tolerance.
    Returns (a, radius).
    """
    x = np.asarray(x, dtype=float)
    rsq = np.asarray(rsq, dtype=float)

    def f(a):
        return float(np.max((x - a) ** 2 + rsq))

    lo = float(np.min(x))
    hi = float(np.max(x))
    if hi - lo < 1e-300:
        return lo, float(np.sqrt(f(lo)))
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
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
    return best, float(np.sqrt(f(best)))


def bisect_increasing(fn, lo, hi, iters=90):
    """Vectorized bisection for an elementwise increasing fn; returns midpoints."""
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = fn(mid) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)
