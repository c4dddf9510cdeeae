"""Small exact solvers backing the convex-body measurements.

Everything here is deliberately dependency-free and deterministic: the
inscribed-ball problem is a linear program in at most three unknowns,
solved by a dual simplex with no randomness, and the enclosing-ball problem
is the classic minimum enclosing circle, whose random insertion order comes
from an explicitly seeded generator so repeated runs are bit-identical.
"""

from __future__ import annotations

import numpy as np


class InfeasibleError(ValueError):
    """Raised when a constraint system admits no solution (corrupt body)."""


# ---------------------------------------------------------------------------
# Chebyshev centers (largest inscribed ball) by the dual simplex.
#
# maximize r  subject to  G c + r <= h,  that is  A x <= h  with  A = [G, 1]
# and x = (c, r) free.  A basis is d rows of A (d = 3 for curves, 2 for
# axisym); its vertex is x = A_B^-1 h_B and its dual weights are
# lam = e_r A_B^-1, the last row of the inverse.  The start bases have
# lam >= 0 because their normals positively span.  Each pivot brings in the
# most violated row q and drops the basis row that keeps lam >= 0 (minimum
# ratio lam_i / mu_i over mu_i > 0, where mu = a_q A_B^-1), so the first
# vertex that violates no row is optimal.  No basis is singular for distinct
# sample angles: three distinct unit normals are never collinear, and two
# distinct angles in [0, pi] have distinct cosines.  Ties go to the lowest
# row index.  If a basis repeats, the entering row becomes the lowest
# violated one (Bland's rule), which cannot cycle in exact arithmetic; a
# repeat under it is reported rather than looped on.  When the optimum is a
# segment, the vertex the pivots reach is returned.
# ---------------------------------------------------------------------------

def _max_inscribed(G, h, basis):
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


def chebyshev_center_curve(nu, h):
    """Largest inscribed circle for a plane body given support samples.

    nu: (m,2) unit outer normals at increasing angles once around the
    circle, h: (m,) support values.  Solves max r subject to
    <c, nu_j> + r <= h_j.  Returns (center(2,), radius).
    """
    m = len(h)
    # samples a third of the way round from each other positively span
    return _max_inscribed(nu, h, [0, m // 3, 2 * m // 3])


def chebyshev_center_axis(cosphi, h):
    """Largest inscribed ball with center constrained to the symmetry axis.

    Solves max r subject to a*cos(phi_j) + r <= h_j over the axial
    coordinate a, with phi running from the pole 0 to the pole pi.
    Returns (a, radius).
    """
    cosphi = np.asarray(cosphi, dtype=float)
    a, r = _max_inscribed(cosphi[:, None], h, [0, len(cosphi) - 1])
    return float(a[0]), r


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
