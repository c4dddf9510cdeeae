"""Small exact solvers backing the convex-body measurements.

Everything here is dependency-free and deterministic, with no randomness
anywhere: the inscribed-ball problem is a linear program in at most three
unknowns, solved by a dual simplex, and the enclosing-ball problem is the
minimum enclosing circle, found by a support-set iteration whose support
never holds more than three points.

Both solvers are small, so their scalar work (the circle centres, the
simplex ratio test, every comparison) runs on Python floats: these round
exactly as numpy's float64 scalars do, at a fraction of the cost per
operation.  numpy keeps the work over whole arrays (slacks, distances to
every point), the basis inverses and every `hypot`: each support update of
the enclosing circle makes one `np.hypot` table of its candidate centres
against its points.  `math.hypot` is not a substitute, as it differs from
`np.hypot` by one ulp on about 0.6% of random pairs, which moves radii.

The bodies on one grid start the simplex from the same basis, and the slices
of one flow mostly pivot through the same bases, so each basis inverse and
its last row are kept in a memo keyed by the bytes of the basis rows (a
square basis of d rows has 8 d^2 bytes): two different matrices never share
an entry, and the inverse is a pure function of those rows, so a hit returns
the very values a fresh inversion would and every pivot, centre and radius
stays the same bit for bit.  The memo holds at most `_MAX_INVERSES` (64)
entries and is emptied when full.  A grid plan's constraint matrix is built
and checked once (`plan_matrix`) and reused whenever the plan's own normals
are passed in.
"""

from __future__ import annotations

import itertools
import weakref

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
# row index.  A non-finite support value or normal is refused up front, the
# normal by its row.  A NaN slack is skipped by the optimality test but
# chosen first by the entering-row argmin, so such a row is reported rather
# than pivoted on.  If a basis repeats, the entering row becomes the lowest
# violated one (Bland's rule), which cannot cycle in exact arithmetic; a
# repeat under it is reported rather than looped on.  When the optimum is a
# segment, the vertex the pivots reach is returned.
# ---------------------------------------------------------------------------

def _constraints(G, m):
    """A = [G, 1] of m rows for the (m, d) or (m,) normals G, refusing a
    non-finite normal by its row."""
    A = np.column_stack([G, np.ones(m)])
    if not np.isfinite(A).all():
        row = int(np.isfinite(A).all(axis=1).argmin())
        raise InfeasibleError(f"non-finite normal in row {row}")
    return A


# the grid plans' constraint matrices by the id of their normals; an entry
# goes when its normals do, before their id can be taken by another array
_PLAN_MATRICES = {}


def plan_matrix(G):
    """[G, 1] of a grid plan's normals G (bodies.grid_plan), built, checked
    and made read-only once."""
    A = _constraints(G, len(G))
    A.flags.writeable = False
    _PLAN_MATRICES[id(G)] = A
    weakref.finalize(G, _PLAN_MATRICES.pop, id(G), None)
    return A


_MAX_INVERSES = 64  # the memo's bound; it is emptied when full
_INVERSES = {}  # the bytes of a basis matrix B: (inv(B), its last row as floats)


def _inverse(B):
    key = B.tobytes()
    entry = _INVERSES.get(key)
    if entry is None:
        if len(_INVERSES) >= _MAX_INVERSES:
            _INVERSES.clear()
        Binv = np.linalg.inv(B)
        Binv.flags.writeable = False
        entry = _INVERSES[key] = Binv, Binv[-1].tolist()
    return entry


def _max_inscribed(G, h, basis):
    """(c, r) maximizing r subject to G c + r <= h, from a dual-feasible basis."""
    h = np.asarray(h, dtype=float)
    if not np.isfinite(h).all():
        raise InfeasibleError("non-finite support value")
    A = _PLAN_MATRICES.get(id(G))
    if A is None or len(A) != len(h):
        A = _constraints(G, len(h))
    tol = 1e-9 * max(1.0, 2.0 * float(np.max(np.abs(h))) + 1.0)
    basis = np.array(basis)
    seen, bland = set(), False
    while True:
        Binv, lam = _inverse(A.take(basis, 0))
        x = Binv @ h[basis]
        s = h - A @ x
        if not np.fmin.reduce(s) < -tol:
            break
        key = tuple(basis.tolist())
        if key in seen:
            if bland:
                raise InfeasibleError("dual simplex cycled under Bland's rule")
            bland, seen = True, set()
        seen.add(key)
        q = int((s < -tol).argmax()) if bland else int(s.argmin())
        mu = (A[q] @ Binv).tolist()
        ratios = [(lam[i] / mu[i], i) for i in range(len(mu)) if mu[i] > 0.0]
        if not ratios:
            raise InfeasibleError("no basis row can leave: the constraints are inconsistent")
        basis[min(ratios)[1]] = q
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
    a, r = _max_inscribed(cosphi, h, [0, len(cosphi) - 1])
    return float(a[0]), r


# ---------------------------------------------------------------------------
# Minimum enclosing circle (plane case) and axial enclosing ball.
# ---------------------------------------------------------------------------

_REL_EPS = 1.0 + 1e-12


def _midpoint(p, q):
    return 0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1])


def _circumcentre(a, b, c):
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
    return x, y


_MAX_SUPPORT_ITERS = 64
# the index pairs, then the index triples, of a support of n points, each in
# `itertools.combinations` order: the candidate circles of one support update
_CANDIDATES = {n: [sub for k in (2, 3) for sub in itertools.combinations(range(n), k)]
               for n in (2, 3, 4)}


def _smallest_cover(support):
    """(support, circle): the smallest circle through 2 or 3 of the 2 to 4
    points given that covers all of them, and the points defining it.

    Candidates go in `_CANDIDATES` order and the first smallest wins; a
    triple whose points are collinear has no centre and is dropped.  One
    `np.hypot` table of every candidate centre against every point gives both
    a candidate's radius (the largest distance to its defining points) and
    its containment test.  The points are finite, so a row of the table is
    NaN throughout or nowhere, and its max decides containment as a test of
    every point would.
    """
    subsets, centres = [], []
    for sub in _CANDIDATES[len(support)]:
        c = (_midpoint(support[sub[0]], support[sub[1]]) if len(sub) == 2
             else _circumcentre(support[sub[0]], support[sub[1]], support[sub[2]]))
        if c is not None:
            subsets.append(sub)
            centres.append(c)
    offset = np.array(centres)[:, None, :] - np.array(support)
    dist = np.hypot(offset[..., 0], offset[..., 1]).tolist()
    best = None
    for sub, (cx, cy), row in zip(subsets, centres, dist):
        r = max([row[i] for i in sub])
        if best is not None and r >= best[1][2]:
            continue
        if max(row) <= r * _REL_EPS + 1e-300:
            best = ([support[i] for i in sub], (cx, cy, r))
    return best


def _enclosing_circle(pts):
    """(cx, cy, r) of the minimum enclosing circle of an (m,2) point array.

    Support-set iteration (Elzinga and Hearn 1972): start from the circle on
    the farthest pair; while some point lies outside, add the farthest one to
    the support and replace the support by the at most 3 of its points that
    define the smallest circle covering it.  The radius grows strictly, so
    the iteration ends; a run past the cap is reported, not looped on.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ValueError("expected a nonempty (m,2) point array")
    if not np.isfinite(pts).all():
        raise ValueError("non-finite point in the enclosing-circle input")
    x, y = pts[:, 0], pts[:, 1]
    i = int(np.argmax(np.hypot(x - x[0], y - y[0])))
    j = int(np.argmax(np.hypot(x - x[i], y - y[i])))
    support, c = _smallest_cover([tuple(pts[i].tolist()), tuple(pts[j].tolist())])
    for _ in range(_MAX_SUPPORT_ITERS):
        d = np.hypot(x - c[0], y - c[1])
        k = int(np.argmax(d))
        if d[k] <= c[2] * _REL_EPS + 1e-300:
            return c
        support, c = _smallest_cover(support + [tuple(pts[k].tolist())])
    raise FloatingPointError(
        f"enclosing circle did not settle in {_MAX_SUPPORT_ITERS} support updates")


def min_enclosing_circle(points):
    """Exact minimum enclosing circle of a point set; (center(2,), radius)."""
    c = _enclosing_circle(points)
    return np.array([c[0], c[1]]), float(c[2])


def axis_enclosing_ball(x, rsq):
    """Smallest ball centered on the axis enclosing circular orbits.

    Orbit j lives at axial coordinate x_j with squared distance rsq_j from
    the axis.  The result is the minimum enclosing circle of the meridian
    points (x_j, +-sqrt(rsq_j)), which is exact: that point set is symmetric
    about the axis and its minimum enclosing circle is unique, so the centre
    lies on the axis, and a ball centred on the axis holds orbit j exactly
    when it holds (x_j, sqrt(rsq_j)).  Returns (a, radius).
    """
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.asarray(rsq, dtype=float))
    c = _enclosing_circle(np.column_stack([np.concatenate([x, x]),
                                           np.concatenate([r, -r])]))
    return float(c[0]), float(c[2])

