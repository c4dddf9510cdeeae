"""Small exact solvers backing the convex-body measurements.

Everything here is dependency-free and deterministic, with no randomness
anywhere: the inscribed-ball and the enclosing-ball problems are linear
programs in at most three unknowns on the same constraint matrix, and one
dual simplex solves both.  Its scalar work (the ratio test, every
comparison) runs on Python floats, which round exactly as numpy's float64
scalars do, at a fraction of the cost per operation; numpy keeps the work
over whole arrays (slacks, basis inverses).

The bodies on one grid start the simplex from the same basis, and the slices
of one flow mostly pivot through the same bases, so each basis inverse and
its last row are kept in a memo keyed by the bytes of the basis rows (a
square basis of d rows has 8 d^2 bytes): two different matrices never share
an entry, and the inverse is a pure function of those rows, so a hit returns
the very values a fresh inversion would and every pivot, centre and radius
stays the same bit for bit.  The memo holds at most `_MAX_INVERSES` (64)
entries and is emptied when full.  The simplex takes its constraint matrix
ready made, from `constraint_matrix`: a grid plan (`bodies.grid_plan`)
builds and checks its own once, and shares it read-only.
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
# row index.  A non-finite normal is refused by its row when A is built, and
# a non-finite support value before any pivot.  A NaN slack is skipped by the
# optimality test but chosen first by the entering-row argmin, so such a row
# is reported rather than pivoted on.  If a basis repeats, the entering row
# becomes the lowest violated one (Bland's rule), which cannot cycle in exact
# arithmetic; a repeat under it is reported rather than looped on.  When the
# optimum is a segment, the vertex the pivots reach is returned.
# ---------------------------------------------------------------------------

def constraint_matrix(G):
    """A = [G, 1], read-only, for the (m, d) or (m,) normals G, refusing a
    non-finite normal by its row."""
    A = np.column_stack([G, np.ones(len(G))])
    if not np.isfinite(A).all():
        row = int(np.isfinite(A).all(axis=1).argmin())
        raise InfeasibleError(f"non-finite normal in row {row}")
    A.flags.writeable = False
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


def _max_inscribed(A, h, basis):
    """(c, r) maximizing r subject to A (c, r) <= h, from a dual-feasible basis."""
    h = np.asarray(h, dtype=float)
    if not np.isfinite(h).all():
        raise InfeasibleError("non-finite support value")
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


def chebyshev_center_curve(A, h):
    """Largest inscribed circle for a plane body given support samples.

    A: the (m,3) constraint matrix [nu | 1] (`constraint_matrix`) of the
    unit outer normals nu at increasing angles once around the circle, h:
    (m,) support values.  Solves max r subject to <c, nu_j> + r <= h_j.
    Returns (center(2,), radius).
    """
    m = len(h)
    # samples a third of the way round from each other positively span
    return _max_inscribed(A, h, [0, m // 3, 2 * m // 3])


def chebyshev_center_axis(A, h):
    """Largest inscribed ball with center constrained to the symmetry axis.

    A: the (m,2) constraint matrix [cos(phi) | 1] (`constraint_matrix`),
    with phi running from the pole 0 to the pole pi.  Solves max r subject
    to a*cos(phi_j) + r <= h_j over the axial coordinate a.  Returns
    (a, radius).
    """
    a, r = _max_inscribed(A, h, [0, len(A) - 1])
    return float(a[0]), r


# ---------------------------------------------------------------------------
# Smallest enclosing balls, by the same dual simplex.
#
# For a convex body, max over x in K of |x - c| = max over u of h(u) - <c, u>,
# so the smallest ball holding every sampled support plane solves
# minimize R subject to h_j - <c, G_j> <= R.  With k = 2 max|h| and c' = -c,
# r = k - R, that is maximize r subject to <c', G_j> + r <= k - h_j: the
# inscribed-ball LP of the support values k - h, on the same matrix and from
# the same start bases.  k makes those values at least max|h|, so that LP
# always has room; an R below zero means the samples hold no body.
# ---------------------------------------------------------------------------

def _min_enclosing(A, h, basis):
    """(c, R) minimizing R subject to h_j - <c, G_j> <= R, A = [G, 1]."""
    h = np.asarray(h, dtype=float)
    k = 2.0 * float(np.max(np.abs(h)))
    c, r = _max_inscribed(A, k - h, basis)
    if k - r < -1e-9 * max(1.0, k + 1.0):
        raise InfeasibleError("empty body: the support planes enclose no point")
    return -c, k - r


def min_enclosing_circle(A, h):
    """Smallest circle holding every sampled support plane of a plane body:
    (center(2,), radius), on the inputs of `chebyshev_center_curve`."""
    return _min_enclosing(A, h, [0, len(A) // 3, 2 * len(A) // 3])


def axis_enclosing_ball(A, h):
    """Smallest ball centred on the axis holding every sampled support plane:
    (a, radius), on the inputs of `chebyshev_center_axis`."""
    a, r = _min_enclosing(A, h, [0, len(A) - 1])
    return float(a[0]), r
