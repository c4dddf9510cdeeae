"""Measurement kit for the two convex-body representations.

Widths, inner/outer radii, extrinsic and intrinsic diameters, boundary area,
enclosed volume, the isoperimetric ratio, and the explicit constant chain
turning a reverse isoperimetric bound into an outer/inner radius bound.

Conventions.  For a body measured here, ``area`` is the n-dimensional
boundary measure |M| and ``volume`` the (n+1)-dimensional enclosed measure
|Omega|.  Quadrature is trapezoidal with metric weights, O(N^-2), on the
grid weights of ``SupportProfile.weights``.  The outer radius is the
smallest R with h_j - <c, nu_j> <= R at every sample, centred anywhere for a
plane body and on the axis for an axisymmetric one: the smallest ball
holding every sampled support plane, from the dual simplex of the inner
radius, run on the support values alone.  For a convex body max |x - c| over
x in K is max h(u) - <c, u> over all directions u, so this is the exact
outer radius of the samples, a lower-biased estimate of the continuum value
with error O(N^-2) (exact when the farthest directions are sample angles).
Widths and the diameter are the extrema of the width and the antipodal chord
over the normal angle, found on an equispaced direction grid, where the
interpolant is evaluated by zero-padded inverse FFT in O(N log N), and
refined together by one batched, safeguarded Newton iteration on the
interpolant's exact derivatives, summed directly at the off-grid iterates
(see _extrema).  The iteration keeps each start's bookkeeping on Python
floats and leaves numpy one interpolant call and one `hypot` per iteration,
over the same batch of starts as an array form would use: a matrix product
rounds by the set of angles it is given, so the batches are what keeps the
results the same bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import math

import numpy as np

from . import _solvers
from .bodies import (CapState, MODE_AXISYM, MODE_CURVE, _pad, chebyshev_ball, recentre,
                     sphere_surface_area, unit_ball_volume)


@dataclass(frozen=True)
class BodyMeasurements:
    w_minus: float
    w_plus: float
    diam: float
    diam_I: float
    rho_minus: float
    rho_plus: float
    area: float
    volume: float
    iso_ratio: float

    def as_dict(self):
        return asdict(self)


def _direction_angle(body, direction):
    """Reduce a direction to its normal angle; accepts angles or unit vectors."""
    if np.isscalar(direction):
        angle = float(direction)
        if not math.isfinite(angle):
            raise ValueError("direction angle must be finite")
        return angle
    v = np.asarray(direction, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("direction vector must be finite")
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    if body.mode == MODE_CURVE:
        if v.shape != (2,):
            raise ValueError("plane bodies take 2-vector directions")
        return math.atan2(v[1], v[0])
    # axisym: only the angle against the rotation axis matters
    if v.shape[0] < 2:
        raise ValueError("ambient directions need at least 2 components")
    return math.atan2(float(np.linalg.norm(v[1:])), float(v[0]))


def _search_grid(body):
    """Directions searched for width and chord extrema: the curve's sample
    angles, or 2N+1 meridian angles on [0, pi/2] for an axisym body."""
    return body.plan.search_grid


def _antipodal_angle(body, t):
    """Normal angle of -nu (curve), or of its mirror image in the meridian
    plane (axisym, where h is even about the axis)."""
    return t + math.pi if body.mode == MODE_CURVE else math.pi - t


# a'^m for the orders m = 0..3 of the antipodal angle a(t) = t + pi (curve)
# or pi - t (axisym)
_ANTIPODE_POWERS = {MODE_CURVE: np.ones(4), MODE_AXISYM: np.array([1.0, -1.0, 1.0, -1.0])}


def _width_rows(body, t, orders, nyquist):
    """Derivatives d^m/dt^m of the width W(t) = h(t) + h(a(t)) at every
    normal angle of the array t, a the antipodal angle: one row per order m,
    with the interpolant's Nyquist mode kept or dropped per row (see
    _TrigInterp.derivative), from one interpolant call."""
    rows = body.interpolator().derivative(
        np.concatenate([t, _antipodal_angle(body, t)]), orders, nyquist)
    da = np.take(_ANTIPODE_POWERS[body.mode], orders)
    return rows[:, :len(t)] + da[:, None] * rows[:, len(t):]


def _search_index(body):
    """(m, j, a): the search grid as the indices j of the m angles 2*pi*i/m,
    and the indices a of their antipodal angles.  A curve searches its m = N
    sample angles, antipode j + N/2; an axisym body the first 2N+1 of the
    m = 8N angles over the even extension, antipode 4N - j."""
    return body.plan.search_index


def _grid_width_and_chord(body):
    """Width W and antipodal chord C on the search grid, from one inverse FFT
    per row (see _TrigInterp.grid_derivative).  The chord joins the contact
    points of nu and -nu (for axisym, of the mirror image of -nu in the
    meridian plane): it is W nu + D nu_perp, with D = W' from the spectral
    derivative."""
    m, j, a = _search_index(body)
    h, hp = body.interpolator().grid_derivative(m, (0, 1), (True, False))
    w = h[j] + h[a]
    d = hp[j] + hp[a] if body.mode == MODE_CURVE else hp[j] - hp[a]
    return w, np.hypot(w, d)


def width(body, direction):
    """Width h(nu) + h(-nu) in one direction (interpolated)."""
    t = np.array([_direction_angle(body, direction)])
    return float(_width_rows(body, t, (0,), (True,))[0, 0])


_ROUND_RTOL = 1e-12  # grid values this close to the best are rounding-level ties
_MAX_TIES = 8        # more ties than this: the body is round to rounding
_XATOL = 1e-13       # refined angles are converged to this
_MAX_ITER = 100      # a bound only: bisection alone converges in under 45


def _starts(body, v):
    """(minimizing, maximizing): the grid indices refined when minimizing and
    when maximizing over the grid values v (see _extrema), from one pass over
    each point's two grid neighbours; a grid step's variation is its larger
    neighbour difference.  Maximizing v is minimizing -v, and rounding is
    odd-symmetric, so each maximizing test is the minimizing test of -v
    negated, exactly."""
    # neighbours: the curve grid is periodic; on [0, pi/2] widths and
    # chords are even about both ends, as axisym samples are at the poles
    e = _pad(body.mode, v, 1)
    lo, hi = np.minimum(e[:-2], e[2:]), np.maximum(e[:-2], e[2:])
    bottom, top = float(v.min()), float(v.max())
    return (_humps(v <= bottom + _ROUND_RTOL * abs(bottom), int(v.argmin()),
                   (v <= lo) & (v - (hi - v) <= bottom)),
            _humps(v >= top - _ROUND_RTOL * abs(top), int(v.argmax()),
                   (v >= hi) & (v - (lo - v) >= top)))


def _humps(tied, first, humps):
    """The first best grid index, then every grid local extremum within its
    grid step's variation of the best that is not tied with the best; only
    the first when more than _MAX_TIES points tie (the body is round to
    rounding, and any tie will do)."""
    ties = tied.nonzero()[0]
    if len(ties) > _MAX_TIES:
        return [first]
    humps[ties] = False
    return [first] + humps.nonzero()[0].tolist()


# the rows of one refinement call: W, W', W'' keep the Nyquist mode, as W
# does; D = W', D', D'' drop it, as the spectral derivative does
_REFINE_ORDERS = (0, 1, 2, 1, 2, 3)
_REFINE_NYQUIST = (True, True, True, False, False, False)


def _extrema(body):
    """((w_minus, angle), (w_plus, angle), (diam, angle)): the extrema of
    the width W and of the antipodal chord C = hypot(W, D) over all normal
    angles (see _grid_width_and_chord).

    Grid stage: two inverse FFTs of the interpolant, of h and of h', give W
    and C on the search grid, read at the grid angles and their antipodes
    (see _search_index).  Each search refines its first best grid value and
    every other grid local extremum within its own grid step's variation of
    the best: nearly tied humps can swap order once refined, and refining
    gains at most a quarter of that variation on a quadratic.

    Refinement: all starts go into one safeguarded Newton iteration on the
    derivative (rtsafe, Numerical Recipes 9.4), one interpolant call per
    iteration.  Each start keeps a bracket of one grid step either side,
    narrowed by the sign of the derivative; an uphill Newton step, or one
    leaving the bracket, becomes a bisection.  A start is converged once its
    step is at most _XATOL.  The derivatives are exact for the functions as
    evaluated: W' and W'' keep the Nyquist mode, as W does; D' and D'' drop
    it, as D does.  Each quantity is the best of its refined and grid
    candidates; the diameter stays a search independent of the widths.

    Each start's state (angle, bracket, value) is a Python float, and the
    rtsafe update runs on floats start by start, with the operations of the
    elementwise array form in the same order, so it rounds identically.
    numpy keeps the array work: each iteration makes one `_width_rows` call
    over the unfinished starts, in start order, and one `np.hypot` over that
    batch (`math.hypot` differs from it by an ulp on some pairs).  The
    batches are fixed: a matrix product over a different set of angles
    rounds differently in the last bit, so evaluating the starts one at a
    time, or merging iterations, would move the results.
    """
    grid = _search_grid(body)
    step = float(grid[1] - grid[0])
    w, c = _grid_width_and_chord(body)
    starts = (*_starts(body, w), _starts(body, c)[1])
    signs = (1.0, -1.0, -1.0)  # w_minus, w_plus, diam: minimize sign * value
    q = [k for k, s in enumerate(starts) for _ in s]
    i = [j for s in starts for j in s]
    sign, x = [signs[k] for k in q], grid[i].tolist()
    found = [(k, signs[k] * (c if k == 2 else w)[j], a) for k, j, a in zip(q, i, x)]
    lo, hi = [a - step for a in x], [a + step for a in x]
    value = [0.0] * len(x)
    todo = list(range(len(x)))
    for _ in range(_MAX_ITER):
        if not todo:
            break
        rows = _width_rows(body, np.array([x[j] for j in todo]), _REFINE_ORDERS,
                           _REFINE_NYQUIST)
        chords = np.hypot(rows[0], rows[3]).tolist()
        unfinished = []
        for j, (W, W1, W2, D, D1, D2), C in zip(todo, rows.T.tolist(), chords):
            t, sg = x[j], sign[j]
            if q[j] == 2:  # the chord
                C1 = (W * W1 + D * D1) / C
                C2 = (W1 * W1 + W * W2 + D1 * D1 + D * D2 - C1 * C1) / C
                value[j], d1, d2 = C, sg * C1, sg * C2
            else:
                value[j], d1, d2 = W, sg * W1, sg * W2
            # the minimum of sign * f lies left of t where its slope is positive
            if d1 > 0.0:
                hi[j] = t
            else:
                lo[j] = t
            newton = d2 > 0.0
            dx = -d1 / (d2 if newton else 1.0)
            done = abs(d1) <= _XATOL * d2  # |dx| <= _XATOL, or flat: d1 = d2 = 0
            if not (done or newton and lo[j] < t + dx < hi[j]):
                dx = 0.5 * (lo[j] + hi[j]) - t
            x[j] = t + dx
            if not (done or abs(dx) <= _XATOL):
                unfinished.append(j)
        todo = unfinished
    found += zip(q, [s * v for s, v in zip(sign, value)], x)
    best = [min((v, a) for k, v, a in found if k == j) for j in range(3)]
    return tuple((s * float(v), float(a)) for s, (v, a) in zip(signs, best))


def min_max_width(body):
    """(w_minus, w_plus): width extrema over all directions.

    Axisymmetric bodies reduce to a search over the meridian angle in
    [0, pi/2] (phi = pi/2 is the equatorial direction).
    """
    (w_minus, _), (w_plus, _), _ = _extrema(body)
    return w_minus, w_plus


def diameter(body):
    """Extrinsic diameter via the maximal antipodal chord.

    Independent of :func:`min_max_width`; for a convex body the two agree
    (the maximal chord joins contact points with antiparallel normals).
    """
    return _extrema(body)[2][0]


def outer_radius(body):
    """Radius of the smallest ball holding every sampled support plane: the
    enclosing-ball LP on the support samples and the grid plan's matrix."""
    if body.mode == MODE_CURVE:
        return _solvers.min_enclosing_circle(body.plan.lp_matrix, body.h)[1]
    return _solvers.axis_enclosing_ball(body.plan.lp_matrix, body.h)[1]


def inner_radius(body):
    """Chebyshev radius: the largest ball inside all sampled support planes."""
    return chebyshev_ball(body.mode, body.h)[1]


def area_and_volume(body):
    """(|M|, |Omega|) by support-function quadrature.

    Plane curves use |M| = int h dtheta and |Omega| = 1/2 int h rho dtheta;
    surfaces of revolution use the meridian integrals with the (n-1)-sphere
    cross-section measure and |Omega| = 1/(n+1) int h dmu.
    """
    rho = body.curvature_radius()
    if body.mode == MODE_CURVE:
        dtheta = body.step
        perim = float(np.sum(body.h) * dtheta)
        vol = 0.5 * float(np.sum(body.h * rho) * dtheta)
        return perim, vol
    n = body.n
    r = body.axis_distance()
    r = np.maximum(r, 0.0)  # poles are exactly 0 up to roundoff
    w = body.weights()
    sigma = sphere_surface_area(n - 1)
    area = sigma * float(np.sum(r ** (n - 1) * rho * w))
    vol = sigma / (n + 1.0) * float(np.sum(body.h * r ** (n - 1) * rho * w))
    return area, vol


def meridian_length(body):
    """Pole-to-pole arc length of the generating curve (axisym only)."""
    if body.mode != MODE_AXISYM:
        raise ValueError("meridian_length needs an axisym profile")
    return float(np.sum(body.curvature_radius() * body.weights()))


def intrinsic_diameter(body):
    """Intrinsic diameter of the boundary hypersurface.

    Plane curves: half the perimeter.  Surfaces of revolution: the meridian
    pole-to-pole length (the meridian-plane section is a closed geodesic and
    azimuthally opposite points realize the maximum distance through it).
    """
    if body.mode == MODE_CURVE:
        perim, _ = area_and_volume(body)
        return 0.5 * perim
    return meridian_length(body)


def iso_ratio(body):
    """Scale-invariant isoperimetric ratio |M|^(n+1) / |Omega|^n."""
    return _iso_ratio(*area_and_volume(body), body.n)


def _iso_ratio(area, vol, n):
    """|M|^(n+1) / |Omega|^n, as (|M|/|Omega|)^n |M| where a power leaves the
    float range (a large n = 13 sphere overflows area^14)."""
    try:
        return area ** (n + 1) / vol ** n
    except (OverflowError, ZeroDivisionError):
        return (area / vol) ** n * area


def reverse_iso_radius_bound(c1, n):
    """Outer/inner radius ratio implied by an isoperimetric bound.

    A closed convex body with |M|^(n+1) <= c1 |Omega|^n has projection area
    at most c1 w_-^n, which forces w_+ <= (c1 + 1) w_- for n = 1 and
    w_+ <= (1 + c1/kappa_n) w_- for n > 1 with
    kappa_n = omega_{n-1} / (2 n (n+2)^(n-1)); combined with the standard
    width/radius inequalities this bounds rho_+/rho_- explicitly.  The chain
    is not sharp and no sharpness is claimed.
    """
    if c1 <= 0.0:
        raise ValueError("c1 must be positive")
    if n == 1:
        widths = c1 + 1.0
    else:
        kappa_n = unit_ball_volume(n - 1) / (2.0 * n * (n + 2.0) ** (n - 1))
        widths = 1.0 + c1 / kappa_n
    return (n + 2.0) / math.sqrt(2.0) * widths


@dataclass(frozen=True)
class ShadowFacts:
    """Projection of the boundary onto the hyperplane orthogonal to the
    minimal-width direction: its n-measure, its diameter, and the widths."""
    area: float
    diam: float
    w_minus: float
    w_plus: float


def shadow_measurements(body):
    """Shadow facts used by projection inequalities (n=1 and axisym n=2)."""
    if body.mode == MODE_AXISYM and body.n != 2:
        raise ValueError("shadow facts implemented for n = 1 and axisym n = 2")
    (w_minus, t0), (w_plus, _), (diam, _) = _extrema(body)
    if body.mode == MODE_CURVE:
        # project onto the normal line of the minimal-width direction
        length = width(body, t0 + math.pi / 2.0)
        return ShadowFacts(area=length, diam=length, w_minus=w_minus, w_plus=w_plus)
    if t0 < math.pi / 4.0:
        # min width along the axis: shadow is the disk swept by the largest orbit
        rmax = float(np.max(body.boundary_points()[:, 1]))
        return ShadowFacts(area=math.pi * rmax * rmax, diam=2.0 * rmax,
                           w_minus=w_minus, w_plus=w_plus)
    # min width equatorial: shadow is the planar profile region
    rho = body.curvature_radius()
    profile_area = float(np.sum(body.h * rho) * body.step)  # full period of the even profile * 1/2
    return ShadowFacts(area=profile_area, diam=diam, w_minus=w_minus, w_plus=w_plus)


def measure(body):
    """All standard measurements of one body as a BodyMeasurements record.

    Computed once per body and cached on it (see SupportProfile).
    """
    if isinstance(body, CapState):
        raise TypeError("cap slices are measured in the ambient sphere; "
                        "Euclidean body measurements do not apply")
    m = body._cache.get("measure")
    if m is None:
        (w_minus, _), (w_plus, _), (diam, _) = _extrema(body)
        diam_i = intrinsic_diameter(body)
        area, vol = area_and_volume(body)
        m = body._cache["measure"] = BodyMeasurements(
            w_minus=w_minus, w_plus=w_plus, diam=diam, diam_I=diam_i,
            rho_minus=inner_radius(body), rho_plus=outer_radius(body),
            area=area, volume=vol,
            iso_ratio=_iso_ratio(area, vol, body.n),
        )
    return m


def hausdorff_distance(body_a, body_b, recenter=True):
    """Hausdorff distance between two convex bodies of the same mode.

    For convex bodies this equals the sup-norm distance of the support
    functions, evaluated on the common grid.  By default both bodies are
    recentered at their Chebyshev centers first (shape comparison).
    """
    if body_a.mode != body_b.mode or body_a.N != body_b.N:
        raise ValueError("bodies must share mode and grid")
    ha, hb = body_a.h, body_b.h
    if recenter:
        ha, _ = recentre(body_a.mode, ha)
        hb, _ = recentre(body_b.mode, hb)
    return float(np.max(np.abs(ha - hb)))
