"""Measurement kit for the two convex-body representations.

Widths, inner/outer radii, extrinsic and intrinsic diameters, boundary area,
enclosed volume, the isoperimetric ratio, and the explicit constant chain
turning a reverse isoperimetric bound into an outer/inner radius bound.

Conventions.  For a body measured here, ``area`` is the n-dimensional
boundary measure |M| and ``volume`` the (n+1)-dimensional enclosed measure
|Omega|.  Quadrature is trapezoidal with metric weights, O(N^-2).  The outer
radius is the exact minimum enclosing ball of the sampled boundary, a
lower-biased estimate of the continuum value with error O(N^-2), computed
deterministically: for a plane body the minimum enclosing circle of the
boundary points, for an axisymmetric body the minimum enclosing circle of the
meridian and its mirror image in the axis.  Widths and the diameter are the
extrema of one array function each of the normal angle, found on a direction
grid and refined by bounded Brent on the same function.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy import optimize

from . import _solvers
from .bodies import (CapState, MODE_AXISYM, MODE_CURVE, chebyshev_ball, recentre,
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
        return {
            "w_minus": self.w_minus, "w_plus": self.w_plus,
            "diam": self.diam, "diam_I": self.diam_I,
            "rho_minus": self.rho_minus, "rho_plus": self.rho_plus,
            "area": self.area, "volume": self.volume,
            "iso_ratio": self.iso_ratio,
        }


def _direction_angle(body, direction):
    """Reduce a direction to its normal angle; accepts angles or unit vectors."""
    if np.isscalar(direction):
        return float(direction)
    v = np.asarray(direction, dtype=float)
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
    if body.mode == MODE_CURVE:
        return body.angles()
    return np.linspace(0.0, math.pi / 2.0, 2 * body.N + 1)


def _antipodal_angle(body, t):
    """Normal angle of -nu (curve), or of its mirror image in the meridian
    plane (axisym, where h is even about the axis)."""
    return t + math.pi if body.mode == MODE_CURVE else math.pi - t


def _width_fn(body):
    """Width h(nu) + h(-nu) at every normal angle of the array t, from one
    interpolant call."""
    interp = body.interpolator()

    def width_at(t):
        h = interp(np.concatenate([t, _antipodal_angle(body, t)]))
        return h[:len(t)] + h[len(t):]
    return width_at


def width(body, direction):
    """Width h(nu) + h(-nu) in one direction (interpolated)."""
    return float(_width_fn(body)(np.array([_direction_angle(body, direction)]))[0])


_ROUND_RTOL = 1e-12  # grid values this close to the best are rounding-level ties
_MAX_TIES = 8        # more ties than this: the body is round to rounding


def _extremum(body, fn, sign):
    """(value, angle) of the minimum of sign * fn over all directions, where
    fn maps an array of normal angles to an array of values.

    The best value of fn on the search grid is refined by bounded Brent one
    grid step either side.  So is every other grid local extremum that lies
    within its own grid step's variation (the larger difference to a
    neighbour) of the best: two nearly tied humps can swap order once
    refined, and refining a hump gains at most a quarter of that variation
    on a quadratic.  Among rounding-level ties of the best only the first is
    refined.
    """
    grid = _search_grid(body)
    v = sign * fn(grid)
    best = float(np.min(v))
    ties = np.flatnonzero(v <= best + _ROUND_RTOL * abs(best))
    starts = [int(np.argmin(v))]
    if len(ties) <= _MAX_TIES:  # more: the body is round, any tie will do
        # neighbours: the curve grid is periodic; on [0, pi/2] widths and
        # chords are even about both ends
        e = (np.concatenate([v[-1:], v, v[:1]]) if body.mode == MODE_CURVE
             else np.concatenate([v[1:2], v, v[-2:-1]]))
        lo, hi = np.minimum(e[:-2], e[2:]), np.maximum(e[:-2], e[2:])
        humps = (v <= lo) & (v - (hi - v) <= best)
        humps[ties] = False
        starts += np.flatnonzero(humps).tolist()
    step = grid[1] - grid[0]
    f = lambda t: sign * float(fn(np.array([t]))[0])
    found = []
    for i in starts:
        t = grid[i]
        res = optimize.minimize_scalar(f, bounds=(t - step, t + step), method="bounded",
                                       options={"xatol": 1e-13})
        found += [(float(res.fun), float(res.x)), (float(v[i]), float(t))]
    value, angle = min(found)
    return sign * value, angle


def _width_extrema(body):
    """((w_minus, its angle), (w_plus, its angle))."""
    w = _width_fn(body)
    return _extremum(body, w, 1.0), _extremum(body, w, -1.0)


def min_max_width(body):
    """(w_minus, w_plus): width extrema over all directions.

    Axisymmetric bodies reduce to a search over the meridian angle in
    [0, pi/2] (phi = pi/2 is the equatorial direction).
    """
    (w_minus, _), (w_plus, _) = _width_extrema(body)
    return w_minus, w_plus


def _chord_fn(body):
    """Length of the chord between the contact points of nu and -nu at every
    normal angle of the array t, from one interpolant call and one
    derivative call."""
    interp = body.interpolator()

    def chord_at(t):
        s = _antipodal_angle(body, t)
        both = np.concatenate([t, s])
        (h1, h2), (d1, d2) = interp(both).reshape(2, -1), interp.derivative(both).reshape(2, -1)
        if body.mode == MODE_CURVE:
            # chord = w * nu + w' * nu_perp in the frame of nu
            return np.hypot(h1 + h2, d1 + d2)
        x1 = h1 * np.cos(t) - d1 * np.sin(t)
        r1 = h1 * np.sin(t) + d1 * np.cos(t)
        x2 = h2 * np.cos(s) - d2 * np.sin(s)
        r2 = h2 * np.sin(s) + d2 * np.cos(s)
        return np.hypot(x1 - x2, r1 + r2)
    return chord_at


def diameter(body):
    """Extrinsic diameter via the maximal antipodal chord.

    Independent of :func:`min_max_width`; for a convex body the two agree
    (the maximal chord joins contact points with antiparallel normals).
    """
    return _extremum(body, _chord_fn(body), -1.0)[0]


def outer_radius(body):
    """Radius of the smallest enclosing ball of the sampled boundary."""
    pts = body.boundary_points()
    if body.mode == MODE_CURVE:
        _, r = _solvers.min_enclosing_circle(pts)
        return r
    # orbits of the meridian samples; center constrained to the axis
    _, r = _solvers.axis_enclosing_ball(pts[:, 0], pts[:, 1] ** 2)
    return r


def inner_radius(body):
    """Chebyshev radius: the largest ball inside all sampled support planes."""
    return chebyshev_ball(body.mode, body.h)[1]


def chebyshev_center(body):
    """Center of the largest inscribed ball (2-vector / axial scalar)."""
    return chebyshev_ball(body.mode, body.h)[0]


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
    phi = body.angles()
    r = body.axis_distance()
    r = np.maximum(r, 0.0)  # poles are exactly 0 up to roundoff
    w = np.full(len(phi), body.step)
    w[0] *= 0.5
    w[-1] *= 0.5
    sigma = sphere_surface_area(n - 1)
    area = sigma * float(np.sum(r ** (n - 1) * rho * w))
    vol = sigma / (n + 1.0) * float(np.sum(body.h * r ** (n - 1) * rho * w))
    return area, vol


def meridian_length(body):
    """Pole-to-pole arc length of the generating curve (axisym only)."""
    if body.mode != MODE_AXISYM:
        raise ValueError("meridian_length needs an axisym profile")
    rho = body.curvature_radius()
    w = np.full(len(rho), body.step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return float(np.sum(rho * w))


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
    area, vol = area_and_volume(body)
    return area ** (body.n + 1) / vol ** body.n


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
    (w_minus, t0), (w_plus, _) = _width_extrema(body)
    if body.mode == MODE_CURVE:
        # project onto the normal line of the minimal-width direction
        length = float(_width_fn(body)(np.array([t0 + math.pi / 2.0]))[0])
        return ShadowFacts(area=length, diam=length, w_minus=w_minus, w_plus=w_plus)
    if t0 < math.pi / 4.0:
        # min width along the axis: shadow is the disk swept by the largest orbit
        rmax = float(np.max(body.boundary_points()[:, 1]))
        return ShadowFacts(area=math.pi * rmax * rmax, diam=2.0 * rmax,
                           w_minus=w_minus, w_plus=w_plus)
    # min width equatorial: shadow is the planar profile region
    rho = body.curvature_radius()
    profile_area = float(np.sum(body.h * rho) * body.step)  # full period of the even profile * 1/2
    diam_profile = float(np.max(_chord_fn(body)(_search_grid(body))))
    return ShadowFacts(area=profile_area, diam=diam_profile,
                       w_minus=w_minus, w_plus=w_plus)


def measure(body):
    """All standard measurements of one body as a BodyMeasurements record.

    Computed once per body and cached on it (see SupportProfile).
    """
    if isinstance(body, CapState):
        raise TypeError("cap slices are measured in the ambient sphere; "
                        "Euclidean body measurements do not apply")
    m = body._cache.get("measure")
    if m is None:
        w_minus, w_plus = min_max_width(body)
        diam = diameter(body)
        diam_i = intrinsic_diameter(body)
        area, vol = area_and_volume(body)
        m = body._cache["measure"] = BodyMeasurements(
            w_minus=w_minus, w_plus=w_plus, diam=diam, diam_I=diam_i,
            rho_minus=inner_radius(body), rho_plus=outer_radius(body),
            area=area, volume=vol,
            iso_ratio=area ** (body.n + 1) / vol ** body.n,
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
