"""Closed-form ancient solutions and the residual oracle that certifies them.

Families:
  sphere        R(t) = sqrt(-2 n t), extinction at t = 0
  cylinder      S^(n-k) x R^k with R(t) = sqrt(-2 (n-k) t); reference
                curvature configuration only (not evolvable here)
  grim-reaper   y = -log cos x + t, the unit-speed translating curve
  oval          the compact ancient convex curve cos x = e^t cosh y, glued
                from two opposite grim reapers as t -> -infinity; this closed
                form is certified internally via flow_residual before use
  cap           geodesic sphere in S^(n+1)_R with rho(t) = R arccos(e^(n t/R^2))
  equator       the stationary totally geodesic S^n_R (H = 0)

The oval's Gauss map has a closed-form inverse.  With a = sqrt(1 - e^(2t))
and psi in [0, pi/2] the normal angle reduced by the two symmetries, the
contact point in the quarter x, y >= 0 has cos x = u = hypot(e^t cos psi,
sin psi), sin x = a cos psi and e^t sinh y = a sin psi, and the curvature
there is u / a.  The angles are taken by atan2 and asinh, which keep full
relative accuracy near extinction, where arccos and arcsin of values near 1
would not.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .bodies import (CapState, MODE_AXISYM, MODE_CURVE, SupportProfile, _cap_geodesic_radius,
                     sample_angles, shift_support)
from .engine import TimeSlice, Trajectory

_FAMILIES = ("sphere", "cylinder", "grim-reaper", "oval", "cap", "equator")


@dataclass(frozen=True)
class ExactFamily:
    """A closed-form family: kind, dimension, and kind-specific parameters."""
    kind: str
    n: int = 1
    k: int = 0          # cylinder flat-factor count
    R: float = 1.0      # ambient radius (cap / equator)

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ValueError(f"unknown family {self.kind!r}")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind in ("oval", "grim-reaper") and self.n != 1:
            raise ValueError(f"the {self.kind} family is a plane curve; it needs --n 1")
        if self.kind == "cylinder" and not 1 <= self.k <= self.n - 1:
            raise ValueError("cylinder requires 1 <= k <= n-1")
        if self.kind in ("cap", "equator") and self.R <= 0.0:
            raise ValueError("ambient radius must be positive")

    def time_domain(self):
        """(t_min, t_max) on which the family is defined."""
        if self.kind in ("grim-reaper", "equator"):
            return (-math.inf, math.inf)
        return (-math.inf, 0.0)


def _require_ancient(t):
    if t >= 0.0:
        raise ValueError("family defined for t < 0 only (extinction at t = 0)")


# ---------------------------------------------------------------------------
# spheres and cylinders
# ---------------------------------------------------------------------------

def sphere_radius(n, t):
    """Radius of the shrinking round sphere: sqrt(-2 n t)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    _require_ancient(t)
    return math.sqrt(-2.0 * n * t)


def cylinder_radius(n, k, t):
    """Radius of the shrinking cylinder S^(n-k) x R^k: sqrt(-2 (n-k) t)."""
    if not 1 <= k <= n - 1:
        raise ValueError("cylinder flat factors require 1 <= k <= n-1")
    _require_ancient(t)
    return math.sqrt(-2.0 * (n - k) * t)


def cylinder_reference_curvatures(n, k, t):
    """Sorted principal curvatures of the cylinder slice: k zeros and
    (n-k) copies of 1/R.  Reference configuration for the ratio tests."""
    R = cylinder_radius(n, k, t)
    return np.array([0.0] * k + [1.0 / R] * (n - k))


def sphere_slice(n, t, resolution):
    """Round slice as a SupportProfile (curve for n = 1, axisym for n >= 2)."""
    R = sphere_radius(n, t)
    if n == 1:
        return SupportProfile(MODE_CURVE, 1, np.full(resolution, R))
    return SupportProfile(MODE_AXISYM, n, np.full(resolution + 1, R))


# ---------------------------------------------------------------------------
# grim reaper
# ---------------------------------------------------------------------------

def grim_reaper_profile(x, t):
    """(height, curvature) of the translating curve y = -log cos x + t."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) >= math.pi / 2.0):
        raise ValueError("grim reaper is defined for |x| < pi/2")
    height = -np.log(np.cos(x)) + t
    curvature = np.cos(x)
    if height.ndim == 0:
        return float(height), float(curvature)
    return height, curvature


def grim_reaper_samples(half_width=1.2, count=257, t=0.0):
    """Sampled reaper data for soliton fitting: (points, normals, H, weights).

    Outward normals point away from the convex side; H = cos x matches the
    inner product with the unit vertical, which is the translating-soliton
    identity H = <V, nu>.
    """
    x = np.linspace(-half_width, half_width, count)
    y, kappa = grim_reaper_profile(x, t)
    nu = np.column_stack([np.sin(x), np.cos(x)])
    ds = np.gradient(np.arcsinh(np.tan(x)))  # arclength: ds = dx / cos x
    pts = np.column_stack([x, y])
    return pts, nu, kappa, np.abs(ds)


# ---------------------------------------------------------------------------
# Angenent oval (paperclip): cos x = e^t cosh y
# ---------------------------------------------------------------------------

# the oval's closed form takes e^(-t), finite for t >= -log(DBL_MAX) ~ -709.78
_OVAL_T_MIN = -math.log(np.finfo(float).max)


def _require_oval_time(t):
    _require_ancient(t)
    if not t >= _OVAL_T_MIN:
        raise ValueError(f"oval time t = {t!r} must be at least {_OVAL_T_MIN:.6g}, "
                         "below which e^(-t) overflows")


def oval_extent(t):
    """(x_half_extent, y_half_extent) of the oval at time t < 0: its support
    values at the normal angles 0 and pi/2."""
    h = _oval_contact(t, (0.0, math.pi / 2.0))[0]
    return float(h[0]), float(h[1])


def _oval_contact(t, theta):
    """(support values, curvatures) at the normal angles theta, from the
    contact points of the inverse Gauss map (see the module docstring)."""
    _require_oval_time(t)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    # reduce by the x and y symmetries to psi in [0, pi/2]
    psi = np.abs(np.remainder(theta + math.pi, 2.0 * math.pi) - math.pi)
    psi = np.where(psi > math.pi / 2.0, math.pi - psi, psi)
    c, s = np.cos(psi), np.sin(psi)
    a = math.sqrt(-math.expm1(2.0 * t))
    u = np.hypot(math.exp(t) * c, s)                     # cos x
    x = np.arctan2(a * c, u)
    y = np.arcsinh(a * math.exp(-t) * s)
    return x * c + y * s, u / a


def oval_support_values(t, theta):
    """Exact support values of the oval at arbitrary normal angles."""
    vals = _oval_contact(t, theta)[0]
    return vals if vals.size > 1 else float(vals[0])


def oval_curvature_values(t, theta):
    """Exact curvature at the contact point of each normal angle."""
    vals = _oval_contact(t, theta)[1]
    return vals if vals.size > 1 else float(vals[0])


def angenent_oval_slice(t, resolution):
    """The oval at time t as a SupportProfile on the curve grid."""
    _require_oval_time(t)
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    h = oval_support_values(t, sample_angles(MODE_CURVE, resolution))
    # symmetric body: the Chebyshev center is the origin, no recentering needed
    return SupportProfile(MODE_CURVE, 1, h)


# ---------------------------------------------------------------------------
# geodesic caps
# ---------------------------------------------------------------------------

def cap_radius(R, n, t):
    """Geodesic radius rho(t) = R arccos(e^(n t / R^2)) of the shrinking cap.

    Solves d rho/dt = -(n/R) cot(rho/R) with extinction fixed at t = 0;
    rho -> pi R / 2 (the equator) as t -> -infinity.
    """
    if R <= 0.0:
        raise ValueError("ambient radius must be positive")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    _require_ancient(t)
    return _cap_geodesic_radius(R, n, t)


def cap_slice(R, n, t):
    return CapState(R, n, cap_radius(R, n, t))


def equator_slice(R, n):
    return CapState(R, n, math.pi * R / 2.0)


# ---------------------------------------------------------------------------
# flow residual: |V_normal + H| certifies that a family solves the flow
# ---------------------------------------------------------------------------

def flow_residual(family, t, dt=None, analytic_velocity=False):
    """Max over samples of |V_normal + H|: 64 of them on an oval or a grim
    reaper, every grid node of a Trajectory's slice.

    For exact families V_normal is the central time difference of the support
    function at fixed normal direction (exactly the normal velocity), so the
    residual is pure O(dt^2) discretization error; with analytic_velocity the
    sphere/cap/reaper/equator residuals vanish identically.  A Trajectory
    input differences its stored snapshots instead.
    """
    if isinstance(family, Trajectory):
        return _trajectory_residual(family, t)
    lo, hi = family.time_domain()
    if dt is None:
        dt = 1e-3 * max(1.0, abs(t))
    if not (lo < t - dt and t + dt < hi):
        raise ValueError("t (with its increment) must be interior to the time domain")

    kind = family.kind
    if kind == "equator":
        return 0.0
    if kind == "cap":
        rho = cap_radius(family.R, family.n, t)
        H = CapState(family.R, family.n, rho).mean_curvature()
        if analytic_velocity:
            v = -(family.n / family.R) / math.tan(rho / family.R)
        else:
            v = (cap_radius(family.R, family.n, t + dt)
                 - cap_radius(family.R, family.n, t - dt)) / (2.0 * dt)
        return abs(v + H)
    if kind == "grim-reaper":
        x = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, 64)
        _, kappa = grim_reaper_profile(x, t)
        # vertical translation at unit speed: outward-normal velocity -cos x
        if analytic_velocity:
            v = -np.cos(x)
        else:
            y1, _ = grim_reaper_profile(x, t - dt)
            y2, _ = grim_reaper_profile(x, t + dt)
            v = -np.cos(x) * (y2 - y1) / (2.0 * dt)
        return float(np.max(np.abs(v + kappa)))
    if kind == "sphere":
        R = sphere_radius(family.n, t)
        H = family.n / R
        if analytic_velocity:
            v = -family.n / R
        else:
            v = (sphere_radius(family.n, t + dt) - sphere_radius(family.n, t - dt)) / (2.0 * dt)
        return abs(v + H)
    if kind == "oval":
        theta = sample_angles(MODE_CURVE, 64)
        H = oval_curvature_values(t, theta)
        v = (oval_support_values(t + dt, theta)
             - oval_support_values(t - dt, theta)) / (2.0 * dt)
        return float(np.max(np.abs(v + H)))
    raise ValueError(f"flow residual undefined for {kind!r} (reference family)")


def _trajectory_residual(traj, t):
    from .diagnostics import curvature_field
    i = traj.interior_index(t)
    ts = traj.times()
    before, here, after = traj.slices[i - 1], traj.slices[i], traj.slices[i + 1]
    if isinstance(here.body, CapState):
        v = (after.body.rho - before.body.rho) / (ts[i + 1] - ts[i - 1])
        return abs(v + here.body.mean_curvature())
    # undo the per-snapshot recentering so the velocity is taken in one frame
    h_b = _absolute_support(before)
    h_a = _absolute_support(after)
    v = (h_a - h_b) / (ts[i + 1] - ts[i - 1])
    H = curvature_field(here).H
    return float(np.max(np.abs(v + H)))


def _absolute_support(sl):
    body = sl.body
    if sl.shift is None:
        return body.h
    return body.h + shift_support(body.mode, body.h, sl.shift)


def residual_convergence_order(family, t):
    """Fit the convergence order of flow_residual over three time steps,
    1e-2 max(1, |t|) halved twice."""
    dt0 = 1e-2 * max(1.0, abs(t))
    res = np.array([flow_residual(family, t, dt=dt0 / 2 ** j) for j in range(3)])
    if np.max(res) <= 1e-12 * max(1.0, abs(t)):
        return math.inf, res  # already at the roundoff floor
    orders = np.log2(res[:-1] / res[1:])
    return float(np.min(orders)), res


# ---------------------------------------------------------------------------
# exact trajectories (ground-truth inputs for the analysis layer)
# ---------------------------------------------------------------------------

def sample_trajectory(family, times, resolution=256):
    """Trajectory of exact slices at the given (negative, increasing) times."""
    times = np.sort(np.asarray(times, dtype=float))
    if times[-1] >= 0.0 and family.kind not in ("grim-reaper", "equator"):
        raise ValueError("sampling times must be negative")
    slices = []
    for t in times:
        t = float(t)
        if family.kind == "sphere":
            body = sphere_slice(family.n, t, resolution)
        elif family.kind == "oval":
            body = angenent_oval_slice(t, resolution)
        elif family.kind == "cap":
            body = cap_slice(family.R, family.n, t)
        elif family.kind == "equator":
            body = equator_slice(family.R, family.n)
        else:
            raise ValueError(f"cannot sample a {family.kind!r} trajectory")
        slices.append(TimeSlice(t, body))
    return Trajectory(slices, {"engine": f"exact:{family.kind}", "R": family.R})
