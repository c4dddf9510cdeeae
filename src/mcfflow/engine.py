"""Mean curvature flow of convex bodies in support-function form.

The flow moves each boundary point with normal speed -H, which in the
support representation is simply dh/dt = -H at fixed normal direction.

Curve mode (plane curves):       h_t = -1/(h_tt + h)                (kappa)
Axisym mode (revolution in R^(n+1)):
    h_t = -[kappa1 + (n-1) kappa2],
    kappa1 = 1/(h_pp + h)   (meridian curvature),
    kappa2 = sin(phi)/r,  r = h sin(phi) + h' cos(phi),
    with the umbilic limit kappa2 -> kappa1 at the poles
    (bodies.azimuthal_curvature).

Stepping is explicit RK4 on 4th-order centered stencils.  The linearization
of -1/(h''+h) has diffusion coefficient kappa^2, so steps obey
dt <= cfl * dtheta^2 / max kappa1^2; implicit stepping is deliberately
avoided to keep the kernel dependency-free.

An accepted step of ``evolve`` costs 4 right-hand-side (stencil)
evaluations: RK stages 2-4 and the post-step convexity check.  That check
evaluates the right-hand side at the new h, so it is the next step's first
stage (first same as last), and its h'' + h gives the next step's dt bound.
A rejected attempt leaves h, and so both, unchanged; a recentre changes h
and re-evaluates them.

Time gauge.  The flow runs in an internal clock s >= 0 and cannot know the
extinction time in advance.  After the run the origin is re-anchored so the
extrapolated extinction lands at t = 0: curve runs use the exact area law
d|Omega|/ds = -2pi (total turning), so s_ext = s_last + |Omega|_last/(2pi);
axisymmetric runs fit rho_+^2 linearly over the last 20 snapshots (exact on
round profiles).  All reported slice times are t = s - s_ext < 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from . import geometry
from .bodies import (CapState, MODE_AXISYM, MODE_CURVE, SupportProfile, NonConvexBodyError,
                     _cap_geodesic_radius, azimuthal_curvature, d1_reflect4, d2_periodic4,
                     d2_reflect4, recentre)


class ConvexityLostError(RuntimeError):
    """A step produced (or would produce) a non-convex profile."""


class StabilityViolationError(ValueError):
    """Requested time step exceeds the explicit stability bound."""


class PoleSingularityError(RuntimeError):
    """Axisymmetric profile touched the rotation axis at an interior node."""


class StepFailedError(RuntimeError):
    """Step retries exhausted; carries the abort diagnostics.

    ``s`` is the internal time of the failed step, ``dt`` the last step size
    tried, ``check`` the class name of the last stage error and ``min_rho``
    the smallest h'' + h of the state the step started from.  They are None
    when the failure is not a rejected step.
    """

    def __init__(self, message, s=None, dt=None, check=None, min_rho=None):
        super().__init__(message)
        self.s, self.dt, self.check, self.min_rho = s, dt, check, min_rho


@dataclass(frozen=True)
class FlowControls:
    cfl: float = 0.2
    max_dt: float = 1e-2
    stop_rho_plus: float = 0.1
    snapshot_stride: int = 32

    def __post_init__(self):
        if not 0.0 < self.cfl <= 0.5:
            raise ValueError("cfl must lie in (0, 0.5]")
        if self.stop_rho_plus <= 0.0:
            raise ValueError("stop_rho_plus must be positive")
        if self.max_dt <= 0.0 or self.snapshot_stride < 1:
            raise ValueError("bad controls")


@dataclass(eq=False)
class TimeSlice:
    """One geometry at one time.

    ``shift`` maps the stored (recentered) frame back to the run frame:
    h_run(nu) = h_stored(nu) + <shift, nu>.
    """
    t: float
    body: object  # SupportProfile | CapState
    shift: object = None


def _kind(body):
    """(kind, n, N) of one slice's body; N is None for a cap."""
    if isinstance(body, CapState):
        return "cap", body.n, None
    return body.mode, body.n, body.N


@dataclass(eq=False)
class Trajectory:
    """Time slices of one flow, in strictly increasing time, plus metadata.

    Every slice has the same kind ("curve", "axisym" or "cap"), dimension n
    and grid size N (None for caps); ``engine``, ``n`` and ``N`` read them
    off the first slice.  ``meta`` holds provenance and run counters.
    """
    slices: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.slices:
            raise ValueError("a trajectory needs at least one slice")
        first = _kind(self.slices[0].body)
        for k, sl in enumerate(self.slices[1:], start=1):
            for name, got, want in zip(("kind", "n", "N"), _kind(sl.body), first):
                if got != want:
                    raise ValueError(f"slice {k} has {name} = {got}, "
                                     f"not the trajectory's {name} = {want}")
        ts = self.times()
        if len(ts) >= 2 and not np.all(np.diff(ts) > 0.0):
            raise ValueError("slice times must be strictly increasing")

    engine = property(lambda self: _kind(self.slices[0].body)[0])
    n = property(lambda self: _kind(self.slices[0].body)[1])
    N = property(lambda self: _kind(self.slices[0].body)[2])

    def times(self):
        return np.array([s.t for s in self.slices])

    def __len__(self):
        return len(self.slices)

    def with_time_shift(self, delta):
        """Re-anchored copy: every slice time moved by -delta (gauge change)."""
        slices = [TimeSlice(s.t - delta, s.body, s.shift) for s in self.slices]
        meta = dict(self.meta)
        meta["time_shift_applied"] = meta.get("time_shift_applied", 0.0) + delta
        return Trajectory(slices, meta)

    def parabolic_rescale(self, lam):
        """Space x lambda, time x lambda^2; maps flows to flows."""
        out = []
        for s in self.slices:
            if isinstance(s.body, CapState):
                raise ValueError("parabolic rescaling applies to Euclidean slices")
            body = s.body.scaled(lam)
            shift = None if s.shift is None else np.asarray(s.shift) * lam
            out.append(TimeSlice(lam * lam * s.t, body, shift))
        meta = dict(self.meta)
        meta["parabolic_rescale"] = meta.get("parabolic_rescale", 1.0) * lam
        return Trajectory(out, meta)


# ---------------------------------------------------------------------------
# right-hand sides (4th-order stencils; raise on invalid intermediate states)
# ---------------------------------------------------------------------------

def _curve_rhs(h, dtheta):
    rho = d2_periodic4(h, dtheta) + h
    if rho.min() <= 0.0:
        raise ConvexityLostError("h'' + h <= 0 inside a stage")
    return -1.0 / rho, rho


def _axisym_rhs(h, dphi, n, sin_phi, cos_phi):
    rho = d2_reflect4(h, dphi) + h
    if rho.min() <= 0.0:
        raise ConvexityLostError("h'' + h <= 0 inside a stage")
    hp = d1_reflect4(h, dphi)
    r = h * sin_phi + hp * cos_phi
    if r[1:-1].min() <= 0.0:
        raise PoleSingularityError("profile touched the axis at an interior node")
    kappa1 = 1.0 / rho
    kappa2 = azimuthal_curvature(kappa1, sin_phi, r)
    return -(kappa1 + (n - 1) * kappa2), rho


def _rhs_for(mode, n, dtheta, angles):
    if mode == MODE_CURVE:
        return lambda x: _curve_rhs(x, dtheta)
    sin_phi, cos_phi = np.sin(angles), np.cos(angles)
    return lambda x: _axisym_rhs(x, dtheta, n, sin_phi, cos_phi)


def _rk4(h, dt, rhs, k1):
    """RK4 step from h given k1 = rhs(h)[0]; returns (new h, rhs(new h)), the
    latter re-verifying convexity (and axis positivity) after the step."""
    k2, _ = rhs(h + 0.5 * dt * k1)
    k3, _ = rhs(h + 0.5 * dt * k2)
    k4, _ = rhs(h + dt * k3)
    out = h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out, rhs(out)


def _dt_bound(rho, dtheta, cfl):
    kmax = float((1.0 / rho).max())
    return cfl * dtheta * dtheta / (kmax * kmax)


def _curvature_radius4(h, mode, dtheta):
    return (d2_periodic4 if mode == MODE_CURVE else d2_reflect4)(h, dtheta) + h


def _public_step(profile, dt, cfl_for_check=0.5):
    rhs = _rhs_for(profile.mode, profile.n, profile.step, profile.angles())
    k1, rho = rhs(profile.h)
    bound = _dt_bound(rho, profile.step, cfl_for_check)
    if dt > bound:
        raise StabilityViolationError(
            f"dt = {dt:.3e} exceeds the stability bound {bound:.3e}")
    h, _ = _rk4(profile.h, dt, rhs, k1)
    if np.min(h) <= 0.0:
        raise ConvexityLostError("support lost positivity; body left the origin")
    return SupportProfile(profile.mode, profile.n, h)


def step_curve(profile, dt):
    """One explicit RK4 step of curve shortening flow in support form."""
    if profile.mode != MODE_CURVE:
        raise ValueError("step_curve needs a curve profile")
    return _public_step(profile, dt)


def step_axisym(profile, dt):
    """One explicit RK4 step of the axisymmetric flow in support form."""
    if profile.mode != MODE_AXISYM:
        raise ValueError("step_axisym needs an axisym profile")
    return _public_step(profile, dt)


# ---------------------------------------------------------------------------
# trajectory evolution
# ---------------------------------------------------------------------------

_MAX_RETRIES = 20
_CONVEXITY_PROJECTION_TOL = 1e-12


def evolve(initial, t0, controls):
    """Evolve a convex body to near extinction; returns a Trajectory.

    ``t0`` is the caller's intended initial time label; the returned slices
    carry re-anchored times (extrapolated extinction at t = 0) and the meta
    dict records both the extinction estimate and the gap to -t0.
    """
    if not isinstance(initial, SupportProfile):
        raise TypeError("evolve expects a SupportProfile")
    if t0 >= 0.0:
        raise ValueError("initial time must be negative")
    mode, n = initial.mode, initial.n
    h = np.array(initial.h, dtype=float)
    angles = initial.angles()
    dtheta = initial.step
    # degenerate inputs failing convexity by < 1e-12 are projected upward
    rho_min = float(np.min(_curvature_radius4(h, mode, dtheta)))
    if -_CONVEXITY_PROJECTION_TOL * max(1.0, np.max(h)) < rho_min <= 0.0:
        h = h + (abs(rho_min) + 1e-15 * np.max(h))
    rhs = _rhs_for(mode, n, dtheta, angles)
    try:
        k, rho = rhs(h)  # first stage and dt bound of the first step
    except (ConvexityLostError, PoleSingularityError) as err:
        raise NonConvexBodyError(
            f"initial body fails the 4-point stencil test: {err}") from None

    shift = 0.0  # broadcasts to the curve's 2-vector on the first addition
    s = 0.0
    records = []  # (s, stored body, shift_at_emission)

    def emit():
        hc, extra = recentre(mode, h)
        records.append((s, SupportProfile(mode, n, hc), shift + extra))

    emit()
    accepted = 0
    max_steps = 10 ** 7
    while accepted < max_steps:
        attempt = min(controls.max_dt, _dt_bound(rho, dtheta, controls.cfl))
        for _ in range(_MAX_RETRIES + 1):
            try:
                h, (k, rho) = _rk4(h, attempt, rhs, k)
                break
            except (ConvexityLostError, PoleSingularityError) as err:
                last_err = err
                attempt *= 0.5
        else:
            dt = 2.0 * attempt  # the last step size tried
            raise StepFailedError(
                f"step rejected {_MAX_RETRIES + 1} times at s = {s:.6g} "
                f"(dt down to {dt:.3e}): {last_err}",
                s=s, dt=dt, check=type(last_err).__name__,
                min_rho=float(np.min(rho)))
        s += attempt
        accepted += 1
        # keep the origin well inside the shrinking body
        if h.min() < 0.25 * h.max():
            h, extra = recentre(mode, h)
            shift = shift + extra
            k, rho = rhs(h)
        if accepted % controls.snapshot_stride == 0:
            emit()
            if np.max(records[-1][1].h) < controls.stop_rho_plus:
                break
    else:
        raise StepFailedError("step budget exhausted before extinction threshold")
    if records[-1][0] != s:
        emit()

    s_ext = _extinction_estimate(records, n)
    slices = [TimeSlice(s_i - s_ext, body, shift_i) for s_i, body, shift_i in records]
    meta = {
        "engine": mode,
        "controls": controls,
        "user_t0": t0,
        "s_ext": s_ext,
        "t0_gap": abs(t0 + s_ext),
        "final_time": slices[-1].t,
        "accepted_steps": accepted,
    }
    return Trajectory(slices, meta)


def _extinction_estimate(records, n):
    s_last, body_last, _ = records[-1]
    if body_last.mode == MODE_CURVE:
        # exact for curve shortening: the enclosed area decays at rate 2*pi
        return s_last + geometry.area_and_volume(body_last)[1] / (2.0 * math.pi)
    # axisym: square-root fit of the outer radius over the last <= 20 snapshots
    tail = records[-20:]
    ss = np.array([r[0] for r in tail])
    rplus = np.array([geometry.outer_radius(body) for _, body, _ in tail])
    if len(tail) < 2:
        return ss[-1] + rplus[-1] ** 2 / (2.0 * n)
    coef = np.polyfit(ss, rplus ** 2, 1)
    if coef[0] >= 0.0:
        return ss[-1] + rplus[-1] ** 2 / (2.0 * n)
    root = -coef[1] / coef[0]
    return max(root, ss[-1] + 1e-12 * max(1.0, abs(ss[-1])))


# ---------------------------------------------------------------------------
# geodesic caps in the ambient sphere
# ---------------------------------------------------------------------------

_MAX_CAP_SLICES = 100_000  # a window this many snapshot steps long is a mistyped control


def evolve_cap(R, rho0, t0, controls, n=2, t_stop=None):
    """Evolve a geodesic cap, d rho/dt = -(n/R) cot(rho/R), by its closed form
    cos(rho/R) = e^(n (t - T)/R^2), the extinction time T fixed by rho0 at t0.

    Samples from t0 toward t_stop (default: forward until the geodesic radius
    falls to stop_rho_plus, whose time is the last slice).  rho0 = pi*R/2 is
    the equator, the stationary member (T = inf), with H = 0.  Backward runs
    (t_stop < t0) approach the equator monotonically.
    """
    start = CapState(R, n, rho0)  # validates R, n and rho0 <= pi R/2 (clamped)
    if t0 >= 0.0:
        raise ValueError("t0 must be negative")
    snap_step = controls.max_dt * controls.snapshot_stride

    if t_stop is None:
        t_stop = t0 + 100.0 * snap_step if start.is_equator else -1e-6
    if t_stop >= 0.0:
        t_stop = -1e-9
    if t_stop == t0:
        raise ValueError("empty time window: t_stop equals t0")

    steps = abs(t_stop - t0) / snap_step
    if not steps < _MAX_CAP_SLICES:
        raise ValueError(f"the window from t0 = {t0!r} to {t_stop!r} needs more than "
                         f"{_MAX_CAP_SLICES} snapshots of max_dt * snapshot_stride = "
                         f"{snap_step!r}: raise max_dt or snapshot_stride")
    count = max(2, int(steps) + 1)
    times = np.sort(np.linspace(t0, t_stop, count))
    scale = R * R / n
    T = math.inf if start.is_equator else t0 - scale * math.log(math.cos(start.rho / R))
    if t_stop > t0 and not start.is_equator:  # a start at or below the floor: one slice
        floor = controls.stop_rho_plus
        t_floor = T + scale * math.log(math.cos(floor / R)) if floor < start.rho else t0
        t_end = max(t0, min(t_stop, t_floor))
        if _cap_geodesic_radius(R, n, min(t_end - T, 0.0)) == 0.0:
            raise ValueError(f"stop_rho_plus = {floor!r} is too small to resolve on a cap "
                             f"of R = {R!r}: its time rounds to the extinction time")
        times = np.append(times[times < t_end], t_end)
    slices = [TimeSlice(float(t), CapState(R, n, _cap_geodesic_radius(R, n, t - T)))
              for t in times]
    return Trajectory(slices, {"engine": "cap", "R": R, "controls": controls, "user_t0": t0})
