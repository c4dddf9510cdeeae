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

The stages are buffered.  One kernel per run (``_Kernel``) holds the state,
the stage arrays and one stencil workspace (``bodies.Pad4``): a buffer padded
by two ghost cells at each end, with the stencils' weights built once.  A
stage writes h + (dt/2) k straight into the buffer's interior.  The h'' + h
stencil fills the ghosts by the grid's boundary rule (an axisym stage's h'
stencil reads them), and each stencil is one ``np.correlate`` of the buffer
with its five weights, which returns a new array.  The weights make mode 1
exact, so a translation <s, nu> passes through the right-hand side and the
flow commutes with recentring, to rounding.  Every other array operation is
a ufunc writing into a buffer, in the order of operations of the textbook
formulas, so the trajectories are bit-identical to allocating formulas that
sum each stencil's weighted samples left to right, and -1/rho is -(1/rho).
The pole limit's views are built once, the checks read extrema by index
(``_extremum``), and kmax is 1 over the last stage's min h'' + h.
``step_curve`` and ``step_axisym`` take their one step on the same kernel.

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
from .bodies import (CapState, MODE_AXISYM, MODE_CURVE, Pad4, SupportProfile,
                     NonConvexBodyError, _cap_geodesic_radius, d1_reflect4, d2_periodic4,
                     d2_reflect4, pole_limit, recentre)


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
    """The run bounds, stated only here: a run config's controls are checked
    by this constructor, not by its schema."""
    cfl: float = 0.2
    max_dt: float = 1e-2
    stop_rho_plus: float = 0.1
    snapshot_stride: int = 32

    def __post_init__(self):
        if not 0.0 < self.cfl <= 0.5:
            raise ValueError(f"cfl must lie in (0, 0.5], not {self.cfl!r}")
        for name in ("max_dt", "stop_rho_plus"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, not {getattr(self, name)!r}")
        stride = self.snapshot_stride
        if not (stride >= 1 and float(stride).is_integer()):
            raise ValueError(f"snapshot_stride must be a positive integer, not {stride!r}")


@dataclass(eq=False)
class TimeSlice:
    """One geometry at one time.

    ``shift`` maps the stored (recentered) frame back to the run frame:
    h_run(nu) = h_stored(nu) + <shift, nu>.
    """
    t: float
    body: object  # SupportProfile | CapState
    shift: object = None


_KIND_KEYS = ("kind", "n", "N", "R")


def _kind(body):
    """(kind, n, N, R) of one slice's body, named by _KIND_KEYS; N is None for
    a cap, the ambient radius R None for a support profile."""
    if isinstance(body, CapState):
        return "cap", body.n, None, body.R
    return body.mode, body.n, body.N, None


@dataclass(eq=False)
class Trajectory:
    """Time slices of one flow, in strictly increasing time, plus metadata.

    Every slice has the same kind ("curve", "axisym" or "cap"), dimension n,
    grid size N (None for caps) and, for caps, ambient radius R; ``engine``,
    ``n`` and ``N`` read them off the first slice.

    ``meta`` holds what ``trajio.write_trajectory`` puts in the header, plus
    the run counter ``accepted_steps`` (``evolve``):

    - ``engine``: a label that overrides the slices' kind in the header,
      e.g. "exact:sphere" (``sample_trajectory``) or "rescaled:curve"
      (``type_two_rescale``); a file read back keeps its header's label;
    - ``controls``, ``user_t0``: ``evolve`` and ``evolve_cap``;
    - ``s_ext``, the extinction time on the internal clock: ``evolve``;
    - ``R``, the ambient radius: ``evolve_cap`` and ``sample_trajectory``;
    - ``seed``, ``config_hash``: ``mcfflow run``.
    """
    slices: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.slices:
            raise ValueError("a trajectory needs at least one slice")
        first = _kind(self.slices[0].body)
        for k, sl in enumerate(self.slices[1:], start=1):
            for name, got, want in zip(_KIND_KEYS, _kind(sl.body), first):
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

    def interior_index(self, t):
        """Index of the snapshot at time t; t must have a snapshot on either side."""
        ts = self.times()
        i = int(np.argmin(np.abs(ts - t)))
        if abs(ts[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError("t must match a snapshot time")
        if i == 0 or i == len(ts) - 1:
            raise ValueError("t must be an interior snapshot time")
        return i

    def with_time_shift(self, delta):
        """Re-anchored copy: every slice time moved by -delta (gauge change)."""
        slices = [TimeSlice(s.t - delta, s.body, s.shift) for s in self.slices]
        return Trajectory(slices, dict(self.meta))

    def parabolic_rescale(self, lam):
        """Space x lambda, time x lambda^2; maps flows to flows."""
        out = []
        for s in self.slices:
            if isinstance(s.body, CapState):
                raise ValueError("parabolic rescaling applies to Euclidean slices")
            body = s.body.scaled(lam)
            shift = None if s.shift is None else np.asarray(s.shift) * lam
            out.append(TimeSlice(lam * lam * s.t, body, shift))
        return Trajectory(out, dict(self.meta))


# ---------------------------------------------------------------------------
# the stepping kernel: RK4 on buffers built once per run
# ---------------------------------------------------------------------------

def _const(value):
    """value as a read-only 0-d float64 array.  A ufunc dispatches on one
    faster than on a Python float, with the same result; the stages hold
    their constants this way."""
    a = np.array(value, dtype=float)
    a.flags.writeable = False
    return a


_MINUS_ONE, _TWO = _const(-1.0), _const(2.0)
_ARGMIN, _ARGMAX = np.ndarray.argmin, np.ndarray.argmax


def _extremum(a, arg):
    """a.min() or a.max() for arg _ARGMIN or _ARGMAX, by index: the same element
    or a's first NaN, up to the sign of a zero, which no comparison with 0 sees."""
    return a[arg(a)]


class _Kernel:
    """Explicit RK4 of one run on buffers built once (see the module docstring).

    The state is ``h``, its right-hand side ``k``, its h'' + h ``rho`` and
    ``kmax``, the largest profile curvature 1/rho.  A stage whose h'' + h
    (or, axisym, r inside the grid) is not positive, NaN included, raises
    and leaves the state untouched; the checks read extrema by index, and
    kmax is 1 over the min h'' + h the last stage's check read (division is
    correctly rounded and monotone, so this is max 1/rho bit for bit).  The
    pole limit's views are built with the kernel, and the stencils read from
    this module's names ``d2_periodic4``, ``d2_reflect4`` and ``d1_reflect4``
    then, so a wrapper bound there sees every call.
    """

    def __init__(self, profile):
        m, self.dtheta = len(profile.h), profile.step
        self.pad = Pad4(profile.h, self.dtheta)
        self.h, self.k, self.rho, self.kmax = np.empty(m), np.empty(m), None, None
        self._k, self._rho = np.empty(m), None  # the stage's
        self._acc, self._tmp = np.empty(m), np.empty(m)
        self._half, self._full, self._sixth = np.empty(()), np.empty(()), np.empty(())
        if profile.mode == MODE_CURVE:
            self._d2, self._rhs = d2_periodic4, self._curve_rhs
            return
        self._d2, self._d1, self._rhs = d2_reflect4, d1_reflect4, self._axisym_rhs
        self._sin, self._cos = profile.plan.sin, profile.plan.cos
        self._r = np.empty(m)
        self._r_inner = self._r[1:-1]
        self._neg_kappa1, self._kappa2 = np.empty(m), np.empty(m)
        self._kappa2_limit = pole_limit(self._neg_kappa1, self._sin, self._r, self._kappa2)
        self._n1 = None if profile.n == 2 else _const(profile.n - 1)

    def curvature_radius(self):
        """h'' + h of the samples in pad.x, unchecked, as a new array."""
        return self._d2(self.pad)

    def _checked_rho(self):
        rho = self._rho = self._d2(self.pad)
        self._rho_min = _extremum(rho, _ARGMIN)
        if not self._rho_min > 0.0:
            raise ConvexityLostError("h'' + h <= 0 inside a stage")
        return rho

    def _curve_rhs(self):
        np.divide(_MINUS_ONE, self._checked_rho(), self._k)

    def _axisym_rhs(self):
        rho = self._checked_rho()
        hp, r = self._d1(self.pad), self._r
        np.multiply(self.pad.x, self._sin, r)
        np.multiply(hp, self._cos, hp)
        np.add(r, hp, r)
        if not _extremum(self._r_inner, _ARGMIN) > 0.0:
            raise PoleSingularityError("profile touched the axis at an interior node")
        # -(kappa1 + (n-1) kappa2) as -kappa1 - (n-1) kappa2, bit for bit:
        # -1/rho is -(1/rho), and the pole limit negates -kappa1 back
        neg_kappa1 = np.divide(_MINUS_ONE, rho, self._neg_kappa1)
        kappa2 = self._kappa2_limit()
        if self._n1 is not None:  # n - 1 = 1 multiplies exactly
            np.multiply(kappa2, self._n1, kappa2)
        np.subtract(neg_kappa1, kappa2, self._k)

    def _commit(self):
        """The last stage's samples, right-hand side and h'' + h become the state."""
        np.copyto(self.h, self.pad.x)
        self.k, self._k = self._k, self.k
        self.rho = self._rho
        self.kmax = 1.0 / float(self._rho_min)

    def reset(self, h):
        """Take h as the state and evaluate its right-hand side."""
        self.pad.x[:] = h
        self._rhs()
        self._commit()

    def dt_bound(self, cfl):
        return cfl * self.dtheta * self.dtheta / (self.kmax * self.kmax)

    def step(self, dt):
        """One RK4 step of size dt; the new state's right-hand side, which is
        the next step's first stage, re-checks convexity after the step."""
        h, x, t, k, acc = self.h, self.pad.x, self._tmp, self._k, self._acc
        self._half[()], self._full[()], self._sixth[()] = 0.5 * dt, dt, dt / 6.0
        np.add(h, np.multiply(self.k, self._half, t), x)
        self._rhs()                                          # k2
        np.add(self.k, np.multiply(k, _TWO, acc), acc)
        np.add(h, np.multiply(k, self._half, t), x)
        self._rhs()                                          # k3
        np.add(acc, np.multiply(k, _TWO, t), acc)
        np.add(h, np.multiply(k, self._full, t), x)
        self._rhs()                                          # k4
        np.add(acc, k, acc)
        np.add(h, np.multiply(acc, self._sixth, acc), x)
        self._rhs()
        self._commit()


_PUBLIC_STEP_CFL = 0.5  # the largest cfl FlowControls admits


def _public_step(profile, dt):
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be a positive finite number, not {dt!r}")
    kernel = _Kernel(profile)
    kernel.reset(profile.h)
    bound = kernel.dt_bound(_PUBLIC_STEP_CFL)
    if dt > bound:
        raise StabilityViolationError(
            f"dt = {dt:.3e} exceeds the stability bound {bound:.3e}")
    kernel.step(dt)
    if np.min(kernel.h) <= 0.0:
        raise ConvexityLostError("support lost positivity; body left the origin")
    return SupportProfile(profile.mode, profile.n, kernel.h)


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
    dict records the extinction estimate and the accepted step count.
    """
    if not isinstance(initial, SupportProfile):
        raise TypeError("evolve expects a SupportProfile")
    if not t0 < 0.0:
        raise ValueError("t0 must be negative")
    mode, n = initial.mode, initial.n
    kernel = _Kernel(initial)
    h = initial.h
    # degenerate inputs failing convexity by < 1e-12 are projected upward
    rho_min = float(np.min(kernel.curvature_radius()))
    if -_CONVEXITY_PROJECTION_TOL * max(1.0, np.max(h)) < rho_min <= 0.0:
        h = h + (abs(rho_min) + 1e-15 * np.max(h))
    try:
        kernel.reset(h)  # first stage and dt bound of the first step
    except (ConvexityLostError, PoleSingularityError) as err:
        raise NonConvexBodyError(
            f"initial body fails the 4-point stencil test: {err}") from None
    h = kernel.h  # the kernel's state, updated in place by every step

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
        attempt = min(controls.max_dt, kernel.dt_bound(controls.cfl))
        for _ in range(_MAX_RETRIES + 1):
            try:
                kernel.step(attempt)
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
                min_rho=float(np.min(kernel.rho)))
        s += attempt
        accepted += 1
        # keep the origin well inside the shrinking body
        if _extremum(h, _ARGMIN) < 0.25 * _extremum(h, _ARGMAX):
            hc, extra = recentre(mode, h)
            shift = shift + extra
            kernel.reset(hc)
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
    meta = {"controls": controls, "user_t0": t0, "s_ext": s_ext, "accepted_steps": accepted}
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
    if not t0 < 0.0:
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
    return Trajectory(slices, {"R": R, "controls": controls, "user_t0": t0})
