"""Trajectory-level verdicts: does an ancient flow look like the shrinking
sphere, and if not, what does its rescaling limit look like?

The seven-condition checker evaluates, per slice,

  (ii)   pinching:            1 / (min lambda_1 / H)        [n >= 2]
  (iii)  diameter growth:     diam / (1 + sqrt(-t))
  (iv)   radius ratio:        rho_+ / rho_-
  (v)    curvature ratio:     max H / min H
  (vi)   reverse isoperimetric: |M|^(n+1) / |Omega|^n
  (vii)  type-I quantity:     sqrt(-t) max H

plus the sphericity proxy max (|A|^2/H^2 - 1/n) -> 0.  A finite window
cannot witness t -> -infinity, so verdicts follow an explicit rule: margins
are indexed by -t (looking backward in time); a series is BoundedInWindow
when the sup over the earliest decade of -t exceeds the sup over the most
recent decade by less than 10% and the log-log slope stays under 0.25,
GrowingTrend otherwise, and Violated when a hard cap set on the
``VerdictRule`` is passed.  The thresholds are the module constants
GROWTH_RATIO and SLOPE_THRESHOLD.  ``VerdictRule.entry`` is the one place
where a margin series gets its sup, log-log slope and verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .bodies import MODE_CURVE, recentre, shift_support
from .diagnostics import (H_FLOOR, _Series, _kconvex_margin, _type_quantities,
                          curvature_field, umbilic_deficit)
from .engine import TimeSlice, Trajectory


class WindowTooShortError(ValueError):
    """The trajectory does not span the required range of -t."""


class WindowNotCoveredError(ValueError):
    """The requested rescaling window is not covered by the trajectory."""


class ParameterGateViolatedError(ValueError):
    """(sigma, p) fall outside the admissible range for the measured pinching."""


class NotKConvexError(ValueError):
    """The trajectory is not uniformly k-convex on the window."""


BOUNDED = "BoundedInWindow"
GROWING = "GrowingTrend"
VIOLATED = "Violated"
NOT_APPLICABLE = "NotApplicable"

GROWTH_RATIO = 1.10     # early-decade sup vs recent-decade sup
SLOPE_THRESHOLD = 0.25  # log margin vs log(-t)


@dataclass(eq=False)
class ConditionEntry:
    times: np.ndarray
    margins: np.ndarray
    sup: float
    slope: float
    verdict: str

    def payload(self):
        return {"sup": self.sup, "slope": self.slope, "verdict": self.verdict}


@dataclass(frozen=True)
class VerdictRule:
    hard_caps: dict = field(default_factory=dict)

    def entry(self, key, times, values):
        """The ConditionEntry (sup, log-log slope, verdict) of the margin
        series ``values`` at the times ``times`` < 0."""
        values = np.asarray(values, dtype=float)
        neg_t = -times
        sup = float(np.max(values))
        slope = _loglog_slope(neg_t, np.maximum(values, 1e-300))
        cap = self.hard_caps.get(key)
        # series in time order: the "last" decade is the most recent one
        recent = values[neg_t <= 10.0 * np.min(neg_t)]
        early = values[neg_t >= np.max(neg_t) / 10.0]
        if cap is not None and sup > cap:
            verdict = VIOLATED
        elif slope >= SLOPE_THRESHOLD:
            verdict = GROWING
        elif np.max(recent) <= GROWTH_RATIO * np.max(early):
            verdict = BOUNDED
        else:
            verdict = GROWING
        return ConditionEntry(times, values, sup, slope, verdict)


def _loglog_slope(neg_t, values):
    x = np.log(neg_t)
    y = np.log(values)
    if np.ptp(x) == 0.0:
        return 0.0
    return float(np.polyfit(x, y, 1)[0])


@dataclass(eq=False)
class ConditionReport:
    window: tuple
    n: int
    conditions: dict
    sphericity_times: np.ndarray
    sphericity_f0_max: np.ndarray

    def verdict(self, key):
        return self.conditions[key].verdict

    def payload(self):
        return {
            "window": list(self.window),
            "n": self.n,
            "conditions": {k: v.payload() for k, v in self.conditions.items()},
            "sphericity": {
                "t": list(self.sphericity_times),
                "f0_max": list(self.sphericity_f0_max),
            },
        }


def _require_two_decades(traj):
    ts = traj.times()
    if ts[-1] >= 0.0:
        raise ValueError("Euclidean ancient trajectories must have t < 0")
    ratio = ts[0] / ts[-1]
    if ratio < 100.0 * (1.0 - 1e-9):
        raise WindowTooShortError(
            f"window spans a factor {ratio:.3g} in -t; need >= 100")


def check_conditions(traj, rule=None):
    """Evaluate the sphere-characterization conditions on a trajectory."""
    rule = rule or VerdictRule()
    _require_two_decades(traj)
    s = _Series(traj)
    tq = _type_quantities(traj, s)
    if traj.n >= 2:
        conditions = {"ii": rule.entry("ii", tq.times, 1.0 / np.maximum(s["eps_min"], 1e-300))}
    else:
        # pinching is vacuous for plane curves
        zeros = np.zeros_like(tq.times)
        conditions = {"ii": ConditionEntry(tq.times, zeros, 0.0, 0.0, NOT_APPLICABLE)}
    for key, series in (("iii", tq.diam_over_growth), ("iv", tq.radius_ratio),
                        ("v", tq.H_ratio), ("vi", tq.iso),
                        ("vii", tq.sqrt_t_maxH)):
        conditions[key] = rule.entry(key, tq.times, series)

    return ConditionReport(window=(float(tq.times[0]), float(tq.times[-1])),
                           n=traj.n, conditions=conditions,
                           sphericity_times=tq.times,
                           sphericity_f0_max=s["f0"])


# ---------------------------------------------------------------------------
# pinched-flow decay: monotone Lp integrals and the integral envelope
# ---------------------------------------------------------------------------

def feasible_sigma_p(eps, n):
    """A (sigma, p) pair satisfying all admissibility gates for pinching eps.

    Gates: p >= 100/eps^2, sigma <= n eps^3 / (16 sqrt(p)), and p sigma > n;
    the last two are compatible only for p > 256/eps^6, which fixes the
    scale of p.  Taking p >= 1.1 * 256/eps^6 gives p sigma >= 0.999 sqrt(1.1) n,
    about 1.048 n.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    p = math.ceil(max(100.0 / eps ** 2, 1.1 * 256.0 / eps ** 6))
    return 0.999 * n * eps ** 3 / (16.0 * math.sqrt(p)), p


def _check_gates(eps, n, sigma, p):
    if p < 100.0 / eps ** 2 - 1e-9:
        raise ParameterGateViolatedError(
            f"p = {p} below the admissible floor {100.0 / eps ** 2:.1f}")
    if sigma > n * eps ** 3 / (16.0 * math.sqrt(p)) * (1.0 + 1e-9):
        raise ParameterGateViolatedError("sigma exceeds n eps^3 / (16 sqrt p)")
    if p * sigma <= n:
        raise ParameterGateViolatedError("need p*sigma > n for the envelope")


@dataclass(eq=False)
class PinchingDecayReport:
    eps: float
    sigma: float
    p: float
    times: np.ndarray
    log_phi: np.ndarray           # log int f_sigma^p dmu per slice
    pair_slack: np.ndarray        # relative slack of the monotonicity inequality
    monotone_ok: bool
    envelope_log_c3: float       # log of the fitted envelope constant
    area_bound_c: float

    @property
    def envelope_c3(self):
        return math.exp(self.envelope_log_c3) if np.isfinite(self.envelope_log_c3) else 0.0

    def max_slack(self):
        return float(np.max(self.pair_slack)) if len(self.pair_slack) else 0.0


def pinching_decay_check(traj, sigma, p):
    """Discrete decay of int f_sigma^p dmu along a uniformly pinched flow.

    Verifies, per adjacent snapshot pair and in log space,
        d/dt log int f^p dmu  <=  -p sigma <H^2>_w + slack,
    where <H^2>_w is the f^p dmu weighted mean (monotone_ok: every pair's
    relative slack is at most 1%), and fits the envelope
    constant c3 such that (int f^p dmu)^(2/(sigma p)) <=
    c3 / (|T0|^(1-n/(sigma p)) - |t|^(1-n/(sigma p))) across the window.
    Also reports the fitted area-bound constant sup |M_t| / (-t)^(n/2).
    """
    ts = traj.times()
    n = traj.n
    s = _Series(traj)
    if np.any(s["minH"] <= H_FLOOR):
        raise NotKConvexError("slice with H <= 0; not a pinched convex flow")
    eps = float(np.min(s["eps_min"]))
    if eps <= 0.0:
        raise ParameterGateViolatedError("flow is not uniformly pinched")
    _check_gates(eps, n, sigma, p)

    log_phi = []
    mean_H2 = []
    areas = []
    for sl in traj.slices:
        deficit = umbilic_deficit(sl, sigma)
        fld = curvature_field(sl)
        log_phi.append(deficit.log_lp_integral(p))
        mean_H2.append(deficit.weighted_mean(fld.H ** 2, p))
        areas.append(float(np.sum(fld.dmu)))
    log_phi = np.array(log_phi)
    mean_H2 = np.array(mean_H2)
    areas = np.array(areas)

    slacks = []
    for i in range(len(ts) - 1):
        if not (np.isfinite(log_phi[i]) and np.isfinite(log_phi[i + 1])):
            slacks.append(0.0)  # identically umbilic: inequality is 0 <= 0
            continue
        lhs = (log_phi[i + 1] - log_phi[i]) / (ts[i + 1] - ts[i])
        rhs = p * sigma * 0.5 * (mean_H2[i] + mean_H2[i + 1])
        slacks.append(max(0.0, (lhs + rhs)) / rhs)
    slacks = np.array(slacks)

    e = 1.0 - n / (sigma * p)
    T0 = abs(ts[0])
    log_c3 = -math.inf
    for i in range(1, len(ts)):
        if not np.isfinite(log_phi[i]):
            continue
        denom = T0 ** e - abs(ts[i]) ** e
        if denom <= 0.0:
            continue
        log_c3 = max(log_c3, 2.0 / (sigma * p) * log_phi[i] + math.log(denom))
    c_area = float(np.max(areas / (-ts) ** (n / 2.0)))
    return PinchingDecayReport(eps=eps, sigma=sigma, p=p, times=ts,
                               log_phi=log_phi, pair_slack=slacks,
                               monotone_ok=bool(np.all(slacks <= 0.01)),
                               envelope_log_c3=log_c3, area_bound_c=c_area)


# ---------------------------------------------------------------------------
# diameter growth <=> two-sided curvature decay
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class DiameterCurvatureReport:
    times: np.ndarray
    diam_margin: np.ndarray      # diam / (1 + sqrt(-t))
    H_upper: np.ndarray          # sqrt(-t) max H
    H_lower: np.ndarray          # sqrt(-t) min H
    diam_verdict: str
    curvature_verdict: str
    verdicts_agree: bool
    harnack_transfer_max: float  # max of maxH(t) / (e^(c^2/2) minH(t/2)); <= 1 expected
    c_measured: float


def diameter_curvature_check(traj):
    """Check the diameter bound and the two-sided curvature bound together.

    Bounded diameter growth and bounded sqrt(-t) H from both sides are
    equivalent; the report carries both margin series, their verdicts, and
    the quantitative Harnack transfer max H(t) <= e^(c^2/2) min H(t/2) with
    c the measured sup of diam_I / sqrt(-t), over the slices that have one
    within 2% of t/2.
    """
    rule = VerdictRule()
    _require_two_decades(traj)
    if traj.engine == "cap":
        raise TypeError("diameter and curvature decay apply to Euclidean trajectories")
    s = _Series(traj)
    ts = s["t"]
    diam_m = s["diam_growth"]
    hu = s["typeI"]
    hl = s["sqrt_neg_t"] * s["minH"]

    diam_verdict = rule.entry("iii", ts, diam_m).verdict
    # two-sided curvature margin: upper ratio and inverse lower ratio
    curv_margin = np.maximum(hu, 1.0 / np.maximum(hl, 1e-300))
    curvature_verdict = rule.entry("curvature", ts, curv_margin).verdict

    c = float(np.max(s["diam_I"] / s["sqrt_neg_t"]))
    transfer = 0.0
    for i, t in enumerate(ts):
        target = t / 2.0
        j = int(np.argmin(np.abs(ts - target)))
        if abs(ts[j] - target) > 0.02 * abs(target):
            continue
        transfer = max(transfer, s["maxH"][i] / (math.exp(c * c / 2.0) * s["minH"][j]))
    return DiameterCurvatureReport(
        times=ts, diam_margin=diam_m, H_upper=hu, H_lower=hl,
        diam_verdict=diam_verdict, curvature_verdict=curvature_verdict,
        verdicts_agree=(diam_verdict == BOUNDED) == (curvature_verdict == BOUNDED),
        harnack_transfer_max=transfer, c_measured=c)


# ---------------------------------------------------------------------------
# type-II rescaling and the translating-soliton signature
# ---------------------------------------------------------------------------

@dataclass(eq=False, kw_only=True)
class RescaledFlow(Trajectory):
    """A type-II rescaled flow: its slices carry tau times and filled curvature
    caches.  To a Trajectory it adds the anchor time t_k and scale L_k, the
    marked sample index and normal angle after rescaling, and type1_flag
    (sqrt(-t) max H varies by under 10% over the window)."""
    t_k: float
    L_k: float
    marked_index: int
    marked_theta: float
    type1_flag: bool


def type_two_rescale(traj, window):
    """Curvature-normalized rescaling anchored at the space-time curvature max.

    Selects (p_k, t_k) maximizing sqrt(-t) H over the snapshots with
    t in [-window, -1] (ties: latest t, then smallest sample index), sets
    L_k = H(p_k, t_k), and emits the flow rescaled by L_k in space and
    L_k^2 in time with tau = L_k^2 (t - t_k), translated so the marked
    contact point sits at the origin and (curve mode) rotated by a grid
    shift so the marked normal is the +y direction.
    """
    k = float(window)
    ts = traj.times()
    if ts[0] > -k * (1.0 - 1e-9) or ts[-1] < -1.0 - 1e-9:
        raise WindowNotCoveredError(f"window [-{k}, -1] not covered by "
                                    f"[{ts[0]:.3g}, {ts[-1]:.3g}]")
    idx = [i for i, t in enumerate(ts) if -k * (1.0 + 1e-9) <= t <= -1.0 + 1e-9]
    if not idx:  # also a window below 1 or nan
        raise WindowNotCoveredError(f"no snapshot in the window [-{k}, -1]")
    series = _Series(traj)["typeI"][idx]
    best_val = -math.inf
    for i, val in zip(idx, series):  # ascending t: later t wins ties via >=
        if val >= best_val * (1.0 - 1e-12):
            best_val = val
            i_k = i
    t_k = float(ts[i_k])
    base_slice = traj.slices[i_k]
    fld_k = curvature_field(base_slice)
    j_k = int(np.argmax(fld_k.H))  # argmax returns the smallest maximizing index
    L_k = float(fld_k.H[j_k])
    x_k = base_slice.body.boundary_points()[j_k]
    type1 = float(np.max(series) / np.min(series)) < 1.1

    curve_mode = traj.engine == MODE_CURVE
    N = traj.N
    if curve_mode:
        roll = (N // 4) - j_k
        marked_index = N // 4
        marked_theta = 2.0 * math.pi * marked_index / N
    else:
        roll = 0
        marked_index = j_k
        marked_theta = math.pi * j_k / N

    out = []
    for i in idx:
        sl = traj.slices[i]
        body = sl.body
        h = body.h - shift_support(body.mode, body.h, x_k if curve_mode else x_k[0])
        if roll:
            h = np.roll(h, roll)
        # the marked frame puts p_k at the origin, so support values are not
        # positive there; store each slice recentered and keep the shift back
        # to the marked frame (h_marked = h_stored + <shift, nu>).
        h, shift = recentre(body.mode, L_k * h)
        new_body = body.with_values(h)
        # curvature is translation invariant: transplant the base field
        # exactly instead of re-differencing the shifted support values.
        fld = curvature_field(sl)
        rolled = (lambda a: np.roll(a, roll, axis=0)) if roll else (lambda a: a)
        new_body._cache["curvature"] = type(fld)(
            n=fld.n, lambdas=rolled(fld.lambdas / L_k), H=rolled(fld.H / L_k),
            A2=rolled(fld.A2 / L_k ** 2),
            grad_H2=rolled(fld.grad_H2 / L_k ** 4),
            grad_A2=rolled(fld.grad_A2 / L_k ** 4),
            dmu=rolled(fld.dmu * L_k ** traj.n),
            nu=new_body.normals(),
            kappa_profile=rolled(fld.kappa_profile / L_k))
        tau = L_k * L_k * (ts[i] - t_k)
        out.append(TimeSlice(tau if tau != 0.0 else 0.0, new_body, shift))
    # tau times of a rescaled ancient flow are strictly increasing already
    return RescaledFlow(slices=out, meta={"engine": f"rescaled:{traj.engine}"}, t_k=t_k,
                        L_k=L_k, marked_index=marked_index,
                        marked_theta=marked_theta, type1_flag=type1)


def fit_translation(H, nu, weights):
    """Least-squares constant vector V with H ~ <V, nu>; returns (V, residual).

    The residual is RMS(H - <V, nu>) / RMS(H) under the given weights.
    """
    H = np.asarray(H, dtype=float)
    nu = np.asarray(nu, dtype=float)
    w = np.asarray(weights, dtype=float)
    A = nu * w[:, None]
    M = nu.T @ A
    rhs = nu.T @ (w * H)
    V = np.linalg.solve(M, rhs)
    resid = H - nu @ V
    num = math.sqrt(float(np.sum(w * resid ** 2)))
    den = math.sqrt(float(np.sum(w * H ** 2)))
    return V, num / den if den > 0.0 else 0.0


@dataclass(frozen=True)
class SolitonFit:
    V: tuple
    residual: float
    tau: float


def soliton_proximity(rescaled):
    """Translating-soliton signature of a rescaled flow near tau = 0.

    Fits a constant vector V minimizing the weighted misfit of H = <V, nu>
    over the normal angles within 1.2 of the marked point's, on the slice
    nearest tau = 0; a small residual is the quantitative stand-in for
    convergence to a translating solution.
    """
    if len(rescaled.slices) < 3:
        raise ValueError("need at least 3 rescaled slices near tau = 0")
    taus = rescaled.times()
    i0 = int(np.argmin(np.abs(taus)))
    sl = rescaled.slices[i0]
    fld = curvature_field(sl)
    body = sl.body
    ang = body.angles()
    dist = np.abs(np.remainder(ang - rescaled.marked_theta + math.pi,
                               2.0 * math.pi) - math.pi)
    mask = dist <= 1.2
    V, res = fit_translation(fld.H[mask], fld.nu[mask], fld.dmu[mask])
    return SolitonFit(V=tuple(V), residual=res, tau=float(taus[i0]))


# ---------------------------------------------------------------------------
# uniformly k-convex gap check
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class KConvexGapReport:
    times: np.ndarray
    margins: np.ndarray          # per-slice min of H^2 - (n-k+1)|A|^2
    alpha_measured: float
    holds: bool
    sup_ratio: float             # sup over the window of |A|^2/H^2


def kconvex_gap_check(traj, k):
    """Margin series of the sharp bound H^2 > (n-k+1) |A|^2.

    Requires the trajectory to be uniformly k-convex on the window; raises
    NotKConvexError otherwise and reports the measured alpha.
    """
    n = traj.n
    if not 2 <= k <= n - 1:
        raise ValueError("k must lie in 2..n-1")
    s = _Series(traj)
    alpha = _kconvex_margin(s, k)  # over the slices with min H > H_FLOOR, as diagnose --k
    if alpha <= 0.0:
        raise NotKConvexError(f"k-convexity margin {alpha:.3g} <= 0 on the window")
    margins = np.array([float(np.min(f.H ** 2 - (n - k + 1.0) * f.A2)) for f in s.fields])
    return KConvexGapReport(times=traj.times(), margins=margins,
                            alpha_measured=float(alpha),
                            holds=bool(np.all(margins > 0.0)),
                            sup_ratio=float(np.fmax.reduce(s["ahh"], initial=0.0)))
