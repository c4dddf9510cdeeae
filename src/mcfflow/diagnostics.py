"""Pointwise and integral curvature diagnostics on slices and trajectories.

Discretization choices, shared across the module:

* Principal curvatures come from the 3-point second difference of the
  support samples (1/(h''+h) on the profile, sin(phi)/r azimuthally).  The
  3-point stencil is positivity-preserving on exact support samples, so
  convex slices always report H > 0 even where the grid underresolves a
  flat side; accuracy is the documented O(N^-2).
* Gradients are meridian derivatives weighted by the induced metric
  (ds = (h''+h) dphi); azimuthal derivatives vanish by symmetry, and the
  full |grad A|^2 is transplanted as the profile-direction norm -- a
  documented limitation of the axisymmetric representation.
* Quadrature is trapezoidal with metric weights dmu, the grid weights of
  ``SupportProfile.weights`` times the metric.  The stencils and the pole
  limit kappa2 -> kappa1 are those of ``bodies``.
* Time derivatives are taken at fixed normal direction, the natural gauge
  for support-function flows (the Gauss map is the fixed parameter).

Umbilic tolerance is 1e-10; mean-curvature positivity floor is 1e-12
(below it the normalized deficits raise instead of dividing).
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from . import geometry
from .bodies import CapState, MODE_CURVE, azimuthal_curvature, d1, sphere_surface_area
from .engine import TimeSlice

UMBILIC_TOL = 1e-10
H_FLOOR = 1e-12


class NonPositiveCurvatureError(ValueError):
    """A normalized quantity needed H > 0 but the slice contains H <= 0."""


@dataclass(eq=False)
class CurvatureField:
    """Per-sample curvature data of one slice.

    lambdas has shape (m, n), rows sorted ascending; H = sum, A2 = sum of
    squares.  grad_H2 and grad_A2 are the squared induced-metric gradient
    norms; dmu the quadrature weights; nu the profile-plane normals.
    """
    n: int
    lambdas: np.ndarray
    H: np.ndarray
    A2: np.ndarray
    grad_H2: np.ndarray
    grad_A2: np.ndarray
    dmu: np.ndarray
    nu: np.ndarray
    kappa_profile: np.ndarray = None  # meridian/profile curvature (unsorted)

    @property
    def m(self):
        return len(self.H)

    def eps_min(self):
        """min over samples of lambda_1 / H (pinching margin)."""
        return float(np.min(self.lambdas[:, 0] / self.H))

    def ahh_max(self):
        """max over samples of |A|^2 / H^2."""
        return float(np.max(self.A2 / self.H ** 2))

    def kconvex_margin(self, k):
        """min over samples of (lambda_1 + ... + lambda_k)/H."""
        if not 1 <= k <= self.n:
            raise ValueError("k out of range")
        return float(np.min(np.sum(self.lambdas[:, :k], axis=1) / self.H))

    def umbilic_mask(self):
        spread = self.lambdas.max(axis=1) - self.lambdas.min(axis=1)
        return spread < UMBILIC_TOL * np.maximum(np.abs(self.H), 1.0)

    def integrate(self, values):
        return float(np.sum(np.asarray(values) * self.dmu))


def curvature_field(slice_or_body):
    """CurvatureField of a TimeSlice or a bare body, cached on the body.

    Cap fields are O(1) and are not cached.
    """
    body = slice_or_body.body if isinstance(slice_or_body, TimeSlice) else slice_or_body
    if isinstance(body, CapState):
        return _cap_field(body)
    field = body._cache.get("curvature")
    if field is None:
        field = _curve_field(body) if body.mode == MODE_CURVE else _axisym_field(body)
        body._cache["curvature"] = field
    return field


def _curve_field(body):
    rho = body.curvature_radius()
    kappa = 1.0 / rho
    H = kappa
    dmu = rho * body.weights()
    dHds = d1(body.mode, H, body.step) / rho
    g2 = dHds ** 2
    return CurvatureField(n=1, lambdas=kappa[:, None], H=H, A2=kappa ** 2,
                          grad_H2=g2, grad_A2=g2, dmu=dmu, nu=body.normals(),
                          kappa_profile=kappa)


def _axisym_field(body):
    n = body.n
    dphi = body.step
    phi = body.angles()
    rho = body.curvature_radius()
    kappa1 = 1.0 / rho
    r = body.axis_distance()
    kappa2 = azimuthal_curvature(kappa1, np.sin(phi), r, np.empty_like(kappa1))
    lambdas = np.concatenate([kappa1[:, None], np.repeat(kappa2[:, None], n - 1, axis=1)],
                             axis=1)
    lambdas.sort(axis=1)
    H = kappa1 + (n - 1) * kappa2
    A2 = kappa1 ** 2 + (n - 1) * kappa2 ** 2
    dmu = sphere_surface_area(n - 1) * np.maximum(r, 0.0) ** (n - 1) * rho * body.weights()
    dHds = d1(body.mode, H, dphi) / rho
    dk1 = d1(body.mode, kappa1, dphi) / rho
    dk2 = d1(body.mode, kappa2, dphi) / rho
    return CurvatureField(n=n, lambdas=lambdas, H=H, A2=A2,
                          grad_H2=dHds ** 2,
                          grad_A2=dk1 ** 2 + (n - 1) * dk2 ** 2,
                          dmu=dmu, nu=body.normals(), kappa_profile=kappa1)


def _cap_field(cap):
    lam = cap.principal_curvature()
    lambdas = np.full((1, cap.n), lam)
    zero = np.zeros(1)
    return CurvatureField(n=cap.n, lambdas=lambdas,
                          H=np.array([cap.n * lam]), A2=np.array([cap.n * lam ** 2]),
                          grad_H2=zero, grad_A2=zero,
                          dmu=np.array([cap.area()]),
                          nu=np.array([[0.0, 1.0]]),
                          kappa_profile=np.array([lam]))


# ---------------------------------------------------------------------------
# normalized pinching deficits
# ---------------------------------------------------------------------------

def _require_positive_H(field):
    if np.min(field.H) <= H_FLOOR:
        raise NonPositiveCurvatureError("slice contains H <= 0; the normalized "
                                        "deficit is undefined there")


@dataclass(eq=False)
class DeficitField:
    """A pointwise deficit with its quadrature weights; Lp helpers in logs."""
    values: np.ndarray
    dmu: np.ndarray

    def max(self):
        return float(np.max(self.values))

    def lp_integral(self, p):
        """int f^p dmu (positive part); may underflow for large p -- prefer
        log_lp_integral there."""
        _require_exponent(p)
        pos = np.maximum(self.values, 0.0)
        return float(np.sum(pos ** p * self.dmu))

    def _log_weights(self, p):
        """log(f^p dmu) on the samples with f > 0, and their mask."""
        _require_exponent(p)
        pos = self.values > 0.0
        return p * np.log(self.values[pos]) + np.log(self.dmu[pos]), pos

    def log_lp_integral(self, p):
        """log int f_+^p dmu, computed stably; -inf when f <= 0 everywhere.

        The tied maxima are split off as log(count); the rest is summed over
        the whole array, the maxima as zeros, in numpy's pairwise order."""
        logs, _ = self._log_weights(p)
        if logs.size == 0:
            return -math.inf
        top_value = np.max(logs)
        top = logs == top_value
        m = np.count_nonzero(top)
        s = np.sum(np.exp(np.where(top, -np.inf, logs - top_value))) / m
        return float(np.log1p(s) + np.log(m) + top_value)

    def weighted_mean(self, quantity, p):
        """Mean of `quantity` under the weights f_+^p dmu (stable softmax)."""
        logs, pos = self._log_weights(p)
        if logs.size == 0:
            return 0.0
        w = np.exp(logs - np.max(logs))
        w /= np.sum(w)
        return float(np.sum(w * np.asarray(quantity)[pos]))


def _require_exponent(p):
    if not 0.0 < p < math.inf:
        raise ValueError("p must be finite and positive")


def _require_sigma(sigma):
    if not 0.0 <= sigma <= 2.0:
        raise ValueError("sigma must lie in [0, 2]")


def umbilic_deficit(slice_or_body, sigma):
    """Normalized umbilic deficit (|A|^2 - H^2/n) / H^(2-sigma), >= 0.

    Zero exactly at umbilic samples (spread below the umbilic tolerance is
    clamped, so round slices report 0 rather than roundoff); requires H > 0.
    """
    _require_sigma(sigma)
    field = curvature_field(slice_or_body)
    _require_positive_H(field)
    vals = (field.A2 - field.H ** 2 / field.n) / field.H ** (2.0 - sigma)
    vals = np.maximum(vals, 0.0)
    vals[field.umbilic_mask()] = 0.0
    return DeficitField(vals, field.dmu)


def kconvex_deficit(slice_or_body, sigma, eta, k):
    """Signed deficit (|A|^2 - (1/(n-k+1) + eta) H^2) / H^(2-sigma).

    The positive part feeds the trajectory-level gap analysis.
    """
    field = curvature_field(slice_or_body)
    if not 2 <= k <= field.n - 1:
        raise ValueError("k must lie in 2..n-1")
    _require_sigma(sigma)
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    _require_positive_H(field)
    coeff = 1.0 / (field.n - k + 1.0) + eta
    vals = (field.A2 - coeff * field.H ** 2) / field.H ** (2.0 - sigma)
    return DeficitField(vals, field.dmu)


# ---------------------------------------------------------------------------
# k-convexity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KConvexity:
    margin: float
    sufficient_alpha: float
    ahh_max: float


def sufficient_alpha_from_ratio(ratio, n, k):
    """Largest alpha certified by |A|^2/H^2 <= (1-2 alpha)/(n-k)."""
    return max(0.0, 0.5 * (1.0 - (n - k) * ratio))


def kconvexity(slice_or_body, k):
    """Measured k-convexity margin and the ratio-certified alpha."""
    field = curvature_field(slice_or_body)
    if not 1 <= k <= field.n - 1:
        raise ValueError("k must lie in 1..n-1")
    _require_positive_H(field)
    return KConvexity(margin=field.kconvex_margin(k),
                      sufficient_alpha=sufficient_alpha_from_ratio(
                          field.ahh_max(), field.n, k),
                      ahh_max=field.ahh_max())


def pinching_gap_level(sup_ratio, tol=1e-9):
    """Classify sup |A|^2/H^2 as the reciprocal 1/h of an integer h.

    Reference configurations land exactly on 1/h (sphere: h = n, cylinder
    with k flat factors: h = n - k).  Raises if no integer is within tol.
    """
    if sup_ratio <= 0.0 or sup_ratio > 1.0 + tol:
        raise ValueError("ratio must lie in (0, 1]")
    h = round(1.0 / sup_ratio)
    if h < 1 or abs(sup_ratio - 1.0 / h) > tol:
        raise ValueError(f"sup ratio {sup_ratio} is not near any 1/h")
    return int(h)


# ---------------------------------------------------------------------------
# Harnack quantity
# ---------------------------------------------------------------------------

def harnack_quantity(traj, t):
    """Pointwise dH/dt - |grad H|^2 / H at a snapshot time, and its min.

    dH/dt is the material time derivative (following the normal flow).  The
    snapshots store support values, whose natural time derivative is at
    fixed normal direction; the contact point of a fixed normal drifts
    tangentially with velocity -W^(-1) grad H, so the material derivative is
    reconstructed as

        dH/dt = dH/dt|_nu + <W^(-1) grad H, grad H>
              = dH/dt|_nu + |grad H|^2 / kappa_profile

    (the gradient lives in the profile direction only).  On translating
    regions this makes the quantity vanish identically, the equality case;
    wherever grad H = 0 (spheres, caps) the correction is zero.  Boundary
    snapshot times are rejected.
    """
    i = traj.interior_index(t)
    ts = traj.times()
    vals = _harnack([curvature_field(sl) for sl in traj.slices[i - 1:i + 2]], ts[i - 1:i + 2], 1)
    return vals, float(np.min(vals))


def _harnack(fields, ts, i):
    """The Harnack quantity on fields[i], the fields of snapshots at times ts."""
    dHdt_nu = (fields[i + 1].H - fields[i - 1].H) / (ts[i + 1] - ts[i - 1])
    drift = _quotient(fields[i].grad_H2, fields[i].kappa_profile)
    return dHdt_nu + drift - _quotient(fields[i].grad_H2, fields[i].H)


def _quotient(num, den):
    """num / den, and 0 wherever num == 0, so an equator's 0/0 reads 0."""
    return np.divide(num, den, out=np.zeros_like(num), where=num != 0.0)


# ---------------------------------------------------------------------------
# trajectory-level suprema (type-I etc.)
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TypeQuantities:
    times: np.ndarray
    sqrt_t_maxH: np.ndarray
    diam_over_growth: np.ndarray
    radius_ratio: np.ndarray
    H_ratio: np.ndarray
    iso: np.ndarray

    @property
    def typeI_sup(self):
        return float(np.max(self.sqrt_t_maxH))

    @property
    def radius_ratio_sup(self):
        return float(np.max(self.radius_ratio))

    @property
    def H_ratio_sup(self):
        return float(np.max(self.H_ratio))

    @property
    def iso_sup(self):
        return float(np.max(self.iso))


class _Series(dict):
    """The per-slice series of a trajectory, a dict of arrays (NaN: blank).

    A column is computed in one walk over the slices when first read: t,
    maxH, minH, ahh (max |A|^2/H^2), eps_min, f0, grad_ratio and harnack_min
    (blank on the end slices) from curvature_field; diam, diam_I, rho_minus,
    rho_plus and iso_ratio from geometry.measure (blank on caps); typeI =
    sqrt(-t) max H and diam_growth = diam/(1+sqrt(-t)) (blank where t > 0).
    """

    def __init__(self, traj):
        super().__init__(t=traj.times())
        self.traj = traj
        self.fields = [curvature_field(sl) for sl in traj.slices]

    def __missing__(self, key):
        with np.errstate(divide="ignore", invalid="ignore"):  # an equator has H = 0
            self[key] = column = _COLUMNS[key](self)
        return column


def _measured(key):
    return lambda s: np.array([math.nan if isinstance(sl.body, CapState)
                               else getattr(geometry.measure(sl.body), key)
                               for sl in s.traj.slices])


_COLUMNS = {
    "maxH": lambda s: np.array([f.H.max() for f in s.fields]),
    "minH": lambda s: np.array([f.H.min() for f in s.fields]),
    "ahh": lambda s: np.array([f.ahh_max() for f in s.fields]),
    "eps_min": lambda s: np.array([f.eps_min() for f in s.fields]),
    "f0": lambda s: np.maximum(0.0, s["ahh"] - 1.0 / s.traj.n),
    "grad_ratio": lambda s: np.array([_quotient(f.grad_A2, np.maximum(f.A2, 1e-300) ** 2).max()
                                      for f in s.fields]),
    "harnack_min": lambda s: np.array([_harnack(s.fields, s["t"], i).min()
                                       if 0 < i < len(s.fields) - 1 else math.nan
                                       for i in range(len(s.fields))]),
    "sqrt_neg_t": lambda s: np.sqrt(-s["t"], out=np.full(len(s["t"]), math.nan),
                                    where=s["t"] <= 0.0),
    "typeI": lambda s: s["sqrt_neg_t"] * s["maxH"],
    "diam_growth": lambda s: s["diam"] / (1.0 + s["sqrt_neg_t"]),
    **{key: _measured(key) for key in ("diam", "diam_I", "rho_minus", "rho_plus", "iso_ratio")},
}


def type_quantities(traj):
    """Per-slice margin series behind the sphere characterizations.

    Requires at least 10 slices.  Returns sqrt(-t) max H, diam/(1+sqrt(-t)),
    rho_+/rho_-, max H / min H and the isoperimetric ratio, with their sups.
    """
    return _type_quantities(traj, _Series(traj))


def _type_quantities(traj, s):
    """type_quantities of traj from its _Series table s."""
    if len(traj) < 10:
        raise ValueError("need at least 10 slices")
    if traj.engine == "cap":
        raise ValueError("type quantities apply to Euclidean trajectories")
    if np.any(s["t"] > 0.0):
        raise ValueError("type quantities need t <= 0")
    return TypeQuantities(s["t"], s["typeI"], s["diam_growth"],
                          s["rho_plus"] / s["rho_minus"], s["maxH"] / s["minH"],
                          s["iso_ratio"])


# ---------------------------------------------------------------------------
# gradient estimate quantities
# ---------------------------------------------------------------------------

def gradient_sigma(n, k):
    """sigma(n, k) = (3/(n+2) - 1/(n-k+1)) / 2; positive iff k < (2n+1)/3."""
    return 0.5 * (3.0 / (n + 2.0) - 1.0 / (n - k + 1.0))


@dataclass(frozen=True)
class GradientRatio:
    max_ratio: float
    sigma: float = math.nan
    g1_min: float = math.nan
    g2_min: float = math.nan


def gradient_ratio(slice_or_body, k=None):
    """max |grad A|^2 / |A|^4, optionally with the auxiliary g1, g2 minima.

    g1 = (1/(n-k+1) + sigma) H^2 - |A|^2 and g2 = 3 H^2/(n+2) - |A|^2 are
    reported when k is given and k < (2n+1)/3 (where sigma(n,k) > 0).
    """
    field = curvature_field(slice_or_body)
    if np.min(field.A2) <= 0.0:
        raise ValueError("|A| must be positive on the slice")
    ratio = float(np.max(field.grad_A2 / field.A2 ** 2))
    if k is None:
        return GradientRatio(max_ratio=ratio)
    if not 1 <= k <= field.n - 1:
        raise ValueError("k out of range")
    if 3 * k >= 2 * field.n + 1:
        return GradientRatio(max_ratio=ratio, sigma=gradient_sigma(field.n, k))
    sig = gradient_sigma(field.n, k)
    g1 = (1.0 / (field.n - k + 1.0) + sig) * field.H ** 2 - field.A2
    g2 = 3.0 / (field.n + 2.0) * field.H ** 2 - field.A2
    return GradientRatio(max_ratio=ratio, sigma=sig,
                         g1_min=float(np.min(g1)), g2_min=float(np.min(g2)))


# ---------------------------------------------------------------------------
# cubic curvature excess (the positivity workhorse of the k-convex gap)
# ---------------------------------------------------------------------------

def cubic_excess_from_lambdas(lambdas):
    """Z = H tr(A^3) - |A|^4 for rows of principal curvatures."""
    lambdas = np.atleast_2d(lambdas)
    H = lambdas.sum(axis=1)
    A2 = (lambdas ** 2).sum(axis=1)
    A3 = (lambdas ** 3).sum(axis=1)
    return H * A3 - A2 ** 2


@dataclass(eq=False)
class CubicExcess:
    values: np.ndarray
    margin: float          # +inf when no sample has positive deficit
    active_samples: int


def cubic_curvature_excess(slice_or_body, k, alpha, eta):
    """Z = H tr(A^3) - |A|^4 and its margin over the gap threshold.

    On samples where the k-convex deficit is positive (|A|^2 exceeds
    (1/(n-k+1) + eta) H^2), uniform k-convexity forces
    Z >= (n-k+1) alpha^2 eta / k^2 * H^4; the reported margin is the min of
    Z minus that threshold over the active samples.
    """
    field = curvature_field(slice_or_body)
    if np.min(field.lambdas) <= 0.0:
        raise ValueError("cubic excess analysis expects a convex slice")
    Z = cubic_excess_from_lambdas(field.lambdas)
    coeff = 1.0 / (field.n - k + 1.0) + eta
    active = field.A2 > coeff * field.H ** 2
    if not np.any(active):
        return CubicExcess(values=Z, margin=math.inf, active_samples=0)
    bound = (field.n - k + 1.0) * alpha ** 2 * eta / k ** 2 * field.H ** 4
    margin = float(np.min((Z - bound)[active]))
    return CubicExcess(values=Z, margin=margin, active_samples=int(np.sum(active)))


# ---------------------------------------------------------------------------
# ambient-sphere pinching (caps and equators)
# ---------------------------------------------------------------------------

def ambient_pinching_b(n, K, eps=1.0):
    """The pinching-function offset used in the ambient sphere:
    b = 3 n (n-1) K / 2 for n >= 3 and b = 4 (4 - eps) K / 3 for n = 2."""
    if n >= 3:
        return 1.5 * n * (n - 1.0) * K
    if n == 2:
        if not 0.0 < eps < 4.0:
            raise ValueError("eps must lie in (0, 4)")
        return 4.0 * (4.0 - eps) / 3.0 * K
    raise ValueError("ambient pinching needs n >= 2")


@dataclass(eq=False)
class AmbientPinching:
    times: np.ndarray
    f: object              # per-slice umbilic ratio deficits; None on equators
    phi_b: np.ndarray
    hypothesis_margin: np.ndarray
    b: float
    K: float


def ambient_pinching(cap_traj, b=None, eps=1.0):
    """Ambient-sphere pinching functions along a cap/equator trajectory.

    f = (|A|^2 - H^2/n)/H^2 (undefined on equators, reported as None there),
    phi_b = (|A|^2 - H^2/n)/(H^2 + b) which stays defined at H = 0, and the
    per-slice margin of the pinching hypothesis (2K - (|A|^2 - H^2/(n-1))
    for n >= 3; (4-eps)K/3 - (|A|^2 - 3H^2/4) for n = 2).
    """
    if cap_traj.engine != "cap":
        raise ValueError("ambient pinching applies to cap trajectories")
    K = cap_traj.slices[0].body.ambient_curvature
    n = cap_traj.n
    if b is None:
        b = ambient_pinching_b(n, K, eps)
    ts, fs, phis, margins = [], [], [], []
    for sl in cap_traj.slices:
        cap = sl.body
        H = cap.mean_curvature()
        A2 = cap.n * cap.principal_curvature() ** 2
        deficit = A2 - H * H / n
        ts.append(sl.t)
        fs.append(None if cap.is_equator else deficit / (H * H))
        phis.append(deficit / (H * H + b))
        if n >= 3:
            margins.append(2.0 * K - (A2 - H * H / (n - 1.0)))
        else:
            margins.append((4.0 - eps) / 3.0 * K - (A2 - 0.75 * H * H))
    f = None if any(v is None for v in fs) else np.array(fs)
    return AmbientPinching(np.array(ts), f, np.array(phis), np.array(margins),
                           b=b, K=K)


def decay_envelope(K, n, t, t1, fmax_at_t):
    """Backward growth envelope e^(-4 n K (t1 - t)) * max f(t) for t < t1.

    Pure arithmetic of the ambient maximum-principle bound: any non-umbilic
    deficit present at t1 must exceed this envelope at earlier times.
    """
    if not t < t1:
        raise ValueError("need t < t1")
    return math.exp(-4.0 * n * K * (t1 - t)) * fmax_at_t


# ---------------------------------------------------------------------------
# summary report
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PinchingReport:
    eps_min: float
    f_sigma_max: float
    f_sigma_lp: dict
    kconvex_margin: dict
    ahh: float
    harnack_min: float
    typeI_sup: float
    grad_ratio_max: float


def _kconvex_margin(s, k):
    """min of the k-convexity margin over the slices of the _Series s with
    min H > H_FLOOR (inf if there is none), as for the eps_min column."""
    return min((f.kconvex_margin(k) for f, h in zip(s.fields, s["minH"]) if h > H_FLOOR),
               default=math.inf)


def pinching_report(traj, sigma=0.05, p_values=(2.0,), k_values=()):
    """Trajectory-level pinching summary (the diagnose CLI's record)."""
    s = _Series(traj)
    positive = s["minH"] > H_FLOOR
    fmax = 0.0
    lp = {p: 0.0 for p in p_values}
    for sl, pos in zip(traj.slices, positive):
        if pos:
            def_ = umbilic_deficit(sl, sigma)
            fmax = max(fmax, def_.max())
            for p in p_values:
                lp[p] = max(lp[p], def_.lp_integral(p) ** (1.0 / p))
    try:
        typeI_sup = _type_quantities(traj, s).typeI_sup
    except ValueError:
        typeI_sup = math.nan
    return PinchingReport(eps_min=float(np.min(s["eps_min"][positive], initial=math.inf)),
                          f_sigma_max=fmax, f_sigma_lp=lp,
                          kconvex_margin={k: _kconvex_margin(s, k) for k in k_values},
                          ahh=float(np.fmax.reduce(s["ahh"], initial=0.0)),  # skips 0/0
                          harnack_min=float(np.min(s["harnack_min"][1:-1], initial=math.inf)),
                          typeI_sup=typeI_sup,
                          grad_ratio_max=float(np.max(s["grad_ratio"], initial=0.0)))
