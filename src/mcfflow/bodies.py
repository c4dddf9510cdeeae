"""Discrete convex-body representations.

Two geometry carriers cover everything in this package:

* ``SupportProfile`` -- a sampled support function.  In ``curve`` mode it
  describes a closed convex plane curve on the periodic normal-angle grid
  theta_j = 2*pi*j/N.  In ``axisym`` mode it describes a convex hypersurface
  of revolution in R^(n+1) through the support function of its generating
  profile, sampled on phi_j = pi*j/N over [0, pi] (phi is the angle between
  the outer normal and the rotation axis; reflective symmetry gives the
  Neumann conditions h'(0) = h'(pi) = 0).

* ``CapState`` -- a geodesic sphere inside the round ambient sphere of
  radius R, described by its geodesic radius.

The discrete convexity test uses the 3-point second difference.  That choice
is deliberate: for exact samples of any support function with h > 0 the
quantity D2 h + h is provably positive (h(t+d) + h(t-d) - 2h(t) >=
h(t)(2cos d - 2) by the support inequality against the contact point of t),
so valid bodies are never rejected, even when the grid underresolves a
nearly flat side.

The grid's discretization is defined here only: the boundary extension
(``_ghosts``, periodic or even about both poles) under the 3-point (``d1``,
``d2``, on ``_pad``) and 4th-order stencils (on the workspace ``Pad4``), the
pole limit ``azimuthal_curvature`` (``pole_limit`` on fixed arrays) and the
trapezoid weights ``SupportProfile.weights``.  ``engine`` reads the
4th-order stencils and the pole limit, ``diagnostics`` ``d1``, the pole
limit and the weights, and ``geometry`` the extension and the weights.
The 4th-order stencils give h'' + h and h' with weights that make mode 1
exact (``Pad4``), so a translation, which adds the mode-1 term <s, nu>,
leaves h'' + h unchanged and moves h' by exactly its own derivative.  The
3-point ``d2`` keeps its textbook weights: the positivity proof above needs
its +h O(d^2) term, so the convexity test is unchanged.

Every array that depends on the grid alone lives in the grid's plan
(``grid_plan``, one ``GridPlan`` per mode and sample count), the package's
only cache of grid constants: the sample angles with their cosines and
sines, the outer normals, the trapezoid weights, the Chebyshev LP's
constraint matrix (checked finite once), the interpolant's mode numbers and
series weights, and ``geometry``'s search grid and search index.  A plan is
built on first use (importing the package builds none), and its arrays are
read-only, since every body on the grid shares them.
``SupportProfile.angles``, ``normals`` and ``weights`` return the plan's
arrays.  The plans of the last ``_MAX_GRIDS`` (64) grids used are kept; an
older one is rebuilt if needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import math

import numpy as np

from . import _solvers


class NonConvexBodyError(ValueError):
    """Support samples violate the discrete convexity requirement."""


MODE_CURVE = "curve"
MODE_AXISYM = "axisym"


def sphere_surface_area(dim):
    """Surface measure of the unit sphere S^dim in R^(dim+1)."""
    return 2.0 * math.pi ** ((dim + 1) / 2.0) / math.gamma((dim + 1) / 2.0)


def unit_ball_volume(dim):
    """Volume of the unit ball in R^dim (dim >= 0)."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# the grid's discretization: boundary extension, stencils, pole limit
# ---------------------------------------------------------------------------

def _ghosts(mode, e, width):
    """(ghost, source) view pairs of samples e padded by `width` at each end:
    periodic on the curve grid (e[j] = h[j - width], indices mod N), even
    about both poles on the axisym grid (h[-j] = h[j], h[N+j] = h[N-j])."""
    if mode == MODE_CURVE:
        return [(e[:width], e[-2 * width:-width]), (e[-width:], e[width:2 * width])]
    return [(e[:width], e[2 * width:width:-1]),
            (e[-width:], e[-width - 2:-2 * width - 2:-1])]


def _pad(mode, h, width):
    """h extended by `width` samples past each grid end by the rule of _ghosts."""
    e = np.empty(len(h) + 2 * width)
    e[width:-width] = h
    for ghost, source in _ghosts(mode, e, width):
        ghost[...] = source
    return e


def d2(mode, h, dx):
    """3-point second difference on the grid of `mode`."""
    e = _pad(mode, h, 1)
    return (e[:-2] - 2.0 * e[1:-1] + e[2:]) / (dx * dx)


def d1(mode, h, dx):
    """3-point centered first difference on the grid of `mode`."""
    e = _pad(mode, h, 1)
    return (e[2:] - e[:-2]) / (2.0 * dx)


class Pad4:
    """Workspace of the 4th-order stencils on one grid of m samples, built once.

    ``x`` is the interior of a buffer ``e`` padded by two ghost cells at each
    end; write samples into it and call a stencil.  ``d2_periodic4`` and
    ``d2_reflect4`` fill the ghosts by their grid's rule (``_ghosts``, bound
    here as ``periodic`` and ``even``), ``d1_reflect4`` reads the ghosts
    ``d2_reflect4`` filled.  Each stencil is one ``np.correlate`` of ``e``
    with its five weights, built here for the grid step d:

    * ``w_rho``, h'' + h: the 5-point h'' weights [-1, 16, -30, 16, -1]
      times -1/(32 cos d - 2 cos 2d - 30), plus 1 at the centre;
    * ``w_d1``, h': [1, -8, 0, 8, -1] / (16 sin d - 2 sin 2d).

    The factors are 1/(12 d^2) and 1/(12 d) times 1 + O(d^4), so both
    stencils stay 4th order, and they make mode 1 exact: h'' + h annihilates
    cos and sin, and h' maps cos to -sin.  The denominators are formed as
    -16 s (3 + s) with s = sin^2(d/2) and 4 sin d (4 - cos d), which cancel
    no digits.
    """

    def __init__(self, h, dx):
        self.e = np.empty(len(h) + 4)
        self.x = self.e[2:-2]
        self.x[:] = h
        self.periodic, self.even = _ghosts(MODE_CURVE, self.e, 2), _ghosts(MODE_AXISYM, self.e, 2)
        s = math.sin(0.5 * dx) ** 2
        self.w_rho = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (16.0 * s * (3.0 + s))
        self.w_rho[2] += 1.0
        self.w_d1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (4.0 * math.sin(dx)
                                                            * (4.0 - math.cos(dx)))


def _rho_five_point(pad, ghosts):
    (g0, s0), (g1, s1) = ghosts
    g0[...], g1[...] = s0, s1
    return np.correlate(pad.e, pad.w_rho, "valid")


def d2_periodic4(pad):
    """4th-order h'' + h of the curve samples pad.x, as a new array."""
    return _rho_five_point(pad, pad.periodic)


def d2_reflect4(pad):
    """4th-order h'' + h of the axisym samples pad.x, as a new array."""
    return _rho_five_point(pad, pad.even)


def d1_reflect4(pad):
    """4th-order h' of the axisym samples pad.x, as a new array.  It reads the
    ghosts as they are: call it after ``d2_reflect4`` on the same samples,
    which fills them."""
    return np.correlate(pad.e, pad.w_d1, "valid")


def pole_limit(neg_kappa1, sin_phi, r, out):
    """``azimuthal_curvature`` as a call with no arguments, its five views built
    once; it takes -kappa1 and writes -(-kappa1) at the poles."""
    inner = sin_phi[1:-1], r[1:-1], out[1:-1]
    out_poles, neg_poles = out[::len(out) - 1], neg_kappa1[::len(neg_kappa1) - 1]
    def limit():
        np.divide(*inner)
        np.negative(neg_poles, out_poles)
        return out
    return limit


def azimuthal_curvature(kappa1, sin_phi, r, out):
    """kappa2 = sin(phi)/r on the axisym grid, into out, with its umbilic limit
    kappa2 -> kappa1 = 1/(h''+h) at both poles, where sin(phi) = r = 0."""
    return pole_limit(np.negative(kappa1), sin_phi, r, out)()


# ---------------------------------------------------------------------------
# translations and the Chebyshev center, on support samples
# ---------------------------------------------------------------------------
# A shift moves the body by a 2-vector (curve) or along the rotation axis by
# a scalar (axisym); either acts on the samples as h -> h + <shift, nu>.

@dataclass(frozen=True, eq=False)
class GridPlan:
    """The read-only arrays of one grid (see ``grid_plan``).

    ``lp_matrix`` is the Chebyshev LP's [G | 1], G the normals (curve) or the
    cosines (axisym).  ``modes`` are the interpolant's mode numbers 0..P//2
    over its period P (m samples of a curve, 2(m-1) of an axisym body's even
    extension) and ``series_weights`` their weights in the real series: 1
    for the mean and an even P's Nyquist mode, 2 for the rest.
    ``search_grid`` and ``search_index`` are ``geometry``'s (see
    ``geometry._search_grid`` and ``_search_index``).
    """

    angles: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    lp_matrix: np.ndarray
    modes: np.ndarray
    series_weights: np.ndarray
    search_grid: np.ndarray
    search_index: tuple


_MAX_GRIDS = 64  # grids whose plans are kept, least recently used dropped


def _read_only(a):
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=_MAX_GRIDS)
def grid_plan(mode, m):
    """The GridPlan of m samples on the grid of `mode`, built on first use and
    shared, read-only, by every body on that grid."""
    curve = mode == MODE_CURVE
    step = 2.0 * math.pi / m if curve else math.pi / (m - 1)
    ang = np.arange(m) * step
    cos, sin = np.cos(ang), np.sin(ang)
    normals = np.column_stack([cos, sin])
    weights = np.full(m, step)
    period = m if curve else 2 * (m - 1)
    modes = np.arange(period // 2 + 1)
    series_weights = np.full(len(modes), 2.0)
    series_weights[0] = 1.0
    if period % 2 == 0:
        series_weights[-1] = 1.0
    if curve:
        search_grid, j = ang, np.arange(m)
        search_index = m, j, (j + m // 2) % m
    else:
        weights[[0, -1]] *= 0.5
        search_grid, j = np.linspace(0.0, math.pi / 2.0, period + 1), np.arange(period + 1)
        search_index = 4 * period, j, 2 * period - j
    for a in (ang, cos, sin, normals, weights, modes, series_weights, search_grid,
              *search_index[1:]):
        _read_only(a)
    return GridPlan(ang, cos, sin, normals, weights,
                    _solvers.constraint_matrix(normals if curve else cos), modes,
                    series_weights, search_grid, search_index)


def sample_angles(mode, m):
    """Normal angles of m support samples: 2*pi*j/m (curve), pi*j/(m-1) (axisym)."""
    return grid_plan(mode, m).angles


def shift_support(mode, h, shift):
    """<shift, nu> at the normal angles of the samples h."""
    plan = grid_plan(mode, len(h))
    if mode == MODE_CURVE:
        return plan.normals @ np.asarray(shift, dtype=float)
    return float(shift) * plan.cos


def chebyshev_ball(mode, h):
    """(center, radius) of the largest ball inside every sampled support
    plane; the center is a 2-vector (curve) or an axial scalar (axisym)."""
    A = grid_plan(mode, len(h)).lp_matrix
    if mode == MODE_CURVE:
        return _solvers.chebyshev_center_curve(A, h)
    return _solvers.chebyshev_center_axis(A, h)


def recentre(mode, h):
    """(h_centred, shift): the samples moved so the Chebyshev center is the
    origin, and the shift back, h = h_centred + <shift, nu>."""
    center, _ = chebyshev_ball(mode, h)
    return h - shift_support(mode, h, center), center


# ---------------------------------------------------------------------------
# trigonometric interpolation of support samples
# ---------------------------------------------------------------------------

def _as_key(x):
    """x as a dict key: a list or an array as the tuple of its items."""
    if isinstance(x, (list, np.ndarray)):
        x = np.asarray(x).tolist()
        return tuple(x) if isinstance(x, list) else x
    return x


class _TrigInterp:
    """Band-limited interpolant of periodic samples; exact on trig polynomials.

    Its mode numbers and series weights are those of a grid plan whose
    period is the sample count (``GridPlan.modes``, ``series_weights``).
    The interpolant keeps the Nyquist mode of an even sample count, which
    its samples need; the spectral derivative drops it (standard convention).
    ``derivative`` sums the series at arbitrary angles, in O(points * modes);
    ``grid_derivative`` evaluates it on the equispaced angles 2*pi*j/M by one
    zero-padded inverse FFT per order, in O(M log M).  The coefficient columns
    that ``derivative`` gathers for a set of orders and Nyquist flags are
    cached on the interpolant, keyed by their values, so a refinement that
    asks for the same rows every iteration gathers them once; the cached
    columns are the very arrays a fresh gather makes, so every value stays
    the same.
    """

    def __init__(self, values, plan):
        values = np.asarray(values, dtype=float)
        self.N = len(values)
        self.F = np.fft.rfft(values)
        self.k, w = plan.modes, plan.series_weights
        # coefficient tables [nyquist, order] of orders 0..3, with the
        # Nyquist mode dropped (nyquist 0) or kept (1)
        dF = [self.F]
        for _ in range(3):
            dF.append(1j * self.k * dF[-1])
        self._tab = np.array([dF, dF])
        if self.N % 2 == 0:
            self._tab[0, :, -1] = 0.0
        self._re = w * self._tab.real / self.N
        self._im = w * self._tab.imag / self.N
        self._columns = {}

    def _series(self, theta, order, nyquist):
        # a float for a scalar theta and order, an array for an array theta of
        # any size, one row per order for a sequence of orders
        theta = np.asarray(theta, dtype=float)
        key = (_as_key(order), _as_key(nyquist))
        columns = self._columns.get(key)
        if columns is None:
            ny = np.asarray(nyquist, dtype=int)
            columns = self._columns[key] = (self._re[ny, order].T, self._im[ny, order].T)
        ang = np.outer(theta, self.k)
        out = np.cos(ang) @ columns[0] - np.sin(ang) @ columns[1]
        if np.ndim(order):
            return out.T
        return out if theta.ndim else float(out[0])

    def __call__(self, theta):
        return self._series(theta, 0, True)

    def derivative(self, theta, order=1, nyquist=False):
        """d^order/dtheta^order of the interpolant (order <= 3), with its
        Nyquist mode dropped unless `nyquist`.  A sequence of orders (with a
        matching sequence of flags) gives one row per order from one table of
        cosines and sines."""
        return self._series(theta, order, nyquist)

    def grid_derivative(self, m, order=1, nyquist=False):
        """`derivative` at the m angles 2*pi*j/m, j = 0..m-1, for m at least
        the sample count: the spectrum zero-padded to m points and inverted by
        one real FFT per order.  For m > N the inverse FFT counts mode N/2
        twice, with its conjugate, so a kept Nyquist coefficient is halved."""
        spec = np.zeros(np.shape(order) + (m // 2 + 1,), dtype=complex)
        spec[..., :len(self.F)] = self._tab[np.asarray(nyquist, dtype=int), order]
        if self.N % 2 == 0 and m > self.N:
            spec[..., self.N // 2] *= 0.5
        return np.fft.irfft(spec, m) * (m / self.N)


# ---------------------------------------------------------------------------
# SupportProfile
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SupportProfile:
    """Sampled support function of a convex body; see module docstring.

    Treated as immutable: values derived from ``h`` (interpolant,
    ``geometry.measure``, ``diagnostics.curvature_field``) are cached in
    ``_cache`` on first use.  To change ``h``, build a new body
    (``with_values``) instead of editing it in place.
    """

    mode: str
    n: int
    h: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        if self.mode not in (MODE_CURVE, MODE_AXISYM):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_CURVE:
            if self.n != 1:
                raise ValueError("curve mode requires n == 1")
            if self.h.ndim != 1 or len(self.h) < 16 or len(self.h) % 2:
                raise ValueError("curve mode needs an even sample count >= 16")
        else:
            if self.n < 2:
                raise ValueError("axisym mode requires n >= 2")
            if self.h.ndim != 1 or len(self.h) < 17:
                raise ValueError("axisym mode needs N+1 samples with N >= 16")
        self.validate()

    # -- grids ------------------------------------------------------------

    @property
    def N(self):
        """Grid size: number of cells (curve: samples, axisym: samples - 1)."""
        return len(self.h) if self.mode == MODE_CURVE else len(self.h) - 1

    @property
    def step(self):
        return 2.0 * math.pi / self.N if self.mode == MODE_CURVE else math.pi / self.N

    @property
    def plan(self):
        """The GridPlan of this body's grid (shared, read-only)."""
        return grid_plan(self.mode, len(self.h))

    def angles(self):
        return self.plan.angles

    def normals(self):
        """Profile-plane outer normals at the sample angles, shape (m, 2)."""
        return self.plan.normals

    # -- discrete differential structure ----------------------------------

    def curvature_radius(self):
        """3-point h'' + h; strictly positive on every valid body."""
        return d2(self.mode, self.h, self.step) + self.h

    def support_derivative(self):
        """Centered first derivative of h on the grid (zero at axisym poles)."""
        return d1(self.mode, self.h, self.step)

    def weights(self):
        """Trapezoid quadrature weights: the grid step, halved at the axisym
        poles; they sum to 2*pi (curve) or pi (axisym)."""
        return self.plan.weights

    def validate(self):
        h = self.h
        if not np.all(np.isfinite(h)):
            raise NonConvexBodyError("support values must be finite")
        if np.min(h) <= 0.0:
            raise NonConvexBodyError("support values must be positive; "
                                     "recenter at the Chebyshev center first")
        rho = self.curvature_radius()
        if np.min(rho) <= 0.0:
            raise NonConvexBodyError("discrete convexity h'' + h > 0 violated")
        if self.mode == MODE_AXISYM:
            r = self.axis_distance()
            if np.min(r[1:-1]) <= 0.0:
                raise NonConvexBodyError("profile crosses the rotation axis")

    def axis_distance(self):
        """Distance of the contact point from the rotation axis (axisym)."""
        if self.mode != MODE_AXISYM:
            raise ValueError("axis_distance is defined for axisym profiles")
        plan = self.plan
        return self.h * plan.sin + self.support_derivative() * plan.cos

    # -- interpolation and boundary ---------------------------------------

    def interpolator(self):
        """Trig interpolant of h over the full period (even-extended for axisym)."""
        interp = self._cache.get("interp")
        if interp is None:
            if self.mode == MODE_CURVE:
                interp = _TrigInterp(self.h, self.plan)
            else:
                even = np.concatenate([self.h, self.h[-2:0:-1]])
                interp = _TrigInterp(even, self.plan)
            self._cache["interp"] = interp
        return interp

    def boundary_points(self):
        """Contact points in the profile plane, one per sample angle.

        Uses the spectral derivative of the interpolant, on its own sample
        grid by inverse FFT; accuracy degrades benignly near underresolved
        flat sides (the points stay within the interpolation error of the
        true boundary).
        """
        interp = self.interpolator()
        hp = interp.grid_derivative(interp.N)[:len(self.h)]
        ca, sa = self.plan.cos, self.plan.sin
        return np.column_stack([self.h * ca - hp * sa, self.h * sa + hp * ca])

    # -- constructors and transforms --------------------------------------

    @classmethod
    def from_support_values(cls, mode, n, h):
        """Public construction path: recenters at the Chebyshev center.

        Returns the recentered profile; the applied shift is available as
        ``profile.center_shift`` (a 2-vector for curves, an axial scalar for
        axisym profiles).
        """
        h, shift = recentre(mode, np.asarray(h, dtype=float))
        prof = cls(mode, n, h)
        prof.center_shift = shift
        return prof

    def translated(self, shift):
        """Translate the body; curve: 2-vector, axisym: axial scalar."""
        return self.with_values(self.h + shift_support(self.mode, self.h, shift))

    def scaled(self, factor):
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        return SupportProfile(self.mode, self.n, factor * self.h)

    def with_values(self, h):
        return SupportProfile(self.mode, self.n, np.asarray(h, dtype=float))


# ---------------------------------------------------------------------------
# CapState: geodesic sphere in the round ambient sphere
# ---------------------------------------------------------------------------

_EQUATOR_RTOL = 1e-12


@dataclass(eq=False)
class CapState:
    """Geodesic sphere of radius rho inside the ambient sphere S^(n+1)_R."""

    R: float
    n: int
    rho: float

    def __post_init__(self):
        if self.R <= 0.0:
            raise ValueError("ambient radius must be positive")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        upper = math.pi * self.R / 2.0
        if not (0.0 < self.rho <= upper * (1.0 + 1e-12)):
            raise ValueError("geodesic radius must lie in (0, pi*R/2]")
        self.rho = min(self.rho, upper)

    @property
    def is_equator(self):
        return abs(self.rho - math.pi * self.R / 2.0) <= _EQUATOR_RTOL * self.R

    @property
    def ambient_curvature(self):
        return 1.0 / (self.R * self.R)

    def principal_curvature(self):
        """Common principal curvature (umbilic); exactly 0 on the equator."""
        if self.is_equator:
            return 0.0
        return math.cos(self.rho / self.R) / (self.R * math.sin(self.rho / self.R))

    def mean_curvature(self):
        return self.n * self.principal_curvature()

    def area(self):
        return sphere_surface_area(self.n) * (self.R * math.sin(self.rho / self.R)) ** self.n


def _cap_geodesic_radius(R, n, tau):
    """Geodesic radius of the shrinking cap in S^(n+1)_R at tau = t - T <= 0."""
    return R * math.acos(math.exp(n * tau / (R * R)))


# ---------------------------------------------------------------------------
# seeded random convex bodies (property-test generators)
# ---------------------------------------------------------------------------

def random_convex_curve(N, seed, modes=6, amplitude=0.7, radius=1.0):
    """Random positive trig polynomial support function on the curve grid.

    h = radius + sum_{m=2..modes} (a_m cos m theta + b_m sin m theta), with
    the coefficient vector scaled so sum (m^2-1)|amp_m| = amplitude*radius.
    That keeps h'' + h >= radius*(1 - amplitude) > 0 by construction; m = 1
    terms are excluded because they are pure translations.
    """
    if not 0.0 < amplitude < 1.0:
        raise ValueError("amplitude must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    m = np.arange(2, modes + 1)
    a = rng.normal(size=len(m)) / m ** 2
    b = rng.normal(size=len(m)) / m ** 2
    weight = float(np.sum((m ** 2 - 1) * np.hypot(a, b)))
    if weight > 0.0:
        scale = amplitude * radius / weight
        a *= scale
        b *= scale
    theta = sample_angles(MODE_CURVE, N)
    h = radius + np.cos(np.outer(theta, m)) @ a + np.sin(np.outer(theta, m)) @ b
    return SupportProfile.from_support_values(MODE_CURVE, 1, h)


def random_convex_profile(n, N, seed, modes=5, amplitude=0.7, radius=1.0):
    """Random axisymmetric convex body (cosine modes keep the Neumann ends)."""
    if not 0.0 < amplitude < 1.0:
        raise ValueError("amplitude must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    m = np.arange(2, modes + 1)
    a = rng.normal(size=len(m)) / m ** 2
    weight = float(np.sum((m ** 2 - 1) * np.abs(a)))
    if weight > 0.0:
        a *= amplitude * radius / weight
    phi = sample_angles(MODE_AXISYM, N + 1)
    h = radius + np.cos(np.outer(phi, m)) @ a
    return SupportProfile.from_support_values(MODE_AXISYM, n, h)
