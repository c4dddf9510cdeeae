"""Convex-geometry measurements against independent oracles."""

import itertools
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from mcfflow import bodies, exact, geometry
from mcfflow._solvers import chebyshev_center_curve, constraint_matrix


def unit_disk(N=64, r=1.0):
    return bodies.SupportProfile("curve", 1, np.full(N, r))


def round_sphere(N=64, r=1.0, n=2):
    return bodies.SupportProfile("axisym", n, np.full(N + 1, r))


# ---------------------------------------------------------------------------
# solver oracles
# ---------------------------------------------------------------------------

def naive_enclosing_circle(pts):
    """O(m^3) exact oracle: try all 1-, 2- and 3-point candidate circles."""
    pts = [tuple(p) for p in pts]
    best = None
    for a, b in itertools.combinations(pts, 2):
        c = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        r = max(math.hypot(p[0] - c[0], p[1] - c[1]) for p in (a, b))
        if all(math.hypot(p[0] - c[0], p[1] - c[1]) <= r * (1 + 1e-12) for p in pts):
            if best is None or r < best:
                best = r
    for a, b, c in itertools.combinations(pts, 3):
        d = 2 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
        if d == 0:
            continue
        ux = ((a[0] ** 2 + a[1] ** 2) * (b[1] - c[1]) + (b[0] ** 2 + b[1] ** 2) * (c[1] - a[1])
              + (c[0] ** 2 + c[1] ** 2) * (a[1] - b[1])) / d
        uy = ((a[0] ** 2 + a[1] ** 2) * (c[0] - b[0]) + (b[0] ** 2 + b[1] ** 2) * (a[0] - c[0])
              + (c[0] ** 2 + c[1] ** 2) * (b[0] - a[0])) / d
        r = max(math.hypot(p[0] - ux, p[1] - uy) for p in (a, b, c))
        if all(math.hypot(p[0] - ux, p[1] - uy) <= r * (1 + 1e-12) for p in pts):
            if best is None or r < best:
                best = r
    return best


def mesh_geodesic_diameter(body, mesh_shape=(64, 128), window=3):
    """Intrinsic diameter by shortest paths on a revolution mesh.

    Edge weights are chord lengths between mesh points; each node connects to
    neighbours within `window` grid offsets, which keeps the direction
    quantization error well under 1%.  Sources run down a single meridian
    (rotational symmetry covers all pairs).  Slow; an oracle for the
    meridian length.
    """
    n_phi, n_beta = mesh_shape
    interp = body.interpolator()
    phi = np.linspace(0.0, math.pi, n_phi + 1)
    h = interp(phi)
    hp = interp.derivative(phi)
    x = h * np.cos(phi) - hp * np.sin(phi)
    r = np.maximum(h * np.sin(phi) + hp * np.cos(phi), 0.0)
    beta = np.arange(n_beta) * (2.0 * math.pi / n_beta)
    # 3-d points for n = 2 (general n uses the same 2-sphere-of-revolution slice)
    X = np.repeat(x, n_beta)
    Y = np.outer(r, np.cos(beta)).ravel()
    Z = np.outer(r, np.sin(beta)).ravel()
    P = np.column_stack([X, Y, Z])
    m = len(P)

    def node(i, j):
        return i * n_beta + (j % n_beta)

    rows, cols = [], []
    offs = [(di, dj) for di in range(-window, window + 1)
            for dj in range(-window, window + 1)
            if (di, dj) != (0, 0) and math.gcd(abs(di), abs(dj)) == 1]
    ii, jj = np.meshgrid(np.arange(n_phi + 1), np.arange(n_beta), indexing="ij")
    for di, dj in offs:
        ii2 = ii + di
        ok = (ii2 >= 0) & (ii2 <= n_phi)
        rows.append(node(ii, jj)[ok])
        cols.append(node(ii2, jj + dj)[ok])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    w = np.linalg.norm(P[rows] - P[cols], axis=1)
    G = sparse.csr_matrix((w, (rows, cols)), shape=(m, m))
    sources = [node(i, 0) for i in range(n_phi + 1)]
    D = csgraph.dijkstra(G, directed=False, indices=sources)
    return float(np.max(D[np.isfinite(D)]))


def dual_inscribed_radius(nu, h):
    """LP-dual oracle for the Chebyshev radius: minimize the h-combination
    over antipodal pairs and positively spanning triples of normals."""
    m = len(h)
    best = math.inf
    for i in range(m):
        for j in range(i + 1, m):
            if np.allclose(nu[i], -nu[j], atol=1e-12):
                best = min(best, 0.5 * (h[i] + h[j]))
    for i, j, k in itertools.combinations(range(m), 3):
        M = np.column_stack([nu[i], nu[j], nu[k]])
        M = np.vstack([M, np.ones(3)])
        rhs = np.array([0.0, 0.0, 1.0])
        sol, res, rank, _ = np.linalg.lstsq(M, rhs, rcond=None)
        if rank < 3 or np.any(sol < -1e-12):
            continue
        if np.linalg.norm(M @ sol - rhs) > 1e-9:
            continue
        best = min(best, float(sol @ np.array([h[i], h[j], h[k]])))
    return best


def test_chebyshev_matches_dual_oracle():
    rng = np.random.default_rng(7)
    for seed in range(6):
        body = bodies.random_convex_curve(24, seed=seed)
        nu = body.normals()
        _, r = chebyshev_center_curve(constraint_matrix(nu), body.h)
        assert r == pytest.approx(dual_inscribed_radius(nu, body.h), rel=1e-9)


def test_chebyshev_recovers_shifted_circle():
    ang = np.arange(48) * 2 * math.pi / 48
    nu = np.column_stack([np.cos(ang), np.sin(ang)])
    for shift in ([0.4, -0.2], [-1.0, 0.9]):
        h = 3.0 + nu @ np.asarray(shift)
        c, r = chebyshev_center_curve(constraint_matrix(nu), h)
        assert np.allclose(c, shift, atol=1e-10)
        assert r == pytest.approx(3.0, abs=1e-10)


# ---------------------------------------------------------------------------
# widths and radii
# ---------------------------------------------------------------------------

def test_width_unit_disk():
    body = unit_disk()
    for ang in (0.0, 0.3, 2.0):
        assert geometry.width(body, ang) == pytest.approx(2.0, abs=1e-12)
    assert geometry.width(body, (0.0, 1.0)) == pytest.approx(2.0, abs=1e-12)


def test_width_rejects_non_unit_direction():
    with pytest.raises(ValueError):
        geometry.width(unit_disk(), (1.0, 1.0))


@pytest.mark.parametrize("body", [unit_disk(), round_sphere()], ids=["curve", "axisym"])
@pytest.mark.parametrize("direction", [math.nan, math.inf, -math.inf, (math.nan, 0.0),
                                       (math.inf, 0.0), (0.0, -math.inf)],
                         ids=["nan", "inf", "-inf", "nan-vector", "inf-vector",
                              "-inf-vector"])
def test_width_rejects_non_finite_direction(body, direction):
    # an angle returned nan with numpy warnings; a NaN vector passed the unit
    # test, since every comparison with NaN is false
    with pytest.raises(ValueError, match="must be finite"):
        geometry.width(body, direction)


def test_width_oval_x_axis():
    sl = exact.angenent_oval_slice(-1.0, 256)
    expected = 2.0 * math.acos(math.exp(-1.0))
    assert geometry.width(sl, (1.0, 0.0)) == pytest.approx(expected, abs=1e-10)
    assert expected == pytest.approx(2.3881, abs=1e-4)


def test_min_width_matches_direction_sampling():
    # oracle: brute force over 10^4 directions
    body = bodies.random_convex_curve(128, seed=21, amplitude=0.85)
    interp = body.interpolator()
    thetas = np.linspace(0.0, math.pi, 10 ** 4, endpoint=False)
    ws = interp(thetas) + interp(thetas + math.pi)
    w_minus, w_plus = geometry.min_max_width(body)
    assert w_minus <= np.min(ws) + 1e-12
    assert np.min(ws) - w_minus < 1e-6
    assert w_plus >= np.max(ws) - 1e-12
    assert np.max(ws) - w_plus > -1e-6


def test_oval_widths_ordered():
    sl = exact.angenent_oval_slice(-2.0, 256)
    w_minus, w_plus = geometry.min_max_width(sl)
    assert w_minus == pytest.approx(2.0 * exact.oval_extent(-2.0)[0], rel=1e-9)
    assert w_plus == pytest.approx(2.0 * exact.oval_extent(-2.0)[1], rel=1e-9)
    assert w_plus > w_minus


def test_outer_radius_sphere_slices():
    assert geometry.outer_radius(unit_disk(r=2.0)) == pytest.approx(2.0, abs=1e-9)
    assert geometry.outer_radius(round_sphere(r=2.0)) == pytest.approx(2.0, abs=1e-9)


def test_outer_radius_lies_between_half_widths_and_the_boundary_circle():
    # any centre is at least the half-width (h_j + h at the antipode)/2 from
    # one of two opposite support planes; and each sampled plane touches the
    # boundary at its contact point, so the circle holding those points holds
    # every sampled plane
    def half_widths(body):
        h = body.h
        return (h + np.roll(h, len(h) // 2) if body.mode == "curve" else h + h[::-1]) / 2.0

    curves = [bodies.random_convex_curve(96, seed=s, amplitude=0.25 + 0.65 * (s % 10) / 10.0)
              for s in range(40)]
    profiles = [bodies.random_convex_profile(2, 64, seed=s, amplitude=0.25 + 0.65 * (s % 8) / 8.0)
                for s in range(20)]
    for body in curves + profiles:
        rho_plus = geometry.outer_radius(body)
        assert float(np.max(half_widths(body))) <= rho_plus * (1.0 + 1e-12)
    for seed in (1, 5, 9):  # the naive circle tries every triple of points
        body = bodies.random_convex_curve(48, seed=seed)
        assert geometry.outer_radius(body) <= (
            naive_enclosing_circle(body.boundary_points()) * (1.0 + 1e-12))


@pytest.mark.parametrize("t", [-50.0, -20.0, -11.74, -2.0])
def test_oval_outer_radius_is_its_closed_form(t):
    # the oval's farthest points from its centre are the tips of its long
    # axis, at sample angles, where the support value is arccosh(e^-t); an
    # underresolved interpolant must not move it
    rho_plus = geometry.measure(exact.angenent_oval_slice(t, 128)).rho_plus
    assert rho_plus == pytest.approx(math.acosh(math.exp(-t)), rel=1e-9, abs=0.0)


def test_inner_radius_sphere_slices():
    assert geometry.inner_radius(unit_disk(r=2.0)) == pytest.approx(2.0, abs=1e-10)
    assert geometry.inner_radius(round_sphere(r=2.0)) == pytest.approx(2.0, abs=1e-10)


def test_width_radius_inequalities_on_random_bodies():
    # rho_+ <= w_+/sqrt(2) and rho_- >= w_-/(n+2), exact convex-body facts
    for seed in range(40):
        body = bodies.random_convex_curve(96, seed=seed,
                                          amplitude=0.3 + 0.6 * (seed % 7) / 7.0)
        m = geometry.measure(body)
        assert m.rho_plus <= m.w_plus / math.sqrt(2.0) + 1e-9
        assert m.rho_minus >= m.w_minus / 3.0 - 1e-9
    for seed in range(15):
        body = bodies.random_convex_profile(2, 64, seed=seed)
        m = geometry.measure(body)
        assert m.rho_plus <= m.w_plus / math.sqrt(2.0) + 1e-9
        assert m.rho_minus >= m.w_minus / 4.0 - 1e-9


def test_width_equals_diameter():
    for seed in range(10):
        body = bodies.random_convex_curve(128, seed=seed)
        m = geometry.measure(body)
        assert abs(m.w_plus - m.diam) <= 1e-9 * m.diam
    sl = exact.angenent_oval_slice(-1.0, 256)
    m = geometry.measure(sl)
    assert abs(m.w_plus - m.diam) <= 1e-9 * m.diam


# ---------------------------------------------------------------------------
# area, volume, intrinsic diameter, isoperimetric ratio
# ---------------------------------------------------------------------------

def test_area_volume_unit_circle():
    a, v = geometry.area_and_volume(unit_disk())
    assert a == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert v == pytest.approx(math.pi, rel=1e-12)


def test_area_volume_round_sphere():
    a, v = geometry.area_and_volume(round_sphere(N=256, r=2.0))
    assert a == pytest.approx(16.0 * math.pi, rel=1e-4)
    assert v == pytest.approx(32.0 * math.pi / 3.0, rel=1e-4)


def test_quadrature_convergence_order():
    # Richardson fit on a non-round axisymmetric body
    errs = []
    for N in (32, 64, 128):
        body = bodies.random_convex_profile(2, N, seed=4)
        a, _ = geometry.area_and_volume(body)
        errs.append(a)
    ref_body = bodies.random_convex_profile(2, 1024, seed=4)
    ref, _ = geometry.area_and_volume(ref_body)
    e = [abs(x - ref) for x in errs]
    order = math.log2(e[0] / e[1])
    assert order >= 1.9
    assert math.log2(e[1] / e[2]) >= 1.9


def test_intrinsic_diameter_circle_and_sphere():
    assert geometry.intrinsic_diameter(unit_disk()) == pytest.approx(math.pi, rel=1e-12)
    di = geometry.intrinsic_diameter(round_sphere(N=128, r=2.0))
    assert di == pytest.approx(2.0 * math.pi, rel=1e-6)
    mesh = mesh_geodesic_diameter(round_sphere(N=128, r=2.0))
    assert mesh == pytest.approx(2.0 * math.pi, rel=0.01)


def test_intrinsic_diameter_meridian_matches_mesh_oracle():
    for seed in (2, 8):
        body = bodies.random_convex_profile(2, 96, seed=seed)
        fast = geometry.intrinsic_diameter(body)
        slow = mesh_geodesic_diameter(body)
        assert fast == pytest.approx(slow, rel=0.01)


def test_diameter_chain():
    # sqrt(2) rho+ <= diam <= diam_I <= pi rho+ (1% mesh slack on diam_I)
    for seed in range(15):
        body = bodies.random_convex_curve(96, seed=seed)
        m = geometry.measure(body)
        assert math.sqrt(2.0) * m.rho_plus <= m.diam * (1.0 + 1e-9)
        assert m.diam <= m.diam_I * 1.01
        assert m.diam_I <= math.pi * m.rho_plus * 1.01
    for seed in range(8):
        body = bodies.random_convex_profile(2, 64, seed=seed)
        m = geometry.measure(body)
        assert math.sqrt(2.0) * m.rho_plus <= m.diam * (1.0 + 1e-9)
        assert m.diam <= m.diam_I * 1.01
        assert m.diam_I <= math.pi * m.rho_plus * 1.01


def test_iso_ratio_values():
    assert geometry.iso_ratio(unit_disk()) == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert geometry.iso_ratio(round_sphere(N=256, r=1.0)) == pytest.approx(
        36.0 * math.pi, rel=1e-3)
    assert geometry.iso_ratio(round_sphere(N=256, r=2.5)) == pytest.approx(
        36.0 * math.pi, rel=1e-3)


def test_iso_ratio_beyond_the_float_range_of_its_powers():
    # |M|^14 of the n = 13 sphere at t = -100 overflows; the ratio is the
    # scale-free sigma_13 14^13 ~ 6.66e15 of every round 13-sphere
    body = exact.sphere_slice(13, -100.0, 32)
    area, vol = geometry.area_and_volume(body)
    ratio = geometry.measure(body).iso_ratio
    assert ratio == geometry.iso_ratio(body) == (area / vol) ** 13 * area
    assert ratio == pytest.approx(bodies.sphere_surface_area(13) * 14.0 ** 13, rel=1e-12)
    # where the powers are finite the ratio is the plain quotient
    small = exact.sphere_slice(13, -1.0, 32)
    area, vol = geometry.area_and_volume(small)
    assert geometry.measure(small).iso_ratio == area ** 14 / vol ** 13


def test_iso_ratio_scale_invariant():
    body = bodies.random_convex_curve(128, seed=13)
    r1 = geometry.iso_ratio(body)
    r2 = geometry.iso_ratio(body.scaled(3.7))
    assert abs(r1 - r2) <= 1e-9 * r1


# ---------------------------------------------------------------------------
# the reverse-isoperimetric constant chain
# ---------------------------------------------------------------------------

def test_reverse_iso_bound_value():
    expected = 3.0 * (1.0 + 4.0 * math.pi) / math.sqrt(2.0)
    assert geometry.reverse_iso_radius_bound(4.0 * math.pi, 1) == pytest.approx(
        expected, rel=1e-12)
    assert expected == pytest.approx(28.78, abs=5e-3)


def test_reverse_iso_bound_monotone():
    vals = [geometry.reverse_iso_radius_bound(c, 1) for c in (1.0, 2.0, 5.0, 20.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    vals = [geometry.reverse_iso_radius_bound(c, 3) for c in (1.0, 2.0, 5.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_reverse_iso_bound_on_random_bodies():
    for seed in range(60):
        body = bodies.random_convex_curve(96, seed=seed,
                                          amplitude=0.2 + 0.7 * (seed % 5) / 5.0)
        m = geometry.measure(body)
        bound = geometry.reverse_iso_radius_bound(m.iso_ratio, 1)
        assert m.rho_plus / m.rho_minus <= bound + 1e-9


def test_equatorial_shadow_diameter_is_the_body_diameter():
    # an axisym body of least width across the axis casts its meridian
    # profile, whose diameter is the body's
    equatorial = 0
    for seed in range(30):
        body = bodies.random_convex_profile(2, 64, seed=seed)
        if geometry._extrema(body)[0][1] >= math.pi / 4.0:
            equatorial += 1
            assert geometry.shadow_measurements(body).diam == geometry.measure(body).diam
    assert equatorial > 0


def test_projection_facts():
    # |Omega| < w_- |Sigma|, |M| > |Sigma|, diam(Sigma) >= w_+ - w_-
    for seed in range(20):
        body = bodies.random_convex_curve(96, seed=seed)
        m = geometry.measure(body)
        s = geometry.shadow_measurements(body)
        assert m.volume < s.w_minus * s.area * (1.0 + 1e-9)
        assert m.area > s.area * (1.0 - 1e-9)
        assert s.diam >= s.w_plus - s.w_minus - 1e-9
    for seed in range(6):
        body = bodies.random_convex_profile(2, 64, seed=seed)
        m = geometry.measure(body)
        s = geometry.shadow_measurements(body)
        assert m.volume < s.w_minus * s.area * (1.0 + 1e-9)
        assert m.area > s.area * (1.0 - 1e-9)
        assert s.diam >= s.w_plus - s.w_minus - 1e-9


# ---------------------------------------------------------------------------
# profiles, invariants, hausdorff
# ---------------------------------------------------------------------------

def test_profile_requires_positive_support():
    with pytest.raises(bodies.NonConvexBodyError):
        bodies.SupportProfile("curve", 1, np.full(32, -1.0))


def test_profile_rejects_nonconvex():
    theta = np.arange(64) * 2 * math.pi / 64
    h = 1.0 + 0.5 * np.cos(3 * theta)  # (1 - 9) * 0.5 = -4 < -1
    with pytest.raises(bodies.NonConvexBodyError):
        bodies.SupportProfile("curve", 1, h)


def test_from_support_values_recenters():
    ang = np.arange(64) * 2 * math.pi / 64
    nu = np.column_stack([np.cos(ang), np.sin(ang)])
    h = 1.0 + nu @ np.array([0.9, -0.4])  # disk shifted almost to the boundary
    prof = bodies.SupportProfile.from_support_values("curve", 1, h)
    assert np.min(prof.h) > 0.0
    assert np.allclose(prof.center_shift, [0.9, -0.4], atol=1e-9)
    assert np.allclose(prof.h, 1.0, atol=1e-9)


def test_random_bodies_valid_by_construction():
    for seed in range(25):
        body = bodies.random_convex_curve(64, seed=seed, amplitude=0.9)
        assert np.min(body.curvature_radius()) > 0.0
        body = bodies.random_convex_profile(2, 64, seed=seed, amplitude=0.9)
        assert np.min(body.curvature_radius()) > 0.0
        r = body.axis_distance()
        assert np.min(r[1:-1]) > 0.0


def test_hausdorff_distance():
    a = unit_disk(r=1.0)
    b = unit_disk(r=1.25)
    assert geometry.hausdorff_distance(a, b) == pytest.approx(0.25, abs=1e-12)
    # translation is quotiented out by recentering
    c = bodies.SupportProfile.from_support_values(
        "curve", 1, a.h + a.normals() @ np.array([0.2, 0.0]))
    assert geometry.hausdorff_distance(a, c) < 1e-9
