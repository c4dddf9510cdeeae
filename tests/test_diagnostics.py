"""Curvature diagnostics: pointwise fields, deficits, and the eigenvalue
inequalities verified by seeded brute force (zero counterexamples allowed)."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from mcfflow import bodies, diagnostics as dg, engine, exact
from oracles import cubic_excess_pairform


def sphere_slice(n=2, t=-1.0, N=128):
    return engine.TimeSlice(t, exact.sphere_slice(n, t, N))


def test_curvature_field_round_sphere():
    field = dg.curvature_field(sphere_slice(2, -1.0))  # R = 2
    assert np.allclose(field.lambdas, 0.5, atol=1e-14)
    assert np.allclose(field.H, 1.0, atol=1e-14)
    assert np.allclose(field.A2, 0.5, atol=1e-14)
    assert np.max(field.grad_H2) == 0.0
    assert field.integrate(np.ones(field.m)) == pytest.approx(16.0 * math.pi, rel=1e-3)


def test_curvature_field_cached_on_slice():
    sl = sphere_slice()
    f1 = dg.curvature_field(sl)
    assert dg.curvature_field(sl) is f1


def test_curvature_bounds_pointwise():
    # H^2/n <= |A|^2 <= H^2 on convex slices
    for seed in range(10):
        body = bodies.random_convex_profile(3, 64, seed=seed)
        f = dg.curvature_field(body)
        assert np.all(f.A2 >= f.H ** 2 / 3.0 - 1e-12)
        assert np.all(f.A2 <= f.H ** 2 + 1e-12)


def test_oval_curvature_structure():
    sl = engine.TimeSlice(-3.0, exact.angenent_oval_slice(-3.0, 256))
    f = dg.curvature_field(sl)
    # max H at the tips (normal angle pi/2), min H at the flanks
    assert 0.9 < float(np.max(f.H)) < 1.1
    assert np.argmax(f.H) in (64, 192)
    assert np.argmin(f.H) in (0, 128)
    # verified against the implicit-form curvature
    theta = sl.body.angles()
    exact_H = exact.oval_curvature_values(-3.0, theta)
    interior = np.abs(f.H - exact_H) / exact_H
    assert np.median(interior) < 1e-3


def graph_curvature(x, y):
    """Curvature of a plane graph y(x) on a uniform grid (4th-order FD),
    an oracle for closed-form curvatures."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x[1] - x[0]
    if not np.allclose(np.diff(x), dx, rtol=1e-12, atol=1e-12):
        raise ValueError("uniform grid required")
    yp = np.gradient(y, dx, edge_order=2)
    ypp = np.empty_like(y)
    ypp[2:-2] = (-y[:-4] + 16 * y[1:-3] - 30 * y[2:-2] + 16 * y[3:-1] - y[4:]) / (12 * dx * dx)
    ypp[:2] = ypp[2]
    ypp[-2:] = ypp[-3]
    # interior 4th-order first derivative improves the leading error
    yp[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * dx)
    return ypp / (1.0 + yp ** 2) ** 1.5


def test_grim_reaper_graph_curvature():
    x = np.linspace(-1.3, 1.3, 513)
    y, kap = exact.grim_reaper_profile(x, 0.0)
    kg = graph_curvature(x, y)
    assert np.max(np.abs(kg[2:-2] - kap[2:-2])) < 1e-6


def test_umbilic_deficit_zero_on_spheres_and_caps():
    assert dg.umbilic_deficit(sphere_slice(2), 0.7).max() == 0.0
    cap = engine.TimeSlice(-1.0, exact.cap_slice(1.0, 2, -1.0))
    assert dg.umbilic_deficit(cap, 0.7).max() == 0.0


def test_umbilic_deficit_f0_strictly_below_limit():
    # f_0 = |A|^2/H^2 - 1/n < 1 - 1/n on convex slices
    for seed in range(10):
        body = bodies.random_convex_profile(2, 64, seed=seed, amplitude=0.8)
        d = dg.umbilic_deficit(body, 0.0)
        assert d.max() < 1.0 - 0.5


def test_umbilic_deficit_pointwise_bound():
    # 0 <= f_sigma < H^sigma
    sigma = 0.6
    for seed in range(6):
        body = bodies.random_convex_curve(96, seed=seed)
        f = dg.curvature_field(body)
        d = dg.umbilic_deficit(body, sigma)
        assert np.all(d.values >= 0.0)
        assert np.all(d.values < f.H ** sigma)


def test_umbilic_deficit_rejects_flat_H():
    cap = engine.TimeSlice(-1.0, exact.equator_slice(1.0, 2))
    with pytest.raises(dg.NonPositiveCurvatureError):
        dg.umbilic_deficit(cap, 0.5)


def test_log_lp_integral_is_scipy_logsumexp_bit_for_bit():
    # oracle: scipy.special.logsumexp of log(f^p dmu) over the samples with
    # f > 0; every third array has tied maxima
    rng = np.random.default_rng(20)
    for i in range(2000):
        size = int(rng.integers(1, 300))
        values = rng.lognormal(size=size) * rng.choice([1.0, -1.0], size=size, p=[0.8, 0.2])
        dmu = rng.random(size)
        if i % 3 == 0 and size > 2:
            tied = rng.choice(size, int(rng.integers(2, min(size, 6) + 1)), replace=False)
            values[tied] = abs(values[tied[0]]) + 1.0
            dmu[tied] = dmu[tied[0]]
        p = float(rng.uniform(0.5, 8.0))
        pos = values > 0.0
        if not pos.any():
            continue
        expected = float(logsumexp(p * np.log(values[pos]) + np.log(dmu[pos])))
        assert dg.DeficitField(values, dmu).log_lp_integral(p) == expected


@pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf])
def test_deficit_exponent_must_be_finite_and_positive(p):
    d = dg.umbilic_deficit(bodies.random_convex_curve(32, seed=1), 0.5)
    for integral in (d.lp_integral, d.log_lp_integral):
        with pytest.raises(ValueError, match="p must be"):
            integral(p)


@pytest.mark.parametrize("sigma", [-0.1, 2.5, math.nan])
def test_umbilic_deficit_sigma_range(sigma):
    with pytest.raises(ValueError, match="sigma"):
        dg.umbilic_deficit(bodies.random_convex_curve(32, seed=1), sigma)


def test_kconvex_deficit_signs():
    # sphere n=3, k=2: ratio 1/3 < 1/2 so the field is strictly negative
    sl = sphere_slice(3, -1.0)
    d = dg.kconvex_deficit(sl, 0.0, 0.0, 2)
    assert np.all(d.values < 0.0)
    # eta > 0 lowers the field pointwise
    d0 = dg.kconvex_deficit(sl, 0.5, 0.0, 2)
    d1 = dg.kconvex_deficit(sl, 0.5, 0.3, 2)
    assert np.all(d1.values < d0.values)


def test_kconvex_deficit_cylinder_configuration():
    # cylinder (n=3, one flat factor): |A|^2/H^2 = 1/2 = 1/(n-k+1) at k=2
    lam = exact.cylinder_reference_curvatures(3, 1, -1.0)
    H = np.sum(lam)
    A2 = np.sum(lam ** 2)
    assert A2 / H ** 2 == pytest.approx(0.5, rel=1e-14)
    assert A2 - (1.0 / 2.0) * H ** 2 == pytest.approx(0.0, abs=1e-14)


def test_kconvexity_report():
    kc = dg.kconvexity(sphere_slice(3), 2)
    assert kc.margin == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert kc.sufficient_alpha == pytest.approx(0.5 * (1.0 - 1.0 / 3.0), rel=1e-12)
    assert dg.sufficient_alpha_from_ratio(0.8, 3, 2) == pytest.approx(0.1, rel=1e-12)


def test_lemma_eigenvalue_instance():
    lam = np.array([0.1, 0.45, 0.45])
    H = lam.sum()
    A2 = (lam ** 2).sum()
    assert H == pytest.approx(1.0)
    assert A2 == pytest.approx(0.415)
    assert A2 <= 0.8 and lam[0] + lam[1] >= 0.1


def test_kconvexity_brute_force_no_counterexamples():
    # zero counterexamples allowed across the (n, k, alpha) sweep
    rng = np.random.default_rng(2024)
    for n in range(2, 7):
        for k in range(1, n):
            for alpha in (0.05, 0.2, 0.45):
                lam = rng.uniform(1e-3, 1.0, size=(20000, n))
                lam.sort(axis=1)
                H = lam.sum(axis=1)
                A2 = (lam ** 2).sum(axis=1)
                sel = A2 / H ** 2 <= (1.0 - 2.0 * alpha) / (n - k)
                if not np.any(sel):
                    continue
                lhs = lam[sel, :k].sum(axis=1)
                assert np.all(lhs >= alpha * H[sel] - 1e-12)


def test_cubic_excess_identity_and_example():
    assert dg.cubic_excess_from_lambdas([[1.0, 2.0]])[0] == pytest.approx(2.0)
    assert cubic_excess_pairform([[1.0, 2.0]])[0] == pytest.approx(2.0)
    rng = np.random.default_rng(5)
    lam = rng.uniform(0.01, 1.0, size=(20000, 6))
    z1 = dg.cubic_excess_from_lambdas(lam)
    z2 = cubic_excess_pairform(lam)
    assert np.max(np.abs(z1 - z2)) <= 1e-12 * np.max(np.abs(z1))


def test_cubic_excess_umbilic_is_zero():
    lam = np.full((5, 4), 0.3)
    assert np.allclose(dg.cubic_excess_from_lambdas(lam), 0.0, atol=1e-15)


def test_cubic_excess_gap_bound_brute_force():
    # Z >= (n-k+1) alpha^2 eta / k^2 * H^4 wherever the k-convex deficit is
    # positive, for uniformly k-convex convex tuples; zero counterexamples
    rng = np.random.default_rng(99)
    for n in range(3, 7):
        for k in range(2, n):
            for alpha in (0.05, 0.15):
                for eta in (0.05, 0.3):
                    lam = rng.uniform(1e-3, 1.0, size=(20000, n))
                    lam.sort(axis=1)
                    H = lam.sum(axis=1)
                    A2 = (lam ** 2).sum(axis=1)
                    kc = lam[:, :k].sum(axis=1) >= alpha * H
                    pos = A2 > (1.0 / (n - k + 1.0) + eta) * H ** 2
                    sel = kc & pos
                    if not np.any(sel):
                        continue
                    Z = dg.cubic_excess_from_lambdas(lam[sel])
                    bound = (n - k + 1.0) * alpha ** 2 * eta / k ** 2 * H[sel] ** 4
                    assert np.all(Z >= bound - 1e-12)


def test_cubic_excess_on_slice():
    body = bodies.random_convex_profile(3, 64, seed=8)
    out = dg.cubic_curvature_excess(body, 2, 0.1, 0.05)
    assert np.all(out.values >= -1e-12)
    if out.active_samples:
        assert out.margin >= -1e-12


def test_kconvex_reference_bound():
    # k-convex tuples (lambda_1 possibly negative) satisfy |A|^2 <= n^3 H^2
    rng = np.random.default_rng(31)
    for n in range(3, 7):
        for k in range(2, n):
            lam = rng.uniform(-1.0, 1.0, size=(30000, n))
            lam.sort(axis=1)
            H = lam.sum(axis=1)
            kc = lam[:, :k].sum(axis=1) >= 0.0
            sel = kc & (H > 0.0)
            A2 = (lam[sel] ** 2).sum(axis=1)
            assert np.all(A2 <= n ** 3 * H[sel] ** 2 + 1e-12)


def test_pinching_gap_levels():
    assert dg.pinching_gap_level(1.0 / 3.0) == 3
    assert dg.pinching_gap_level(1.0) == 1
    assert dg.pinching_gap_level(0.5) == 2
    with pytest.raises(ValueError):
        dg.pinching_gap_level(0.43)


def test_harnack_sphere_value():
    times = -1.0 + 0.0005 * np.arange(-2, 3)
    traj = exact.sample_trajectory(exact.ExactFamily("sphere", 2), times, 64)
    _, m = dg.harnack_quantity(traj, -1.0)
    assert m == pytest.approx(0.5, abs=1e-6)


def test_harnack_cap_positive(cap_run):
    ts = cap_run.times()
    for i in range(1, len(ts) - 1, 5):
        _, m = dg.harnack_quantity(cap_run, ts[i])
        assert m >= 0.0


def test_harnack_rejects_boundary():
    times = np.array([-1.2, -1.0, -0.8])
    traj = exact.sample_trajectory(exact.ExactFamily("sphere", 2), times, 64)
    with pytest.raises(ValueError):
        dg.harnack_quantity(traj, -1.2)


def test_type_quantities_sphere(sphere_exact_traj):
    tq = dg.type_quantities(sphere_exact_traj)
    assert tq.typeI_sup == pytest.approx(1.0, rel=1e-12)  # sqrt(n/2) at n=2
    assert tq.radius_ratio_sup == pytest.approx(1.0, abs=1e-9)
    assert tq.H_ratio_sup == pytest.approx(1.0, abs=1e-12)
    assert tq.iso_sup == pytest.approx(36.0 * math.pi, rel=1e-3)


def test_type_quantities_oval_grows(oval_exact_traj):
    tq = dg.type_quantities(oval_exact_traj)
    neg_t = -tq.times
    order = np.argsort(neg_t)
    s = tq.sqrt_t_maxH[order]
    assert s[-1] > 3.0 * s[0]  # unbounded trend ~ sqrt(-t)
    d = tq.diam_over_growth[order]
    assert d[-1] > 3.0 * d[0]


def test_type_quantities_needs_ten_slices():
    traj = exact.sample_trajectory(exact.ExactFamily("sphere", 2), [-2.0, -1.0], 64)
    with pytest.raises(ValueError):
        dg.type_quantities(traj)


def test_gradient_sigma_and_ratio():
    assert dg.gradient_sigma(4, 2) == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert dg.gradient_sigma(4, 2) > 0.0 and 2 < (2 * 4 + 1) / 3
    out = dg.gradient_ratio(sphere_slice(2))
    assert out.max_ratio == 0.0
    sl = engine.TimeSlice(-20.0, exact.angenent_oval_slice(-20.0, 256))
    out = dg.gradient_ratio(sl)
    assert np.isfinite(out.max_ratio) and out.max_ratio > 0.0


def test_gradient_ratio_auxiliary_positivity():
    body = bodies.random_convex_profile(4, 64, seed=3, amplitude=0.3)
    out = dg.gradient_ratio(body, k=2)
    assert out.sigma == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert out.g2_min > out.g1_min  # g2 - g1 = (sigma' - sigma) H^2 > 0
    assert out.g1_min > 0.0


def test_ambient_pinching_on_caps(cap_run):
    rep = dg.ambient_pinching(cap_run)
    assert rep.f is not None
    assert np.allclose(rep.f, 0.0, atol=1e-14)
    assert np.allclose(rep.phi_b, 0.0, atol=1e-14)
    assert np.all(rep.hypothesis_margin > 0.0)
    assert rep.b == pytest.approx(4.0 * 3.0 / 3.0 * rep.K, rel=1e-12)  # n=2, eps=1


def test_ambient_pinching_equator():
    ctrl = engine.FlowControls(max_dt=0.1, snapshot_stride=4)
    traj = engine.evolve_cap(1.0, math.pi / 2.0, -5.0, ctrl, n=2)
    rep = dg.ambient_pinching(traj)
    assert rep.f is None  # undefined at H = 0
    assert np.allclose(rep.phi_b, 0.0, atol=1e-15)
    # margin at the equator: (4 - eps) K / 3 with |A| = H = 0
    assert np.allclose(rep.hypothesis_margin, rep.K, atol=1e-14)


def test_ambient_pinching_b_choices():
    assert dg.ambient_pinching_b(3, 2.0) == pytest.approx(9.0 * 2.0, rel=1e-12)
    assert dg.ambient_pinching_b(2, 1.0, eps=1.0) == pytest.approx(4.0, rel=1e-12)


def test_decay_envelope_arithmetic():
    # pure arithmetic of the backward growth factor
    K, n = 1.0, 2
    val = dg.decay_envelope(K, n, -2.0, -1.0, 0.125)
    assert val == pytest.approx(math.exp(-8.0) * 0.125, rel=1e-12)
    with pytest.raises(ValueError):
        dg.decay_envelope(K, n, -1.0, -2.0, 0.1)


def test_pinching_report_runs(sphere_exact_traj):
    rep = dg.pinching_report(sphere_exact_traj, sigma=0.05, p_values=(2.0,),
                             k_values=())
    assert rep.eps_min == pytest.approx(0.5, rel=1e-12)
    assert rep.f_sigma_max < 1e-14  # roundoff-level on exact round slices
    assert rep.harnack_min >= 0.0
    assert rep.typeI_sup == pytest.approx(1.0, rel=1e-9)
