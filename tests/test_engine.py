"""Flow engine: exact-solution reproduction, identities, error handling."""

import math

import numpy as np
import pytest

from mcfflow import bodies, diagnostics, engine, exact, geometry


def test_controls_validation():
    with pytest.raises(ValueError):
        engine.FlowControls(cfl=0.9)
    with pytest.raises(ValueError):
        engine.FlowControls(stop_rho_plus=-1.0)


@pytest.mark.parametrize("field", ["cfl", "max_dt", "stop_rho_plus"])
def test_controls_refuse_nan(field):
    # a NaN stop threshold is never met, and NaN steps are accepted
    with pytest.raises(ValueError):
        engine.FlowControls(**{field: math.nan})


def test_evolve_refuses_nan_t0():
    # NaN fails every comparison, so a `t0 >= 0` guard lets it through
    with pytest.raises(ValueError, match="t0 must be negative"):
        engine.evolve(bodies.random_convex_curve(32, 1), math.nan,
                      engine.FlowControls(stop_rho_plus=0.5))


def test_evolve_cap_refuses_nan_t0():
    # refused by the time guard, not by a later check that NaN happens to fail
    with pytest.raises(ValueError, match="t0 must be negative"):
        engine.evolve_cap(3.0, 1.0, math.nan, engine.FlowControls())


def test_step_curve_circle_shrinks_uniformly():
    body = bodies.SupportProfile("curve", 1, np.full(64, 1.0))
    dt = 1e-4
    out = engine.step_curve(body, dt)
    # kappa = 1 everywhere: h decreases at unit rate
    assert np.allclose(out.h, 1.0 - dt, atol=1e-12)


def test_step_rejects_oversized_dt():
    body = bodies.SupportProfile("curve", 1, np.full(64, 1.0))
    with pytest.raises(engine.StabilityViolationError):
        engine.step_curve(body, 1.0)


@pytest.mark.parametrize("dt", [-1e-4, 0.0, -0.0, math.nan, math.inf])
@pytest.mark.parametrize("mode, n, m", [("curve", 1, 64), ("axisym", 2, 65)])
def test_step_refuses_dt_that_is_not_positive_and_finite(mode, n, m, dt):
    # a negative dt would take a backward, anti-diffusive step
    body = bodies.SupportProfile(mode, n, np.full(m, 1.0))
    step = engine.step_curve if mode == "curve" else engine.step_axisym
    with pytest.raises(ValueError, match="positive finite"):
        step(body, dt)


def test_step_mode_dispatch():
    curve = bodies.SupportProfile("curve", 1, np.full(64, 1.0))
    prof = bodies.SupportProfile("axisym", 2, np.full(65, 1.0))
    with pytest.raises(ValueError):
        engine.step_axisym(curve, 1e-5)
    with pytest.raises(ValueError):
        engine.step_curve(prof, 1e-5)


def test_circle_run_matches_closed_form(circle_run_256):
    traj = circle_run_256
    errs = [abs(np.mean(sl.body.h) / math.sqrt(-2.0 * sl.t) - 1.0)
            for sl in traj.slices if -1.0 <= sl.t <= -0.01]
    assert len(errs) > 50
    assert max(errs) <= 1e-5
    assert abs(traj.meta["s_ext"] - 1.0) <= 1e-4


def test_sphere_run_matches_closed_form(sphere_run_256):
    traj = sphere_run_256
    errs = [abs(np.mean(sl.body.h) / math.sqrt(-4.0 * sl.t) - 1.0)
            for sl in traj.slices if -1.0 <= sl.t <= -0.01]
    assert len(errs) > 50
    assert max(errs) <= 1e-4
    assert abs(traj.meta["s_ext"] - 1.0) <= 1e-3


def test_oval_run_tracks_implicit_family(oval_run_256):
    traj = oval_run_256
    checked = 0
    for sl in traj.slices:
        if -1.5 <= sl.t <= -0.5:
            ref = exact.angenent_oval_slice(sl.t, 256)
            d = geometry.hausdorff_distance(sl.body, ref)
            assert d <= 1e-3 * geometry.diameter(ref)
            checked += 1
    assert checked > 20


def test_ellipsoid_pinching_improves():
    # prolate ellipsoid of revolution: min lambda_1/H trends up toward 1/n
    a, b = 1.0, 0.6
    phi = np.arange(65) * math.pi / 64
    h = np.sqrt(a * a * np.cos(phi) ** 2 + b * b * np.sin(phi) ** 2)
    body = bodies.SupportProfile("axisym", 2, h)
    ctrl = engine.FlowControls(cfl=0.2, max_dt=1e-3, stop_rho_plus=0.12,
                               snapshot_stride=64)
    traj = engine.evolve(body, -0.3, ctrl)
    eps = np.array([diagnostics.curvature_field(sl).eps_min() for sl in traj.slices])
    ts = traj.times()
    late = eps[ts >= ts[-1] * 10.0]  # last decade of -t
    assert np.all(np.diff(late) >= -1e-6)
    assert late[-1] > late[0]
    assert late[-1] > 0.42  # approaching the round value 1/2


def test_area_decay_identity_curve(oval_run_256):
    # d|M|/dt = -int H^2 dmu within 1%
    traj = oval_run_256
    ts = traj.times()
    areas = np.array([geometry.area_and_volume(sl.body)[0] for sl in traj.slices])
    for i in range(1, len(ts) - 1, 5):
        lhs = (areas[i + 1] - areas[i - 1]) / (ts[i + 1] - ts[i - 1])
        field = diagnostics.curvature_field(traj.slices[i])
        rhs = -field.integrate(field.H ** 2)
        assert lhs == pytest.approx(rhs, rel=0.01)


def test_volume_decay_identity(sphere_run_256, oval_run_256):
    # d|Omega|/dt = -int H dmu within 1%; for curves the integral is 2 pi
    for traj in (sphere_run_256, oval_run_256):
        ts = traj.times()
        vols = np.array([geometry.area_and_volume(sl.body)[1] for sl in traj.slices])
        for i in range(1, len(ts) - 1, 7):
            lhs = (vols[i + 1] - vols[i - 1]) / (ts[i + 1] - ts[i - 1])
            field = diagnostics.curvature_field(traj.slices[i])
            rhs = -field.integrate(field.H)
            assert lhs == pytest.approx(rhs, rel=0.01)


def test_curvature_bounds_along_runs(circle_run_256, sphere_run_256):
    # min H <= sqrt(n)/sqrt(-2t) and max H >= 1/sqrt(-2t), 1% slack
    for traj, n in ((circle_run_256, 1), (sphere_run_256, 2)):
        for sl in traj.slices[1:-1]:
            field = diagnostics.curvature_field(sl)
            lo = math.sqrt(n) / math.sqrt(-2.0 * sl.t)
            hi = 1.0 / math.sqrt(-2.0 * sl.t)
            assert float(np.min(field.H)) <= lo * 1.01
            assert float(np.max(field.H)) >= hi * 0.99


def test_radius_bounds_along_runs(circle_run_256, sphere_run_256, oval_run_256):
    # rho_- <= sqrt(-2nt) <= rho_+, 1% slack
    for traj, n in ((circle_run_256, 1), (sphere_run_256, 2), (oval_run_256, 1)):
        for sl in traj.slices[::5]:
            ref = math.sqrt(-2.0 * n * sl.t)
            assert geometry.inner_radius(sl.body) <= ref * 1.01
            assert geometry.outer_radius(sl.body) >= ref * 0.99


def test_outer_radius_growth_bound(oval_exact_traj):
    # rho_+ <= K (1 + |t|) for some K: the measured ratio stays bounded
    ratios = [geometry.outer_radius(sl.body) / (1.0 + abs(sl.t))
              for sl in oval_exact_traj.slices]
    assert max(ratios) < 2.0


def test_monotone_curvature_at_fixed_normal(oval_run_256):
    traj = oval_run_256
    H_prev = None
    for sl in traj.slices[::4]:
        H = diagnostics.curvature_field(sl).H
        if H_prev is not None:
            assert np.all(H - H_prev >= -1e-6 * np.max(H))
        H_prev = H


def test_avoidance_inner_body_dies_first():
    inner = bodies.random_convex_curve(96, seed=3).scaled(0.5)
    ctrl = engine.FlowControls(cfl=0.4, max_dt=1e-3, stop_rho_plus=0.05,
                               snapshot_stride=32)
    run = engine.evolve(inner, -0.2, ctrl)
    # enclosing circle R0 = 1: extinction at s = 1/2
    assert run.meta["s_ext"] < 0.5
    for sl in run.slices:
        s = sl.t + run.meta["s_ext"]  # internal clock
        sphere_sq = 1.0 - 2.0 * s
        assert geometry.outer_radius(sl.body) <= math.sqrt(sphere_sq) + 1e-6


def test_refinement_convergence_order():
    # terminal Hausdorff error against the certified oval, order >= 1.9
    errs = []
    for N in (48, 96, 192):
        init = exact.angenent_oval_slice(-1.0, N)
        ctrl = engine.FlowControls(cfl=0.4, max_dt=1e-3, stop_rho_plus=0.8,
                                   snapshot_stride=16)
        traj = engine.evolve(init, -1.0, ctrl)
        sl = traj.slices[-1]
        ref = exact.angenent_oval_slice(sl.t, N)
        errs.append(geometry.hausdorff_distance(sl.body, ref))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.9
    assert math.log2(errs[1] / errs[2]) >= 1.9


def test_convexity_projection_of_marginal_input():
    # a profile failing convexity by < 1e-12 is projected, not rejected
    theta = np.arange(64) * 2 * math.pi / 64
    h = 1.0 + (1.0 / 3.0) * np.cos(2 * theta)
    h *= 1.0 / (1.0 + 1e-14)  # nudge the margin to ~0
    rho = bodies.d2_periodic4(bodies.Pad4(h, 2 * math.pi / 64))
    assert np.min(rho) > -1e-12
    ctrl = engine.FlowControls(cfl=0.3, max_dt=1e-3, stop_rho_plus=0.3,
                               snapshot_stride=16)
    init = bodies.SupportProfile("curve", 1, h + 1e-10)  # strictly valid carrier
    init.h[:] = h  # restore the marginal values
    traj = engine.evolve(init, -0.5, ctrl)
    assert len(traj) > 2


def test_evolve_cap_matches_closed_form(cap_run):
    traj = cap_run
    for sl in traj.slices:
        assert sl.body.rho == pytest.approx(exact.cap_radius(3.0, 2, sl.t), abs=1e-8)


def test_evolve_cap_backward_approaches_equator():
    ctrl = engine.FlowControls(max_dt=0.1, stop_rho_plus=1e-6, snapshot_stride=4)
    rho0 = exact.cap_radius(1.0, 2, -1.0)
    traj = engine.evolve_cap(1.0, rho0, -1.0, ctrl, n=2, t_stop=-20.0)
    rhos = np.array([sl.body.rho for sl in traj.slices])
    assert np.all(np.diff(rhos) <= 1e-12)  # decreasing toward extinction in time
    assert rhos[0] == pytest.approx(math.pi / 2.0, abs=1e-6)


def test_evolve_cap_equator_is_stationary():
    ctrl = engine.FlowControls(max_dt=0.1, stop_rho_plus=1e-6, snapshot_stride=4)
    traj = engine.evolve_cap(2.0, math.pi, -5.0, ctrl, n=3)
    for sl in traj.slices:
        assert sl.body.rho == math.pi
        assert sl.body.mean_curvature() == 0.0


@pytest.mark.parametrize("rho0", [0.1, 0.05])
def test_evolve_cap_start_at_or_below_the_floor(rho0):
    # a forward run from at or below stop_rho_plus is its start alone; from
    # below, the floor time would lie before t0 (R = 3: extinction at t0 + 6e-4)
    ctrl = engine.FlowControls(stop_rho_plus=0.1)
    traj = engine.evolve_cap(3.0, rho0, -1.0, ctrl, n=2)
    assert traj.times().tolist() == [-1.0]
    assert traj.slices[0].body.rho == pytest.approx(rho0, rel=1e-12)


@pytest.mark.parametrize("max_dt", [1e-12, 5e-324])
def test_evolve_cap_rejects_windows_beyond_the_slice_bound(max_dt):
    # 1e18 snapshots, or an infinite count: far more than numpy can allocate
    ctrl = engine.FlowControls(max_dt=max_dt, snapshot_stride=1)
    with pytest.raises(ValueError, match="max_dt .*snapshot_stride"):
        engine.evolve_cap(3000.0, 1000.0, -1e6, ctrl, n=2)


def test_evolve_cap_rejects_bad_radius():
    ctrl = engine.FlowControls()
    with pytest.raises(ValueError):
        engine.evolve_cap(1.0, 2.0, -1.0, ctrl, n=2)  # beyond pi R / 2
    with pytest.raises(ValueError):
        engine.evolve_cap(1.0, 0.0, -1.0, ctrl, n=2)


def test_trajectory_gauge_helpers(circle_exact_traj):
    shifted = circle_exact_traj.with_time_shift(0.01)
    assert np.allclose(shifted.times(), circle_exact_traj.times() - 0.01)
    scaled = circle_exact_traj.parabolic_rescale(2.0)
    assert np.allclose(scaled.times(), 4.0 * circle_exact_traj.times())
    assert np.allclose(scaled.slices[0].body.h, 2.0 * circle_exact_traj.slices[0].body.h)
