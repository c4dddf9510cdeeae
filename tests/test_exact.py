"""Closed-form families and the flow-residual oracle."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.integrate import solve_ivp

from mcfflow import engine, exact
from mcfflow.exact import ExactFamily


def test_sphere_radius_values():
    assert exact.sphere_radius(2, -1.0) == pytest.approx(2.0, abs=1e-15)
    assert exact.sphere_radius(1, -0.5) == pytest.approx(1.0, abs=1e-15)
    assert exact.sphere_radius(3, -2.0) == pytest.approx(math.sqrt(12.0), rel=1e-15)


def test_sphere_rejects_nonnegative_time():
    with pytest.raises(ValueError):
        exact.sphere_radius(2, 0.0)
    with pytest.raises(ValueError):
        exact.sphere_radius(2, 1.0)


def test_cylinder_radius_and_ratio():
    assert exact.cylinder_radius(3, 1, -2.0) == pytest.approx(math.sqrt(8.0), rel=1e-15)
    assert exact.cylinder_radius(2, 1, -0.5) == pytest.approx(1.0, abs=1e-15)
    lam = exact.cylinder_reference_curvatures(3, 1, -2.0)
    ratio = np.sum(lam ** 2) / np.sum(lam) ** 2
    assert ratio == pytest.approx(0.5, rel=1e-14)  # |A|^2/H^2 = 1/(n-k)


def test_cylinder_rejects_bad_k():
    for k in (0, 3, 5):
        with pytest.raises(ValueError):
            exact.cylinder_radius(3, k, -1.0)


def test_grim_reaper_point_values():
    h, kap = exact.grim_reaper_profile(0.0, 0.0)
    assert h == 0.0 and kap == 1.0
    h, kap = exact.grim_reaper_profile(math.pi / 3.0, 0.0)
    assert h == pytest.approx(math.log(2.0), rel=1e-14)
    assert kap == pytest.approx(0.5, rel=1e-14)


def test_grim_reaper_curvature_against_finite_differences():
    # independent oracle: second differences of the closed-form height
    x = np.linspace(-1.3, 1.3, 41)
    d = 1e-5
    y0, kap = exact.grim_reaper_profile(x, 0.0)
    yp = (exact.grim_reaper_profile(x + d, 0.0)[0]
          - exact.grim_reaper_profile(x - d, 0.0)[0]) / (2 * d)
    ypp = (exact.grim_reaper_profile(x + d, 0.0)[0] - 2 * y0
           + exact.grim_reaper_profile(x - d, 0.0)[0]) / d ** 2
    kap_fd = ypp / (1 + yp ** 2) ** 1.5
    assert np.max(np.abs(kap_fd - kap)) < 1e-5


def test_grim_reaper_translates_vertically():
    x = np.linspace(-1.0, 1.0, 7)
    h1, _ = exact.grim_reaper_profile(x, -0.3)
    h2, _ = exact.grim_reaper_profile(x, 1.1)
    assert np.allclose(h2 - h1, 1.4, atol=1e-14)


def test_grim_reaper_domain():
    with pytest.raises(ValueError):
        exact.grim_reaper_profile(math.pi / 2.0, 0.0)


def test_oval_tip_abscissa_by_root_solving():
    # oracle: root of cos x = e^t on (0, pi/2)
    for t in (-1.0, -2.5):
        root = brentq(lambda x: math.cos(x) - math.exp(t), 0.0, math.pi / 2.0,
                      xtol=1e-14)
        assert exact.oval_extent(t)[0] == pytest.approx(root, abs=1e-12)
    assert exact.oval_extent(-1.0)[0] == pytest.approx(1.1941, abs=1e-4)


def test_oval_shrinks_to_point():
    x_ext, y_ext = exact.oval_extent(-1e-9)
    assert x_ext < 1e-4 and y_ext < 1e-4


def test_oval_rejects_nonnegative_time():
    with pytest.raises(ValueError):
        exact.angenent_oval_slice(0.0, 64)
    with pytest.raises(ValueError):
        exact.angenent_oval_slice(-1.0, 8)


def test_oval_support_against_point_cloud():
    # oracle: dense boundary sample; its hull support is a lower bound that
    # converges to the true support from below
    t = -1.5
    y_max = exact.oval_extent(t)[1]
    y = np.linspace(0.0, y_max, 20001)
    u = np.minimum(np.exp(t) * np.cosh(y), 1.0)
    x = np.arccos(u)
    pts = np.column_stack([np.concatenate([x, -x, x, -x]),
                           np.concatenate([y, y, -y, -y])])
    theta = np.linspace(0.0, 2.0 * math.pi, 37)[:-1]
    h = exact.oval_support_values(t, theta)
    cloud = np.max(pts @ np.column_stack([np.cos(theta), np.sin(theta)]).T, axis=0)
    assert np.all(h >= cloud - 1e-12)
    assert np.max(h - cloud) < 1e-7


def test_oval_slice_is_convex_and_symmetric():
    sl = exact.angenent_oval_slice(-1.0, 128)
    assert np.min(sl.curvature_radius()) > 0.0
    h = sl.h
    assert np.allclose(h, h[::-1].take(range(-1, 127)), atol=0)  # h(-theta) = h(theta)
    assert np.allclose(h[:64], h[64:], atol=1e-13)               # antipodal symmetry


@pytest.mark.parametrize("t", [-1e-12, -1e-9, -1e-6])
def test_oval_is_round_to_first_order_near_extinction(t):
    # h = sqrt(-2t) (1 + O(t)) and kappa = (1 + O(t)) / sqrt(-2t) as t -> 0-
    theta = np.linspace(0.0, 2.0 * math.pi, 97)
    r = math.sqrt(-2.0 * t)
    h = exact.oval_support_values(t, theta)
    kappa = exact.oval_curvature_values(t, theta)
    assert np.max(np.abs(h / r - 1.0)) <= abs(t)
    assert np.max(np.abs(kappa * r - 1.0)) <= abs(t)


def test_oval_extent_is_the_support_at_the_axes():
    # bit for bit, from t = -700 to extinction
    for t in -np.logspace(math.log10(700.0), -20.0, 181):
        t = float(t)
        extent = exact.oval_extent(t)
        assert (exact.oval_support_values(t, 0.0),
                exact.oval_support_values(t, math.pi / 2.0)) == extent, t
        h = exact.angenent_oval_slice(t, 64).h
        assert (h[0], h[16]) == extent, t


def test_cap_radius_against_ode_oracle():
    # independent oracle: integrate d rho/dt = -(n/R) cot(rho/R) numerically
    R, n = 1.0, 2
    rho_start = exact.cap_radius(R, n, -1.0)
    assert rho_start == pytest.approx(math.acos(math.exp(-2.0)), rel=1e-14)
    assert rho_start == pytest.approx(1.4351, abs=1e-4)
    sol = solve_ivp(lambda t, y: [-(n / R) / math.tan(y[0] / R)],
                    (-1.0, -0.05), [rho_start], rtol=1e-12, atol=1e-14,
                    dense_output=True)
    for t in (-0.5, -0.1, -0.05):
        assert sol.sol(t)[0] == pytest.approx(exact.cap_radius(R, n, t), abs=1e-9)

    # evolve_cap from a start off the t = 0 family, forward to the floor
    # rho = 1/2 and backward to t = -20
    R, n, rho0, t0, floor = 2.0, 3, 1.1, -2.0, 0.5
    ctrl = engine.FlowControls(max_dt=0.01, stop_rho_plus=floor, snapshot_stride=2)

    def hit_floor(t, y):
        return y[0] - floor
    hit_floor.terminal = True

    for t_stop in (None, -20.0):
        traj = engine.evolve_cap(R, rho0, t0, ctrl, n=n, t_stop=t_stop)
        ts = traj.times()
        sol = solve_ivp(lambda t, y: [-(n / R) / math.tan(y[0] / R)],
                        (t0, -1e-6 if t_stop is None else t_stop), [rho0],
                        method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True,
                        events=hit_floor if t_stop is None else None)
        rhos = np.array([sl.body.rho for sl in traj.slices])
        assert len(ts) > 5
        np.testing.assert_allclose(rhos, sol.sol(ts)[0], rtol=1e-10, atol=0.0)
        if t_stop is None:
            assert ts[-1] == pytest.approx(sol.t_events[0][0], abs=1e-10)
            assert rhos[-1] == pytest.approx(floor, rel=1e-10)
        else:
            assert ts[0] == t_stop


def test_cap_equator_limit():
    assert exact.cap_radius(1.0, 2, -1e6) == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert exact.cap_radius(2.0, 3, -1e7) == pytest.approx(math.pi, abs=1e-9)


def test_cap_matches_euclidean_sphere_near_extinction():
    # H of the cap approaches n / sqrt(-2 n t) as t -> 0-
    R, n = 1.0, 2
    for t in (-1e-3, -1e-4, -1e-5):
        H_cap = exact.cap_slice(R, n, t).mean_curvature()
        H_euc = n / math.sqrt(-2.0 * n * t)
        assert abs(H_cap / H_euc - 1.0) < 50.0 * abs(t) ** 0.5


def test_flow_residual_sphere_analytic_is_zero():
    fam = ExactFamily("sphere", 2)
    assert exact.flow_residual(fam, -1.7, analytic_velocity=True) == 0.0


def test_flow_residual_reaper_zero_up_to_roundoff():
    fam = ExactFamily("grim-reaper")
    assert exact.flow_residual(fam, 0.0, analytic_velocity=True) == 0.0
    assert exact.flow_residual(fam, 0.0) < 1e-12


def test_flow_residual_halving_factor_near_four():
    fam = ExactFamily("oval", 1)
    r1 = exact.flow_residual(fam, -1.0, dt=2e-2)
    r2 = exact.flow_residual(fam, -1.0, dt=1e-2)
    assert r1 / r2 == pytest.approx(4.0, rel=0.05)


@pytest.mark.parametrize("fam,t", [
    (ExactFamily("sphere", 1), -0.7),
    (ExactFamily("sphere", 3), -2.0),
    (ExactFamily("oval", 1), -1.0),
    (ExactFamily("cap", 2, R=1.0), -1.0),
    (ExactFamily("grim-reaper"), 0.0),
])
def test_flow_residual_convergence_order(fam, t):
    order, res = exact.residual_convergence_order(fam, t)
    assert order >= 1.9
    assert res[-1] < 1e-5


def test_flow_residual_rejects_domain_boundary():
    with pytest.raises(ValueError):
        exact.flow_residual(ExactFamily("sphere", 2), -1e-9, dt=1e-3)


def test_flow_residual_rejects_cylinder():
    with pytest.raises(ValueError):
        exact.flow_residual(ExactFamily("cylinder", 3, k=1), -1.0)


def test_trajectory_residual_on_exact_samples():
    times = np.array([-1.02, -1.0, -0.98])
    traj = exact.sample_trajectory(ExactFamily("sphere", 2), times, 64)
    res = exact.flow_residual(traj, -1.0)
    assert res < 1e-3  # snapshot differencing at dt = 0.02


def test_sample_trajectory_orders_times():
    traj = exact.sample_trajectory(ExactFamily("oval", 1), [-1.0, -3.0, -2.0], 64)
    assert np.all(np.diff(traj.times()) > 0)
    assert len(traj) == 3


@pytest.mark.parametrize("kind", ["oval", "grim-reaper"])
def test_plane_curve_families_reject_higher_dimensions(kind):
    # sample_trajectory(ExactFamily("oval", n=2), ...) once returned plane
    # curves in a trajectory labelled axisym n = 2
    with pytest.raises(ValueError, match="plane curve"):
        ExactFamily(kind, n=2)
    assert ExactFamily(kind).n == 1
