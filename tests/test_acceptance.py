"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import math

import numpy as np
import pytest

from mcfflow import (analysis, bodies, diagnostics as dg, engine, exact,
                     geometry, trajio)
from oracles import cubic_excess_pairform

PASS = "ACCEPTANCE {:>2} [PASS] {}"


# ---------------------------------------------------------------------------
# shared random-body pool (criteria 3 and 8)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def body_pool():
    """1000 seeded random convex bodies (800 plane, 200 axisymmetric) plus
    reference disks/spheres, with their measurements."""
    pool = []
    for seed in range(800):
        amp = 0.25 + 0.65 * (seed % 10) / 10.0
        body = bodies.random_convex_curve(96, seed=seed, amplitude=amp)
        pool.append(("curve", body, geometry.measure(body)))
    for seed in range(200):
        amp = 0.25 + 0.65 * (seed % 8) / 8.0
        body = bodies.random_convex_profile(2, 64, seed=seed, amplitude=amp)
        pool.append(("axisym", body, geometry.measure(body)))
    disk = bodies.SupportProfile("curve", 1, np.full(96, 1.0))
    pool.append(("curve", disk, geometry.measure(disk)))
    ball = bodies.SupportProfile("axisym", 2, np.full(65, 1.0))
    pool.append(("axisym", ball, geometry.measure(ball)))
    return pool


def test_criterion_01_exact_solution_reproduction(circle_run_256, sphere_run_256):
    errs = [abs(np.mean(sl.body.h) / math.sqrt(-2.0 * sl.t) - 1.0)
            for sl in circle_run_256.slices if -1.0 <= sl.t <= -0.01]
    assert len(errs) > 50
    worst_curve = max(errs)
    assert worst_curve <= 1e-5
    errs = [abs(np.mean(sl.body.h) / math.sqrt(-4.0 * sl.t) - 1.0)
            for sl in sphere_run_256.slices if -1.0 <= sl.t <= -0.01]
    assert len(errs) > 50
    worst_sphere = max(errs)
    assert worst_sphere <= 1e-4
    assert abs(circle_run_256.meta["s_ext"] - 1.0) <= 1e-4
    assert abs(sphere_run_256.meta["s_ext"] - 1.0) <= 1e-3
    print(PASS.format(1, f"circle err {worst_curve:.2e} <= 1e-5, "
                         f"sphere err {worst_sphere:.2e} <= 1e-4"))


def test_criterion_02_oval_oracle(oval_run_256):
    # certification: the implicit family satisfies the flow equation with
    # residual converging to zero at order >= 1.9
    orders = []
    for t in (-2.0, -1.0):
        order, res = exact.residual_convergence_order(exact.ExactFamily("oval", 1), t)
        assert order >= 1.9
        assert res[-1] < 1e-5
        orders.append(order)
    # evolving the t = -2 slice reproduces the implicit slices to 1e-3 diam
    worst = 0.0
    for sl in oval_run_256.slices:
        if -1.5 <= sl.t <= -0.5:
            ref = exact.angenent_oval_slice(sl.t, 256)
            ratio = geometry.hausdorff_distance(sl.body, ref) / geometry.diameter(ref)
            worst = max(worst, ratio)
    assert worst <= 1e-3
    print(PASS.format(2, f"residual order {min(orders):.2f} >= 1.9, "
                         f"evolve Hausdorff/diam {worst:.2e} <= 1e-3"))


def test_criterion_03_inequality_suite(body_pool):
    assert len(body_pool) >= 1000
    violations = 0
    for mode, body, m in body_pool:
        n = body.n
        if not abs(m.w_plus - m.diam) <= 1e-9 * m.diam:
            violations += 1
        if not m.rho_plus <= m.w_plus / math.sqrt(2.0) + 1e-9:
            violations += 1
        if not m.rho_minus >= m.w_minus / (n + 2.0) - 1e-9:
            violations += 1
        if not math.sqrt(2.0) * m.rho_plus <= m.diam * (1.0 + 1e-9):
            violations += 1
        if not m.diam <= m.diam_I * 1.01:
            violations += 1
        if not m.diam_I <= math.pi * m.rho_plus * 1.01:
            violations += 1
    assert violations == 0
    print(PASS.format(3, f"{len(body_pool)} bodies, 0 violations of the "
                         "width/radius/diameter inequalities"))


def test_criterion_04_flow_identities(circle_run_256, sphere_run_256, oval_run_256):
    worst_area = worst_vol = 0.0
    for traj, n in ((circle_run_256, 1), (sphere_run_256, 2), (oval_run_256, 1)):
        ts = traj.times()
        areas, vols = [], []
        for sl in traj.slices:
            a, v = geometry.area_and_volume(sl.body)
            areas.append(a)
            vols.append(v)
        for i in range(1, len(ts) - 1, 3):
            field = dg.curvature_field(traj.slices[i])
            dt2 = ts[i + 1] - ts[i - 1]
            lhs_a = (areas[i + 1] - areas[i - 1]) / dt2
            rhs_a = -field.integrate(field.H ** 2)
            worst_area = max(worst_area, abs(lhs_a / rhs_a - 1.0))
            lhs_v = (vols[i + 1] - vols[i - 1]) / dt2
            rhs_v = -field.integrate(field.H)
            worst_vol = max(worst_vol, abs(lhs_v / rhs_v - 1.0))
        # curvature and radius bounds, 1% slack
        for sl in traj.slices[1:-1:3]:
            field = dg.curvature_field(sl)
            assert float(np.min(field.H)) <= math.sqrt(n / (-2.0 * sl.t)) * 1.01
            assert float(np.max(field.H)) >= 1.0 / math.sqrt(-2.0 * sl.t) * 0.99
            ref = math.sqrt(-2.0 * n * sl.t)
            assert geometry.inner_radius(sl.body) <= ref * 1.01
            assert geometry.outer_radius(sl.body) >= ref * 0.99
    assert worst_area <= 0.01
    assert worst_vol <= 0.01
    print(PASS.format(4, f"area identity within {worst_area:.2e}, volume "
                         f"identity within {worst_vol:.2e} (<= 1%)"))


def test_criterion_05_harnack_suite(oval_run_256, oval_run_128, cap_run):
    # closed forms: nonnegative exactly
    times = -np.geomspace(20.0, 0.2, 30)
    sphere = exact.sample_trajectory(exact.ExactFamily("sphere", 2), times, 128)
    for traj in (sphere, cap_run):
        ts = traj.times()
        for i in range(1, len(ts) - 1):
            _, m = dg.harnack_quantity(traj, ts[i])
            assert m >= 0.0
    # numerical oval: min >= -tol with tol halving under refinement
    mins = {}
    for label, traj in (("128", oval_run_128), ("256", oval_run_256)):
        ts = traj.times()
        worst = math.inf
        maxH = 0.0
        for i in range(1, len(ts) - 1):
            _, m = dg.harnack_quantity(traj, ts[i])
            worst = min(worst, m)
            maxH = max(maxH, float(np.max(dg.curvature_field(traj.slices[i]).H)))
        mins[label] = (worst, maxH)
    tol128 = 1e-2 * mins["128"][1] ** 3
    assert mins["128"][0] >= -tol128
    assert mins["256"][0] >= -tol128 / 2.0
    print(PASS.format(5, f"closed forms >= 0; oval min {mins['256'][0]:.2e} "
                         f"vs tol {tol128 / 2.0:.2e}"))


def test_criterion_06_pinching_decay(perturbed_sphere_run):
    traj = perturbed_sphere_run
    assert traj.times()[0] == pytest.approx(-100.0, rel=0.01)
    eps = min(dg.curvature_field(sl).eps_min() for sl in traj.slices)
    sigma, p = analysis.feasible_sigma_p(eps, traj.n)
    rep = analysis.pinching_decay_check(traj, sigma, p)
    assert rep.monotone_ok
    assert rep.max_slack() <= 0.01
    assert np.isfinite(rep.envelope_log_c3)
    assert 0.0 < rep.area_bound_c < 100.0
    print(PASS.format(6, f"eps {eps:.3f}, p {p}, sigma {sigma:.2e}: monotone "
                         f"with slack {rep.max_slack():.2e} <= 1%, envelope "
                         f"log c3 {rep.envelope_log_c3:.1f}"))


def test_criterion_07_classifier_separation(circle_exact_traj, sphere_exact_traj,
                                            oval_exact_traj):
    eps_pad = 0.01
    rep1 = analysis.check_conditions(circle_exact_traj)
    for key in ("iii", "iv", "v", "vi", "vii"):
        assert rep1.verdict(key) == analysis.BOUNDED
    assert rep1.conditions["iii"].sup <= 2.0 * math.sqrt(2.0) + eps_pad
    assert rep1.conditions["iv"].sup == pytest.approx(1.0, abs=1e-9)
    assert rep1.conditions["v"].sup == pytest.approx(1.0, abs=1e-12)
    assert rep1.conditions["vi"].sup == pytest.approx(4.0 * math.pi, rel=1e-9)
    assert rep1.conditions["vii"].sup == pytest.approx(math.sqrt(0.5), rel=1e-12)

    rep2 = analysis.check_conditions(sphere_exact_traj)
    for key in ("ii", "iii", "iv", "v", "vi", "vii"):
        assert rep2.verdict(key) == analysis.BOUNDED
    assert rep2.conditions["iv"].sup == pytest.approx(1.0, abs=1e-9)
    assert rep2.conditions["v"].sup == pytest.approx(1.0, abs=1e-12)
    assert rep2.conditions["vi"].sup == pytest.approx(36.0 * math.pi, rel=1e-3)
    assert rep2.conditions["vii"].sup == pytest.approx(1.0, rel=1e-12)

    rep3 = analysis.check_conditions(oval_exact_traj)
    for key in ("iii", "iv", "v", "vi", "vii"):
        assert rep3.verdict(key) in (analysis.GROWING, analysis.VIOLATED)

    # verdict stability under the 1% gauge perturbation
    for traj, base in ((circle_exact_traj, rep1), (sphere_exact_traj, rep2),
                       (oval_exact_traj, rep3)):
        delta = 0.01 * abs(traj.times()[-1])
        for sgn in (1.0, -1.0):
            rep = analysis.check_conditions(traj.with_time_shift(sgn * delta))
            for key in ("iii", "iv", "v", "vi", "vii"):
                assert rep.verdict(key) == base.verdict(key)
    print(PASS.format(7, "sphere margins pinned and BoundedInWindow; oval "
                         "(iii)-(vii) GrowingTrend; gauge-stable"))


def test_criterion_08_reverse_iso_bound(body_pool):
    checked = 0
    for c1 in (4.0 * math.pi, 8.0 * math.pi):
        bound = geometry.reverse_iso_radius_bound(c1, 1)
        for mode, body, m in body_pool:
            if mode != "curve" or m.iso_ratio > c1:
                continue
            checked += 1
            assert m.rho_plus / m.rho_minus <= bound + 1e-9
    assert checked > 0  # the reference disk passes the 4*pi filter
    # same chain for the axisymmetric pool at the n = 2 scale
    for c1 in (36.0 * math.pi, 72.0 * math.pi):
        bound = geometry.reverse_iso_radius_bound(c1, 2)
        for mode, body, m in body_pool:
            if mode != "axisym" or m.iso_ratio > c1:
                continue
            checked += 1
            assert m.rho_plus / m.rho_minus <= bound + 1e-9
    print(PASS.format(8, f"{checked} filtered bodies all satisfy the "
                         "radius-ratio bound; 0 violations"))


def test_criterion_09_eigenvalue_brute_force():
    rng = np.random.default_rng(123456)
    count = 10 ** 5
    points = 0
    # Lemma 5.1 sweep
    for n in range(2, 7):
        for k in range(1, n):
            for alpha in (0.05, 0.2, 0.45):
                lam = rng.uniform(1e-3, 1.0, size=(count, n))
                lam.sort(axis=1)
                H = lam.sum(axis=1)
                sel = (lam ** 2).sum(axis=1) / H ** 2 <= (1.0 - 2.0 * alpha) / (n - k)
                if np.any(sel):
                    lhs = lam[sel, :k].sum(axis=1)
                    assert np.all(lhs >= alpha * H[sel] - 1e-12)
                points += 1
    # cubic-excess gap sweep
    for n in range(3, 7):
        for k in range(2, n):
            for alpha in (0.05, 0.15):
                for eta in (0.05, 0.3):
                    lam = rng.uniform(1e-3, 1.0, size=(count, n))
                    lam.sort(axis=1)
                    H = lam.sum(axis=1)
                    A2 = (lam ** 2).sum(axis=1)
                    sel = ((lam[:, :k].sum(axis=1) >= alpha * H)
                           & (A2 > (1.0 / (n - k + 1.0) + eta) * H ** 2))
                    if np.any(sel):
                        Z = dg.cubic_excess_from_lambdas(lam[sel])
                        bound = ((n - k + 1.0) * alpha ** 2 * eta / k ** 2
                                 * H[sel] ** 4)
                        assert np.all(Z >= bound - 1e-12)
                    points += 1
    # Z identity at 1e-12 relative
    lam = rng.uniform(1e-3, 1.0, size=(count, 6))
    z1 = dg.cubic_excess_from_lambdas(lam)
    z2 = cubic_excess_pairform(lam)
    assert np.max(np.abs(z1 - z2)) <= 1e-12 * np.max(np.abs(z1))
    print(PASS.format(9, f"{points} grid points x 1e5 tuples, 0 "
                         "counterexamples; Z identity at 1e-12"))


def test_criterion_10_rescaling_signature(oval_exact_traj):
    rf = analysis.type_two_rescale(oval_exact_traj, 50.0)
    assert abs(rf.L_k - 1.0) <= 0.05
    taus = rf.times()
    sl = rf.slices[int(np.argmin(np.abs(taus)))]
    field = dg.curvature_field(sl)
    ang = sl.body.angles()
    off = np.remainder(ang - rf.marked_theta + math.pi, 2.0 * math.pi) - math.pi
    mask = np.abs(off) <= 1.2
    tip_err = float(np.max(np.abs(field.H[mask] / field.H[rf.marked_index]
                                  - np.cos(off[mask]))))
    assert tip_err <= 0.02
    fit = analysis.soliton_proximity(rf)
    assert fit.residual <= 0.02
    _, nu, H, w = exact.grim_reaper_samples()
    _, reaper_res = analysis.fit_translation(H, nu, w)
    assert reaper_res <= 1e-6
    print(PASS.format(10, f"L_k {rf.L_k:.4f} (within 5%), tip profile err "
                          f"{tip_err:.3f} <= 0.02, residuals "
                          f"{fit.residual:.2e} / {reaper_res:.1e}"))


def test_criterion_11_cap_ode(cap_run):
    R = cap_run.meta["R"]
    worst = 0.0
    for sl in cap_run.slices:
        worst = max(worst, abs(sl.body.rho - exact.cap_radius(R, 2, sl.t)))
    assert worst <= 1e-8
    # equator stationary to machine precision
    ctrl = engine.FlowControls(max_dt=0.1, snapshot_stride=4)
    eq = engine.evolve_cap(1.0, math.pi / 2.0, -5.0, ctrl, n=2)
    for sl in eq.slices:
        assert sl.body.rho == math.pi / 2.0
        assert sl.body.mean_curvature() == 0.0
    rep = dg.ambient_pinching(cap_run)
    assert rep.f is not None and np.max(np.abs(rep.f)) == 0.0
    print(PASS.format(11, f"cap ODE max err {worst:.2e} <= 1e-8; equator "
                          "stationary; f = 0 on caps"))


def test_criterion_12_determinism(tmp_path, oval_exact_traj):
    # representative reruns of every output-producing path; all RNGs are
    # explicitly seeded and payloads carry no timestamps
    pairs = []
    for rep in range(2):
        init = bodies.SupportProfile("curve", 1, np.full(96, math.sqrt(2.0)))
        ctrl = engine.FlowControls(cfl=0.4, max_dt=1e-2, stop_rho_plus=0.4,
                                   snapshot_stride=16)
        run = engine.evolve(init, -1.0, ctrl)
        path = tmp_path / f"circle{rep}.jsonl"
        trajio.write_trajectory(run, path)
        pairs.append(path.read_bytes())
    assert pairs[0] == pairs[1]

    caps = []
    for rep in range(2):
        ctrl = engine.FlowControls(max_dt=0.05, stop_rho_plus=1e-6,
                                   snapshot_stride=4)
        run = engine.evolve_cap(3.0, exact.cap_radius(3.0, 2, -20.0), -20.0,
                                ctrl, n=2, t_stop=-0.1)
        path = tmp_path / f"cap{rep}.jsonl"
        trajio.write_trajectory(run, path)
        caps.append(path.read_bytes())
    assert caps[0] == caps[1]

    reports = []
    for rep in range(2):
        path = tmp_path / f"cls{rep}.json"
        trajio.emit_report(analysis.check_conditions(oval_exact_traj), path)
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]

    suites = []
    for rep in range(2):
        rows = []
        for seed in range(25):
            body = bodies.random_convex_curve(64, seed=seed)
            m = geometry.measure(body)
            rows.append([m.w_minus, m.rho_plus, m.iso_ratio])
        suites.append(json.dumps(rows))
    assert suites[0] == suites[1]
    print(PASS.format(12, "engine runs, cap runs, classify reports and "
                          "random suites are byte-identical across reruns"))
