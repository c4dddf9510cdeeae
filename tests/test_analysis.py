"""Trajectory classification, decay checks, rescaling, soliton signature."""

import math
import warnings

import numpy as np
import pytest

from mcfflow import analysis, diagnostics as dg, engine, exact
from mcfflow.analysis import BOUNDED, GROWING, NOT_APPLICABLE, VIOLATED
from mcfflow.engine import TimeSlice


def test_sphere_all_bounded(sphere_exact_traj):
    rep = analysis.check_conditions(sphere_exact_traj)
    for key in ("ii", "iii", "iv", "v", "vi", "vii"):
        assert rep.verdict(key) == BOUNDED
    assert np.max(rep.sphericity_f0_max) < 1e-14
    assert rep.conditions["iv"].sup == pytest.approx(1.0, abs=1e-9)
    assert rep.conditions["v"].sup == pytest.approx(1.0, abs=1e-12)
    assert rep.conditions["vii"].sup == pytest.approx(1.0, rel=1e-12)


def test_circle_margins(circle_exact_traj):
    rep = analysis.check_conditions(circle_exact_traj)
    assert rep.verdict("ii") == NOT_APPLICABLE
    for key in ("iii", "iv", "v", "vi", "vii"):
        assert rep.verdict(key) == BOUNDED
    assert rep.conditions["iii"].sup <= 2.0 * math.sqrt(2.0) + 0.01
    assert rep.conditions["vi"].sup == pytest.approx(4.0 * math.pi, rel=1e-9)
    assert rep.conditions["vii"].sup == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_oval_grows(oval_exact_traj):
    rep = analysis.check_conditions(oval_exact_traj)
    assert rep.verdict("ii") == NOT_APPLICABLE
    for key in ("iii", "iv", "v", "vi", "vii"):
        assert rep.verdict(key) in (GROWING, VIOLATED)


def test_perturbed_sphere_bounded(perturbed_sphere_run):
    rep = analysis.check_conditions(perturbed_sphere_run)
    for key in ("ii", "iii", "iv", "v", "vi", "vii"):
        assert rep.verdict(key) == BOUNDED
    f0 = rep.sphericity_f0_max
    assert f0[-1] < f0[0]  # rounding out


def test_window_too_short():
    traj = exact.sample_trajectory(exact.ExactFamily("sphere", 2),
                                   -np.geomspace(5.0, 0.5, 12), 64)
    with pytest.raises(analysis.WindowTooShortError):
        analysis.check_conditions(traj)


def test_hard_cap_gives_violated(oval_exact_traj):
    rule = analysis.VerdictRule(hard_caps={"v": 10.0})
    rep = analysis.check_conditions(oval_exact_traj, rule)
    assert rep.verdict("v") == VIOLATED


def test_gauge_perturbation_stability(sphere_exact_traj, oval_exact_traj):
    # 1%-of-|t_end| re-anchoring keeps margins O(1%) and verdicts identical
    for traj in (sphere_exact_traj, oval_exact_traj):
        base = analysis.check_conditions(traj)
        delta = 0.01 * abs(traj.times()[-1])
        for sgn in (+1.0, -1.0):
            rep = analysis.check_conditions(traj.with_time_shift(sgn * delta))
            for key in ("iii", "iv", "v", "vi", "vii"):
                assert rep.verdict(key) == base.verdict(key)
                assert rep.conditions[key].sup == pytest.approx(
                    base.conditions[key].sup, rel=0.05)


def test_scaling_covariance(sphere_exact_traj, oval_exact_traj):
    # (iv), (v), (vi), (vii) margins are pointwise parabolic-scaling
    # invariants; (iii) is not (the +1 regularizer sets a scale) but its
    # verdict must be stable.
    for traj in (sphere_exact_traj, oval_exact_traj):
        base = analysis.check_conditions(traj)
        lam = 1.7
        scaled = analysis.check_conditions(traj.parabolic_rescale(lam))
        for key in ("iv", "v", "vi", "vii"):
            assert scaled.conditions[key].sup == pytest.approx(
                base.conditions[key].sup, rel=1e-9)
            assert scaled.verdict(key) == base.verdict(key)
        assert scaled.verdict("iii") == base.verdict("iii")
        ratio = scaled.conditions["iii"].sup / base.conditions["iii"].sup
        assert 1.0 / lam <= ratio <= lam


def test_determinism_byte_identical(sphere_exact_traj):
    import json
    r1 = analysis.check_conditions(sphere_exact_traj).payload()
    r2 = analysis.check_conditions(sphere_exact_traj).payload()
    assert json.dumps(r1) == json.dumps(r2)


# ---------------------------------------------------------------------------
# pinched decay
# ---------------------------------------------------------------------------

def test_feasible_sigma_p_gates():
    sigma, p = analysis.feasible_sigma_p(0.45, 2)
    assert p >= 100.0 / 0.45 ** 2
    assert sigma <= 2.0 * 0.45 ** 3 / (16.0 * math.sqrt(p))
    assert p * sigma > 2.0


def test_pinching_decay_gate_violation(perturbed_sphere_run):
    with pytest.raises(analysis.ParameterGateViolatedError):
        analysis.pinching_decay_check(perturbed_sphere_run, sigma=0.5, p=10.0)


def test_pinching_decay_sphere_trivial(sphere_exact_traj):
    eps = 0.5
    sigma, p = analysis.feasible_sigma_p(eps, 2)
    rep = analysis.pinching_decay_check(sphere_exact_traj, sigma, p)
    # both sides identically zero: trivially monotone, envelope trivial
    assert rep.monotone_ok
    assert rep.max_slack() == 0.0
    assert not np.any(np.isfinite(rep.log_phi))


def test_pinching_decay_perturbed_sphere(perturbed_sphere_run):
    traj = perturbed_sphere_run
    eps = min(dg.curvature_field(s).eps_min() for s in traj.slices)
    assert eps > 0.4
    sigma, p = analysis.feasible_sigma_p(eps, 2)
    rep = analysis.pinching_decay_check(traj, sigma, p)
    assert rep.monotone_ok
    assert rep.max_slack() <= 0.01
    assert np.isfinite(rep.envelope_log_c3)
    # area bound |M_t| <= c (-t)^(n/2) with a finite fitted constant
    assert 0.0 < rep.area_bound_c < 100.0


def test_pinching_decay_monotone_loglog(perturbed_sphere_run):
    traj = perturbed_sphere_run
    eps = min(dg.curvature_field(s).eps_min() for s in traj.slices)
    sigma, p = analysis.feasible_sigma_p(eps, 2)
    rep = analysis.pinching_decay_check(traj, sigma, p)
    finite = rep.log_phi[np.isfinite(rep.log_phi)]
    assert np.all(np.diff(finite) < 0.0)  # strictly decaying integral


# ---------------------------------------------------------------------------
# diameter <-> curvature equivalence
# ---------------------------------------------------------------------------

def test_diameter_curvature_sphere(sphere_exact_traj):
    rep = analysis.diameter_curvature_check(sphere_exact_traj)
    assert rep.diam_verdict == BOUNDED
    assert rep.curvature_verdict == BOUNDED
    assert rep.verdicts_agree
    assert rep.harnack_transfer_max <= 1.0


def test_diameter_curvature_oval(oval_exact_traj):
    rep = analysis.diameter_curvature_check(oval_exact_traj)
    assert rep.diam_verdict == GROWING
    assert rep.curvature_verdict == GROWING
    assert rep.verdicts_agree
    # sqrt(-t) min H -> 0 (flank curvature decays)
    order = np.argsort(-rep.times)
    assert rep.H_lower[order][-1] < 0.2 * rep.H_lower[order][0]
    # quantitative Harnack transfer verified across the window
    assert rep.harnack_transfer_max <= 1.0


# ---------------------------------------------------------------------------
# type-II rescaling and soliton signature
# ---------------------------------------------------------------------------

def test_rescale_window_not_covered(sphere_exact_traj):
    with pytest.raises(analysis.WindowNotCoveredError):
        analysis.type_two_rescale(sphere_exact_traj, 1000.0)


def test_rescale_oval_tip(oval_exact_traj):
    rf = analysis.type_two_rescale(oval_exact_traj, 50.0)
    assert rf.t_k == pytest.approx(-50.0)
    assert abs(rf.L_k - 1.0) <= 0.05
    taus = rf.times()
    i0 = int(np.argmin(np.abs(taus)))
    field = dg.curvature_field(rf.slices[i0])
    assert float(np.max(field.H)) == pytest.approx(1.0, abs=1e-12)
    assert not rf.type1_flag


def test_rescale_tip_profile_matches_reaper(oval_exact_traj):
    rf = analysis.type_two_rescale(oval_exact_traj, 50.0)
    taus = rf.times()
    i0 = int(np.argmin(np.abs(taus)))
    sl = rf.slices[i0]
    field = dg.curvature_field(sl)
    ang = sl.body.angles()
    off = np.remainder(ang - rf.marked_theta + math.pi, 2.0 * math.pi) - math.pi
    mask = np.abs(off) <= 1.2
    ratio = field.H[mask] / field.H[rf.marked_index]
    assert np.max(np.abs(ratio - np.cos(off[mask]))) <= 0.02


def test_rescale_sphere_degenerate(sphere_exact_traj):
    rf = analysis.type_two_rescale(sphere_exact_traj, 50.0)
    assert rf.type1_flag  # flagged as type I before any soliton claim
    assert rf.t_k == pytest.approx(-1.0, rel=0.15)  # ties resolve to latest t


def test_soliton_residuals(oval_exact_traj, circle_exact_traj):
    rf = analysis.type_two_rescale(oval_exact_traj, 50.0)
    fit = analysis.soliton_proximity(rf)
    assert fit.residual <= 0.02
    assert fit.V[1] == pytest.approx(1.0, abs=0.05)  # unit vertical
    rs = analysis.type_two_rescale(circle_exact_traj, 50.0)
    fs = analysis.soliton_proximity(rs)
    assert fs.residual > 0.1  # no constant vector fits a round H


def test_soliton_fit_matches_lstsq_oracle(sphere_exact_traj):
    rs = analysis.type_two_rescale(sphere_exact_traj, 50.0)
    taus = rs.times()
    sl = rs.slices[int(np.argmin(np.abs(taus)))]
    field = dg.curvature_field(sl)
    ang = sl.body.angles()
    off = np.remainder(ang - rs.marked_theta + math.pi, 2.0 * math.pi) - math.pi
    mask = np.abs(off) <= 1.2
    w = field.dmu[mask]
    A = field.nu[mask] * np.sqrt(w)[:, None]
    b = field.H[mask] * np.sqrt(w)
    V_or, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    V, _ = analysis.fit_translation(field.H[mask], field.nu[mask], w)
    assert np.allclose(V, V_or, atol=1e-10)


def test_grim_reaper_exact_soliton():
    _, nu, H, w = exact.grim_reaper_samples()
    V, res = analysis.fit_translation(H, nu, w)
    assert res <= 1e-6
    assert np.allclose(V, [0.0, 1.0], atol=1e-9)


# ---------------------------------------------------------------------------
# k-convex gap
# ---------------------------------------------------------------------------

def test_kconvex_gap_sphere():
    times = -np.geomspace(10.0, 0.5, 12)
    traj = exact.sample_trajectory(exact.ExactFamily("sphere", 3), times, 64)
    rep = analysis.kconvex_gap_check(traj, 2)
    assert rep.holds
    assert rep.alpha_measured == pytest.approx(2.0 / 3.0, rel=1e-9)
    # sphere margin: H^2 - 2|A|^2 = (9 - 6)/R^2 > 0
    sl = traj.slices[0]
    f = dg.curvature_field(sl)
    R = math.sqrt(-2.0 * 3.0 * traj.times()[0])
    assert float(np.min(f.H ** 2 - 2.0 * f.A2)) == pytest.approx(3.0 / R ** 2, rel=1e-9)


def test_kconvex_gap_perturbed_run(perturbed_3sphere_run):
    rep = analysis.kconvex_gap_check(perturbed_3sphere_run, 2)
    assert rep.alpha_measured > 0.0
    assert rep.holds
    assert np.all(rep.margins > 0.0)
    # gap readout: sup |A|^2/H^2 snaps to 1/h with h = n for pinched runs
    assert dg.pinching_gap_level(rep.sup_ratio, tol=0.02) == 3


def test_kconvex_gap_skips_slices_without_positive_curvature():
    # an equator has H = 0, so its k-margin is 0/0: alpha is taken over the
    # slices with min H > H_FLOOR, as pinching_report takes it, with no warning
    equator, cap = exact.equator_slice(1.0, 3), exact.cap_slice(1.0, 3, -1.0)
    for first, second in ((equator, cap), (cap, equator)):
        traj = engine.Trajectory([TimeSlice(-2.0, first), TimeSlice(-1.0, second)], {})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = analysis.kconvex_gap_check(traj, 2)
            report = dg.pinching_report(traj, k_values=(2,))
        assert rep.alpha_measured == report.kconvex_margin[2] == pytest.approx(2.0 / 3.0)
        assert rep.sup_ratio == report.ahh
        assert not rep.holds  # the equator's H^2 - 2|A|^2 is 0


def test_kconvex_gap_requires_kconvexity():
    # the far-past oval's axisymmetric analogue is out of scope; use a thin
    # profile that is convex but k-margin tiny after clipping -> craft a
    # failing case from a degenerate cylinder-like tuple instead
    times = -np.geomspace(10.0, 0.5, 12)
    traj = exact.sample_trajectory(exact.ExactFamily("sphere", 3), times, 64)
    with pytest.raises(ValueError):
        analysis.kconvex_gap_check(traj, 5)
