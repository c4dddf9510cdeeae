"""The benchmark's workloads: inputs made from a seed, a fixed operation
list, and the correctness check of every operation's output.

Each workload has ``setup(workdir, seed)``, which generates the inputs and
warms the code paths the operations use, and ``ops(state, repeat)``, which
returns the fixed operation list for one repeat.  An operation's ``run`` is
the timed region; its ``check`` runs afterwards, untimed, and raises
`CheckFailed` or returns the error against a closed form as a share of its
pinned tolerance (or None when the operation has no closed form).
Tolerances are the acceptance suite's pinned ones (tests/test_acceptance.py
and the unit tests of the same quantities).
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import math
import os
from typing import Callable

import numpy as np

from mcfflow import (analysis, bodies, cli, diagnostics, engine, exact, geometry,
                     trajio)


class CheckFailed(Exception):
    """An operation's output failed its correctness check."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], object]


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _seeds(seed, repeat, count):
    rng = np.random.default_rng([seed, repeat])
    return [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=count)]


# ---------------------------------------------------------------------------
# flow-run: `mcfflow run` through cli.main, one config per operation
# ---------------------------------------------------------------------------

class FlowRun:
    """Evolve each config to its stop threshold and write the trajectory."""

    name = "flow-run"

    def __init__(self, smoke=False):
        if smoke:
            self.curves, self.N_curve, self.N_axis, self.N_pert = 1, 32, 32, 32
            self.curve_stop, self.circle_stop, self.sphere_stop = 0.9, 1.3, 1.9
            self.pert_stop, self.pert_stride = 15.0, 8
        else:
            self.curves, self.N_curve, self.N_axis, self.N_pert = 4, 256, 128, 128
            self.curve_stop, self.circle_stop, self.sphere_stop = 0.9, 1.1, 1.3
            self.pert_stop, self.pert_stride = 8.0, 64

    def _configs(self, seed, repeat):
        seeds = _seeds(seed, repeat, self.curves + 1)
        curve_ctl = {"cfl": 0.4, "max_dt": 1e-3, "snapshot_stride": 32}
        configs = []
        for i in range(self.curves):
            configs.append(("random-curve", {
                "engine": "curve", "n": 1, "N": self.N_curve, "t0": -1.0,
                "controls": dict(curve_ctl, stop_rho_plus=self.curve_stop),
                "initial": {"random": {"seed": seeds[i], "modes": 5,
                                       "amplitude": 0.3}}}))
        configs.append(("perturbed-sphere", {
            "engine": "axisym", "n": 2, "N": self.N_pert, "t0": -100.0,
            "controls": {"cfl": 0.4, "max_dt": 1.0, "stop_rho_plus": self.pert_stop,
                         "snapshot_stride": self.pert_stride},
            "initial": {"random": {"seed": seeds[-1], "modes": 4,
                                   "amplitude": 0.05, "radius": 20.0}}}))
        configs.append(("round-circle", {
            "engine": "curve", "n": 1, "N": self.N_curve, "t0": -1.0,
            "controls": dict(curve_ctl, stop_rho_plus=self.circle_stop),
            "initial": {"family": {"kind": "sphere", "t": -1.0}}}))
        configs.append(("round-sphere", {
            "engine": "axisym", "n": 2, "N": self.N_axis, "t0": -1.0,
            "controls": {"cfl": 0.2, "max_dt": 1e-3, "stop_rho_plus": self.sphere_stop,
                         "snapshot_stride": 32},
            "initial": {"family": {"kind": "sphere", "t": -1.0}}}))
        configs.append(("cap", {
            "engine": "cap", "n": 2, "t0": -20.0, "t_stop": -0.1,
            "controls": {"max_dt": 0.05, "stop_rho_plus": 1e-6, "snapshot_stride": 4},
            "cap": {"R": 3.0, "rho0": exact.cap_radius(3.0, 2, -20.0)}}))
        return configs

    def _write_jobs(self, workdir, seed, repeat):
        jobs = []
        for i, (kind, cfg) in enumerate(self._configs(seed, repeat)):
            path = os.path.join(workdir, f"run-{i}.json")
            with open(path, "w") as f:
                json.dump(cfg, f)
            jobs.append((kind, path, os.path.join(workdir, f"run-{i}.jsonl")))
        return jobs

    def setup(self, workdir, seed):
        state = {"workdir": workdir, "seed": seed,
                 "jobs": self._write_jobs(workdir, seed, 0)}
        # warm-up: one tiny round run of each engine kind, outside the job list
        for kind, n, stop in (("curve", 1, 1.35), ("axisym", 2, 1.9)):
            path = os.path.join(workdir, "warm.json")
            with open(path, "w") as f:
                json.dump({"engine": kind, "n": n, "N": 16, "t0": -1.0,
                           "controls": {"stop_rho_plus": stop, "snapshot_stride": 4},
                           "initial": {"family": {"kind": "sphere", "t": -1.0}}}, f)
            if cli.main(["run", "--config", path, "--out", path + "l"]) != 0:
                raise RuntimeError("warm-up run failed")
        return state

    def ops(self, state, repeat):
        # fresh random bodies every repeat: their cost varies with the body
        # (mostly through the recentring LP), so a run averages over many
        jobs = state["jobs"] if repeat == 0 else \
            self._write_jobs(state["workdir"], state["seed"], repeat)
        checks = {"random-curve": _area_law, "perturbed-sphere": _check_volume_law,
                  "round-circle": _check_round(1, 1e-5, 1e-4),
                  "round-sphere": _check_round(2, 1e-4, 1e-3), "cap": _check_cap}
        ops = []
        for kind, cfg, out in jobs:
            argv = ["run", "--config", cfg, "--out", out]
            ops.append(Op(kind, lambda argv=argv: cli.main(argv),
                          _after_run(out, checks[kind])))
        return ops


def _after_run(path, check):
    def after(code):
        _require(code == 0, f"mcfflow run exited {code}")
        return check(trajio.read_trajectory(path))
    return after


def _area_law(traj):
    """Curve shortening: |Omega(t)| = -2 pi t (criterion 4, 1%)."""
    worst = max(abs(geometry.area_and_volume(sl.body)[1] / (-2.0 * math.pi * sl.t) - 1.0)
                for sl in traj.slices)
    _require(worst <= 0.01, f"area law off by {worst:.3g} > 1%")


def _check_round(n, tol, s_ext_tol):
    """Criterion 1: the round run follows R(t) = sqrt(-2 n t); returns the
    larger error as a share of its tolerance."""
    def check(traj):
        if n == 1:
            _area_law(traj)
        errs = [abs(float(np.mean(sl.body.h)) / math.sqrt(-2.0 * n * sl.t) - 1.0)
                for sl in traj.slices if -1.0 <= sl.t <= -0.01]
        _require(len(errs) >= 2, "too few slices in [-1, -0.01]")
        worst = max(errs)
        _require(worst <= tol, f"radius error {worst:.3g} > {tol:g}")
        s_ext_err = abs(traj.meta["s_ext"] - 1.0)
        _require(s_ext_err <= s_ext_tol,
                 f"extinction time {traj.meta['s_ext']!r} not within {s_ext_tol:g} of 1")
        return max(worst / tol, s_ext_err / s_ext_tol)
    return check


def _check_volume_law(traj):
    """Criterion 4: d|Omega|/dt = -int H within 1% on interior slices."""
    ts = traj.times()
    vols = [geometry.area_and_volume(sl.body)[1] for sl in traj.slices]
    _require(len(ts) >= 3, "too few slices")
    for i in range(1, len(ts) - 1):
        field = diagnostics.curvature_field(traj.slices[i])
        lhs = (vols[i + 1] - vols[i - 1]) / (ts[i + 1] - ts[i - 1])
        err = abs(lhs / -field.integrate(field.H) - 1.0)
        _require(err <= 0.01, f"volume law off by {err:.3g} > 1% at t = {ts[i]:.4g}")
    return None


def _check_cap(traj):
    """Criterion 11: the cap ODE against its closed form to 1e-8."""
    R = traj.meta["R"]
    worst = max(abs(sl.body.rho - exact.cap_radius(R, 2, sl.t)) for sl in traj.slices)
    _require(worst <= 1e-8, f"cap radius error {worst:.3g} > 1e-8")
    return None


# ---------------------------------------------------------------------------
# trajectory-analysis: classify, diagnose and rescale one trajectory file
# ---------------------------------------------------------------------------

_DIAG_COLUMNS = ["t", "eps_min", "f0_max", "fsigma_lp", "harnack_min", "typeI",
                 "diam", "rho_minus", "rho_plus", "iso_ratio", "grad_ratio"]
_KEYS = ("iii", "iv", "v", "vi", "vii")


def diagnose_rows(traj, sigma=0.05, p=2.0):
    """The per-slice rows of `mcfflow diagnose`, from public functions."""
    ts = traj.times()
    rows = []
    for i, sl in enumerate(traj.slices):
        field = diagnostics.curvature_field(sl)
        m = geometry.measure(sl.body)
        f0 = flp = eps = None
        if float(np.min(field.H)) > diagnostics.H_FLOOR:
            deficit = diagnostics.umbilic_deficit(sl, sigma)
            f0 = max(0.0, field.ahh_max() - 1.0 / field.n)
            flp = deficit.lp_integral(p) ** (1.0 / p)
            eps = field.eps_min()
        hmin = None
        if 0 < i < len(ts) - 1:
            _, hmin = diagnostics.harnack_quantity(traj, ts[i])
        grad = float(np.max(field.grad_A2 / np.maximum(field.A2, 1e-300) ** 2))
        rows.append([sl.t, eps, f0, flp, hmin,
                     math.sqrt(-sl.t) * float(np.max(field.H)),
                     m.diam, m.rho_minus, m.rho_plus, m.iso_ratio, grad])
    return rows


def analyse(path, outdir):
    """One operation: read the file once, then classify, diagnose, rescale,
    re-check under +-1% gauge shifts, check diameter vs curvature, report."""
    traj = trajio.read_trajectory(path)
    report = analysis.check_conditions(traj)
    rows = diagnose_rows(traj)
    pinching = diagnostics.pinching_report(traj)
    rescaled = analysis.type_two_rescale(traj, 50.0)
    fit = analysis.soliton_proximity(rescaled)
    delta = 0.01 * abs(traj.times()[-1])
    shifted = [analysis.check_conditions(traj.with_time_shift(sgn * delta))
               for sgn in (1.0, -1.0)]
    dc = analysis.diameter_curvature_check(traj)
    trajio.emit_report(report, os.path.join(outdir, "classify.json"))
    trajio.emit_report({"columns": _DIAG_COLUMNS, "rows": rows},
                       os.path.join(outdir, "diagnose.csv"), format="csv")
    trajio.emit_report({"eps_min": pinching.eps_min, "harnack_min": pinching.harnack_min,
                        "typeI_sup": pinching.typeI_sup, "ahh": pinching.ahh,
                        "grad_ratio_max": pinching.grad_ratio_max},
                       os.path.join(outdir, "pinching.json"))
    trajio.emit_report({"t_k": rescaled.t_k, "L_k": rescaled.L_k,
                        "marked_index": rescaled.marked_index,
                        "type_one_like": rescaled.type1_flag,
                        "soliton_residual": fit.residual, "soliton_V": list(fit.V)},
                       os.path.join(outdir, "rescale.json"))
    trajio.emit_report({"diam_verdict": dc.diam_verdict,
                        "curvature_verdict": dc.curvature_verdict,
                        "verdicts_agree": dc.verdicts_agree,
                        "harnack_transfer_max": dc.harnack_transfer_max},
                       os.path.join(outdir, "diameter_curvature.json"))
    return report, shifted, rescaled, fit


def _gauge_stable(report, shifted, keys):
    for rep in shifted:
        for key in keys:
            _require(rep.verdict(key) == report.verdict(key),
                     f"verdict {key} changed under a 1% gauge shift")


def _check_oval(result):
    """Criteria 7 and 10 on the exact oval."""
    report, shifted, rescaled, fit = result
    for key in _KEYS:
        _require(report.verdict(key) in (analysis.GROWING, analysis.VIOLATED),
                 f"oval condition {key} is {report.verdict(key)}")
    _gauge_stable(report, shifted, _KEYS)
    _require(abs(rescaled.L_k - 1.0) <= 0.05, f"L_k {rescaled.L_k:.4g} not within 5% of 1")
    _require(fit.residual <= 0.02, f"soliton residual {fit.residual:.3g} > 0.02")
    return None


def _check_sphere(result):
    """Criterion 7 on the exact 2-sphere; returns the largest pinned error
    as a share of its tolerance."""
    report, shifted, _, _ = result
    keys = ("ii",) + _KEYS
    for key in keys:
        _require(report.verdict(key) == analysis.BOUNDED,
                 f"sphere condition {key} is {report.verdict(key)}")
    _gauge_stable(report, shifted, keys)
    sup = {k: report.conditions[k].sup for k in ("iv", "v", "vi", "vii")}
    errs = {"iv": (abs(sup["iv"] - 1.0), 1e-9), "v": (abs(sup["v"] - 1.0), 1e-12),
            "vi": (abs(sup["vi"] / (36.0 * math.pi) - 1.0), 1e-3),
            "vii": (abs(sup["vii"] - 1.0), 1e-12)}
    for key, (err, tol) in errs.items():
        _require(err <= tol, f"sphere condition {key} sup off by {err:.3g} > {tol:g}")
    return max(err / tol for err, tol in errs.values())


def _check_bounded(result):
    """Criterion 7 on the evolved perturbed sphere: every margin bounded."""
    report, shifted, _, _ = result
    keys = ("ii",) + _KEYS
    for key in keys:
        _require(report.verdict(key) == analysis.BOUNDED,
                 f"perturbed sphere condition {key} is {report.verdict(key)}")
    _gauge_stable(report, shifted, keys)
    return None


PERTURBED = 2  # perturbed spheres per repeat; op_p50_s falls among them


class TrajectoryAnalysis:
    """Measure and classify every slice of four trajectory files."""

    name = "trajectory-analysis"

    def __init__(self, smoke=False):
        if smoke:
            self.N_oval, self.N_sphere, self.N_pert = 64, 32, 32
            self.oval_count, self.sphere_count, self.pert_stride = 12, 12, 16
        else:
            self.N_oval, self.N_sphere, self.N_pert = 128, 64, 64
            self.oval_count, self.sphere_count, self.pert_stride = 40, 16, 64

    def _write_perturbed(self, jobs, seed, repeat):
        """Evolve the perturbed spheres of one repeat into their files."""
        for (_, path, _, _), body_seed in zip(jobs[2:], _seeds(seed, repeat, PERTURBED)):
            base = bodies.random_convex_profile(2, self.N_pert, body_seed, modes=4,
                                                amplitude=0.05, radius=20.0)
            ctl = engine.FlowControls(cfl=0.5, max_dt=1.0, stop_rho_plus=1.0,
                                      snapshot_stride=self.pert_stride)
            trajio.write_trajectory(engine.evolve(base, -100.0, ctl), path)

    def setup(self, workdir, seed):
        oval_t = np.unique(np.concatenate([-np.geomspace(50.0, 0.45, self.oval_count),
                                           [-50.0, -1.0, -0.5]]))
        oval = exact.sample_trajectory(exact.ExactFamily("oval", 1), oval_t, self.N_oval)
        sphere = exact.sample_trajectory(exact.ExactFamily("sphere", 2),
                                         -np.geomspace(100.0, 0.5, self.sphere_count),
                                         self.N_sphere)
        files = [("exact-oval", "oval", oval, _check_oval),
                 ("exact-sphere", "sphere", sphere, _check_sphere)]
        files += [("perturbed-sphere", f"perturbed-{i}", None, _check_bounded)
                  for i in range(PERTURBED)]
        jobs = []
        for label, name, traj, check in files:
            path = os.path.join(workdir, f"{name}.jsonl")
            if traj is not None:
                trajio.write_trajectory(traj, path)
            outdir = os.path.join(workdir, name)
            os.makedirs(outdir, exist_ok=True)
            jobs.append((label, path, outdir, check))
        self._write_perturbed(jobs, seed, 0)
        # warm-up on a small exact sphere, outside the job list
        warm = exact.sample_trajectory(exact.ExactFamily("sphere", 2),
                                       -np.geomspace(100.0, 0.5, 12), 32)
        path = os.path.join(workdir, "warm.jsonl")
        trajio.write_trajectory(warm, path)
        analyse(path, workdir)
        return {"seed": seed, "jobs": jobs}

    def ops(self, state, repeat):
        jobs = state["jobs"]
        if repeat:
            # fresh perturbed spheres every repeat: their cost varies with the body
            self._write_perturbed(jobs, state["seed"], repeat)
        return [Op(kind, lambda p=path, o=outdir: analyse(p, o), check)
                for kind, path, outdir, check in jobs]


# ---------------------------------------------------------------------------
# body-sweep: one geometry.measure per body of the criterion-3 pool
# ---------------------------------------------------------------------------

def _pool_violations(body, m):
    """Criteria 3 and 8 for one body (the acceptance suite's inequalities)."""
    n = body.n
    bad = []
    if not abs(m.w_plus - m.diam) <= 1e-9 * m.diam:
        bad.append("w_plus == diam")
    if not m.rho_plus <= m.w_plus / math.sqrt(2.0) + 1e-9:
        bad.append("rho_plus <= w_plus/sqrt2")
    if not m.rho_minus >= m.w_minus / (n + 2.0) - 1e-9:
        bad.append("rho_minus >= w_minus/(n+2)")
    if not math.sqrt(2.0) * m.rho_plus <= m.diam * (1.0 + 1e-9):
        bad.append("sqrt2 rho_plus <= diam")
    if not m.diam <= m.diam_I * 1.01:
        bad.append("diam <= diam_I")
    if not m.diam_I <= math.pi * m.rho_plus * 1.01:
        bad.append("diam_I <= pi rho_plus")
    scales = (4.0 * math.pi, 8.0 * math.pi) if n == 1 else (36.0 * math.pi, 72.0 * math.pi)
    for c1 in scales:
        if m.iso_ratio <= c1 and \
                not m.rho_plus / m.rho_minus <= geometry.reverse_iso_radius_bound(c1, n) + 1e-9:
            bad.append(f"radius ratio bound at c1 = {c1:.4g}")
    return bad


def _closed_form(n):
    """Measurements of the unit disk (n = 1) and unit 2-ball (n = 2), each
    with its tolerance: lengths to 1e-9; area, volume and iso_ratio to
    1e-12 on the disk and 1e-3 on the ball (pinned as in the geometry and
    IO tests)."""
    area, volume = (2.0 * math.pi, math.pi) if n == 1 else (4.0 * math.pi, 4.0 * math.pi / 3.0)
    content_tol = 1e-12 if n == 1 else 1e-3
    lengths = {"w_minus": 2.0, "w_plus": 2.0, "diam": 2.0, "diam_I": math.pi,
               "rho_minus": 1.0, "rho_plus": 1.0}
    contents = {"area": area, "volume": volume, "iso_ratio": area ** (n + 1) / volume ** n}
    return {**{k: (v, 1e-9) for k, v in lengths.items()},
            **{k: (v, content_tol) for k, v in contents.items()}}


def _check_body(body, reference):
    def check(m):
        bad = _pool_violations(body, m)
        _require(not bad, "violated: " + ", ".join(bad))
        if not reference:
            return None
        got = m.as_dict()
        shares = {k: abs(got[k] / v - 1.0) / tol for k, (v, tol) in _closed_form(body.n).items()}
        bad = [k for k, share in shares.items() if share > 1.0]
        _require(not bad, "off its closed form: " + ", ".join(bad))
        return max(shares.values())
    return check


class BodySweep:
    """Measure each body of a fresh seeded pool exactly once."""

    name = "body-sweep"

    def __init__(self, smoke=False):
        self.curves, self.axisym = (8, 2) if smoke else (80, 20)

    def _pool(self, seed, repeat):
        seeds = _seeds(seed, repeat, self.curves + self.axisym)
        pool = []
        for i in range(self.curves):
            amp = 0.25 + 0.65 * (i % 10) / 10.0
            pool.append((bodies.random_convex_curve(96, seeds[i], amplitude=amp), False))
        for i in range(self.axisym):
            amp = 0.25 + 0.65 * (i % 8) / 8.0
            body = bodies.random_convex_profile(2, 64, seeds[self.curves + i], amplitude=amp)
            pool.append((body, False))
        pool.append((bodies.SupportProfile("curve", 1, np.full(96, 1.0)), True))
        pool.append((bodies.SupportProfile("axisym", 2, np.full(65, 1.0)), True))
        return pool

    def setup(self, workdir, seed):
        pool = self._pool(seed, 0)
        geometry.measure(bodies.random_convex_curve(32, seed))  # warm-up
        geometry.measure(bodies.random_convex_profile(2, 32, seed))
        return {"seed": seed, "pool": pool}

    def ops(self, state, repeat):
        # fresh bodies every repeat, so each body is measured exactly once
        pool = state["pool"] if repeat == 0 else self._pool(state["seed"], repeat)
        return [Op("reference" if ref else body.mode,
                   lambda b=body: geometry.measure(b), _check_body(body, ref))
                for body, ref in pool]


WORKLOADS = {w.name: w for w in (FlowRun, TrajectoryAnalysis, BodySweep)}
