"""`evolve` against a copy of its pre-reuse loop, bit for bit.

The copy below is the stepping loop as it was before the post-step check
was reused as the next step's first stage: `np.roll` stencils for curves,
allocating padded stencils for axisym profiles, six stencil evaluations
per accepted step, and a fresh stability bound from its own stencil every
step.  Its stencils sum the engine's weights (`oracles.stencil_weights`)
left to right; the h'' stencils give h'' + h.  Both loops run the same
bodies with the same forced stage failure, and every state they recentre or
emit must match exactly.
"""

import collections
import math

import numpy as np
import pytest

from mcfflow import bodies, engine
from mcfflow.bodies import MODE_CURVE, NonConvexBodyError
from oracles import five_point, stencil_weights


def _roll_d2_periodic4(h, dx):
    shifted = [np.roll(h, 2 - i) for i in range(5)]
    return five_point(shifted, stencil_weights(dx)[0])


def _reflect_shifted(h):
    e = np.concatenate([h[2:0:-1], h, h[-2:-4:-1]])
    return e[:-4], e[1:-3], e[2:-2], e[3:-1], e[4:]


def _concat_d2_reflect4(h, dx):
    return five_point(_reflect_shifted(h), stencil_weights(dx)[0])


def _concat_d1_reflect4(h, dx):
    return five_point(_reflect_shifted(h), stencil_weights(dx)[1])


def _old_rhs(x, mode, n, dtheta, trig, d2):
    rho = d2(x, dtheta)
    if np.min(rho) <= 0.0:
        raise engine.ConvexityLostError("h'' + h <= 0 inside a stage")
    if mode == MODE_CURVE:
        return -1.0 / rho, rho
    phi, sin_phi, cos_phi = trig
    hp = _concat_d1_reflect4(x, dtheta)
    r = x * sin_phi + hp * cos_phi
    if np.min(r[1:-1]) <= 0.0:
        raise engine.PoleSingularityError("profile touched the axis")
    kappa1 = 1.0 / rho
    kappa2 = np.empty_like(x)
    kappa2[1:-1] = sin_phi[1:-1] / r[1:-1]
    kappa2[0] = kappa1[0]
    kappa2[-1] = kappa1[-1]
    return -(kappa1 + (n - 1) * kappa2), rho


def _old_evolve(initial, controls, d2):
    """The old loop; returns (records, accepted, recentres, retries)."""
    mode, n = initial.mode, initial.n
    h = np.array(initial.h, dtype=float)
    angles = initial.angles()
    dtheta = initial.step
    rho_min = float(np.min(d2(h, dtheta)))
    if -1e-12 * max(1.0, np.max(h)) < rho_min <= 0.0:
        h = h + (abs(rho_min) + 1e-15 * np.max(h))
    trig = (angles, np.sin(angles), np.cos(angles))
    rhs = lambda x: _old_rhs(x, mode, n, dtheta, trig, d2)

    def stability_dt(x):
        rho = d2(x, dtheta)
        kmax = float(np.max(1.0 / rho))
        return controls.cfl * dtheta * dtheta / (kmax * kmax)

    def step(x, dt):
        k1, _ = rhs(x)
        k2, _ = rhs(x + 0.5 * dt * k1)
        k3, _ = rhs(x + 0.5 * dt * k2)
        k4, _ = rhs(x + dt * k3)
        out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rhs(out)
        return out

    shift = np.zeros(2) if mode == MODE_CURVE else 0.0
    s = 0.0
    records = []

    def emit():
        hc, extra = bodies.recentre(mode, h)
        records.append((s, hc, shift + extra))

    emit()
    accepted = recentres = retries = 0
    while True:
        attempt = min(controls.max_dt, stability_dt(h))
        for _ in range(21):
            try:
                h_new = step(h, attempt)
                break
            except (engine.ConvexityLostError, engine.PoleSingularityError):
                retries += 1
                attempt *= 0.5
        h = h_new
        s += attempt
        accepted += 1
        if np.min(h) < 0.25 * np.max(h):
            h, extra = bodies.recentre(mode, h)
            shift = shift + extra
            recentres += 1
        if accepted % controls.snapshot_stride == 0:
            emit()
            if np.max(records[-1][1]) < controls.stop_rho_plus:
                break
    if records[-1][0] != s:
        emit()
    return records, accepted, recentres, retries


def _non_convex(h):
    return -2.0 * h - 1.0


def _nan(h):
    return np.full_like(h, np.nan)


class _Poison:
    """Wraps an h'' + h stencil; on one given input it returns a negative
    value, so that stage fails and the step is retried.  Called as the old
    loop's stencil, d2(h, dx), or through `on_pad` as the engine's, d2(pad)
    on the samples pad.x."""

    def __init__(self, d2, target=None, value=_non_convex):
        self.d2, self.target, self.value = d2, target, value
        self.inputs, self.fired, self.calls = [], 0, 0

    def _fires(self, h):
        self.calls += 1
        if self.target is None:
            self.inputs.append(h.copy())
        elif np.array_equal(h, self.target):
            self.fired += 1
            return True
        return False

    def __call__(self, h, dx):
        return self.value(h) if self._fires(h) else self.d2(h, dx)

    def on_pad(self, pad):
        return self.value(pad.x) if self._fires(pad.x) else self.d2(pad)


def _check_bit_identical(monkeypatch, body, controls, d2_old, d2_name):
    # find the second-stage input of step 5 in an undisturbed run of the old loop
    probe = _Poison(d2_old)
    _, steps, _, retries = _old_evolve(body, controls, probe)
    assert retries == 0 and len(probe.inputs) == 1 + 6 * steps
    target = probe.inputs[1 + 6 * 5 + 2]

    seen = []
    recenter = bodies.recentre
    def recorded(mode, h):
        seen[-1].append(h.copy())
        return recenter(mode, h)
    monkeypatch.setattr(bodies, "recentre", recorded)
    monkeypatch.setattr(engine, "recentre", recorded)

    seen.append([])
    old_poison = _Poison(d2_old, target)
    records, accepted, recentres, retries = _old_evolve(body, controls, old_poison)
    assert old_poison.fired == 1 and retries == 1 and recentres >= 1

    seen.append([])
    new_poison = _Poison(getattr(bodies, d2_name), target)
    monkeypatch.setattr(engine, d2_name, new_poison.on_pad)
    traj = engine.evolve(body, -1.0, controls)
    assert new_poison.fired == 1

    # every recentred or emitted state, in order: one per accepted step
    assert len(seen[0]) == len(seen[1]) == accepted + 1 + recentres
    assert all(np.array_equal(a, b) for a, b in zip(*seen))
    assert traj.meta["accepted_steps"] == accepted
    s_ext = traj.meta["s_ext"]
    assert len(traj.slices) == len(records)
    for sl, (s, hc, shift) in zip(traj.slices, records):
        assert sl.t == s - s_ext
        assert np.array_equal(sl.body.h, hc)
        assert np.array_equal(sl.shift, shift)
    # 4 stencil evaluations per accepted step, plus the projection test,
    # the first stage, one per recentre and the failed stage
    assert new_poison.calls == 2 + 4 * accepted + recentres + 1


def test_curve_run_matches_old_loop(monkeypatch):
    # off-centre start: the first steps recentre the body
    body = bodies.random_convex_curve(64, 5, amplitude=0.4).translated([0.7, 0.2])
    controls = engine.FlowControls(cfl=0.4, max_dt=1e-2, stop_rho_plus=0.3,
                                   snapshot_stride=1)
    _check_bit_identical(monkeypatch, body, controls, _roll_d2_periodic4, "d2_periodic4")


def test_perturbed_sphere_run_matches_old_loop(monkeypatch):
    base = bodies.random_convex_profile(2, 32, seed=42, modes=4, amplitude=0.05)
    body = base.translated(0.5)
    controls = engine.FlowControls(cfl=0.2, max_dt=1e-2, stop_rho_plus=0.4,
                                   snapshot_stride=1)
    _check_bit_identical(monkeypatch, body, controls, _concat_d2_reflect4, "d2_reflect4")


def _poisoned_run(monkeypatch, body, controls, name, target, value):
    """evolve with the engine's stencil `name` poisoned on one stage input."""
    poison = _Poison(getattr(bodies, name), target, value)
    monkeypatch.setattr(engine, name, poison.on_pad)
    traj = engine.evolve(body, -1.0, controls)
    monkeypatch.undo()
    assert poison.fired == 1
    return traj


@pytest.mark.parametrize("mode", ["curve", "axisym"])
def test_non_finite_stage_is_retried_like_a_non_convex_one(monkeypatch, mode):
    # a NaN in h'' + h (or, axisym, in the axis distance r) fails its stage
    # check, so the run equals the run whose stage was made non-convex
    if mode == "curve":
        body = bodies.random_convex_curve(64, 5, amplitude=0.4).translated([0.7, 0.2])
        d2_old, d2_name, nan_names = _roll_d2_periodic4, "d2_periodic4", ["d2_periodic4"]
    else:
        body = bodies.random_convex_profile(2, 32, seed=42, modes=4,
                                            amplitude=0.05).translated(0.5)
        d2_old, d2_name = _concat_d2_reflect4, "d2_reflect4"
        nan_names = ["d2_reflect4", "d1_reflect4"]
    controls = engine.FlowControls(cfl=0.3, max_dt=1e-2, stop_rho_plus=0.4,
                                   snapshot_stride=1)
    probe = _Poison(d2_old)
    _old_evolve(body, controls, probe)
    target = probe.inputs[1 + 6 * 5 + 2]
    ref = _poisoned_run(monkeypatch, body, controls, d2_name, target, _non_convex)
    for name in nan_names:
        traj = _poisoned_run(monkeypatch, body, controls, name, target, _nan)
        assert traj.meta["accepted_steps"] == ref.meta["accepted_steps"]
        assert traj.meta["s_ext"] == ref.meta["s_ext"]
        assert len(traj.slices) == len(ref.slices)
        for a, b in zip(traj.slices, ref.slices):
            assert a.t == b.t
            assert np.array_equal(a.body.h, b.body.h)
            assert np.array_equal(a.shift, b.shift)


def test_step_failure_carries_diagnostics(monkeypatch):
    body = bodies.random_convex_curve(32, 3, amplitude=0.3)
    controls = engine.FlowControls(cfl=0.4, max_dt=1e-2, stop_rho_plus=0.3)
    calls = []

    def failing(pad):  # every stage after the first one fails
        calls.append(1)
        if len(calls) <= 2:
            return bodies.d2_periodic4(pad)
        return _non_convex(pad.x)

    monkeypatch.setattr(engine, "d2_periodic4", failing)
    with pytest.raises(engine.StepFailedError) as info:
        engine.evolve(body, -1.0, controls)
    err = info.value
    rho = _roll_d2_periodic4(body.h, body.step)
    kmax = float((1.0 / rho).max())
    dt0 = min(controls.max_dt, controls.cfl * body.step * body.step / (kmax * kmax))
    assert err.s == 0.0
    assert err.check == "ConvexityLostError"
    assert err.dt == dt0 / 2.0 ** 20
    assert err.min_rho == float(np.min(rho))
    assert str(err) == (f"step rejected 21 times at s = 0 (dt down to "
                        f"{dt0 / 2.0 ** 20:.3e}): h'' + h <= 0 inside a stage")


@pytest.mark.parametrize("mode", ["curve", "axisym"])
def test_an_accepted_step_costs_four_stencil_calls(monkeypatch, mode):
    # the benchmark's engine.stencil_evals_per_step, pinned here: the h'' + h
    # stencil runs 4 times per accepted step, once more per recentre (each
    # resets the kernel), and twice before the first step
    if mode == "curve":
        body = bodies.random_convex_curve(64, 1).translated([0.5, 0.3])
    else:
        body = bodies.random_convex_profile(2, 32, 5, amplitude=0.1).translated(0.5)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("d2_periodic4", "d2_reflect4"):
        monkeypatch.setattr(engine, name, counted(name, getattr(engine, name)))
    monkeypatch.setattr(engine._Kernel, "reset", counted("reset", engine._Kernel.reset))
    traj = engine.evolve(body, -1.0, engine.FlowControls(stop_rho_plus=0.2))
    steps, recentres = traj.meta["accepted_steps"], calls.pop("reset") - 1
    assert steps >= 200 and recentres >= 1
    assert list(calls) == ["d2_periodic4" if mode == "curve" else "d2_reflect4"]
    assert (calls.total() - recentres) / steps == pytest.approx(4.0, abs=0.05)


def test_initial_body_failing_four_point_test_is_rejected():
    # passes the 3-point validation, fails the engine's 4-point stencil
    theta = np.arange(64) * (2.0 * math.pi / 64)
    vertices = np.array([[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8]])
    h = np.max(vertices @ np.vstack([np.cos(theta), np.sin(theta)]), axis=0) + 0.05
    body = bodies.SupportProfile("curve", 1, h)
    with pytest.raises(NonConvexBodyError, match="4-point"):
        engine.evolve(body, -1.0, engine.FlowControls())
