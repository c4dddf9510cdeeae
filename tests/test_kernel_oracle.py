"""The buffered RK4 kernel against a frozen allocating copy, bit for bit.

The oracle below is the engine's right-hand side and RK4 step written as
allocating formulas: every stencil pads its input by concatenation and sums
its five weighted samples left to right (`oracles.stencil_weights`, the
weights that make mode 1 exact), every stage and combination allocates.  On
random curves and axisymmetric profiles the kernel must give the same k,
h'' + h and new h to the last bit, a stage that raises must leave its state
untouched, and the snapshots `evolve` returns must own their memory.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcfflow import bodies, engine
from mcfflow.bodies import MODE_CURVE
from oracles import five_point, stencil_weights

PROPERTY = settings(max_examples=10, derandomize=True, database=None, deadline=None)
SHAPES = [("curve", 1, 16), ("curve", 1, 64), ("curve", 1, 256),
          ("axisym", 2, 32), ("axisym", 3, 32), ("axisym", 5, 32),
          # the trajectory-analysis and flow-run sizes
          ("axisym", 2, 64), ("axisym", 2, 128)]
SHAPE_IDS = [f"{mode}-n{n}-N{N}" for mode, n, N in SHAPES]


# ---------------------------------------------------------------------------
# the frozen oracle
# ---------------------------------------------------------------------------

def _pad2(mode, h):
    if mode == MODE_CURVE:
        return np.concatenate([h[-2:], h, h[:2]])
    return np.concatenate([h[2:0:-1], h, h[-2:-4:-1]])


def _shifted(mode, h):
    e = _pad2(mode, h)
    return e[:-4], e[1:-3], e[2:-2], e[3:-1], e[4:]


def _rho_4(mode, h, dx):
    return five_point(_shifted(mode, h), stencil_weights(dx)[0])


def _d1_4(mode, h, dx):
    return five_point(_shifted(mode, h), stencil_weights(dx)[1])


def _oracle_rhs(body, x):
    """(k, rho) of the samples x, or the stage error the engine raises."""
    dx = body.step
    rho = _rho_4(body.mode, x, dx)
    if not rho.min() > 0.0:
        raise engine.ConvexityLostError("h'' + h <= 0 inside a stage")
    if body.mode == MODE_CURVE:
        return -1.0 / rho, rho
    phi = body.angles()
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    r = x * sin_phi + _d1_4(body.mode, x, dx) * cos_phi
    if not r[1:-1].min() > 0.0:
        raise engine.PoleSingularityError("profile touched the axis at an interior node")
    kappa1 = 1.0 / rho
    kappa2 = kappa1.copy()
    kappa2[1:-1] = sin_phi[1:-1] / r[1:-1]
    return -(kappa1 + (body.n - 1) * kappa2), rho


def _oracle_rk4(body, h, dt, k1):
    rhs = lambda x: _oracle_rhs(body, x)
    k2, _ = rhs(h + 0.5 * dt * k1)
    k3, _ = rhs(h + 0.5 * dt * k2)
    k4, _ = rhs(h + dt * k3)
    out = h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out, rhs(out)


def _oracle_dt_bound(rho, dtheta, cfl):
    kmax = float((1.0 / rho).max())
    return cfl * dtheta * dtheta / (kmax * kmax)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def _body(shape, seed):
    mode, n, N = shape
    if mode == MODE_CURVE:
        return bodies.random_convex_curve(N, seed, amplitude=0.5)
    return bodies.random_convex_profile(n, N, seed, amplitude=0.3)


class _FailAt:
    """The engine's stencil `name`, failing its stage on call number `at`."""

    def __init__(self, name, at):
        self.stencil, self.at, self.calls = getattr(bodies, name), at, 0

    def __call__(self, pad):
        self.calls += 1
        if self.calls >= self.at:
            return np.full(len(pad.x), np.nan)
        return self.stencil(pad)


@contextlib.contextmanager
def _recorded_kernels():
    """The kernels `evolve` builds while the context is open."""
    kernels = []

    class Recorded(engine._Kernel):
        def __init__(self, profile):
            super().__init__(profile)
            kernels.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_Kernel", Recorded)
        yield kernels


def _failing_name(body):
    return "d2_periodic4" if body.mode == MODE_CURVE else "d2_reflect4"


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
@PROPERTY
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.05, 1.0))
def test_kernel_step_equals_the_oracle(shape, seed, frac):
    body = _body(shape, seed)
    kernel = engine._Kernel(body)
    kernel.reset(body.h)
    k1, rho = _oracle_rhs(body, body.h)
    assert np.array_equal(kernel.h, body.h)
    assert np.array_equal(kernel.k, k1) and np.array_equal(kernel.rho, rho)
    bound = _oracle_dt_bound(rho, body.step, 0.4)
    assert kernel.dt_bound(0.4) == bound
    dt = frac * bound
    h, (k, rho) = _oracle_rk4(body, body.h, dt, k1)
    kernel.step(dt)
    assert np.array_equal(kernel.h, h)
    assert np.array_equal(kernel.k, k) and np.array_equal(kernel.rho, rho)
    assert kernel.dt_bound(0.4) == _oracle_dt_bound(rho, body.step, 0.4)


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
@PROPERTY
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.05, 1.0))
def test_kmax_is_the_largest_profile_curvature(shape, seed, frac):
    # kmax is 1 over the min h'' + h of the last stage's check, which must be
    # max 1/rho to the last bit, after a reset and after a step
    body = _body(shape, seed)
    kernel = engine._Kernel(body)
    kernel.reset(body.h)
    assert kernel.kmax == float(np.max(1.0 / kernel.rho))
    kernel.step(frac * kernel.dt_bound(0.4))
    assert kernel.kmax == float(np.max(1.0 / kernel.rho))


@pytest.mark.parametrize("N", [16, 32, 64, 128])
@PROPERTY
@given(st.integers(0, 2 ** 31 - 1))
def test_d1_after_d2_reads_the_ghosts_d2_filled(N, seed):
    # d1_reflect4 fills no ghosts: after d2_reflect4 on new samples it must
    # give the concatenated stencil of those samples, whatever the ghosts held
    body = _body(("axisym", 2, N), seed)
    rng = np.random.default_rng(seed)
    pad = bodies.Pad4(body.h, body.step)
    pad.e[:] = rng.normal(size=len(pad.e))  # stale ghosts and samples
    pad.x[:] = body.h
    rho = bodies.d2_reflect4(pad)
    d1 = bodies.d1_reflect4(pad)
    assert np.array_equal(rho, _rho_4(body.mode, body.h, body.step))
    assert np.array_equal(d1, _d1_4(body.mode, body.h, body.step))


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
@PROPERTY
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4))
def test_failed_stage_leaves_the_state(shape, seed, stage):
    body = _body(shape, seed)
    kernel = engine._Kernel(body)
    kernel.reset(body.h)
    kernel.step(0.5 * kernel.dt_bound(0.4))
    before = [a.copy() for a in (kernel.h, kernel.k, kernel.rho)]
    kmax = kernel.kmax
    failing = _FailAt(_failing_name(body), stage)
    kernel._d2 = failing
    with pytest.raises(engine.ConvexityLostError):
        kernel.step(0.5 * kernel.dt_bound(0.4))
    assert failing.calls == stage
    for got, want in zip((kernel.h, kernel.k, kernel.rho), before):
        assert np.array_equal(got, want)
    assert kernel.kmax == kmax


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
@settings(max_examples=4, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(3, 40))
def test_step_failure_reports_the_starting_state(shape, seed, at):
    # every stage from call `at` on fails: the run aborts at the step that
    # started from the kernel's last state, and reports that state's h'' + h
    body = _body(shape, seed)
    controls = engine.FlowControls(cfl=0.4, max_dt=1e-2, stop_rho_plus=0.01)
    with _recorded_kernels() as kernels, pytest.MonkeyPatch.context() as mp:
        name = _failing_name(body)
        mp.setattr(engine, name, _FailAt(name, at))
        with pytest.raises(engine.StepFailedError) as info:
            engine.evolve(body, -1.0, controls)
    kernel, = kernels
    _, rho = _oracle_rhs(body, kernel.h)
    assert np.array_equal(kernel.rho, rho)
    assert info.value.min_rho == float(np.min(rho))
    assert info.value.check == "ConvexityLostError"


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
@settings(max_examples=2, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_evolve_snapshots_own_their_memory(shape, seed):
    body = _body(shape, seed)
    controls = engine.FlowControls(cfl=0.4, max_dt=1e-2, snapshot_stride=4,
                                   stop_rho_plus=0.97 * float(np.max(body.h)))
    with _recorded_kernels() as kernels:
        traj = engine.evolve(body, -1.0, controls)
    assert len(traj.slices) >= 2
    kernel, = kernels
    buffers = [a for obj in (kernel, kernel.pad) for a in vars(obj).values()
               if isinstance(a, np.ndarray)]
    arrays = [sl.body.h for sl in traj.slices]
    for i, h in enumerate(arrays):
        assert not any(np.shares_memory(h, b) for b in buffers)
        assert not any(np.shares_memory(h, other) for other in arrays[i + 1:])
