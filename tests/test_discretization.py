"""The support grid's discretization, defined once in `bodies`: the boundary
extension of the samples, the trapezoid weights and the pole limit of the
azimuthal curvature."""

import math

import numpy as np
import pytest

from mcfflow import bodies
from mcfflow.bodies import MODE_AXISYM, MODE_CURVE, SupportProfile, _pad, azimuthal_curvature

SEEDS = range(6)


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("seed", SEEDS)
def test_pad_extends_by_the_index_formulas(seed, width):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(16, 48))
    # curve grid: periodic, e[j] = h[j mod N]
    h = rng.normal(size=N)
    expected = [h[j % N] for j in range(-width, N + width)]
    assert np.array_equal(_pad(MODE_CURVE, h, width), expected)
    # axisym grid h[0..N]: even about both poles, h[-j] = h[j], h[N+j] = h[N-j]
    h = rng.normal(size=N + 1)
    expected = [h[abs(j)] if j <= N else h[2 * N - j] for j in range(-width, N + 1 + width)]
    assert np.array_equal(_pad(MODE_AXISYM, h, width), expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_weights_are_the_trapezoid_rule(seed):
    rng = np.random.default_rng(seed)
    N = 2 * int(rng.integers(8, 100))
    curve = bodies.random_convex_curve(N, seed)
    w = curve.weights()
    assert np.all(w == curve.step)
    assert w.sum() == pytest.approx(2.0 * math.pi, rel=1e-15, abs=0.0)
    profile = bodies.random_convex_profile(2, N + 1, seed)
    w = profile.weights()
    assert w[0] == w[-1] == 0.5 * profile.step
    assert np.all(w[1:-1] == profile.step)
    assert w.sum() == pytest.approx(math.pi, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_pole_limit_is_the_profile_curvature(seed):
    body = bodies.random_convex_profile(3, 40 + seed, seed)
    kappa1 = 1.0 / body.curvature_radius()
    sin_phi = np.sin(body.angles())
    r = body.axis_distance()
    kappa2 = azimuthal_curvature(kappa1, sin_phi, r)
    assert kappa2[0] == kappa1[0] and kappa2[-1] == kappa1[-1]
    assert np.array_equal(kappa2[1:-1], sin_phi[1:-1] / r[1:-1])


def test_pole_limit_is_continuous_on_the_round_sphere():
    body = SupportProfile(MODE_AXISYM, 2, np.full(33, 2.0))
    kappa1 = 1.0 / body.curvature_radius()
    kappa2 = azimuthal_curvature(kappa1, np.sin(body.angles()), body.axis_distance())
    assert np.allclose(kappa2, 0.5, rtol=1e-12, atol=0.0)
