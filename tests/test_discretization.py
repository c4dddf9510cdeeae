"""The support grid's discretization, defined once in `bodies`: the boundary
extension of the samples, the weights of the 4th-order stencils, the
trapezoid weights and the pole limit of the azimuthal curvature."""

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


@pytest.mark.parametrize("N", [8, 32, 256, 1024, 16384])
def test_stencil_weights_are_the_five_point_ones_exact_on_mode_1(N):
    d = 2.0 * math.pi / N
    pad = bodies.Pad4(np.ones(N), d)
    # -1/(32 cos d - 2 cos 2d - 30) as written loses digits to cancellation;
    # its factor is 1/(12 d^2) (1 + O(d^4)), and h' has 1/(12 d) (1 + O(d^4))
    literal = -1.0 / (32.0 * math.cos(d) - 2.0 * math.cos(2.0 * d) - 30.0)
    d2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])
    assert np.allclose(pad.w_rho - [0, 0, 1, 0, 0], literal * d2, rtol=1e-15 / d ** 2, atol=0)
    assert np.allclose(pad.w_rho - [0, 0, 1, 0, 0], d2 / (12 * d * d), rtol=d ** 4, atol=0)
    assert np.allclose(pad.w_d1, np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12 * d),
                       rtol=d ** 4, atol=0)
    # h'' + h annihilates cos and sin, and h' maps cos to -sin, to rounding
    theta = np.arange(-2, N + 2) * d
    for f, df in ((np.cos(theta), -np.sin(theta)), (np.sin(theta), np.cos(theta))):
        scale = 4 * np.finfo(float).eps * np.sum(np.abs(pad.w_rho))
        assert np.max(np.abs(np.correlate(f, pad.w_rho, "valid"))) <= scale
        assert np.allclose(np.correlate(f, pad.w_d1, "valid"), df[2:-2], rtol=0,
                           atol=4 * np.finfo(float).eps * np.sum(np.abs(pad.w_d1)))


@pytest.mark.parametrize("seed", SEEDS)
def test_stencils_fill_the_ghosts_and_stay_fourth_order(seed):
    # a random trig polynomial with modes 0..4 on both grids: the stencils
    # read the ghosts their grid's rule fills, with error O(d^4)
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=5), rng.normal(size=5)
    m = np.arange(5)
    errs = {}
    for N in (64, 128):
        t = bodies.sample_angles(MODE_CURVE, N)
        C, S = np.cos(np.outer(t, m)), np.sin(np.outer(t, m))
        rho = C @ ((1 - m * m) * a) + S @ ((1 - m * m) * b)
        errs["curve", N] = np.max(np.abs(bodies.d2_periodic4(bodies.Pad4(C @ a + S @ b, t[1]))
                                         - rho))
        phi = bodies.sample_angles(MODE_AXISYM, N + 1)
        C, S = np.cos(np.outer(phi, m)), np.sin(np.outer(phi, m))
        pad = bodies.Pad4(C @ a, phi[1])
        errs["rho", N] = np.max(np.abs(bodies.d2_reflect4(pad) - C @ ((1 - m * m) * a)))
        errs["d1", N] = np.max(np.abs(bodies.d1_reflect4(pad) + S @ (m * a)))
    for kind in ("curve", "rho", "d1"):
        assert errs[kind, 64] / errs[kind, 128] > 14.0, kind


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
    kappa2 = azimuthal_curvature(kappa1, sin_phi, r, np.empty_like(kappa1))
    assert kappa2[0] == kappa1[0] and kappa2[-1] == kappa1[-1]
    assert np.array_equal(kappa2[1:-1], sin_phi[1:-1] / r[1:-1])


def test_pole_limit_is_continuous_on_the_round_sphere():
    body = SupportProfile(MODE_AXISYM, 2, np.full(33, 2.0))
    kappa1 = 1.0 / body.curvature_radius()
    kappa2 = azimuthal_curvature(kappa1, np.sin(body.angles()), body.axis_distance(),
                                 np.empty_like(kappa1))
    assert np.allclose(kappa2, 0.5, rtol=1e-12, atol=0.0)
