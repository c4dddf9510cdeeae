"""One cache per body; the array-evaluated grid stage of the widths and the
diameter against the scalar per-direction search it replaced; the batched
Newton refinement against bounded Brent on the scalar twins it replaced;
the number of interpolant calls one measurement makes; and the inverse-FFT
grid evaluation against the direct sum of the series."""

import math

import numpy as np
import pytest
from scipy import optimize

from mcfflow import analysis, bodies, diagnostics as dg, exact, geometry

# random curves whose two largest width humps are nearly tied on the grid;
# refining only the grid argmax once returned the smaller hump here: for
# w_plus alone on the first three (w_plus < diam), for w_plus and diam alike
# on the last (both 2.0210564 against 2.0210584)
NEAR_TIES = [(610998862, 0.25), (675696264, 0.575), (485992986, 0.64), (795, 0.575)]


def _pool(count=200):
    """Criterion-3 pool bodies: 4/5 plane curves, 1/5 axisymmetric."""
    curves = count * 4 // 5
    pool = [bodies.random_convex_curve(96, seed=s, amplitude=0.25 + 0.65 * (s % 10) / 10.0)
            for s in range(curves)]
    pool += [bodies.random_convex_profile(2, 64, seed=s, amplitude=0.25 + 0.65 * (s % 8) / 8.0)
             for s in range(count - curves)]
    return pool


def _scalar_reference(body):
    """(w_minus, w_plus, diam) by the per-direction scalar search: one
    interpolant call per grid point, refinement around the grid argmax and
    argmin only."""
    interp = body.interpolator()
    if body.mode == "curve":
        grid = body.angles()
        w = lambda t: interp(t) + interp(t + math.pi)

        def chord(t):
            return math.hypot(interp(t) + interp(t + math.pi),
                              interp.derivative(t) + interp.derivative(t + math.pi))
    else:
        grid = np.linspace(0.0, math.pi / 2.0, 2 * body.N + 1)
        w = lambda t: interp(t) + interp(math.pi - t)

        def chord(t):
            s = math.pi - t
            h1, h2 = interp(t), interp(s)
            d1, d2 = interp.derivative(t), interp.derivative(s)
            x1 = h1 * math.cos(t) - d1 * math.sin(t)
            r1 = h1 * math.sin(t) + d1 * math.cos(t)
            x2 = h2 * math.cos(s) - d2 * math.sin(s)
            r2 = h2 * math.sin(s) + d2 * math.cos(s)
            return math.hypot(x1 - x2, r1 + r2)
    step = grid[1] - grid[0]

    def refine(fn, center, sign):
        res = optimize.minimize_scalar(lambda t: sign * fn(t),
                                       bounds=(center - step, center + step),
                                       method="bounded", options={"xatol": 1e-13})
        return sign * float(res.fun)

    wv = np.array([w(t) for t in grid])
    cv = np.array([chord(t) for t in grid])
    w_minus = min(refine(w, grid[int(np.argmin(wv))], 1.0), float(np.min(wv)))
    w_plus = max(refine(w, grid[int(np.argmax(wv))], -1.0), float(np.max(wv)))
    diam = max(refine(chord, grid[int(np.argmax(cv))], -1.0), float(np.max(cv)))
    return w_minus, w_plus, diam


def _antipode(body, t):
    return t + math.pi if body.mode == "curve" else math.pi - t


def _two_path_extremum(body, fn, vals, sign):
    """The search as it was with a scalar twin of each quantity: vals holds
    the array path on the grid, fn the scalar path, which ranks the
    rounding-level ties of the best grid point and is what Brent refines."""
    grid = geometry._search_grid(body)
    v = sign * vals
    best = float(np.min(v))
    ties = np.flatnonzero(v <= best + geometry._ROUND_RTOL * abs(best))
    if len(ties) > geometry._MAX_TIES:
        starts = [int(np.argmin(v))]
    else:
        starts = [int(ties[np.argmin([sign * fn(grid[i]) for i in ties])])]
        e = (np.concatenate([v[-1:], v, v[:1]]) if body.mode == "curve"
             else np.concatenate([v[1:2], v, v[-2:-1]]))
        lo, hi = np.minimum(e[:-2], e[2:]), np.maximum(e[:-2], e[2:])
        humps = (v <= lo) & (v - (hi - v) <= best)
        humps[ties] = False
        starts += np.flatnonzero(humps).tolist()
    step = grid[1] - grid[0]
    f = lambda t: sign * fn(t)
    found = []
    for i in starts:
        t = grid[i]
        res = optimize.minimize_scalar(f, bounds=(t - step, t + step), method="bounded",
                                       options={"xatol": 1e-13})
        found += [(float(res.fun), float(res.x)), (f(t), float(t))]
    return sign * min(found)[0]


def _chord(mode, h1, h2, d1, d2, t, s, xp):
    """Distance between the contact points of the normal angles t and s;
    xp is math (scalars) or numpy (arrays)."""
    if mode == "curve":
        return xp.hypot(h1 + h2, d1 + d2)
    x1 = h1 * xp.cos(t) - d1 * xp.sin(t)
    r1 = h1 * xp.sin(t) + d1 * xp.cos(t)
    x2 = h2 * xp.cos(s) - d2 * xp.sin(s)
    r2 = h2 * xp.sin(s) + d2 * xp.cos(s)
    return xp.hypot(x1 - x2, r1 + r2)


def _two_path_reference(body):
    """(w_minus, w_plus, diam) with the scalar twins: two interpolant calls
    per width, and a math-module chord from four single-angle calls."""
    interp = body.interpolator()
    width = lambda t: interp(t) + interp(_antipode(body, t))

    def chord(t):
        s = _antipode(body, t)
        return _chord(body.mode, interp(t), interp(s), interp.derivative(t),
                      interp.derivative(s), t, s, math)

    grid = geometry._search_grid(body)
    s = _antipode(body, grid)
    both = np.concatenate([grid, s])
    h, d = interp(both), interp.derivative(both)
    m = len(grid)
    chords = _chord(body.mode, h[:m], h[m:], d[:m], d[m:], grid, s, np)
    widths = width(grid)
    return (_two_path_extremum(body, width, widths, 1.0),
            _two_path_extremum(body, width, widths, -1.0),
            _two_path_extremum(body, chord, chords, -1.0))


def _oval_slices():
    """Elongated ovals on three grids."""
    return [exact.angenent_oval_slice(t, N) for t in (-0.5, -3.0, -11.74, -20.0, -50.0)
            for N in (64, 128, 256)]


def _single_path_bodies(ovals):
    """The criterion-3 pool, the near ties, fine curves, n = 3 profiles,
    the ovals, the disk and the ball."""
    out = _pool()
    out += [bodies.random_convex_curve(96, s, amplitude=a) for s, a in NEAR_TIES]
    out += [bodies.random_convex_curve(256, seed=s) for s in range(5)]
    out += [bodies.random_convex_profile(3, 64, seed=s) for s in range(5)]
    out += ovals
    out += [exact.sphere_slice(1, -1.0, 64), exact.sphere_slice(2, -1.0, 64)]
    return out


def _chord_and_slope(body, t):
    """(C, dC/dt) of the antipodal chord at the normal angle t, from the
    interpolant's exact derivatives: W' keeps the Nyquist mode, as W does,
    and D' drops it, as the spectral derivative D does."""
    interp = body.interpolator()
    s, a = _antipode(body, t), (1.0 if body.mode == "curve" else -1.0)
    w = interp(t) + interp(s)
    w1 = interp.derivative(t, 1, True) + a * interp.derivative(s, 1, True)
    d = interp.derivative(t) + a * interp.derivative(s)
    d1 = interp.derivative(t, 2) + interp.derivative(s, 2)
    c = math.hypot(w, d)
    return c, (w * w1 + d * d1) / c


def test_single_array_path_matches_scalar_twin():
    ovals = _oval_slices()
    for body in _single_path_bodies(ovals):
        w_minus, w_plus, diam = _two_path_reference(body)
        m = geometry.measure(body)
        assert m.w_minus == pytest.approx(w_minus, rel=1e-14, abs=0.0)
        assert m.w_plus == pytest.approx(w_plus, rel=1e-14, abs=0.0)
        if body in ovals:
            # Newton converges onto a larger chord than where Brent stopped
            # (+4.1e-12 at t = -50, N = 256): a stationary point of the chord
            assert diam * (1.0 - 1e-14) <= m.diam <= diam * (1.0 + 1e-11)
            chord, slope = _chord_and_slope(body, geometry._extrema(body)[2][1])
            step = geometry._search_grid(body)[1] - geometry._search_grid(body)[0]
            assert abs(slope) * step <= 1e-12 * chord
        else:
            assert m.diam == pytest.approx(diam, rel=1e-14, abs=0.0)


def test_interpolant_returns_arrays_for_arrays():
    interp = bodies.random_convex_curve(64, seed=3).interpolator()
    for fn in (interp, interp.derivative):
        one = fn(np.array([0.3]))
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        scalar = fn(0.3)
        assert isinstance(scalar, float) and scalar == one[0]
        assert fn(np.array([0.3, 0.4])).shape == (2,)


def test_measure_is_computed_once_per_body():
    body = bodies.random_convex_curve(64, seed=1)
    assert geometry.measure(body) is geometry.measure(body)


def test_curvature_field_shared_by_time_shifted_copy(sphere_exact_traj):
    shifted = sphere_exact_traj.with_time_shift(0.01)
    for sl, moved in zip(sphere_exact_traj.slices, shifted.slices):
        assert dg.curvature_field(moved) is dg.curvature_field(sl)
    assert not hasattr(sphere_exact_traj.slices[0], "_cache")


@pytest.mark.parametrize("seed, amplitude", NEAR_TIES)
def test_max_width_equals_diameter_on_near_tied_humps(seed, amplitude):
    m = geometry.measure(bodies.random_convex_curve(96, seed, amplitude=amplitude))
    assert abs(m.w_plus - m.diam) <= 1e-9 * m.diam


def test_grid_stage_matches_scalar_search():
    near_ties = [bodies.random_convex_curve(96, s, amplitude=a) for s, a in NEAR_TIES]
    for body in _pool() + near_ties:
        w_minus, w_plus, diam = _scalar_reference(body)
        m = geometry.measure(body)
        assert m.w_minus == pytest.approx(w_minus, rel=1e-14, abs=0.0)
        assert m.w_plus == pytest.approx(m.diam, rel=1e-9, abs=0.0)
        if body in near_ties:
            # the larger hump, which the scalar search missed
            assert m.w_plus > w_plus * (1.0 + 1e-9) and m.diam >= diam * (1.0 - 1e-14)
        else:
            assert m.w_plus == pytest.approx(w_plus, rel=1e-14, abs=0.0)
            assert m.diam == pytest.approx(diam, rel=1e-14, abs=0.0)


def test_harnack_quantity_on_rescaled_flow(oval_exact_traj):
    rf = analysis.type_two_rescale(oval_exact_traj, 50.0)
    taus = rf.times()
    i = len(taus) // 2
    vals, low = dg.harnack_quantity(rf, taus[i])
    assert vals.shape == dg.curvature_field(rf.slices[i]).H.shape
    assert np.all(np.isfinite(vals)) and low == float(np.min(vals))
    fld = dg.curvature_field(rf.slices[i])
    np.testing.assert_array_equal(fld.kappa_profile, fld.lambdas[:, 0])


def test_measure_makes_few_interpolant_calls(monkeypatch):
    # a timing-free guard on the cost of measure: the batched refinement
    # makes at most 7 interpolant calls per body here, a scalar minimizer
    # per start (bounded Brent) up to 157
    pool = [bodies.random_convex_curve(96, seed=s, amplitude=0.25 + 0.65 * (s % 10) / 10.0)
            for s in range(100)]
    pool += [bodies.random_convex_profile(2, 64, seed=s, amplitude=0.25 + 0.65 * (s % 8) / 8.0)
             for s in range(40)]
    pool += [exact.angenent_oval_slice(t, 128) for t in (-0.5, -5.0, -50.0)]
    calls = []
    for name in ("__call__", "derivative"):
        method = getattr(bodies._TrigInterp, name)

        def counted(*args, _method=method, **kwargs):
            calls.append(1)
            return _method(*args, **kwargs)
        monkeypatch.setattr(bodies._TrigInterp, name, counted)
    for body in pool:
        calls.clear()
        geometry.measure(body)
        assert len(calls) <= 10


def _grid_bodies():
    """Curves with N = 16, 96, 256 and axisym bodies with N = 16, 63, 64."""
    out = [bodies.random_convex_curve(N, seed=N) for N in (16, 96, 256)]
    out += [bodies.random_convex_profile(2, N, seed=N) for N in (16, 63, 64)]
    return out


def _grid_interpolants():
    """The interpolants of _grid_bodies, and of white noise, whose Nyquist
    mode is as large as any other (a smooth body's is at rounding level)."""
    rng = np.random.default_rng(12)
    out = [pytest.param(b.interpolator(), id=f"{b.mode}-{b.N}") for b in _grid_bodies()]
    return out + [pytest.param(bodies._TrigInterp(rng.normal(size=N),
                                                  bodies.grid_plan(bodies.MODE_CURVE, N)),
                               id=f"noise-{N}")
                  for N in (16, 63, 64)]


@pytest.mark.parametrize("interp", _grid_interpolants())
def test_grid_derivative_matches_the_direct_sum(interp):
    orders, flags = (0, 1, 2, 3, 0, 1, 2, 3), (False,) * 4 + (True,) * 4
    for m in (interp.N, 4 * interp.N):
        theta = np.arange(m) * (2.0 * math.pi / m)
        rows = interp.grid_derivative(m, orders, flags)
        for row, order, nyquist in zip(rows, orders, flags):
            ref = interp.derivative(theta, order, nyquist)
            tol = 1e-13 * np.max(np.abs(ref))
            assert np.max(np.abs(row - ref)) <= tol
            assert np.max(np.abs(interp.grid_derivative(m, order, nyquist) - ref)) <= tol


@pytest.mark.parametrize("body", _grid_bodies(), ids=lambda b: f"{b.mode}-{b.N}")
def test_search_index_reproduces_the_search_grid(body):
    # the grid stage reads the FFT rows at j and a; the refinement starts
    # from _search_grid and sums the series at _antipodal_angle
    m, j, a = geometry._search_index(body)
    grid = geometry._search_grid(body)
    step = 2.0 * math.pi / m
    np.testing.assert_allclose(j * step, grid, rtol=0.0, atol=1e-14)
    antipodes = np.mod(geometry._antipodal_angle(body, grid), 2.0 * math.pi)
    np.testing.assert_allclose(a * step, antipodes, rtol=0.0, atol=1e-14)
    w, c = geometry._grid_width_and_chord(body)
    W, D = geometry._width_rows(body, grid, (0, 1), (True, False))
    np.testing.assert_allclose(w, W, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(c, np.hypot(W, D), rtol=1e-13, atol=0.0)
