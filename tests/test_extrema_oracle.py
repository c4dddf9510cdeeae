"""The width and diameter search against a frozen copy that ran its
refinement as array operations, bit for bit.

The oracle in `oracles.py` is `geometry._extrema` as it was written before
its per-start state moved onto Python floats: every start's angle, bracket
and value in arrays, updated by elementwise `np.where`, and one minimizing
pass over the grid per search.  On every body below both sides must return
results whose floats, angles included, have the same repr.  The bodies are
random curves and axisymmetric profiles over the whole amplitude range, the
round disk and ball (where more than `_MAX_TIES` grid values tie), exact
oval slices from nearly round to very elongated, and the curves whose width
humps nearly tie.  The refinement's batches are part of what is checked: a
matrix product over a different set of angles rounds differently, so
evaluating the starts one at a time moves results in the last bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from mcfflow import bodies, exact, geometry
from mcfflow.bodies import MODE_AXISYM, MODE_CURVE
from test_measure_cache import NEAR_TIES

PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)

AMPLITUDE = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
SEED = st.integers(0, 2 ** 31 - 1)


@st.composite
def search_bodies(draw):
    """A random curve (N = 16..256) or axisymmetric profile (n = 2, 3), a
    round disk or ball, an exact oval slice, or a near-tied curve."""
    kind = draw(st.sampled_from(["curve", "axisym", "round", "oval", "near_tie"]))
    if kind == "curve":
        N = 2 * draw(st.integers(8, 128))
        return bodies.random_convex_curve(N, draw(SEED), modes=draw(st.integers(2, 6)),
                                          amplitude=draw(AMPLITUDE))
    if kind == "axisym":
        return bodies.random_convex_profile(draw(st.sampled_from([2, 3])),
                                            draw(st.integers(16, 128)), draw(SEED),
                                            modes=draw(st.integers(2, 5)),
                                            amplitude=draw(AMPLITUDE))
    if kind == "round":
        mode = draw(st.sampled_from([MODE_CURVE, MODE_AXISYM]))
        N, r = 2 * draw(st.integers(8, 64)), draw(st.floats(0.01, 100.0))
        if mode == MODE_CURVE:
            return bodies.SupportProfile(mode, 1, np.full(N, r))
        return bodies.SupportProfile(mode, draw(st.sampled_from([2, 3])), np.full(N + 1, r))
    if kind == "oval":
        return exact.angenent_oval_slice(draw(st.floats(-50.0, -0.45)),
                                         draw(st.sampled_from([32, 64, 128, 256])))
    seed, amplitude = draw(st.sampled_from(NEAR_TIES))
    return bodies.random_convex_curve(96, seed, amplitude=amplitude)


@PROPERTY
@given(search_bodies())
def test_extrema_equals_the_oracle(body):
    assert repr(geometry._extrema(body)) == repr(oracles.extrema(body))


@pytest.mark.parametrize("N", [64, 128])
def test_extrema_equals_the_oracle_on_oval_slices(N):
    # a fixed sweep from elongated to nearly round, on which a refinement that
    # evaluates its starts one at a time differs (at t = -33.77, N = 64 and
    # t = -5.772, N = 128)
    for t in -np.geomspace(50.0, 0.45, 25):
        body = exact.angenent_oval_slice(t, N)
        assert repr(geometry._extrema(body)) == repr(oracles.extrema(body)), t


@PROPERTY
@given(search_bodies())
def test_starts_equal_the_oracle(body):
    # the oracle minimizes v and -v in two passes; _starts does both in one
    for v in geometry._grid_width_and_chord(body):
        assert geometry._starts(body, v) == (oracles.starts(body, v), oracles.starts(body, -v))


@PROPERTY
@given(search_bodies(), st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=12),
       st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=6))
def test_width_rows_equal_the_oracle(body, angles, rows):
    t = np.array(angles)
    orders, nyquist = (tuple(x) for x in zip(*rows))
    assert (repr(geometry._width_rows(body, t, orders, nyquist).tolist())
            == repr(oracles.width_rows(body, t, orders, nyquist).tolist()))


def _fresh(body):
    return bodies.SupportProfile(body.mode, body.n, body.h.copy()).interpolator()


@pytest.mark.parametrize("body", [bodies.random_convex_curve(96, 3),
                                  bodies.random_convex_profile(3, 64, 3)],
                         ids=["curve", "axisym"])
@pytest.mark.parametrize("nyquist", [True, False])
def test_cached_columns_match_a_fresh_interpolant(body, nyquist):
    # orders as an int and as a tuple, list and array of the same values,
    # which share one cache entry; each result against the first call of a
    # fresh interpolant, whose columns are gathered then
    interp = body.interpolator()
    theta = np.linspace(-1.0, 7.0, 37)
    orders = (0, 1, 2, 3, 1)
    flags = (nyquist, not nyquist, nyquist, nyquist, not nyquist)
    cases = [(2, nyquist), (orders, nyquist), (orders, flags), (list(orders), list(flags)),
             (np.array(orders), np.array(flags)), (list(orders), flags)]
    for order, ny in cases + cases:
        got = interp.derivative(theta, order, ny)
        want = _fresh(body).derivative(theta, order, ny)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (order, ny)
        scalar = interp.derivative(0.3, 1, nyquist)
        assert repr(scalar) == repr(_fresh(body).derivative(0.3, 1, nyquist))
    assert repr(interp(math.pi / 3)) == repr(_fresh(body)(math.pi / 3))
