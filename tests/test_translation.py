"""Translations of support samples and recentring at the Chebyshev center.

A translation by s acts on support samples as h -> h + <s, nu>
(`bodies.shift_support`).  Recentring (`bodies.recentre`) must quotient it
out: the centred samples do not depend on s and the returned shift moves
with it.  Measured lengths must not depend on where the body sits, and
neither may the flow: the engine's stencils are exact on the mode-1 term
<s, nu>, so a translated start evolves to the same recentred slices at the
same times, whenever each run happens to recentre.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from mcfflow import bodies, engine, geometry

PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)


@st.composite
def bodies_and_shifts(draw):
    """A seeded random curve or axisym profile and a shift of up to twice
    its size (a 2-vector for curves, an axial scalar for profiles)."""
    seed = draw(st.integers(0, 2 ** 31 - 1))
    N = draw(st.sampled_from([32, 64, 96]))
    amplitude = draw(st.floats(0.05, 0.9))
    unit = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        body = bodies.random_convex_curve(N, seed, amplitude=amplitude)
        return body, np.array([draw(unit), draw(unit)])
    return bodies.random_convex_profile(2, N, seed, amplitude=amplitude), draw(unit)


@PROPERTY
@given(bodies_and_shifts(), st.floats(0.1, 2.0))
def test_recentre_quotients_out_translation(case, size):
    body, unit = case
    s = size * unit
    h_centred, c = bodies.recentre(body.mode, body.h)
    moved = body.h + bodies.shift_support(body.mode, body.h, s)
    h_moved, c_moved = bodies.recentre(body.mode, moved)
    assert np.max(np.abs(h_moved - h_centred)) <= 1e-9
    assert np.max(np.abs(np.asarray(c_moved) - (s + np.asarray(c)))) <= 1e-9


@PROPERTY
@given(bodies_and_shifts(), st.floats(0.0, 0.9))
def test_measured_lengths_are_translation_invariant(case, fraction):
    # the shift stays inside the inscribed ball, so the support stays positive
    body, unit = case
    norm = float(np.linalg.norm(np.atleast_1d(unit)))
    s = fraction * geometry.inner_radius(body) * unit / max(1.0, norm)
    a = geometry.measure(body)
    b = geometry.measure(body.translated(s))
    # area, volume and the axisym diam_I use the 3-point h'' + h, which is not
    # exact on <s, nu>, so they move at the O(N^-2) discretisation level
    for key in ("w_minus", "w_plus", "diam", "rho_minus", "rho_plus"):
        assert abs(getattr(a, key) - getattr(b, key)) <= 1e-9, key


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["curve", "axisym"]),
       st.sampled_from([32, 64]), st.floats(0.05, 0.5), st.floats(0.3, 0.9),
       st.floats(0.0, 2.0 * np.pi))
def test_the_flow_commutes_with_translation(seed, mode, N, amplitude, fraction, angle):
    # a shift of up to 0.9 inner radii: the shifted run recentres at once,
    # the other when its own drift asks, and both must give the same slices
    if mode == "curve":
        body = bodies.random_convex_curve(N, seed, amplitude=amplitude)
        unit = np.array([np.cos(angle), np.sin(angle)])
    else:
        body = bodies.random_convex_profile(2, N, seed, amplitude=amplitude)
        unit = np.cos(angle)
    s = fraction * geometry.inner_radius(body) * unit
    controls = engine.FlowControls(cfl=0.4, max_dt=1e-2, snapshot_stride=8,
                                   stop_rho_plus=0.5 * float(np.max(body.h)))
    a = engine.evolve(body, -1.0, controls)
    b = engine.evolve(body.translated(s), -1.0, controls)
    assert a.meta["accepted_steps"] == b.meta["accepted_steps"]
    assert len(a) == len(b)
    for x, y in zip(a.slices, b.slices):
        assert abs(x.t - y.t) <= 1e-12
        assert np.max(np.abs(x.body.h - y.body.h)) <= 1e-12
        assert np.max(np.abs(np.asarray(y.shift) - np.asarray(x.shift) - s)) <= 1e-12
