"""Trajectory files round-trip bit for bit on random bodies.

`read_trajectory(write_trajectory(x))` gives back every slice's support
values, time and frame shift exactly, and writing what was read gives the
same bytes.  Random curves and axisymmetric profiles, scaled so their
samples use every mantissa bit, with random times and shifts.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from mcfflow import bodies, engine, trajio

PROPERTY = settings(max_examples=40, derandomize=True, database=None, deadline=None)
COORD = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def random_trajectories(draw):
    """One to three slices of a random body, each scaled and shifted."""
    seed = draw(st.integers(0, 2 ** 31 - 1))
    N = draw(st.sampled_from([16, 32, 64]))
    amplitude = draw(st.floats(0.05, 0.9))
    curve = draw(st.booleans())
    if curve:
        body, n = bodies.random_convex_curve(N, seed, amplitude=amplitude), 1
        shifts = st.none() | st.tuples(COORD, COORD).map(np.array)
    else:
        n = draw(st.sampled_from([2, 3]))
        body = bodies.random_convex_profile(n, N, seed, amplitude=amplitude)
        shifts = st.none() | COORD
    times = sorted(draw(st.lists(st.floats(-1e6, -1e-9), min_size=1, max_size=3,
                                 unique=True)))
    slices = [engine.TimeSlice(t, body.scaled(draw(st.floats(1e-3, 1e3))), draw(shifts))
              for t in times]
    return engine.Trajectory(slices, body.mode, n, N)


@PROPERTY
@given(random_trajectories())
def test_write_read_is_bit_exact(traj):
    with tempfile.TemporaryDirectory() as d:
        first, second = os.path.join(d, "a.jsonl"), os.path.join(d, "b.jsonl")
        trajio.write_trajectory(traj, first)
        back = trajio.read_trajectory(first)
        trajio.write_trajectory(back, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert len(back.slices) == len(traj.slices)
    for sl, got in zip(traj.slices, back.slices):
        assert got.t == sl.t
        assert got.body.mode == sl.body.mode and got.body.n == sl.body.n
        assert np.array_equal(got.body.h, sl.body.h)
        if sl.shift is None:
            assert got.shift is None
        else:
            assert np.array_equal(np.asarray(got.shift), np.asarray(sl.shift))
