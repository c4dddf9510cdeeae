"""Trajectory files round-trip bit for bit on random bodies.

`read_trajectory(write_trajectory(x))` gives back every slice's support
values, time and frame shift exactly, and writing what was read gives the
same bytes, and the trajectory's kind, n and N with them.  Random curves
and axisymmetric profiles, scaled so their samples use every mantissa
bit, with random times and shifts, and random geodesic caps.
"""

import json
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from mcfflow import bodies, engine, trajio

PROPERTY = settings(max_examples=40, derandomize=True, database=None, deadline=None)
COORD = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def random_trajectories(draw):
    """One to three slices of a random body, each scaled and shifted, or of
    a random cap."""
    seed = draw(st.integers(0, 2 ** 31 - 1))
    N = draw(st.sampled_from([16, 32, 64]))
    amplitude = draw(st.floats(0.05, 0.9))
    kind = draw(st.sampled_from(["curve", "axisym", "cap"]))
    times = sorted(draw(st.lists(st.floats(-1e6, -1e-9), min_size=1, max_size=3,
                                 unique=True)))
    if kind == "cap":
        R, n = draw(st.floats(1e-3, 1e3)), draw(st.sampled_from([1, 2, 3]))
        radii = st.floats(1e-6, 1.0).map(lambda x: x * math.pi * R / 2.0)
        return engine.Trajectory([engine.TimeSlice(t, bodies.CapState(R, n, draw(radii)))
                                  for t in times])
    if kind == "curve":
        body, n = bodies.random_convex_curve(N, seed, amplitude=amplitude), 1
        shifts = st.none() | st.tuples(COORD, COORD).map(np.array)
    else:
        n = draw(st.sampled_from([2, 3]))
        body = bodies.random_convex_profile(n, N, seed, amplitude=amplitude)
        shifts = st.none() | COORD
    slices = [engine.TimeSlice(t, body.scaled(draw(st.floats(1e-3, 1e3))), draw(shifts))
              for t in times]
    return engine.Trajectory(slices)


@PROPERTY
@given(random_trajectories())
def test_write_read_is_bit_exact(traj):
    with tempfile.TemporaryDirectory() as d:
        first, second = os.path.join(d, "a.jsonl"), os.path.join(d, "b.jsonl")
        trajio.write_trajectory(traj, first)
        back = trajio.read_trajectory(first)
        trajio.write_trajectory(back, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            written = a.read()
            assert written == b.read()
    header = json.loads(written.splitlines()[0])
    assert (back.engine, back.n, back.N) == (traj.engine, traj.n, traj.N)
    assert (header["n"], header["N"]) == (traj.n, traj.N)
    assert len(back.slices) == len(traj.slices)
    for sl, got in zip(traj.slices, back.slices):
        assert got.t == sl.t
        if traj.engine == "cap":
            assert (got.body.R, got.body.n, got.body.rho) == (sl.body.R, sl.body.n, sl.body.rho)
            continue
        assert got.body.mode == sl.body.mode and got.body.n == sl.body.n
        assert np.array_equal(got.body.h, sl.body.h)
        if sl.shift is None:
            assert got.shift is None
        else:
            assert np.array_equal(np.asarray(got.shift), np.asarray(sl.shift))
