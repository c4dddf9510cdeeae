"""Trajectory verdicts are invariant under parabolic rescaling.

`parabolic_rescale(lam)` maps a flow to a flow (space x lam, time x lam^2).
Conditions iv-vii are pointwise scaling invariants; iii is not (its +1
regularizer sets a scale), but no verdict may change, on the exact oval, the
exact sphere and an evolved perturbed sphere alike.
"""

from hypothesis import given, settings, strategies as st
import pytest

from mcfflow import analysis

PROPERTY = settings(max_examples=8, derandomize=True, database=None, deadline=None)


@pytest.fixture(scope="module")
def flows(oval_exact_traj, sphere_exact_traj, perturbed_sphere_run):
    return [(traj, analysis.check_conditions(traj))
            for traj in (oval_exact_traj, sphere_exact_traj, perturbed_sphere_run)]


@PROPERTY
@given(lam=st.floats(0.5, 3.0))
def test_verdicts_unchanged_under_parabolic_rescale(flows, lam):
    for traj, base in flows:
        scaled = analysis.check_conditions(traj.parabolic_rescale(lam))
        assert scaled.conditions.keys() == base.conditions.keys()
        for key in base.conditions:
            assert scaled.verdict(key) == base.verdict(key), (key, lam)
