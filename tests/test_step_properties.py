"""One explicit step keeps the comparison principle of curve shortening.

A convex curve moves inward at speed kappa > 0, so one step lowers the
support function everywhere, and two nested curves stay nested (avoidance).
Checked on random curves and a scaled copy inside each, stepped with a
common dt at 0.9 times the smaller of their stability bounds.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from mcfflow import bodies, engine

PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)
CFL = 0.5  # the bound step_curve enforces


def _stability_bound(body):
    rho = bodies.d2_periodic4(bodies.Pad4(body.h, body.step))
    return CFL * body.step ** 2 * float(np.min(rho)) ** 2


@PROPERTY
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.3, 0.95))
def test_step_lowers_support_and_keeps_nesting(seed, lam):
    outer = bodies.random_convex_curve(96, seed)
    inner = outer.scaled(lam)
    dt = 0.9 * min(_stability_bound(outer), _stability_bound(inner))
    outer_next, inner_next = engine.step_curve(outer, dt), engine.step_curve(inner, dt)
    assert np.all(outer_next.h < outer.h)
    assert np.all(inner_next.h < inner.h)
    assert np.all(inner_next.h < outer_next.h)
