"""The kernel's extremum by index against ndarray.min and ndarray.max.

`engine._extremum(a, arg)` is a[a.argmin()] or a[a.argmax()].  It must give
the element min() and max() give, NaN included (argmin and argmax stop at
the first NaN, as the reductions propagate it), on every size across
numpy's SIMD blocks and tails.

The one difference is the sign of a zero among tied zeros: min() and max()
may return either of +0.0 and -0.0, argmin and argmax the first.  It cannot
reach the engine.  Every check compares an extremum with 0 (h'' + h > 0,
r > 0) or with another extremum (min h < 0.25 max h), and IEEE comparison
treats +0.0 and -0.0 as equal; kmax is 1 over the min h'' + h that the
stage check has just found positive, so it never divides by a zero.
"""

import math

import numpy as np
import pytest

from mcfflow.engine import _ARGMAX, _ARGMIN, _extremum

# every size up to 300, then both sides of each power of two up to 16,385
SIZES = sorted({*range(1, 301), *(2 ** k + d for k in range(9, 15) for d in (-1, 0, 1))})


def _same(got, want):
    """Equal as floats, NaN equal to NaN, of the same type."""
    assert type(got) is type(want)
    assert (math.isnan(got) and math.isnan(want)) or got == want


def _agree(a):
    _same(_extremum(a, _ARGMIN), a.min())
    _same(_extremum(a, _ARGMAX), a.max())


@pytest.mark.parametrize("size", SIZES)
def test_extremum_is_min_and_max(size):
    rng = np.random.default_rng(size)
    a = rng.standard_normal(size)
    _agree(a)
    _agree(np.round(a))  # tied extrema
    for special in (math.inf, -math.inf, math.nan):
        for where in {0, size // 2, size - 1}:
            b = a.copy()
            b[where] = special
            _agree(b)
    if size >= 2:
        b = a.copy()
        b[rng.choice(size, size=min(size, 3), replace=False)] = math.nan
        _agree(b)  # more than one NaN
        b[:] = math.nan
        _agree(b)
        b = np.full(size, math.inf)
        b[-1] = -math.inf
        _agree(b)


def test_extremum_of_views():
    # the kernel passes r[1:-1], a view into r
    a = np.arange(20.0)[::-3]
    _agree(a)
    _agree(np.linspace(-1.0, 1.0, 33)[1:-1])


def test_tied_zeros_differ_only_in_sign():
    # the documented difference: of tied zeros argmin/argmax take the first
    a = np.array([0.0, -0.0])
    assert not np.signbit(_extremum(a, _ARGMIN))
    assert _extremum(a, _ARGMIN) == a.min() and _extremum(a, _ARGMAX) == a.max()
    for x in (_extremum(a, _ARGMIN), a.min()):
        assert not x > 0.0 and not x < 0.0 and x * x == 0.0
