"""Order statistics shared by the harness and the compare command."""

from __future__ import annotations

import statistics


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values, beyond=10):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, count).  When that percentile would fall
    below the median (fewer than 2 * beyond + 1 samples) there is no tail
    to speak of, and the maximum is returned with percentile 100.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= 2 * beyond:
        return ordered[-1], 100.0, count
    rank = count - beyond - 1          # exactly `beyond` samples lie above it
    return ordered[rank], 100.0 * (rank + 1) / count, count
