"""Reference computations shared by several test modules.

Each is an independent, slower or more literal form of something the
package computes, kept here for tests to compare against.
"""

import numpy as np


def cubic_excess_pairform(lambdas):
    """Z = H tr(A^3) - |A|^4 in its pair form sum_{i<j} l_i l_j (l_i - l_j)^2."""
    lambdas = np.atleast_2d(lambdas)
    out = np.zeros(len(lambdas))
    n = lambdas.shape[1]
    for i in range(n):
        for j in range(i + 1, n):
            li, lj = lambdas[:, i], lambdas[:, j]
            out += li * lj * (li - lj) ** 2
    return out
