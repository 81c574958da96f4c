"""Test-only helpers shared by several test modules."""

import numpy as np

from nmgme.grids import quad_weights


def suffix_weights(n: int, h: float, method: str = "trapezoid") -> np.ndarray:
    """Matrix ``W`` with ``W[i, i:]`` the rule for ``integral_{t_i}^{t_max}``,
    one rule per row; the reference for the gathered suffix rule of
    :class:`nmgme.series.SeriesContext`."""
    W = np.zeros((n, n))
    for i in range(n - 1):
        W[i, i:] = quad_weights(n - i, h, method)
    return W
