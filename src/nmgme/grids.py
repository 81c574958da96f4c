"""Uniform time grids and deterministic quadrature rules.

Every kernel integral in the package is a line integral over ``[0, t_k]``
or an iterated integral over the lower triangle ``0 <= s <= tau <= t_k``.
Both are discretized here once, so that all modules share a single
convention for panel weights and for the half-weight treatment of the
triangle diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TimeGrid",
    "make_grid",
    "quad_weights",
    "prefix_weights",
    "theta_mask",
]

#: Grid points per unit of dimensionless time used when no resolution is given.
POINTS_PER_UNIT_TIME = 64

_UNIFORMITY_RTOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid ``t_0 = 0 < ... < t_{G-1} = t_max``.

    Attributes
    ----------
    t_max : float
        Right endpoint of the grid.
    n_points : int
        Number of grid points ``G >= 2``.
    points : numpy.ndarray
        The grid points, strictly increasing and uniformly spaced.
    """

    t_max: float
    n_points: int
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.n_points}")
        if not self.t_max > 0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (self.n_points,):
            raise ValueError("points array inconsistent with n_points")
        steps = np.diff(pts)
        h = self.t_max / (self.n_points - 1)
        if np.any(steps <= 0) or np.max(np.abs(steps - h)) > _UNIFORMITY_RTOL * max(
            1.0, self.t_max
        ):
            raise ValueError("grid points must be strictly increasing and uniform")

    @property
    def h(self) -> float:
        """Grid spacing ``t_max / (G - 1)``."""
        return self.t_max / (self.n_points - 1)


def make_grid(t_max: float, n_points: int | None = None) -> TimeGrid:
    """Build a uniform grid on ``[0, t_max]``.

    When ``n_points`` is omitted the default resolution of
    ``POINTS_PER_UNIT_TIME`` panels per unit time is used (so ``t_max = 1``
    gives a 65-point grid).
    """
    if n_points is None:
        n_points = int(round(POINTS_PER_UNIT_TIME * t_max)) + 1
        n_points = max(n_points, 2)
    pts = np.linspace(0.0, float(t_max), int(n_points))
    return TimeGrid(t_max=float(t_max), n_points=int(n_points), points=pts)


def quad_weights(n: int, h: float, method: str = "trapezoid") -> np.ndarray:
    """Weights of the 1D rule on ``n`` uniformly spaced points.

    ``method`` is ``"trapezoid"`` or ``"simpson"``.  Simpson weights are
    composite over pairs of panels; when the panel count is odd the last
    panel falls back to a trapezoid so the rule stays usable on every
    prefix length.  Weights always sum to ``(n - 1) * h``.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if n == 1:
        return np.zeros(1)
    w = np.zeros(n)
    if method == "trapezoid":
        w[:] = h
        w[0] = w[-1] = h / 2
        return w
    if method == "simpson":
        panels = n - 1
        pairs = panels // 2
        for p in range(pairs):
            i = 2 * p
            w[i] += h / 3
            w[i + 1] += 4 * h / 3
            w[i + 2] += h / 3
        if panels % 2 == 1:
            w[-2] += h / 2
            w[-1] += h / 2
        return w
    raise ValueError(f"unknown quadrature method {method!r}")


def prefix_weights(n: int, h: float, method: str = "trapezoid") -> np.ndarray:
    """Matrix ``W`` with ``W[i, :i+1]`` the rule for ``integral_0^{t_i}``.

    Row 0 is zero (empty range).  Used for the inner integral of the
    iterated triangle rule and for cumulative kernel integrals.
    """
    W = np.zeros((n, n))
    for i in range(1, n):
        W[i, : i + 1] = quad_weights(i + 1, h, method)
    return W


def theta_mask(n: int) -> np.ndarray:
    """Samples of the unit step ``theta(t_a - t_b)`` on the grid square.

    ``M[a, b]`` is 1 for ``a > b``, 1/2 on the diagonal and 0 below it.
    The half-weight diagonal matches the symmetric-limit convention used
    for contractions at coincident times; it is the single source of
    truth for step-function sampling in the kernel recursions.
    """
    M = np.tril(np.ones((n, n)), k=-1)
    np.fill_diagonal(M, 0.5)
    return M
