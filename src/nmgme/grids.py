"""Uniform time grids, lag sampling and deterministic quadrature rules.

Every kernel integral in the package is a line integral over ``[0, t_k]``
or an iterated integral over the lower triangle ``0 <= s <= tau <= t_k``.
Both are discretized here once, so that all modules share a single
convention for panel weights and for the half-weight treatment of the
triangle diagonal (the unit step is 1/2 at lag 0).

Every kernel of the package depends on its two times through the lag
``u = t - s`` only, so it is sampled once on the ``2G - 1`` lags of the
grid (:func:`lags`) and read on the grid square through
:func:`on_square`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TimeGrid",
    "make_grid",
    "quad_weights",
    "prefix_weights",
    "lags",
    "on_square",
]

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


def make_grid(t_max: float, n_points: int) -> TimeGrid:
    """Build a uniform grid of ``n_points`` on ``[0, t_max]``."""
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
        end = 2 * (panels // 2) + 1  # nodes covered by panel pairs
        if end > 1:
            # interior even nodes close one pair and open the next
            w[:end:2] = h / 3
            w[2 : end - 1 : 2] += h / 3
            w[1:end:2] = 4 * h / 3
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


def lags(grid: TimeGrid) -> np.ndarray:
    """The ``2G - 1`` lags ``t_a - t_b`` of the grid square, increasing:
    ``[-t_{G-1}, ..., -t_1, t_0, ..., t_{G-1}]``.

    The negative lags are exact negations of the grid points, so a kernel
    that is odd in the lag stays exactly antisymmetric on the square.  On
    a grid with a dyadic step every lag equals ``t_a - t_b`` bit for bit;
    otherwise they differ in the last bit at most.
    """
    t = grid.points
    return np.concatenate((-t[:0:-1], t))


def on_square(lagged: np.ndarray) -> np.ndarray:
    """Read-only view ``X[..., a, b] = lagged[..., G - 1 + a - b]`` of
    samples on the :func:`lags` of a ``G``-point grid (last axis) as the
    grid square."""
    n = (lagged.shape[-1] + 1) // 2
    s = lagged.strides[-1]
    return np.lib.stride_tricks.as_strided(
        lagged[..., n - 1 :],
        shape=lagged.shape[:-1] + (n, n),
        strides=lagged.strides[:-1] + (s, -s),
        writeable=False,
    )
