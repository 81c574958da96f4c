"""Bath correlation kernels ``D_jk(t, s)``.

A kernel is characterized by its complex two-time correlation values on
pairs of times.  The real part ``D^Re`` is symmetric under the joint
exchange ``(j, t) <-> (k, s)``, the imaginary part ``D^Im`` is
antisymmetric; both are real-valued functions.  Dynamics generated by a
purely real kernel is non-dissipative.

Every kernel here is stationary: a function of the lag ``u = t - s``
only, evaluated pointwise (vectorized) on lags.  Tabulation happens where
the grid is known (:mod:`nmgme.series`, :mod:`nmgme.coefficients`), once
per channel pair on the ``2G - 1`` lags of the grid
(:func:`nmgme.grids.lags`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "CorrelationKernel",
    "make_exponential",
    "make_discrete_modes",
    "make_qmupl_matrix",
    "make_white_noise_approximant",
]


def require_finite(**params) -> None:
    """Raise ``ValueError`` naming the first parameter that holds a NaN or
    an infinity (a range check such as ``x <= 0`` lets NaN through)."""
    for name, value in params.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class CorrelationKernel:
    """Two-time bath correlation with ``n_channels`` coupling channels.

    ``evaluator(j, k, u)`` returns ``D_jk`` at the lag ``u = t - s`` (a
    numpy array); calling the kernel as ``D(j, k, t, s)`` evaluates it at
    ``t - s`` (broadcast).  ``is_real`` marks kernels with identically
    vanishing imaginary part, which lets downstream series machinery
    close exactly at zeroth order.
    """

    n_channels: int
    evaluator: Callable[[int, int, np.ndarray], np.ndarray]
    is_real: bool = False

    def __call__(self, j: int, k: int, t, s):
        self._check_channel(j)
        self._check_channel(k)
        return self.evaluator(j, k, np.asarray(t) - np.asarray(s))

    def _check_channel(self, j: int) -> None:
        if not 0 <= j < self.n_channels:
            raise ValueError(f"channel {j} outside range 0..{self.n_channels - 1}")

    def re_part(self, j: int, k: int, t, s):
        """Real symmetric part ``D^Re_jk(t, s)``."""
        return np.real(self(j, k, t, s))


def make_exponential(gamma: float, tau_c: float) -> CorrelationKernel:
    """Single-channel Ornstein-Uhlenbeck kernel.

    ``D(t, s) = gamma / (2 tau_c) * exp(-|t - s| / tau_c)``, purely real,
    with line integral ``gamma`` over the full real axis.
    """
    require_finite(gamma=gamma, tau_c=tau_c)
    if not tau_c > 0:
        raise ValueError(f"correlation time must be positive, got {tau_c}")
    if not gamma >= 0:
        raise ValueError(f"coupling strength must be non-negative, got {gamma}")
    amp = gamma / (2.0 * tau_c)

    def evaluator(j, k, u):
        return amp * np.exp(-np.abs(u) / tau_c) + 0j

    return CorrelationKernel(1, evaluator, is_real=True)


def make_white_noise_approximant(strength: float, eps: float) -> CorrelationKernel:
    """Narrow exponential approximating ``strength * delta(t - s)``.

    The family is normalized: the integral over the full line equals
    ``strength`` for every width ``eps``, while the peak grows as
    ``strength / (2 eps)``.
    """
    require_finite(strength=strength, eps=eps)
    if not eps > 0:
        raise ValueError(f"width must be positive, got {eps}")
    if not strength > 0:
        raise ValueError(f"strength must be positive, got {strength}")
    return make_exponential(strength, eps)


def make_discrete_modes(mode_freqs, couplings) -> CorrelationKernel:
    """Kernel induced by a finite set of bath modes in the vacuum state.

    ``D_jk(t, s) = sum_m g_jm conj(g_km) exp(-i w_m (t - s))`` where
    ``couplings[j, m]`` is the amplitude of channel ``j`` on mode ``m``.
    The same ``(mode_freqs, couplings)`` pair drives the oracle module, so
    the master equation and the brute-force reference share one bath
    definition by construction.
    """
    freqs = np.atleast_1d(np.asarray(mode_freqs, dtype=float))
    g = np.atleast_2d(np.asarray(couplings, dtype=complex))
    require_finite(mode_freqs=freqs, couplings=g)
    if freqs.size == 0:
        raise ValueError("need at least one bath mode")
    if np.any(freqs <= 0):
        raise ValueError("mode frequencies must be positive")
    if g.shape[1] != freqs.size:
        raise ValueError(
            f"coupling matrix has {g.shape[1]} mode columns, expected {freqs.size}"
        )

    def evaluator(j, k, u):
        phases = np.exp(-1j * np.multiply.outer(u, freqs))
        return phases @ (g[j] * np.conj(g[k]))

    return CorrelationKernel(g.shape[0], evaluator, is_real=False)


def make_qmupl_matrix(collapse_strength: float, base: CorrelationKernel) -> CorrelationKernel:
    """Two-channel kernel matrix of the dissipative position-momentum
    collapse model.

    Built from a real symmetric scalar kernel ``D``:
    ``D^Re_11 = -D^Im_12 = D^Im_21 = D^Re_22 = lambda * D`` and every
    other component vanishes.  Equivalent to complex noises
    ``phi_1 = i sqrt(lambda) phi``, ``phi_2 = sqrt(lambda) phi`` driving
    channels ``(q, -mu p)``.
    """
    require_finite(collapse_strength=collapse_strength)
    if collapse_strength < 0:
        raise ValueError(f"collapse strength must be non-negative, got {collapse_strength}")
    if base.n_channels != 1:
        raise ValueError("base kernel must be single-channel")
    if not base.is_real:
        raise ValueError("base kernel must be real symmetric")
    lam = float(collapse_strength)
    base_eval = base.evaluator
    # entry factors of lam * D: D_11 = D_22 = lam D, D_12 = -i lam D, D_21 = +i lam D
    phase = np.array([[1.0, -1.0j], [1.0j, 1.0]])

    def evaluator(j, k, u):
        return lam * phase[j, k] * base_eval(0, 0, u)

    return CorrelationKernel(2, evaluator, is_real=False)
