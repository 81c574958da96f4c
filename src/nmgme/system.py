"""Linear-system definitions: Heisenberg propagator kernels, commutator
kernels, and truncated Fock-space operator matrices.

For a quadratic Hamiltonian the Heisenberg flow of ``(q, p)`` is a 2x2
matrix ``Phi(u) = exp(-A u)`` mapping time-``t`` operators to earlier
operators at ``s = t - u``.  Propagator kernels, channel commutators and
the closed master-equation coefficients are all built from this flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bath import require_finite

__all__ = [
    "PropagatorKernels",
    "CommutatorKernel",
    "harmonic_kernels",
    "qmupl_kernels",
    "commutator_kernel",
    "fock_operators",
    "quadratic_hamiltonian",
    "SYMPLECTIC_FORM",
]

#: Symplectic form of the canonical pair, [q, p] = i * SYMPLECTIC_FORM[0, 1].
SYMPLECTIC_FORM = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class PropagatorKernels:
    """Homogeneous Heisenberg-solution kernels of a linear system with
    ``dim`` coupling channels.

    ``flow(u)`` is the 2x2 flow of ``(q, p)``, of shape ``(2, 2) + u.shape``:
    it expands an operator at time ``t - u`` over the pair at time ``t``.
    For single-channel position coupling ``flow(u)[0, 0]`` is the kernel
    ``C`` of ``q`` and ``flow(u)[0, 1]`` the kernel ``C_tilde`` of ``p``
    (the mass factor is absorbed in it, so ``C_tilde'(0) = -1/m``).
    """

    dim: int
    flow: Callable[[np.ndarray], np.ndarray] = field(repr=False)


def _harmonic_flow(m: float, omega: float) -> Callable[[np.ndarray], np.ndarray]:
    def flow(u):
        u = np.asarray(u, dtype=float)
        out = np.empty((2, 2) + u.shape)
        if omega == 0.0:
            out[0, 0] = 1.0
            out[0, 1] = -u / m
            out[1, 0] = 0.0
            out[1, 1] = 1.0
        else:
            c, s = np.cos(omega * u), np.sin(omega * u)
            out[0, 0] = c
            out[0, 1] = -s / (m * omega)
            out[1, 0] = m * omega * s
            out[1, 1] = c
        return out

    return flow


def harmonic_kernels(m: float, omega: float) -> PropagatorKernels:
    """Kernels of the harmonic oscillator with position coupling.

    ``C(u) = cos(omega u)`` and ``C_tilde(u) = -sin(omega u) / (m omega)``
    (the first row of the flow);
    the free-particle limit ``omega = 0`` extends continuously to
    ``C = 1``, ``C_tilde = -u / m``.
    """
    require_finite(m=m, omega=omega)
    if m <= 0:
        raise ValueError(f"mass must be positive, got {m}")
    if omega < 0:
        raise ValueError(f"frequency must be non-negative, got {omega}")
    return PropagatorKernels(dim=1, flow=_harmonic_flow(m, omega))


def qmupl_kernels(m: float, omega: float, lam: float, mu: float) -> PropagatorKernels:
    """Kernels of the dissipative collapse model with channels
    ``(q, -mu p)``.

    The 2x2 flow uses the shifted frequency
    ``omega_tilde = sqrt(omega^2 - (lam mu)^2)``; construction is rejected
    for a non-positive mass, a negative ``omega``, ``mu`` or ``lam``, or a
    shift that would make ``omega_tilde`` imaginary.
    """
    require_finite(m=m, omega=omega, lam=lam, mu=mu)
    if m <= 0:
        raise ValueError(f"mass must be positive, got {m}")
    if omega < 0 or mu < 0 or lam < 0:
        raise ValueError("omega, mu and lam must be non-negative")
    lm = lam * mu
    if omega**2 <= lm**2:
        raise ValueError(
            "effective frequency sqrt(omega^2 - (lam*mu)^2) must be real: "
            f"omega^2={omega**2} <= (lam*mu)^2={lm**2}"
        )
    wt = float(np.sqrt(omega**2 - lm**2))

    def flow(u):
        u = np.asarray(u, dtype=float)
        c, s = np.cos(wt * u), np.sin(wt * u)
        out = np.empty((2, 2) + u.shape)
        out[0, 0] = c - (lm / wt) * s
        out[0, 1] = -s / (m * wt)
        out[1, 0] = (m * omega**2 / wt) * s
        out[1, 1] = c + (lm / wt) * s
        return out

    return PropagatorKernels(dim=2, flow=flow)


@dataclass(frozen=True)
class CommutatorKernel:
    """c-number commutator kernel ``f_jk(t, s) = [A_j(t), A_k(s)]``.

    Values are purely imaginary for canonical ``q``/``p`` channel
    combinations and antisymmetric under ``(j, t) <-> (k, s)``.
    ``evaluator(j, k, u)`` returns ``f_jk`` at the lag ``u = t - s``;
    calling the kernel as ``f(j, k, t, s)`` evaluates it at ``t - s``.
    ``is_zero`` marks constant coupling operators (pure dephasing), for
    which all Wick corrections vanish identically.
    """

    n_channels: int
    evaluator: Callable[[int, int, np.ndarray], np.ndarray] = field(repr=False)
    is_zero: bool = False

    def __call__(self, j: int, k: int, t, s):
        if not (0 <= j < self.n_channels and 0 <= k < self.n_channels):
            raise ValueError(f"channel pair ({j}, {k}) outside range")
        return self.evaluator(j, k, np.asarray(t, dtype=float) - np.asarray(s, dtype=float))


def _channel_matrix(channel_ops: Sequence) -> np.ndarray:
    rows = []
    for spec in channel_ops:
        if isinstance(spec, str):
            if spec == "q":
                rows.append((1.0, 0.0))
            elif spec == "p":
                rows.append((0.0, 1.0))
            else:
                raise ValueError(
                    f"channel spec {spec!r} is not a linear combination of q and p"
                )
        else:
            cq, cp = spec
            rows.append((float(cq), float(cp)))
    return np.array(rows)


def commutator_kernel(kernels: PropagatorKernels, channel_ops: Sequence) -> CommutatorKernel:
    """Commutator kernel of linear channels under a quadratic Hamiltonian.

    Each entry of ``channel_ops`` is either ``"q"``, ``"p"`` or a pair of
    coefficients ``(c_q, c_p)`` defining the channel operator
    ``c_q q + c_p p``; anything else is rejected as outside the
    linear-system scope.  With ``S`` the channel matrix and ``Phi`` the
    flow, ``f_jk(t, s) = i [S Phi(-u) Omega S^T]_jk`` at the lag
    ``u = t - s``, which for single-channel position coupling reduces to
    ``f(t, s) = -i sin(omega u) / (m omega)``.
    """
    S = _channel_matrix(channel_ops)
    # row k is Omega S[k]; Omega only swaps and negates, so this is exact
    OS = S @ SYMPLECTIC_FORM.T
    flow = kernels.flow

    def evaluator(j, k, u):
        u = np.asarray(u, dtype=float)
        # f_jk(t, s) reads the flow at s - t = -u
        mat = np.einsum("a,abX,b->X", S[j], flow(-u).reshape(2, 2, -1), OS[k])
        return 1j * mat.reshape(u.shape)

    return CommutatorKernel(S.shape[0], evaluator, is_zero=not S.any())


def fock_operators(dim: int, m: float = 1.0, omega: float = 1.0) -> dict:
    """Position, momentum and number matrices in a truncated Fock basis.

    Standard ladder construction with ``q = (a + a^dag) / sqrt(2 m omega)``
    and ``p = i sqrt(m omega / 2) (a^dag - a)``.  The bottom-right
    row/column violates the canonical commutator; accuracy assertions
    should exclude the last basis state.
    """
    require_finite(dim=dim, m=m, omega=omega)
    if dim < 2:
        raise ValueError(f"Fock dimension must be at least 2, got {dim}")
    if m <= 0 or omega <= 0:
        raise ValueError("m and omega must be positive")
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    ad = a.conj().T
    q = (a + ad) / np.sqrt(2.0 * m * omega)
    p = 1j * np.sqrt(m * omega / 2.0) * (ad - a)
    return {"q": q, "p": p, "number": ad @ a}


def quadratic_hamiltonian(dim: int, m: float = 1.0, omega: float = 1.0) -> np.ndarray:
    """Fock matrix of ``p^2/2m + m omega^2 q^2 / 2``; a ``{q, p}`` shift
    enters the generator through its weights, not this matrix."""
    ops = fock_operators(dim, m, omega)
    q, p = ops["q"], ops["p"]
    return p @ p / (2.0 * m) + 0.5 * m * omega**2 * (q @ q)
