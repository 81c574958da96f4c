"""Brute-force ground truth: exact unitary evolution of the system plus
a few discrete bath modes, followed by a partial trace.

The joint Hamiltonian ``H`` is time independent, so the evolution is one
eigendecomposition.  ``H`` is a dense array built in place, and
``numpy.linalg.eigh`` runs only on the sectors the initial state
reaches: the connected components of the nonzero pattern of ``H`` that
hold the support of ``psi0``.  ``H`` is block diagonal over its
components, so no amplitude leaves them and the result is exact at every
sample time, with no step size and no integrator coupling between oracle
and master-equation errors.  The induced bath correlation kernel of a
model equals ``make_discrete_modes`` on the same ``(frequencies,
couplings)`` by construction, so both sides of a comparison share one
bath definition.

Discrete-mode kernels are quasi-periodic; comparisons are meaningful
only below the bath recurrence time, which the comparison report
estimates as ``2 pi / min gap(frequencies)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import eigh

from .propagate import Trajectory, diagnostics, trace_distance

__all__ = [
    "JointModel",
    "build_joint",
    "evolve_joint",
    "compare_with_me",
    "recurrence_estimate",
]

DEFAULT_DIMENSION_CAP = 4096
#: Fock dimension of a bath mode when none is given (plenty at weak coupling)
DEFAULT_MODE_DIM = 6


def __getattr__(name):
    # expm is not called here, but perfbench/tracing.py wraps this name;
    # scipy loads only on that access, so a command-line run never does
    if name == "expm":
        from scipy.linalg import expm

        return expm
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class JointModel:
    """System plus a finite list of bosonic bath modes.

    ``channel_ops`` are the Hermitian system coupling operators ``A_j``;
    ``couplings[j, m]`` couples channel ``j`` to mode ``m`` through the
    field ``g_jm b_m + conj(g_jm) b_m^dag``.  ``mode_dims`` truncates
    each mode's Fock space (6 is plenty at weak coupling).
    """

    h_system: np.ndarray = field(repr=False)
    channel_ops: tuple = field(repr=False)
    mode_freqs: tuple
    couplings: np.ndarray = field(repr=False)
    mode_dims: tuple = ()

    def __post_init__(self):
        freqs = np.asarray(self.mode_freqs, dtype=float)
        if freqs.size == 0:
            raise ValueError("need at least one bath mode")
        g = np.atleast_2d(np.asarray(self.couplings, dtype=complex))
        if g.shape != (len(self.channel_ops), freqs.size):
            raise ValueError(
                f"couplings shape {g.shape} inconsistent with "
                f"{len(self.channel_ops)} channels x {freqs.size} modes"
            )
        if not self.mode_dims:
            object.__setattr__(self, "mode_dims", tuple(DEFAULT_MODE_DIM for _ in freqs))
        if len(self.mode_dims) != freqs.size:
            raise ValueError("one Fock dimension per mode required")
        dim = self.joint_dim
        if dim > DEFAULT_DIMENSION_CAP:
            raise ValueError(f"joint dimension {dim} exceeds cap {DEFAULT_DIMENSION_CAP}")
        ds = self.h_system.shape[0]
        for op in self.channel_ops:
            if op.shape != (ds, ds):
                raise ValueError("channel operator dimension mismatch with system")

    @property
    def system_dim(self) -> int:
        return self.h_system.shape[0]

    @property
    def joint_dim(self) -> int:
        return self.system_dim * int(np.prod(self.mode_dims))


def build_joint(model: JointModel) -> np.ndarray:
    """Assemble the joint Hamiltonian as a dense array.

    ``H = H_S x 1 + 1 x sum_m w_m n_m + sum_jm A_j x (g_jm b_m + h.c.)``,
    written in place on the ``(system, bath, system, bath)`` view of
    ``H``: ``H_S`` on each bath-diagonal block, ``w_m n_m`` on the main
    diagonal and ``A_j g_jm sqrt(n_m)`` at each pair of bath states
    ``(n - e_m, n)`` with its conjugate at ``(n, n - e_m)``.  Real when
    every entry is real.  Hermiticity defect of the result is checked
    below 1e-12.
    """
    d_s, dims = model.system_dim, model.mode_dims
    n_b = int(np.prod(dims))
    N = d_s * n_b
    g = np.atleast_2d(np.asarray(model.couplings, dtype=complex))
    h_s, ops = model.h_system, model.channel_ops
    real = not any(np.iscomplexobj(x) and x.imag.any() for x in (g, h_s, *ops))
    if real:
        g, h_s, ops = g.real, h_s.real, [A.real for A in ops]
    H = np.zeros((N, N), dtype=float if real else complex)
    H4 = H.reshape(d_s, n_b, d_s, n_b)
    H4[:, np.arange(n_b), :, np.arange(n_b)] = h_s
    # occupation of each mode in each bath state (C order, last mode fastest)
    occ = np.indices(dims).reshape(len(dims), n_b)
    diag = H.reshape(-1)[:: N + 1]
    for m, freq in enumerate(model.mode_freqs):
        root = np.sqrt(occ[m])
        # sqrt(n) * sqrt(n) rounds like the matrix product b^dag b
        diag += np.tile(freq * (root * root), d_s)
        hi = np.flatnonzero(occ[m])  # states n with n_m >= 1
        lo = hi - int(np.prod(dims[m + 1 :]))  # n - e_m
        for j, A in enumerate(ops):
            if g[j, m] == 0:
                continue
            lower = (g[j, m] * root[hi])[:, None, None]
            H4[:, lo, :, hi] += A * lower
            H4[:, hi, :, lo] += A * np.conj(lower)

    # row blocks of about 64k entries: no second N x N array
    step = max(1, (1 << 16) // N)
    defect = max(
        np.abs(H[r : r + step] - H[:, r : r + step].conj().T).max() for r in range(0, N, step)
    )
    if defect > 1e-12:
        raise ValueError(f"joint Hamiltonian not Hermitian: defect {defect:.3e}")
    if not real and not H.imag.any():
        H = H.real
    return H


def _vacuum(model: JointModel) -> np.ndarray:
    vac = np.zeros(int(np.prod(model.mode_dims)), dtype=complex)
    vac[0] = 1.0
    return vac


def _reduce(psi: np.ndarray, d_s: int) -> np.ndarray:
    mat = psi.reshape(d_s, -1)
    return mat @ mat.conj().T


def evolve_joint(
    model: JointModel,
    psi0_system: np.ndarray,
    t_final: float,
    n_samples: int = 101,
    scenario: str = "",
) -> Trajectory:
    """Exact reduced dynamics of a factorized initial state.

    ``psi0_system`` is the (pure) system state; the bath starts in the
    vacuum.  ``idx`` lists the joint states in the connected components
    of ``H`` that hold a nonzero entry of ``psi0``.  With
    ``H[idx, idx] = V diag(E) V^dag`` the joint state at each of the
    ``n_samples`` times ``t_k`` in ``[0, t_final]`` is
    ``V (exp(-i E t_k) * V^dag psi0[idx])`` on ``idx`` and zero
    elsewhere; samples are reduced by partial trace over the bath.  A
    sampled norm off 1 by more than 1e-8 aborts the run.
    """
    psi_s = np.asarray(psi0_system, dtype=complex)
    if abs(np.linalg.norm(psi_s) - 1.0) > 1e-10:
        raise ValueError("system state must be normalized")
    psi0 = np.kron(psi_s, _vacuum(model))

    H = build_joint(model)
    # H is Hermitian, so its nonzero pattern is symmetric: a frontier
    # search from the support of psi0 finds exactly its components
    reached = frontier = psi0 != 0
    while frontier.any():
        frontier = (H[frontier] != 0).any(axis=0) & ~reached
        reached |= frontier
    idx = np.flatnonzero(reached)
    # one eigh over all reached components; real couplings give a real
    # symmetric block, diagonalized ~4x faster
    E, V = eigh(H if idx.size == H.shape[0] else H[np.ix_(idx, idx)])
    times = np.linspace(0.0, t_final, n_samples)
    psis = np.zeros((n_samples, H.shape[0]), dtype=complex)
    psis[:, idx] = (V @ (np.exp(-1j * np.outer(E, times)) * (V.conj().T @ psi0[idx])[:, None])).T

    d_s = model.system_dim
    states = []
    logs = {
        "trace": [],
        "hermiticity_defect": [],
        "min_eigenvalue": [],
        "purity": [],
        "norm": [],
    }
    for t, psi in zip(times, psis):
        norm = float(np.linalg.norm(psi))
        if abs(norm - 1.0) > 1e-8:
            raise RuntimeError(f"joint norm drifted to {norm} at t={t:.6g}")
        rho = _reduce(psi, d_s)
        states.append(rho)
        diag = diagnostics(rho)
        for key in ("trace", "hermiticity_defect", "min_eigenvalue", "purity"):
            logs[key].append(diag[key])
        logs["norm"].append(norm)

    return Trajectory(
        times=times,
        states=np.array(states),
        diagnostics=logs,
        scenario=scenario,
        source="oracle",
    )


def recurrence_estimate(mode_freqs) -> float:
    """Rough bath recurrence time ``2 pi / min gap`` of the mode comb.

    The gap set contains the frequencies themselves and their pairwise
    differences; a single mode gives ``2 pi / omega``.
    """
    freqs = np.sort(np.asarray(mode_freqs, dtype=float))
    gaps = list(freqs)
    for i in range(len(freqs)):
        for j in range(i + 1, len(freqs)):
            diff = freqs[j] - freqs[i]
            if diff > 1e-12:
                gaps.append(diff)
    return float(2.0 * np.pi / min(gaps))


def compare_with_me(
    oracle_traj: Trajectory, me_traj: Trajectory, mode_freqs=None
) -> dict:
    """Pointwise trace distances between matched trajectories.

    Rejects mismatched sample times or dimensions.  The report carries
    the distance curve, its maximum, and (when the mode comb is given)
    the bath recurrence estimate that bounds the meaningful window.
    """
    ta, tb = oracle_traj.times, me_traj.times
    if len(ta) != len(tb) or np.max(np.abs(np.asarray(ta) - np.asarray(tb))) > 1e-9:
        raise ValueError("trajectories sampled at different times")
    if oracle_traj.states.shape != me_traj.states.shape:
        raise ValueError("trajectories have different system dimensions")
    dists = [
        trace_distance(a, b) for a, b in zip(oracle_traj.states, me_traj.states)
    ]
    report = {
        "times": [float(t) for t in ta],
        "trace_distance": [float(d) for d in dists],
        "max_trace_distance": float(np.max(dists)),
    }
    if mode_freqs is not None:
        report["recurrence_time_estimate"] = recurrence_estimate(mode_freqs)
    return report
