"""Brute-force ground truth: exact unitary evolution of the system plus
a few discrete bath modes, followed by a partial trace.

The joint Hamiltonian ``H`` is time independent, so the evolution is one
eigendecomposition.  ``H`` is assembled sparse, and ``eigh`` runs only on
the sectors the initial state reaches: the connected components of the
nonzero pattern of ``H`` that hold the support of ``psi0``.  ``H`` is
block diagonal over its components, so no amplitude leaves them and the
result is exact at every sample time, with no step size and no integrator coupling between oracle
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
# expm is not called here; perfbench/tracing.py wraps this name
from scipy.linalg import eigh, expm  # noqa: F401

from .bath import CorrelationKernel, make_discrete_modes
from .propagate import Trajectory, diagnostics, trace_distance

__all__ = [
    "JointModel",
    "build_joint",
    "evolve_joint",
    "compare_with_me",
    "recurrence_estimate",
]

DEFAULT_DIMENSION_CAP = 4096


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
    dimension_cap: int = DEFAULT_DIMENSION_CAP

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
            object.__setattr__(self, "mode_dims", tuple(6 for _ in freqs))
        if len(self.mode_dims) != freqs.size:
            raise ValueError("one Fock dimension per mode required")
        dim = self.joint_dim
        if dim > self.dimension_cap:
            raise ValueError(
                f"joint dimension {dim} exceeds cap {self.dimension_cap}"
            )
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

    def correlation_kernel(self) -> CorrelationKernel:
        """The bath kernel induced by the mode list (vacuum state)."""
        return make_discrete_modes(self.mode_freqs, self.couplings)


def build_joint(model: JointModel):
    """Assemble the joint Hamiltonian as a sparse CSR matrix.

    ``H = H_S x 1 + 1 x sum_m w_m n_m + sum_jm A_j x (g_jm b_m + h.c.)``;
    real when every entry is real.  Hermiticity defect of the result is
    checked below 1e-12.
    """
    # imported here: only oracle runs pay for the module (~1.6 MiB)
    from scipy import sparse

    dims = model.mode_dims

    def embed(op, which):  # single-mode operator on the bath tensor product
        out = sparse.identity(1, format="csr")
        for m, dm in enumerate(dims):
            out = sparse.kron(out, op if m == which else sparse.identity(dm), format="csr")
        return out

    eye_s = sparse.identity(model.system_dim, format="csr")
    H = sparse.kron(model.h_system, sparse.identity(int(np.prod(dims))), format="csr")
    g = np.atleast_2d(np.asarray(model.couplings, dtype=complex))
    for m, (freq, dm) in enumerate(zip(model.mode_freqs, dims)):
        b = sparse.diags(np.sqrt(np.arange(1, dm, dtype=float)), 1, format="csr")
        H = H + freq * sparse.kron(eye_s, embed(b.T @ b, m), format="csr")
        for j, A in enumerate(model.channel_ops):
            if g[j, m] == 0:
                continue
            phi = g[j, m] * b + np.conj(g[j, m]) * b.T
            H = H + sparse.kron(A, embed(phi, m), format="csr")

    defect = abs(H - H.conj().T).max()
    if defect > 1e-12:
        raise ValueError(f"joint Hamiltonian not Hermitian: defect {defect:.3e}")
    if np.iscomplexobj(H.data) and not H.data.imag.any():
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
    params: dict | None = None,
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
    from scipy.sparse.csgraph import connected_components

    psi_s = np.asarray(psi0_system, dtype=complex)
    if abs(np.linalg.norm(psi_s) - 1.0) > 1e-10:
        raise ValueError("system state must be normalized")
    psi0 = np.kron(psi_s, _vacuum(model))

    H = build_joint(model)
    _, labels = connected_components(abs(H), directed=False)
    idx = np.flatnonzero(np.isin(labels, labels[psi0 != 0]))
    # one eigh over all reached components; real couplings give a real
    # symmetric block, diagonalized ~4x faster
    E, V = eigh(H[idx][:, idx].toarray())
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
        params=params or {},
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
