"""Test-only helpers shared by several test modules."""

import numpy as np
from scipy.linalg import expm

from nmgme.grids import quad_weights
from nmgme.oracle import _reduce, _vacuum, build_joint
from nmgme.propagate import Trajectory, aligned_steps, diagnostics


def suffix_weights(n: int, h: float, method: str = "trapezoid") -> np.ndarray:
    """Matrix ``W`` with ``W[i, i:]`` the rule for ``integral_{t_i}^{t_max}``,
    one rule per row; the reference for the gathered suffix rule of
    :class:`nmgme.series.SeriesContext`."""
    W = np.zeros((n, n))
    for i in range(n - 1):
        W[i, i:] = quad_weights(n - i, h, method)
    return W


def stepped_evolve_joint(model, psi0_system, t_final, h, n_samples=101):
    """The former stepped oracle: one ``expm(-i H h)`` applied step by
    step, sampled on the aligned grid; the reference for the
    eigendecomposition in :func:`nmgme.oracle.evolve_joint`."""
    psi_s = np.asarray(psi0_system, dtype=complex)
    norm = np.linalg.norm(psi_s)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError("system state must be normalized")
    psi = np.kron(psi_s, _vacuum(model))

    H = build_joint(model)
    sample_times = np.linspace(0.0, t_final, n_samples)
    n_steps, h_eff = aligned_steps(t_final, h, n_samples)
    U = expm(-1j * H * h_eff)

    d_s = model.system_dim
    states = [_reduce(psi, d_s)]
    logs = {
        "trace": [],
        "hermiticity_defect": [],
        "min_eigenvalue": [],
        "purity": [],
        "norm": [],
    }

    def record(rho, vec):
        diag = diagnostics(rho)
        for key in ("trace", "hermiticity_defect", "min_eigenvalue", "purity"):
            logs[key].append(diag[key])
        logs["norm"].append(float(np.linalg.norm(vec)))

    record(states[0], psi)
    next_sample = 1
    t = 0.0
    for step in range(n_steps):
        psi = U @ psi
        t = (step + 1) * h_eff
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > 1e-8:
            raise RuntimeError(f"joint norm drifted to {norm} at t={t:.6g}")
        while next_sample < n_samples and sample_times[next_sample] <= t + 1e-12:
            rho = _reduce(psi, d_s)
            states.append(rho)
            record(rho, psi)
            next_sample += 1

    return Trajectory(
        times=sample_times[: len(states)],
        states=np.array(states),
        diagnostics=logs,
        source="oracle",
    )
