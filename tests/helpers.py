"""Test-only helpers shared by several test modules."""

import bisect

import numpy as np
from scipy.linalg import eigh, expm

from nmgme.grids import TimeGrid, prefix_weights, quad_weights
from nmgme.oracle import JointModel, _reduce, _vacuum, build_joint
from nmgme.propagate import CoefficientInterpolator, Trajectory, aligned_steps, diagnostics, evolve


def _check_finite(samples: np.ndarray) -> None:
    flat = np.asarray(samples)
    bad = ~np.isfinite(flat)
    if bad.any():
        idx = tuple(np.argwhere(bad)[0])
        raise ValueError(f"non-finite sample at index {idx}")


def integrate_1d(
    samples: np.ndarray,
    grid: TimeGrid,
    k: int | None = None,
    method: str = "trapezoid",
) -> complex:
    """Integrate sampled values over the grid prefix ``[0, t_k]``.

    ``samples`` must hold the integrand on ``grid.points[: k + 1]``; when
    ``k`` is omitted it is inferred from the sample count.  Exact for
    affine integrands under the trapezoid rule.
    """
    samples = np.asarray(samples)
    if k is None:
        k = samples.shape[-1] - 1
    if samples.shape[-1] != k + 1:
        raise ValueError(f"expected {k + 1} samples, got {samples.shape[-1]}")
    _check_finite(samples)
    if k == 0:
        return 0.0 * samples[..., 0]
    w = quad_weights(k + 1, grid.h, method)
    return samples @ w


def integrate_triangular(
    samples: np.ndarray,
    grid: TimeGrid,
    k: int | None = None,
    method: str = "trapezoid",
) -> complex:
    """Integrate ``f(tau, s)`` over the triangle ``0 <= s <= tau <= t_k``.

    ``samples[a, b]`` holds ``f(t_a, t_b)`` for ``b <= a`` (entries above
    the diagonal are ignored).  The rule is the iterated 1D rule; the
    diagonal automatically receives the boundary weight of the inner rule.
    """
    samples = np.asarray(samples)
    if k is None:
        k = samples.shape[0] - 1
    if samples.shape[0] != k + 1 or samples.shape[1] != k + 1:
        raise ValueError(f"expected ({k + 1}, {k + 1}) samples, got {samples.shape}")
    _check_finite(np.tril(samples))
    if k == 0:
        return 0.0 * samples[0, 0]
    w_out = quad_weights(k + 1, grid.h, method)
    W_in = prefix_weights(k + 1, grid.h, method)
    inner = np.einsum("ab,ab->a", W_in, np.tril(samples))
    return inner @ w_out


def richardson_check(rho0, coeffs, ops, t_final, h, **kw) -> float:
    """Step-halving error estimate for a fixed-step run.

    Propagates with steps ``h`` and ``h/2`` and returns the largest
    elementwise final-state difference; a cheap consistency diagnostic in
    place of adaptive control, which would break the determinism of the
    golden files.
    """
    full = evolve(rho0, coeffs, ops, t_final, h, n_samples=2, **kw)
    half = evolve(rho0, coeffs, ops, t_final, h / 2.0, n_samples=2, **kw)
    return float(np.max(np.abs(full.states[-1] - half.states[-1])))


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


def full_eigh_evolve_joint(model, psi0_system, t_final, n_samples=101):
    """The former eigendecomposition oracle: one ``eigh`` of the whole
    dense joint Hamiltonian; the reference for the sector ``eigh`` in
    :func:`nmgme.oracle.evolve_joint`."""
    psi_s = np.asarray(psi0_system, dtype=complex)
    if abs(np.linalg.norm(psi_s) - 1.0) > 1e-10:
        raise ValueError("system state must be normalized")
    psi0 = np.kron(psi_s, _vacuum(model))

    E, V = eigh(build_joint(model))
    times = np.linspace(0.0, t_final, n_samples)
    psis = (V @ (np.exp(-1j * np.outer(E, times)) * (V.conj().T @ psi0)[:, None])).T

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
        source="oracle",
    )


def kron_build_joint(model: JointModel) -> np.ndarray:
    """The former dense assembly of the joint Hamiltonian: one full-size
    complex ``np.kron`` per mode term and per coupling; the reference for
    the in-place assembly in :func:`nmgme.oracle.build_joint`."""
    dims = model.mode_dims
    d_bath = int(np.prod(dims))
    eye_s = np.eye(model.system_dim, dtype=complex)
    eye_b = np.eye(d_bath, dtype=complex)

    def _mode_operator(op, which, mode_dims):
        out = np.array([[1.0 + 0j]])
        for m, dm in enumerate(mode_dims):
            out = np.kron(out, op if m == which else np.eye(dm, dtype=complex))
        return out

    H = np.kron(model.h_system.astype(complex), eye_b)
    g = np.atleast_2d(np.asarray(model.couplings, dtype=complex))
    for m, (freq, dm) in enumerate(zip(model.mode_freqs, dims)):
        b = np.diag(np.sqrt(np.arange(1, dm, dtype=float)), k=1).astype(complex)
        number = b.conj().T @ b
        H += freq * np.kron(eye_s, _mode_operator(number, m, dims))
        for j, A in enumerate(model.channel_ops):
            if g[j, m] == 0:
                continue
            phi = g[j, m] * b + np.conj(g[j, m]) * b.conj().T
            H += np.kron(A.astype(complex), _mode_operator(phi, m, dims))
    return H


def scalar_interp(interp: CoefficientInterpolator, t: float) -> dict:
    """The coefficient slice at ``t`` by one interval lookup and one row
    blend, the former ``CoefficientInterpolator.__call__``; the reference
    for the vectorised stage rows."""
    nodes = interp.nodes.tolist()
    t = min(max(float(t), nodes[0]), nodes[-1])
    j = bisect.bisect_right(nodes, t) - 1
    if nodes[j] == t:
        row = interp.table[j].copy()
    else:
        row = interp.slopes[j] * (t - nodes[j]) + interp.table[j]
    d = interp.coeffs.n_channels
    n = 2 * d * d
    out = {
        name: row[i * n : (i + 1) * n].view(complex).reshape(d, d)
        for i, name in enumerate(interp.names)
    }
    for i, name in enumerate(interp.extras):
        out[name] = float(row[len(interp.names) * n + i])
    out["lam_mu"] = interp.coeffs.lam_mu
    return out


def _comm(x, y):
    return x @ y - y @ x


def _acomm(x, y):
    return x @ y + y @ x


def outer_commutator_rhs(rho, coeff, ops):
    """The former ``me_rhs``: ``-i[H_eff, rho] + sum_j [A_j, L_j rho +
    rho R_j] + gamma_pp [p,[p,rho]]`` with ``p @ p`` and ``{q, p}`` built
    on every call; the reference for the sandwich form."""
    A = ops["A"]
    V = ops.get("V")
    H = ops["H0"]
    Gam, The = coeff["Gamma"], coeff["Theta"]
    Xi, Ups = coeff["Xi"], coeff["Upsilon"]
    alpha = coeff.get("alpha", 0.0)
    beta = coeff.get("beta", 0.0)
    gamma_pp = coeff.get("gamma_pp", 0.0)
    lam_mu = coeff.get("lam_mu", 0.0)
    if alpha or beta or lam_mu:
        q, p = ops["q"], ops["p"]
        H = H + alpha * (p @ p) + (beta + 0.5 * lam_mu) * _acomm(q, p)

    rhs = -1j * _comm(H, rho)
    families = [(A, Gam, Xi)] if V is None else [(A, Gam, Xi), (V, The, Ups)]
    d = len(A)

    def mix(j, sign):  # L_j for sign 1, R_j for sign -1
        return sum((sign * c[j, k] + 0.5 * x[j, k]) * X[k] for X, c, x in families for k in range(d))

    for j in range(d):
        Z = mix(j, 1.0) @ rho
        Z += rho @ mix(j, -1.0)
        rhs += _comm(A[j], Z)
    if gamma_pp:
        p = ops["p"]
        rhs = rhs + gamma_pp * _comm(p, _comm(p, rho))
    return rhs


def _stepped_rk4(rhs, y, t_final, h, n_samples):
    """Fixed-step RK4 of ``dy/dt = rhs(t, y)`` on the aligned grid; the
    states at the sample times."""
    sample_times = np.linspace(0.0, t_final, n_samples)
    n_steps, h_eff = aligned_steps(t_final, h, n_samples)
    out = [y.copy()]
    next_sample = 1
    t = 0.0
    for step in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h_eff, y + 0.5 * h_eff * k1)
        k3 = rhs(t + 0.5 * h_eff, y + 0.5 * h_eff * k2)
        k4 = rhs(t + h_eff, y + h_eff * k3)
        y = y + (h_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = (step + 1) * h_eff
        while next_sample < n_samples and sample_times[next_sample] <= t + 1e-12:
            out.append(y.copy())
            next_sample += 1
    return np.array(out)


def reference_evolve(rho0, coeffs, ops, t_final, h, n_samples):
    """The former ``evolve``: one interpolated coefficient dict and one
    :func:`outer_commutator_rhs` per RK4 stage; sampled states and their
    diagnostics."""
    interp = CoefficientInterpolator(coeffs)
    states = _stepped_rk4(
        lambda t, y: outer_commutator_rhs(y, scalar_interp(interp, t), ops),
        np.asarray(rho0, dtype=complex), t_final, h, n_samples,
    )
    diags = [diagnostics(r) for r in states]
    return states, {key: np.array([g[key] for g in diags]) for key in diags[0]}


def reference_evolve_moments(m0, coeffs, m, omega, t_final, h, n_samples):
    """The former ``evolve_moments``: the drift ``M`` and diffusion
    ``Dd`` rebuilt from an interpolated dict at every RK4 stage; sampled
    ``(mean, vec cov)`` rows."""
    interp = CoefficientInterpolator(coeffs)
    a_q = 0.5 * m * omega**2

    def rhs(t, y):
        c = scalar_interp(interp, t)
        a_p = 0.5 / m + c.get("alpha", 0.0)
        a_x = 0.5 * c.get("lam_mu", 0.0) + c.get("beta", 0.0)
        M = np.array(
            [
                [2.0 * a_x, 2.0 * a_p],
                [-2.0 * a_q + np.imag(c["Xi"][0, 0]), -2.0 * a_x + np.imag(c["Upsilon"][0, 0])],
            ]
        )
        theta = np.real(c["Theta"][0, 0])
        Dd = np.array([[-2.0 * c.get("gamma_pp", 0.0), theta], [theta, -2.0 * np.real(c["Gamma"][0, 0])]])
        mean, cov = y[:2], y[2:].reshape(2, 2)
        return np.concatenate([M @ mean, (M @ cov + cov @ M.T + Dd).ravel()])

    y0 = np.concatenate([m0.mean, m0.cov.ravel()])
    return _stepped_rk4(rhs, y0, t_final, h, n_samples)
