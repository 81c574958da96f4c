"""Test-only helpers shared by several test modules."""

import bisect
import csv
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import eigh, expm

from nmgme.bath import CorrelationKernel
from nmgme.coefficients import _ROWS, MECoefficients
from nmgme.grids import TimeGrid, lags, on_square, prefix_weights, quad_weights
from nmgme.oracle import JointModel, _reduce, _vacuum, build_joint
from nmgme.propagate import CoefficientInterpolator, Trajectory, _band, _real_of, aligned_steps, diagnostics, evolve
from nmgme.series import SeriesTables
from nmgme.system import CommutatorKernel, PropagatorKernels


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

    H = densify(build_joint(model))
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
    for step in range(1, n_steps + 1):
        psi = U @ psi
        t = step * h_eff
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > 1e-8:
            raise RuntimeError(f"joint norm drifted to {norm} at t={t:.6g}")
        if step % (n_steps // (n_samples - 1)) == 0:
            rho = _reduce(psi, d_s)
            states.append(rho)
            record(rho, psi)

    return Trajectory(
        times=sample_times[: len(states)],
        real_states=hermitian_real_forms(states),
        diagnostics=logs,
    )


def full_eigh_evolve_joint(model, psi0_system, t_final, n_samples=101):
    """The former eigendecomposition oracle: one ``eigh`` of the whole
    dense joint Hamiltonian; the reference for the sector Chebyshev
    expansion in :func:`nmgme.oracle.evolve_joint`."""
    psi_s = np.asarray(psi0_system, dtype=complex)
    if abs(np.linalg.norm(psi_s) - 1.0) > 1e-10:
        raise ValueError("system state must be normalized")
    psi0 = np.kron(psi_s, _vacuum(model))

    E, V = eigh(densify(build_joint(model)))
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
        real_states=hermitian_real_forms(states),
        diagnostics=logs,
    )


def hermitian_real_forms(states) -> np.ndarray:
    """The real forms ``M = Re h + Im h`` of the Hermitian parts
    ``h = (rho + rho^dag)/2`` of reduced states, the stored form of an
    oracle sample in :func:`nmgme.oracle.evolve_joint`."""
    return np.array([_real_of(0.5 * (rho + rho.conj().T)) for rho in states])


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the sum of singular values of the difference: the SVD
    reference for the eigenvalue form of :func:`nmgme.oracle.compare_with_me`."""
    return float(0.5 * np.sum(np.linalg.svd(rho - sigma, compute_uv=False)))


def former_rho_dump(states) -> list:
    """The former ``rho`` entry of a trajectory's JSON payload: each
    complex state's real and imaginary parts interleaved into a list of
    floats; the reference for the dump from the real forms."""
    flat = []
    for rho in states:
        inter = np.empty(2 * rho.size)
        inter[0::2] = rho.real.ravel()
        inter[1::2] = rho.imag.ravel()
        flat.append([float(x) for x in inter])
    return flat


def densify(entries) -> np.ndarray:
    """The dense array of the coalesced entries that
    :func:`nmgme.oracle.build_joint` returns or
    :func:`nmgme.oracle._chebyshev_propagate` receives."""
    out = np.zeros(entries.shape, dtype=entries.vals.dtype)
    out[entries.rows, entries.cols] = entries.vals
    return out


def kron_build_joint(model: JointModel) -> np.ndarray:
    """The former dense assembly of the joint Hamiltonian: one full-size
    complex ``np.kron`` per mode term and per coupling; the reference for
    the sparse entries of :func:`nmgme.oracle.build_joint`."""
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


@dataclass(frozen=True)
class KossakowskiForm:
    """Non-diagonal Kossakowski rewrite of a single-channel coefficient set.

    ``f_matrix[t]`` is the 2x2 coefficient matrix over the operator basis
    ``(A, V)`` entering
    ``sum_lm f_lm (F_l rho F_m - 1/2 {F_m F_l, rho})``;
    ``h_A2``, ``h_AV`` and ``h_comm`` are the (real) Hamiltonian-shift
    coefficients of ``A^2``, ``{A, V}`` and ``i[A, V]``.  The last term is
    a c-number shift for canonical pairs but must be kept as a matrix in a
    truncated basis, where it makes the rewrite an identity.
    """

    grid: TimeGrid
    f_matrix: np.ndarray = field(repr=False)
    h_A2: np.ndarray = field(repr=False)
    h_AV: np.ndarray = field(repr=False)
    h_comm: np.ndarray = field(repr=False)


def kossakowski_form(coeffs: MECoefficients) -> KossakowskiForm:
    """Rewrite single-channel coefficients in Kossakowski form.

    With the half-anticommutator generator convention the equivalent
    coefficient matrix over ``(A, V)`` is

    ``[[-2 Gamma, -Theta + Upsilon/2], [-Theta - Upsilon/2, 0]]``

    and the Hamiltonian shift is ``(i Xi / 2) A^2 + (i Upsilon / 4) {A, V}
    + (Theta / 2) i[A, V]`` (all coefficients real since ``Xi``,
    ``Upsilon`` are purely imaginary).  The rewrite is a pure algebraic
    rearrangement: it reproduces the direct generator identically, with no
    use of the canonical commutator.  Momentum-diffusion extras are
    outside this 2x2 rewrite.
    """
    if coeffs.n_channels != 1:
        raise ValueError("Kossakowski rewrite implemented for single-channel sets")
    if coeffs.has_extras() and np.max(np.abs(coeffs.gamma_pp)) > 0:
        raise ValueError("momentum-diffusion term has no 2x2 Kossakowski rewrite")
    G = coeffs.grid.n_points
    Gam = coeffs.Gamma[:, 0, 0]
    The = coeffs.Theta[:, 0, 0]
    Xi = coeffs.Xi[:, 0, 0]
    Ups = coeffs.Upsilon[:, 0, 0]
    f = np.zeros((G, 2, 2), dtype=complex)
    f[:, 0, 0] = -2.0 * Gam
    f[:, 0, 1] = -The + 0.5 * Ups
    f[:, 1, 0] = -The - 0.5 * Ups
    return KossakowskiForm(
        grid=coeffs.grid,
        f_matrix=f,
        h_A2=np.real(0.5j * Xi),
        h_AV=np.real(0.25j * Ups),
        h_comm=np.real(0.5 * The),
    )

def kossakowski_rhs(rho: np.ndarray, kform: KossakowskiForm, t_index: int, ops: dict) -> np.ndarray:
    """Right-hand side assembled from the Kossakowski rewrite.

    Equals :func:`nmgme.propagate.me_rhs` with the matching coefficient
    slice; the equivalence on random Hermitian inputs is part of the
    acceptance suite.
    """
    A = ops["A"][0]
    V = ops["V"][0]
    F = (A, V)
    f = kform.f_matrix[t_index]
    H = (
        ops["H0"]
        + kform.h_A2[t_index] * (A @ A)
        + kform.h_AV[t_index] * _acomm(A, V)
        + kform.h_comm[t_index] * 1j * _comm(A, V)
    )
    rhs = -1j * _comm(H, rho)
    for l in range(2):
        for m in range(2):
            if f[l, m] != 0:
                rhs = rhs + f[l, m] * (
                    F[l] @ rho @ F[m] - 0.5 * _acomm(F[m] @ F[l], rho)
                )
    return rhs


@dataclass
class DensityMatrix:
    """Hermitian unit-trace matrix in a truncated basis.

    Positivity violations beyond ``tol_pos`` are flagged by
    :meth:`validate`, never silently clipped.
    """

    matrix: np.ndarray
    tol_pos: float = 1e-8

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("density matrix must be square")

    def validate(self) -> dict:
        """Check Hermiticity and unit trace to 1e-12 and positivity;
        return diagnostics."""
        diag = diagnostics(self.matrix)
        if diag["hermiticity_defect"] > 1e-12:
            raise ValueError(
                f"state not Hermitian: defect {diag['hermiticity_defect']:.3e}"
            )
        if abs(diag["trace"] - 1.0) > 1e-12:
            raise ValueError(f"state trace {diag['trace']} differs from 1")
        diag["positive"] = diag["min_eigenvalue"] >= -self.tol_pos
        return diag

    @classmethod
    def pure(cls, vec: np.ndarray, **kw) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()), **kw)


def zero_commutator(n_channels: int = 1) -> CommutatorKernel:
    """Kernel of constant (mutually commuting) coupling operators."""

    def evaluator(j, k, u):
        return np.zeros(np.shape(u), dtype=complex)

    return CommutatorKernel(n_channels, evaluator, is_zero=True)


def scaled_kernel(kernel: CorrelationKernel, factor: float) -> CorrelationKernel:
    """``kernel`` with every entry multiplied by ``factor``."""
    base = kernel.evaluator
    return CorrelationKernel(
        n_channels=kernel.n_channels,
        evaluator=lambda j, k, u: factor * base(j, k, u),
        is_real=kernel.is_real and float(np.imag(factor)) == 0.0,
    )


def theta_mask(n: int) -> np.ndarray:
    """Samples of the unit step ``theta(t_a - t_b)`` on the grid square:
    ``M[a, b]`` is 1 for ``a > b``, 1/2 on the diagonal and 0 above it."""
    M = np.tril(np.ones((n, n)), k=-1)
    np.fill_diagonal(M, 0.5)
    return M


def square_samples(D: CorrelationKernel, f: CommutatorKernel, grid: TimeGrid) -> dict:
    """Reference for :class:`nmgme.series.SampledKernels`: ``D`` and ``f``
    evaluated at every pair ``(t_a, t_b)`` of the grid square, in the
    blocked layout ``X[(a, j), (b, k)]``, with the half-weight step
    applied as in the series: ``Gamma1`` and ``Phi`` from ``Im f``."""
    d, n = D.n_channels, grid.n_points
    T1, T2 = np.meshgrid(grid.points, grid.points, indexing="ij")
    Dv = np.array([[D(j, k, T1, T2) for k in range(d)] for j in range(d)])
    F = np.array([[f(j, k, T1, T2) for k in range(d)] for j in range(d)], dtype=complex)

    def blk(X):
        return np.ascontiguousarray(X.transpose(2, 0, 3, 1).reshape(n * d, n * d))

    theta = np.repeat(np.repeat(theta_mask(n), d, axis=0), d, axis=1)
    F_im = blk(F.imag)
    return {
        "DRe": blk(np.real(Dv)),
        "DIm": blk(np.imag(Dv)),
        "Gamma1": np.ascontiguousarray((theta * F_im).T),
        "Phi": theta.T * F_im,
    }


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
    n_steps, h_eff = aligned_steps(t_final, h, n_samples)
    out = [y.copy()]
    t = 0.0
    for step in range(1, n_steps + 1):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h_eff, y + 0.5 * h_eff * k1)
        k3 = rhs(t + 0.5 * h_eff, y + 0.5 * h_eff * k2)
        k4 = rhs(t + h_eff, y + h_eff * k3)
        y = y + (h_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = step * h_eff
        if step % (n_steps // (n_samples - 1)) == 0:
            out.append(y.copy())
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


def simpson_loop_weights(n: int, h: float) -> np.ndarray:
    """Reference: the composite Simpson rule of :func:`nmgme.grids.quad_weights`
    built one panel pair at a time, with the trapezoid tail."""
    w = np.zeros(n)
    panels = n - 1
    for p in range(panels // 2):
        i = 2 * p
        w[i] += h / 3
        w[i + 1] += 4 * h / 3
        w[i + 2] += h / 3
    if panels % 2 == 1:
        w[-2] += h / 2
        w[-1] += h / 2
    return w


def closure_reference(
    D: CorrelationKernel,
    grid: TimeGrid,
    method: str,
    kernels: PropagatorKernels | None = None,
    lam_scale: float = 1.0,
) -> dict:
    """Reference: the former separate zeroth-order path of the
    non-dissipative (``kernels`` given) and pure-dephasing (``kernels``
    None, identity flow) coefficients.

    ``A = lam_scale D^Re`` and ``B = lam_scale D^Im`` of channel 0 on the
    whole grid square, contracted with the flow against a prefix rule of
    its own; returns ``Gamma``, ``Theta``, ``Xi``, ``Upsilon`` as complex
    ``(G,)`` arrays.
    """
    G, u = grid.n_points, lags(grid)
    val = D(0, 0, u, 0.0)
    X = {
        x: np.ascontiguousarray(on_square(lam_scale * part))[None, None]
        for x, part in (("A", val.real), ("B", val.imag))
    }
    if kernels is None:
        phi = np.broadcast_to(np.eye(2)[:, :, None, None], (2, 2, G, G))
    else:
        phi = np.ascontiguousarray(on_square(kernels.flow(u)))
    W = prefix_weights(G, grid.h, method)
    I = {x: np.einsum("Ks,jkKs,lmKs->Kjklm", W, arr, phi) for x, arr in X.items()}
    out = {}
    for name, x, j, k, l, m, factor in _ROWS:
        if j == k == 0:
            out[name] = out.get(name, 0) + factor * I[x][:, j, k, l, m]
    return {name: np.asarray(out[name], dtype=complex) for name in ("Gamma", "Theta", "Xi", "Upsilon")}


def csv_writer_coefficients(coeffs: MECoefficients, path) -> None:
    """Reference for :func:`nmgme.coefficients.write_coefficients_csv`:
    the table written one formatted scalar at a time through
    ``csv.writer``."""
    d = coeffs.n_channels
    names = []
    for base in ("Gamma", "Theta", "Xi", "Upsilon"):
        for j in range(d):
            for k in range(d):
                tag = base if d == 1 else f"{base}_{j + 1}{k + 1}"
                names.append((base, j, k, tag))
    header = ["t"]
    for _, _, _, tag in names:
        header += [f"{tag}_re", f"{tag}_im"]
    extras = []
    if coeffs.has_extras():
        extras = ["alpha", "beta", "gamma_pp"]
        header += extras
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, t in enumerate(coeffs.grid.points):
            row = [f"{t:.17g}"]
            for base, j, k, _ in names:
                val = getattr(coeffs, base)[i, j, k]
                row += [f"{val.real:.17g}", f"{val.imag:.17g}"]
            for name in extras:
                row.append(f"{getattr(coeffs, name)[i]:.17g}")
            writer.writerow(row)


def csv_writer_convergence(tables: SeriesTables, path) -> None:
    """Reference for :func:`nmgme.series.dump_convergence_csv`: one
    ``csv.writer`` row per outer time and included order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "n", "norm_alpha", "norm_beta"])
        for t, n_K, norms in zip(tables.grid.points, tables.achieved_order, tables.norms):
            for n, (na, nb) in enumerate(norms[:n_K], 1):
                writer.writerow([f"{t:.17g}", n, f"{na:.17g}", f"{nb:.17g}"])


def rk4_step_matrices(K: np.ndarray, h: float) -> np.ndarray:
    """The former ``propagate._rk4_step_matrices``: the RK4 step matrices
    ``P`` of ``dy/dt = K(t) y`` from the stage matrices ``K`` (``t``,
    ``t + h/2``, ``t + h`` of each step, step-major), the tableau written
    out; the reference for the RK4 step of the identity."""
    K0, Km, K1 = K[0::3], K[1::3], K[2::3]
    eye = np.eye(K.shape[-1])
    k2 = Km @ (eye + 0.5 * h * K0)
    k3 = Km @ (eye + 0.5 * h * k2)
    k4 = K1 @ (eye + h * k3)
    return eye + (h / 6.0) * (K0 + 2.0 * k2 + 2.0 * k3 + k4)


def dense_banded(form, w: np.ndarray) -> np.ndarray:
    """The former band coefficients of weight rows ``w``: the dense ``X``
    and ``Fhat_b`` of every row (the former ``_SandwichForm.dense``),
    ``Ahat_m = sum_b C_bm Fhat_b``, then the band rows of
    ``[X; iX; Ahat_1..Ahat_N]`` cut from the dense stack; the reference
    for :meth:`nmgme.propagate._SandwichForm.banded`."""
    s, n, n_x, dim = len(w), form.n, form.n_x, form.dim
    X = np.tensordot(w[:, :n_x], form._products[:n_x], 1)[:, None]
    Fhat = np.tensordot(w[:, 2 * n_x :].reshape(s, n, n), form._F, 1)
    Ahat = (form.C.T @ Fhat.reshape(s, n, -1)).reshape(s, -1, dim, dim)
    coef = _band(np.concatenate([X, 1j * X, Ahat], axis=1), form.band)
    return np.ascontiguousarray(coef.transpose(0, 2, 1, 3)).view(float)


def product_coherent_state(dim: int, alpha: complex) -> np.ndarray:
    """The former ``scenarios.coherent_state``: ``exp(-|alpha|^2 / 2)
    alpha^n / exp(log(n!) / 2)``, normalized, which overflows to NaN at
    large ``dim`` and ``alpha``."""
    n = np.arange(dim)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        amps = np.exp(-0.5 * abs(alpha) ** 2) * alpha**n / np.exp(0.5 * log_fact)
        return amps / np.linalg.norm(amps)


def stage_rhs(stages, y: np.ndarray, stage: tuple) -> np.ndarray:
    """The former ``_Stages.__call__``: ``dy/dt`` at the stepped state
    ``y`` under ``stage`` (its grid interval ``k`` and ``t - t_k``), one
    stage of ``stages`` at a time; on the band path ``y`` may also be
    ``M`` itself, and ``dy/dt`` takes its shape.  The reference for
    :meth:`nmgme.propagate._Stages.step`."""
    k, dt = stage
    if k != stages._key:
        stages._load(k)
    if stages._small:
        return stages._op @ np.concatenate([y, y * dt])
    form = stages.form
    return form(y.reshape(form.dim, -1), stages._band_stage(stage)).reshape(y.shape)


def real_parts(F: np.ndarray) -> np.ndarray:
    """The distinct nonzero real and imaginary parts ``R_m`` of the
    operators ``F``, ``(N, dim, dim)``, in the order in which
    :class:`nmgme.propagate._SandwichForm` takes them."""
    R = []
    for f in F:
        for part in (f.real, f.imag):
            if part.any() and not any(np.array_equal(r, part) for r in R):
                R.append(part)
    return np.array(R, dtype=float).reshape(-1, F.shape[-1], F.shape[-1])


def one_row_stage(M: np.ndarray, coef: np.ndarray, R: np.ndarray, b: int) -> np.ndarray:
    """The former band stage, whose second product took one output row a
    core: ``dM/dt = Q + Q'^T + sum_n Yhat_n R_n`` at the real ``M`` under
    the band coefficients ``coef`` ``(dim, N + 2, 2 (2 b + 1))`` of
    ``[X; iX; Ahat_1..Ahat_N]`` over the real parts ``R`` of half-bandwidth
    ``b``.  Both products take row ``i`` from the window of rows
    ``i - b .. i + b`` of a zero-padded buffer, interleaved over its
    matrices; the reference for :meth:`nmgme.propagate._SandwichForm.__call__`."""

    def band_product(rows_coef, mats):
        g, dim = len(mats), len(M)
        buf = np.zeros((dim + 2 * b, g, dim))
        buf[b : b + dim] = mats.transpose(1, 0, 2)
        windows = sliding_window_view(buf.reshape(-1, dim), g * (2 * b + 1), axis=0)[:: max(g, 1)]
        return rows_coef @ windows.transpose(0, 2, 1)

    T = band_product(coef, np.stack([M, M.T])).transpose(1, 0, 2)  # Q, Q', Yhat_1..Yhat_N
    RT = _band(R.transpose(0, 2, 1), b).transpose(1, 2, 0).reshape(len(M), 1, -1)
    S = band_product(RT, T[2:].transpose(0, 2, 1))[:, 0]  # (sum_n Yhat_n R_n)^T
    return (S + T[1]).T + T[0]
