"""Density-matrix and Gaussian-moment propagation under the time-local
master equation.

Generator convention (channels ``A_j``, ``V_j`` the momentum-type
operators conjugate to the velocity kernel):

``drho/dt = -i[H_eff, rho] + sum_jk Gamma_jk [A_j,[A_k,rho]]
+ Theta_jk [A_j,[V_k,rho]] + (Xi_jk/2) [A_j,{A_k,rho}]
+ (Upsilon_jk/2) [A_j,{V_k,rho}] + gamma_pp [p,[p,rho]]``

with ``H_eff = H0 + alpha(t) p^2 + (beta(t) + lam_mu/2) {q,p}``.  The
half weights on the anticommutator channels realize the
half-anticommutator superoperator of the left-right formalism.

Every dissipative term is an outer commutator with a channel operator,
so the generator is evaluated in one form for every model:

``drho/dt = -i[H_eff, rho] + sum_j [A_j, L_j rho + rho R_j]
+ gamma_pp [p,[p,rho]]``

``L_j = sum_k (Gamma_jk + Xi_jk/2) A_k + (Theta_jk + Upsilon_jk/2) V_k``
``R_j = sum_k (Xi_jk/2 - Gamma_jk) A_k + (Upsilon_jk/2 - Theta_jk) V_k``

(the ``V`` terms are dropped when there is no ``V``).  ``L_j`` and
``R_j`` are scalar-times-matrix sums, so a channel costs four matrix
products.  The right-hand side is traceless and Hermiticity preserving
by construction; ``rho`` is not assumed Hermitian, so the Hermiticity
defect of a run stays a measurement (verified in the test suite, not
assumed).

Integration is classical fixed-step fourth-order Runge-Kutta with
coefficients linearly interpolated between grid nodes.  Per-step
renormalization is off by default: trace drift is a diagnostic, not a
knob.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .coefficients import KossakowskiForm, MECoefficients

__all__ = [
    "DensityMatrix",
    "GaussianMoments",
    "Trajectory",
    "MomentTrajectory",
    "EvolutionError",
    "TruncationError",
    "me_rhs",
    "kossakowski_rhs",
    "evolve",
    "evolve_moments",
    "richardson_check",
    "diagnostics",
    "trace_distance",
    "CoefficientInterpolator",
    "aligned_steps",
]

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12


class EvolutionError(RuntimeError):
    """Propagation aborted; carries the last valid time."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class TruncationError(EvolutionError):
    """Population reached the top of the truncated Fock basis."""


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

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def validate(self) -> dict:
        """Check Hermiticity, unit trace and positivity; return diagnostics."""
        diag = diagnostics(self.matrix)
        if diag["hermiticity_defect"] > _HERM_TOL:
            raise ValueError(
                f"state not Hermitian: defect {diag['hermiticity_defect']:.3e}"
            )
        if abs(diag["trace"] - 1.0) > _TRACE_TOL:
            raise ValueError(f"state trace {diag['trace']} differs from 1")
        diag["positive"] = diag["min_eigenvalue"] >= -self.tol_pos
        return diag

    @classmethod
    def pure(cls, vec: np.ndarray, **kw) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()), **kw)


@dataclass
class GaussianMoments:
    """First and second moments of a single-mode Gaussian state.

    ``mean = (<q>, <p>)`` and ``cov`` the symmetric covariance matrix
    ``[[s_qq, s_qp], [s_qp, s_pp]]``.  The uncertainty product is
    monitored, not enforced.
    """

    mean: np.ndarray
    cov: np.ndarray
    tol_pos: float = 1e-8

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(2)
        self.cov = np.asarray(self.cov, dtype=float).reshape(2, 2)
        if np.max(np.abs(self.cov - self.cov.T)) > 1e-12:
            raise ValueError("covariance matrix must be symmetric")
        if self.cov[0, 0] <= 0 or self.cov[1, 1] <= 0:
            raise ValueError("diagonal covariances must be positive")

    def uncertainty_ok(self) -> bool:
        det = self.cov[0, 0] * self.cov[1, 1] - self.cov[0, 1] ** 2
        return det >= 0.25 - self.tol_pos

    @classmethod
    def coherent(cls, q0: float, p0: float, m: float = 1.0, omega: float = 1.0):
        """Moments of a coherent state of the ``(m, omega)`` oscillator."""
        return cls(
            mean=[q0, p0],
            cov=[[1.0 / (2.0 * m * omega), 0.0], [0.0, m * omega / 2.0]],
        )


def _comm(x, y):
    return x @ y - y @ x


def _acomm(x, y):
    return x @ y + y @ x


class CoefficientInterpolator:
    """Linear interpolation of coefficient tables between grid nodes.

    All tables are stacked once into one real ``(G, n)`` array (complex
    entries as real/imaginary column pairs); a call is one interval lookup
    and one row blend, with the same arithmetic as ``np.interp``.  Times
    outside the grid are clipped to its ends.
    """

    def __init__(self, coeffs: MECoefficients):
        self.coeffs = coeffs
        t = coeffs.grid.points
        self._nodes = t.tolist()
        G, d = coeffs.grid.n_points, coeffs.n_channels
        self.names = ["Gamma", "Theta", "Xi", "Upsilon"]
        self.extras = ["alpha", "beta", "gamma_pp"] if coeffs.has_extras() else []
        cols = [
            np.asarray(getattr(coeffs, name), dtype=complex).reshape(G, d * d).view(float)
            for name in self.names
        ]
        cols += [np.asarray(getattr(coeffs, name), dtype=float).reshape(G, 1) for name in self.extras]
        self.table = np.hstack(cols)
        self.slopes = np.diff(self.table, axis=0) / np.diff(t)[:, None]
        self._d = d

    def __call__(self, t: float) -> dict:
        nodes = self._nodes
        t = min(max(float(t), nodes[0]), nodes[-1])
        j = bisect.bisect_right(nodes, t) - 1
        if nodes[j] == t:
            row = self.table[j].copy()
        else:
            row = self.slopes[j] * (t - nodes[j]) + self.table[j]
        d = self._d
        n = 2 * d * d
        out = {
            name: row[i * n : (i + 1) * n].view(complex).reshape(d, d)
            for i, name in enumerate(self.names)
        }
        for i, name in enumerate(self.extras):
            out[name] = float(row[len(self.names) * n + i])
        out["lam_mu"] = self.coeffs.lam_mu
        return out


def me_rhs(rho: np.ndarray, coeff: dict, ops: dict) -> np.ndarray:
    """Right-hand side of the time-local master equation.

    ``coeff`` is a coefficient slice (matrices ``Gamma``, ``Theta``,
    ``Xi``, ``Upsilon`` over channels, optional scalars ``alpha``,
    ``beta``, ``gamma_pp``, ``lam_mu``).  ``ops`` holds the channel
    matrices ``A`` (list), their velocity conjugates ``V`` (list), the
    free Hamiltonian ``H0`` and, when Hamiltonian shifts are present,
    ``q`` and ``p``.  Evaluated in the single form of the module
    docstring.
    """
    A = ops["A"]
    V = ops.get("V")
    H = ops["H0"]
    dim = rho.shape[0]
    for mat in A:
        if mat.shape != (dim, dim):
            raise ValueError("channel operator dimension mismatch")
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
    # (operators, commutator weight, anticommutator weight) of each family
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


def kossakowski_rhs(
    rho: np.ndarray, kform: KossakowskiForm, t_index: int, ops: dict
) -> np.ndarray:
    """Right-hand side assembled from the Kossakowski rewrite.

    Equals :func:`me_rhs` with the matching coefficient slice; the
    equivalence on random Hermitian inputs is part of the acceptance
    suite.
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


def diagnostics(rho: np.ndarray) -> dict:
    """Trace, Hermiticity defect, minimum eigenvalue and purity."""
    herm = 0.5 * (rho + rho.conj().T)
    return {
        "trace": float(np.real(np.trace(rho))),
        "hermiticity_defect": float(np.max(np.abs(rho - rho.conj().T))),
        "min_eigenvalue": float(np.min(np.linalg.eigvalsh(herm))),
        "purity": float(np.real(np.trace(rho @ rho))),
    }


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the sum of singular values of the difference."""
    return float(0.5 * np.sum(np.linalg.svd(rho - sigma, compute_uv=False)))


@dataclass
class Trajectory:
    """Sampled density-matrix evolution plus running diagnostics."""

    times: np.ndarray
    states: np.ndarray = field(repr=False)
    diagnostics: dict = field(default_factory=dict)
    observables: dict = field(default_factory=dict)
    scenario: str = ""
    params: dict = field(default_factory=dict)
    source: str = "me"
    warnings: list = field(default_factory=list)

    def to_json_dict(self, dump_rho: bool = False) -> dict:
        out = {
            "scenario": self.scenario,
            "source": self.source,
            "params": self.params,
            "times": [float(t) for t in self.times],
            "observables": {
                k: [float(x) for x in v] for k, v in self.observables.items()
            },
            "diagnostics": {
                k: [float(x) for x in v] for k, v in self.diagnostics.items()
            },
            "warnings": list(self.warnings),
        }
        if dump_rho:
            flat = []
            for rho in self.states:
                inter = np.empty(2 * rho.size)
                inter[0::2] = rho.real.ravel()
                inter[1::2] = rho.imag.ravel()
                flat.append([float(x) for x in inter])
            out["rho"] = flat
        return out


@dataclass
class MomentTrajectory:
    """Sampled Gaussian first and second moments."""

    times: np.ndarray
    means: np.ndarray = field(repr=False)
    covs: np.ndarray = field(repr=False)
    uncertainty_ok: bool = True


def _rk4_step(rhs, y, t, h):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def aligned_steps(t_final: float, h: float, n_samples: int) -> tuple[int, float]:
    """Step count and effective step so samples land exactly on steps.

    Rounds the requested step count up to a multiple of the sample
    intervals; the effective step is then at most ``h``.
    """
    intervals = max(n_samples - 1, 1)
    per_interval = max(int(np.ceil(t_final / h / intervals - 1e-9)), 1)
    n_steps = per_interval * intervals
    return n_steps, t_final / n_steps


def evolve(
    rho0,
    coeffs: MECoefficients,
    ops: dict,
    t_final: float,
    h: float,
    n_samples: int = 101,
    observables: dict | None = None,
    renormalize: bool = False,
    truncation_guard: bool = True,
    scenario: str = "",
    params: dict | None = None,
) -> Trajectory:
    """Propagate a density matrix with fixed-step RK4.

    Samples ``n_samples`` equally spaced times in ``[0, t_final]`` and
    logs trace, Hermiticity defect and minimum eigenvalue at each sample.
    The truncation guard aborts when the top two Fock levels accumulate
    more than 1e-6 population (disabled automatically for dim <= 3,
    where the whole basis is "the top").  Trace drift beyond 1e-6 is
    recorded as a warning.
    """
    rho = np.asarray(
        rho0.matrix if isinstance(rho0, DensityMatrix) else rho0, dtype=complex
    ).copy()
    dim = rho.shape[0]
    interp = CoefficientInterpolator(coeffs)
    if t_final > coeffs.grid.t_max + 1e-12:
        raise ValueError(
            f"t_final {t_final} exceeds coefficient grid t_max {coeffs.grid.t_max}"
        )

    def rhs(t, y):
        return me_rhs(y, interp(t), ops)

    sample_times = np.linspace(0.0, t_final, n_samples)
    n_steps, h_eff = aligned_steps(t_final, h, n_samples)

    states = [rho.copy()]
    logs = {"trace": [], "hermiticity_defect": [], "min_eigenvalue": [], "purity": []}
    obs_logs = {name: [] for name in (observables or {})}
    warnings = []

    def record(r):
        diag = diagnostics(r)
        for key in logs:
            logs[key].append(diag[key])
        for name, op in (observables or {}).items():
            obs_logs[name].append(float(np.real(np.trace(op @ r))))

    record(rho)
    guard_on = truncation_guard and dim > 3
    next_sample = 1
    t = 0.0
    for step in range(n_steps):
        rho = _rk4_step(rhs, rho, t, h_eff)
        t = (step + 1) * h_eff
        if not np.isfinite(rho).all():
            raise EvolutionError(f"state became non-finite at t={t:.6g}", time=t - h_eff)
        if renormalize:
            rho = rho / np.real(np.trace(rho))
        if guard_on:
            pops = np.real(np.diag(rho))
            if pops[-1] + pops[-2] > 1e-6:
                raise TruncationError(
                    f"top two Fock levels hold {pops[-1] + pops[-2]:.3e} population "
                    f"at t={t:.6g}; increase the truncation dimension",
                    time=t,
                )
        while next_sample < n_samples and sample_times[next_sample] <= t + 1e-12:
            states.append(rho.copy())
            record(rho)
            next_sample += 1

    drift = abs(logs["trace"][-1] - logs["trace"][0])
    if drift > 1e-6:
        warnings.append(f"trace drift {drift:.3e} exceeds 1e-6 over the run")

    return Trajectory(
        times=sample_times[: len(states)],
        states=np.array(states),
        diagnostics=logs,
        observables=obs_logs,
        scenario=scenario,
        params=params or {},
        source="me",
        warnings=warnings,
    )


def richardson_check(
    rho0,
    coeffs: MECoefficients,
    ops: dict,
    t_final: float,
    h: float,
    **kw,
) -> float:
    """Step-halving error estimate for a fixed-step run.

    Propagates with steps ``h`` and ``h/2`` and returns the largest
    elementwise final-state difference; a cheap consistency diagnostic in
    place of adaptive control, which would break the determinism of the
    golden files.
    """
    full = evolve(rho0, coeffs, ops, t_final, h, n_samples=2, **kw)
    half = evolve(rho0, coeffs, ops, t_final, h / 2.0, n_samples=2, **kw)
    return float(np.max(np.abs(full.states[-1] - half.states[-1])))


def evolve_moments(
    m0: GaussianMoments,
    coeffs: MECoefficients,
    m: float,
    omega: float,
    t_final: float,
    h: float,
    n_samples: int = 101,
) -> MomentTrajectory:
    """Propagate Gaussian first/second moments in closed form.

    Valid for linear scenarios only (single channel ``A = q`` with
    velocity conjugate ``p``); rejected otherwise.  The moment equations
    follow from the generator by ``d<O>/dt = Tr[O drho/dt]`` for
    ``O in {q, p, q^2, {q,p}/2, p^2}``:

    ``d mean = M mean`` and ``d cov = M cov + cov M^T + Ddiff`` with

    ``M = [[2 a_x, 2 a_p], [-2 a_q + Im Xi, -2 a_x + Im Upsilon]]``
    ``Ddiff = [[-2 gamma_pp, Theta], [Theta, -2 Gamma]]``

    where ``a_p = 1/2m + alpha``, ``a_q = m omega^2 / 2``,
    ``a_x = lam_mu/2 + beta``.
    """
    if coeffs.scenario == "dephasing" or coeffs.n_channels != 1:
        raise ValueError("moment propagation needs a linear single-channel scenario")
    interp = CoefficientInterpolator(coeffs)
    a_q = 0.5 * m * omega**2

    def drift_diffusion(t):
        c = interp(t)
        a_p = 0.5 / m + c.get("alpha", 0.0)
        a_x = 0.5 * c.get("lam_mu", 0.0) + c.get("beta", 0.0)
        M = np.array(
            [
                [2.0 * a_x, 2.0 * a_p],
                [
                    -2.0 * a_q + np.imag(c["Xi"][0, 0]),
                    -2.0 * a_x + np.imag(c["Upsilon"][0, 0]),
                ],
            ]
        )
        gpp = c.get("gamma_pp", 0.0)
        Dd = np.array(
            [
                [-2.0 * gpp, np.real(c["Theta"][0, 0])],
                [np.real(c["Theta"][0, 0]), -2.0 * np.real(c["Gamma"][0, 0])],
            ]
        )
        return M, Dd

    def rhs(t, y):
        M, Dd = drift_diffusion(t)
        mean, cov = y[:2], y[2:].reshape(2, 2)
        dmean = M @ mean
        dcov = M @ cov + cov @ M.T + Dd
        return np.concatenate([dmean, dcov.ravel()])

    y = np.concatenate([m0.mean, m0.cov.ravel()])
    sample_times = np.linspace(0.0, t_final, n_samples)
    n_steps, h_eff = aligned_steps(t_final, h, n_samples)

    means, covs = [y[:2].copy()], [y[2:].reshape(2, 2).copy()]
    next_sample = 1
    t = 0.0
    for step in range(n_steps):
        y = _rk4_step(rhs, y, t, h_eff)
        t = (step + 1) * h_eff
        while next_sample < len(sample_times) and sample_times[next_sample] <= t + 1e-12:
            means.append(y[:2].copy())
            covs.append(y[2:].reshape(2, 2).copy())
            next_sample += 1

    covs = np.array(covs)
    dets = covs[:, 0, 0] * covs[:, 1, 1] - covs[:, 0, 1] ** 2
    return MomentTrajectory(
        times=sample_times[: len(means)],
        means=np.array(means),
        covs=covs,
        uncertainty_ok=bool(np.all(dets >= 0.25 - m0.tol_pos)),
    )
