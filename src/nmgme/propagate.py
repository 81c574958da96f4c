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

(the ``V`` terms are dropped when there is no ``V``).  Expanding the
commutators gives the sandwich form that is actually evaluated:

``drho/dt = X rho + rho Y + sum_ab W_ab F_a rho F_b``

``X = -i H_eff + sum_j A_j L_j + gamma_pp p^2``
``Y = i H_eff - sum_j R_j A_j + gamma_pp p^2``

where ``F`` lists the distinct operators among ``A_j``, ``V_j`` and (with
``gamma_pp``) ``p``, and ``W`` holds the ``L``/``R`` weights plus
``-2 gamma_pp`` on the ``(p, p)`` entry.  Everything that does not
depend on time -- ``p^2``, ``{q,p}``, the products ``A_j F_a`` and
``F_a A_j`` -- is built once per run (:class:`_SandwichForm`).  Per
evaluation, two small products turn the time-dependent weights into
``X`` and ``Fhat_b = sum_a W_ab F_a``; ``T = [X; Fhat] @ rho`` and
``S = [Fhat_1 rho | ... | Fhat_n rho] @ [F_1; ...; F_n]`` give
``X rho`` and the sandwich sum ``S``.

* In general the result is ``X rho + S + rho Y``, with ``rho Y`` folded
  into the second wide product: ``2 (n_F + 1)`` matrix products.
* When a stage is exactly Hermiticity preserving (``Y = X^dag``,
  ``W = W^dag`` entry by entry, Hermitian ``F``) and ``rho`` is
  Hermitian, it is ``K + K^dag`` with ``K = X rho + S/2``: ``2 n_F + 1``
  products, five for the collapse model at any Fock dimension.  The
  result is then exactly Hermitian in floating point, so a run from a
  Hermitian state keeps a zero Hermiticity defect whenever its
  coefficients are exactly physical.

``rho`` is not assumed Hermitian: it is checked, and any other state
takes the general branch, so the Hermiticity defect of a run stays a
measurement (verified in the test suite, not assumed).

Integration is classical fixed-step fourth-order Runge-Kutta with
coefficients linearly interpolated between grid nodes.  The coefficient
rows of the stage times ``t, t + h/2, t + h`` are interpolated in one
vectorised blend per block of steps and turned into sandwich weights
there, so the step loop only multiplies matrices.  The Gaussian moments
obey a linear ODE in ``(mean, cov, 1)`` whose 7x7 matrices are built
the same way.  Per-step renormalization is off by default: trace drift
is a diagnostic, not a knob.
"""

from __future__ import annotations

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
    "diagnostics",
    "trace_distance",
    "CoefficientInterpolator",
    "aligned_steps",
]

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
# RK4 steps whose stage coefficients are built together
_BLOCK_STEPS = 32


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
    entries as real/imaginary column pairs).  :meth:`rows` blends the
    rows of many times at once with the same arithmetic as ``np.interp``;
    times outside the grid are clipped to its ends.  :meth:`split` views
    a block of rows as the named coefficient arrays and a call returns
    the slice of one time as a dict.
    """

    def __init__(self, coeffs: MECoefficients):
        self.coeffs = coeffs
        self.nodes = coeffs.grid.points
        G, d = coeffs.grid.n_points, coeffs.n_channels
        self.names = ["Gamma", "Theta", "Xi", "Upsilon"]
        self.extras = ["alpha", "beta", "gamma_pp"] if coeffs.has_extras() else []
        cols = [
            np.asarray(getattr(coeffs, name), dtype=complex).reshape(G, d * d).view(float)
            for name in self.names
        ]
        cols += [np.asarray(getattr(coeffs, name), dtype=float).reshape(G, 1) for name in self.extras]
        self.table = np.hstack(cols)
        self.slopes = np.diff(self.table, axis=0) / np.diff(self.nodes)[:, None]
        self._d = d

    def rows(self, times) -> np.ndarray:
        """Interpolated table rows ``(len(times), n)``; a node time gets
        its table row exactly."""
        nodes = self.nodes
        t = np.clip(np.asarray(times, dtype=float), nodes[0], nodes[-1])
        j = np.searchsorted(nodes, t, side="right") - 1
        k = np.minimum(j, len(nodes) - 2)
        out = self.slopes[k] * (t - nodes[k])[:, None] + self.table[k]
        exact = nodes[j] == t
        out[exact] = self.table[j[exact]]
        return out

    def split(self, rows: np.ndarray) -> dict:
        """Views of a row block: ``(s, d, d)`` complex matrices, ``(s,)``
        real extras, and the scalar ``lam_mu``."""
        d = self._d
        n = 2 * d * d
        out = {
            name: rows[:, i * n : (i + 1) * n].view(complex).reshape(-1, d, d)
            for i, name in enumerate(self.names)
        }
        for i, name in enumerate(self.extras):
            out[name] = rows[:, len(self.names) * n + i]
        out["lam_mu"] = self.coeffs.lam_mu
        return out

    def __call__(self, t: float) -> dict:
        c = self.split(self.rows([t]))
        return {name: v if name == "lam_mu" else v[0] for name, v in c.items()}


class _SandwichForm:
    """The generator of the module docstring over one set of operators.

    Built once per run: the distinct operators ``F``, the constant
    products and the buffers of the two wide products.  :meth:`weights`
    maps coefficient arrays with a leading stage axis to the weights of
    each stage; calling the form with a state and one stage
    ``(XY, Wt, mirror)`` evaluates the right-hand side.  ``shifts`` says
    whether ``H_eff`` carries ``p^2`` and ``{q,p}`` (``ops`` then holds
    ``q`` and ``p``), ``pp`` whether ``gamma_pp`` is present.
    """

    def __init__(self, ops: dict, dim: int, shifts: bool, pp: bool):
        A = list(ops["A"])
        V = ops.get("V")
        for mat in A + list(V or ()) + [ops["H0"]]:
            if np.shape(mat) != (dim, dim):
                raise ValueError("channel operator dimension mismatch")
        d = len(A)
        F, where = [], []  # distinct operators, compared by value
        for op in A + list(V or ()) + ([ops["p"]] if pp else []):
            hit = next((i for i, f in enumerate(F) if np.array_equal(f, op)), len(F))
            if hit == len(F):
                F.append(op)
            where.append(hit)
        n = len(F)
        # channel k of each family -> its slot in F
        self.PA = np.eye(n)[where[:d]]
        self.PV = np.eye(n)[where[d : 2 * d]] if V is not None else None
        self.ip = where[-1] if pp else None
        self.shifts, self.pp = shifts, pp

        # constant products [A_j F_a, H0, (p^2), ({q,p}), F_a A_j]: X is a
        # combination of the first d n + n_ham, Y of the last
        ham = [ops["H0"]]
        if shifts or pp:
            ham.append(ops["p"] @ ops["p"])
        if shifts:
            ham.append(ops["q"] @ ops["p"] + ops["p"] @ ops["q"])
        self.n_ham, self.n_af = len(ham), d * n
        products = [A[j] @ F[a] for j in range(d) for a in range(n)] + ham
        products += [F[a] @ A[j] for j in range(d) for a in range(n)]
        self.products = np.array(products, dtype=complex).reshape(len(products), dim * dim)
        self.dim, self.n, self.d = dim, n, d
        # with Hermitian operators, (A_j F_a)^dag = F_a A_j: a stage is
        # mirrored when its weights are
        shift_ops = [ops["q"], ops["p"]] if shifts else []
        self.hermitian = all(np.array_equal(x, x.conj().T) for x in F + [ops["H0"]] + shift_ops)

        # [X; Fhat], and [Fhat rho | rho] @ [F; Y]
        self._Z = np.empty((n + 1, dim * dim), dtype=complex)
        self._left = np.empty((dim, (n + 1) * dim), dtype=complex)
        self._right = np.empty(((n + 1) * dim, dim), dtype=complex)
        self._right[: n * dim] = np.vstack(F)
        self.F = self._right[: n * dim].reshape(n, dim * dim)
        self._hat = self._left[:, : n * dim].reshape(dim, n, dim)
        self._Y = self._right[n * dim :].reshape(1, dim * dim)

    def weights(self, c: dict) -> tuple:
        """Stage weights ``(XY, Wt, mirror)`` for ``s`` stages: the
        weights of ``X`` and of ``Y`` over their constant products
        ``(s, 2, d n_F + n_ham)``, ``W^T`` ``(s, n_F, n_F)`` (so that
        ``Fhat = W^T F``), and whether the stage is exactly Hermiticity
        preserving: Hermitian operators and ``Y = X^dag``, ``W = W^dag``
        entry by entry.

        ``c`` holds ``Gamma``, ``Theta``, ``Xi``, ``Upsilon`` as
        ``(s, d, d)`` arrays, optional ``alpha``, ``beta``, ``gamma_pp``
        broadcastable to ``(s,)`` and the scalar ``lam_mu``."""
        Gam, Xi = c["Gamma"], c["Xi"]
        s = Gam.shape[0]
        # weights of F_a in L_j and R_j
        lF = (Gam + 0.5 * Xi) @ self.PA
        rF = (0.5 * Xi - Gam) @ self.PA
        if self.PV is not None:
            The, Ups = c["Theta"], c["Upsilon"]
            lF = lF + (The + 0.5 * Ups) @ self.PV
            rF = rF + (0.5 * Ups - The) @ self.PV
        # A_j rho R_j - L_j rho A_j (- 2 gamma_pp p rho p)
        W = self.PA.T @ rF - lF.transpose(0, 2, 1) @ self.PA
        # weights of H0, p^2, {q,p} in H_eff, and gamma_pp on p^2
        ham = np.zeros((s, self.n_ham))
        ham[:, 0] = 1.0
        pp2 = np.zeros((s, self.n_ham))
        if self.shifts:
            ham[:, 1] = c.get("alpha", 0.0)
            ham[:, 2] = c.get("beta", 0.0) + 0.5 * c.get("lam_mu", 0.0)
        if self.pp:
            pp2[:, 1] = c.get("gamma_pp", 0.0)
            W[:, self.ip, self.ip] -= 2.0 * pp2[:, 1]
        XY = np.stack(
            [
                np.hstack([lF.reshape(s, -1), -1j * ham + pp2]),
                np.hstack([1j * ham + pp2, -rF.reshape(s, -1)]),
            ],
            axis=1,
        )
        # R_j = -L_j^dag entry by entry gives Y = X^dag and W = W^dag
        mirror = self.hermitian & (-rF == lF.conj()).all(axis=(1, 2))
        return XY, W.transpose(0, 2, 1), mirror

    def __call__(self, rho: np.ndarray, stage: tuple) -> np.ndarray:
        """Right-hand side at ``rho``.  With ``mirror`` set, the caller
        vouches that ``rho`` is Hermitian and the stage is mirrored: the
        result is then ``K + K^dag`` with ``K = X rho + S/2``, exactly
        Hermitian, and ``rho Y`` is not needed."""
        XY, Wt, mirror = stage
        dim, n = self.dim, self.n
        Z = self._Z
        np.matmul(XY[:1], self.products[: self.n_af + self.n_ham], out=Z[:1])
        np.matmul(Wt, self.F, out=Z[1:])
        T = Z.reshape((n + 1) * dim, dim) @ rho  # [X rho; Fhat_b rho]
        self._hat[...] = T[dim:].reshape(n, dim, dim).transpose(1, 0, 2)
        if mirror:
            K = self._left[:, : n * dim] @ self._right[: n * dim]  # S
            K *= 0.5
            K += T[:dim]
            return K + K.conj().T
        np.matmul(XY[1:], self.products[self.n_af :], out=self._Y)
        self._left[:, n * dim :] = rho
        out = self._left @ self._right  # S + rho Y
        out += T[:dim]
        return out


def me_rhs(rho: np.ndarray, coeff: dict, ops: dict) -> np.ndarray:
    """Right-hand side of the time-local master equation.

    ``coeff`` is a coefficient slice (matrices ``Gamma``, ``Theta``,
    ``Xi``, ``Upsilon`` over channels, optional scalars ``alpha``,
    ``beta``, ``gamma_pp``, ``lam_mu``).  ``ops`` holds the channel
    matrices ``A`` (list), their velocity conjugates ``V`` (list), the
    free Hamiltonian ``H0`` and, when Hamiltonian shifts are present,
    ``q`` and ``p``.  Evaluated in the sandwich form of the module
    docstring, with the operators of this one call.
    """
    shifts = bool(coeff.get("alpha", 0.0) or coeff.get("beta", 0.0) or coeff.get("lam_mu", 0.0))
    form = _SandwichForm(ops, rho.shape[0], shifts, bool(coeff.get("gamma_pp", 0.0)))
    c = {k: np.asarray(v)[None] if np.ndim(v) == 2 else v for k, v in coeff.items()}
    XY, Wt, mirror = form.weights(c)
    return form(rho, (XY[0], Wt[0], mirror[0] and np.array_equal(rho, rho.conj().T)))


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


def _rk4_step(rhs, y, h, c0, c_mid, c1):
    """One classical RK4 step of ``dy/dt = rhs(y, c)``; ``c0``, ``c_mid``
    and ``c1`` are the coefficients at ``t``, ``t + h/2`` and ``t + h``."""
    k1 = rhs(y, c0)
    k2 = rhs(y + 0.5 * h * k1, c_mid)
    k3 = rhs(y + 0.5 * h * k2, c_mid)
    k4 = rhs(y + h * k3, c1)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stage_blocks(interp: CoefficientInterpolator, n_steps: int, h: float):
    """Coefficients of the RK4 stage times ``t, t + h/2, t + h`` of every
    step (``t = step * h``), interpolated ``_BLOCK_STEPS`` steps at a
    time: yields the first step, the step count and the block of
    :meth:`CoefficientInterpolator.split` arrays, stage rows step-major."""
    for first in range(0, n_steps, _BLOCK_STEPS):
        count = min(_BLOCK_STEPS, n_steps - first)
        t = np.arange(first, first + count) * h
        rows = interp.rows(np.stack([t, t + 0.5 * h, t + h], axis=1).ravel())
        yield first, count, interp.split(rows)


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
    if t_final > coeffs.grid.t_max + 1e-12:
        raise ValueError(
            f"t_final {t_final} exceeds coefficient grid t_max {coeffs.grid.t_max}"
        )
    interp = CoefficientInterpolator(coeffs)
    shifts = bool(coeffs.lam_mu) or (
        coeffs.has_extras() and bool(np.any(coeffs.alpha) or np.any(coeffs.beta))
    )
    pp = coeffs.has_extras() and bool(np.any(coeffs.gamma_pp))
    form = _SandwichForm(ops, dim, shifts, pp)

    sample_times = np.linspace(0.0, t_final, n_samples)
    n_steps, h_eff = aligned_steps(t_final, h, n_samples)

    states = np.empty((n_samples, dim, dim), dtype=complex)
    states[0] = rho
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
    # a step is mirrored when the state is Hermitian and all three stages
    # are; its result is then Hermitian again (RK4 combines with real
    # weights), so the state is checked only after an unmirrored step
    hermitian = np.array_equal(rho, rho.conj().T)
    next_sample = 1
    for first, count, c in _stage_blocks(interp, n_steps, h_eff):
        XY, Wt, mirror = form.weights(c)
        mirrored = mirror.reshape(count, 3).all(axis=1)
        for i in range(count):
            m = hermitian and mirrored[i]
            stages = [(XY[k], Wt[k], m) for k in range(3 * i, 3 * i + 3)]
            rho = _rk4_step(form, rho, h_eff, *stages)
            if not m:
                hermitian = np.array_equal(rho, rho.conj().T)
            t = (first + i + 1) * h_eff
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
                states[next_sample] = rho
                record(rho)
                next_sample += 1

    drift = abs(logs["trace"][-1] - logs["trace"][0])
    if drift > 1e-6:
        warnings.append(f"trace drift {drift:.3e} exceeds 1e-6 over the run")

    return Trajectory(
        times=sample_times[:next_sample],
        states=states[:next_sample],
        diagnostics=logs,
        observables=obs_logs,
        scenario=scenario,
        params=params or {},
        source="me",
        warnings=warnings,
    )


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
    ``a_x = lam_mu/2 + beta``.  Both are one linear ODE
    ``dy/dt = K y`` in ``y = (mean, vec cov, 1)``; the 7x7 ``K`` of the
    RK4 stage times are built a block of steps at a time
    (:func:`_moment_matrices`).
    """
    if coeffs.scenario == "dephasing" or coeffs.n_channels != 1:
        raise ValueError("moment propagation needs a linear single-channel scenario")
    interp = CoefficientInterpolator(coeffs)

    def rhs(y, K):
        return K @ y

    y = np.concatenate([m0.mean, m0.cov.ravel(), [1.0]])
    sample_times = np.linspace(0.0, t_final, n_samples)
    n_steps, h_eff = aligned_steps(t_final, h, n_samples)

    means, covs = [y[:2].copy()], [y[2:6].reshape(2, 2).copy()]
    next_sample = 1
    for first, count, c in _stage_blocks(interp, n_steps, h_eff):
        K = _moment_matrices(c, m, omega)
        for i in range(count):
            y = _rk4_step(rhs, y, h_eff, *K[3 * i : 3 * i + 3])
            t = (first + i + 1) * h_eff
            while next_sample < len(sample_times) and sample_times[next_sample] <= t + 1e-12:
                means.append(y[:2].copy())
                covs.append(y[2:6].reshape(2, 2).copy())
                next_sample += 1

    covs = np.array(covs)
    dets = covs[:, 0, 0] * covs[:, 1, 1] - covs[:, 0, 1] ** 2
    return MomentTrajectory(
        times=sample_times[: len(means)],
        means=np.array(means),
        covs=covs,
        uncertainty_ok=bool(np.all(dets >= 0.25 - m0.tol_pos)),
    )


def _moment_matrices(c: dict, m: float, omega: float) -> np.ndarray:
    """``K`` of :func:`evolve_moments` for each row of a coefficient block
    (:meth:`CoefficientInterpolator.split`), shape ``(s, 7, 7)``."""
    s = c["Gamma"].shape[0]
    a_p = 0.5 / m + c.get("alpha", 0.0)
    a_x = 0.5 * c["lam_mu"] + c.get("beta", 0.0)
    M = np.empty((s, 2, 2))
    M[:, 0, 0] = 2.0 * a_x
    M[:, 0, 1] = 2.0 * a_p
    M[:, 1, 0] = -2.0 * (0.5 * m * omega**2) + c["Xi"][:, 0, 0].imag
    M[:, 1, 1] = -2.0 * a_x + c["Upsilon"][:, 0, 0].imag
    theta = c["Theta"][:, 0, 0].real
    eye = np.eye(2)
    K = np.zeros((s, 7, 7))
    K[:, :2, :2] = M
    # vec(M cov + cov M^T) = (M x 1 + 1 x M) vec(cov), row-major vec
    K[:, 2:6, 2:6] = (np.einsum("sij,kl->sikjl", M, eye) + np.einsum("ij,skl->sikjl", eye, M)).reshape(s, 4, 4)
    K[:, 2:6, 6] = np.stack(
        [-2.0 * c.get("gamma_pp", np.zeros(s)), theta, theta, -2.0 * c["Gamma"][:, 0, 0].real], axis=1
    )
    return K
