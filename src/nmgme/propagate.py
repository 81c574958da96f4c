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
``F_a A_j`` -- is built once per run (:class:`_SandwichForm`).  ``X``,
``Fhat_b = sum_a W_ab F_a`` and ``Y`` are linear in the time-dependent
weights.

Every stage takes every product on the band of its operators.  The
channel operators of the Gaussian models are linear in ``q`` and ``p``
and the Hamiltonians quadratic, so in the Fock basis every constant
operator has half-bandwidth ``b = 2`` (``sigma_z``: 0); ``b``, the
largest ``|i - l|`` over the nonzero entries of all of them, is found
from the operators, and a dense set (``b = dim - 1``) runs the same
code.  Row ``i`` of ``sum_o c_o O_o B`` only reaches rows
``i - b .. i + b`` of ``B``: the rows of the right operands are kept in
a zero-padded buffer, and one batched product multiplies the band
coefficients of every row ``(dim, o, g (2 b + 1))`` with read-only
overlapping windows of ``g`` interleaved operands
``(dim, g (2 b + 1), dim)`` (:class:`_BandProduct`, the diagonal storage
of Saad, *Iterative Methods for Sparse Linear Systems*, section 3.4).  A right product ``B O`` is the same product on
transposes, ``(O^T B^T)^T``.

The closed master equation from a physical state is exactly
Hermiticity preserving, and only such runs are taken: ``F``, ``H0``
(``q``, ``p``) exactly Hermitian, every coefficient row with
``R_j = -L_j^dag`` entry by entry (so ``Y = X^dag``, ``W = W^dag``)
and ``rho`` exactly Hermitian, else ``ValueError`` before the first
step.  A stage runs in real arithmetic on ``M = Re rho + Im rho``,
which holds all of ``rho``: ``Re rho = (M + M^T)/2`` and
``Im rho = (M - M^T)/2``.  For real ``A``, ``B`` and complex ``c``,
``Re + Im`` of ``c A rho B`` is ``A (Re c M + Im c M^T) B``.  Each
``F_a = sum_m C_am R_m`` over real matrices ``R_m`` (its nonzero real
and imaginary parts), so the sandwich sum is
``sum_mn Omega_mn R_m rho R_n`` with ``Omega = C^T W C``, and
``rho Y = (X rho)^dag``.  With
``Ahat_n = sum_m Omega_mn R_m = sum_b C_bn Fhat_b``, the band rows of
``[X; iX; Ahat_1..Ahat_N]`` (complex entries as real/imaginary pairs)
on the interleaved rows of ``M`` and ``M^T`` give
``[Q; Q'; Yhat_1..Yhat_N]``, the ``R_n^T`` on the rows of the
``Yhat_n^T`` give ``(sum_n Yhat_n R_n)^T``, and
``dM/dt = Q + Q'^T + sum_n Yhat_n R_n``.  At dim 40 (Fock models:
``q`` real and ``p`` imaginary, so ``N = 2``) the two products take
0.16 MFlop per stage, against 1.28 MFlop for the same two products
taken dense (0.13 against 1.02 for the first).  :func:`evolve` keeps
the state as the entries of ``vec(M)`` that it reaches (on the band path
all of them) and stores each sample as ``M``.  :meth:`Trajectory.record`,
the one recorder of every sampled trajectory (the oracle's included),
forms one sample's ``rho`` at a time to log it, and :attr:`Trajectory.states`
forms them all when read: any real ``M`` is a Hermitian ``rho``, so a
trajectory's Hermiticity defect is 0 by construction.

At small dimensions a stage costs per-call overhead rather than
arithmetic, so a small run takes each stage as one product of the real
superoperator with ``vec(M)``, the standard dense Liouville-space form at
such sizes (Havel, J. Math. Phys. 44, 534 (2003)).  It is the same
sandwich form: ``L = Re S + Im S'``, with
``S = X (x) 1 + 1 (x) Y^T + sum_b Fhat_b (x) F_b^T`` and ``S'`` its
columns transposed.  Liouville space splits into sectors that ``L``
never couples: the channel operators change the Fock number by one and
the Hamiltonians by zero or two, so every stage conserves the parity of
``m - n`` on ``rho_mn``, a weak symmetry of the generator (Buca &
Prosen, New J. Phys. 14, 073007 (2012)), and a vacuum start never leaves
the even half.  The entries a run reaches are found once, by a frontier
search from the nonzero entries of ``M`` over the sparsity pattern of
the constant operators (:meth:`_SandwichForm.reached`, like the oracle's
search over its Hamiltonian), and the superoperator is built and applied
on those entries only; every other entry of ``M`` stays exactly 0.  A
run that reaches at most ``_SUPEROPERATOR_ENTRIES`` entries (169; its
comment holds the timings it rests on) steps this way, a larger one
takes the band products above on all of ``M``, where the sectors are
not used.

Integration is classical fixed-step fourth-order Runge-Kutta with
coefficients linearly interpolated between grid nodes.  The weights are
affine in the interpolated rows, so on grid interval ``k`` every stage
operator is ``Op_k + (t - t_k) dOp_k``, and a stage is addressed by
``(k, t - t_k)`` (:class:`_Stages`).  When a stage first reaches an
interval, the interval's operator is built from the weights of its node
row and of its slope row: ``[L_k | dL_k]`` on the reached sector, as one
product of those weights with the superoperators of unit weights (built
once per run), or its band coefficients, the two weight rows times the
band rows of the constant operators (cut once per run).  Only the
current interval's operator is kept, so the step loop only combines and
multiplies matrices.  Both paths take a step in place
(:meth:`_Stages.step`): a preallocated ``B = [y; k_1..k_4]`` holds the
step's state and slopes, the input of each stage is its row of the
classical tableau times the rows of ``B`` the step has written (``y``
for the first), its slope goes straight into the next row of ``B``, and
the step is the tableau's last row times ``B``.  :func:`_rk4_step` hands such stages their step;
its written-out tableau serves the Gaussian moments, which obey a linear
ODE in ``(mean, cov, 1)``: the 7x7 RK4 step matrices of a block are that
tableau applied to the identity with batched products, and a step is one
matrix-vector product.  Both propagators run on one schedule
(:func:`_schedule`): a ``t_final`` within the coefficient grid, and a
sample every ``n_steps // (n_samples - 1)`` steps, a whole number by
:func:`aligned_steps`.  The state is never rescaled: trace drift is a
diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bath import require_finite
from .coefficients import CHANNEL_TABLES, EXTRAS, MECoefficients

__all__ = [
    "GaussianMoments",
    "Trajectory",
    "MomentTrajectory",
    "EvolutionError",
    "TruncationError",
    "me_rhs",
    "evolve",
    "evolve_moments",
    "diagnostics",
    "CoefficientInterpolator",
    "aligned_steps",
]

# RK4 steps whose stage times are handled together
_BLOCK_STEPS = 32
# the most entries of vec(M) that a run may reach and still take each
# stage as one product with the real superoperator of its reached sector
# (_Stages) instead of the two band products: the superoperator's cost
# follows the reached count r, the band's the dimension.  One RK4 step of
# an hpz Fock run (half-bandwidth 2; _Stages.step on each path) and the
# build of one interval's operator, which a run at h = 1e-3 on a grid of
# spacing 1/32 shares among 31 steps, in us (Xeon, 2 cores with 2 MiB of
# L2 each, 1 BLAS thread, least of 4 runs of best of 15, two such sweeps):
#   dim                 2   10   12   13   14   15   16   17   18   19   20
#   every entry: r      4  100  144  169  196  225  256  289  324  361  400
#     sector step       8   18   22   34   35   49   56   85  107  175  275
#     its build         5   20   28   33   38   43   50   60   69   82   94
#   vacuum sector: r    2   50   72   85   98  113  128  145  162  181  200
#     sector step       8   10   12   15   18   20   26   27   27   38   36
#     its build         5   13   17   19   21   24   28   31   34   38   42
#   band step          36   42   46   47   47   50   49   52   53   55   55
#     its build        25   25   26   26   26   28   27   28   27   28   28
# A step reads the (r, 2 r) operator [L_k | dL_k], 16 r^2 bytes, once per
# stage, and its time is not smooth in r: at r = 196 it read 35 us in both
# sweeps but 47-50 us in five runs of dims 14-16 alone (band: 48 us).  From
# every entry it ties the band at 225 and falls behind from 256; a vacuum
# sector still wins at 200, where the band's dimension is larger.  169 =
# 13^2 is the largest square on the superoperator's side in every run.
_SUPEROPERATOR_ENTRIES = 169
# the truncation guard's bound on the population of the top two Fock levels
TRUNCATION_LIMIT = 1e-6
# how far below 1/4 the moments' uncertainty product may fall and pass
_UNCERTAINTY_TOL = 1e-8


class EvolutionError(RuntimeError):
    """Propagation aborted; carries the last valid time."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class TruncationError(EvolutionError):
    """Population reached the top of the truncated Fock basis."""


@dataclass
class GaussianMoments:
    """First and second moments of a single-mode Gaussian state.

    ``mean = (<q>, <p>)`` and ``cov`` the symmetric covariance matrix
    ``[[s_qq, s_qp], [s_qp, s_pp]]``, both finite.  The uncertainty
    product is monitored, not enforced.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(2)
        self.cov = np.asarray(self.cov, dtype=float).reshape(2, 2)
        require_finite(mean=self.mean, cov=self.cov)
        if np.max(np.abs(self.cov - self.cov.T)) > 1e-12:
            raise ValueError("covariance matrix must be symmetric")
        if self.cov[0, 0] <= 0 or self.cov[1, 1] <= 0:
            raise ValueError("diagonal covariances must be positive")

    @classmethod
    def coherent(cls, q0: float, p0: float, m: float = 1.0, omega: float = 1.0):
        """Moments of a coherent state of the ``(m, omega)`` oscillator."""
        return cls(
            mean=[q0, p0],
            cov=[[1.0 / (2.0 * m * omega), 0.0], [0.0, m * omega / 2.0]],
        )


class CoefficientInterpolator:
    """Linear interpolation of coefficient tables between grid nodes.

    All tables are stacked once into one real ``(G, n)`` array, the
    layout of :meth:`MECoefficients.table`.  :meth:`rows` blends the
    rows of many times at once with the same arithmetic as ``np.interp``;
    times outside the grid are clipped to its ends.  :meth:`split` views
    a block of rows as the named coefficient arrays and a call returns
    the slice of one time as a dict.
    """

    def __init__(self, coeffs: MECoefficients):
        self.coeffs = coeffs
        self.nodes = coeffs.grid.points
        self.names = CHANNEL_TABLES
        self.extras = EXTRAS if coeffs.has_extras() else ()
        self.table = coeffs.table()
        self.slopes = np.diff(self.table, axis=0) / np.diff(self.nodes)[:, None]
        self._d = coeffs.n_channels

    def _locate(self, times) -> tuple:
        """Times clipped to the grid, the last node at or before each, and
        the grid interval ``k`` that interpolates it (the last interval for
        the end of the grid)."""
        nodes = self.nodes
        t = np.clip(np.asarray(times, dtype=float), nodes[0], nodes[-1])
        j = np.searchsorted(nodes, t, side="right") - 1
        return t, j, np.minimum(j, len(nodes) - 2)

    def rows(self, times) -> np.ndarray:
        """Interpolated table rows ``(len(times), n)``; a node time gets
        its table row exactly."""
        t, j, k = self._locate(times)
        out = self.slopes[k] * (t - self.nodes[k])[:, None] + self.table[k]
        exact = self.nodes[j] == t
        out[exact] = self.table[j[exact]]
        return out

    def intervals(self, times) -> tuple:
        """Grid interval ``k`` of each time and the offset ``t - t_k``:
        the row of ``t`` is ``table[k] + (t - t_k) slopes[k]``."""
        t, _, k = self._locate(times)
        return k, t - self.nodes[k]

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


def _band(x: np.ndarray, b: int) -> np.ndarray:
    """Band rows of stacked matrices ``(..., dim, dim)``: entry
    ``[..., i, j]`` is ``x[..., i, i - b + j]``, zero outside the matrix;
    shape ``(..., dim, 2 b + 1)``."""
    dim = x.shape[-1]
    pad = np.zeros(x.shape[:-1] + (dim + 2 * b,), dtype=x.dtype)
    pad[..., b : b + dim] = x
    i = np.arange(dim)[:, None]
    return pad[..., i, i + np.arange(2 * b + 1)]


class _BandProduct:
    """Products of operators of half-bandwidth ``b`` with ``g`` real matrices.

    ``rows[l, k]`` takes row ``l`` of matrix ``k``.  It is the interior of
    a zero-padded buffer ``(dim + 2 b, g, dim)``, whose interleaved rows
    give window ``i``: rows ``i - b .. i + b`` of every matrix, a
    read-only view ``(g (2 b + 1), dim)`` holding all that row ``i`` of a
    banded operator reaches.  A call with per-row band coefficients
    ``(dim, o, g (2 b + 1))`` -- entry ``[i, :, j g + k]`` multiplies row
    ``i - b + j`` of matrix ``k`` -- returns row ``i`` of ``o`` sums of
    operator products, ``(dim, o, dim)``, in one batched product.
    """

    def __init__(self, dim: int, b: int, g: int):
        buf = np.zeros((dim + 2 * b, g, dim))
        self.rows = buf[b : b + dim]
        windows = sliding_window_view(buf.reshape(-1, dim), g * (2 * b + 1), axis=0)
        # with g = 0 (all operators zero) one empty window, broadcast
        self.windows = windows[:: max(g, 1)].transpose(0, 2, 1)

    def __call__(self, coef: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.matmul(coef, self.windows, out=out)


class _SandwichForm:
    """The generator of the module docstring over one set of operators.

    Built once per run: the distinct operators ``F``, their real parts
    ``R`` with ``F_a = sum_m C_am R_m``, the constant products that ``X``
    and ``Y`` combine, the half-bandwidth ``band`` of every constant
    operator, their band rows and the buffers of the band stage.
    :meth:`weights` maps coefficient arrays with a leading stage axis to
    the weight rows of each stage, :meth:`banded` weight rows to the band
    coefficients of the stages, and calling the form with ``M`` and the
    band coefficients of a stage evaluates ``dM/dt``.  :meth:`reached`
    finds the sector of ``vec(M)`` that a state reaches and
    :meth:`superoperators` gives the superoperators of unit weights on
    it.  ``shifts`` says whether ``H_eff`` carries ``p^2`` and ``{q,p}``
    (``ops`` then holds ``q`` and ``p``), ``pp`` whether ``gamma_pp`` is
    present.  Every operator the form
    uses must be exactly Hermitian, else ``ValueError``.
    """

    def __init__(self, ops: dict, dim: int, shifts: bool, pp: bool):
        A = list(ops["A"])
        V = ops.get("V")
        named = [(f"A[{j}]", a) for j, a in enumerate(A)] + [(f"V[{j}]", v) for j, v in enumerate(V or ())]
        named += [(x, ops[x]) for x in ["H0"] + (["q", "p"] if shifts else ["p"] if pp else [])]
        for name, mat in named:
            if np.shape(mat) != (dim, dim):
                raise ValueError(f"operator {name} dimension mismatch: shape {np.shape(mat)}, not {(dim, dim)}")
            if not np.array_equal(mat, np.conj(mat).T):
                raise ValueError(f"operator {name} is not exactly Hermitian")
        d = len(A)
        F, where = [], []  # distinct operators, compared by value
        for op in A + list(V or ()) + ([ops["p"]] if pp else []):
            hit = next((i for i, f in enumerate(F) if np.array_equal(f, op)), len(F))
            if hit == len(F):
                F.append(np.asarray(op))
            where.append(hit)
        n = len(F)
        # channel k of each family -> its slot in F
        self.PA = np.eye(n)[where[:d]]
        self.PV = np.eye(n)[where[d : 2 * d]] if V is not None else None
        self.ip = where[-1] if pp else None
        self.shifts, self.pp = shifts, pp
        # F_a = sum_m C_am R_m over the distinct nonzero real and imaginary
        # parts R_m of the operators
        R, C = [], np.zeros((n, 2 * n), dtype=complex)
        for a, f in enumerate(F):
            for part, unit in ((f.real, 1.0), (f.imag, 1j)):
                if part.any():
                    m = next((i for i, r in enumerate(R) if np.array_equal(r, part)), len(R))
                    if m == len(R):
                        R.append(part)
                    C[a, m] += unit
        N = len(R)
        self.C = C[:, :N]
        self.n = n

        # constant products [A_j F_a, H0, (p^2), ({q,p}), F_a A_j]: X is a
        # combination of the first n_x, Y of the last n_x
        ham = [ops["H0"]]
        if shifts or pp:
            ham.append(ops["p"] @ ops["p"])
        if shifts:
            ham.append(ops["q"] @ ops["p"] + ops["p"] @ ops["q"])
        self.n_ham = len(ham)
        products = [A[j] @ F[a] for j in range(d) for a in range(n)] + ham
        products = np.array(products + [F[a] @ A[j] for j in range(d) for a in range(n)], dtype=complex)
        F = np.array(F, dtype=complex)
        R = np.array(R, dtype=float).reshape(N, dim, dim)
        self.dim = dim
        self._products, self._F = products, F
        # the half-bandwidth: the largest |i - l| over the nonzero entries
        _, i, l = np.nonzero(np.concatenate([products, F, R]))
        self.band = b = int(np.max(np.abs(i - l), initial=0))
        self.n_x = d * n + self.n_ham
        # the band rows that the band coefficients of a stage combine: the
        # products of X, and C_bm F_a for entry (b, a) of W^T and Ahat_m
        # (the band stage reads no Y, as Y = X^dag)
        self._Xband = _band(products[: self.n_x], b)
        self._Aband = (self.C[:, None, :, None, None] * _band(F, b)[None, :, None]).reshape(n * n, N, dim, 2 * b + 1)
        # the band stage: the R_n^T over the rows of the Yhat_n^T
        self._RT = _band(R.transpose(0, 2, 1), b).transpose(1, 2, 0).reshape(dim, 1, (2 * b + 1) * N)
        self._MMt = _BandProduct(dim, b, 2)
        self._Yhat = _BandProduct(dim, b, N)
        self._T = np.empty((N + 2, dim, dim))  # Q, Q', Yhat_1..Yhat_N
        self._S = np.empty((dim, 1, dim))

    @classmethod
    def of_run(cls, coeffs: MECoefficients, ops: dict, dim: int) -> "_SandwichForm":
        """The form of a run over ``coeffs``: with the Hamiltonian shifts
        and ``gamma_pp`` only where the tables carry them."""
        shifts = bool(coeffs.lam_mu) or (
            coeffs.has_extras() and bool(np.any(coeffs.alpha) or np.any(coeffs.beta))
        )
        pp = coeffs.has_extras() and bool(np.any(coeffs.gamma_pp))
        return cls(ops, dim, shifts, pp)

    def weights(self, c: dict, where) -> np.ndarray:
        """Stage weight rows ``(s, 2 n_x + n_F^2)`` for ``s`` stages.

        A row weights the constant products: ``[X weights | Y weights |
        W^T]``, ``X`` over the first ``n_x = d n_F + n_ham`` products,
        ``Y`` over the last ``n_x`` and ``Fhat = W^T F``.

        ``c`` holds ``Gamma``, ``Theta``, ``Xi``, ``Upsilon`` as
        ``(s, d, d)`` arrays, optional ``alpha``, ``beta``, ``gamma_pp``
        broadcastable to ``(s,)`` and the scalar ``lam_mu``.  Every stage
        must be exactly Hermiticity preserving, ``R_j = -L_j^dag`` entry
        by entry; else ``ValueError`` names the first failing stage by
        ``where(i)``."""
        # the weights (s, d, n_F) of F_a in L_j and R_j
        Gam, Xi = c["Gamma"], c["Xi"]
        lF = (Gam + 0.5 * Xi) @ self.PA
        rF = (0.5 * Xi - Gam) @ self.PA
        if self.PV is not None:
            The, Ups = c["Theta"], c["Upsilon"]
            lF = lF + (The + 0.5 * Ups) @ self.PV
            rF = rF + (0.5 * Ups - The) @ self.PV
        # with Hermitian operators, (A_j F_a)^dag = F_a A_j: R_j = -L_j^dag
        # gives Y = X^dag and W = W^dag
        ok = (-rF == lF.conj()).all(axis=(1, 2))
        if not ok.all():
            bad = where(int(np.argmin(ok)))
            raise ValueError(f"coefficients {bad} are not exactly Hermiticity preserving (R_j != -L_j^dag)")
        s = len(lF)
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
        xw = np.hstack([lF.reshape(s, -1), -1j * ham + pp2])
        yw = np.hstack([1j * ham + pp2, -rF.reshape(s, -1)])
        return np.concatenate([xw, yw, W.transpose(0, 2, 1).reshape(s, -1)], axis=1)

    def reached(self, M: np.ndarray) -> np.ndarray:
        """Flat indices of the entries of ``vec M`` that a run from ``M``
        can make nonzero: a frontier search from the nonzero entries of
        ``M`` over the sparsity pattern of the superoperator.

        The pattern is that of the constant operators, which every
        weighted combination stays within: ``X rho`` couples ``(i, j)``
        to ``(k, j)`` where a product of ``X`` is nonzero at ``(i, k)``,
        ``rho Y`` couples it to ``(i, l)`` where one of ``Y`` is nonzero
        at ``(l, j)``, ``Fhat_b rho F_b`` to ``(k, l)`` where some ``F_a``
        is nonzero at ``(i, k)`` and some at ``(l, j)``; and since
        ``L = Re S + Im S'`` reads ``M^T`` as well, each coupling also
        holds from the transposed entry."""
        # the patterns as 0/1 floats, so that the products run in BLAS
        on = self._products != 0
        X = on[: self.n_x].any(0).astype(float)
        Y = on[-self.n_x :].any(0).astype(float)
        F = (self._F != 0).any(0).astype(float)
        reached = frontier = M != 0
        while frontier.any():
            f = (frontier | frontier.T).astype(float)
            frontier = (X @ f + f @ Y + F @ f @ F > 0) & ~reached
            reached = reached | frontier
        return np.flatnonzero(reached)

    def superoperators(self, idx: np.ndarray) -> tuple:
        """The real superoperators ``L`` of unit weights on the entries
        ``idx`` of ``vec M`` (row-major), at the ``(row, column)``
        positions where some term can be nonzero: returns the positions
        in ``idx`` of those ``rows`` and ``cols``, and the values
        ``(2 n_w, len(rows))`` for the ``n_w`` weights of a row of
        :meth:`weights`: row ``o`` is ``L`` of weight 1 on term ``o``,
        row ``n_w + o`` that of weight ``i``.  A stage with weight row
        ``w`` is then ``sum_o Re w_o L_o + Im w_o L_{n_w + o}``, and 0 at
        every other position.

        Term ``o`` is ``S_o[(i, j), (k, l)] = A_o[i, k] B_o[l, j]``:
        ``(P_o, 1)`` for a product of ``X``, ``(1, P_o)`` for one of
        ``Y``, ``(F_a, F_b)`` for ``W_ab``; ``L = Re S + Im S'``, ``S'``
        with its column ``(k, l)`` read at ``(l, k)``."""
        dim, n, n_x, P, F = self.dim, self.n, self.n_x, self._products, self._F
        one = np.broadcast_to(np.eye(dim), (n_x, dim, dim))
        A = np.concatenate([P[:n_x], one, np.tile(F, (n, 1, 1))])
        B = np.concatenate([one, P[-n_x:], np.repeat(F, n, axis=0)])
        i, j = np.divmod(idx, dim)
        # where the terms of each kind (X, Y, W) can be nonzero in S and S'
        on = np.zeros((len(idx), len(idx)), dtype=bool)
        for a, b in zip(np.split(A != 0, [n_x, 2 * n_x]), np.split(B != 0, [n_x, 2 * n_x])):
            a, b = a.any(0), b.any(0)
            on |= a[i[:, None], i] & b[j, j[:, None]]
            on |= a[i[:, None], j] & b[i, j[:, None]]
        rows, cols = np.nonzero(on)
        ir, jr, k, l = i[rows], j[rows], i[cols], j[cols]
        S, St = A[:, ir, k] * B[:, l, jr], A[:, ir, l] * B[:, k, jr]
        return rows, cols, np.concatenate([S.real + St.imag, St.real - S.imag])

    def banded(self, w: np.ndarray) -> np.ndarray:
        """The band coefficients ``(s, dim, N + 2, 2 (2 b + 1))`` of the
        stages with weight rows ``w`` (:meth:`weights`): the band rows of
        ``[X; iX; Ahat_1..Ahat_N]``, ``Ahat_m = sum_b C_bm Fhat_b``, with
        each complex entry as the real/imaginary pair that weights the
        interleaved rows of ``M`` and ``M^T``; the weights of ``X`` and of
        ``W^T`` combine the band rows of the constant operators."""
        X = np.tensordot(w[:, : self.n_x], self._Xband, 1)[:, None]
        Ahat = np.tensordot(w[:, 2 * self.n_x :], self._Aband, 1)
        coef = np.concatenate([X, 1j * X, Ahat], axis=1)
        return np.ascontiguousarray(coef.transpose(0, 2, 1, 3)).view(float)

    def __call__(self, M: np.ndarray, coef: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``dM/dt``, the real representation of ``drho/dt``, at the real
        ``M = Re rho + Im rho`` under the stage with band coefficients
        ``coef`` (:meth:`banded`); written into ``out`` when given."""
        self._MMt.rows[:, 0] = M
        self._MMt.rows[:, 1] = M.T
        # [Q; Q'; Yhat_n]: Re + Im of [X rho; iX rho; Ahat_n rho]
        T = self._T
        self._MMt(coef, out=T.transpose(1, 0, 2))
        self._Yhat.rows[...] = T[2:].transpose(2, 0, 1)
        S = self._Yhat(self._RT, out=self._S)[:, 0]  # (sum_n Yhat_n R_n)^T
        S += T[1]
        return np.add(T[0], S.T, out=out)  # Q + Q'^T + sum_n Yhat_n R_n


class _Stages:
    """The RK4 stages of a run from ``M0``, addressed by grid interval.

    The weights of a stage are affine in its interpolated coefficient row
    ``table[k] + (t - t_k) slopes[k]``, so on grid interval ``k`` each of
    its operators is ``Op_k + (t - t_k) dOp_k``: ``Op_k`` from the weights
    of node row ``k``, ``dOp_k`` from the weights of ``slopes[k]`` less
    their constant part (the weights of a zero row).  A stage is
    ``(k, t - t_k)`` and acts on the stepped state ``y``; a node or slope
    row that is not exactly Hermiticity preserving is rejected when the
    stages are built.

    When a stage reaches an interval other than the current one, the
    interval's operator is built from its two weight rows, and only that
    operator is kept, so a run that steps forward in time builds each
    interval once.  ``y`` is ``vec(M)[idx]`` for the entries ``idx`` of
    ``vec(M)`` (row-major) that it holds:

    - when ``M0`` reaches at most ``_SUPEROPERATOR_ENTRIES`` entries
      (:meth:`_SandwichForm.reached`), ``idx`` is that sector; no other
      entry of ``M`` can become nonzero.  The operator is the real
      superoperator ``[L_k | dL_k]`` on the sector's rows and columns,
      ``L = Re S + Im S'`` (module docstring): the two weight rows as
      real rows ``[Re w | Im w]`` times the values of the unit-weight
      superoperators of the sector (:meth:`_SandwichForm.superoperators`,
      built once per run), put at their positions.  A stage is its
      product with ``[y; (t - t_k) y]``;
    - otherwise ``idx`` is every entry; the operator is the band
      coefficients of the two rows (:meth:`_SandwichForm.banded`),
      combined into ``Op_k + (t - t_k) dOp_k`` once per stage (the ``k2``
      and ``k3`` of a step share one), and a stage is one call of the
      form on ``M``.

    Both paths take a step in place with the classical tableau
    (:meth:`step`), for the step ``h`` the stages were built for.
    """

    def __init__(self, form: _SandwichForm, interp: CoefficientInterpolator, M0: np.ndarray, h: float):
        self.form = form
        # weights of every node row and of every slope row (less the
        # weights of a zero row)
        table, nodes = interp.table, interp.nodes
        G = len(table)
        rows = np.concatenate([table, interp.slopes, np.zeros_like(table[:1])])

        def where(i):
            if i < G:
                return f"at grid time t={nodes[i]:.6g}"
            return f"on the slope of grid interval [{nodes[i - G]:.6g}, {nodes[i - G + 1]:.6g}]"

        w = form.weights(interp.split(rows), where)
        reached = form.reached(M0)
        self._small = len(reached) <= _SUPEROPERATOR_ENTRIES
        self.idx = reached if self._small else np.arange(form.dim**2)
        r = len(self.idx)
        if self._small:
            # the weights as real rows [Re w | Im w] over the unit-weight
            # superoperators of the reached sector, and where the values
            # of L_k and of dL_k go in [L_k | dL_k]
            w = np.concatenate([w.real, w.imag], axis=1)
            rows, cols, self._units = form.superoperators(self.idx)
            self._at = np.concatenate([rows * 2 * r + cols, rows * 2 * r + r + cols])
            self._op = np.zeros((r, 2 * r))
        # the classical tableau as rows over [y; k1..k4]: the inputs of
        # stages 2 to 4, then the step (the input of stage 1 is y)
        tab = np.array([[1, h / 2, 0, 0, 0], [1, 0, h / 2, 0, 0], [1, 0, 0, h, 0], [1, h / 6, h / 3, h / 3, h / 6]])
        B = self._B = np.zeros((5, r))  # [y; k1..k4] of a step
        # a stage input u; on the sector [u; (t - t_k) u]
        self._x = np.empty(2 * r if self._small else r)
        self._u, self._ut = self._x[:r], self._x[r:]
        # for each stage s: the row of B its slope goes into, and the row
        # of the tableau times the rows of B written so far, into the next
        # stage's input or, after stage 4, a new array
        self._tableau = [(B[s], tab[s - 1, : s + 1], B[: s + 1], self._u if s < 4 else None) for s in range(1, 5)]
        self._w_node, self._w_slope = w[: G - 1], w[G:-1] - w[-1]
        self._key = self._stage = None  # interval built, stage combined

    def state(self, M: np.ndarray) -> np.ndarray:
        """The stepped state ``y = vec(M)[idx]`` of the real ``M``."""
        return M.reshape(-1)[self.idx]

    def matrix(self, y: np.ndarray) -> np.ndarray:
        """The real ``M`` of the stepped state ``y``, 0 off ``idx``."""
        M = np.zeros(self.form.dim**2)
        M[self.idx] = y
        return M.reshape(self.form.dim, -1)

    def _load(self, k: int) -> None:
        w = np.stack([self._w_node[k], self._w_slope[k]])
        if self._small:
            self._op.reshape(-1)[self._at] = (w @ self._units).reshape(-1)
        else:
            self._op = self.form.banded(w)
            self._c = np.empty_like(self._op[0])
        self._key, self._stage = k, None

    def _band_stage(self, stage: tuple) -> np.ndarray:
        """The band coefficients ``Op_k + (t - t_k) dOp_k`` of ``stage``
        on the current interval, combined once for a run of calls."""
        if stage != self._stage:
            np.multiply(self._op[1], stage[1], out=self._c)
            self._c += self._op[0]
            self._stage = stage
        return self._c

    def step(self, y: np.ndarray, c0: tuple, c_mid: tuple, c1: tuple) -> np.ndarray:
        """One classical RK4 step of ``y`` over the stages ``c0``, ``c_mid``,
        ``c1``, with the step ``h`` the stages were built for, in place:
        ``y`` goes into row 0 of ``B = [y; k1..k4]`` and is the input of
        stage 1; stage ``s`` writes its slope into row ``s``, and row ``s``
        of the tableau times the rows of ``B`` written so far is the input
        of stage ``s + 1``, or after stage 4 the step.  ``y`` is left
        untouched."""
        u, ut = self._u, self._ut
        self._B[0] = y
        np.copyto(u, y)
        for stage, (slope, row, done, out) in zip((c0, c_mid, c_mid, c1), self._tableau):
            k, dt = stage
            if k != self._key:
                self._load(k)
            if self._small:
                np.multiply(u, dt, out=ut)
                np.dot(self._op, self._x, out=slope)
            else:
                dim = self.form.dim
                self.form(u.reshape(dim, dim), self._band_stage(stage), out=slope.reshape(dim, dim))
            y_next = np.dot(row, done, out=out)
        return y_next


def _real_of(rho: np.ndarray) -> np.ndarray:
    """The real representation ``M = Re rho + Im rho`` of an exactly
    Hermitian ``rho``; any other ``rho`` raises ``ValueError``."""
    if not np.array_equal(rho, np.conj(rho).T):
        raise ValueError("state rho is not exactly Hermitian (rho != rho^dag entry by entry)")
    return rho.real + rho.imag


def _hermitian_of(M: np.ndarray) -> np.ndarray:
    """The Hermitian ``rho`` whose real representation is
    ``M = Re rho + Im rho``, for one ``M`` or a stack of them; exactly
    Hermitian in floating point."""
    Mt = np.swapaxes(M, -1, -2)
    return 0.5 * (M + Mt) + 0.5j * (M - Mt)


def me_rhs(rho: np.ndarray, coeff: dict, ops: dict) -> np.ndarray:
    """Right-hand side of the time-local master equation.

    ``coeff`` is a coefficient slice (matrices ``Gamma``, ``Theta``,
    ``Xi``, ``Upsilon`` over channels, optional scalars ``alpha``,
    ``beta``, ``gamma_pp``, ``lam_mu``).  ``ops`` holds the channel
    matrices ``A`` (list), their velocity conjugates ``V`` (list), the
    free Hamiltonian ``H0`` and, when Hamiltonian shifts are present,
    ``q`` and ``p``.  Evaluated in the sandwich form of the module
    docstring, with the operators of this one call, through the real
    representation of ``rho``.

    Raises ``ValueError`` for an operator of the wrong shape or not
    exactly Hermitian, a coefficient slice that is not exactly
    Hermiticity preserving, or a ``rho`` that is not exactly Hermitian.
    """
    shifts = bool(coeff.get("alpha", 0.0) or coeff.get("beta", 0.0) or coeff.get("lam_mu", 0.0))
    form = _SandwichForm(ops, rho.shape[0], shifts, bool(coeff.get("gamma_pp", 0.0)))
    c = {k: np.asarray(v)[None] if np.ndim(v) == 2 else v for k, v in coeff.items()}
    coef = form.banded(form.weights(c, lambda i: "of the slice"))[0]
    return _hermitian_of(form(_real_of(rho), coef))


def diagnostics(rho: np.ndarray) -> dict:
    """Trace, Hermiticity defect, minimum eigenvalue and purity."""
    herm = 0.5 * (rho + rho.conj().T)
    return {
        "trace": float(np.real(np.trace(rho))),
        "hermiticity_defect": float(np.max(np.abs(rho - rho.conj().T))),
        "min_eigenvalue": float(np.min(np.linalg.eigvalsh(herm))),
        "purity": float(np.sum(rho * rho.T).real),
    }


@dataclass
class Trajectory:
    """Sampled density-matrix evolution plus running diagnostics.

    ``real_states`` holds each sampled state once, as the real
    ``M = Re rho + Im rho`` of its Hermitian ``rho``: a float64 stack
    ``(n_samples, dim, dim)``, half the size of the complex one.
    :attr:`states` forms the complex stack on each read.  Both propagators
    build their trajectory with :meth:`record`.
    """

    times: np.ndarray
    real_states: np.ndarray = field(repr=False)
    diagnostics: dict = field(default_factory=dict)
    observables: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    # largest population of the top two Fock levels after any step, as
    # seen by the truncation guard; None when the guard is off
    top_population: float | None = None

    @classmethod
    def record(cls, times, real_states, observables=None, top_population=None, **logs) -> "Trajectory":
        """The trajectory of the sampled real forms ``real_states``.

        Each sample's ``rho = _hermitian_of(M)`` is formed in turn, so no
        complex stack exists: its :func:`diagnostics` and the
        ``Tr(op rho)`` of each of the ``observables`` are logged, and a
        trace drift beyond 1e-6 between the first and the last sample is
        a warning.  ``logs`` are further per-sample logs, kept with the
        diagnostics."""
        observables = observables or {}
        diag, obs = {}, {name: [] for name in observables}
        for M in real_states:
            rho = _hermitian_of(M)
            for key, value in diagnostics(rho).items():
                diag.setdefault(key, []).append(value)
            for name, op in observables.items():
                obs[name].append(float(np.sum(op * rho.T).real))  # Tr(op rho)
        drift = abs(diag["trace"][-1] - diag["trace"][0])
        warnings = [f"trace drift {drift:.3e} exceeds 1e-6 over the run"] if drift > 1e-6 else []
        return cls(times, real_states, {**diag, **logs}, obs, warnings, top_population)

    @property
    def states(self) -> np.ndarray:
        """The sampled ``rho`` ``(n_samples, dim, dim)``, formed from
        ``real_states`` by :func:`_hermitian_of` on each read."""
        return _hermitian_of(self.real_states)


@dataclass
class MomentTrajectory:
    """Sampled Gaussian first and second moments."""

    times: np.ndarray
    means: np.ndarray = field(repr=False)
    covs: np.ndarray = field(repr=False)
    uncertainty_ok: bool = True


def _rk4_step(rhs, y, h, c0, c_mid, c1):
    """One classical RK4 step of ``dy/dt = rhs(y, c)``; ``c0``, ``c_mid``
    and ``c1`` are the coefficients at ``t``, ``t + h/2`` and ``t + h``.
    :class:`_Stages` take the step themselves, in place
    (:meth:`_Stages.step`); the tableau written out here serves
    :func:`evolve_moments`."""
    if isinstance(rhs, _Stages):
        return rhs.step(y, c0, c_mid, c1)
    k1 = rhs(y, c0)
    k2 = rhs(y + 0.5 * h * k1, c_mid)
    k3 = rhs(y + 0.5 * h * k2, c_mid)
    k4 = rhs(y + h * k3, c1)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stage_blocks(n_steps: int, h: float):
    """The RK4 stage times ``t, t + h/2, t + h`` of every step
    (``t = step * h``), ``_BLOCK_STEPS`` steps at a time: yields the first
    step, the step count and the block's times, step-major."""
    for first in range(0, n_steps, _BLOCK_STEPS):
        count = min(_BLOCK_STEPS, n_steps - first)
        t = np.arange(first, first + count) * h
        yield first, count, np.stack([t, t + 0.5 * h, t + h], axis=1).ravel()


def aligned_steps(t_final: float, h: float, n_samples: int) -> tuple[int, float]:
    """Step count and effective step so samples land exactly on steps.

    Rounds the requested step count up to a multiple of the sample
    intervals; the effective step is then at most ``h``.  ``t_final`` and
    ``h`` must be finite and positive, and ``n_samples`` at least 2.
    """
    if not (np.isfinite(t_final) and t_final > 0):
        raise ValueError(f"t_final must be finite and > 0, got {t_final}")
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"step h must be finite and > 0, got {h}")
    if not n_samples >= 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    intervals = n_samples - 1
    per_interval = max(int(np.ceil(t_final / h / intervals - 1e-9)), 1)
    n_steps = per_interval * intervals
    return n_steps, t_final / n_steps


def _schedule(coeffs: MECoefficients, t_final: float, h: float, n_samples: int) -> tuple:
    """Step count, effective step and steps between samples of a run to
    ``t_final`` (:func:`aligned_steps`), and the interpolator of
    ``coeffs``; a ``t_final`` past the coefficient grid raises
    ``ValueError``."""
    if t_final > coeffs.grid.t_max + 1e-12:
        raise ValueError(f"t_final {t_final} exceeds coefficient grid t_max {coeffs.grid.t_max}")
    n_steps, h_eff = aligned_steps(t_final, h, n_samples)
    return n_steps, h_eff, n_steps // (n_samples - 1), CoefficientInterpolator(coeffs)


def evolve(
    rho0: np.ndarray,
    coeffs: MECoefficients,
    ops: dict,
    t_final: float,
    h: float,
    n_samples: int = 101,
    observables: dict | None = None,
    truncation_guard: bool = True,
) -> Trajectory:
    """Propagate the density matrix ``rho0`` with fixed-step RK4.

    ``rho0`` must be a square matrix of the dimension of ``ops["H0"]``.
    Samples ``n_samples`` equally spaced times in ``[0, t_final]``;
    :meth:`Trajectory.record` logs their trace, Hermiticity defect (0 by
    construction), minimum eigenvalue, purity and ``observables``.  The
    truncation guard aborts when the top two Fock levels accumulate more
    than ``TRUNCATION_LIMIT`` population (disabled automatically for
    dim <= 3, where the whole basis is "the top").  The state is never
    rescaled to unit trace; trace drift beyond 1e-6 is a warning.

    Raises ``ValueError`` before the first step for: a ``rho0`` of the
    wrong shape or not exactly Hermitian; an operator of the wrong shape
    or not exactly Hermitian; a coefficient node or slope row that is not
    exactly Hermiticity preserving (named by grid time or interval); a
    ``t_final`` past the grid; what :func:`aligned_steps` rejects.
    """
    rho = np.array(rho0, dtype=complex)
    if rho.shape != (len(ops["H0"]),) * 2:
        raise ValueError(
            f"rho0 must be a square matrix of the dimension of ops['H0'] "
            f"{np.shape(ops['H0'])}, got shape {rho.shape}"
        )
    # the real M of rho, whose diagonal is the populations
    M = _real_of(rho)
    dim = rho.shape[0]
    n_steps, h_eff, every, interp = _schedule(coeffs, t_final, h, n_samples)
    stages = _Stages(_SandwichForm.of_run(coeffs, ops, dim), interp, M, h_eff)
    y = stages.state(M)

    states = np.empty((n_samples, dim, dim))
    states[0] = M
    guard_on = truncation_guard and dim > 3
    top = 0.0 if guard_on else None  # peak population of the top two levels
    # where y holds the populations of the top two levels; an entry the
    # state does not reach stays 0
    tops = [int(np.searchsorted(stages.idx, e)) for e in (dim * dim - 1, dim * dim - dim - 2) if e in stages.idx]
    for first, count, times in _stage_blocks(n_steps, h_eff):
        k, dt = interp.intervals(times)
        k, dt = k.tolist(), dt.tolist()
        for i in range(count):
            s = slice(3 * i, 3 * i + 3)
            y = _rk4_step(stages, y, h_eff, *zip(k[s], dt[s]))
            step = first + i + 1
            t = step * h_eff
            # any NaN or inf entry makes the sum of squares non-finite, and
            # no sum of squares cancels: only an overflow needs the full test
            if not math.isfinite(np.dot(y, y)) and not np.isfinite(y).all():
                raise EvolutionError(f"state became non-finite at t={t:.6g}", time=t - h_eff)
            if guard_on:
                top = max(top, sum(y[j] for j in tops))
                if top > TRUNCATION_LIMIT:
                    raise TruncationError(
                        f"top two Fock levels hold {top:.3e} population "
                        f"at t={t:.6g}; increase the truncation dimension",
                        time=t,
                    )
            sample, rest = divmod(step, every)
            if rest == 0:
                states[sample] = stages.matrix(y)

    top = None if top is None else float(top)
    return Trajectory.record(np.linspace(0.0, t_final, n_samples), states, observables, top)


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
    (:func:`_moment_matrices`), and the RK4 step of the identity under
    them is the step matrix of each step.
    """
    if coeffs.scenario == "dephasing" or coeffs.n_channels != 1:
        raise ValueError("moment propagation needs a linear single-channel scenario")
    n_steps, h_eff, every, interp = _schedule(coeffs, t_final, h, n_samples)
    y = np.concatenate([m0.mean, m0.cov.ravel(), [1.0]])
    samples = np.empty((n_samples, 7))
    samples[0] = y
    for first, count, times in _stage_blocks(n_steps, h_eff):
        K = _moment_matrices(interp.split(interp.rows(times)), m, omega)
        P = _rk4_step(lambda x, K: K @ x, np.eye(7), h_eff, K[0::3], K[1::3], K[2::3])
        for i in range(count):
            y = P[i] @ y
            sample, rest = divmod(first + i + 1, every)
            if rest == 0:
                samples[sample] = y

    covs = samples[:, 2:6].reshape(-1, 2, 2)
    dets = covs[:, 0, 0] * covs[:, 1, 1] - covs[:, 0, 1] ** 2
    return MomentTrajectory(
        times=np.linspace(0.0, t_final, n_samples),
        means=samples[:, :2],
        covs=covs,
        uncertainty_ok=bool(np.all(dets >= 0.25 - _UNCERTAINTY_TOL)),
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
