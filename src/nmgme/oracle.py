"""Brute-force ground truth: exact unitary evolution of the system plus
a few discrete bath modes, followed by a partial trace.

The joint Hamiltonian ``H`` is time independent, so ``exp(-iHt) psi0``
needs no integrator.  ``H`` is kept as its coalesced nonzero entries
(about 11 a row for a Fock system on three modes), never as an ``N x N``
array, and the propagator acts only on the sectors the initial state
reaches: the connected components of the nonzero pattern of ``H`` that
hold the support of ``psi0``.  ``H`` is block diagonal over its
components, so no amplitude leaves them.  On that block ``exp(-iHt)`` is
one Chebyshev expansion (Tal-Ezer & Kosloff 1984) over ``[0, t_final]``,
made of sparse matrix-vector products only and cut where a rigorous
bound puts its tail below ``CHEBYSHEV_TAIL`` at every sample time, so
the result is exact to rounding with no step size and no integrator
coupling between oracle and master-equation errors.  The induced bath
correlation kernel of a model equals ``make_discrete_modes`` on the same
``(frequencies, couplings)`` by construction, so both sides of a
comparison share one bath definition.

Discrete-mode kernels are quasi-periodic; comparisons are meaningful
only below the bath recurrence time, which the comparison report
estimates as ``2 pi / min gap(frequencies)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bath import require_finite
from .propagate import Trajectory, _hermitian_of, _real_of

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
#: bound on the norm of the discarded tail of the Chebyshev expansion
CHEBYSHEV_TAIL = 1e-15


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
    each mode's Fock space (6 is plenty at weak coupling).  A NaN or an
    infinity in ``h_system``, a channel operator, ``mode_freqs`` or
    ``couplings`` raises ``ValueError`` naming the field.
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
        ops = {f"channel_ops[{j}]": op for j, op in enumerate(self.channel_ops)}
        require_finite(h_system=self.h_system, **ops, mode_freqs=freqs, couplings=g)
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


@dataclass(frozen=True)
class _Entries:
    """Coalesced entries of a square matrix: ``M[rows[i], cols[i]] =
    vals[i]``, sorted by ``(row, column)``, each position once, no stored
    zeros.  ``M @ v`` is one ``np.bincount`` over the rows (one each for
    the real and imaginary parts when complex)."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        prod = self.vals * v[self.cols]
        n = self.shape[0]
        if np.isrealobj(prod):
            return np.bincount(self.rows, prod, n)
        return np.bincount(self.rows, prod.real, n) + 1j * np.bincount(self.rows, prod.imag, n)


def build_joint(model: JointModel) -> _Entries:
    """Assemble the coalesced entries of the joint Hamiltonian.

    ``H = H_S x 1 + 1 x sum_m w_m n_m + sum_jm A_j x (g_jm b_m + h.c.)``
    on the ``(system, bath)`` index ``s * n_b + n``: ``H_S`` on each
    bath-diagonal block, ``w_m n_m`` on the main diagonal and ``A_j g_jm
    sqrt(n_m)`` at each pair of bath states ``(n - e_m, n)`` with its
    conjugate at ``(n, n - e_m)``, one term per nonzero of ``H_S`` and
    ``A_j``; the terms at one position add in the order listed.  Real
    when every entry is real.  Hermiticity defect of the result (each
    entry against its transposed partner) is checked below 1e-12.
    """
    d_s, dims = model.system_dim, model.mode_dims
    n_b = int(np.prod(dims))
    N = d_s * n_b
    g = np.atleast_2d(np.asarray(model.couplings, dtype=complex))
    h_s, ops = model.h_system, model.channel_ops
    real = not any(np.iscomplexobj(x) and x.imag.any() for x in (g, h_s, *ops))
    if real:
        g, h_s, ops = g.real, h_s.real, [A.real for A in ops]
    rows, cols, vals = [], [], []

    def add(op, lo, hi, weight):
        # op[a, c] * weight[k] at (a, lo[k]), (c, hi[k]) for each nonzero
        a, c = np.nonzero(op)
        rows.append((a[:, None] * n_b + lo).ravel())
        cols.append((c[:, None] * n_b + hi).ravel())
        vals.append((op[a, c][:, None] * weight).ravel())

    every = np.arange(n_b)
    add(h_s, every, every, np.ones(n_b))
    # occupation of each mode in each bath state (C order, last mode fastest)
    occ = np.indices(dims).reshape(len(dims), n_b)
    for m, freq in enumerate(model.mode_freqs):
        root = np.sqrt(occ[m])
        # sqrt(n) * sqrt(n) rounds like the matrix product b^dag b
        add(np.eye(d_s), every, every, freq * (root * root))
        hi = np.flatnonzero(occ[m])  # states n with n_m >= 1
        lo = hi - int(np.prod(dims[m + 1 :]))  # n - e_m
        for j, A in enumerate(ops):
            if g[j, m] == 0:
                continue
            lower = g[j, m] * root[hi]
            add(A, lo, hi, lower)
            add(A, hi, lo, np.conj(lower))

    keys, slot = np.unique(np.concatenate(rows) * N + np.concatenate(cols), return_inverse=True)
    terms = np.concatenate(vals)
    # bincount adds the terms of a position in their order above
    vals = np.bincount(slot, terms.real, keys.size)
    if not real:
        vals = vals + 1j * np.bincount(slot, terms.imag, keys.size)
    nz = vals != 0
    keys, vals = keys[nz], vals[nz]
    rows, cols = np.divmod(keys, N)

    # a partner absent from the entries is 0; numpy's search is fast only
    # for ascending needles
    partner = cols * N + rows
    order = np.argsort(partner)
    partner = partner[order]
    at = np.minimum(np.searchsorted(keys, partner), keys.size - 1)
    mirror = np.where(keys[at] == partner, vals[at], 0)
    defect = np.max(np.abs(vals[order] - np.conj(mirror)), initial=0.0)
    if not defect <= 1e-12:
        raise ValueError(f"joint Hamiltonian not Hermitian: defect {defect:.3e}")
    if not real and not vals.imag.any():
        vals = vals.real
    return _Entries(rows, cols, vals, (N, N))


def _vacuum(model: JointModel) -> np.ndarray:
    vac = np.zeros(int(np.prod(model.mode_dims)), dtype=complex)
    vac[0] = 1.0
    return vac


def _reduce(psi: np.ndarray, d_s: int) -> np.ndarray:
    mat = psi.reshape(d_s, -1)
    return mat @ mat.conj().T


def _bessel_j(k_max: int, x: np.ndarray) -> np.ndarray:
    """``J_k(x_j)`` for ``k <= k_max`` at each ``x_j >= 0``, shape
    ``(k_max + 1, len(x))``.

    Miller's backward recurrence ``J_{k-1} = (2k/x) J_k - J_{k+1}``
    from ``J_{m+1} = 0, J_m = 1`` at ``m`` past both ``k_max`` and
    ``x`` (the start margin of Numerical Recipes' ``bessj``), rescaled
    where a value has passed 1e250 and normalised by
    ``J_0 + 2 sum_k J_2k = 1``.  A step multiplies the largest value by
    at most ``g = 2m / min(x) + 1``, so testing every ``s`` steps with
    ``g^s <= 1e50`` keeps every value below 1e300.
    """
    x = np.asarray(x, dtype=float)
    J = np.zeros((k_max + 1, x.size))
    J[0, x == 0] = 1.0
    pos = np.flatnonzero(x > 0)
    if pos.size:
        xp = x[pos]
        top = max(k_max, math.ceil(xp.max()))
        m = 2 * ((top + int(math.sqrt(160 * top)) + 16) // 2)
        B = np.zeros((m + 2, xp.size))
        B[m] = 1.0
        s = max(1, int(50 / math.log10(2 * m / xp.min() + 1)))
        for k in range(m, 0, -1):
            B[k - 1] = (2 * k / xp) * B[k] - B[k + 1]
            if k % s == 0:
                big = np.abs(B[k - 1]) > 1e250
                if big.any():
                    B[k - 1 :, big] *= 1e-250
        J[:, pos] = B[: k_max + 1] / (B[0] + 2 * B[2::2].sum(axis=0))
    return J


def _chebyshev_order(x: float) -> int:
    """Smallest ``K`` with ``sum_{k > K} 2 |J_k(x)| <= CHEBYSHEV_TAIL``.

    ``|J_k(x)| <= (x/2)^k / k!`` bounds the sum by the geometric tail
    ``2 (x/2)^{K+1} / (K+1)! / (1 - x/(2K+4))`` once ``2K + 4 > x``.
    """
    if x <= 0:
        return 0
    log_tail = math.log(CHEBYSHEV_TAIL / 2)
    K = 0
    while 2 * K + 4 <= x or (
        (K + 1) * math.log(x / 2) - math.lgamma(K + 2) - math.log1p(-x / (2 * K + 4))
        > log_tail
    ):
        K += 1
    return K


def _chebyshev_propagate(H: _Entries, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``exp(-iHt) psi0`` at each of the ascending ``times >= 0``, one
    row per time.

    ``[c - r, c + r]`` is the Gershgorin enclosure of the spectrum of the
    Hermitian ``H``.  With ``X = (H - c)/r``, whose spectrum lies in
    ``[-1, 1]``, ``exp(-iHt) = e^{-ict} sum_k (2 - delta_k0) (-i)^k
    J_k(rt) T_k(X)``; ``v_k = T_k(X) psi0`` follows the three-term
    recursion ``v_{k+1} = 2 X v_k - v_{k-1}`` (real when ``H`` and
    ``psi0`` are), and the series stops at the order
    :func:`_chebyshev_order` gives for the last time.  ``|T_k(X)| <= 1``,
    so every sample is off by at most ``CHEBYSHEV_TAIL`` plus rounding.
    A one-point spectrum (``r = 0``) is the pure phase ``e^{-ict}``.  The
    sums go into one complex output, which takes the phase in place.
    """
    n = H.shape[0]
    on = H.rows == H.cols
    diag = np.zeros(n)
    diag[H.rows[on]] = H.vals[on].real
    radii = np.bincount(H.rows, np.abs(H.vals), n) - np.abs(diag)
    lo, hi = np.min(diag - radii), np.max(diag + radii)
    c, r = (hi + lo) / 2, (hi - lo) / 2
    phase = np.exp(-1j * c * times)[:, None]
    if r == 0:
        return phase * psi0
    K = _chebyshev_order(r * times[-1])
    real = np.isrealobj(H.vals) and not psi0.imag.any()
    v = np.empty((K + 1, psi0.size), dtype=float if real else complex)
    v[0] = psi0.real if real else psi0
    if K:
        v[1] = (H @ v[0] - c * v[0]) / r
    for k in range(1, K):
        v[k + 1] = (2 / r) * (H @ v[k] - c * v[k]) - v[k - 1]
    # (2 - delta_k0) (-i)^k J_k is real at even k and imaginary at odd k
    w = _bessel_j(K, r * times) * np.array([1.0, -1.0, -1.0, 1.0])[np.arange(K + 1) % 4, None]
    w[1:] *= 2
    # numpy's complex product rounds by operand order, so each factor
    # stays the first operand, as in phase * (even + 1j * odd)
    out = np.empty((times.size, psi0.size), dtype=complex)
    if real:
        # the even terms sum to the real part, the odd to the imaginary
        out.real = w[0::2].T @ v[0::2]
        out.imag = w[1::2].T @ v[1::2]
    else:
        np.matmul(w[0::2].T, v[0::2], out=out)
        odd = w[1::2].T @ v[1::2]
        out += np.multiply(1j, odd, out=odd)
    return np.multiply(phase, out, out=out)


def evolve_joint(
    model: JointModel,
    psi0_system: np.ndarray,
    t_final: float,
    n_samples: int = 101,
) -> Trajectory:
    """Exact reduced dynamics of a factorized initial state.

    ``psi0_system`` is the (pure) system state; the bath starts in the
    vacuum.  ``idx`` lists the joint states in the connected components
    of ``H`` that hold a nonzero entry of ``psi0``.  The joint state at
    each of the ``n_samples`` times ``t_k`` in ``[0, t_final]`` is
    ``exp(-i H[idx, idx] t_k) psi0[idx]`` (:func:`_chebyshev_propagate`
    on the entries of that block) on ``idx`` and zero elsewhere; each
    sample is formed from its row of the reached amplitudes in turn, its
    norm logged and the state reduced by partial trace over the bath;
    the trajectory keeps the real form of the reduced state's Hermitian
    part, and :meth:`Trajectory.record` logs the diagnostics of that
    form, whose Hermiticity defect is 0.  A system state that is not
    finite or not normalized raises ``ValueError`` before ``H`` is built;
    a sampled norm off 1 by more than 1e-8, or not a number, aborts the
    run.
    """
    psi_s = np.asarray(psi0_system, dtype=complex)
    if not abs(np.linalg.norm(psi_s) - 1.0) <= 1e-10:
        raise ValueError("system state must be normalized")
    psi0 = np.kron(psi_s, _vacuum(model))

    H = build_joint(model)
    # H is Hermitian, so its nonzero pattern is symmetric: a frontier
    # search from the support of psi0 finds exactly its components
    reached = frontier = psi0 != 0
    while frontier.any():
        hit = np.zeros_like(reached)
        hit[H.cols[frontier[H.rows]]] = True
        frontier = hit & ~reached
        reached |= frontier
    idx = np.flatnonzero(reached)
    if idx.size < H.shape[0]:
        # the reached rows hold every entry of their columns; renumbering
        # them in order keeps the entries sorted
        new = np.cumsum(reached) - 1
        on = reached[H.rows]
        H = _Entries(new[H.rows[on]], new[H.cols[on]], H.vals[on], (idx.size, idx.size))
    # one expansion over all reached components
    times = np.linspace(0.0, t_final, n_samples)
    amps = _chebyshev_propagate(H, psi0[idx], times)

    d_s = model.system_dim
    states = np.empty((n_samples, d_s, d_s))
    norms = []
    psi = np.zeros(reached.size, dtype=complex)  # one joint state at a time
    for i, (t, row) in enumerate(zip(times, amps)):
        psi[idx] = row
        norms.append(float(np.linalg.norm(psi)))
        if not abs(norms[-1] - 1.0) <= 1e-8:
            raise RuntimeError(f"joint norm drifted to {norms[-1]} at t={t:.6g}")
        rho = _reduce(psi, d_s)
        states[i] = _real_of(0.5 * (rho + rho.conj().T))  # exactly Hermitian
    return Trajectory.record(times, states, norm=norms)


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

    The difference of two Hermitian states is Hermitian, so its trace
    norm is the sum of the absolute values of its eigenvalues
    (``eigvalsh``); it is formed from the difference of the real forms,
    to which it is linear.  Rejects mismatched sample times or
    dimensions.  The report carries the distance curve, its maximum, and
    (when the mode comb is given) the bath recurrence estimate that
    bounds the meaningful window.
    """
    ta, tb = oracle_traj.times, me_traj.times
    if len(ta) != len(tb) or np.max(np.abs(np.asarray(ta) - np.asarray(tb))) > 1e-9:
        raise ValueError("trajectories sampled at different times")
    if oracle_traj.real_states.shape != me_traj.real_states.shape:
        raise ValueError("trajectories have different system dimensions")
    dists = [
        0.5 * np.sum(np.abs(np.linalg.eigvalsh(_hermitian_of(a - b))))
        for a, b in zip(oracle_traj.real_states, me_traj.real_states)
    ]
    report = {
        "times": [float(t) for t in ta],
        "trace_distance": [float(d) for d in dists],
        "max_trace_distance": float(np.max(dists)),
    }
    if mode_freqs is not None:
        report["recurrence_time_estimate"] = recurrence_estimate(mode_freqs)
    return report
