"""Wick-contraction kernel recursions and the nonlocal kernel series.

At a fixed outer time ``t`` the memory kernels ``A_jk(t, s1)`` and
``B_jk(t, s1)`` of the closed master equation are sums of contraction
chains built from the bath correlation ``D`` and the channel commutator
``f``.  A chain is a sequence of elementary contractions; splitting a
chain at its last link yields closed two-table recursions:

* ``b^n`` chains end by leaving a bath-correlation factor behind and are
  represented by a table over ``(s1, t2)``.  Their source-time dependence
  factorizes through ``D^Im(t, s1)``, so the recursion composes the
  source-independent factor (stored alongside the table).
* ``a^n`` chains end by leaving a commutator-channel operator behind.
  Their dependence on the final pair time ``t2`` enters only through the
  last bath factor, so the table is stored as a pair ``(P, Q)`` with
  ``a^n(s1; t2, s2) = P(s1, s2) D^Re(t2, s2) + Q(s1, s2) D^Im(t2, s2)``
  (channel indices contracted against the last factor).

All integrals are iterated rules on the triangle ``0 <= s <= tau <= t``
with the half-weight diagonal convention: the step ``theta(t_a - t_b)``
is 1/2 at ``a = b``.

``D`` and ``f`` depend on ``t - s`` only, so each channel pair is sampled
once on the ``2G - 1`` lags of the grid and gathered onto the grid
square (:class:`SampledKernels`).  Channel and time indices are flattened
time-major, so a table ``X[j, k, a, b]`` is the matrix
``X[(a, j), (b, k)]`` and every contraction is one matrix product after
the quadrature weights are applied elementwise.

**One build for every outer time** (:func:`build_ab_tables`).  The
corrections ``alpha^n``/``beta^n`` at ``t_K`` read the order-``n`` tables
only through their outer-rule sums ``int_0^{t_K} dsig``: ``r_n`` (the sum
of ``b^n``, which equals that of ``P^n``) and ``q_n`` (the sum of
``Q^n``), ``d`` rows each.  Every recursion step multiplies these sums
from the right by matrices that do not depend on the outer time, so they
are stacked as the row blocks of ``(G d) x (G d)`` matrices, row block
``K`` holding ``t_K``, and each step is one product for all outer times.
The result is one :class:`SeriesTables` record: ``A`` and ``B`` as
``(d, d, G, G)`` arrays, row ``K`` at ``t_K``, the per-order norms of
every outer time and the prefix rule the rows were built with, which the
coefficient reduction and the reports read as built.
:func:`assemble_AB` cuts one outer time out of it.

**Real arithmetic.**  The channels of every model are Hermitian
combinations of ``q`` and ``p``, so ``f = [x_t, x_s]`` is ``i`` times a
real kernel (``Re f`` is exactly 0; sampling raises otherwise).  With
``Gamma1 = Im G1``, ``Phi = Im F_below``, ``WDX`` the samples ``D^X``
times the prefix-weight matrix and ``U_X = WDX Gamma1`` (the imaginary
part of ``V_X``; the build forms both) every chain sum is real.  With
``Pw`` the prefix-weight matrix on channel pairs (it scales row block
``K`` by the outer rule of ``t_K`` and zeroes every column past ``t_K``)
and ``*`` elementwise::

    r_1 = -2 U_im                  q_1 = -2 U_re
    s_n     = r_n WDRe^T + q_n WDIm^T
    r_{n+1} = -2 (r_n * Pw) U_im
    q_{n+1} =  2 [(s_n * Pw) Phi - (r_n * Pw) U_re]
    alpha_n[K] = (-1)^n (s_n + r_n (Wsuf_K * DRe))[block K, columns <= K]
    beta_n[K]  = (-1)^n (      r_n (Wsuf_K * DIm))[block K, columns <= K]

(The ``D(t_K, .)`` pin of ``b^1`` is row block ``K`` of ``WDIm``, so
``r_1 = 2i WDIm G1 = -2 U_im``.)

**The suffix term as one product.**  The suffix rule ``Wsuf_K`` of
``int_{s1}^{t_K} dtau`` depends on ``t_K`` only at ``tau = t_{K-1}, t_K``;
elsewhere it is the rule of the longest interval, ``Tsuf``.  So ``D`` is
weighted by ``Tsuf`` once (``SDX``), row block ``K`` of ``r_n`` is masked
to its columns ``tau <= t_{K-2}``, and the masked ``r_n SDX`` is one
product per order for all outer times.  The two-point end term at
``t_{K-1}, t_K`` is one batched ``(d, 2d) @ (2d, .)`` product over the
outer times.  Sup-norms, the ``eps_series`` stop and the sums into ``A``
and ``B`` are array operations over the outer times.

**Slabs.**  Row block ``K`` of order ``n + 1`` depends only on row block
``K`` of order ``n``, and has no entry past ``t_K``.  So the outer times
run in even slabs ``[K0, K1)`` of at most :data:`SLAB`, at least three
once ``G d >=`` :data:`SLAB_SPLIT` (one below: the products are small),
each through every order on the leading ``K1 d`` columns of the operands
only: the result is the same, the working arrays have slab height and
the cost is about a third of ``O(order (G d)^3)``.

The per-time engine (:class:`SeriesContext`, :func:`contraction_BA`,
:func:`contraction_BB`, :func:`recurse_a`, :func:`recurse_b`,
:func:`alpha_beta`) builds the full tables at one outer time from the
leading ``[0, t_K]`` squares of the samples, in complex arithmetic,
and derives its weighted operands there; it is kept as a reference for
the tests.  Results are deterministic at a fixed BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bath import CorrelationKernel
# quad_weights is not called here; perfbench/tracing.py counts quadrature
# builds through this module's name as well.
from .grids import TimeGrid, lags, on_square, prefix_weights, quad_weights  # noqa: F401
from .system import CommutatorKernel

__all__ = [
    "SeriesConfig",
    "SampledKernels",
    "KernelTable",
    "ABKernels",
    "SeriesTables",
    "SeriesContext",
    "contraction_BA",
    "contraction_BB",
    "recurse_b",
    "recurse_a",
    "alpha_beta",
    "assemble_AB",
    "build_ab_tables",
    "dump_convergence_csv",
]


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation control for the kernel series.

    ``max_order`` bounds the number of contraction orders; the series is
    cut earlier once the relative sup-norm of the last included order
    drops below ``eps_series``.
    """

    max_order: int = 3
    eps_series: float = 1e-6
    method: str = "trapezoid"

    def __post_init__(self):
        if self.max_order < 0:
            raise ValueError(f"max_order must be >= 0, got {self.max_order}")
        if self.eps_series <= 0:
            raise ValueError(f"eps_series must be positive, got {self.eps_series}")


def _blk(X: np.ndarray) -> np.ndarray:
    """``X[j, k, a, b]`` as the matrix ``M[(a, j), (b, k)]``; a view when
    ``X`` is an :func:`_unblk` view."""
    d1, d2, n1, n2 = X.shape
    return X.transpose(2, 0, 3, 1).reshape(n1 * d1, n2 * d2)


def _unblk(M: np.ndarray, d: int) -> np.ndarray:
    """View of the matrix ``M[(a, j), (b, k)]`` as ``X[j, k, a, b]``."""
    return M.reshape(M.shape[0] // d, d, M.shape[1] // d, d).transpose(1, 3, 0, 2)


def _gather(lagged: np.ndarray) -> np.ndarray:
    """Lag samples ``L[j, k, u]`` as the contiguous matrix
    ``M[(a, j), (b, k)] = L[j, k, t_a - t_b]``."""
    # laid out channel-last and lag-reversed in memory, the columns (b, k)
    # of each row of M are one contiguous run of the samples
    rev = np.ascontiguousarray(lagged[..., ::-1].transpose(0, 2, 1))
    return np.ascontiguousarray(_blk(on_square(rev[:, ::-1].transpose(0, 2, 1))))


def _stepped(lagged: np.ndarray, u: np.ndarray) -> tuple:
    """``(G1, F_below)`` parts of commutator samples ``lagged[j, k]`` on
    the lags ``u``: ``theta(t_a - t_b) f^{jk}(t_a, t_b)`` at
    ``[(b, k), (a, j)]`` and ``theta(t_b - t_a) f^{jk}(t_a, t_b)`` at
    ``[(a, j), (b, k)]``, with the half-weight step ``theta(0) = 1/2``;
    read-only."""
    theta = 0.5 + 0.5 * np.sign(u)
    # G1 reads the lag -u with the channels swapped
    return _read_only(_gather((theta * lagged).transpose(1, 0, 2)[..., ::-1]), _gather(theta[::-1] * lagged))


def _weigh(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``W[a, b] X[(a, j), (b, k)]``: time weights applied to the blocks of
    ``X``."""
    n, d = W.shape[0], X.shape[0] // W.shape[0]
    return (X.reshape(n, d, n * d) * np.repeat(W, d, axis=1)[:, None]).reshape(X.shape)


def _on_pairs(W: np.ndarray, d: int) -> np.ndarray:
    """Time weights ``W[a, b]`` spread over the channel pairs of each block."""
    return np.repeat(np.repeat(W, d, axis=0), d, axis=1)


def _pin(T: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``out[(a, j), c] = sum_l T[a, j, l] X[(a, l), c]``: a channel matrix
    per time ``a`` applied to the rows of ``X``."""
    n, d, _ = T.shape
    return np.matmul(T, X.reshape(n, d, -1)).reshape(n * d, -1)


def _read_only(*arrays) -> tuple:
    """``arrays``, marked read-only."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


class SampledKernels:
    """``D`` and ``f`` sampled once on the grid lags, gathered onto the
    whole grid square.

    ``DRe``/``DIm``, ``Gamma1`` and ``Phi`` are real ``(G d, G d)``
    matrices in the time-major layout of the module docstring; the
    inputs at outer index ``K`` are their leading ``(K + 1) d`` squares.
    ``Gamma1`` is the imaginary part of the order-1 source-independent
    chain factor ``g^1[l, j2](s1, t2) = f^{j2 l}(t2, s1) theta(t2 - s1)``
    and ``Phi`` that of ``F_below = f^{jk}(a, b) theta(b - a)``; both are
    the whole of it, since ``Re f`` must be exactly 0 (Hermitian
    channels).  They are gathered on first use: a zeroth-order closure
    never reads them.  ``Wpre`` is the ``(G, G)`` prefix-weight matrix.
    The table holds the samples only: each consumer weighs them itself.
    The arrays are read-only: tables share them as views.  The samples
    are checked here, once, for finiteness and for ``Re f = 0``; tables
    check only what the recursions compute.
    """

    def __init__(
        self,
        D: CorrelationKernel,
        f: CommutatorKernel,
        grid: TimeGrid,
        method: str = "trapezoid",
    ):
        if D.n_channels != f.n_channels:
            raise ValueError(
                f"correlation kernel has {D.n_channels} channels, "
                f"commutator kernel has {f.n_channels}"
            )
        self.D, self.f, self.grid, self.method = D, f, grid, method
        self.d = d = D.n_channels
        # each channel pair once, on the 2G - 1 lags u = t - s; through
        # __call__ at s = 0, so a traced call counts its points
        u = lags(grid)
        Dl = np.array([[D(j, k, u, 0.0) for k in range(d)] for j in range(d)])
        fl = np.array([[f(j, k, u, 0.0) for k in range(d)] for j in range(d)])
        for name, arr in (("D", Dl), ("f", fl)):
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite entries in sampled {name}")
        if fl.real.any():
            raise ValueError("commutator kernel has a real part; the series needs Re f = 0 (Hermitian channels)")
        self.Wpre = prefix_weights(grid.n_points, grid.h, method)
        self.DRe = _gather(Dl.real)
        self.DIm = _gather(Dl.imag)
        _read_only(self.Wpre, self.DRe, self.DIm)
        self._f_lags = fl.imag, u

    @cached_property
    def _chain_factors(self) -> tuple:
        return _stepped(*self._f_lags)

    @property
    def Gamma1(self) -> np.ndarray:
        return self._chain_factors[0]

    @property
    def Phi(self) -> np.ndarray:
        return self._chain_factors[1]


class SeriesContext:
    """Inputs shared by every table at outer index ``outer_index``, in
    complex arithmetic.

    Prefix views of the :class:`SampledKernels` matrices and the
    operands derived from them on the leading block: ``WDRe``/``WDIm``
    (``D^X`` times the prefix-weight matrix), the complex ``G1 = i
    Gamma1`` and ``F_below = i Phi``, ``V = (WDIm G1, WDRe G1)``, the
    outer rule ``w`` (the last row of the prefix-weight matrix) and the
    suffix-weight matrix ``Wsuf``, whose row ``i`` is the rule of
    ``int_{t_i}^{t_K}``.
    """

    def __init__(self, samples: SampledKernels, outer_index: int):
        K = int(outer_index)
        self.samples = samples
        self.grid = samples.grid
        self.d = d = samples.d
        self.outer_index = K
        self.n = n = K + 1
        self.outer_time = float(self.grid.points[K])
        N = n * d
        self.DRe = samples.DRe[:N, :N]
        self.DIm = samples.DIm[:N, :N]
        self.WDRe = _weigh(samples.Wpre[:n, :n], self.DRe)
        self.WDIm = _weigh(samples.Wpre[:n, :n], self.DIm)
        self.G1 = 1j * samples.Gamma1[:N, :N]
        self.F_below = 1j * samples.Phi[:N, :N]
        # V_X[k, m](tau', s2) = int_0^{tau'} dsig' D^X[k, l](tau', sig')
        # f^{m l}(s2, sig') theta(s2 - sig'), as (V_im, V_re)
        self.V = (self.WDIm @ self.G1, self.WDRe @ self.G1)
        self.w = samples.Wpre[K, :n]
        # the same rule on the flattened (time, channel) axis
        self.w_blk = np.repeat(self.w, d)
        self.Wsuf = np.zeros((n, n))
        for i in range(n):
            self.Wsuf[i, i:] = samples.Wpre[K - i, : n - i]
        # D with its first slot pinned at the outer time: [a, j, k] = D_jk(t, s_a)
        self.DRe_t = self.DRe[N - d :].reshape(d, n, d).transpose(1, 0, 2)
        self.DIm_t = self.DIm[N - d :].reshape(d, n, d).transpose(1, 0, 2)


@dataclass(frozen=True)
class KernelTable:
    """Grid-sampled kernel of one series order at a fixed outer time.

    ``kind`` is ``"b"`` or ``"a"``.  For ``kind == "b"`` the payload
    ``values[j, k, a, b]`` samples ``b^n_{j,k}(s_a, t_b)`` with the
    source pinned at the outer time; ``values_aux`` holds the
    source-independent chain factor consumed by the next recursion step.
    For ``kind == "a"`` the payload is the pair ``(P, Q)`` described in
    the module docstring.  Both are ``(d, d, n, n)`` views of
    time-major matrices (see :func:`_blk`).
    """

    kind: str
    order: int
    ctx: SeriesContext = field(repr=False)
    values: np.ndarray = field(repr=False)
    values_aux: np.ndarray = field(repr=False)

    @property
    def outer_time(self) -> float:
        return self.ctx.outer_time

    @property
    def n_channels(self) -> int:
        return self.ctx.d


def _table(kind: str, order: int, ctx: SeriesContext, values, values_aux) -> KernelTable:
    """Table from computed payloads; the sampled ``G1`` that order-1 ``b``
    tables carry was checked by :class:`SampledKernels`."""
    for X in (values, values_aux):
        if X is not ctx.G1 and not np.isfinite(X).all():
            raise ValueError(f"non-finite entries in order-{order} {kind} table")
    d = ctx.d
    return KernelTable(kind, order, ctx, _unblk(values, d), _unblk(values_aux, d))


def _check_same_build(*tables: KernelTable) -> SeriesContext:
    ctx = tables[0].ctx
    for t in tables[1:]:
        if t.ctx is not ctx and (
            t.ctx.outer_index != ctx.outer_index
            or t.ctx.grid is not ctx.grid
            or t.ctx.d != ctx.d
        ):
            raise ValueError("kernel tables come from different grids or outer times")
    return ctx


def _outer_index(t: float, grid: TimeGrid) -> int:
    idx = int(round(t / grid.h))
    if not 0 <= idx < grid.n_points or abs(grid.points[idx] - t) > 1e-9 * max(1.0, grid.t_max):
        raise ValueError(f"outer time {t} is not a grid point of the given grid")
    return idx


def _context(D, f, t, grid, method) -> SeriesContext:
    """Context at outer time ``t`` on a fresh sample of the whole grid."""
    K = _outer_index(t, grid)
    return SeriesContext(SampledKernels(D, f, grid, method), K)


def contraction_BA(
    D: CorrelationKernel,
    f: CommutatorKernel,
    t: float,
    grid: TimeGrid,
    method: str = "trapezoid",
    ctx: SeriesContext | None = None,
) -> KernelTable:
    """Order-1 chain ending in a bath-correlation factor.

    ``b^1_{j,j2}(s1, t2) = 2i D^Im_{jl}(t, s1) f^{j2 l}(t2, s1)
    theta(t2 - s1)``; the step function is sampled with the half-weight
    diagonal convention.
    """
    if ctx is None:
        ctx = _context(D, f, t, grid, method)
    # the source-independent factor g^1 is the sampled G1
    b1 = _pin(ctx.DIm_t, ctx.G1)
    b1 *= 2j
    return _table("b", 1, ctx, b1, ctx.G1)


def contraction_BB(
    D: CorrelationKernel,
    f: CommutatorKernel,
    t: float,
    grid: TimeGrid,
    method: str = "trapezoid",
    ctx: SeriesContext | None = None,
) -> KernelTable:
    """Order-1 chain ending in a channel operator.

    Stored as the pair ``(P, Q)`` with
    ``a^1_{j,j2}(s1; t2, s2) = P_{j,l}(s1, s2) D^Re_{j2 l}(t2, s2)
    + Q_{j,l}(s1, s2) D^Im_{j2 l}(t2, s2)`` where

    ``P^1_{j,l}(s1, s2) = 2i D^Im_{jm}(t, s1) f^{l m}(s2, s1) theta(s2 - s1)``
    ``Q^1_{j,l}(s1, s2) = 2i D^Re_{jm}(t, s1) f^{l m}(s2, s1) theta(s2 - s1)``

    i.e. the commutator is oriented later-time-first, consistent with the
    time-ordered contraction of the two bath vertices.
    """
    if ctx is None:
        ctx = _context(D, f, t, grid, method)
    # f^{l m}(s2, s1) theta(s2 - s1) at [(s1, m), (s2, l)] is G1
    P1 = _pin(ctx.DIm_t, ctx.G1)
    P1 *= 2j
    Q1 = _pin(ctx.DRe_t, ctx.G1)
    Q1 *= 2j
    return _table("a", 1, ctx, P1, Q1)


def recurse_b(n: int, b1: KernelTable, b_prev: KernelTable) -> KernelTable:
    """Chain composition ``b^n = b^1 o b^{n-1}`` over the time triangle.

    The inner chain is re-sourced at the integrated pair, which is what
    the stored source-independent factor provides.
    """
    if n < 2:
        raise ValueError("recursion starts at order 2")
    if b1.kind != "b" or b_prev.kind != "b":
        raise ValueError("recurse_b needs two 'b' tables")
    if b_prev.order != n - 1:
        raise ValueError(f"need order {n - 1} table, got order {b_prev.order}")
    ctx = _check_same_build(b1, b_prev)
    # H[k, j2](tau', t2) = int_0^{tau'} dsig' D^Im[k, m](tau', sig') g^{n-1}[m, j2](sig', t2)
    H = ctx.WDIm @ _blk(b_prev.values_aux)
    # g^n[l, j2](s1, t2) = 2i int dtau' f^{k l}(tau', s1) theta(tau' - s1) H[k, j2](tau', t2)
    H *= ctx.w_blk[:, None]
    g_n = ctx.G1 @ H
    del H
    g_n *= 2j
    b_n = _pin(ctx.DIm_t, g_n)
    b_n *= 2j
    return _table("b", n, ctx, b_n, g_n)


def recurse_a(n: int, a_prev: KernelTable, b_prev: KernelTable) -> KernelTable:
    """Order-``n`` operator-terminated chains from order ``n - 1``.

    Splitting at the last link, either a bath-terminated chain of order
    ``n - 1`` is closed by a two-vertex contraction, or an
    operator-terminated chain is extended by the mixed
    channel-bath contraction
    ``-2i D^Im_{j2 l}(t2, s2) f^{k l}(t', s2) theta(s2 - t')`` (the
    time-ordered orientation: the surviving vertex sits later).
    """
    if n < 2:
        raise ValueError("recursion starts at order 2")
    if a_prev.kind != "a" or b_prev.kind != "b":
        raise ValueError("recurse_a needs an 'a' table and a 'b' table")
    if a_prev.order != n - 1 or b_prev.order != n - 1:
        raise ValueError(f"need order {n - 1} tables, got {a_prev.order}, {b_prev.order}")
    ctx = _check_same_build(a_prev, b_prev)
    w = ctx.w_blk

    # last link of channel type extends a^{n-1}: needs its inner s'-integral
    # wa[j, k](s1, tau') = int_0^{tau'} dsig' a^{n-1}[j, k](s1; tau', sig');
    # computed before the bath-terminated link to keep fewer arrays alive
    wa = _blk(a_prev.values) @ ctx.WDRe.T
    wa += _blk(a_prev.values_aux) @ ctx.WDIm.T
    wa *= w
    Q_n = wa @ ctx.F_below
    del wa

    # last link of bath-terminated type, against V_X (see SeriesContext)
    V_im, V_re = ctx.V
    bw = _blk(b_prev.values) * w
    Q_n -= bw @ V_re
    Q_n *= -2j
    P_n = bw @ V_im
    P_n *= 2j
    return _table("a", n, ctx, P_n, Q_n)


def alpha_beta(n: int, b_table: KernelTable, a_table: KernelTable) -> dict:
    """Order-``n`` series corrections ``alpha^n_{jk}(t, s1)``,
    ``beta^n_{jk}(t, s1)``.

    ``alpha^n = (-1)^n (int_{s1}^t dtau int_0^t dsig b^n(sig, tau)
    D^Re(tau, s1) + int_0^t dsig int_0^{s1} ds2 a^n(sig; s1, s2))`` and
    ``beta^n`` is the bath-terminated part against ``D^Im``.
    """
    if b_table.kind != "b" or a_table.kind != "a":
        raise ValueError("alpha_beta needs a 'b' table and an 'a' table")
    if b_table.order != n or a_table.order != n:
        raise ValueError(
            f"order mismatch: requested {n}, tables are "
            f"{b_table.order} and {a_table.order}"
        )
    ctx = _check_same_build(b_table, a_table)
    sign = (-1.0) ** n
    d, N = ctx.d, ctx.n * ctx.d

    def outer(X):  # int_0^t dsig X[(sig, j), c] -> [j, c]
        return (ctx.w @ _blk(X).reshape(ctx.n, d * N)).reshape(d, N)

    # [(tau, l), (s1, k)] weights of int_{s1}^t dtau
    wsuf = _on_pairs(ctx.Wsuf.T, d)
    M = outer(b_table.values)
    alpha = M @ (wsuf * ctx.DRe)
    beta = M @ (wsuf * ctx.DIm)
    alpha += outer(a_table.values) @ ctx.WDRe.T
    alpha += outer(a_table.values_aux) @ ctx.WDIm.T

    # [j, (s1, k)] -> [j, k, s1]
    alpha = sign * alpha.reshape(d, ctx.n, d).transpose(0, 2, 1)
    beta = sign * beta.reshape(d, ctx.n, d).transpose(0, 2, 1)
    return {"alpha": alpha, "beta": beta}


@dataclass(frozen=True)
class ABKernels:
    """Assembled nonlocal kernels at one outer time, from :func:`assemble_AB`.

    ``A[j, k, a]`` samples ``A_jk(t, s_a)`` on the prefix grid, likewise
    ``B``.  ``per_order`` records ``(n, sup|alpha^n|, sup|beta^n|)`` for
    every included order; ``converged`` is False when the last order still
    exceeded the threshold (a reported warning, not a failure).
    """

    outer_index: int
    outer_time: float
    grid: TimeGrid
    A: np.ndarray
    B: np.ndarray
    achieved_order: int
    last_order_norm: float
    per_order: tuple
    converged: bool


@dataclass(frozen=True)
class SeriesTables:
    """The kernel series at every time of ``grid`` (:func:`build_ab_tables`).

    Row ``K`` holds ``t_K`` as :class:`ABKernels` holds one time:
    ``A[j, k, K, a]`` samples ``A_jk(t_K, s_a)`` and is zero past ``t_K``
    (likewise ``B``; both read-only float64); ``norms[K, n - 1]`` is
    ``(sup|alpha^n|, sup|beta^n|)``, zero past ``achieved_order[K]``.
    ``Wpre`` is the read-only prefix-weight matrix of the build
    (:attr:`SampledKernels.Wpre`): the coefficient reduction integrates
    with the rule and on the grid the rows were built with.
    """

    grid: TimeGrid
    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    norms: np.ndarray = field(repr=False)
    achieved_order: np.ndarray = field(repr=False)
    last_order_norm: np.ndarray = field(repr=False)
    converged: np.ndarray = field(repr=False)
    Wpre: np.ndarray = field(repr=False)


# Build time of the series (qmupl for d = 2, hpz for d = 1; order 3,
# sampling included, one BLAS thread, min of 21 in process, G = 513 min of
# 3) by slab count, in ms:
#     G x d          1      2      3      4      8     12     24
#    33 x 2 =   66  1.5    1.4    1.6    2.0
#    65 x 1 =   65  1.5    1.3    1.6    1.8
#    65 x 2 =  130  5.0    4.2    4.0    4.0
#   129 x 1 =  129   -     4.3    4.1    4.2
#   129 x 2 =  258   -    19.1   17.4   17.2
#   513 x 1 =  513   -      -      -      -     94     99    116
#   513 x 2 = 1026   -      -      -      -    552    544    583
# A slab reads only the leading columns of the triangle, which pays once
# the stacked square is large.  As the one build of a fresh process (after
# a tiny one, min of 15) the small sizes run best as one slab: 1.8, 2.0
# and 2.3 ms for G d = 66 on 1, 2 and 3 slabs, 1.9, 2.0 and 2.3 ms for
# G d = 65; G d = 130 takes 8.1, 5.3 and 6.0 ms.  Slabs much shorter than
# 64 outer times lose at large G.
#: Most outer times in one slab of :func:`build_ab_tables`.
SLAB = 64
#: Stacked size ``G d`` from which the build runs in at least three slabs.
SLAB_SPLIT = 128


def _slab_edges(G: int, d: int) -> list:
    """Edges ``1 = K_0 < ... = G`` of the even slabs of a build: at most
    :data:`SLAB` outer times each, and at least three once ``G d >=``
    :data:`SLAB_SPLIT`; t_0 has no correction."""
    n_slabs = -(-(G - 1) // SLAB)
    if G * d >= SLAB_SPLIT:
        n_slabs = min(max(n_slabs, 3), G - 1)
    return [1 + (G - 1) * i // n_slabs for i in range(n_slabs + 1)]


def build_ab_tables(
    D: CorrelationKernel,
    f: CommutatorKernel,
    config: SeriesConfig,
    grid: TimeGrid,
) -> SeriesTables:
    """Truncated kernel series ``A = D^Re + sum alpha^n``,
    ``B = D^Im + sum beta^n`` at every grid time, as one
    :class:`SeriesTables`.

    The chain sums of every outer time are the row blocks of stacked real
    matrices, built one slab of outer times at a time (see the module
    docstring) and added in place into the record's arrays.  Each outer
    time stops at the first order whose relative sup-norm drops below
    ``config.eps_series``.

    Two exact closures short-circuit the series: constant coupling
    operators (``f.is_zero``: the pure-dephasing model) and purely real
    correlation kernels (``D.is_real``: the non-dissipative model, and
    the ``hpz`` model with a real kernel), for which every correction
    vanishes identically and the zeroth order ``A = D^Re``, ``B = D^Im``
    is returned bit for bit.  A kernel without the flag runs the
    recursions, which then produce exact zeros.  Raises ``ValueError``
    unless ``D`` and ``f`` have the same channel count and ``Re f`` is
    exactly 0.
    """
    samples = SampledKernels(D, f, grid, config.method)
    d, G = samples.d, grid.n_points
    max_order = 0 if f.is_zero or D.is_real else config.max_order
    # zeroth order: A[j, k, K, a] = D^Re_jk(t_K, s_a) for a <= K, zero past t_K
    below = np.tri(G, dtype=bool)
    A = np.where(below, _unblk(samples.DRe, d), 0.0)
    B = np.where(below, _unblk(samples.DIm, d), 0.0)
    norms = np.zeros((G, max_order, 2))
    achieved = np.zeros(G, dtype=int)
    last_rel = np.zeros(G)
    if max_order:
        # the zeroth-order sup-norm of each outer time
        ref = np.maximum(np.abs(A).max(axis=(0, 1, 3)), np.abs(B).max(axis=(0, 1, 3))).clip(1e-300)
        # Tsuf[s1, tau] = Wpre[G - 1, tau - s1] (tau >= s1), the rule of the
        # longest interval, equals the suffix rule of int_{s1}^{t_K} dtau left
        # of t_{K-1} for both rules; SDX[(tau, l), (s1, k)] is Tsuf[s1, tau]
        # times D^X on channel pairs
        TsufT = on_square(np.concatenate((np.zeros(G - 1), samples.Wpre[G - 1])))
        SD = (_weigh(TsufT, samples.DRe), _weigh(TsufT, samples.DIm))
        # WDX is D^X times the prefix-weight matrix, and U_X = WDX Gamma1 the
        # imaginary part of V_X[k, m](tau', s2) = int_0^{tau'} dsig'
        # D^X[k, l](tau', sig') f^{m l}(s2, sig') theta(s2 - sig'); the
        # integral stops at tau', so it does not depend on the outer time
        # and is built once for the whole grid
        WD = (_weigh(samples.Wpre, samples.DRe), _weigh(samples.Wpre, samples.DIm))
        U = (WD[1] @ samples.Gamma1, WD[0] @ samples.Gamma1)
        edges = _slab_edges(G, d)
        for K0, K1 in zip(edges, edges[1:]):
            slab = slice(K0, K1)
            norms[slab], achieved[slab], last_rel[slab] = _slab(
                samples, SD, WD, U, K0, K1, max_order, config.eps_series,
                A[:, :, slab, :K1], B[:, :, slab, :K1], ref[slab],
            )

    return SeriesTables(
        grid, *_read_only(A, B, norms, achieved, last_rel, last_rel < config.eps_series), samples.Wpre
    )


def _slab(samples, SD, WD, U, K0, K1, max_order, eps, A, B, ref) -> tuple:
    """Add the orders of the outer times ``[K0, K1)`` to their rows ``A``,
    ``B`` (``[j, k, K - K0, s1]``, ``s1 < t_{K1}``) and return the
    per-order sup-norms, the order reached and the last relative norm of
    each; ``ref`` is the zeroth-order sup-norm of each.  ``SD``, ``WD`` and
    ``U`` are the ``(Re, Im)``, ``(Re, Im)`` and ``(im, re)`` operands of
    the whole grid (see :func:`build_ab_tables`).

    Row block ``K`` of the chain sums has no entry past ``t_K``, so the
    slab reads only the leading ``K1`` column blocks of every operand.
    """
    d = samples.d
    h, c = K1 - K0, K1 * d
    Ks = np.arange(K0, K1)
    lag = Ks[:, None] - np.arange(K1)  # K - s1 on (outer time, column time)
    Pw = _on_pairs(samples.Wpre[K0:K1, :K1], d)
    # entries past t_K feed no output; they are kept at zero so that an
    # overflow there cannot reach one
    past = _on_pairs(lag < 0, d)
    # columns tau <= t_{K-2}, where the suffix rule of t_K is Tsuf
    head = _on_pairs(lag >= 2, d)
    # the two-point end term at tau = t_{K-1}, t_K: the suffix rule there,
    # Wsuf_K[s1, tau] = Wpre[K - s1, tau - s1], zero for s1 past tau, times
    # D^X on those two row blocks, as (h, 2 d, c) operands
    L = np.maximum(lag, 0)
    w_end = np.stack((np.where(lag >= 1, samples.Wpre[L, L - 1], 0.0), np.where(lag >= 0, samples.Wpre[L, L], 0.0)), 1)
    E = []
    for DX in (samples.DRe, samples.DIm):
        Dblk = DX[(K0 - 1) * d : K1 * d, :c].reshape(h + 1, d, K1, d)
        E.append((np.stack((Dblk[:-1], Dblk[1:]), 1) * w_end[:, :, None, :, None]).reshape(h, 2 * d, c))
    # column indices of t_{K-1}, t_K in each row block
    end_cols = ((Ks - 1) * d)[:, None, None] + np.arange(2 * d)
    U_im, U_re = U
    Phi, SDRe, SDIm = samples.Phi[:c, :c], SD[0][:c, :c], SD[1][:c, :c]
    WDReT, WDImT = WD[0][:c, :c].T, WD[1][:c, :c].T
    norms = np.zeros((h, max_order, 2))
    achieved = np.zeros(h, dtype=int)
    last_rel = np.zeros(h)
    active = np.ones(h, dtype=bool)
    for n in range(1, max_order + 1):
        if n == 1:
            r = -2.0 * U_im[K0 * d : c, :c]
            q = -2.0 * U_re[K0 * d : c, :c]
        else:
            # the order-(n-1) sums are weighted in place: s * Pw, r * Pw
            s *= Pw
            q = s @ Phi
            del s
            r *= Pw
            q -= r @ U_re[:c, :c]
            q *= 2.0
            r = r @ U_im[:c, :c]
            r *= -2.0
        np.copyto(r, 0.0, where=past)
        np.copyto(q, 0.0, where=past)
        finite = (np.isfinite(r).all(axis=1) & np.isfinite(q).all(axis=1)).reshape(h, d).all(axis=1)
        if (active & ~finite).any():
            raise ValueError(f"non-finite entries in order-{n} chain sums")
        s = r @ WDReT
        s += q @ WDImT
        np.copyto(s, 0.0, where=past)
        r_head = np.where(head, r, 0.0)
        r_end = np.take_along_axis(r.reshape(h, d, c), end_cols, axis=2)
        alpha = r_head @ SDRe
        alpha += s
        alpha += np.matmul(r_end, E[0]).reshape(h * d, c)
        beta = r_head @ SDIm
        beta += np.matmul(r_end, E[1]).reshape(h * d, c)
        del r_head, r_end
        norms[active, n - 1, 0] = np.abs(alpha).reshape(h, d * c).max(axis=1)[active]
        norms[active, n - 1, 1] = np.abs(beta).reshape(h, d * c).max(axis=1)[active]
        # [(K, j), (s1, k)] -> [j, k, K, s1] on the outer times still running
        sign = (-1.0) ** n
        A[:, :, active] += sign * alpha.reshape(h, d, K1, d)[active].transpose(1, 3, 0, 2)
        B[:, :, active] += sign * beta.reshape(h, d, K1, d)[active].transpose(1, 3, 0, 2)
        achieved[active] = n
        last_rel[active] = norms[active, n - 1].sum(axis=1) / ref[active]
        active &= ~(last_rel < eps)
        if not active.any():
            break
    return norms, achieved, last_rel


def assemble_AB(
    D: CorrelationKernel,
    f: CommutatorKernel,
    config: SeriesConfig,
    t: float,
    grid: TimeGrid,
) -> ABKernels:
    """Row ``K`` of :func:`build_ab_tables` at ``t_K = t``, bit for bit."""
    K = _outer_index(t, grid)
    tables = build_ab_tables(D, f, config, grid)
    n = int(tables.achieved_order[K])
    return ABKernels(
        outer_index=K,
        outer_time=float(grid.points[K]),
        grid=grid,
        A=tables.A[:, :, K, : K + 1],
        B=tables.B[:, :, K, : K + 1],
        achieved_order=n,
        last_order_norm=float(tables.last_order_norm[K]),
        per_order=tuple((i, float(na), float(nb)) for i, (na, nb) in enumerate(tables.norms[K, :n], 1)),
        converged=bool(tables.converged[K]),
    )


def dump_convergence_csv(tables: SeriesTables, path) -> None:
    """Write the per-order sup-norms of a build to CSV: columns ``t, n,
    norm_alpha, norm_beta``, one row per outer time and included order."""
    K, n = np.nonzero(np.arange(1, tables.norms.shape[1] + 1) <= tables.achieved_order[:, None])
    table = np.column_stack((tables.grid.points[K], n + 1, tables.norms[K, n]))
    with open(path, "w", newline="") as fh:
        fh.write("t,n,norm_alpha,norm_beta\r\n")
        for row in table:
            fh.write("%.17g,%d,%.17g,%.17g\r\n" % tuple(row.tolist()))
