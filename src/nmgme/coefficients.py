"""Time-local master-equation coefficients for linear systems.

Every model goes through one reduction: the memory kernels ``X`` in
``{A, B}`` are integrated against the 2x2 Heisenberg flow ``Phi`` of
``(q, p)``,

``I^X[K, j, k, l, m] = int_0^{t_K} X_jk(t_K, s) Phi_lm(t_K - s) ds``,

in one contraction over the prefix-weight matrix of the series build,
and each model is a fixed linear map from ``I`` to its named
coefficients (the data table ``_ROWS``).  For a single position-coupled channel, with
``C = Phi_11`` and ``Ct = Phi_12`` the kernel multiplying the momentum
operator, the map reads

``Gamma(t) = -int_0^t A(t,s) C(t-s) ds``        (double commutator, q q)
``Theta(t) = -int_0^t A(t,s) Ct(t-s) ds``       (double commutator, q p)
``Xi(t)    = -2i int_0^t B(t,s) C(t-s) ds``     (commutator-anticommutator)
``Upsilon(t) = -2i int_0^t B(t,s) Ct(t-s) ds``

Every model reduces from the :class:`~nmgme.series.SeriesTables` that
:func:`build_ab_tables` returns, read with the rule it was built with.
The generic channel and the collapse model run the series; the
non-dissipative model (real kernel, ``D.is_real``) and the pure-dephasing
model (constant coupling, ``f.is_zero``) take its exact zeroth-order
closure ``A = D^Re``, ``B = D^Im``, the latter with the identity flow, as
a constant coupling operator does not evolve.

The generator convention is fixed in :mod:`nmgme.propagate`: the
anticommutator channels enter with weight 1/2 (half-anticommutator
superoperators), which makes the stored ``Xi``/``Upsilon`` purely
imaginary and the assembled map trace preserving and Hermiticity
preserving.

For the dissipative position-momentum collapse model the two coupled
channels are eliminated through the 2x2 flow directly, giving the seven
scalar coefficients of the extended master equation (two of them are
Hamiltonian renormalizations, one is a momentum diffusion rate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bath import CorrelationKernel, make_qmupl_matrix

# quad_weights is not called here; perfbench/tracing.py counts quadrature
# builds through this module's name as well.
from .grids import TimeGrid, lags, on_square, quad_weights  # noqa: F401
# assemble_AB is not called here; perfbench/tracing.py wraps this name.
from .series import SeriesConfig, SeriesTables, assemble_AB, build_ab_tables  # noqa: F401
from .system import CommutatorKernel, PropagatorKernels, commutator_kernel, qmupl_kernels

__all__ = [
    "MECoefficients",
    "build_ab_tables",
    "coefficients_linear",
    "coefficients_nondissipative",
    "coefficients_qmupl",
    "coefficients_dephasing",
    "write_coefficients_csv",
]

_REALITY_TOL = 1e-9

#: The channel tables (complex, ``(G, d, d)``) and the real extras
#: (``(G,)``) in the column order of :meth:`MECoefficients.table`.
CHANNEL_TABLES = ("Gamma", "Theta", "Xi", "Upsilon")
EXTRAS = ("alpha", "beta", "gamma_pp")

#: Rows ``(name, X, j, k, l, m, factor)``: ``name += factor * (-mu)^(j + k)
#: * I^X[j, k, l, m]``, collected in the operator basis ``{[q,[q,.]],
#: [q,[p,.]], [p,[p,.]], [q,{q,.}], [q,{p,.}], [{q,p},.], [p^2,.]}``.
#: Channel 0 is ``q``; channel 1 is ``-mu p`` (collapse model only), hence
#: the powers of ``-mu``.  Single-channel models use the ``j = k = 0`` rows.
_ROWS = (
    ("Gamma", "A", 0, 0, 0, 0, -1.0),
    ("Gamma", "A", 0, 1, 1, 0, -1.0),
    ("Theta", "A", 0, 0, 0, 1, -1.0),
    ("Theta", "A", 0, 1, 1, 1, -1.0),
    ("Theta", "A", 1, 0, 0, 0, -1.0),
    ("Theta", "A", 1, 1, 1, 0, -1.0),
    ("gamma_pp", "A", 1, 0, 0, 1, -1.0),
    ("gamma_pp", "A", 1, 1, 1, 1, -1.0),
    ("Xi", "B", 0, 0, 0, 0, -2.0j),
    ("Xi", "B", 0, 1, 1, 0, -2.0j),
    ("Upsilon", "B", 0, 0, 0, 1, -2.0j),
    ("Upsilon", "B", 0, 1, 1, 1, -2.0j),
    ("Upsilon", "B", 1, 0, 0, 0, 2.0j),
    ("Upsilon", "B", 1, 1, 1, 0, 2.0j),
    ("alpha", "B", 1, 0, 0, 1, 1.0),
    ("alpha", "B", 1, 1, 1, 1, 1.0),
    ("beta", "B", 1, 0, 0, 0, 1.0),
    ("beta", "B", 1, 1, 1, 0, 1.0),
)


@dataclass(frozen=True)
class MECoefficients:
    """Coefficient tables of the closed master equation on a time grid.

    ``Gamma``, ``Theta``, ``Xi``, ``Upsilon`` have shape ``(G, d, d)``;
    the optional scalars ``alpha``, ``beta`` (Hamiltonian shifts) and
    ``gamma_pp`` (momentum diffusion) have shape ``(G,)`` and are present
    for the dissipative collapse scenario only.  ``lam_mu`` carries the
    static anticommutator coupling entering the effective Hamiltonian.
    """

    grid: TimeGrid
    scenario: str
    Gamma: np.ndarray = field(repr=False)
    Theta: np.ndarray = field(repr=False)
    Xi: np.ndarray = field(repr=False)
    Upsilon: np.ndarray = field(repr=False)
    alpha: np.ndarray | None = field(repr=False, default=None)
    beta: np.ndarray | None = field(repr=False, default=None)
    gamma_pp: np.ndarray | None = field(repr=False, default=None)
    lam_mu: float = 0.0

    def __post_init__(self):
        for name in CHANNEL_TABLES + EXTRAS:
            arr = getattr(self, name)
            if arr is not None and not np.isfinite(arr).all():
                raise ValueError(f"non-finite entries in {name}")
        scale = max(
            np.max(np.abs(self.Gamma)),
            np.max(np.abs(self.Theta)),
            np.max(np.abs(self.Xi)),
            np.max(np.abs(self.Upsilon)),
            1.0,
        )
        err_real = max(
            np.max(np.abs(self.Gamma.imag)), np.max(np.abs(self.Theta.imag))
        )
        err_imag = max(np.max(np.abs(self.Xi.real)), np.max(np.abs(self.Upsilon.real)))
        if err_real > _REALITY_TOL * scale:
            raise ValueError(
                f"Gamma/Theta should be real, found imaginary part {err_real:.3e}"
            )
        if err_imag > _REALITY_TOL * scale:
            raise ValueError(
                f"Xi/Upsilon should be purely imaginary, found real part {err_imag:.3e}"
            )

    @property
    def n_channels(self) -> int:
        return self.Gamma.shape[1]

    def has_extras(self) -> bool:
        return self.alpha is not None

    def table(self) -> np.ndarray:
        """Every coefficient as one real ``(G, n)`` table: ``Re``/``Im`` of
        each channel entry (row-major) of ``Gamma``, ``Theta``, ``Xi``,
        ``Upsilon``, then ``alpha``, ``beta``, ``gamma_pp`` when present."""
        G, d = self.grid.n_points, self.n_channels
        cols = [np.asarray(getattr(self, name), dtype=complex).reshape(G, d * d).view(float) for name in CHANNEL_TABLES]
        if self.has_extras():
            cols += [np.asarray(getattr(self, name), dtype=float).reshape(G, 1) for name in EXTRAS]
        return np.hstack(cols)


def _flow(kernels: PropagatorKernels, grid: TimeGrid) -> np.ndarray:
    """Heisenberg flow ``Phi(t_K - s)`` on the grid square, gathered from
    the lags."""
    return np.ascontiguousarray(on_square(kernels.flow(lags(grid))))


def _reduce(tables: SeriesTables, phi: np.ndarray, mu: float = 0.0):
    """Contract ``tables.A``/``tables.B`` against ``phi`` into ``I`` with
    the prefix rule of the build, ``tables.Wpre``, and apply ``_ROWS``.

    Returns the named coefficients as arrays of shape ``(G,)``; names with
    no row for the channel count of the tables are absent.
    """
    I = {x: np.einsum("Ks,jkKs,lmKs->Kjklm", tables.Wpre, getattr(tables, x), phi) for x in "AB"}
    d = tables.A.shape[0]
    out = {}
    for name, x, j, k, l, m, factor in _ROWS:
        if j < d and k < d:
            out[name] = out.get(name, 0) + factor * (-mu) ** (j + k) * I[x][:, j, k, l, m]
    return out


def _tables(grid: TimeGrid, scenario: str, vals: dict, **extras) -> MECoefficients:
    shape = (grid.n_points, 1, 1)
    return MECoefficients(
        grid=grid,
        scenario=scenario,
        **{
            name: np.asarray(vals[name], dtype=complex).reshape(shape)
            for name in ("Gamma", "Theta", "Xi", "Upsilon")
        },
        **extras,
    )


def coefficients_linear(
    tables: SeriesTables,
    kernels: PropagatorKernels,
    scenario: str = "linear",
) -> MECoefficients:
    """Coefficients of the time-local master equation for one channel.

    ``tables`` holds the assembled kernels at every time of its grid, with
    the quadrature rule they were built with (see :func:`build_ab_tables`).
    Multi-channel coupled systems go through :func:`coefficients_qmupl`,
    which eliminates the channels against the 2x2 flow.
    """
    if kernels.dim != 1:
        raise ValueError(
            "coefficients_linear handles single-channel systems; "
            "use coefficients_qmupl for the coupled-channel model"
        )
    vals = _reduce(tables, _flow(kernels, tables.grid))
    return _tables(tables.grid, scenario, vals)


def coefficients_nondissipative(
    D: CorrelationKernel,
    kernels: PropagatorKernels,
    grid: TimeGrid,
    method: str = "trapezoid",
    lam_scale: float = 1.0,
) -> MECoefficients:
    """Non-dissipative coefficients, from the zeroth-order closure.

    For a purely real correlation kernel the series corrections vanish
    identically (:func:`build_ab_tables` closes at ``A = D^Re``, ``B = 0``),
    so ``Gamma = -int D^Re C`` and ``Theta = -int D^Re Ct``.  ``lam_scale``
    multiplies the kernel (coupling-operator normalization
    ``A = sqrt(lam) q``).
    """
    if not D.is_real:
        raise ValueError("non-dissipative reduction needs a purely real kernel")
    if kernels.dim != 1:
        raise ValueError("non-dissipative reduction is single-channel")
    scaled = CorrelationKernel(
        D.n_channels, lambda j, k, u: lam_scale * D.evaluator(j, k, u), is_real=True
    )
    f = commutator_kernel(kernels, ["q"])
    tables = build_ab_tables(scaled, f, SeriesConfig(method=method), grid)
    return coefficients_linear(tables, kernels, "nondissipative")


#: Commutator kernel of a constant coupling operator: every Wick
#: correction vanishes and :func:`build_ab_tables` closes at zeroth order.
_CONSTANT_COUPLING = CommutatorKernel(1, lambda j, k, u: np.zeros_like(u), is_zero=True)


def coefficients_dephasing(
    D: CorrelationKernel,
    grid: TimeGrid,
    method: str = "trapezoid",
) -> MECoefficients:
    """Coefficients for a constant coupling operator (pure dephasing).

    The commutator kernel vanishes, the series closes at zeroth order,
    and a constant coupling operator does not evolve (the identity flow):
    ``Gamma(t) = -int_0^t D^Re(t, s) ds``,
    ``Xi(t) = -2i int_0^t D^Im(t, s) ds``, ``Theta = Upsilon = 0``.
    """
    if D.n_channels != 1:
        raise ValueError("dephasing reduction is single-channel")
    tables = build_ab_tables(D, _CONSTANT_COUPLING, SeriesConfig(method=method), grid)
    G = grid.n_points
    identity = np.broadcast_to(np.eye(2)[:, :, None, None], (2, 2, G, G))
    return _tables(grid, "dephasing", _reduce(tables, identity))


def coefficients_qmupl(
    lam: float,
    mu: float,
    m: float,
    omega: float,
    base: CorrelationKernel,
    config: SeriesConfig,
    grid: TimeGrid,
) -> tuple[MECoefficients, SeriesTables]:
    """Seven-coefficient set of the dissipative collapse master equation,
    with the series tables it was reduced from; the series and the
    reduction both use the quadrature ``config.method``.

    The two channels ``(q, -mu p)`` are eliminated by expanding
    ``A_j(s)`` over ``(q_t, p_t)`` with the 2x2 flow; the resulting map
    onto the operator basis is the ``_ROWS`` table.  ``alpha`` and
    ``beta`` are real Hamiltonian renormalizations (of ``p^2`` and
    ``{q,p}``), reported separately from the free Hamiltonian and from the
    static ``lam mu / 2`` anticommutator term.
    """
    if lam < 0:
        raise ValueError(f"collapse strength must be non-negative, got {lam}")
    kernels = qmupl_kernels(m, omega, lam, mu)
    D = make_qmupl_matrix(lam, base)
    f = commutator_kernel(kernels, [(1.0, 0.0), (0.0, -mu)])
    tables = build_ab_tables(D, f, config, grid)
    vals = _reduce(tables, _flow(kernels, grid), mu)
    coeffs = _tables(
        grid,
        "qmupl",
        vals,
        alpha=np.real(vals["alpha"]),
        beta=np.real(vals["beta"]),
        gamma_pp=np.real(vals["gamma_pp"]),
        lam_mu=lam * mu,
    )
    for name in ("alpha", "beta", "gamma_pp"):
        _check_real(vals[name], name)
    return coeffs, tables


def _check_real(arr, name):
    scale = max(np.max(np.abs(arr)), 1.0)
    if np.max(np.abs(np.imag(arr))) > _REALITY_TOL * scale:
        raise ValueError(f"{name} should be real, got imaginary part")


def write_coefficients_csv(coeffs: MECoefficients, path) -> None:
    """Write a coefficient table to CSV at 17 significant digits.

    Columns: ``t`` then those of :meth:`MECoefficients.table`; one row
    per grid time.
    """
    d = coeffs.n_channels
    header = ["t"]
    for base in CHANNEL_TABLES:
        for j in range(d):
            for k in range(d):
                tag = base if d == 1 else f"{base}_{j + 1}{k + 1}"
                header += [f"{tag}_re", f"{tag}_im"]
    if coeffs.has_extras():
        header += EXTRAS
    table = np.hstack([coeffs.grid.points[:, None], coeffs.table()])
    fmt = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in table:
            fh.write(fmt % tuple(row.tolist()))
