"""Time-local master-equation coefficients for linear systems.

Every model goes through one reduction: the memory kernels ``X`` in
``{A, B}`` are integrated against the 2x2 Heisenberg flow ``Phi`` of
``(q, p)``,

``I^X[K, j, k, l, m] = int_0^{t_K} X_jk(t_K, s) Phi_lm(t_K - s) ds``,

in one contraction over the prefix-weight matrix of the grid, and each
model is a fixed linear map from ``I`` to its named coefficients (the
data table ``_ROWS``).  For a single position-coupled channel, with
``C = Phi_11`` and ``Ct = Phi_12`` the kernel multiplying the momentum
operator, the map reads

``Gamma(t) = -int_0^t A(t,s) C(t-s) ds``        (double commutator, q q)
``Theta(t) = -int_0^t A(t,s) Ct(t-s) ds``       (double commutator, q p)
``Xi(t)    = -2i int_0^t B(t,s) C(t-s) ds``     (commutator-anticommutator)
``Upsilon(t) = -2i int_0^t B(t,s) Ct(t-s) ds``

Models differ only in the samples they feed in: series-assembled
``A``/``B`` for the generic channel and the collapse model, the
zeroth-order closure ``A = D^Re``, ``B = D^Im`` for the non-dissipative
and pure-dephasing models (the latter with the identity flow, as a
constant coupling operator does not evolve).

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

import csv
from dataclasses import dataclass, field

import numpy as np

from .bath import CorrelationKernel, make_qmupl_matrix

# quad_weights is not called here; perfbench/tracing.py counts quadrature
# builds through this module's name as well.
from .grids import TimeGrid, prefix_weights, quad_weights  # noqa: F401
from .series import ABKernels, SampledKernels, SeriesConfig, assemble_AB
from .system import (
    CommutatorKernel,
    PropagatorKernels,
    commutator_kernel,
    qmupl_kernels,
)

__all__ = [
    "MECoefficients",
    "KossakowskiForm",
    "build_ab_tables",
    "coefficients_linear",
    "coefficients_nondissipative",
    "coefficients_qmupl",
    "coefficients_dephasing",
    "kossakowski_form",
    "write_coefficients_csv",
]

_REALITY_TOL = 1e-9

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
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("Gamma", "Theta", "Xi", "Upsilon", "alpha", "beta", "gamma_pp"):
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

    @property
    def times(self) -> np.ndarray:
        return self.grid.points

    def has_extras(self) -> bool:
        return self.alpha is not None


def build_ab_tables(
    D: CorrelationKernel,
    f: CommutatorKernel,
    config: SeriesConfig,
    grid: TimeGrid,
    force_series: bool = False,
) -> list[ABKernels]:
    """Assemble the kernel series at every grid time.

    ``D`` and ``f`` are sampled once on the grid square and shared by
    every outer time; the builds are otherwise independent, so the list
    order is the only coupling between outer times.
    """
    samples = SampledKernels(D, f, grid, config.method)
    return [
        assemble_AB(D, f, config, t, grid, force_series=force_series, samples=samples)
        for t in grid.points
    ]


def _stack_ab(ab_tables: list[ABKernels], grid: TimeGrid) -> dict:
    """Per-time ``A``/``B`` samples as zero-padded ``(d, d, G, G)`` arrays."""
    G = grid.n_points
    if len(ab_tables) != G:
        raise ValueError(
            f"need one AB table per grid point ({G}), got {len(ab_tables)}"
        )
    d = ab_tables[0].A.shape[0]
    dtype = np.result_type(*{x.dtype for ab in ab_tables for x in (ab.A, ab.B)})
    X = {"A": np.zeros((d, d, G, G), dtype), "B": np.zeros((d, d, G, G), dtype)}
    for K, ab in enumerate(ab_tables):
        if ab.outer_index != K:
            raise ValueError("AB tables do not match the coefficient grid")
        X["A"][:, :, K, : K + 1] = ab.A
        X["B"][:, :, K, : K + 1] = ab.B
    return X


def _closure(D: CorrelationKernel, grid: TimeGrid, scale: float = 1.0) -> dict:
    """Zeroth-order closure ``A = scale D^Re``, ``B = scale D^Im`` on the
    grid square, as ``(1, 1, G, G)`` arrays."""
    t = grid.points
    val = D(0, 0, t[:, None], t[None, :])[None, None]
    return {"A": scale * val.real, "B": scale * val.imag}


def _flow(kernels: PropagatorKernels, grid: TimeGrid) -> np.ndarray:
    """Heisenberg flow ``Phi(t_K - s)`` sampled on the grid square."""
    t = grid.points
    return kernels.flow(t[:, None] - t[None, :])


def _reduce(X: dict, phi: np.ndarray, grid: TimeGrid, method: str, mu: float = 0.0):
    """Contract ``X`` against ``phi`` into ``I`` and apply ``_ROWS``.

    Returns the named coefficients as arrays of shape ``(G,)``; names with
    no row for the channel count of ``X`` are absent.
    """
    W = prefix_weights(grid.n_points, grid.h, method)
    I = {x: np.einsum("Ks,jkKs,lmKs->Kjklm", W, arr, phi) for x, arr in X.items()}
    d = X["A"].shape[0]
    out = {}
    for name, x, j, k, l, m, factor in _ROWS:
        if j < d and k < d:
            out[name] = out.get(name, 0) + factor * (-mu) ** (j + k) * I[x][:, j, k, l, m]
    return out


def _tables(grid: TimeGrid, scenario: str, vals: dict, params, **extras) -> MECoefficients:
    shape = (grid.n_points, 1, 1)
    return MECoefficients(
        grid=grid,
        scenario=scenario,
        params=params or {},
        **{
            name: np.asarray(vals[name], dtype=complex).reshape(shape)
            for name in ("Gamma", "Theta", "Xi", "Upsilon")
        },
        **extras,
    )


def coefficients_linear(
    ab_tables: list[ABKernels],
    kernels: PropagatorKernels,
    grid: TimeGrid,
    method: str = "trapezoid",
    scenario: str = "linear",
    params: dict | None = None,
) -> MECoefficients:
    """Coefficients of the time-local master equation for one channel.

    ``ab_tables`` holds the assembled kernels at every grid time (see
    :func:`build_ab_tables`).  Multi-channel coupled systems go through
    :func:`coefficients_qmupl`, which eliminates the channels against the
    2x2 flow instead of the (redundant) ``C``/``C_tilde`` split.
    """
    if kernels.dim != 1:
        raise ValueError(
            "coefficients_linear handles single-channel systems; "
            "use coefficients_qmupl for the coupled-channel model"
        )
    vals = _reduce(_stack_ab(ab_tables, grid), _flow(kernels, grid), grid, method)
    return _tables(grid, scenario, vals, params)


def coefficients_nondissipative(
    D: CorrelationKernel,
    kernels: PropagatorKernels,
    grid: TimeGrid,
    method: str = "trapezoid",
    lam_scale: float = 1.0,
    params: dict | None = None,
) -> MECoefficients:
    """Direct quadrature of the non-dissipative coefficients.

    For a purely real correlation kernel the series corrections vanish
    identically, so ``Gamma = -int D^Re C`` and ``Theta = -int D^Re Ct``
    bypass the series machinery altogether.  ``lam_scale`` multiplies the
    kernel (coupling-operator normalization ``A = sqrt(lam) q``).
    """
    if not D.is_real:
        raise ValueError("non-dissipative reduction needs a purely real kernel")
    if kernels.dim != 1:
        raise ValueError("non-dissipative reduction is single-channel")
    vals = _reduce(_closure(D, grid, lam_scale), _flow(kernels, grid), grid, method)
    return _tables(grid, "nondissipative", vals, params)


def coefficients_dephasing(
    D: CorrelationKernel,
    grid: TimeGrid,
    method: str = "trapezoid",
    params: dict | None = None,
) -> MECoefficients:
    """Coefficients for a constant coupling operator (pure dephasing).

    The commutator kernel vanishes, the series closes at zeroth order,
    and there is no velocity channel:
    ``Gamma(t) = -int_0^t D^Re(t, s) ds``,
    ``Xi(t) = -2i int_0^t D^Im(t, s) ds``, ``Theta = Upsilon = 0``.
    """
    if D.n_channels != 1:
        raise ValueError("dephasing reduction is single-channel")
    G = grid.n_points
    identity = np.broadcast_to(np.eye(2)[:, :, None, None], (2, 2, G, G))
    vals = _reduce(_closure(D, grid), identity, grid, method)
    return _tables(grid, "dephasing", vals, params)


def coefficients_qmupl(
    lam: float,
    mu: float,
    m: float,
    omega: float,
    base: CorrelationKernel,
    config: SeriesConfig,
    grid: TimeGrid,
    method: str = "trapezoid",
    return_ab: bool = False,
):
    """Seven-coefficient set of the dissipative collapse master equation.

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
    ab_tables = build_ab_tables(D, f, config, grid)
    vals = _reduce(_stack_ab(ab_tables, grid), _flow(kernels, grid), grid, method, mu)
    coeffs = _tables(
        grid,
        "qmupl",
        vals,
        {"lam": lam, "mu": mu, "m": m, "omega": omega},
        alpha=np.real(vals["alpha"]),
        beta=np.real(vals["beta"]),
        gamma_pp=np.real(vals["gamma_pp"]),
        lam_mu=lam * mu,
    )
    for name in ("alpha", "beta", "gamma_pp"):
        _check_real(vals[name], name)
    if return_ab:
        return coeffs, ab_tables
    return coeffs


def _check_real(arr, name):
    scale = max(np.max(np.abs(arr)), 1.0)
    if np.max(np.abs(np.imag(arr))) > _REALITY_TOL * scale:
        raise ValueError(f"{name} should be real, got imaginary part")


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


def write_coefficients_csv(coeffs: MECoefficients, path) -> None:
    """Write a coefficient table to CSV at 17 significant digits.

    Columns: ``t`` then ``Re``/``Im`` of each channel entry of ``Gamma``,
    ``Theta``, ``Xi``, ``Upsilon`` and, when present, ``alpha``, ``beta``,
    ``gamma_pp``; one row per grid time.
    """
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
