import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from nmgme import propagate, scenarios
from nmgme.bath import make_discrete_modes, make_exponential
from nmgme.coefficients import (
    MECoefficients,
    build_ab_tables,
    coefficients_dephasing,
    coefficients_linear,
    coefficients_qmupl,
)
from nmgme.grids import make_grid, quad_weights
from nmgme.propagate import (
    _BLOCK_STEPS,
    _ROWS,
    CoefficientInterpolator,
    EvolutionError,
    GaussianMoments,
    Trajectory,
    TruncationError,
    diagnostics,
    evolve,
    evolve_moments,
    me_rhs,
    aligned_steps,
    _hermitian_of,
    _moment_matrices,
    _real_of,
    _rk4_step,
    _SandwichForm,
    _stage_blocks,
    _Stages,
)
from nmgme.oracle import JointModel, evolve_joint
from nmgme.scenarios import coherent_state
from nmgme.series import SeriesConfig
from nmgme.system import (
    commutator_kernel,
    fock_operators,
    harmonic_kernels,
    qmupl_kernels,
    quadratic_hamiltonian,
)

from helpers import (
    DensityMatrix,
    dense_banded,
    former_rho_dump,
    kossakowski_form,
    kossakowski_rhs,
    one_row_stage,
    outer_commutator_rhs,
    real_parts,
    reference_evolve,
    reference_evolve_moments,
    richardson_check,
    rk4_step_matrices,
    scalar_interp,
    stage_rhs,
    trace_distance,
)

SZ = np.diag([1.0, -1.0]).astype(complex)


def zero_coeff_slice(d=1):
    z = np.zeros((d, d), dtype=complex)
    return {"Gamma": z, "Theta": z.copy(), "Xi": z.copy(), "Upsilon": z.copy()}


def random_hermitian_unit_trace(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (x + x.conj().T)
    h = h / np.trace(h).real
    return h


def random_density_matrix(rng, dim):
    # M M^dag / tr is positive with unit trace, so its entries stay below 1
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def test_rhs_zero_everything():
    rho = np.eye(2, dtype=complex) / 2
    ops = {"A": [SZ], "H0": np.zeros((2, 2), dtype=complex)}
    rhs = me_rhs(rho, zero_coeff_slice(), ops)
    assert np.max(np.abs(rhs)) == 0.0


def test_rhs_maximally_mixed_dephasing_fixed_point():
    rho = np.eye(2, dtype=complex) / 2
    coeff = zero_coeff_slice()
    coeff["Gamma"] = np.array([[-0.7]], dtype=complex)
    coeff["Xi"] = np.array([[0.3j]], dtype=complex)
    ops = {"A": [SZ], "H0": np.zeros((2, 2), dtype=complex)}
    assert np.max(np.abs(me_rhs(rho, coeff, ops))) == 0.0


def test_rhs_trace_and_hermiticity_preserving():
    rng = np.random.default_rng(11)
    dim = 8
    ops_f = fock_operators(dim)
    ops = {
        "A": [ops_f["q"]],
        "V": [ops_f["p"]],
        "H0": quadratic_hamiltonian(dim),
        "q": ops_f["q"],
        "p": ops_f["p"],
    }
    coeff = {
        "Gamma": np.array([[-0.4]], dtype=complex),
        "Theta": np.array([[0.13]], dtype=complex),
        "Xi": np.array([[0.21j]], dtype=complex),
        "Upsilon": np.array([[-0.09j]], dtype=complex),
        "alpha": 0.05,
        "beta": -0.02,
        "gamma_pp": -0.03,
        "lam_mu": 0.06,
    }
    for _ in range(25):
        rho = random_density_matrix(rng, dim)
        rhs = me_rhs(rho, coeff, ops)
        assert abs(np.trace(rhs)) < 1e-12
        assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-12


def test_rhs_dimension_mismatch():
    rho = np.eye(3, dtype=complex) / 3
    ops = {"A": [SZ], "H0": np.zeros((2, 2), dtype=complex)}
    with pytest.raises(ValueError, match="dimension"):
        me_rhs(rho, zero_coeff_slice(), ops)


def _comm(x, y):
    return x @ y - y @ x


def _acomm(x, y):
    return x @ y + y @ x


def reference_me_rhs(rho, coeff, ops):
    """The former ``me_rhs``: one nested double commutator per channel
    pair and coefficient, test-only reference for the single form."""
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
    d = len(A)
    for j in range(d):
        for k in range(d):
            if Gam[j, k] != 0:
                rhs = rhs + Gam[j, k] * _comm(A[j], _comm(A[k], rho))
            if Xi[j, k] != 0:
                rhs = rhs + 0.5 * Xi[j, k] * _comm(A[j], _acomm(A[k], rho))
            if V is not None:
                if The[j, k] != 0:
                    rhs = rhs + The[j, k] * _comm(A[j], _comm(V[k], rho))
                if Ups[j, k] != 0:
                    rhs = rhs + 0.5 * Ups[j, k] * _comm(A[j], _acomm(V[k], rho))
    if gamma_pp:
        p = ops["p"]
        rhs = rhs + gamma_pp * _comm(p, _comm(p, rho))
    return rhs


def fock_channel_operators(dim, d, with_v, with_extras):
    """``d`` channels on a Fock basis: position-type ``A`` (plus ``V``),
    and ``q``/``p`` when the slice carries Hamiltonian shifts."""
    f = fock_operators(dim)
    A = [f["q"], f["q"] @ f["q"] / dim][:d]
    ops = {"A": A, "H0": quadratic_hamiltonian(dim)}
    if with_v:
        ops["V"] = [f["p"], f["number"] / dim][:d]
    if with_extras:
        ops["q"], ops["p"] = f["q"], f["p"]
    return ops


def dense_channel_operators(dim, d, with_v, with_extras):
    """The layout of :func:`fock_channel_operators` with dense random
    Hermitian matrices: every constant operator has half-bandwidth
    ``dim - 1``."""
    rng = np.random.default_rng([dim, d, with_v, with_extras])

    def hermitian():
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return (x + x.conj().T) / (2.0 * np.sqrt(dim))

    ops = {"A": [hermitian() for _ in range(d)], "H0": hermitian()}
    if with_v:
        ops["V"] = [hermitian() for _ in range(d)]
    if with_extras:
        ops["q"], ops["p"] = hermitian(), hermitian()
    return ops


@pytest.mark.parametrize("hermitian", [True, False], ids=["herm", "nonherm"])
@pytest.mark.parametrize("with_extras", [True, False], ids=["extras", "plain"])
@pytest.mark.parametrize("with_v", [True, False], ids=["V", "noV"])
@pytest.mark.parametrize(
    "d, channels", [(1, "fock"), (2, "fock"), (2, "dense"), (2, "nonhermitian")],
    ids=["1", "2", "dense", "nonherm-ops"],
)
def test_single_form_matches_double_commutator_reference(d, channels, with_v, with_extras, hermitian):
    rng = np.random.default_rng([d, with_v, with_extras, hermitian])
    dim = 8
    make_ops = dense_channel_operators if channels == "dense" else fock_channel_operators
    ops = make_ops(dim, d, with_v, with_extras)
    if channels == "nonhermitian":
        ops["A"] = [a + 0.1j * np.triu(np.ones((dim, dim)), 1) for a in ops["A"]]

    def cplx(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    # a physical slice: Gamma, Theta real, Xi, Upsilon imaginary
    coeff = {name: unit * rng.normal(size=(d, d)).astype(complex)
             for name, unit in (("Gamma", 1.0), ("Theta", 1.0), ("Xi", 1j), ("Upsilon", 1j))}
    # one zero entry: the reference skips it, the single form multiplies by it
    coeff["Xi"][0, 0] = 0.0
    if with_extras:
        coeff.update(alpha=0.07, beta=-0.03, gamma_pp=-0.05, lam_mu=0.11)
    for _ in range(5):
        x = cplx((dim, dim))
        rho = x @ x.conj().T
        rho /= np.trace(rho).real
        if not hermitian:
            rho = rho + 0.1 * cplx((dim, dim)) / dim
        if not hermitian or channels == "nonhermitian":
            # only Hermitian operators and states are propagated
            with pytest.raises(ValueError, match="not exactly Hermitian"):
                me_rhs(rho, coeff, ops)
            continue
        got = me_rhs(rho, coeff, ops)
        assert np.max(np.abs(got - reference_me_rhs(rho, coeff, ops))) <= 1e-13


@st.composite
def hermitian_cases(draw):
    """Random Hermitian state and operators with a coefficient slice of
    the physical reality structure (``Gamma``, ``Theta`` and the shifts
    real, ``Xi``, ``Upsilon`` imaginary)."""
    dim = draw(st.integers(2, 7))
    d = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = st.floats(-2.0, 2.0)

    def matrix(kind):
        vals = np.array(draw(st.lists(real, min_size=d * d, max_size=d * d))).reshape(d, d)
        return vals.astype(complex) if kind == "re" else 1j * vals

    def hermitian():
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return x + x.conj().T

    coeff = {"Gamma": matrix("re"), "Theta": matrix("re"), "Xi": matrix("im"), "Upsilon": matrix("im")}
    for name in ("alpha", "beta", "gamma_pp", "lam_mu"):
        coeff[name] = draw(real)
    ops = {
        "A": [hermitian() for _ in range(d)],
        "V": [hermitian() for _ in range(d)],
        "H0": hermitian(),
        "q": hermitian(),
        "p": hermitian(),
    }
    if draw(st.booleans()):
        del ops["V"]
    return hermitian(), coeff, ops


@settings(max_examples=60, deadline=None)
@given(hermitian_cases())
def test_rhs_traceless_and_hermiticity_preserving_property(case):
    rho, coeff, ops = case
    rhs = me_rhs(rho, coeff, ops)
    scale = max(1.0, np.max(np.abs(rhs)))
    assert abs(np.trace(rhs)) <= 1e-12 * scale
    assert np.max(np.abs(rhs - rhs.conj().T)) <= 1e-12 * scale


def analytic_dephasing_coeffs(t_max=2.0, n=2001):
    grid = make_grid(t_max, n)
    shape = (n, 1, 1)
    Gamma = (-(1.0 - np.exp(-grid.points))).reshape(shape).astype(complex)
    zeros = np.zeros(shape, dtype=complex)
    return MECoefficients(
        grid=grid, scenario="dephasing", Gamma=Gamma, Theta=zeros,
        Xi=zeros.copy(), Upsilon=zeros.copy(),
    )


def test_evolve_dephasing_golden_closed_form():
    # coherence obeys d rho01/dt = 4 Gamma(t) rho01
    coeffs = analytic_dephasing_coeffs()
    ops = {"A": [SZ], "H0": np.zeros((2, 2), dtype=complex)}
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    traj = evolve(rho0, coeffs, ops, 2.0, 1e-3, n_samples=21)
    t = traj.times
    exact = 0.5 * np.exp(-4.0 * (t - 1.0 + np.exp(-t)))
    coherences = np.abs(traj.states[:, 0, 1])
    assert np.max(np.abs(coherences - exact)) < 1e-6


@pytest.mark.parametrize(
    "rho0",
    [np.full(4, 0.25), np.eye(3) / 3, np.eye(4)[:, :3] / 3, np.eye(4)[None] / 4],
    ids=["vector", "3x3", "4x3", "stacked"],
)
def test_evolve_rejects_an_initial_state_off_the_operators(rho0, monkeypatch):
    # rejected before any work: no interpolator is built
    def no_work(*args):
        raise AssertionError("evolve started before checking rho0")

    monkeypatch.setattr(propagate, "CoefficientInterpolator", no_work)
    coeffs = analytic_dephasing_coeffs(t_max=1.0, n=9)
    f = fock_operators(4)
    ops = {"A": [f["q"]], "V": [f["p"]], "H0": quadratic_hamiltonian(4)}
    with pytest.raises(ValueError, match=r"rho0 must be a square matrix .* \(4, 4\)"):
        evolve(rho0, coeffs, ops, 1.0, 0.1, n_samples=3)


def test_evolve_unitary_purity_conserved():
    dim = 12
    grid = make_grid(5.0, 11)
    shape = (11, 1, 1)
    zeros = np.zeros(shape, dtype=complex)
    coeffs = MECoefficients(
        grid=grid, scenario="linear", Gamma=zeros, Theta=zeros.copy(),
        Xi=zeros.copy(), Upsilon=zeros.copy(),
    )
    ops_f = fock_operators(dim)
    ops = {"A": [ops_f["q"]], "V": [ops_f["p"]], "H0": quadratic_hamiltonian(dim)}
    rho0 = DensityMatrix.pure(coherent_state(dim, 1.0)).matrix
    traj = evolve(rho0, coeffs, ops, 5.0, 1e-3, n_samples=11, truncation_guard=False)
    purity = np.array(traj.diagnostics["purity"])
    assert np.max(np.abs(purity - 1.0)) < 1e-10


def test_evolve_trace_drift_small_and_not_renormalized():
    coeffs = analytic_dephasing_coeffs()
    ops = {"A": [SZ], "H0": np.zeros((2, 2), dtype=complex)}
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    traj = evolve(rho0, coeffs, ops, 2.0, 1e-3, n_samples=5)
    drift = abs(traj.diagnostics["trace"][-1] - 1.0)
    assert drift < 1e-12
    assert traj.warnings == []


def test_truncation_guard_trips():
    # strong position diffusion heats past a tiny truncation
    dim = 6
    grid = make_grid(4.0, 9)
    shape = (9, 1, 1)
    zeros = np.zeros(shape, dtype=complex)
    coeffs = MECoefficients(
        grid=grid, scenario="linear",
        Gamma=np.full(shape, -2.0, dtype=complex),
        Theta=zeros, Xi=zeros.copy(), Upsilon=zeros.copy(),
    )
    ops_f = fock_operators(dim)
    ops = {"A": [ops_f["q"]], "V": [ops_f["p"]], "H0": quadratic_hamiltonian(dim)}
    rho0 = DensityMatrix.pure(np.eye(dim)[0]).matrix
    with pytest.raises(TruncationError, match="truncation"):
        evolve(rho0, coeffs, ops, 4.0, 1e-2, n_samples=5)


def _constant_gamma_dim4(gamma):
    """A single-channel run at Fock dimension 4 with constant ``Gamma``."""
    grid = make_grid(1.0, 3)
    shape = (3, 1, 1)
    zeros = np.zeros(shape, dtype=complex)
    coeffs = MECoefficients(
        grid=grid, scenario="linear",
        Gamma=np.full(shape, gamma, dtype=complex),
        Theta=zeros, Xi=zeros.copy(), Upsilon=zeros.copy(),
    )
    ops_f = fock_operators(4)
    return coeffs, {"A": [ops_f["q"]], "V": [ops_f["p"]], "H0": quadratic_hamiltonian(4)}


def test_non_finite_abort_reports_last_valid_time():
    # a wildly stiff coefficient at a coarse step overflows RK4: in the
    # first step at Gamma = -1e80, in the fourth of steps 0.25 at -1e20
    rho0 = DensityMatrix.pure(coherent_state(4, 0.5)).matrix
    for gamma, h, last_valid in ((-1e80, 0.5, 0.0), (-1e20, 0.25, 0.75)):
        coeffs, ops = _constant_gamma_dim4(gamma)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(EvolutionError, match="non-finite") as err:
                evolve(rho0, coeffs, ops, 1.0, h, n_samples=3, truncation_guard=False)
        assert err.value.time == last_valid


def test_finite_state_whose_sum_of_squares_overflows_runs():
    # entries near 1e160 are finite, but their squares overflow: the
    # cheap test of each step (the sum of squares) alarms, and the full
    # test of the entries lets the run go on (the logged purity overflows
    # as well)
    coeffs, ops = _constant_gamma_dim4(0.0)
    rho0 = DensityMatrix.pure(coherent_state(4, 0.5)).matrix
    with np.errstate(over="ignore", invalid="ignore"):
        big = evolve(1e160 * rho0, coeffs, ops, 1.0, 0.25, n_samples=3, truncation_guard=False)
        assert not np.isfinite(np.sum(big.real_states[-1] ** 2))
    unit = evolve(rho0, coeffs, ops, 1.0, 0.25, n_samples=3, truncation_guard=False)
    assert np.isfinite(big.real_states).all()
    assert np.max(np.abs(1e-160 * big.real_states - unit.real_states)) <= 1e-14


def test_richardson_check_small_for_smooth_run():
    coeffs = analytic_dephasing_coeffs(t_max=1.0, n=501)
    ops = {"A": [SZ], "H0": np.zeros((2, 2), dtype=complex)}
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    est = richardson_check(rho0, coeffs, ops, 1.0, 1e-2)
    assert est < 1e-8


def test_moments_classical_motion():
    grid = make_grid(5.0, 11)
    shape = (11, 1, 1)
    zeros = np.zeros(shape, dtype=complex)
    coeffs = MECoefficients(
        grid=grid, scenario="linear", Gamma=zeros, Theta=zeros.copy(),
        Xi=zeros.copy(), Upsilon=zeros.copy(),
    )
    m, omega = 2.0, 1.3
    q0, p0 = 0.7, -0.4
    m0 = GaussianMoments.coherent(q0, p0, m, omega)
    traj = evolve_moments(m0, coeffs, m, omega, 5.0, 1e-3, n_samples=26)
    t = traj.times
    q_exact = q0 * np.cos(omega * t) + p0 * np.sin(omega * t) / (m * omega)
    p_exact = p0 * np.cos(omega * t) - m * omega * q0 * np.sin(omega * t)
    assert np.max(np.abs(traj.means[:, 0] - q_exact)) < 1e-9
    assert np.max(np.abs(traj.means[:, 1] - p_exact)) < 1e-9
    assert traj.uncertainty_ok


def test_moments_reject_dephasing():
    D = make_exponential(1.0, 0.5)
    coeffs = coefficients_dephasing(D, make_grid(1.0, 9))
    with pytest.raises(ValueError, match="linear"):
        evolve_moments(GaussianMoments.coherent(0, 0), coeffs, 1.0, 1.0, 1.0, 1e-2)


def _run_hpz(caller, t_final, h, n_samples=3):
    """An hpz run (grid t_max 0.5) of ``evolve`` or ``evolve_moments``."""
    coeffs, ops, rho0, _ = _hpz_case()
    if caller == "evolve":
        return evolve(rho0, coeffs, ops, t_final, h, n_samples=n_samples)
    return evolve_moments(GaussianMoments.coherent(0.0, 0.0), coeffs, 1.0, 1.0, t_final, h, n_samples=n_samples)


@pytest.mark.parametrize("caller", ["evolve", "evolve_moments"])
def test_t_final_past_the_coefficient_grid_rejected(caller):
    with pytest.raises(ValueError, match="exceeds coefficient grid t_max"):
        _run_hpz(caller, 5.0, 1e-2)


@pytest.mark.parametrize("h", [-1e-3, 0.0, np.inf, np.nan])
@pytest.mark.parametrize("caller", ["evolve", "evolve_moments"])
def test_step_must_be_finite_and_positive(caller, h):
    with pytest.raises(ValueError, match="step h must be finite and > 0"):
        _run_hpz(caller, 0.5, h)


@pytest.mark.parametrize(
    "t_final, n_samples, message",
    [(-0.5, 3, "t_final must be finite and > 0"), (0.0, 3, "t_final must be finite and > 0"),
     (np.nan, 3, "t_final must be finite and > 0"), (0.5, 0, "n_samples must be >= 2"),
     (0.5, 1, "n_samples must be >= 2")],
    ids=["t_final-negative", "t_final-zero", "t_final-nan", "n_samples-0", "n_samples-1"],
)
@pytest.mark.parametrize("caller", ["evolve", "evolve_moments"])
def test_sampling_must_be_forward_and_at_least_two_samples(caller, t_final, n_samples, message):
    with pytest.raises(ValueError, match=message):
        _run_hpz(caller, t_final, 1e-2, n_samples)


def test_moments_validation():
    with pytest.raises(ValueError, match="symmetric"):
        GaussianMoments(mean=[0, 0], cov=[[1.0, 0.2], [0.1, 1.0]])
    with pytest.raises(ValueError, match="positive"):
        GaussianMoments(mean=[0, 0], cov=[[0.0, 0.0], [0.0, 1.0]])
    # det cov = 0.01 < 1/4 violates the uncertainty relation; free motion
    # keeps the determinant, so the run reports it
    zeros = np.zeros((5, 1, 1), dtype=complex)
    coeffs = MECoefficients(
        grid=make_grid(1.0, 5), scenario="linear", Gamma=zeros, Theta=zeros.copy(),
        Xi=zeros.copy(), Upsilon=zeros.copy(),
    )
    m = GaussianMoments(mean=[0, 0], cov=[[0.1, 0.0], [0.0, 0.1]])
    assert evolve_moments(m, coeffs, 1.0, 1.0, 1.0, 1e-2, n_samples=5).uncertainty_ok is False


@pytest.mark.parametrize("field, mean, cov", [
    ("cov", [0.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]]),
    ("mean", [np.inf, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
])
def test_moments_reject_non_finite_entries(field, mean, cov):
    # NaN passes both the symmetry and the positivity comparisons
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        GaussianMoments(mean=mean, cov=cov)


def test_diagnostics_and_trace_distance():
    rho_pure = DensityMatrix.pure(np.array([1.0, 0.0]))
    d = diagnostics(rho_pure.matrix)
    assert d["purity"] == pytest.approx(1.0, abs=1e-12)
    assert d["trace"] == pytest.approx(1.0, abs=1e-12)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    rho1 = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(rho0, rho0) == 0.0
    assert trace_distance(rho0, rho1) == pytest.approx(1.0, abs=1e-12)


def test_density_matrix_validation():
    dm = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
    diag = dm.validate()
    assert diag["positive"]
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.diag([0.6, 0.6]).astype(complex)).validate()
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex)).validate()
    # negative eigenvalue flagged, not raised
    dm2 = DensityMatrix(np.diag([1.1, -0.1]).astype(complex))
    assert not dm2.validate()["positive"]


def test_kossakowski_rhs_equals_direct_rhs():
    D = make_discrete_modes([1.3], [[0.3]])
    kern = harmonic_kernels(1.0, 1.0)
    f = commutator_kernel(kern, ["q"])
    grid = make_grid(1.0, 17)
    tabs = build_ab_tables(D, f, SeriesConfig(max_order=2), grid)
    coeffs = coefficients_linear(tabs, kern, scenario="hpz")
    form = kossakowski_form(coeffs)
    dim = 10
    ops_f = fock_operators(dim)
    ops = {"A": [ops_f["q"]], "V": [ops_f["p"]], "H0": quadratic_hamiltonian(dim)}
    interp = CoefficientInterpolator(coeffs)
    rng = np.random.default_rng(5)
    for i in (4, 16):
        t = grid.points[i]
        for _ in range(10):
            rho = random_hermitian_unit_trace(rng, dim)
            direct = me_rhs(rho, interp(t), ops)
            rewritten = kossakowski_rhs(rho, form, i, ops)
            assert np.max(np.abs(direct - rewritten)) < 1e-10


@st.composite
def kossakowski_cases(draw):
    """A random Hermitian unit-trace state, one channel ``A``, ``V`` (Fock
    ``q``, ``p`` or random Hermitian matrices) and a physical coefficient
    slice: ``Gamma``, ``Theta`` real, ``Xi``, ``Upsilon`` imaginary."""
    dim = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = st.floats(-2.0, 2.0)
    coeff = {
        "Gamma": np.array([[draw(real)]], dtype=complex),
        "Theta": np.array([[draw(real)]], dtype=complex),
        "Xi": np.array([[1j * draw(real)]]),
        "Upsilon": np.array([[1j * draw(real)]]),
    }
    if draw(st.booleans()):
        f = fock_operators(dim)
        ops = {"A": [f["q"]], "V": [f["p"]], "H0": quadratic_hamiltonian(dim)}
    else:
        ops = dense_channel_operators(dim, 1, with_v=True, with_extras=False)
    return random_hermitian_unit_trace(rng, dim), coeff, ops


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kossakowski_cases())
def test_kossakowski_rhs_equals_direct_rhs_property(case):
    rho, coeff, ops = case
    grid = make_grid(1.0, 2)
    tables = {name: np.repeat(value[None], 2, axis=0) for name, value in coeff.items()}
    form = kossakowski_form(MECoefficients(grid=grid, scenario="linear", **tables))
    rewritten = kossakowski_rhs(rho, form, 1, ops)
    scale = max(1.0, np.max(np.abs(rewritten)))
    assert np.max(np.abs(me_rhs(rho, coeff, ops) - rewritten)) <= 1e-12 * scale


def test_qmupl_rhs_matches_channel_expansion():
    # independent reference: eliminate the coupled channels directly by
    # expanding A_k(s) over (q_t, p_t) with the flow and integrating the
    # superoperator action, then compare with the seven-coefficient form
    lam, mu, m, omega = 0.3, 0.12, 1.0, 1.1
    base = make_exponential(1.0, 0.5)
    grid = make_grid(1.0, 33)
    cfg = SeriesConfig(max_order=2, eps_series=1e-30)
    coeffs, tabs = coefficients_qmupl(lam, mu, m, omega, base, cfg, grid)
    kern = qmupl_kernels(m, omega, lam, mu)

    dim = 12
    ops_f = fock_operators(dim, m, omega)
    q, p = ops_f["q"], ops_f["p"]
    H0 = quadratic_hamiltonian(dim, m, omega)
    ops = {"A": [q], "V": [p], "H0": H0, "q": q, "p": p}
    S = np.array([[1.0, 0.0], [0.0, -mu]])

    K = 32
    A, B = tabs.A[:, :, K], tabs.B[:, :, K]
    t = grid.points[K]
    n = K + 1
    w = quad_weights(n, grid.h)
    flows = kern.flow(t - grid.points[:n])  # (2, 2, n)

    def rhs_reference(rho):
        comm = lambda x, y: x @ y - y @ x
        acomm = lambda x, y: x @ y + y @ x
        out = -1j * comm(H0 + 0.5 * lam * mu * acomm(q, p), rho)
        for j in range(2):
            Aj = S[j, 0] * q + S[j, 1] * p
            for k in range(2):
                for a in range(n):
                    row = S[k] @ flows[:, :, a]
                    Ak_s = row[0] * q + row[1] * p
                    out = out - w[a] * (
                        A[j, k, a] * comm(Aj, comm(Ak_s, rho))
                        + 2j * B[j, k, a] * 0.5 * comm(Aj, acomm(Ak_s, rho))
                    )
        return out

    interp = CoefficientInterpolator(coeffs)
    rng = np.random.default_rng(7)
    for _ in range(5):
        # support away from the truncated corner, where the canonical
        # commutator identity [p,[q,.]] = [q,[p,.]] holds exactly
        rho = np.zeros((dim, dim), dtype=complex)
        rho[: dim - 4, : dim - 4] = random_hermitian_unit_trace(rng, dim - 4)
        direct = me_rhs(rho, interp(t), ops)
        ref = rhs_reference(rho)
        scale = max(np.max(np.abs(ref)), 1.0)
        assert np.max(np.abs(direct - ref)) < 1e-10 * scale


def test_trajectory_json_dict():
    coeffs = analytic_dephasing_coeffs(t_max=0.5, n=11)
    ops = {"A": [SZ], "H0": np.zeros((2, 2), dtype=complex)}
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    traj = evolve(
        rho0, coeffs, ops, 0.5, 1e-2, n_samples=6,
        observables={"pop0": np.diag([1.0, 0.0]).astype(complex)},
    )
    payload = scenarios._trajectory_json(traj, "dephasing", "me", {}, dump_rho=True)
    assert payload["scenario"] == "dephasing"
    assert payload["source"] == "me"
    assert len(payload["times"]) == 6
    assert len(payload["observables"]["pop0"]) == 6
    assert len(payload["rho"]) == 6
    assert len(payload["rho"][0]) == 8  # 2x2 complex, re/im interleaved


@pytest.mark.parametrize("case", ["qmupl-dim40", "hpz"])
def test_trajectory_keeps_each_sample_once_as_float64(monkeypatch, case):
    coeffs, ops, rho0, t_final = EVOLVE_CASES[case]()
    n_samples, dim = 6, rho0.shape[0]
    logged, diag = [], propagate.diagnostics

    def spy(rho):
        logged.append(rho)
        return diag(rho)

    monkeypatch.setattr(propagate, "diagnostics", spy)
    traj = evolve(rho0, coeffs, ops, t_final, 1e-2, n_samples=n_samples, truncation_guard=False)
    assert traj.real_states.dtype == np.float64
    assert traj.real_states.nbytes == n_samples * dim * dim * 8
    assert np.array_equal(traj.real_states[0], _real_of(rho0))
    states = traj.states
    assert states.dtype == np.complex128 and states.shape == (n_samples, dim, dim)
    for i, M in enumerate(traj.real_states):
        # bit for bit, signed zeros included
        assert states[i].tobytes() == _hermitian_of(M).tobytes()
        if i:  # the sampled rho that is logged, as it was stored before
            assert states[i].tobytes() == logged[i].tobytes()
    with pytest.raises(AttributeError):
        traj.states = states


def _recorded(case):
    """A trajectory of ``case`` and the observables it logged: an
    ``evolve`` case of ``EVOLVE_CASES`` or the oracle on a complex bath."""
    if case == "oracle":
        model = JointModel(
            h_system=quadratic_hamiltonian(6), channel_ops=(fock_operators(6)["q"],),
            mode_freqs=(1.3, 1.7), couplings=np.array([[0.15, 0.1 + 0.05j]]), mode_dims=(3, 3),
        )
        return evolve_joint(model, np.eye(6, dtype=complex)[1], 2.0, n_samples=9), {}
    coeffs, ops, rho0, t_final = EVOLVE_CASES[case]()
    observables = {"q": ops["q"], "p": ops["p"], "qq": ops["q"] @ ops["q"]}
    traj = evolve(rho0, coeffs, ops, t_final, 1e-2, n_samples=6, observables=observables, truncation_guard=False)
    return traj, observables


@pytest.mark.parametrize("case", ["qmupl-dim40", "hpz", "oracle"])
def test_every_trajectory_records_its_stored_samples(case):
    # the band path (dim 40), the sector path (a vacuum start at dim 10)
    # and the oracle share one recorder: each logged value is that of the
    # stored real form M, bit for bit
    traj, observables = _recorded(case)
    expected = {key: [] for key in ("trace", "hermiticity_defect", "min_eigenvalue", "purity")}
    expected_obs = {name: [] for name in observables}
    for M in traj.real_states:
        rho = _hermitian_of(M)
        for key, value in diagnostics(rho).items():
            expected[key].append(value)
        for name, op in observables.items():
            expected_obs[name].append(float(np.sum(op * rho.T).real))
    logged = dict(traj.diagnostics)
    if case == "oracle":  # the joint norm, measured before the reduction
        assert np.max(np.abs(np.subtract(logged.pop("norm"), 1.0))) <= 1e-8
    for got, want in ((logged, expected), (traj.observables, expected_obs)):
        assert set(got) == set(want)
        for key in want:
            assert np.array(got[key]).tobytes() == np.array(want[key]).tobytes(), key
    # the oracle's too: it stores the real form of the Hermitian part
    assert traj.diagnostics["hermiticity_defect"] == [0.0] * len(traj.times)
    assert traj.warnings == []


def test_rho_dump_equals_the_former_interleave():
    # a complex coherent start, so both parts of most entries are nonzero
    coeffs, ops, _, t_final = EVOLVE_CASES["hpz"]()
    rho0 = scenarios._projector(coherent_state(10, complex(0.5, 0.4)))
    traj = evolve(rho0, coeffs, ops, t_final, 1e-2, n_samples=6, truncation_guard=False)
    former = {**scenarios._trajectory_json(traj, "hpz", "me", {}), "rho": former_rho_dump(traj.states)}
    assert json.dumps(scenarios._trajectory_json(traj, "hpz", "me", {}, dump_rho=True)) == json.dumps(former)
    rebuilt = Trajectory(times=traj.times, real_states=traj.real_states.copy())
    assert scenarios._trajectory_json(rebuilt, "hpz", "me", {}, dump_rho=True)["rho"] == former["rho"]


def _qmupl_case():
    grid = make_grid(0.25, 9)
    cfg = SeriesConfig(max_order=2, eps_series=1e-30)
    coeffs, _ = coefficients_qmupl(0.1, 0.3, 1.0, 1.0, make_exponential(1.0, 0.5), cfg, grid)
    dim = 40
    f = fock_operators(dim)
    ops = {"A": [f["q"]], "V": [f["p"]], "H0": quadratic_hamiltonian(dim), "q": f["q"], "p": f["p"]}
    psi = coherent_state(dim, 1.0)
    return coeffs, ops, np.outer(psi, psi.conj()), 0.25


def _hpz_case():
    grid = make_grid(0.5, 17)
    D = make_discrete_modes([1.3, 1.7], [[0.15, 0.1]])
    kern = harmonic_kernels(1.0, 1.0)
    tabs = build_ab_tables(D, commutator_kernel(kern, ["q"]), SeriesConfig(max_order=3, eps_series=1e-30), grid)
    coeffs = coefficients_linear(tabs, kern, scenario="hpz")
    f = fock_operators(10)
    ops = {"A": [f["q"]], "V": [f["p"]], "H0": quadratic_hamiltonian(10), "q": f["q"], "p": f["p"]}
    rho0 = np.zeros((10, 10), dtype=complex)
    rho0[0, 0] = 1.0
    return coeffs, ops, rho0, 0.5


def _dephasing_case():
    coeffs = analytic_dephasing_coeffs(t_max=0.5, n=11)
    ops = {"A": [SZ], "H0": np.zeros((2, 2), dtype=complex)}
    return coeffs, ops, np.full((2, 2), 0.5, dtype=complex), 0.5


def _synthetic_d2_coeffs(n=9, t_max=0.4):
    """Two channels with ``V`` and every extra, smooth in time."""
    grid = make_grid(t_max, n)
    t = grid.points[:, None, None]
    rng = np.random.default_rng(3)

    def table(kind):
        base = rng.normal(size=(2, 2)) * 0.2
        vals = base * (1.0 + t) + 0.05 * np.sin(3.0 * t)
        return vals.astype(complex) if kind == "re" else 1j * vals

    tables = {"Gamma": table("re"), "Theta": table("re"), "Xi": table("im"), "Upsilon": table("im")}
    extras = {
        "alpha": 0.03 * np.cos(grid.points),
        "beta": -0.02 * grid.points,
        "gamma_pp": -0.01 * (1.0 + grid.points),
    }
    return MECoefficients(grid=grid, scenario="synthetic", lam_mu=0.04, **tables, **extras)


def _synthetic_case(dense=False):
    dim = 8
    channels = dense_channel_operators if dense else fock_channel_operators
    ops = channels(dim, 2, with_v=True, with_extras=True)
    psi = coherent_state(dim, 0.6)
    return _synthetic_d2_coeffs(), ops, np.outer(psi, psi.conj()), 0.4


EVOLVE_CASES = {
    "qmupl-dim40": _qmupl_case,
    "hpz": _hpz_case,
    "dephasing": _dephasing_case,
    "synthetic-d2": _synthetic_case,
    "dense-d2": lambda: _synthetic_case(dense=True),
}

# the half-bandwidth of each case's constant operators: q, p and the
# quadratic Hamiltonians reach 2, the synthetic channel q^2/dim makes
# products that reach 4, sigma_z is diagonal and a dense set reaches
# dim - 1
HALF_BANDWIDTHS = {
    "qmupl-dim40": 2,
    "hpz": 2,
    "dephasing": 0,
    "synthetic-d2": 4,
    "dense-d2": 7,
}

# the (shifts, gamma_pp) of each case's operator set: the qubit, hpz,
# qmupl and two channels with V and every extra, on Fock and on dense
# operators
FORM_TERMS = {
    "dephasing": (False, False),
    "hpz": (False, False),
    "qmupl-dim40": (True, True),
    "synthetic-d2": (True, True),
    "dense-d2": (True, True),
}


@pytest.mark.parametrize("case", EVOLVE_CASES)
def test_half_bandwidth_is_detected(case):
    coeffs, ops, rho0, _ = EVOLVE_CASES[case]()
    assert _SandwichForm.of_run(coeffs, ops, rho0.shape[0]).band == HALF_BANDWIDTHS[case]


@pytest.mark.parametrize("case", EVOLVE_CASES)
def test_evolve_matches_outer_commutator_reference(case):
    coeffs, ops, rho0, t_final = EVOLVE_CASES[case]()
    # over 100 steps: several blocks of stage coefficients, the last partial
    n_samples, h = 6, 2e-3
    traj = evolve(rho0, coeffs, ops, t_final, h, n_samples=n_samples, truncation_guard=False)
    states, diags = reference_evolve(rho0, coeffs, ops, t_final, h, n_samples)
    assert np.max(np.abs(traj.states - states)) <= 1e-13
    for key, values in diags.items():
        assert np.max(np.abs(np.array(traj.diagnostics[key]) - values)) <= 1e-13, key
    # the real state M records exactly Hermitian states
    assert traj.diagnostics["hermiticity_defect"] == [0.0] * n_samples
    assert np.array_equal(traj.states, traj.states.conj().transpose(0, 2, 1))


@pytest.mark.parametrize("case", ["qmupl-dim40", "hpz"])
def test_evolve_moments_matches_reference(case):
    coeffs, _, _, t_final = EVOLVE_CASES[case]()
    m0 = GaussianMoments.coherent(0.9, -0.3, 1.0, 1.0)
    traj = evolve_moments(m0, coeffs, 1.0, 1.0, t_final, 1e-3, n_samples=11)
    ref = reference_evolve_moments(m0, coeffs, 1.0, 1.0, t_final, 1e-3, 11)
    assert np.max(np.abs(traj.means - ref[:, :2])) <= 1e-13
    assert np.max(np.abs(traj.covs.reshape(-1, 4) - ref[:, 2:])) <= 1e-13


@pytest.mark.parametrize("case", ["qmupl-dim40", "dephasing", "synthetic-d2"])
def test_stage_rows_equal_scalar_interpolation(case):
    coeffs = EVOLVE_CASES[case]()[0]
    interp = CoefficientInterpolator(coeffs)
    # an odd step count ends in a partial block; the stage times cross
    # grid nodes and the end of the grid
    t_max = coeffs.grid.t_max
    n_steps, h = 2 * _BLOCK_STEPS + 5, t_max / (2 * _BLOCK_STEPS + 5)
    seen = 0
    for first, count, times in _stage_blocks(n_steps, h):
        c = interp.split(interp.rows(times))
        for i in range(count):
            t = (first + i) * h
            for k, ts in enumerate((t, t + 0.5 * h, t + h)):
                ref = scalar_interp(interp, ts)
                for name, value in ref.items():
                    got = c[name] if name == "lam_mu" else c[name][3 * i + k]
                    assert np.array_equal(got, value), (name, ts)
                assert all(np.array_equal(interp(ts)[name], value) for name, value in ref.items())
        seen += count
    assert seen == n_steps


def interp_at(coeffs, t):
    return scalar_interp(CoefficientInterpolator(coeffs), t)


def _interval_stage(coeffs, ops, t, M0=None):
    """The form and the stages of a run over ``coeffs`` from the real
    state ``M0`` (every entry nonzero when not given), and the stage of
    time ``t``: its grid interval ``k`` and the offset ``t - t_k``."""
    interp = CoefficientInterpolator(coeffs)
    dim = ops["H0"].shape[0]
    form = _SandwichForm.of_run(coeffs, ops, dim)
    (k,), (dt,) = interp.intervals([t])
    M0 = np.ones((dim, dim)) if M0 is None else M0
    return form, _Stages(form, interp, M0, 1e-3), (int(k), float(dt))


def test_mirrored_branch_is_hermitian_and_equals_general_branch(monkeypatch):
    # the band products evaluate every stage, whatever the dimension; the
    # real result is an exactly Hermitian drho/dt equal to the outer
    # commutator form
    monkeypatch.setattr(propagate, "_SUPEROPERATOR_ENTRIES", 0)
    rng = np.random.default_rng(17)
    for case, terms in FORM_TERMS.items():
        coeffs, ops, rho0, t_final = EVOLVE_CASES[case]()
        t = 0.37 * t_final  # between grid nodes
        form, stages, stage = _interval_stage(coeffs, ops, t)
        assert (form.shifts, form.pp) == terms, case
        for _ in range(5):
            rho = random_density_matrix(rng, rho0.shape[0])
            real = stage_rhs(stages, rho.real + rho.imag, stage)
            assert real.dtype == np.float64
            got = _hermitian_of(real)
            assert np.array_equal(got, got.conj().T)
            ref = outer_commutator_rhs(rho, interp_at(coeffs, t), ops)
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(got - ref)) <= 1e-13 * scale, case


@pytest.mark.parametrize("case", EVOLVE_CASES)
def test_superoperator_stage_equals_band_stage(monkeypatch, case):
    # evolve takes the superoperator when the state reaches at most
    # _SUPEROPERATOR_ENTRIES entries and the band otherwise; both evaluate
    # every case here, so the band stays covered at half-bandwidths 0, 2,
    # 4 and 7.  The superoperator steps the entries of vec(M) that the
    # run's state reaches: all of them from a full M, and from rho0 a
    # sector, outside of which the band stage leaves a state on the
    # sector exactly 0
    coeffs, ops, rho0, t_final = EVOLVE_CASES[case]()
    dim = rho0.shape[0]
    monkeypatch.setattr(propagate, "_SUPEROPERATOR_ENTRIES", 0)
    band = _interval_stage(coeffs, ops, 0.0)[1]
    monkeypatch.setattr(propagate, "_SUPEROPERATOR_ENTRIES", dim * dim)
    small = _interval_stage(coeffs, ops, 0.0)[1]
    sector = _interval_stage(coeffs, ops, 0.0, rho0.real + rho0.imag)[1]
    assert np.array_equal(small.idx, np.arange(dim * dim))
    rng = np.random.default_rng(29)
    # between nodes, on a node, and at the end of the grid
    nodes = coeffs.grid.points
    for t in (0.37 * t_final, nodes[2], nodes[-1]):
        (k,), (dt,) = CoefficientInterpolator(coeffs).intervals([t])
        for _ in range(3):
            M = rng.normal(size=(dim, dim))
            want = stage_rhs(band, M, (k, dt)).reshape(-1)
            got = stage_rhs(small, small.state(M), (k, dt))
            assert got.dtype == np.float64 and got.shape == (dim * dim,)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (case, t)
            M = sector.matrix(sector.state(M))
            want = stage_rhs(band, M, (k, dt)).reshape(-1)
            assert not np.delete(want, sector.idx).any(), (case, t)
            got = stage_rhs(sector, sector.state(M), (k, dt))
            assert np.max(np.abs(got - want[sector.idx])) <= 1e-13 * np.max(np.abs(want)), (case, t)


def _reached_count(case, M0):
    coeffs, ops, rho0, _ = EVOLVE_CASES[case]()
    return len(_SandwichForm.of_run(coeffs, ops, rho0.shape[0]).reached(M0))


def test_reached_sector_counts():
    # the Gaussian generators conserve the parity of m - n: the vacuum
    # reaches the 50 even entries of 100, a coherent state all of them;
    # the dephasing qubit's operators are diagonal, so |0> stays |0><0|
    vacuum = np.zeros((10, 10))
    vacuum[0, 0] = 1.0
    assert _reached_count("hpz", vacuum) == 50
    psi = coherent_state(10, 0.5)
    assert _reached_count("hpz", np.outer(psi, psi)) == 100
    assert _reached_count("dephasing", np.full((2, 2), 0.5)) == 4
    assert _reached_count("dephasing", np.diag([1.0, 0.0])) == 1
    # an odd entry of M, such as Re + Im of rho_01, reaches the odd sector
    odd = vacuum.copy()
    odd[0, 1] = 0.1
    assert _reached_count("hpz", odd) == 100


def test_vacuum_sector_trajectory_equals_band_trajectory(monkeypatch):
    coeffs, ops, rho0, t_final = EVOLVE_CASES["hpz"]()
    sector = evolve(rho0, coeffs, ops, t_final, 2e-3, n_samples=6)
    monkeypatch.setattr(propagate, "_SUPEROPERATOR_ENTRIES", 0)
    band = evolve(rho0, coeffs, ops, t_final, 2e-3, n_samples=6)
    assert np.max(np.abs(sector.states - band.states)) <= 1e-13
    assert sector.top_population == pytest.approx(band.top_population, rel=0, abs=1e-13)
    assert sector.top_population > 0
    # the odd entries are exactly 0 on both paths
    m, n = np.indices((10, 10))
    assert not sector.states[:, (m - n) % 2 == 1].any()
    assert not band.states[:, (m - n) % 2 == 1].any()


def _selected_evaluation(monkeypatch, dim, psi):
    """The evaluation that an hpz run of dimension ``dim`` from ``psi``
    steps through, checked against the reference trajectory."""
    coeffs = _hpz_case()[0]
    f = fock_operators(dim)
    ops = {"A": [f["q"]], "V": [f["p"]], "H0": quadratic_hamiltonian(dim), "q": f["q"], "p": f["p"]}
    rho0 = np.outer(psi, psi.conj())
    seen, band = [], []

    def rk4_step(rhs, y, h, *stages):
        seen.append(y.dtype)
        return _rk4_step(rhs, y, h, *stages)

    form_call = _SandwichForm.__call__

    def spy(form, M, coef, out=None):
        band.append(M.dtype)
        return form_call(form, M, coef, out=out)

    monkeypatch.setattr(propagate, "_rk4_step", rk4_step)
    monkeypatch.setattr(_SandwichForm, "__call__", spy)
    traj = evolve(rho0, coeffs, ops, 0.1, 1e-2, n_samples=3, truncation_guard=False)
    states, _ = reference_evolve(rho0, coeffs, ops, 0.1, 1e-2, 3)
    assert np.max(np.abs(traj.states - states)) <= 1e-13
    # every step and every band stage acts on the real M
    assert seen == [np.float64] * 10
    assert band in ([], [np.float64] * 40)
    return "band" if band else "superoperator"


@pytest.mark.parametrize("dim, kind", [(12, "superoperator"), (13, "superoperator"), (14, "band"), (16, "band")])
def test_mirrored_evaluation_selected_by_dimension(monkeypatch, dim, kind):
    # both sides of the crossover _SUPEROPERATOR_ENTRIES (169) for a
    # coherent state, which reaches all dim^2 entries of M
    assert _selected_evaluation(monkeypatch, dim, coherent_state(dim, 0.5)) == kind


@pytest.mark.parametrize("dim, kind", [(12, "superoperator"), (16, "superoperator"), (18, "superoperator"),
                                       (19, "band")])
def test_vacuum_sector_selected_by_reached_count(monkeypatch, dim, kind):
    # the vacuum reaches the ceil(dim^2 / 2) entries of even m - n: 72,
    # 128, 162 and 181
    psi = np.zeros(dim)
    psi[0] = 1.0
    assert _selected_evaluation(monkeypatch, dim, psi) == kind


@pytest.mark.parametrize("case", ["hpz", "qmupl-dim40"])
def test_forward_run_builds_each_interval_once(monkeypatch, case):
    # hpz (dim 10) steps through the superoperator, qmupl (dim 40) through
    # the band products
    coeffs, ops, rho0, t_final = EVOLVE_CASES[case]()
    loads = []
    load = _Stages._load

    def spy(stages, k):
        loads.append(k)
        load(stages, k)

    monkeypatch.setattr(_Stages, "_load", spy)
    evolve(rho0, coeffs, ops, t_final, 2e-3, n_samples=6, truncation_guard=False)
    assert loads == list(range(coeffs.grid.n_points - 1))


def _hpz_coherent_case():
    coeffs, ops, _, t_final = _hpz_case()
    psi = coherent_state(10, 0.5)
    return coeffs, ops, np.outer(psi, psi.conj()), t_final


# the runs that step on a reached sector, and how many entries they reach;
# the band runs, which hold every entry
SECTOR_CASES = {"hpz": 50, "hpz-coherent": 100, "dephasing": 4, "synthetic-d2": 64, "dense-d2": 64}
BAND_CASES = {"qmupl-dim40": 1600, "hpz-band": 100}


def _step_stages(monkeypatch, case, h):
    """The case's coefficients and the stages of its run at step ``h``;
    ``hpz-band`` is hpz with every run on the band path."""
    if case == "hpz-band":
        monkeypatch.setattr(propagate, "_SUPEROPERATOR_ENTRIES", 0)
    coeffs, ops, rho0, _ = (_hpz_coherent_case() if case == "hpz-coherent"
                            else EVOLVE_CASES[case.removesuffix("-band")]())
    stages = _Stages(_SandwichForm.of_run(coeffs, ops, rho0.shape[0]), CoefficientInterpolator(coeffs),
                     _real_of(rho0), h)
    assert stages._small == (case in SECTOR_CASES)
    assert len(stages.idx) == {**SECTOR_CASES, **BAND_CASES}[case]
    return coeffs, stages


@pytest.mark.parametrize("case", [*SECTOR_CASES, *BAND_CASES])
def test_sector_step_matches_the_classical_tableau(monkeypatch, case):
    # a run on a reached sector or on the band takes each RK4 step in
    # place (_Stages.step): the rows of the classical tableau over
    # [y; k1..k4], against the written-out tableau over the same stages,
    # inside one grid interval and across a node
    h = 1e-3
    coeffs, stages = _step_stages(monkeypatch, case, h)
    interp = CoefficientInterpolator(coeffs)
    evaluations = []

    def rhs(y, stage):
        evaluations.append(stage)
        return stage_rhs(stages, y, stage)

    rng = np.random.default_rng(41)
    node = coeffs.grid.points[3]
    # inside interval 2; c1 past node 3; c_mid and c1 past it
    for t in (0.5 * (coeffs.grid.points[2] + node), node - 0.7 * h, node - 0.3 * h):
        k, dt = interp.intervals([t, t + 0.5 * h, t + h])
        c0, c_mid, c1 = zip(k.tolist(), dt.tolist())
        assert (c0[0] == c1[0]) == (t < node - h)
        y = stages.state(rng.normal(size=(stages.form.dim,) * 2))
        before = y.copy()
        got = _rk4_step(stages, y, h, c0, c_mid, c1)
        assert np.array_equal(y, before)
        want = _rk4_step(rhs, y, h, c0, c_mid, c1)
        assert len(evaluations) == 4
        evaluations.clear()
        assert got.dtype == np.float64 and got.shape == y.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(y)), (case, t)


@pytest.mark.parametrize("case", ["hpz", "hpz-band"])
def test_step_reads_only_the_rows_it_wrote(monkeypatch, case):
    # a stage input reads the rows of [y; k1..k4] that the step has
    # written: NaN left in the buffer by anything else never reaches it
    h = 1e-3
    coeffs, stages = _step_stages(monkeypatch, case, h)
    fresh = _step_stages(monkeypatch, case, h)[1]
    psi = coherent_state(10, 0.5)
    y = stages.state(_real_of(np.outer(psi, psi.conj())))
    c0, c_mid, c1 = zip(*CoefficientInterpolator(coeffs).intervals([0.0, 0.5 * h, h]))
    stages._B[...] = np.nan
    got = stages.step(y, c0, c_mid, c1)
    assert np.isfinite(got).all()
    assert np.array_equal(got, fresh.step(y, c0, c_mid, c1))


@pytest.mark.parametrize("case", ["hpz-band", "qmupl-dim40"])
def test_band_stage_rewrites_its_bound_buffers_before_reading_them(monkeypatch, case):
    # the band stage's buffers are bound once per run: NaN in T, in every
    # row of S (its pad rows beyond dim included) and in the interiors of
    # both window buffers never reaches a step; the zero pad rows of the
    # windows, the second product's up to a whole number of _ROWS blocks
    # (dim 10: 12 rows), are never written, and the pad rows of S come
    # out 0
    h = 1e-3
    coeffs, stages = _step_stages(monkeypatch, case, h)
    fresh = _step_stages(monkeypatch, case, h)[1]
    form = stages.form
    for buf in (form._T, form._S, form._MMt.rows, form._Yhat.rows):
        buf[...] = np.nan
    interp = CoefficientInterpolator(coeffs)
    y = stages.state(np.random.default_rng(47).normal(size=(form.dim,) * 2))
    for t in (0.0, h, 2 * h):
        c0, c_mid, c1 = zip(*interp.intervals([t, t + 0.5 * h, t + h]))
        got = stages.step(y, c0, c_mid, c1)
        assert np.array_equal(got, fresh.step(y, c0, c_mid, c1))
        y = got
    b, dim = form.band, form.dim
    pad = -(-dim // _ROWS) * _ROWS
    assert pad == {"hpz-band": 12, "qmupl-dim40": 40}[case]
    assert form._S.shape == (pad // _ROWS, _ROWS, dim)
    assert not form._S.reshape(pad, dim)[dim:].any()
    for product, rows in ((form._MMt, dim), (form._Yhat, pad)):
        buf = product.rows.base
        assert buf.shape == (rows + 2 * b,) + product.rows.shape[1:]
        assert not buf[:b].any() and not buf[dim + b :].any()


def _band_operators(kind: str, dim: int) -> tuple:
    """The operators of a form of ``kind``, its half-bandwidth and the
    count ``N`` of real parts: a zero channel (``N = 0``) beside the
    oscillator, a diagonal channel and Hamiltonian (``b = 0``), the Fock
    ``q``, ``p`` and oscillator (``b = 2``) and a dense Hermitian
    channel and Hamiltonian (``b = dim - 1``)."""
    f = fock_operators(dim)
    if kind == "zero":
        # the oscillator couples n to n +- 2, none of them at dim 2
        return {"A": [np.zeros((dim, dim))], "H0": quadratic_hamiltonian(dim)}, 2 * (dim > 2), 0
    if kind == "diagonal":
        return {"A": [np.diag((-1.0) ** np.arange(dim))], "H0": np.diag(np.arange(dim, dtype=float))}, 0, 1
    if kind == "fock":
        return {"A": [f["q"]], "V": [f["p"]], "H0": quadratic_hamiltonian(dim), **f}, min(2, dim - 1), 2
    x = np.random.default_rng(dim).normal(size=(3, dim, dim))
    return {"A": [x[0] + x[0].T + 1j * (x[1] - x[1].T)], "H0": x[2] + x[2].T}, dim - 1, 2


@pytest.mark.parametrize("dim", [*range(2, 21), 40])
@pytest.mark.parametrize("kind", ["zero", "diagonal", "fock", "dense"])
def test_blocked_band_stage_matches_the_one_row_product(kind, dim):
    # the second product on blocks of _ROWS output rows, padded to a
    # whole number of blocks where _ROWS does not divide dim, against the
    # former product of one row a core, under arbitrary band coefficients
    ops, b, N = _band_operators(kind, dim)
    form = _SandwichForm(ops, dim, shifts=kind == "fock", pp=False)
    R = real_parts(form._F)
    assert (form.band, len(R)) == (b, N)
    rng = np.random.default_rng(53 + dim)
    coef = rng.normal(size=(dim, N + 2, 2 * (2 * b + 1)))
    M = rng.normal(size=(dim, dim))
    want = one_row_stage(M, coef, R, b)
    got = form(M, coef)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("case", BAND_CASES)
def test_band_stage_combines_the_interval_operator_to_rounding(monkeypatch, case):
    # Op_k + (t - t_k) dOp_k, one product of [1, t - t_k] with
    # [Op_k; dOp_k], against the multiply-then-add it replaced: within one
    # rounding of the terms, however the product fuses them
    coeffs, stages = _step_stages(monkeypatch, case, 1e-3)
    for k, dt in ((0, 0.0), (0, 7e-3), (2, 0.031)):
        stages._load(k)
        got = stages._band_stage((k, dt)).reshape(-1)
        op, eps = stages._op, np.finfo(float).eps
        assert np.all(np.abs(got - (op[1] * dt + op[0])) <= eps * (np.abs(op[0]) + np.abs(dt * op[1])))


def test_band_steps_allocate_only_their_result(monkeypatch):
    # a band step writes every stage into buffers bound once per run: 50
    # steps at dim 40 peak at two dim^2 float64 arrays, the y a step
    # returns and the one it steps from, plus at most 1 KiB of array
    # headers and iterator state; a stage temporary of dim^2 exceeds it
    h = 5e-4  # 50 steps inside the first grid interval, loaded below
    coeffs, stages = _step_stages(monkeypatch, "qmupl-dim40", h)
    k, dt = CoefficientInterpolator(coeffs).intervals(h * (np.arange(50)[:, None] + [0.0, 0.5, 1.0]).ravel())
    assert not k.any()
    steps = [tuple(zip(k[i : i + 3].tolist(), dt[i : i + 3].tolist())) for i in range(0, 150, 3)]
    y = stages.step(stages.state(np.eye(40) / 40), *steps[0])
    tracemalloc.start()
    try:
        for step in steps:
            y = stages.step(y, *step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 40 * 40 * 8 + 1024, peak


@pytest.mark.parametrize("case", EVOLVE_CASES)
def test_band_evaluation_into_out_equals_the_allocating_call(case):
    # a band slope is written straight into its row of [y; k1..k4]
    coeffs, ops, rho0, t_final = EVOLVE_CASES[case]()
    interp = CoefficientInterpolator(coeffs)
    form = _SandwichForm.of_run(coeffs, ops, rho0.shape[0])
    coef = form.banded(form.weights(interp.split(interp.rows([0.37 * t_final])), str))[0]
    M = np.random.default_rng(43).normal(size=rho0.shape)
    out = np.full(rho0.shape, np.nan)
    assert form(M, coef, out=out) is out
    assert np.array_equal(out, form(M, coef))


def _unphysical_case(case):
    """The synthetic-d2 case with one input off the physical structure,
    and a time whose coefficient slice carries it: a non-Hermitian
    channel operator, a non-Hermitian state, ``Xi`` with a real part far
    below any tolerance on one grid node, or ``Gamma`` of -8e306 and 8e306
    on the nodes 3 and 4 (both rows pass, their slope overflows)."""
    coeffs, ops, rho0, _ = _synthetic_case()
    upper = np.triu(np.ones_like(rho0), 1)
    nodes = coeffs.grid.points
    t = 0.5 * (nodes[3] + nodes[4])
    if case == "operator":
        ops["A"] = [ops["A"][0] + 0.1j * upper, ops["A"][1]]
    elif case == "state":
        rho0 = rho0 + 1e-3j * upper
    elif case == "slope-3":
        coeffs.Gamma[3:5] = [[[-8e306]], [[8e306]]]
    else:
        node = int(case.removeprefix("node-"))
        coeffs.Xi[node] += 1e-14
        t = nodes[node]
    return coeffs, ops, rho0, t


HERMITICITY = "are not exactly Hermiticity preserving"
# the message of evolve and of me_rhs for each case
REJECTIONS = {
    "operator": ("operator A[0] is not exactly Hermitian",) * 2,
    "state": ("state rho is not exactly Hermitian",) * 2,
    "node-0": (f"coefficients at grid time t=0 {HERMITICITY}", f"coefficients of the slice {HERMITICITY}"),
    "node-4": (f"coefficients at grid time t=0.2 {HERMITICITY}", f"coefficients of the slice {HERMITICITY}"),
    "node-8": (f"coefficients at grid time t=0.4 {HERMITICITY}", f"coefficients of the slice {HERMITICITY}"),
    "slope-3": (f"coefficients on the slope of grid interval [0.15, 0.2] {HERMITICITY}",
                f"coefficients of the slice {HERMITICITY}"),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_unphysical_input_rejected_before_any_step(monkeypatch, case):
    coeffs, ops, rho0, t = _unphysical_case(case)
    steps = []
    monkeypatch.setattr(propagate, "_rk4_step", lambda *args: steps.append(args))
    in_evolve, in_rhs = REJECTIONS[case]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=re.escape(in_evolve)):
        evolve(rho0, coeffs, ops, coeffs.grid.t_max, 2e-3, n_samples=3, truncation_guard=False)
    assert steps == []
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=re.escape(in_rhs)):
        me_rhs(rho0, interp_at(coeffs, t), ops)


def test_operators_deduplicated_by_value():
    # V_1 equals A_1 by value but is another object; p doubles as V_0
    f = fock_operators(6)
    ops = {"A": [f["q"], f["number"]], "V": [f["p"], f["number"].copy()], "H0": quadratic_hamiltonian(6),
           "q": f["q"], "p": f["p"].copy()}
    form = _SandwichForm(ops, 6, True, True)
    assert form.n == 3
    coeff = {name: np.full((2, 2), value) for name, value in
             (("Gamma", 0.1 + 0j), ("Theta", 0.1 + 0j), ("Xi", 0.2j), ("Upsilon", 0.2j))}
    coeff.update(alpha=0.05, beta=-0.02, gamma_pp=-0.03, lam_mu=0.06)
    rho = random_hermitian_unit_trace(np.random.default_rng(2), 6)
    assert np.max(np.abs(me_rhs(rho, coeff, ops) - outer_commutator_rhs(rho, coeff, ops))) <= 1e-12


def _constant_coeffs(t_max, scenario, Gamma=0.0, Theta=0.0, Xi=0.0, Upsilon=0.0):
    """Coefficients that hold one value on a two-node grid."""
    def table(value):
        return np.full((2, 1, 1), value, dtype=complex)

    return MECoefficients(grid=make_grid(t_max, 2), scenario=scenario, Gamma=table(Gamma), Theta=table(Theta),
                          Xi=table(Xi), Upsilon=table(Upsilon))


# 15390 steps of h = 2e4 / 15390 and a sample every 2565 of them: the
# step times fall a few 1e-12 off the sample times, where a float
# comparison of the two records sample 5 one step late
LONG_WINDOW = {"t_final": 2e4, "h": 1.3, "n_samples": 7}


def test_evolve_samples_a_long_window_on_its_steps():
    # d rho01/dt = (4 Gamma - i omega) rho01 under H0 = omega sigma_z / 2,
    # slow enough that RK4 at h = 1.3 is exact to rounding
    gamma, omega = -1e-5, 1e-4
    coeffs = _constant_coeffs(2e4, "dephasing", Gamma=gamma)
    ops = {"A": [SZ], "H0": 0.5 * omega * SZ}
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    traj = evolve(rho0, coeffs, ops, **LONG_WINDOW)
    t = np.linspace(0.0, 2e4, 7)
    assert np.array_equal(traj.times, t) and traj.states.shape == (7, 2, 2)
    exact = np.empty((7, 2, 2), dtype=complex)
    exact[:, 0, 0] = exact[:, 1, 1] = 0.5
    exact[:, 0, 1] = 0.5 * np.exp((4.0 * gamma - 1j * omega) * t)
    exact[:, 1, 0] = exact[:, 0, 1].conj()
    assert np.max(np.abs(traj.states - exact)) <= 1e-10
    assert len(traj.diagnostics["trace"]) == 7


def test_evolve_moments_samples_a_long_window_on_its_steps():
    # an oscillator of frequency 1e-4 (m omega = 1), damped by Upsilon and
    # driven by the Gamma and Theta diffusion; the moment ODE is linear
    # with constant K, so y(t) = expm(K t) y(0)
    m, omega = 1e4, 1e-4
    coeffs = _constant_coeffs(2e4, "linear", Gamma=-1e-6, Theta=1e-7, Xi=2e-6j, Upsilon=-2e-5j)
    m0 = GaussianMoments.coherent(0.8, -0.5, m, omega)
    traj = evolve_moments(m0, coeffs, m, omega, **LONG_WINDOW)
    t = np.linspace(0.0, 2e4, 7)
    assert np.array_equal(traj.times, t)
    interp = CoefficientInterpolator(coeffs)
    K = _moment_matrices(interp.split(interp.table[:1]), m, omega)[0]
    y0 = np.concatenate([m0.mean, m0.cov.ravel(), [1.0]])
    exact = np.array([expm(K * ti) @ y0 for ti in t])
    assert np.max(np.abs(traj.means - exact[:, :2])) <= 1e-10
    assert np.max(np.abs(traj.covs.reshape(-1, 4) - exact[:, 2:6])) <= 1e-10


@pytest.mark.parametrize("case", ["qmupl-dim40", "hpz"])
def test_moment_step_matrices_equal_the_written_out_tableau(monkeypatch, case):
    # evolve_moments takes one RK4 step of the identity per block; each is
    # the former written-out tableau bit for bit, and so is the trajectory
    coeffs, _, _, t_final = EVOLVE_CASES[case]()
    blocks = []

    def spy(rhs, y, h, K0, Km, K1):
        P = _rk4_step(rhs, y, h, K0, Km, K1)
        assert np.array_equal(y, np.eye(7))
        assert np.array_equal(P, rk4_step_matrices(np.stack([K0, Km, K1], axis=1).reshape(-1, 7, 7), h))
        blocks.append(len(P))
        return P

    monkeypatch.setattr(propagate, "_rk4_step", spy)
    m0 = GaussianMoments.coherent(0.9, -0.3, 1.0, 1.0)
    traj = evolve_moments(m0, coeffs, 1.0, 1.0, t_final, 1e-3, n_samples=11)
    n_steps, h = aligned_steps(t_final, 1e-3, 11)
    assert sum(blocks) == n_steps and len(blocks) > 1
    interp = CoefficientInterpolator(coeffs)
    y = np.concatenate([m0.mean, m0.cov.ravel(), [1.0]])
    samples = [y]
    for first, count, times in _stage_blocks(n_steps, h):
        P = rk4_step_matrices(_moment_matrices(interp.split(interp.rows(times)), 1.0, 1.0), h)
        for i in range(count):
            y = P[i] @ y
            if (first + i + 1) % (n_steps // 10) == 0:
                samples.append(y)
    samples = np.array(samples)
    assert np.array_equal(traj.means, samples[:, :2])
    assert np.array_equal(traj.covs.reshape(-1, 4), samples[:, 2:6])


def _hpz_dim16_case():
    coeffs, _, _, t_final = _hpz_case()
    f = fock_operators(16)
    ops = {"A": [f["q"]], "V": [f["p"]], "H0": quadratic_hamiltonian(16), "q": f["q"], "p": f["p"]}
    return coeffs, ops, np.eye(16, dtype=complex) / 16, t_final


@pytest.mark.parametrize("case", ["qmupl-dim40", "hpz-dim16", "synthetic-d2"])
def test_band_coefficients_equal_the_dense_route(case):
    # every node row, every slope row and the zero row, as _Stages weighs
    # them; the band rows of the constant operators combine to the band
    # rows cut from the dense X and Fhat
    coeffs, ops, rho0, _ = _hpz_dim16_case() if case == "hpz-dim16" else EVOLVE_CASES[case]()
    interp = CoefficientInterpolator(coeffs)
    form = _SandwichForm.of_run(coeffs, ops, rho0.shape[0])
    rows = np.concatenate([interp.table, interp.slopes, np.zeros_like(interp.table[:1])])
    w = form.weights(interp.split(rows), str)
    got, want = form.banded(w), dense_banded(form, w)
    assert got.shape == want.shape == (len(rows), form.dim, form.C.shape[1] + 2, 2 * (2 * form.band + 1))
    for g, r in zip(got, want):
        assert np.max(np.abs(g - r)) <= 1e-15 * np.max(np.abs(r))
