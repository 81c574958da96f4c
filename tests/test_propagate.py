import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmgme.bath import make_discrete_modes, make_exponential
from nmgme.coefficients import (
    MECoefficients,
    build_ab_tables,
    coefficients_dephasing,
    coefficients_linear,
    coefficients_qmupl,
    kossakowski_form,
)
from nmgme.grids import make_grid, quad_weights
from nmgme.propagate import (
    _BLOCK_STEPS,
    CoefficientInterpolator,
    DensityMatrix,
    EvolutionError,
    GaussianMoments,
    TruncationError,
    diagnostics,
    evolve,
    evolve_moments,
    kossakowski_rhs,
    me_rhs,
    trace_distance,
    _SandwichForm,
    _stage_blocks,
)
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
    outer_commutator_rhs,
    reference_evolve,
    reference_evolve_moments,
    richardson_check,
    scalar_interp,
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


@pytest.mark.parametrize("hermitian", [True, False], ids=["herm", "nonherm"])
@pytest.mark.parametrize("with_extras", [True, False], ids=["extras", "plain"])
@pytest.mark.parametrize("with_v", [True, False], ids=["V", "noV"])
@pytest.mark.parametrize("d", [1, 2])
def test_single_form_matches_double_commutator_reference(d, with_v, with_extras, hermitian):
    rng = np.random.default_rng([d, with_v, with_extras, hermitian])
    dim = 8
    ops = fock_channel_operators(dim, d, with_v, with_extras)

    def cplx(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    coeff = {name: cplx((d, d)) for name in ("Gamma", "Theta", "Xi", "Upsilon")}
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
    rho0 = DensityMatrix.pure(coherent_state(dim, 1.0))
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
    rho0 = DensityMatrix.pure(np.eye(dim)[0])
    with pytest.raises(TruncationError, match="truncation"):
        evolve(rho0, coeffs, ops, 4.0, 1e-2, n_samples=5)


def test_non_finite_abort_reports_last_valid_time():
    # a wildly stiff coefficient at a coarse step overflows RK4
    grid = make_grid(1.0, 3)
    shape = (3, 1, 1)
    zeros = np.zeros(shape, dtype=complex)
    coeffs = MECoefficients(
        grid=grid, scenario="linear",
        Gamma=np.full(shape, -1e80, dtype=complex),
        Theta=zeros, Xi=zeros.copy(), Upsilon=zeros.copy(),
    )
    ops_f = fock_operators(4)
    ops = {"A": [ops_f["q"]], "V": [ops_f["p"]], "H0": quadratic_hamiltonian(4)}
    rho0 = DensityMatrix.pure(coherent_state(4, 0.5))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvolutionError, match="non-finite") as err:
            evolve(rho0, coeffs, ops, 1.0, 0.5, n_samples=3, truncation_guard=False)
    assert err.value.time is not None


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


def test_moments_validation():
    with pytest.raises(ValueError, match="symmetric"):
        GaussianMoments(mean=[0, 0], cov=[[1.0, 0.2], [0.1, 1.0]])
    with pytest.raises(ValueError, match="positive"):
        GaussianMoments(mean=[0, 0], cov=[[0.0, 0.0], [0.0, 1.0]])
    m = GaussianMoments(mean=[0, 0], cov=[[0.1, 0.0], [0.0, 0.1]])
    assert not m.uncertainty_ok()


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
    coeffs = coefficients_linear(tabs, kern, grid, scenario="hpz")
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


def test_qmupl_rhs_matches_channel_expansion():
    # independent reference: eliminate the coupled channels directly by
    # expanding A_k(s) over (q_t, p_t) with the flow and integrating the
    # superoperator action, then compare with the seven-coefficient form
    lam, mu, m, omega = 0.3, 0.12, 1.0, 1.1
    base = make_exponential(1.0, 0.5)
    grid = make_grid(1.0, 33)
    cfg = SeriesConfig(max_order=2, eps_series=1e-30)
    coeffs, tabs = coefficients_qmupl(
        lam, mu, m, omega, base, cfg, grid, return_ab=True
    )
    kern = qmupl_kernels(m, omega, lam, mu)

    dim = 12
    ops_f = fock_operators(dim, m, omega)
    q, p = ops_f["q"], ops_f["p"]
    H0 = quadratic_hamiltonian(dim, m, omega)
    ops = {"A": [q], "V": [p], "H0": H0, "q": q, "p": p}
    S = np.array([[1.0, 0.0], [0.0, -mu]])

    K = 32
    ab = tabs[K]
    t = ab.outer_time
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
                        ab.A[j, k, a] * comm(Aj, comm(Ak_s, rho))
                        + 2j * ab.B[j, k, a] * 0.5 * comm(Aj, acomm(Ak_s, rho))
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
        scenario="dephasing",
    )
    payload = traj.to_json_dict(dump_rho=True)
    assert payload["scenario"] == "dephasing"
    assert len(payload["times"]) == 6
    assert len(payload["observables"]["pop0"]) == 6
    assert len(payload["rho"]) == 6
    assert len(payload["rho"][0]) == 8  # 2x2 complex, re/im interleaved


def _qmupl_case():
    grid = make_grid(0.25, 9)
    cfg = SeriesConfig(max_order=2, eps_series=1e-30)
    coeffs = coefficients_qmupl(0.1, 0.3, 1.0, 1.0, make_exponential(1.0, 0.5), cfg, grid)
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
    coeffs = coefficients_linear(tabs, kern, grid, scenario="hpz")
    f = fock_operators(10)
    ops = {"A": [f["q"]], "V": [f["p"]], "H0": quadratic_hamiltonian(10), "q": f["q"], "p": f["p"]}
    rho0 = np.zeros((10, 10), dtype=complex)
    rho0[0, 0] = 1.0
    return coeffs, ops, rho0, 0.5


def _dephasing_case():
    coeffs = analytic_dephasing_coeffs(t_max=0.5, n=11)
    ops = {"A": [SZ], "H0": np.zeros((2, 2), dtype=complex)}
    return coeffs, ops, np.full((2, 2), 0.5, dtype=complex), 0.5


def _synthetic_d2_coeffs(n=9, t_max=0.4, physical=True):
    """Two channels with ``V`` and every extra, smooth in time; with
    ``physical=False`` ``Xi`` carries a real part far below the reality
    tolerance, so no stage is exactly Hermiticity preserving (``W`` stays
    Hermitian: only ``Y = X^dag`` fails)."""
    grid = make_grid(t_max, n)
    t = grid.points[:, None, None]
    rng = np.random.default_rng(3)

    def table(kind):
        base = rng.normal(size=(2, 2)) * 0.2
        vals = base * (1.0 + t) + 0.05 * np.sin(3.0 * t)
        return vals.astype(complex) if kind == "re" else 1j * vals

    tables = {"Gamma": table("re"), "Theta": table("re"), "Xi": table("im"), "Upsilon": table("im")}
    if not physical:
        tables["Xi"] = tables["Xi"] + 1e-14
    extras = {
        "alpha": 0.03 * np.cos(grid.points),
        "beta": -0.02 * grid.points,
        "gamma_pp": -0.01 * (1.0 + grid.points),
    }
    return MECoefficients(grid=grid, scenario="synthetic", lam_mu=0.04, **tables, **extras)


def _synthetic_case(physical=True, hermitian=True):
    dim = 8
    ops = fock_channel_operators(dim, 2, with_v=True, with_extras=True)
    psi = coherent_state(dim, 0.6)
    rho0 = np.outer(psi, psi.conj())
    if not hermitian:
        rho0 = rho0 + 1e-3j * np.triu(np.ones((dim, dim)), 1)
    return _synthetic_d2_coeffs(physical=physical), ops, rho0, 0.4


EVOLVE_CASES = {
    "qmupl-dim40": _qmupl_case,
    "hpz": _hpz_case,
    "dephasing": _dephasing_case,
    "synthetic-d2": _synthetic_case,
    "synthetic-d2-unphysical": lambda: _synthetic_case(physical=False),
    "synthetic-d2-nonhermitian": lambda: _synthetic_case(hermitian=False),
}


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
    for first, count, c in _stage_blocks(interp, n_steps, h):
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


def _form_and_stage(coeffs, ops, t):
    interp = CoefficientInterpolator(coeffs)
    c = interp.split(interp.rows([t]))
    form = _SandwichForm(ops, ops["H0"].shape[0], True, True)
    XY, Wt, mirror = form.weights(c)
    return form, XY[0], Wt[0], bool(mirror[0])


def test_mirrored_branch_is_hermitian_and_equals_general_branch():
    coeffs = _synthetic_d2_coeffs()
    ops = fock_channel_operators(8, 2, with_v=True, with_extras=True)
    form, XY, Wt, mirror = _form_and_stage(coeffs, ops, 0.13)
    assert mirror
    rng = np.random.default_rng(17)
    for _ in range(5):
        rho = random_hermitian_unit_trace(rng, 8)
        mirrored = form(rho, (XY, Wt, True))
        general = form(rho, (XY, Wt, False))
        assert np.array_equal(mirrored, mirrored.conj().T)
        scale = max(1.0, np.max(np.abs(general)))
        assert np.max(np.abs(mirrored - general)) <= 1e-13 * scale
        assert np.max(np.abs(mirrored - outer_commutator_rhs(rho, interp_at(coeffs, 0.13), ops))) <= 1e-13 * scale


def test_unphysical_stage_is_not_mirrored():
    ops = fock_channel_operators(8, 2, with_v=True, with_extras=True)
    assert not _form_and_stage(_synthetic_d2_coeffs(physical=False), ops, 0.13)[3]
    # a non-Hermitian channel operator rules the mirror out as well
    ops["A"] = [ops["A"][0] + 0.1j * np.triu(np.ones((8, 8)), 1), ops["A"][1]]
    assert not _form_and_stage(_synthetic_d2_coeffs(), ops, 0.13)[3]


def test_operators_deduplicated_by_value():
    # V_1 equals A_1 by value but is another object; p doubles as V_0
    f = fock_operators(6)
    ops = {"A": [f["q"], f["number"]], "V": [f["p"], f["number"].copy()], "H0": quadratic_hamiltonian(6),
           "q": f["q"], "p": f["p"].copy()}
    form = _SandwichForm(ops, 6, True, True)
    assert form.n == 3
    coeff = {name: np.full((2, 2), 0.1 + 0.2j) for name in ("Gamma", "Theta", "Xi", "Upsilon")}
    coeff.update(alpha=0.05, beta=-0.02, gamma_pp=-0.03, lam_mu=0.06)
    rho = random_hermitian_unit_trace(np.random.default_rng(2), 6)
    assert np.max(np.abs(me_rhs(rho, coeff, ops) - outer_commutator_rhs(rho, coeff, ops))) <= 1e-12
