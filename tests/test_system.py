import numpy as np
import pytest
from scipy.linalg import expm

from nmgme.bath import make_discrete_modes, make_exponential, make_qmupl_matrix, make_white_noise_approximant
from nmgme.system import (
    SYMPLECTIC_FORM,
    commutator_kernel,
    fock_operators,
    harmonic_kernels,
    qmupl_kernels,
    quadratic_hamiltonian,
)

from helpers import zero_commutator


def test_harmonic_kernel_values():
    kern = harmonic_kernels(1.0, 2.0)
    u = np.pi / 4
    assert kern.flow(u)[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert kern.flow(u)[0, 1] == pytest.approx(-0.5)


def test_harmonic_boundary_conditions():
    for m, omega in ((1.0, 1.0), (2.0, 0.7)):
        kern = harmonic_kernels(m, omega)
        assert kern.flow(0.0)[0, 0] == pytest.approx(1.0)
        assert kern.flow(0.0)[0, 1] == pytest.approx(0.0)
        # finite-difference Cdot(0) = 0 within O(h^2)
        h = 1e-5
        cdot = (kern.flow(h)[0, 0] - kern.flow(-h)[0, 0]) / (2 * h)
        assert abs(cdot) < 1e-9
        # velocity-kernel slope carries the 1/m factor
        ctdot = (kern.flow(h)[0, 1] - kern.flow(-h)[0, 1]) / (2 * h)
        assert ctdot == pytest.approx(-1.0 / m, abs=1e-9)


def test_free_particle_limit():
    kern = harmonic_kernels(1.0, 0.0)
    assert kern.flow(1.3)[0, 0] == pytest.approx(1.0)
    assert kern.flow(1.3)[0, 1] == pytest.approx(-1.3)
    # continuity: small omega approaches the limit
    kern_eps = harmonic_kernels(1.0, 1e-6)
    assert kern_eps.flow(1.3)[0, 1] == pytest.approx(-1.3, abs=1e-9)


def test_qmupl_kernels_reduce_to_harmonic():
    kq = qmupl_kernels(1.0, 1.3, 0.0, 0.0)
    kh = harmonic_kernels(1.0, 1.3)
    u = np.linspace(0.0, 2.0, 9)
    assert np.allclose(kq.flow(u), kh.flow(u))


def test_qmupl_kernels_identity_at_zero():
    kern = qmupl_kernels(1.0, 1.0, 3.0, 0.2)
    assert np.allclose(kern.flow(0.0), np.eye(2))


def test_qmupl_kernels_explicit_value():
    # lam*mu = 0.6, omega = 1 -> shifted frequency 0.8
    kern = qmupl_kernels(1.0, 1.0, 6.0, 0.1)
    wt = 0.8
    u = 0.5 * np.pi / wt
    assert kern.flow(u)[0, 0] == pytest.approx(-0.75)


def test_qmupl_flow_is_symplectic():
    # the flow keeps [q, p]: Phi Omega Phi^T = Omega (det Phi = 1)
    kern = qmupl_kernels(1.0, 1.0, 2.0, 0.2)
    for u in (0.0, 0.9, -1.7):
        phi = kern.flow(u)
        assert np.allclose(phi @ SYMPLECTIC_FORM @ phi.T, SYMPLECTIC_FORM, atol=1e-14)


def test_qmupl_rejects_imaginary_shifted_frequency():
    with pytest.raises(ValueError, match="omega"):
        qmupl_kernels(1.0, 1.0, 2.0, 0.6)
    with pytest.raises(ValueError, match="effective frequency"):
        qmupl_kernels(1.0, 1.0, 2.0, 0.5)


@pytest.mark.parametrize(
    "m, omega, lam, mu, message",
    [
        (0.0, 1.0, 0.1, 0.1, "mass must be positive"),
        (-1.0, 1.0, 0.1, 0.1, "mass must be positive"),
        (1.0, -1.0, 0.1, 0.1, "non-negative"),
        (1.0, 1.0, -0.1, 0.1, "non-negative"),
        (1.0, 1.0, 0.1, -0.1, "non-negative"),
    ],
)
def test_qmupl_rejects_bad_parameters(m, omega, lam, mu, message):
    with pytest.raises(ValueError, match=message):
        qmupl_kernels(m, omega, lam, mu)


def test_qmupl_flow_satisfies_matrix_ode():
    m, omega, lm = 1.0, 1.2, 2.0 * 0.3
    kern = qmupl_kernels(m, omega, 2.0, 0.3)
    A = np.array([[lm, 1.0 / m], [-m * omega**2, -lm]])
    h = 1e-5
    u = 0.5
    dC = (kern.flow(u + h) - kern.flow(u - h)) / (2 * h)
    assert np.max(np.abs(dC + A @ kern.flow(u))) < 1e-9


def test_commutator_kernel_harmonic():
    kern = harmonic_kernels(1.0, 1.0)
    f = commutator_kernel(kern, ["q"])
    assert f(0, 0, 1.1, 1.1) == pytest.approx(0.0)
    assert f(0, 0, 0.0, np.pi / 2) == pytest.approx(1j * np.sin(np.pi / 2))
    # purely imaginary everywhere
    t = np.linspace(0, 2, 7)
    vals = f(0, 0, t[:, None], t[None, :])
    assert np.max(np.abs(vals.real)) == 0.0


def test_commutator_kernel_antisymmetry():
    kern = qmupl_kernels(1.0, 1.0, 2.0, 0.2)
    f = commutator_kernel(kern, [(1.0, 0.0), (0.0, -0.2)])
    t = np.linspace(0, 2, 9)
    T, S = np.meshgrid(t, t, indexing="ij")
    for j in range(2):
        for k in range(2):
            assert np.max(np.abs(f(j, k, T, S) + f(k, j, S, T))) < 1e-12


def test_commutator_kernel_qmupl_equal_time():
    mu = 0.37
    kern = qmupl_kernels(1.0, 1.0, 1.0, mu)
    f = commutator_kernel(kern, [(1.0, 0.0), (0.0, -mu)])
    # [q, -mu p] = -i mu
    assert f(0, 1, 0.8, 0.8) == pytest.approx(-1j * mu)


def test_commutator_kernel_rejects_nonlinear_spec():
    kern = harmonic_kernels(1.0, 1.0)
    with pytest.raises(ValueError, match="linear"):
        commutator_kernel(kern, ["q^2"])


def test_zero_commutator():
    f = zero_commutator(1)
    assert f.is_zero
    assert np.max(np.abs(f(0, 0, np.ones((3, 3)), np.zeros((3, 3))))) == 0.0


def test_commutator_matches_fock_heisenberg():
    # evolve q numerically in a dim-30 Fock space and compare [q(t), q(s)]
    # against the closed-form kernel away from the truncated corner
    dim, m, omega = 30, 1.0, 1.3
    ops = fock_operators(dim, m, omega)
    H = quadratic_hamiltonian(dim, m, omega)
    kern = harmonic_kernels(m, omega)
    f = commutator_kernel(kern, ["q"])
    sub = slice(0, dim - 10)
    for t, s in ((0.4, 1.1), (2.0, 0.3), (1.5, 1.5)):
        Ut, Us = expm(1j * H * t), expm(1j * H * s)
        qt = Ut @ ops["q"] @ Ut.conj().T
        qs = Us @ ops["q"] @ Us.conj().T
        comm = (qt @ qs - qs @ qt)[sub, sub]
        expected = complex(f(0, 0, t, s)) * np.eye(dim)[sub, sub]
        assert np.max(np.abs(comm - expected)) < 1e-6


def test_fock_operators_matrix_elements():
    ops = fock_operators(2, 1.0, 1.0)
    assert ops["q"][0, 1] == pytest.approx(1.0 / np.sqrt(2.0))
    assert ops["q"][1, 0] == pytest.approx(1.0 / np.sqrt(2.0))


def test_fock_canonical_commutator_block():
    dim = 8
    ops = fock_operators(dim, 1.0, 2.0)
    comm = ops["q"] @ ops["p"] - ops["p"] @ ops["q"]
    block = slice(0, dim - 1)
    assert np.max(np.abs(comm[block, block] - 1j * np.eye(dim)[block, block])) < 1e-12


def test_fock_number_diagonal():
    ops = fock_operators(5)
    assert np.allclose(np.diag(ops["number"]).real, np.arange(5))


def test_fock_validation():
    with pytest.raises(ValueError):
        fock_operators(1)
    with pytest.raises(ValueError):
        fock_operators(4, m=-1.0)


#: One call per factory parameter, with the value under test in its place.
NON_FINITE_CASES = {
    "harmonic_kernels.m": (lambda x: harmonic_kernels(x, 1.0), "m"),
    "harmonic_kernels.omega": (lambda x: harmonic_kernels(1.0, x), "omega"),
    "qmupl_kernels.m": (lambda x: qmupl_kernels(x, 1.0, 0.3, 0.1), "m"),
    "qmupl_kernels.omega": (lambda x: qmupl_kernels(1.0, x, 0.3, 0.1), "omega"),
    "qmupl_kernels.lam": (lambda x: qmupl_kernels(1.0, 1.0, x, 0.1), "lam"),
    "qmupl_kernels.mu": (lambda x: qmupl_kernels(1.0, 1.0, 0.3, x), "mu"),
    "fock_operators.dim": (lambda x: fock_operators(x), "dim"),
    "fock_operators.m": (lambda x: fock_operators(4, m=x), "m"),
    "fock_operators.omega": (lambda x: fock_operators(4, omega=x), "omega"),
    "quadratic_hamiltonian.m": (lambda x: quadratic_hamiltonian(4, m=x), "m"),
    "make_exponential.gamma": (lambda x: make_exponential(x, 0.5), "gamma"),
    "make_exponential.tau_c": (lambda x: make_exponential(1.0, x), "tau_c"),
    "make_white_noise_approximant.strength": (lambda x: make_white_noise_approximant(x, 0.1), "strength"),
    "make_white_noise_approximant.eps": (lambda x: make_white_noise_approximant(1.0, x), "eps"),
    "make_discrete_modes.mode_freqs": (lambda x: make_discrete_modes([1.0, x], [[0.2, 0.1]]), "mode_freqs"),
    "make_discrete_modes.couplings": (lambda x: make_discrete_modes([1.0, 1.5], [[0.2, x]]), "couplings"),
    "make_qmupl_matrix.collapse_strength": (
        lambda x: make_qmupl_matrix(x, make_exponential(1.0, 0.5)), "collapse_strength",
    ),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_factories_reject_non_finite_parameters_by_name(case, value):
    # a range check such as m <= 0 lets NaN through, and
    # make_exponential(1.0, inf) would be the all-zero kernel
    build, name = NON_FINITE_CASES[case]
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build(value)
