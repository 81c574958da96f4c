import numpy as np
import pytest

from nmgme.bath import (
    make_discrete_modes,
    make_exponential,
    make_qmupl_matrix,
    make_white_noise_approximant,
)
from nmgme.grids import make_grid

from helpers import scaled_kernel


def _grid_pairs(t_max=2.0, n=17):
    pts = make_grid(t_max, n).points
    return np.meshgrid(pts, pts, indexing="ij")


def check_symmetry(kernel, t_max=2.0, n=17, tol=1e-12):
    T, S = _grid_pairs(t_max, n)
    for j in range(kernel.n_channels):
        for k in range(kernel.n_channels):
            d_jk = kernel(j, k, T, S)
            d_kj = kernel(k, j, S, T)
            assert np.max(np.abs(np.real(d_jk) - np.real(d_kj))) < tol
            assert np.max(np.abs(np.imag(d_jk) + np.imag(d_kj))) < tol


def test_exponential_values():
    D = make_exponential(2.0, 1.0)
    assert D(0, 0, 1.3, 1.3) == pytest.approx(1.0)
    assert D(0, 0, 3.0, 1.0) == pytest.approx(D(0, 0, 1.0, 3.0))
    D2 = make_exponential(2.0, 0.5)
    assert D2(0, 0, 1.0, 0.0) == pytest.approx(2.0 * np.exp(-2.0), rel=1e-12)
    assert D2.is_real


def test_exponential_rejects_bad_params():
    with pytest.raises(ValueError):
        make_exponential(1.0, 0.0)
    with pytest.raises(ValueError):
        make_exponential(-1.0, 1.0)


def test_exponential_symmetry_invariants():
    check_symmetry(make_exponential(1.3, 0.7))


def test_discrete_modes_single():
    D = make_discrete_modes([1.0], [[1.0]])
    assert D(0, 0, 0.0, 0.0) == pytest.approx(1.0)
    tau = 0.73
    assert D(0, 0, tau, 0.0) == pytest.approx(np.exp(-1j * tau))


def test_discrete_modes_zero_coupling():
    D = make_discrete_modes([1.0, 2.0], [[0.0, 0.0]])
    T, S = _grid_pairs()
    assert np.max(np.abs(D(0, 0, T, S))) == 0.0


def test_discrete_modes_phase_cancellation():
    # two unit couplings at frequencies 1 and 2: D(pi, 0) = -1 + 1 = 0
    D = make_discrete_modes([1.0, 2.0], [[1.0, 1.0]])
    assert abs(D(0, 0, np.pi, 0.0)) < 1e-12


def test_discrete_modes_validation():
    with pytest.raises(ValueError):
        make_discrete_modes([], [[]])
    with pytest.raises(ValueError):
        make_discrete_modes([1.0], [[1.0, 2.0]])


def test_discrete_modes_symmetry_and_psd():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    D = make_discrete_modes([0.7, 1.1, 2.3], g)
    check_symmetry(D)
    # single-channel two-time Gram matrix must be positive semidefinite
    pts = make_grid(3.0, 25).points
    T, S = np.meshgrid(pts, pts, indexing="ij")
    gram = D(0, 0, T, S)
    evals = np.linalg.eigvalsh(gram)
    assert evals.min() >= -1e-10


def test_discrete_modes_stationary():
    D = make_discrete_modes([1.0, 2.0], [[0.3, 0.4]])
    assert D(0, 0, 1.7, 0.4) == pytest.approx(D(0, 0, 2.0, 0.7))


def test_qmupl_matrix_structure():
    base = make_exponential(2.0, 1.0)
    D = make_qmupl_matrix(1.0, base)
    t = 0.9
    assert np.real(D(0, 0, t, t)) == pytest.approx(1.0)
    assert np.imag(D(0, 1, t, t)) == pytest.approx(-1.0)
    assert np.imag(D(1, 0, t, t)) == pytest.approx(1.0)
    assert np.real(D(1, 1, t, t)) == pytest.approx(1.0)
    # vanishing components of the prescription
    T, S = _grid_pairs()
    assert np.max(np.abs(np.real(D(0, 1, T, S)))) == 0.0
    assert np.max(np.abs(np.real(D(1, 0, T, S)))) == 0.0
    assert np.max(np.abs(np.imag(D(0, 0, T, S)))) == 0.0
    assert np.max(np.abs(np.imag(D(1, 1, T, S)))) == 0.0
    check_symmetry(D)


def test_qmupl_matrix_zero_strength():
    D = make_qmupl_matrix(0.0, make_exponential(2.0, 1.0))
    T, S = _grid_pairs()
    for j in range(2):
        for k in range(2):
            assert np.max(np.abs(D(j, k, T, S))) == 0.0


def test_qmupl_matrix_rejects_complex_base():
    with pytest.raises(ValueError):
        make_qmupl_matrix(1.0, make_discrete_modes([1.0], [[1.0]]))


def test_white_noise_normalization():
    # full-line integral of the family is the strength, analytically:
    # amp = strength / (2 eps) and int exp(-|u|/eps) du = 2 eps
    for eps in (0.01, 0.05):
        D = make_white_noise_approximant(1.0, eps)
        amp = np.real(D(0, 0, 5.0, 5.0))
        assert amp * 2.0 * eps == pytest.approx(1.0, abs=1e-8)


def test_white_noise_peak_growth():
    d1 = make_white_noise_approximant(1.0, 0.1)
    d2 = make_white_noise_approximant(1.0, 0.05)
    assert np.real(d2(0, 0, 1.0, 1.0)) == pytest.approx(2.0 * np.real(d1(0, 0, 1.0, 1.0)))


def test_white_noise_half_line_integral():
    # int_0^t D(t, s) ds -> strength/2 once t >> eps (quadrature-limited
    # by the kink at s = t: trapezoid error ~ h^2/(12 eps^2) locally)
    D = make_white_noise_approximant(1.0, 0.05)
    grid = make_grid(2.0, 2001)
    vals = np.real(D(0, 0, 2.0, grid.points))
    w = np.full(grid.n_points, grid.h)
    w[0] = w[-1] = grid.h / 2
    assert np.dot(w, vals) == pytest.approx(0.5, abs=1e-4)


def test_scaled_kernel():
    D = scaled_kernel(make_exponential(2.0, 1.0), 0.5)
    assert D(0, 0, 1.0, 1.0) == pytest.approx(0.5)
    assert D.is_real


def test_channel_range_checked():
    D = make_exponential(1.0, 1.0)
    with pytest.raises(ValueError):
        D(1, 0, 0.0, 0.0)
