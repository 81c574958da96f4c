import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from nmgme import oracle
from nmgme.bath import make_discrete_modes
from nmgme.oracle import (
    JointModel,
    build_joint,
    compare_with_me,
    evolve_joint,
    recurrence_estimate,
)
from nmgme.system import fock_operators, quadratic_hamiltonian

from helpers import densify, full_eigh_evolve_joint, kron_build_joint, stepped_evolve_joint, trace_distance

SZ = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def dephasing_model(g=0.2, omega=1.0, dim=8, h_sys=None):
    return JointModel(
        h_system=h_sys if h_sys is not None else np.zeros((2, 2), dtype=complex),
        channel_ops=(SZ,),
        mode_freqs=(omega,),
        couplings=np.array([[g]]),
        mode_dims=(dim,),
    )


def test_decoupled_hamiltonian_is_direct_sum():
    model = dephasing_model(g=0.0, dim=4)
    H = densify(build_joint(model))
    b = np.diag(np.sqrt(np.arange(1, 4, dtype=float)), k=1).astype(complex)
    expected = np.kron(np.zeros((2, 2)), np.eye(4)) + np.kron(
        np.eye(2), 1.0 * b.conj().T @ b
    )
    assert np.max(np.abs(H - expected)) < 1e-14


def test_joint_dimension():
    model = dephasing_model(dim=5)
    assert model.joint_dim == 10
    assert build_joint(model).shape == (10, 10)


def test_dimension_cap_enforced():
    with pytest.raises(ValueError, match="8192"):
        JointModel(
            h_system=np.zeros((2, 2), dtype=complex),
            channel_ops=(SZ,),
            mode_freqs=(1.0, 2.0, 3.0, 4.0),
            couplings=np.array([[0.1, 0.1, 0.1, 0.1]]),
            mode_dims=(8, 8, 8, 8),
        )


def test_dephasing_block_structure():
    # sigma_z coupling block-diagonalizes into two shifted oscillators
    g, omega, dim = 0.3, 1.2, 6
    model = dephasing_model(g=g, omega=omega, dim=dim)
    H = densify(build_joint(model))
    # qubit-major ordering: blocks are H(+/-) = omega n ± (g b + g* b^dag)
    upper = H[:dim, :dim]
    lower = H[dim:, dim:]
    off = H[:dim, dim:]
    b = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    n_op = b.conj().T @ b
    phi = g * b + np.conj(g) * b.conj().T
    assert np.max(np.abs(off)) == 0.0
    assert np.max(np.abs(upper - (omega * n_op + phi))) < 1e-14
    assert np.max(np.abs(lower - (omega * n_op - phi))) < 1e-14


def test_correlation_kernel_consistency():
    rng = np.random.default_rng(2)
    g = rng.normal(size=(1, 3)) + 1j * rng.normal(size=(1, 3))
    freqs = (0.9, 1.4, 2.2)
    model = JointModel(
        h_system=np.zeros((2, 2), dtype=complex),
        channel_ops=(SZ,),
        mode_freqs=freqs,
        couplings=g,
        mode_dims=(2, 2, 2),
    )
    D = make_discrete_modes(model.mode_freqs, model.couplings)
    pts = np.linspace(0.0, 3.0, 9)
    T, S = np.meshgrid(pts, pts, indexing="ij")
    expected = sum(
        g[0, m] * np.conj(g[0, m]) * np.exp(-1j * freqs[m] * (T - S))
        for m in range(3)
    )
    assert np.max(np.abs(D(0, 0, T, S) - expected)) < 1e-12


def test_evolve_decoupled_matches_free_evolution():
    dim = 6
    h_sys = quadratic_hamiltonian(dim)
    model = JointModel(
        h_system=h_sys,
        channel_ops=(fock_operators(dim)["q"],),
        mode_freqs=(1.0,),
        couplings=np.array([[0.0]]),
        mode_dims=(3,),
    )
    psi0 = np.zeros(dim, dtype=complex)
    psi0[0], psi0[1] = 1 / np.sqrt(2), 1 / np.sqrt(2)
    traj = evolve_joint(model, psi0, 1.0, n_samples=5)
    t = traj.times[-1]
    U = expm(-1j * h_sys * t)
    expected = U @ np.outer(psi0, psi0.conj()) @ U.conj().T
    assert trace_distance(traj.states[-1], expected) < 1e-10


def test_evolve_t0_returns_initial_state():
    model = dephasing_model()
    traj = evolve_joint(model, PLUS, 1.0, n_samples=5)
    assert trace_distance(traj.states[0], np.outer(PLUS, PLUS.conj())) < 1e-14


def test_single_mode_dephasing_decay_and_revival():
    # closed form: |rho01(t)| = 1/2 exp(-4 g^2 / w^2 (1 - cos w t)),
    # full revival at t = 2 pi / w
    g, omega = 0.2, 1.0
    model = dephasing_model(g=g, omega=omega, dim=8)
    t_rev = 2.0 * np.pi / omega
    traj = evolve_joint(model, PLUS, t_rev, n_samples=9)
    coh = np.abs(traj.states[:, 0, 1])
    expected = 0.5 * np.exp(-4.0 * g**2 / omega**2 * (1.0 - np.cos(omega * traj.times)))
    assert np.max(np.abs(coh - expected)) < 1e-6
    assert coh[4] < 0.5 - 1e-3  # decayed mid-way
    assert coh[-1] == pytest.approx(0.5, abs=1e-6)  # revived


def test_norm_conservation_and_state_validity():
    model = dephasing_model(g=0.3)
    traj = evolve_joint(model, PLUS, 3.0, n_samples=11)
    norms = np.array(traj.diagnostics["norm"])
    assert np.max(np.abs(norms - 1.0)) < 1e-9
    assert np.min(traj.diagnostics["min_eigenvalue"]) >= -1e-10
    assert np.max(np.abs(np.array(traj.diagnostics["trace"]) - 1.0)) < 1e-10


def test_requires_normalized_state():
    model = dephasing_model()
    with pytest.raises(ValueError, match="normalized"):
        evolve_joint(model, np.array([1.0, 1.0]), 1.0)


def test_compare_identical_trajectories():
    model = dephasing_model()
    traj = evolve_joint(model, PLUS, 1.0, n_samples=5)
    report = compare_with_me(traj, traj, mode_freqs=model.mode_freqs)
    assert report["max_trace_distance"] == 0.0
    assert report["recurrence_time_estimate"] == pytest.approx(2 * np.pi)


def test_compare_rejects_mismatched_sampling():
    model = dephasing_model()
    t1 = evolve_joint(model, PLUS, 1.0, n_samples=5)
    t2 = evolve_joint(model, PLUS, 1.0, n_samples=7)
    with pytest.raises(ValueError, match="times"):
        compare_with_me(t1, t2)


def test_recurrence_estimate_uses_min_gap():
    assert recurrence_estimate([1.0]) == pytest.approx(2 * np.pi)
    assert recurrence_estimate([1.0, 1.6]) == pytest.approx(2 * np.pi / 0.6)


def test_decoupled_oracle_matches_zero_coefficient_me():
    # g = 0 brute force against the master equation with all rates zero
    from nmgme.coefficients import MECoefficients
    from nmgme.grids import make_grid
    from nmgme.propagate import evolve
    from nmgme.scenarios import coherent_state

    dim = 10
    h_sys = quadratic_hamiltonian(dim)
    ops_f = fock_operators(dim)
    model = JointModel(
        h_system=h_sys,
        channel_ops=(ops_f["q"],),
        mode_freqs=(1.0,),
        couplings=np.array([[0.0]]),
        mode_dims=(3,),
    )
    psi0 = coherent_state(dim, 0.8)
    traj_or = evolve_joint(model, psi0, 2.0, n_samples=9)

    grid = make_grid(2.0, 9)
    shape = (9, 1, 1)
    zeros = np.zeros(shape, dtype=complex)
    coeffs = MECoefficients(
        grid=grid, scenario="linear", Gamma=zeros, Theta=zeros.copy(),
        Xi=zeros.copy(), Upsilon=zeros.copy(),
    )
    ops = {"A": [ops_f["q"]], "V": [ops_f["p"]], "H0": h_sys}
    traj_me = evolve(
        np.outer(psi0, psi0.conj()), coeffs, ops, 2.0, 1e-3, n_samples=9,
        truncation_guard=False,
    )
    report = compare_with_me(traj_or, traj_me)
    assert report["max_trace_distance"] < 1e-9


def mode_convergence_check(
    model: JointModel,
    psi0_system: np.ndarray,
    t_final: float,
    observable: np.ndarray,
    mode_index: int = 0,
    n_samples: int = 21,
) -> float:
    """Doubling one mode's Fock dimension: max shift of an observable.

    Returns the largest absolute change over the sample times; weak
    coupling runs should stay below 1e-7.
    """
    traj = evolve_joint(model, psi0_system, t_final, n_samples)
    dims = list(model.mode_dims)
    dims[mode_index] *= 2
    bigger = JointModel(
        h_system=model.h_system,
        channel_ops=model.channel_ops,
        mode_freqs=model.mode_freqs,
        couplings=model.couplings,
        mode_dims=tuple(dims),
    )
    traj2 = evolve_joint(bigger, psi0_system, t_final, n_samples)
    vals1 = [np.real(np.trace(observable @ r)) for r in traj.states]
    vals2 = [np.real(np.trace(observable @ r)) for r in traj2.states]
    return float(np.max(np.abs(np.array(vals1) - np.array(vals2))))


def test_mode_convergence_check_weak_coupling():
    model = dephasing_model(g=0.2, dim=6)
    obs = np.kron(SZ, np.eye(1))  # system observable
    shift = mode_convergence_check(
        model, PLUS, 2.0, np.diag([1.0, -1.0]).astype(complex)
    )
    assert shift < 1e-7


SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
EIGEN_CASES = {
    # name: (model, whether H is real, so the real recursion runs)
    "real": (
        JointModel(
            h_system=0.5 * SX + 0.3 * SZ,
            channel_ops=(SX,),
            mode_freqs=(1.1,),
            couplings=np.array([[0.25]]),
            mode_dims=(6,),
        ),
        True,
    ),
    "complex": (
        JointModel(
            h_system=0.5 * SX + 0.3 * SZ,
            channel_ops=(SX,),
            mode_freqs=(1.1,),
            couplings=np.array([[0.2 + 0.15j]]),
            mode_dims=(6,),
        ),
        False,
    ),
    # levels +-1 + 2n: (up, n) and (down, n + 1) share an energy
    "degenerate": (dephasing_model(g=0.0, omega=2.0, dim=5, h_sys=SZ), True),
    "two-mode": (
        JointModel(
            h_system=np.zeros((2, 2), dtype=complex),
            channel_ops=(SZ,),
            mode_freqs=(1.0, 1.6),
            couplings=np.array([[0.2, 0.2]]),
            mode_dims=(5, 5),
        ),
        True,
    ),
}


@pytest.mark.parametrize("case", list(EIGEN_CASES))
def test_eigen_oracle_matches_stepped_reference(case, monkeypatch):
    model, real = EIGEN_CASES[case]
    solved, exact = [], oracle._chebyshev_propagate

    def spy(H, psi0, times):
        solved.append(H.vals.dtype)
        return exact(H, psi0, times)

    monkeypatch.setattr(oracle, "_chebyshev_propagate", spy)
    traj = evolve_joint(model, PLUS, 3.0, n_samples=13)
    ref = stepped_evolve_joint(model, PLUS, 3.0, 1e-2, n_samples=13)
    assert solved == [np.float64 if real else np.complex128]
    assert np.array_equal(traj.times, ref.times)
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-12
    assert np.max(np.abs(np.subtract(traj.diagnostics["norm"], ref.diagnostics["norm"]))) <= 1e-12


def test_norm_guard_raises_at_a_sample(monkeypatch):
    # states off unitarity by 1e-7 push every sampled norm past 1e-8
    exact = oracle._chebyshev_propagate

    def skewed(H, psi0, times):
        return exact(H, psi0, times) * (1.0 + 1e-7)

    monkeypatch.setattr(oracle, "_chebyshev_propagate", skewed)
    with pytest.raises(RuntimeError, match="norm drifted"):
        evolve_joint(dephasing_model(), PLUS, 1.0, n_samples=5)


def test_norm_guard_raises_on_nan(monkeypatch):
    # a NaN norm fails every comparison, so the guard must not pass it
    exact = oracle._chebyshev_propagate

    def broken(H, psi0, times):
        return exact(H, psi0, times) * np.nan

    monkeypatch.setattr(oracle, "_chebyshev_propagate", broken)
    with pytest.raises(RuntimeError, match="norm drifted to nan"):
        evolve_joint(dephasing_model(), PLUS, 1.0, n_samples=5)


def _parity_model():
    # the oracle-hpz model at a smaller size: q and b + b^dag each change
    # the total excitation number by one and the oscillator H_S keeps its
    # parity, so H has two components of equal size
    return JointModel(
        h_system=quadratic_hamiltonian(6),
        channel_ops=(fock_operators(6)["q"],),
        mode_freqs=(1.3, 1.7, 2.1),
        couplings=np.array([[0.15, 0.1, 0.1]]),
        mode_dims=(3, 3, 3),
    )


SECTOR_CASES = {
    # name: (model, system state, size of the block handed to the propagator)
    # n = 1 lies in the odd sector, which does not hold joint index 0
    "parity-one-of-two": (_parity_model(), np.eye(6, dtype=complex)[1], 81),
    # sigma_z coupling: one component per qubit state, PLUS reaches both
    "dephasing-both": (dephasing_model(g=0.3), PLUS, 16),
    "single-component": (EIGEN_CASES["real"][0], PLUS, 12),
}


@pytest.mark.parametrize("case", list(SECTOR_CASES))
def test_sector_oracle_matches_full_eigh_reference(case, monkeypatch):
    model, psi0, block = SECTOR_CASES[case]
    shapes, exact = [], oracle._chebyshev_propagate

    def spy(H, psi0, times):
        shapes.append((H.shape, psi0.shape))
        return exact(H, psi0, times)

    monkeypatch.setattr(oracle, "_chebyshev_propagate", spy)
    traj = evolve_joint(model, psi0, 3.0, n_samples=13)
    ref = full_eigh_evolve_joint(model, psi0, 3.0, n_samples=13)
    assert shapes == [((block, block), (block,))]
    assert np.array_equal(traj.times, ref.times)
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-12
    assert np.max(np.abs(np.subtract(traj.diagnostics["norm"], ref.diagnostics["norm"]))) <= 1e-12


def test_bessel_helper_matches_scipy():
    from scipy.special import jv

    x = np.array([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.75, 31.0, 150.0])
    k = np.arange(201)
    J = oracle._bessel_j(200, x)
    assert J.shape == (201, 8)
    assert np.max(np.abs(J - jv(k[:, None], x[None, :]))) <= 1e-14
    # the overflow test runs every few steps, whatever the smallest x
    for x in ([1e-12], [0.0, 1e-12], [0.0], [150.0], [1e-12, 150.0]):
        J = oracle._bessel_j(200, np.array(x))
        assert np.isfinite(J).all()
        assert np.max(np.abs(J - jv(k[:, None], np.array(x)[None, :]))) <= 1e-14


@pytest.mark.parametrize("x", [1e-3, 0.75, 5.0, 31.0, 150.0])
def test_chebyshev_order_is_the_smallest_with_a_small_tail(x):
    from scipy.special import jv

    K = oracle._chebyshev_order(x)
    tail = 2 * np.sum(np.abs(jv(np.arange(K + 1, K + 400), x)))
    assert tail <= oracle.CHEBYSHEV_TAIL
    # one order fewer fails the bound that chose K
    if K and 2 * K + 2 > x:
        log_shorter = K * math.log(x / 2) - math.lgamma(K + 1) - math.log1p(-x / (2 * K + 2))
        assert 2 * math.exp(log_shorter) > oracle.CHEBYSHEV_TAIL


def test_one_state_sector_is_the_exact_phase(monkeypatch):
    # decoupled qubit with H_S = sigma_z: |up, vacuum> is an eigenstate
    # alone in its component, a one-point spectrum
    blocks, exact = [], oracle._chebyshev_propagate

    def spy(H, psi0, times):
        blocks.append((densify(H), exact(H, psi0, times)))
        return blocks[-1][1]

    monkeypatch.setattr(oracle, "_chebyshev_propagate", spy)
    up = np.array([1.0, 0.0], dtype=complex)
    traj = evolve_joint(dephasing_model(g=0.0, h_sys=SZ), up, 3.0, n_samples=7)
    (H, psis), = blocks
    assert H.shape == (1, 1)
    assert np.max(np.abs(psis[:, 0] - np.exp(-1j * traj.times))) <= 1e-15
    assert np.max(np.abs(traj.states - np.outer(up, up))) <= 1e-15


def test_long_time_parity_oracle_matches_full_eigh_reference():
    # t_final 40 takes the expansion to order 422, against 53 at t_final 3
    psi0 = np.eye(6, dtype=complex)[1]
    traj = evolve_joint(_parity_model(), psi0, 40.0, n_samples=21)
    ref = full_eigh_evolve_joint(_parity_model(), psi0, 40.0, n_samples=21)
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-12


@pytest.mark.parametrize(
    "demo",
    [
        "01_dephasing_exactness.py",
        "02_memory_kernel_series.py",
        "03_exact_coefficients_from_oracle.py",
        "04_white_noise_limit.py",
        "05_collapse_model.py",
    ],
    ids=["01", "02", "03", "04", "05"],
)
def test_oracle_demos_run(demo, tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(root / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def _two_channel_model(g):
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return JointModel(
        h_system=np.diag([0.5, -0.5]).astype(complex),
        channel_ops=(SZ, sx),
        mode_freqs=(1.1, 1.7),
        couplings=g,
        mode_dims=(3, 4),
    )


@pytest.mark.parametrize(
    "model",
    [
        dephasing_model(g=0.3, dim=6),
        dephasing_model(g=0.3 + 0.2j, dim=6),
        _two_channel_model(np.array([[0.2, 0.0], [0.1, 0.15]])),
        _two_channel_model(np.array([[0.2, 0.1j], [0.1 - 0.05j, 0.15]])),
        # complex inputs whose products are all real
        JointModel(
            h_system=np.diag([0.5, -0.5]).astype(complex),
            channel_ops=(np.array([[0.0, -1j], [1j, 0.0]]),),
            mode_freqs=(1.1,),
            couplings=np.array([[0.2j]]),
            mode_dims=(4,),
        ),
    ],
    ids=["real", "complex", "two-channel-real", "two-channel-complex", "sigma-y-imaginary"],
)
def test_joint_assembly_matches_kron_reference(model):
    entries = build_joint(model)
    H = densify(entries)
    ref = kron_build_joint(model)
    assert np.max(np.abs(H - ref)) <= 1e-15
    # real couplings of real operators give a real array
    assert np.isrealobj(H) == (not ref.imag.any())
    # coalesced: each position once, sorted by (row, column), no zeros
    keys = entries.rows * entries.shape[0] + entries.cols
    assert np.all(np.diff(keys) > 0)
    assert np.all(entries.vals != 0)
    assert entries.vals.size == np.count_nonzero(ref)


SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


@pytest.mark.parametrize(
    "model",
    [
        # H is the one entry H_S[0, 1], whose transposed partner is absent
        dephasing_model(dim=1, h_sys=np.array([[0.0, 0.3], [0.0, 0.0]], dtype=complex)),
        JointModel(
            h_system=np.zeros((2, 2), dtype=complex),
            channel_ops=(SIGMA_PLUS,),
            mode_freqs=(1.0,),
            couplings=np.array([[0.2]]),
            mode_dims=(4,),
        ),
    ],
    ids=["h-system", "sigma-plus-channel"],
)
def test_non_hermitian_joint_hamiltonian_rejected(model):
    with pytest.raises(ValueError, match="not Hermitian"):
        build_joint(model)


def test_all_zero_hamiltonian_keeps_the_initial_state():
    # one-level mode and H_S = 0: H has no nonzero entry at all
    model = dephasing_model(dim=1)
    assert build_joint(model).vals.size == 0
    traj = evolve_joint(model, PLUS, 2.0, n_samples=5)
    assert np.max(np.abs(traj.states - np.outer(PLUS, PLUS.conj()))) <= 1e-15


def _oracle_hpz_peak(n_samples):
    """``tracemalloc`` peak of ``evolve_joint`` on the oracle-hpz model
    (joint dimension 1250) from the vacuum, which reaches 625 entries."""
    model = JointModel(
        h_system=quadratic_hamiltonian(10),
        channel_ops=(fock_operators(10)["q"],),
        mode_freqs=(1.3, 1.7, 2.1),
        couplings=np.array([[0.15, 0.1, 0.1]]),
        mode_dims=(5, 5, 5),
    )
    psi0 = np.eye(10, dtype=complex)[0]
    tracemalloc.start()
    try:
        evolve_joint(model, psi0, 2.0, n_samples=n_samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_memory_stays_sparse():
    # a dense H alone is 12.5 MB, the sparse entries and the sector
    # expansion under 3 MB
    assert _oracle_hpz_peak(41) <= 4e6


def test_oracle_samples_hold_no_joint_state_stack():
    # at 1001 samples the reached amplitudes are 1001 x 625 complex
    # (10 MB); a (1001, 1250) complex stack of joint states would be
    # another 20 MB, and complex temporaries of the whole Chebyshev sum
    # 10 MB each
    assert _oracle_hpz_peak(1001) <= 20e6


@pytest.mark.parametrize("g", [0.15, 0.15 * np.exp(0.3j)], ids=["real", "complex"])
def test_oracle_stores_the_real_form_of_the_hermitian_part(monkeypatch, g):
    # each sample is kept once, as the float64 real form of the Hermitian
    # part of the reduced product; its diagnostics are those of that form,
    # whose Hermiticity defect is 0 and whose purity is the product's to
    # rounding
    products, reduce = [], oracle._reduce

    def spy(psi, d_s):
        products.append(reduce(psi, d_s))
        return products[-1]

    monkeypatch.setattr(oracle, "_reduce", spy)
    model = dataclasses.replace(_parity_model(), couplings=np.array([[g, 0.1, 0.1]]))
    traj = evolve_joint(model, np.eye(6, dtype=complex)[1], 2.0, n_samples=9)
    assert traj.real_states.dtype == np.float64 and traj.real_states.shape == (9, 6, 6)
    assert len(products) == 9
    for i, (M, rho) in enumerate(zip(traj.real_states, products)):
        herm = 0.5 * (rho + rho.conj().T)
        assert np.array_equal(M, herm.real + herm.imag)
        assert traj.diagnostics["hermiticity_defect"][i] == 0.0
        assert abs(traj.diagnostics["purity"][i] - np.sum(rho * rho.T).real) <= 1e-15
    assert np.array_equal(traj.states, traj.states.conj().transpose(0, 2, 1))


def test_trace_distance_from_eigenvalues_without_svd(monkeypatch):
    # the difference of two Hermitian states: half its summed absolute
    # eigenvalues, which the SVD of the difference matches
    model = _parity_model()
    a = evolve_joint(model, np.eye(6, dtype=complex)[1], 2.0, n_samples=9)
    b = evolve_joint(model, np.full(6, 1 / np.sqrt(6), dtype=complex), 2.0, n_samples=9)
    svd = [trace_distance(x, y) for x, y in zip(a.states, b.states)]

    def no_svd(*args, **kwargs):
        raise AssertionError("compare_with_me took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    report = compare_with_me(a, b)
    assert np.max(np.abs(np.subtract(report["trace_distance"], svd))) <= 1e-15
    assert report["max_trace_distance"] == max(report["trace_distance"]) > 0.1


@pytest.mark.parametrize("state", [[np.nan, 0.0], [np.inf, 0.0], [1.0, np.nan]], ids=["nan", "inf", "nan-second"])
def test_non_finite_system_state_rejected_before_build(monkeypatch, state):
    def no_build(model):
        raise AssertionError("build_joint ran on a non-finite state")

    monkeypatch.setattr(oracle, "build_joint", no_build)
    with pytest.raises(ValueError, match="normalized"):
        evolve_joint(dephasing_model(), np.array(state, dtype=complex), 1.0)


def _finite_fields():
    return {
        "h_system": np.zeros((2, 2), dtype=complex),
        "channel_ops": (SZ,),
        "mode_freqs": (1.0, 1.6),
        "couplings": np.array([[0.2, 0.1]]),
        "mode_dims": (3, 3),
    }


@pytest.mark.parametrize(
    "field, value",
    [
        ("h_system", np.array([[0.0, np.nan], [np.nan, 0.0]])),
        ("channel_ops[0]", np.diag([1.0, np.inf])),
        ("mode_freqs", (1.0, np.nan)),
        ("couplings", np.array([[0.2, np.inf]])),
        ("couplings", np.array([[0.2, complex(0.1, np.nan)]])),
    ],
    ids=["h_system", "channel_ops", "mode_freqs", "couplings-inf", "couplings-nan-imag"],
)
def test_non_finite_joint_model_rejected_by_name(field, value):
    fields = _finite_fields()
    if field == "channel_ops[0]":
        fields["channel_ops"] = (value,)
    else:
        fields[field] = value
    with pytest.raises(ValueError, match=re.escape(f"{field} must be finite")):
        JointModel(**fields)


def test_overflowing_joint_hamiltonian_rejected():
    # finite couplings whose entries g sqrt(n) overflow: the Hermiticity
    # defect inf - inf is NaN, which a "defect > bound" test lets through
    model = dephasing_model(g=1e308, dim=5)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="not Hermitian: defect nan"):
        build_joint(model)
