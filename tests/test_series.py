import dataclasses

import numpy as np
import pytest

from nmgme import coefficients, series
from nmgme.bath import (
    CorrelationKernel,
    make_discrete_modes,
    make_exponential,
    make_qmupl_matrix,
)
from nmgme.coefficients import build_ab_tables
from nmgme.grids import make_grid, prefix_weights, quad_weights
from nmgme.series import (
    SampledKernels,
    SeriesConfig,
    SeriesContext,
    alpha_beta,
    assemble_AB,
    contraction_BA,
    contraction_BB,
    dump_convergence_csv,
    recurse_a,
    recurse_b,
)
from nmgme.system import (
    CommutatorKernel,
    commutator_kernel,
    harmonic_kernels,
    qmupl_kernels,
)

from helpers import csv_writer_convergence, scaled_kernel, square_samples, suffix_weights, theta_mask, zero_commutator


def qmupl_setup(lam=0.3, mu=0.1, gamma=1.0, tau_c=0.5, m=1.0, omega=1.0):
    D = make_qmupl_matrix(lam, make_exponential(gamma, tau_c))
    kern = qmupl_kernels(m, omega, lam, mu)
    f = commutator_kernel(kern, [(1.0, 0.0), (0.0, -mu)])
    return D, f


def one_mode_setup(w_mode=1.3, g=0.2, m=1.0, omega=1.0):
    D = make_discrete_modes([w_mode], [[g]])
    f = commutator_kernel(harmonic_kernels(m, omega), ["q"])
    return D, f


def hpz_setup():
    D = make_discrete_modes([1.3, 1.7, 2.1], [[0.15, 0.1, 0.1]])
    f = commutator_kernel(harmonic_kernels(1.0, 1.0), ["q"])
    return D, f


def a_values(table, t2_index):
    """``a^n[j, j2](s1, s2)`` of an 'a' table at final pair time ``t_2``:
    the stored pair ``(P, Q)`` contracted against ``D`` at ``t_2``."""
    ctx = table.ctx
    D = ctx.samples.D
    pts = ctx.grid.points[: ctx.n]
    d = ctx.d
    Dt2 = np.array([[D(m, l, pts[t2_index], pts) for l in range(d)] for m in range(d)])
    return np.einsum("jlab,mlb->jmab", table.values, Dt2.real) + np.einsum(
        "jlab,mlb->jmab", table.values_aux, Dt2.imag
    )


def test_contraction_BA_vanishes_for_real_kernel():
    D = make_exponential(1.0, 0.5)
    f = commutator_kernel(harmonic_kernels(1.0, 1.0), ["q"])
    grid = make_grid(1.0, 17)
    b1 = contraction_BA(D, f, 1.0, grid)
    assert np.max(np.abs(b1.values)) == 0.0


def test_contraction_BA_vanishes_for_zero_commutator():
    D = make_discrete_modes([1.0], [[0.5]])
    grid = make_grid(1.0, 17)
    b1 = contraction_BA(D, zero_commutator(1), 1.0, grid)
    assert np.max(np.abs(b1.values)) == 0.0


def test_contraction_BA_matches_pointwise_oracle_and_is_real():
    # direct pointwise multiplication, independent of the einsum path
    D, f = qmupl_setup(lam=1.0)
    grid = make_grid(1.0, 9)
    t = 1.0
    b1 = contraction_BA(D, f, t, grid)
    pts = grid.points
    n = len(pts)
    d = 2
    expected = np.zeros((d, d, n, n), dtype=complex)
    for j in range(d):
        for j2 in range(d):
            for a in range(n):
                for b in range(n):
                    theta = 1.0 if b > a else (0.5 if b == a else 0.0)
                    acc = 0.0
                    for l in range(d):
                        acc += (
                            np.imag(D(j, l, t, pts[a]))
                            * complex(f(j2, l, pts[b], pts[a]))
                        )
                    expected[j, j2, a, b] = 2j * acc * theta
    assert np.max(np.abs(b1.values - expected)) < 1e-14
    assert np.max(np.abs(b1.values.imag)) == 0.0  # 2i * real * imaginary


def test_contraction_BB_zero_cases():
    grid = make_grid(1.0, 17)
    # real kernel: assembled a1 vanishes at every final time
    D = make_exponential(1.0, 0.5)
    f = commutator_kernel(harmonic_kernels(1.0, 1.0), ["q"])
    a1 = contraction_BB(D, f, 1.0, grid)
    for t2 in (4, 16):
        assert np.max(np.abs(a_values(a1, t2))) == 0.0
    # zero commutator
    Dm = make_discrete_modes([1.0], [[0.5]])
    a1z = contraction_BB(Dm, zero_commutator(1), 1.0, grid)
    assert np.max(np.abs(a1z.values)) == 0.0
    assert np.max(np.abs(a1z.values_aux)) == 0.0


def test_contraction_BB_below_diagonal_zero():
    D, f = one_mode_setup()
    grid = make_grid(1.0, 17)
    a1 = contraction_BB(D, f, 1.0, grid)
    vals = a_values(a1, 16)
    below = np.tril_indices(17, k=-1)
    assert np.max(np.abs(vals[0, 0][below])) == 0.0


def test_channel_mismatch_rejected():
    D = make_qmupl_matrix(0.5, make_exponential(1.0, 0.5))
    f = commutator_kernel(harmonic_kernels(1.0, 1.0), ["q"])
    with pytest.raises(ValueError, match="channels"):
        contraction_BA(D, f, 1.0, make_grid(1.0, 9))


def test_off_grid_time_rejected():
    D, f = one_mode_setup()
    with pytest.raises(ValueError, match="grid point"):
        contraction_BA(D, f, 0.123456, make_grid(1.0, 9))


def test_recurse_b_zero_base():
    D = make_exponential(1.0, 0.5)
    f = commutator_kernel(harmonic_kernels(1.0, 1.0), ["q"])
    grid = make_grid(1.0, 17)
    b1 = contraction_BA(D, f, 1.0, grid)
    b2 = recurse_b(2, b1, b1)
    b3 = recurse_b(3, b1, b2)
    assert np.max(np.abs(b2.values)) == 0.0
    assert np.max(np.abs(b3.values)) == 0.0


def test_recurse_b_scaling():
    D, f = one_mode_setup()
    grid = make_grid(1.0, 33)
    b1 = contraction_BA(D, f, 1.0, grid)
    b2 = recurse_b(2, b1, b1)
    Ds = scaled_kernel(D, 0.5)
    b1s = contraction_BA(Ds, f, 1.0, grid)
    b2s = recurse_b(2, b1s, b1s)
    ratio = np.max(np.abs(b2s.values)) / np.max(np.abs(b2.values))
    assert abs(ratio - 0.25) < 1e-10


def test_recurse_b_constant_kernel_double_integral():
    # synthetic constant kernels: on the open triangle b1 = c, so
    # b2(0, t) -> c^2 t^2 / 2 up to the theta-edge quadrature error
    d_im = 0.8

    def d_eval(j, k, u):
        return np.full(np.shape(u), 1j * d_im)

    f0 = 0.6j

    def f_eval(j, k, u):
        return np.full(np.shape(u), f0)

    D = CorrelationKernel(1, d_eval)
    f = CommutatorKernel(1, f_eval)
    grid = make_grid(1.0, 65)
    b1 = contraction_BA(D, f, 1.0, grid)
    c = 2j * d_im * f0
    assert b1.values[0, 0, 0, 32] == pytest.approx(c)
    b2 = recurse_b(2, b1, b1)
    expected = c**2 * 0.5
    assert b2.values[0, 0, 0, -1] == pytest.approx(expected, rel=5e-2)


def test_recurse_a_zero_when_all_contractions_vanish():
    D = make_exponential(1.0, 0.5)
    f = commutator_kernel(harmonic_kernels(1.0, 1.0), ["q"])
    grid = make_grid(1.0, 17)
    b1 = contraction_BA(D, f, 1.0, grid)
    a1 = contraction_BB(D, f, 1.0, grid)
    a2 = recurse_a(2, a1, b1)
    assert np.max(np.abs(a_values(a2, 16))) == 0.0


def test_recurse_a_scaling():
    D, f = one_mode_setup()
    grid = make_grid(1.0, 33)
    b1 = contraction_BA(D, f, 1.0, grid)
    a1 = contraction_BB(D, f, 1.0, grid)
    a2 = recurse_a(2, a1, b1)
    Ds = scaled_kernel(D, 0.5)
    b1s = contraction_BA(Ds, f, 1.0, grid)
    a1s = contraction_BB(Ds, f, 1.0, grid)
    a2s = recurse_a(2, a1s, b1s)
    # a^n carries n+1 powers of the correlation kernel
    v = a_values(a2, 32)
    vs = a_values(a2s, 32)
    ratio = np.max(np.abs(vs)) / np.max(np.abs(v))
    assert abs(ratio - 0.125) < 1e-10


def test_recursion_order_checks():
    D, f = one_mode_setup()
    grid = make_grid(1.0, 17)
    b1 = contraction_BA(D, f, 1.0, grid)
    a1 = contraction_BB(D, f, 1.0, grid)
    with pytest.raises(ValueError, match="order"):
        recurse_b(3, b1, b1)
    with pytest.raises(ValueError, match="order"):
        recurse_a(3, a1, b1)
    with pytest.raises(ValueError):
        recurse_b(1, b1, b1)
    with pytest.raises(ValueError, match="order"):
        alpha_beta(2, b1, a1)


def test_recursion_grid_mismatch_rejected():
    D, f = one_mode_setup()
    b_a = contraction_BA(D, f, 1.0, make_grid(1.0, 17))
    b_b = contraction_BA(D, f, 1.0, make_grid(1.0, 33))
    with pytest.raises(ValueError, match="grid"):
        recurse_b(2, b_a, b_b)


def _trap_weights(n, h):
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    return w


def test_alpha_beta_against_independent_nested_quadrature():
    # brute-force evaluation of the order-1 memory corrections from the
    # contraction formulas, bypassing KernelTable entirely
    lam, mu = 0.3, 0.1
    D, f = qmupl_setup(lam=lam, mu=mu)
    grid = make_grid(1.0, 25)
    t = 1.0
    b1 = contraction_BA(D, f, t, grid)
    a1 = contraction_BB(D, f, t, grid)
    corr = alpha_beta(1, b1, a1)

    pts = grid.points
    n = len(pts)
    h = grid.h
    d = 2

    def theta(x, y):
        return 1.0 if x > y else (0.5 if x == y else 0.0)

    def b1_point(j, j2, sa, tb):
        acc = 0.0
        for l in range(d):
            acc += np.imag(D(j, l, t, sa)) * complex(f(j2, l, tb, sa))
        return 2j * acc * theta(tb, sa)

    def a1_point(j, j2, sa, t2, s2):
        acc = 0.0
        for kp in range(d):
            for lp in range(d):
                acc += (
                    np.imag(D(j, lp, t, sa)) * np.real(D(j2, kp, t2, s2))
                    + np.real(D(j, lp, t, sa)) * np.imag(D(j2, kp, t2, s2))
                ) * complex(f(kp, lp, s2, sa))
        return 2j * acc * theta(s2, sa)

    w_full = _trap_weights(n, h)
    for j in range(d):
        for k in range(d):
            for idx_s1 in (0, 7, 12, 24):
                s1 = pts[idx_s1]
                # bath-terminated part over sigma in [0,t], tau in [s1,t]
                alpha_b = 0.0
                beta_b = 0.0
                n_suf = n - idx_s1
                w_suf = _trap_weights(n_suf, h) if n_suf > 1 else np.zeros(1)
                for ia, sa in enumerate(pts):
                    for it in range(idx_s1, n):
                        tb = pts[it]
                        acc_re = 0.0
                        acc_im = 0.0
                        for l in range(d):
                            bv = b1_point(j, l, sa, tb)
                            acc_re += bv * np.real(D(l, k, tb, s1))
                            acc_im += bv * np.imag(D(l, k, tb, s1))
                        alpha_b += w_full[ia] * w_suf[it - idx_s1] * acc_re
                        beta_b += w_full[ia] * w_suf[it - idx_s1] * acc_im
                # operator-terminated part over sigma in [0,t], s2 in [0,s1]
                alpha_a = 0.0
                n_pre = idx_s1 + 1
                w_pre = _trap_weights(n_pre, h) if n_pre > 1 else np.zeros(1)
                for ia, sa in enumerate(pts):
                    for ib in range(n_pre):
                        alpha_a += (
                            w_full[ia]
                            * w_pre[ib]
                            * a1_point(j, k, sa, s1, pts[ib])
                        )
                if idx_s1 == 0:
                    alpha_a = 0.0
                exp_alpha = -(alpha_b + alpha_a)
                exp_beta = -beta_b
                assert corr["alpha"][j, k, idx_s1] == pytest.approx(
                    exp_alpha, abs=1e-13
                )
                assert corr["beta"][j, k, idx_s1] == pytest.approx(
                    exp_beta, abs=1e-13
                )


def test_beta_vanishes_at_outer_time():
    D, f = one_mode_setup()
    grid = make_grid(1.0, 17)
    b1 = contraction_BA(D, f, 1.0, grid)
    a1 = contraction_BB(D, f, 1.0, grid)
    corr = alpha_beta(1, b1, a1)
    assert np.max(np.abs(corr["beta"][:, :, -1])) == 0.0


def test_alpha_beta_vanish_for_real_kernel():
    D = make_exponential(1.0, 0.5)
    f = commutator_kernel(harmonic_kernels(1.0, 1.0), ["q"])
    grid = make_grid(1.0, 17)
    b1 = contraction_BA(D, f, 1.0, grid)
    a1 = contraction_BB(D, f, 1.0, grid)
    corr = alpha_beta(1, b1, a1)
    assert np.max(np.abs(corr["alpha"])) == 0.0
    assert np.max(np.abs(corr["beta"])) == 0.0


def test_assemble_dephasing_closure_bit_for_bit():
    D = make_discrete_modes([1.0, 1.6], [[0.2, 0.25]])
    f = zero_commutator(1)
    grid = make_grid(1.0, 33)
    res = assemble_AB(D, f, SeriesConfig(max_order=3), 1.0, grid)
    t = 1.0
    assert res.achieved_order == 0
    assert np.array_equal(res.A[0, 0], np.real(D(0, 0, t, grid.points)))
    assert np.array_equal(res.B[0, 0], np.imag(D(0, 0, t, grid.points)))


def test_assemble_real_kernel_closure():
    D = make_exponential(1.0, 0.5)
    f = commutator_kernel(harmonic_kernels(1.0, 1.0), ["q"])
    grid = make_grid(1.0, 33)
    res = assemble_AB(D, f, SeriesConfig(max_order=3), 1.0, grid)
    assert res.achieved_order == 0
    assert np.max(np.abs(res.B)) == 0.0
    # without the is_real flag the recursions run and produce exact zeros
    res_f = assemble_AB(dataclasses.replace(D, is_real=False), f, SeriesConfig(max_order=3), 1.0, grid)
    assert res_f.achieved_order >= 1
    assert np.array_equal(res_f.A, res.A)
    assert np.max(np.abs(res_f.B)) == 0.0


def test_assemble_convergence_reporting():
    D, f = one_mode_setup(g=0.1)
    grid = make_grid(1.0, 33)
    res = assemble_AB(D, f, SeriesConfig(max_order=5, eps_series=1e-8), 1.0, grid)
    norms = [na + nb for (_, na, nb) in res.per_order]
    assert res.achieved_order >= 1
    assert all(norms[i + 1] < norms[i] for i in range(len(norms) - 1))
    assert res.converged
    # tight threshold at low order: flagged as not converged, no exception
    res2 = assemble_AB(D, f, SeriesConfig(max_order=1, eps_series=1e-14), 1.0, grid)
    assert not res2.converged
    assert res2.last_order_norm > 1e-14


def test_homogeneity_invariant_orders_1_and_2():
    # corrections of order n carry n+1 powers of the kernel, elementwise
    for setup in (one_mode_setup(), qmupl_setup()):
        D, f = setup
        grid = make_grid(1.0, 33)
        tables = {}
        for label, kern in (("base", D), ("half", scaled_kernel(D, 0.5)), ("quarter", scaled_kernel(D, 0.25))):
            b1 = contraction_BA(kern, f, 1.0, grid)
            a1 = contraction_BB(kern, f, 1.0, grid)
            c1 = alpha_beta(1, b1, a1)
            a2 = recurse_a(2, a1, b1)
            b2 = recurse_b(2, b1, b1)
            c2 = alpha_beta(2, b2, a2)
            tables[label] = (c1, c2)
        for eps, label in ((0.5, "half"), (0.25, "quarter")):
            for n, idx in ((1, 0), (2, 1)):
                for name in ("alpha", "beta"):
                    base = tables["base"][idx][name]
                    scaled = tables[label][idx][name]
                    assert np.allclose(
                        scaled, eps ** (n + 1) * base, rtol=1e-9, atol=0.0
                    )


def test_grid_refinement_order1():
    D = make_discrete_modes([1.3], [[0.3]])
    f = commutator_kernel(harmonic_kernels(1.0, 1.0), ["q"])
    diffs = []
    results = {}
    for n in (17, 33, 65):
        grid = make_grid(1.0, n)
        b1 = contraction_BA(D, f, 1.0, grid)
        a1 = contraction_BB(D, f, 1.0, grid)
        results[n] = alpha_beta(1, b1, a1)["alpha"][0, 0]
    d1 = np.max(np.abs(results[17] - results[33][::2]))
    d2 = np.max(np.abs(results[33] - results[65][::2]))
    assert d2 < d1  # converging
    assert d1 <= 5 * 4 * d2  # consistent with second-order error model


def test_qmupl_golden_assembly():
    # frozen after oracle validation of the series pipeline
    D, f = qmupl_setup(lam=0.3, mu=0.1, gamma=1.0, tau_c=0.5)
    grid = make_grid(1.0, 65)
    res = assemble_AB(D, f, SeriesConfig(max_order=2, eps_series=1e-30), 1.0, grid)
    assert res.achieved_order == 2
    golden = GOLDEN_QMUPL_AB
    for (j, k, idx), (re_a, im_a, re_b, im_b) in golden.items():
        assert res.A[j, k, idx].real == pytest.approx(re_a, abs=1e-12)
        assert res.A[j, k, idx].imag == pytest.approx(im_a, abs=1e-12)
        assert res.B[j, k, idx].real == pytest.approx(re_b, abs=1e-12)
        assert res.B[j, k, idx].imag == pytest.approx(im_b, abs=1e-12)


def test_simpson_series_close_to_trapezoid():
    D, f = one_mode_setup()
    grid = make_grid(1.0, 33)
    res_t = assemble_AB(D, f, SeriesConfig(max_order=2, method="trapezoid"), 1.0, grid)
    res_s = assemble_AB(D, f, SeriesConfig(max_order=2, method="simpson"), 1.0, grid)
    scale = np.max(np.abs(res_t.A))
    assert np.max(np.abs(res_t.A - res_s.A)) < 1e-3 * scale
    assert np.max(np.abs(res_t.B - res_s.B)) < 1e-3 * scale


@pytest.mark.parametrize("model", ["hpz", "qmupl_order4_eps"])
def test_convergence_csv_bytes_match_csv_writer(model, tmp_path):
    # qmupl_order4_eps stops its outer times at orders 2, 3 and 4
    setup, max_order, eps = SERIES_CASES[model]
    tabs = build_ab_tables(*setup(), SeriesConfig(max_order=max_order, eps_series=eps), make_grid(2.0, 17))
    if model == "qmupl_order4_eps":
        assert set(tabs.achieved_order[1:]) == {2, 3, 4}
    dump_convergence_csv(tabs, tmp_path / "new.csv")
    csv_writer_convergence(tabs, tmp_path / "ref.csv")
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert new.count(b"\r\n") == 1 + tabs.achieved_order.sum() and new.endswith(b"\r\n")


def test_convergence_csv_dump(tmp_path):
    D, f = one_mode_setup()
    grid = make_grid(0.5, 17)
    tabs = build_ab_tables(D, f, SeriesConfig(max_order=2, eps_series=1e-30), grid)
    path = tmp_path / "conv.csv"
    dump_convergence_csv(tabs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,n,norm_alpha,norm_beta"
    # one row per outer time and included order: none at t_0, two at the others
    assert len(lines) == 1 + tabs.achieved_order.sum() == 1 + 2 * 16
    # 17 significant digits round-trip exactly
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert rows[:2] == [[grid.points[1], n, na, nb] for n, (na, nb) in enumerate(tabs.norms[1], 1)]


# Recorded from the validated pipeline (see test_qmupl_golden_assembly).
GOLDEN_QMUPL_AB = {
    (0, 0, 0): (0.04127192491272118, 0.0, 1.6343985724815275e-05, 0.0),
    (0, 0, 32): (0.11158078630103455, 0.0, 3.5580315788620386e-05, 0.0),
    (0, 0, 64): (0.3000270042520526, 0.0, 0.0, 0.0),
    (0, 1, 0): (1.6343985724815275e-05, 0.0, -0.04127192491272118, 0.0),
    (0, 1, 32): (-0.0004942977623176125, 0.0, -0.11157777874254944, 0.0),
    (0, 1, 64): (-0.004738529042142932, 0.0, -0.3, 0.0),
    (1, 0, 0): (-0.0016343985724815268, 0.0, 0.04126211852128628, 0.0),
    (1, 0, 32): (-0.004087909656968271, 0.0, 0.11155643055307628, 0.0),
    (1, 0, 64): (-0.004738529042142932, 0.0, 0.3, 0.0),
    (1, 1, 0): (0.04126211852128628, 0.0, 0.0016343985724815268, 0.0),
    (1, 1, 32): (0.11157360155142952, 0.0, 0.003558031578862039, 0.0),
    (1, 1, 64): (0.30014269222002826, 0.0, 0.0, 0.0),
}


# --- Test-only reference: the former per-time engine -----------------------
# Each outer time samples D and f on its own prefix square and contracts
# with einsum(optimize=False) in the original (channel, channel, time, time)
# layout.  The shared-sample BLAS engine must reproduce it to rounding.


class _RefContext:
    def __init__(self, D, f, grid, outer_index, method):
        self.d = d = D.n_channels
        pts = grid.points[: outer_index + 1]
        self.n = n = pts.size
        T1, T2 = np.meshgrid(pts, pts, indexing="ij")
        self.DRe = np.empty((d, d, n, n))
        self.DIm = np.empty((d, d, n, n))
        self.F = np.empty((d, d, n, n), dtype=complex)
        for j in range(d):
            for k in range(d):
                val = D(j, k, T1, T2)
                self.DRe[j, k] = np.real(val)
                self.DIm[j, k] = np.imag(val)
                self.F[j, k] = f(j, k, T1, T2)
        theta = theta_mask(n)
        self.F_above = self.F * theta
        self.F_below = self.F * theta.T
        self.w = quad_weights(n, grid.h, method) if n > 1 else np.zeros(1)
        self.Wpre = prefix_weights(n, grid.h, method)
        self.Wsuf = suffix_weights(n, grid.h, method)
        self.DRe_t = self.DRe[:, :, -1, :]
        self.DIm_t = self.DIm[:, :, -1, :]


def _ref_BA(c):
    g1 = np.ascontiguousarray(np.einsum("mlba->lmab", c.F_above))
    return 2j * np.einsum("jla,lmab->jmab", c.DIm_t, g1), g1


def _ref_BB(c):
    fnode = np.einsum("lmba->lmab", c.F_above)
    P1 = 2j * np.einsum("jma,lmab->jlab", c.DIm_t, fnode)
    Q1 = 2j * np.einsum("jma,lmab->jlab", c.DRe_t, fnode)
    return P1, Q1


def _ref_recurse_b(c, b_prev):
    H = np.einsum("ts,kmts,mjsu->kjtu", c.Wpre, c.DIm, b_prev[1], optimize=False)
    g_n = 2j * np.einsum("t,klts,kjtu->ljsu", c.w, c.F_above, H, optimize=False)
    return 2j * np.einsum("jla,lmab->jmab", c.DIm_t, g_n), g_n


def _ref_recurse_a(c, a_prev, b_prev):
    V_im = np.einsum("ts,klts,mlus->kmtu", c.Wpre, c.DIm, c.F_above, optimize=False)
    V_re = np.einsum("ts,klts,mlus->kmtu", c.Wpre, c.DRe, c.F_above, optimize=False)
    P_n = 2j * np.einsum("t,jkat,kmtu->jmau", c.w, b_prev[0], V_im, optimize=False)
    Q_n = 2j * np.einsum("t,jkat,kmtu->jmau", c.w, b_prev[0], V_re, optimize=False)
    wa = np.einsum("ts,jlas,klts->jkat", c.Wpre, a_prev[0], c.DRe, optimize=False)
    wa += np.einsum("ts,jlas,klts->jkat", c.Wpre, a_prev[1], c.DIm, optimize=False)
    Q_n -= 2j * np.einsum("t,jkat,kmtu->jmau", c.w, wa, c.F_below, optimize=False)
    return P_n, Q_n


def _ref_alpha_beta(c, n, b, a):
    M = np.einsum("s,jlst->jlt", c.w, b[0])
    alpha = np.einsum("at,jlt,lkta->jka", c.Wsuf, M, c.DRe, optimize=False)
    beta = np.einsum("at,jlt,lkta->jka", c.Wsuf, M, c.DIm, optimize=False)
    Pbar = np.einsum("s,jlsb->jlb", c.w, a[0])
    Qbar = np.einsum("s,jlsb->jlb", c.w, a[1])
    alpha += np.einsum("ab,jlb,klab->jka", c.Wpre, Pbar, c.DRe, optimize=False)
    alpha += np.einsum("ab,jlb,klab->jka", c.Wpre, Qbar, c.DIm, optimize=False)
    return (-1.0) ** n * alpha, (-1.0) ** n * beta


def _ref_assemble(D, f, config, K, grid):
    """``(A, B, per_order, achieved_order, converged, last_order_norm)`` at
    outer index ``K``."""
    c = _RefContext(D, f, grid, K, config.method)
    A, B = c.DRe_t.copy(), c.DIm_t.copy()
    if f.is_zero or D.is_real or config.max_order == 0 or c.n == 1:
        return A, B, (), 0, True, 0.0
    ref = max(np.max(np.abs(A)), np.max(np.abs(B)), 1e-300)
    b, a = _ref_BA(c), _ref_BB(c)
    per_order, last_rel, converged = [], 0.0, True
    for n in range(1, config.max_order + 1):
        if n >= 2:
            a = _ref_recurse_a(c, a, b)
            b = _ref_recurse_b(c, b)
        alpha, beta = _ref_alpha_beta(c, n, b, a)
        na, nb = float(np.max(np.abs(alpha))), float(np.max(np.abs(beta)))
        per_order.append((n, na, nb))
        A, B = A + alpha, B + beta
        last_rel = (na + nb) / ref
        if last_rel < config.eps_series:
            break
    else:
        converged = last_rel < config.eps_series
    return A, B, tuple(per_order), len(per_order), converged, last_rel


def _assert_matches_reference(D, f, config, grid, indices):
    tabs = build_ab_tables(D, f, config, grid)
    for K in indices:
        A, B, per_order, achieved, converged, last_rel = _ref_assemble(D, f, config, K, grid)
        assert (tabs.achieved_order[K], tabs.converged[K]) == (achieved, converged), K
        assert abs(tabs.last_order_norm[K] - last_rel) <= 1e-13, K
        assert np.max(np.abs(tabs.A[:, :, K, : K + 1] - A)) <= 1e-13, K
        assert np.max(np.abs(tabs.B[:, :, K, : K + 1] - B)) <= 1e-13, K
        assert not tabs.A[:, :, K, K + 1 :].any() and not tabs.B[:, :, K, K + 1 :].any(), K
        assert not tabs.norms[K, achieved:].any(), K
        for (na, nb), (n_ref, na_ref, nb_ref) in zip(tabs.norms[K], per_order):
            assert abs(na - na_ref) <= 1e-13 and abs(nb - nb_ref) <= 1e-13, (K, n_ref)


#: ``(setup, max_order, eps_series)``: d = 1 (discrete modes) and d = 2
#: (collapse model) through all three orders, and d = 2 at order 4 with a
#: threshold at which outer times stop at orders 2, 3 and 4, some of them
#: unconverged
SERIES_CASES = {
    "hpz": (hpz_setup, 3, 1e-30),
    "qmupl": (lambda: qmupl_setup(lam=0.5, mu=0.3), 3, 1e-30),
    "qmupl_order4_eps": (lambda: qmupl_setup(lam=0.5, mu=0.3), 4, 1e-4),
}


@pytest.mark.parametrize("method", ["trapezoid", "simpson"])
@pytest.mark.parametrize("G", [17, 65])
@pytest.mark.parametrize("model", list(SERIES_CASES))
def test_shared_sample_engine_matches_per_time_reference(model, G, method):
    setup, max_order, eps = SERIES_CASES[model]
    D, f = setup()
    grid = make_grid(2.0, G)
    # every outer time on the small grid; first, middle and last ones on the
    # large grid, where the per-time reference is slow
    indices = range(G) if G == 17 else (0, 1, 2, 3, 4, G // 2, G - 2, G - 1)
    config = SeriesConfig(max_order=max_order, eps_series=eps, method=method)
    _assert_matches_reference(D, f, config, grid, indices)
    if model == "qmupl_order4_eps" and G == 17:
        tabs = build_ab_tables(D, f, config, grid)
        assert set(tabs.achieved_order[1:]) == {2, 3, 4}
        assert set(tabs.converged) == {True, False}


def test_shared_sample_engine_matches_reference_when_truncating_or_forced():
    grid = make_grid(2.0, 17)
    # default threshold: the order reached varies with the outer time
    D, f = qmupl_setup(lam=0.5, mu=0.3)
    _assert_matches_reference(D, f, SeriesConfig(max_order=3, method="simpson"), grid, range(17))
    _assert_matches_reference(D, f, SeriesConfig(max_order=1, eps_series=1e-30), grid, range(17))
    # a real kernel without its is_real flag runs the recursions to zeros
    D = dataclasses.replace(make_exponential(1.0, 0.5), is_real=False)
    f = commutator_kernel(harmonic_kernels(1.0, 1.0), ["q"])
    _assert_matches_reference(D, f, SeriesConfig(max_order=3, eps_series=1e-30), grid, range(17))
    # and a complex single-channel kernel stopped at order 2
    D, f = hpz_setup()
    _assert_matches_reference(D, f, SeriesConfig(max_order=2, eps_series=1e-30), grid, range(17))


def test_standalone_assembly_equals_shared_build_bit_for_bit():
    # without shared samples a call samples the same whole grid, so
    # it runs the same products on the same inputs as build_ab_tables (a
    # prefix-square sample differs in the last bits at some K for d = 2)
    grid = make_grid(2.0, 65)
    for D, f in (hpz_setup(), qmupl_setup(lam=0.5, mu=0.3)):
        config = SeriesConfig(max_order=3, eps_series=1e-30)
        tabs = build_ab_tables(D, f, config, grid)
        for K in (1, 32, 44, 50, 64):
            res = assemble_AB(D, f, config, grid.points[K], grid)
            assert np.array_equal(res.A, tabs.A[:, :, K, : K + 1]), K
            assert np.array_equal(res.B, tabs.B[:, :, K, : K + 1]), K
            assert res.achieved_order == tabs.achieved_order[K] == 3, K
            assert res.per_order == tuple((n, na, nb) for n, (na, nb) in enumerate(tabs.norms[K], 1)), K


def test_build_runs_no_per_time_engine(monkeypatch):
    # the series of every outer time comes from one stacked build
    def forbidden(*args, **kwargs):
        raise AssertionError("per-time engine called")

    for name in ("SeriesContext", "contraction_BA", "contraction_BB", "recurse_a", "recurse_b", "alpha_beta"):
        monkeypatch.setattr(series, name, forbidden)
    D, f = qmupl_setup(lam=0.5, mu=0.3)
    tabs = coefficients.build_ab_tables(D, f, SeriesConfig(max_order=3, eps_series=1e-30), make_grid(2.0, 17))
    assert tabs.achieved_order.tolist() == [0] + [3] * 16


def test_closures_derive_no_weighted_operand(monkeypatch):
    # a zeroth-order closure reads only the D samples: it neither gathers
    # the stepped f samples nor weighs; a series build gathers once and
    # weighs D^Re and D^Im twice each (the prefix rule and the longest
    # suffix rule)
    calls, weigh, step = [], series._weigh, series._stepped

    def spy(W, X):
        calls.append(X.shape)
        return weigh(W, X)

    monkeypatch.setattr(series, "_weigh", spy)
    grid = make_grid(2.0, 17)
    D = make_exponential(1.0, 0.5)
    kern = harmonic_kernels(1.0, 1.3)
    closures = {
        "dephasing": lambda: coefficients.coefficients_dephasing(D, grid),
        "nondissipative": lambda: coefficients.coefficients_nondissipative(D, kern, grid),
        "hpz-real": lambda: build_ab_tables(D, commutator_kernel(kern, ["q"]), SeriesConfig(), grid),
    }
    stepped = []
    monkeypatch.setattr(series, "_stepped", lambda *args: stepped.append(1) or step(*args))
    for name, build in closures.items():
        calls.clear()
        build()
        assert calls == [] and stepped == [], name
    build_ab_tables(*qmupl_setup(lam=0.5, mu=0.3), SeriesConfig(max_order=3), grid)
    assert calls == [(34, 34)] * 4 and stepped == [1]


@pytest.mark.parametrize("method", ["trapezoid", "simpson"])
def test_suffix_rule_depends_on_the_outer_time_only_at_its_last_two_points(method):
    # the stacked build weights int_{s1}^{t_K} dtau with the rule of the
    # longest interval, Tsuf[s1, tau] = Wpre[G - 1, tau - s1], and uses the
    # suffix rule of t_K itself only at t_{K-1} and t_K
    G = 33
    samples = SampledKernels(*hpz_setup(), make_grid(2.0, G), method)
    lag = np.arange(G)[None, :] - np.arange(G)[:, None]
    Tsuf = np.where(lag >= 0, samples.Wpre[G - 1][np.abs(lag)], 0.0)
    for n in range(1, G + 1):
        keep = max(n - 2, 0)
        assert np.array_equal(SeriesContext(samples, n - 1).Wsuf[:, :keep], Tsuf[:n, :keep]), n


#: Kernels of every family the package builds, with a channel matrix.
SAMPLING_CASES = {
    "qmupl": lambda: qmupl_setup(lam=0.5, mu=0.3),
    "discrete_modes": hpz_setup,
    "exponential": lambda: (make_exponential(1.0, 0.5), commutator_kernel(harmonic_kernels(1.0, 1.3), ["q"])),
}


@pytest.mark.parametrize("G", [17, 65])
@pytest.mark.parametrize("model", sorted(SAMPLING_CASES))
def test_lag_samples_equal_square_samples_bit_for_bit_on_dyadic_grids(model, G):
    # with a dyadic step every lag t_a - t_b is a grid point or its exact
    # negation, so the 2G - 1 lag samples gathered onto the square are the
    # square samples themselves
    D, f = SAMPLING_CASES[model]()
    grid = make_grid(2.0, G)
    samples, ref = SampledKernels(D, f, grid), square_samples(D, f, grid)
    for name in ("DRe", "DIm", "Gamma1", "Phi"):
        assert np.array_equal(getattr(samples, name), ref[name]), name
        assert getattr(samples, name).flags.c_contiguous, name


@pytest.mark.parametrize("model", sorted(SAMPLING_CASES))
def test_lag_samples_match_square_samples_on_a_non_dyadic_grid(model):
    D, f = SAMPLING_CASES[model]()
    grid = make_grid(1.7, 53)
    samples, ref = SampledKernels(D, f, grid), square_samples(D, f, grid)
    for name in ("DRe", "DIm", "Gamma1", "Phi"):
        assert np.max(np.abs(getattr(samples, name) - ref[name])) <= 1e-15, name
    # the negative lags are exact negations: D^Im and f stay antisymmetric
    # under (j, t) <-> (k, s), as on the square
    assert np.array_equal(samples.DIm, -samples.DIm.T)
    assert np.array_equal(samples.DRe, samples.DRe.T)
    assert np.array_equal(samples.Gamma1, -samples.Phi)


def test_lag_samples_reject_a_real_part_of_f():
    # Hermitian channels make f imaginary: sampling is the one place that
    # checks it, for the build and the per-time engine alike
    D, f = one_mode_setup()
    g = CommutatorKernel(1, lambda j, k, u: f.evaluator(j, k, u) + 0.1 * np.cos(u))
    grid = make_grid(2.0, 33)
    with pytest.raises(ValueError, match="real part"):
        SampledKernels(D, g, grid)


def test_build_samples_each_channel_pair_once_on_the_lags(monkeypatch):
    # one call per channel pair of D and of f and build, each on the
    # 2G - 1 lags of the grid
    calls = []

    def spy(cls, key):
        call = cls.__call__

        def wrapper(self, j, k, t, s):
            calls.append((key, j, k, np.broadcast(np.asarray(t), np.asarray(s)).shape))
            return call(self, j, k, t, s)

        monkeypatch.setattr(cls, "__call__", wrapper)

    spy(CorrelationKernel, "D")
    spy(CommutatorKernel, "f")
    G = 65
    for D, f in (hpz_setup(), qmupl_setup()):
        calls.clear()
        d = D.n_channels
        build_ab_tables(D, f, SeriesConfig(max_order=3, eps_series=1e-30), make_grid(2.0, G))
        pairs = [(j, k) for j in range(d) for k in range(d)]
        assert sorted(calls) == sorted((key, j, k, (2 * G - 1,)) for key in "Df" for j, k in pairs)


def test_build_samples_each_kernel_once_per_grid_point(monkeypatch):
    # D and f take at most d^2 G^2 points each (the lag sampling takes
    # d^2 (2G - 1), see the test above); sampling every outer time's
    # prefix square again would take
    # d^2 sum_n n^2 ~ d^2 G^3 / 3 points, about 22x more at G = 65
    points = {"D": 0, "f": 0}

    def counted(cls, key):
        call = cls.__call__

        def wrapper(self, j, k, t, s):
            points[key] += np.broadcast(np.asarray(t), np.asarray(s)).size
            return call(self, j, k, t, s)

        monkeypatch.setattr(cls, "__call__", wrapper)

    counted(CorrelationKernel, "D")
    counted(CommutatorKernel, "f")
    G = 65
    for D, f in (hpz_setup(), qmupl_setup()):
        points.update(D=0, f=0)
        d = D.n_channels
        build_ab_tables(D, f, SeriesConfig(max_order=3, eps_series=1e-30), make_grid(2.0, G))
        assert 0 < points["D"] <= d * d * G * G
        assert 0 < points["f"] <= d * d * G * G


@pytest.mark.parametrize("method", ["trapezoid", "simpson"])
def test_gathered_suffix_rule_equals_per_row_rule_bit_for_bit(method):
    # Wsuf(n)[i, i + c] = Wpre[n - 1 - i, c]: every outer time's suffix
    # rule is gathered from the full prefix-weight matrix
    G = 65
    grid = make_grid(2.0, G)
    D, f = hpz_setup()
    samples = SampledKernels(D, f, grid, method)
    for n in range(1, G + 1):
        assert np.array_equal(SeriesContext(samples, n - 1).Wsuf, suffix_weights(n, grid.h, method)), n


@pytest.mark.parametrize("bad", ["D", "f"])
def test_non_finite_samples_rejected_once_at_sampling(bad):
    grid = make_grid(1.0, 9)
    D, f = hpz_setup()

    def poisoned(kernel):
        def evaluator(j, k, u):
            return np.where(u == grid.points[3], np.nan, kernel.evaluator(j, k, u))

        return evaluator

    if bad == "D":
        D = CorrelationKernel(1, poisoned(D))
    else:
        f = CommutatorKernel(1, poisoned(f))
    with pytest.raises(ValueError, match=f"non-finite entries in sampled {bad}"):
        SampledKernels(D, f, grid)


def test_non_finite_recursion_payload_rejected():
    # finite samples whose order-2 chains overflow
    D, f = one_mode_setup(g=1e80)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite entries in order-2"):
            assemble_AB(D, f, SeriesConfig(max_order=2, eps_series=1e-30), 1.0, make_grid(1.0, 9))


def _spy_on_slabs(monkeypatch) -> list:
    """``(K0, K1)`` of every slab the build runs, in order."""
    calls, slab = [], series._slab

    def spy(samples, SD, WD, U, K0, K1, *rest):
        calls.append((K0, K1))
        return slab(samples, SD, WD, U, K0, K1, *rest)

    monkeypatch.setattr(series, "_slab", spy)
    return calls


@pytest.mark.parametrize("G, edges", [
    (4, [1, 4]),  # three outer times with a correction, under one slab
    (5, [1, 5]),  # exactly one slab
    (6, [1, 3, 6]),  # one outer time more: two even slabs
    (17, [1, 5, 9, 13, 17]),  # several slabs
])
@pytest.mark.parametrize("model", ["hpz", "qmupl_order4_eps"])
def test_slabs_match_per_time_reference(monkeypatch, model, G, edges):
    # a slab of outer times reads only its leading columns; with slabs of
    # four the boundaries fall inside the eps_series stops of
    # qmupl_order4_eps, whose outer times end at orders 2, 3 and 4
    monkeypatch.setattr(series, "SLAB", 4)
    calls = _spy_on_slabs(monkeypatch)
    setup, max_order, eps = SERIES_CASES[model]
    D, f = setup()
    for method in ("trapezoid", "simpson"):
        calls.clear()
        config = SeriesConfig(max_order=max_order, eps_series=eps, method=method)
        _assert_matches_reference(D, f, config, make_grid(2.0 * (G - 1) / 16, G), range(G))
        assert calls == list(zip(edges, edges[1:]))
    if model == "qmupl_order4_eps" and G == 17:
        tabs = build_ab_tables(D, f, config, make_grid(2.0, G))
        assert set(tabs.achieved_order[1:]) == {2, 3, 4}


@pytest.mark.parametrize("d, G, n_slabs", [
    (1, 65, 1), (1, 66, 2), (1, 129, 3), (1, 130, 3),
    (2, 65, 3), (2, 129, 3), (2, 257, 4), (2, 513, 8),
])
def test_default_slabs_are_even(monkeypatch, d, G, n_slabs):
    # at most SLAB outer times per slab, split evenly, and at least three
    # once G d >= SLAB_SPLIT: G = 65 is one slab at d = 1, three at d = 2
    monkeypatch.setattr(series, "_slab", lambda *args: (0.0, 0, 0.0))  # the edges only
    calls = _spy_on_slabs(monkeypatch)
    D, f = hpz_setup() if d == 1 else qmupl_setup()
    build_ab_tables(D, f, SeriesConfig(max_order=1), make_grid(2.0, G))
    heights = [K1 - K0 for K0, K1 in calls]
    assert len(heights) == n_slabs and sum(heights) == G - 1 and calls[0][0] == 1
    assert max(heights) - min(heights) <= 1 and max(heights) <= series.SLAB


def test_default_three_slab_build_matches_per_time_reference(monkeypatch):
    # G d = 130: the default qmupl build at G = 65 runs as three slabs;
    # the outer times on both sides of each slab edge match the reference
    calls = _spy_on_slabs(monkeypatch)
    D, f = qmupl_setup(lam=0.5, mu=0.3)
    _assert_matches_reference(D, f, SeriesConfig(), make_grid(2.0, 65), (1, 21, 22, 42, 43, 64))
    assert calls == [(1, 22), (22, 43), (43, 65)]


def test_build_needs_an_imaginary_commutator_kernel():
    # Hermitian channels make f imaginary; a real part is rejected when
    # the kernels are sampled, by the build and the per-time engine alike
    D, f = one_mode_setup()

    def with_real_part(j, k, u):
        return f.evaluator(j, k, u) + 0.1

    g = CommutatorKernel(1, with_real_part)
    grid = make_grid(1.0, 9)
    with pytest.raises(ValueError, match="real part"):
        build_ab_tables(D, g, SeriesConfig(max_order=2), grid)
    with pytest.raises(ValueError, match="real part"):
        contraction_BA(D, g, 1.0, grid)


def test_build_returns_float64_views_of_one_stacked_array():
    grid = make_grid(2.0, 17)
    for D, f, order in (
        (*qmupl_setup(lam=0.5, mu=0.3), 3),
        (*hpz_setup(), 2),
        (make_exponential(1.0, 0.5), commutator_kernel(harmonic_kernels(1.0, 1.0), ["q"]), 3),  # closure
    ):
        tabs = build_ab_tables(D, f, SeriesConfig(max_order=order), grid)
        assert tabs.grid is grid
        assert tabs.achieved_order.shape == tabs.last_order_norm.shape == tabs.converged.shape == (17,)
        assert tabs.norms.shape == (17, 0 if D.is_real else order, 2)
        res = assemble_AB(D, f, SeriesConfig(max_order=order), grid.points[9], grid)
        for x in ("A", "B"):
            stacked = getattr(tabs, x)
            assert stacked.dtype == np.float64 and stacked.shape == (D.n_channels,) * 2 + (17, 17)
            assert not stacked.flags.writeable
            assert not np.triu(stacked, k=1).any()  # zero past every outer time
            # an assembled outer time is a view of its build's stacked array
            view = getattr(res, x)
            assert view.base.shape == stacked.shape and np.array_equal(view, stacked[:, :, 9, :10])
