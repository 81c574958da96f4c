"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s``).

Expensive artifacts (oracle trajectories, coefficient tables, golden
runs) are shared through module-scoped fixtures; every tolerance below
is pinned, nothing is calibrated at run time.
"""

import numpy as np
import pytest

from nmgme.bath import (
    make_discrete_modes,
    make_exponential,
    make_white_noise_approximant,
)
from nmgme.coefficients import (
    build_ab_tables,
    coefficients_dephasing,
    coefficients_linear,
    coefficients_nondissipative,
    coefficients_qmupl,
    kossakowski_form,
)
from nmgme.grids import make_grid, quad_weights
from nmgme.oracle import JointModel, compare_with_me, evolve_joint
from nmgme.propagate import (
    CoefficientInterpolator,
    GaussianMoments,
    evolve,
    evolve_moments,
    kossakowski_rhs,
    me_rhs,
)
from nmgme.scenarios import coherent_state
from nmgme.series import SeriesConfig, alpha_beta, contraction_BA, contraction_BB, recurse_a, recurse_b
from nmgme.system import (
    commutator_kernel,
    fock_operators,
    harmonic_kernels,
    quadratic_hamiltonian,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def criterion(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    line = f"ACCEPTANCE {num}: {tag} - {description}{suffix}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- criterion 1

@pytest.fixture(scope="module")
def dephasing_golden():
    """Two-mode dephasing: ME vs oracle at the pinned parameters."""
    freqs = (1.0, 1.6)
    g = np.array([[0.2, 0.2]])
    t_final, n_samples = 3.0, 31
    grid = make_grid(t_final, 129)
    D = make_discrete_modes(freqs, g)
    coeffs = coefficients_dephasing(D, grid, method="simpson")
    ops = {"A": [SZ], "H0": np.zeros((2, 2), dtype=complex)}
    rho0 = np.outer(PLUS, PLUS.conj())
    traj_me = evolve(rho0, coeffs, ops, t_final, 1e-3, n_samples)
    model = JointModel(
        h_system=np.zeros((2, 2), dtype=complex),
        channel_ops=(SZ,),
        mode_freqs=freqs,
        couplings=g,
        mode_dims=(6, 6),
    )
    traj_or = evolve_joint(model, PLUS, t_final, n_samples)
    report = compare_with_me(traj_or, traj_me, mode_freqs=freqs)
    return {"me": traj_me, "oracle": traj_or, "report": report, "coeffs": coeffs}


def test_criterion_1_dephasing_exactness(dephasing_golden):
    max_td = dephasing_golden["report"]["max_trace_distance"]
    recurrence = dephasing_golden["report"]["recurrence_time_estimate"]
    criterion(
        1,
        "dephasing ME vs two-mode oracle, max trace distance <= 1e-4",
        max_td <= 1e-4 and recurrence > 3.0,
        f"max_td={max_td:.3e}, recurrence={recurrence:.2f}",
    )


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_white_noise_limit():
    kern = harmonic_kernels(1.0, 1.0)
    t_eval = 2.0
    grid = make_grid(t_eval, 641)
    w = quad_weights(grid.n_points, grid.h, "simpson")
    eps_values = [0.2, 0.1, 0.05, 0.025]
    ratios, thetas = [], []
    for eps in eps_values:
        D = make_white_noise_approximant(1.0, eps)
        coeffs = coefficients_nondissipative(D, kern, grid, method="simpson")
        denom = float(np.dot(w, D.re_part(0, 0, t_eval, grid.points)))
        ratios.append(coeffs.Gamma[-1, 0, 0].real / denom)
        thetas.append(abs(coeffs.Theta[-1, 0, 0].real))
    slope, intercept = np.polyfit(np.array(eps_values) ** 2, ratios, 1)
    monotone = bool(np.all(np.diff(thetas) < 0))
    ok = abs(intercept + 1.0) <= 0.02 and monotone and thetas[-1] < 0.02
    criterion(
        2,
        "white-noise limit: Gamma ratio -> -1 within 2%, |Theta| -> 0",
        ok,
        f"ratio_extrap={intercept:.5f}, |Theta|_final={thetas[-1]:.4f}",
    )


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_series_homogeneity():
    grid = make_grid(1.5, 49)
    setups = {
        "one-mode": (
            make_discrete_modes([1.3], [[0.25]]),
            commutator_kernel(harmonic_kernels(1.0, 1.0), ["q"]),
        ),
    }
    from nmgme.bath import make_qmupl_matrix
    from nmgme.system import qmupl_kernels

    lam, mu = 0.3, 0.1
    setups["collapse-matrix"] = (
        make_qmupl_matrix(lam, make_exponential(1.0, 0.5)),
        commutator_kernel(qmupl_kernels(1.0, 1.0, lam, mu), [(1.0, 0.0), (0.0, -mu)]),
    )
    worst = 0.0
    for D, f in setups.values():
        corr = {}
        for label, kern in (("1", D), ("1/2", D.scaled(0.5)), ("1/4", D.scaled(0.25))):
            b1 = contraction_BA(kern, f, grid.t_max, grid)
            a1 = contraction_BB(kern, f, grid.t_max, grid)
            c1 = alpha_beta(1, b1, a1)
            a2 = recurse_a(2, a1, b1)
            b2 = recurse_b(2, b1, b1)
            c2 = alpha_beta(2, b2, a2)
            corr[label] = (c1, c2)
        for eps, label in ((0.5, "1/2"), (0.25, "1/4")):
            for n, idx in ((1, 0), (2, 1)):
                for name in ("alpha", "beta"):
                    base = corr["1"][idx][name]
                    scaled = corr[label][idx][name]
                    expected = eps ** (n + 1) * base
                    mask = np.abs(expected) > 0
                    if mask.any():
                        rel = np.max(
                            np.abs(scaled[mask] - expected[mask]) / np.abs(expected[mask])
                        )
                        worst = max(worst, float(rel))
                    if (~mask).any():
                        worst = max(worst, float(np.max(np.abs(scaled[~mask]))))
    criterion(
        3,
        "alpha^n, beta^n scale as eps^{n+1} under D -> eps D (rel <= 1e-9)",
        worst <= 1e-9,
        f"worst_rel={worst:.2e}",
    )


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_nondissipative_closure():
    D = make_exponential(1.0, 0.5)
    kern = harmonic_kernels(1.0, 1.0)
    f = commutator_kernel(kern, ["q"])
    grid = make_grid(2.0, 65)
    tabs = build_ab_tables(D, f, SeriesConfig(max_order=3), grid, force_series=True)
    b_sup = max(float(np.max(np.abs(ab.B))) for ab in tabs)
    via_series = coefficients_linear(tabs, kern, grid)
    direct = coefficients_nondissipative(D, kern, grid)
    dev = max(
        float(np.max(np.abs(via_series.Gamma - direct.Gamma))),
        float(np.max(np.abs(via_series.Theta - direct.Theta))),
    )
    anti = max(
        float(np.max(np.abs(via_series.Xi))), float(np.max(np.abs(via_series.Upsilon)))
    )
    ok = b_sup == 0.0 and dev <= 1e-8 and anti == 0.0
    criterion(
        4,
        "real kernel: B == 0 exactly, coefficients equal direct quadrature <= 1e-8",
        ok,
        f"sup|B|={b_sup:.1e}, max_dev={dev:.2e}",
    )


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_mu_zero_reduction():
    base = make_exponential(1.0, 0.5)
    lam = 0.3
    grid = make_grid(2.0, 65)
    qm = coefficients_qmupl(
        lam, 0.0, 1.0, 1.0, base, SeriesConfig(max_order=2), grid
    )
    nd = coefficients_nondissipative(
        base, harmonic_kernels(1.0, 1.0), grid, lam_scale=lam
    )
    dev = max(
        float(np.max(np.abs(qm.Gamma - nd.Gamma))),
        float(np.max(np.abs(qm.Theta - nd.Theta))),
        float(np.max(np.abs(qm.Xi))),
        float(np.max(np.abs(qm.Upsilon))),
        float(np.max(np.abs(qm.alpha))),
        float(np.max(np.abs(qm.beta))),
        float(np.max(np.abs(qm.gamma_pp))),
    )
    criterion(
        5,
        "collapse-model coefficients at mu=0 equal the non-dissipative set <= 1e-8",
        dev <= 1e-8,
        f"max_dev={dev:.2e}",
    )


# ---------------------------------------------------------------- criterion 6

W_MODE, G_COUP = 1.3, 0.2
OC_T, OC_G, OC_DIM = 2.0, 65, 30


@pytest.fixture(scope="module")
def oracle_convergence():
    """One-mode bath vs ME at series orders 0, 1, 2."""
    ops_f = fock_operators(OC_DIM)
    H0 = quadratic_hamiltonian(OC_DIM)
    q, p = ops_f["q"], ops_f["p"]
    psi0 = coherent_state(OC_DIM, 1.0)
    model = JointModel(
        h_system=H0,
        channel_ops=(q,),
        mode_freqs=(W_MODE,),
        couplings=np.array([[G_COUP]]),
        mode_dims=(6,),
    )
    n_samples = 41
    traj_or = evolve_joint(model, psi0, OC_T, n_samples)

    D = make_discrete_modes([W_MODE], [[G_COUP]])
    kern = harmonic_kernels(1.0, 1.0)
    f = commutator_kernel(kern, ["q"])
    grid = make_grid(OC_T, OC_G)
    rho0 = np.outer(psi0, psi0.conj())
    ops = {"A": [q], "V": [p], "H0": H0}
    runs = {}
    tables = {}
    for N in (0, 1, 2):
        cfg = SeriesConfig(max_order=N, eps_series=1e-30)
        tabs = build_ab_tables(D, f, cfg, grid)
        coeffs = coefficients_linear(tabs, kern, grid, scenario="hpz")
        traj = evolve(
            rho0, coeffs, ops, OC_T, 1e-3, n_samples, truncation_guard=False
        )
        runs[N] = {
            "coeffs": coeffs,
            "traj": traj,
            "max_td": compare_with_me(traj_or, traj)["max_trace_distance"],
        }
        tables[N] = tabs
    return {"runs": runs, "tables": tables, "oracle": traj_or, "grid": grid, "ops": ops}


def test_criterion_6_oracle_series_convergence(oracle_convergence):
    errs = [oracle_convergence["runs"][N]["max_td"] for N in (0, 1, 2)]
    ok = errs[0] > errs[1] > errs[2] and errs[2] <= 1e-3
    criterion(
        6,
        "ME vs one-mode oracle error strictly decreases over orders 0,1,2; "
        "order-2 error <= 1e-3",
        ok,
        f"errors={errs[0]:.2e} > {errs[1]:.2e} > {errs[2]:.2e}",
    )


# ---------------------------------------------------------------- criterion 8
# (fixture defined before 7 so the structural check can reuse the run)

QM_LAM, QM_MU = 0.3, 0.1


@pytest.fixture(scope="module")
def qmupl_golden():
    """Collapse-model golden run: Fock propagation + moment propagation."""
    base = make_exponential(1.0, 0.5)
    t_final, n_samples = 3.0, 31
    grid = make_grid(t_final, 65)
    coeffs = coefficients_qmupl(
        QM_LAM, QM_MU, 1.0, 1.0, base, SeriesConfig(max_order=2, eps_series=1e-30), grid
    )
    dims = {}
    alpha0 = 1.0
    for dim in (30, 40):
        ops_f = fock_operators(dim)
        q, p = ops_f["q"], ops_f["p"]
        ops = {"A": [q], "V": [p], "H0": quadratic_hamiltonian(dim), "q": q, "p": p}
        psi0 = coherent_state(dim, alpha0)
        observables = {
            "q": q,
            "p": p,
            "qq": q @ q,
            "pp": p @ p,
            "qp_sym": 0.5 * (q @ p + p @ q),
        }
        dims[dim] = evolve(
            np.outer(psi0, psi0.conj()), coeffs, ops, t_final, 1e-3, n_samples,
            observables=observables, scenario="qmupl",
        )
    mom0 = GaussianMoments.coherent(np.sqrt(2.0) * alpha0, 0.0, 1.0, 1.0)
    mtraj = evolve_moments(mom0, coeffs, 1.0, 1.0, t_final, 1e-3, n_samples)
    return {"coeffs": coeffs, "fock": dims, "moments": mtraj}


def test_criterion_8_moment_fock_cross_validation(qmupl_golden):
    traj = qmupl_golden["fock"][40]
    mtraj = qmupl_golden["moments"]
    obs = traj.observables
    mq = np.array(obs["q"])
    mp = np.array(obs["p"])
    sqq = np.array(obs["qq"]) - mq**2
    spp = np.array(obs["pp"]) - mp**2
    sqp = np.array(obs["qp_sym"]) - mq * mp
    pairs = {
        "mean_q": (mq, mtraj.means[:, 0]),
        "mean_p": (mp, mtraj.means[:, 1]),
        "sigma_qq": (sqq, mtraj.covs[:, 0, 0]),
        "sigma_pp": (spp, mtraj.covs[:, 1, 1]),
        "sigma_qp": (sqp, mtraj.covs[:, 0, 1]),
    }
    worst = 0.0
    for fock_vals, mom_vals in pairs.values():
        scale = np.max(np.abs(mom_vals))
        worst = max(worst, float(np.max(np.abs(fock_vals - mom_vals)) / scale))
    # truncation stability: dim 30 -> 40 shifts observables below 1e-6
    shift = max(
        float(
            np.max(
                np.abs(
                    np.array(qmupl_golden["fock"][30].observables[k])
                    - np.array(qmupl_golden["fock"][40].observables[k])
                )
            )
        )
        for k in ("q", "qq")
    )
    ok = worst <= 1e-4 and shift < 1e-6
    criterion(
        8,
        "collapse-model moments vs Fock propagation agree <= 1e-4 relative (t <= 3)",
        ok,
        f"worst_rel={worst:.2e}, truncation_shift={shift:.1e}",
    )


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_structural_invariants(
    dephasing_golden, oracle_convergence, qmupl_golden
):
    golden_runs = {
        "dephasing": dephasing_golden["me"],
        "one-mode-N2": oracle_convergence["runs"][2]["traj"],
        "qmupl-40": qmupl_golden["fock"][40],
    }
    drift_ok, herm_ok, pos_ok = True, True, True
    details = []
    for name, traj in golden_runs.items():
        span = traj.times[-1] - traj.times[0]
        drift = abs(traj.diagnostics["trace"][-1] - traj.diagnostics["trace"][0]) / span
        herm = max(traj.diagnostics["hermiticity_defect"])
        mineig = min(traj.diagnostics["min_eigenvalue"])
        drift_ok &= drift < 1e-9
        herm_ok &= herm < 1e-10
        pos_ok &= mineig >= -1e-7
        details.append(f"{name}: drift={drift:.1e}, herm={herm:.1e}, eig={mineig:+.1e}")

    # Kossakowski rewrite equals the direct generator on random inputs
    coeffs = oracle_convergence["runs"][2]["coeffs"]
    form = kossakowski_form(coeffs)
    ops = oracle_convergence["ops"]
    interp = CoefficientInterpolator(coeffs)
    grid = oracle_convergence["grid"]
    rng = np.random.default_rng(42)
    dim = ops["A"][0].shape[0]
    koss_dev = 0.0
    i = grid.n_points - 1
    for _ in range(10):
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = 0.5 * (x + x.conj().T)
        rho = rho / np.trace(rho).real
        dev = np.max(
            np.abs(
                me_rhs(rho, interp(grid.points[i]), ops)
                - kossakowski_rhs(rho, form, i, ops)
            )
        )
        koss_dev = max(koss_dev, float(dev))
    ok = drift_ok and herm_ok and pos_ok and koss_dev < 1e-10
    criterion(
        7,
        "golden runs: trace drift < 1e-9/t, herm defect < 1e-10, min eig >= -1e-7, "
        "Kossakowski rhs == direct rhs < 1e-10",
        ok,
        "; ".join(details) + f"; koss_dev={koss_dev:.1e}",
    )


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_weak_coupling_zeroth_order(oracle_convergence):
    grid = oracle_convergence["grid"]
    runs = oracle_convergence["runs"]

    def stack(coeffs):
        return np.stack(
            [
                coeffs.Gamma[:, 0, 0].real,
                coeffs.Theta[:, 0, 0].real,
                coeffs.Xi[:, 0, 0].imag,
                coeffs.Upsilon[:, 0, 0].imag,
            ]
        )

    c0 = stack(runs[0]["coeffs"])
    c1 = stack(runs[1]["coeffs"])
    c2 = stack(runs[2]["coeffs"])

    # explicit zeroth-order integrals, independently assembled
    D = make_discrete_modes([W_MODE], [[G_COUP]])
    explicit = np.zeros_like(c0)
    for K in range(1, grid.n_points):
        t = grid.points[K]
        s = grid.points[: K + 1]
        w = quad_weights(K + 1, grid.h)
        dre = D.re_part(0, 0, t, s)
        dim_part = D.im_part(0, 0, t, s)
        cosw = np.cos(t - s)
        sinw = -np.sin(t - s)
        explicit[0, K] = -np.dot(w, dre * cosw)
        explicit[1, K] = -np.dot(w, dre * sinw)
        explicit[2, K] = np.imag(-2j * np.dot(w, dim_part * cosw))
        explicit[3, K] = np.imag(-2j * np.dot(w, dim_part * sinw))
    zeroth_dev = float(np.max(np.abs(c0 - explicit)))

    term1 = np.max(np.abs(c1 - c0), axis=1)
    term2 = np.max(np.abs(c2 - c1), axis=1)
    ok = zeroth_dev < 1e-12
    details = [f"zeroth_dev={zeroth_dev:.1e}"]
    for i, name in enumerate(("Gamma", "Theta", "Xi", "Upsilon")):
        r = term2[i] / term1[i]
        bound = term1[i] + term2[i] / (1.0 - r)
        dev = float(np.max(np.abs(c2[i] - explicit[i])))
        ok &= r < 1.0 and dev <= 3.0 * bound
        details.append(f"{name}: dev={dev:.1e} <= 3*bound={3 * bound:.1e} (r={r:.2f})")
    criterion(
        9,
        "weak coupling: series coefficients match explicit zeroth order within "
        "3x the order-ratio tail bound",
        ok,
        "; ".join(details),
    )
