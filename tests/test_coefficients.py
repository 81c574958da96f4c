import numpy as np
import pytest
from scipy.integrate import quad

from nmgme.bath import make_discrete_modes, make_exponential, make_white_noise_approximant
from nmgme.coefficients import (
    MECoefficients,
    build_ab_tables,
    coefficients_dephasing,
    coefficients_linear,
    coefficients_nondissipative,
    coefficients_qmupl,
    kossakowski_form,
    write_coefficients_csv,
)
from nmgme.grids import make_grid, quad_weights
from nmgme.series import ABKernels, SeriesConfig
from nmgme.system import commutator_kernel, harmonic_kernels, qmupl_kernels


def constant_ab_tables(grid, d0, d=1):
    """Synthetic assembled kernels A = d0, B = 0 on every prefix."""
    tables = []
    for K, t in enumerate(grid.points):
        shape = (d, d, K + 1)
        tables.append(
            ABKernels(
                outer_index=K,
                outer_time=float(t),
                grid=grid,
                A=np.full(shape, d0, dtype=float),
                B=np.zeros(shape),
                achieved_order=0,
                last_order_norm=0.0,
                per_order=(),
                converged=True,
            )
        )
    return tables


def test_linear_constant_kernel_closed_form():
    # A = d0, C = cos(w(t-s)): Gamma(t) = -d0 sin(w t)/w
    omega, d0 = 1.7, 0.8
    grid = make_grid(2.0, 129)
    kern = harmonic_kernels(1.0, omega)
    coeffs = coefficients_linear(constant_ab_tables(grid, d0), kern, grid)
    expected = -d0 * np.sin(omega * grid.points) / omega
    assert np.max(np.abs(coeffs.Gamma[:, 0, 0].real - expected)) < 2e-4
    # trapezoid refinement: tighter on a finer grid
    grid2 = make_grid(2.0, 257)
    coeffs2 = coefficients_linear(constant_ab_tables(grid2, d0), kern, grid2)
    expected2 = -d0 * np.sin(omega * grid2.points) / omega
    assert np.max(np.abs(coeffs2.Gamma[:, 0, 0].real - expected2)) < 5e-5


def test_linear_zero_at_t0():
    grid = make_grid(1.0, 17)
    kern = harmonic_kernels(1.0, 1.0)
    coeffs = coefficients_linear(constant_ab_tables(grid, 1.0), kern, grid)
    for name in ("Gamma", "Theta", "Xi", "Upsilon"):
        assert getattr(coeffs, name)[0, 0, 0] == 0.0


def test_linear_real_kernel_has_no_anticommutator_channels():
    D = make_exponential(1.0, 0.5)
    kern = harmonic_kernels(1.0, 1.0)
    f = commutator_kernel(kern, ["q"])
    grid = make_grid(1.0, 33)
    tabs = build_ab_tables(D, f, SeriesConfig(max_order=2), grid)
    coeffs = coefficients_linear(tabs, kern, grid)
    assert np.max(np.abs(coeffs.Xi)) == 0.0
    assert np.max(np.abs(coeffs.Upsilon)) == 0.0


def test_nondissipative_requires_real_kernel():
    D = make_discrete_modes([1.0], [[0.3]])
    kern = harmonic_kernels(1.0, 1.0)
    with pytest.raises(ValueError, match="real"):
        coefficients_nondissipative(D, kern, make_grid(1.0, 17))


def test_nondissipative_against_independent_quadrature():
    # refinement oracle: adaptive quadrature of the same integrand
    gamma, tau_c, omega, m = 1.0, 0.5, 1.0, 1.0
    D = make_exponential(gamma, tau_c)
    kern = harmonic_kernels(m, omega)
    grid = make_grid(1.0, 257)
    coeffs = coefficients_nondissipative(D, kern, grid, method="simpson")
    t = 1.0
    amp = gamma / (2 * tau_c)

    gam_ref = -quad(lambda s: amp * np.exp(-(t - s) / tau_c) * np.cos(omega * (t - s)), 0, t)[0]
    the_ref = -quad(
        lambda s: amp * np.exp(-(t - s) / tau_c) * (-np.sin(omega * (t - s)) / (m * omega)),
        0,
        t,
    )[0]
    assert coeffs.Gamma[-1, 0, 0].real == pytest.approx(gam_ref, abs=1e-9)
    assert coeffs.Theta[-1, 0, 0].real == pytest.approx(the_ref, abs=1e-9)


def test_nondissipative_matches_series_pipeline():
    # with a real kernel the full series pipeline must coincide
    D = make_exponential(1.3, 0.4)
    kern = harmonic_kernels(1.0, 1.2)
    grid = make_grid(1.5, 49)
    direct = coefficients_nondissipative(D, kern, grid)
    f = commutator_kernel(kern, ["q"])
    tabs = build_ab_tables(D, f, SeriesConfig(max_order=3), grid, force_series=True)
    via_series = coefficients_linear(tabs, kern, grid)
    assert np.max(np.abs(direct.Gamma - via_series.Gamma)) < 1e-8
    assert np.max(np.abs(direct.Theta - via_series.Theta)) < 1e-8
    assert np.max(np.abs(via_series.Xi)) == 0.0
    assert np.max(np.abs(via_series.Upsilon)) == 0.0


def test_white_noise_limits():
    # Theta -> 0 for t >> eps and the Gamma ratio -> -C(0) = -1
    kern = harmonic_kernels(1.0, 1.0)
    prev_theta = None
    for eps in (0.2, 0.1, 0.05):
        D = make_white_noise_approximant(1.0, eps)
        grid = make_grid(2.0, 641)
        coeffs = coefficients_nondissipative(D, kern, grid, method="simpson")
        th = abs(coeffs.Theta[-1, 0, 0].real)
        if prev_theta is not None:
            assert th < prev_theta
        prev_theta = th
        dre = D.re_part(0, 0, 2.0, grid.points)
        from nmgme.grids import quad_weights

        denom = np.dot(quad_weights(grid.n_points, grid.h, "simpson"), dre)
        ratio = coeffs.Gamma[-1, 0, 0].real / denom
        assert abs(ratio - (-1.0 / (1.0 + eps**2))) < 2e-3
        # dependence on the velocity channel dies in the Markovian limit
        assert np.max(np.abs(coeffs.Upsilon)) == 0.0
    assert prev_theta < 0.03


def test_dephasing_closed_form():
    # OU(gamma=2, tau=1): Gamma(t) = -(1 - exp(-t))
    D = make_exponential(2.0, 1.0)
    grid = make_grid(2.0, 65)
    coeffs = coefficients_dephasing(D, grid, method="simpson")
    expected = -(1.0 - np.exp(-grid.points))
    # odd-panel prefixes carry a trapezoid last panel (~h^3 locally);
    # even-panel prefixes are pure Simpson
    assert np.max(np.abs(coeffs.Gamma[:, 0, 0].real - expected)) < 5e-6
    assert np.max(np.abs(coeffs.Gamma[::2, 0, 0].real - expected[::2])) < 1e-8
    assert coeffs.Gamma[0, 0, 0] == 0.0
    assert np.max(np.abs(coeffs.Xi)) == 0.0  # real kernel
    assert np.max(np.abs(coeffs.Theta)) == 0.0
    assert np.max(np.abs(coeffs.Upsilon)) == 0.0


def test_dephasing_complex_kernel_xi():
    D = make_discrete_modes([1.0], [[0.5]])
    grid = make_grid(1.0, 129)
    coeffs = coefficients_dephasing(D, grid, method="simpson")
    # Xi(t) = -2i int_0^t D^Im(t,s) ds with D^Im = -g^2 sin(w(t-s))
    t = grid.points
    expected = -2j * (0.25 * (np.cos(t) - 1.0))
    assert np.max(np.abs(coeffs.Xi[:, 0, 0] - expected)) < 1e-8


def test_qmupl_lambda_zero_all_coefficients_vanish():
    base = make_exponential(1.0, 0.5)
    coeffs = coefficients_qmupl(
        0.0, 0.1, 1.0, 1.0, base, SeriesConfig(max_order=2), make_grid(1.0, 17)
    )
    for name in ("Gamma", "Theta", "Xi", "Upsilon"):
        assert np.max(np.abs(getattr(coeffs, name))) == 0.0
    assert np.max(np.abs(coeffs.alpha)) == 0.0
    assert np.max(np.abs(coeffs.beta)) == 0.0
    assert np.max(np.abs(coeffs.gamma_pp)) == 0.0


def test_qmupl_mu_zero_reduces_to_nondissipative():
    base = make_exponential(1.0, 0.5)
    lam = 0.3
    grid = make_grid(1.0, 33)
    qm = coefficients_qmupl(lam, 0.0, 1.0, 1.0, base, SeriesConfig(max_order=2), grid)
    nd = coefficients_nondissipative(
        base, harmonic_kernels(1.0, 1.0), grid, lam_scale=lam
    )
    assert np.max(np.abs(qm.Gamma - nd.Gamma)) < 1e-8
    assert np.max(np.abs(qm.Theta - nd.Theta)) < 1e-8
    assert np.max(np.abs(qm.Xi)) < 1e-12
    assert np.max(np.abs(qm.Upsilon)) < 1e-12
    assert np.max(np.abs(qm.alpha)) < 1e-12
    assert np.max(np.abs(qm.beta)) < 1e-12
    assert np.max(np.abs(qm.gamma_pp)) < 1e-12


def test_qmupl_golden_table():
    base = make_exponential(1.0, 0.5)
    grid = make_grid(1.0, 65)
    coeffs = coefficients_qmupl(
        0.3, 0.1, 1.0, 1.0, base, SeriesConfig(max_order=2, eps_series=1e-30), grid
    )
    for idx, row in GOLDEN_QMUPL_COEFFS.items():
        assert coeffs.Gamma[idx, 0, 0].real == pytest.approx(row[0], abs=1e-12)
        assert coeffs.Theta[idx, 0, 0].real == pytest.approx(row[1], abs=1e-12)
        assert coeffs.Xi[idx, 0, 0].imag == pytest.approx(row[2], abs=1e-12)
        assert coeffs.Upsilon[idx, 0, 0].imag == pytest.approx(row[3], abs=1e-12)
        assert coeffs.alpha[idx] == pytest.approx(row[4], abs=1e-12)
        assert coeffs.beta[idx] == pytest.approx(row[5], abs=1e-12)
        assert coeffs.gamma_pp[idx] == pytest.approx(row[6], abs=1e-12)


def test_reality_invariants_enforced():
    grid = make_grid(1.0, 5)
    shape = (5, 1, 1)
    good = np.zeros(shape, dtype=complex)
    with pytest.raises(ValueError, match="real"):
        MECoefficients(
            grid=grid,
            scenario="x",
            Gamma=np.full(shape, 1.0j),
            Theta=good,
            Xi=good,
            Upsilon=good,
        )
    with pytest.raises(ValueError, match="imaginary"):
        MECoefficients(
            grid=grid,
            scenario="x",
            Gamma=good,
            Theta=good,
            Xi=np.full(shape, 1.0),
            Upsilon=good,
        )


@pytest.mark.parametrize(
    "name", ["Gamma", "Theta", "Xi", "Upsilon", "alpha", "beta", "gamma_pp"]
)
def test_non_finite_coefficient_tables_rejected_at_construction(name):
    # me_rhs trusts the tables, so every one is checked once, here
    grid = make_grid(1.0, 5)
    tables = {key: np.zeros((5, 1, 1), dtype=complex) for key in ("Gamma", "Theta", "Xi", "Upsilon")}
    tables.update({key: np.zeros(5) for key in ("alpha", "beta", "gamma_pp")})
    tables[name][2] = np.nan
    with pytest.raises(ValueError, match=f"non-finite entries in {name}"):
        MECoefficients(grid=grid, scenario="x", **tables)


def test_kossakowski_structure():
    D = make_exponential(2.0, 1.0)
    grid = make_grid(1.0, 17)
    coeffs = coefficients_dephasing(D, grid)
    form = kossakowski_form(coeffs)
    # Upsilon = 0 -> symmetric coefficient matrix; here Theta = 0 too
    assert np.max(np.abs(form.f_matrix - np.swapaxes(form.f_matrix, 1, 2))) == 0.0
    assert np.allclose(form.f_matrix[:, 0, 0], -2.0 * coeffs.Gamma[:, 0, 0].real)
    assert np.max(np.abs(form.f_matrix[:, 1, 1])) == 0.0
    assert np.max(np.abs(form.h_AV)) == 0.0


def test_kossakowski_zero_coefficients():
    grid = make_grid(1.0, 5)
    shape = (5, 1, 1)
    zeros = np.zeros(shape, dtype=complex)
    coeffs = MECoefficients(
        grid=grid, scenario="x", Gamma=zeros, Theta=zeros.copy(),
        Xi=zeros.copy(), Upsilon=zeros.copy(),
    )
    form = kossakowski_form(coeffs)
    assert np.max(np.abs(form.f_matrix)) == 0.0
    assert np.max(np.abs(form.h_A2)) == 0.0


def test_kossakowski_assembly_identity_hpz():
    D = make_discrete_modes([1.3], [[0.3]])
    kern = harmonic_kernels(1.0, 1.0)
    f = commutator_kernel(kern, ["q"])
    grid = make_grid(1.0, 33)
    tabs = build_ab_tables(D, f, SeriesConfig(max_order=2), grid)
    coeffs = coefficients_linear(tabs, kern, grid, scenario="hpz")
    form = kossakowski_form(coeffs)
    i = grid.n_points - 1
    gam = coeffs.Gamma[i, 0, 0].real
    the = coeffs.Theta[i, 0, 0].real
    ups = coeffs.Upsilon[i, 0, 0]
    assert form.f_matrix[i, 0, 0] == pytest.approx(-2 * gam)
    assert form.f_matrix[i, 0, 1] == pytest.approx(-the + 0.5 * ups)
    assert form.f_matrix[i, 1, 0] == pytest.approx(-the - 0.5 * ups)
    assert form.f_matrix[i, 1, 1] == 0.0


def test_csv_round_trip(tmp_path):
    D = make_exponential(2.0, 1.0)
    grid = make_grid(1.0, 9)
    coeffs = coefficients_dephasing(D, grid)
    path = tmp_path / "c.csv"
    write_coefficients_csv(coeffs, path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["t", "Gamma_re", "Gamma_im"]
    assert len(lines) == 10
    # 17 significant digits round-trip exactly
    val = float(lines[5].split(",")[1])
    assert val == coeffs.Gamma[4, 0, 0].real


def test_csv_qmupl_extras(tmp_path):
    base = make_exponential(1.0, 0.5)
    coeffs = coefficients_qmupl(
        0.2, 0.1, 1.0, 1.0, base, SeriesConfig(max_order=1), make_grid(0.5, 9)
    )
    path = tmp_path / "c.csv"
    write_coefficients_csv(coeffs, path)
    header = path.read_text().splitlines()[0]
    for name in ("alpha", "beta", "gamma_pp"):
        assert name in header


def _per_time_quadrature(ab_tables, grid, method, weight_fns):
    """Reference: the former per-outer-time reduction of ``A``/``B``.

    ``weight_fns`` maps names to ``(kernel, j, k, flow_fn, factor)`` terms.
    """
    out = {name: np.zeros(grid.n_points, dtype=complex) for name in weight_fns}
    for K, ab in enumerate(ab_tables):
        n = K + 1
        if n == 1:
            continue
        w = quad_weights(n, grid.h, method)
        u = ab.outer_time - grid.points[:n]
        for name, terms in weight_fns.items():
            total = 0.0
            for which, j, k, flow_fn, factor in terms:
                kern = ab.A if which == "A" else ab.B
                total = total + factor * np.dot(w, kern[j, k] * flow_fn(u))
            out[name][K] = total
    return out


def _per_time_closure(D, grid, method, flow_fns, lam_scale=1.0):
    """Reference: the former per-outer-time loops of the zeroth-order
    closures, ``-int D^Re phi_re`` and ``-2i int D^Im phi_im``."""
    phi_re, phi_im = flow_fns
    Gamma = np.zeros(grid.n_points, dtype=complex)
    Xi = np.zeros(grid.n_points, dtype=complex)
    for K in range(1, grid.n_points):
        n = K + 1
        w = quad_weights(n, grid.h, method)
        t = grid.points[K]
        s = grid.points[:n]
        val = D(0, 0, t, s)
        Gamma[K] = -lam_scale * np.dot(w, np.real(val) * phi_re(t - s))
        Xi[K] = -2j * lam_scale * np.dot(w, np.imag(val) * phi_im(t - s))
    return Gamma, Xi


@pytest.mark.parametrize("method", ["trapezoid", "simpson"])
def test_one_reduction_matches_per_time_reference(method):
    tol = 1e-13
    grid = make_grid(2.0, 33)
    kern = harmonic_kernels(1.0, 1.0)
    C = lambda u: kern.flow(u)[0, 0]
    Ct = lambda u: kern.flow(u)[0, 1]
    one = lambda u: np.ones_like(u)

    # generic single channel: complex kernel, series to order 3
    D = make_discrete_modes([1.3, 1.7, 2.1], [[0.15, 0.1, 0.1]])
    cfg = SeriesConfig(max_order=3, eps_series=1e-30, method=method)
    tabs = build_ab_tables(D, commutator_kernel(kern, ["q"]), cfg, grid)
    lin = coefficients_linear(tabs, kern, grid, method)
    ref = _per_time_quadrature(tabs, grid, method, {
        "Gamma": [("A", 0, 0, C, -1.0)],
        "Theta": [("A", 0, 0, Ct, -1.0)],
        "Xi": [("B", 0, 0, C, -2.0j)],
        "Upsilon": [("B", 0, 0, Ct, -2.0j)],
    })
    for name, vals in ref.items():
        assert np.max(np.abs(getattr(lin, name)[:, 0, 0] - vals)) <= tol, name
    assert np.max(np.abs(lin.Xi)) > 0.01

    # collapse model: all seven coefficients
    lam, mu = 0.5, 0.3
    qm, tabs = coefficients_qmupl(
        lam, mu, 1.0, 1.0, make_exponential(1.0, 0.5), cfg, grid, method, return_ab=True
    )
    flow = qmupl_kernels(1.0, 1.0, lam, mu).flow
    C11, C12, C21, C22 = (
        (lambda u, l=l, m=m: flow(u)[l, m]) for l, m in ((0, 0), (0, 1), (1, 0), (1, 1))
    )
    ref = _per_time_quadrature(tabs, grid, method, {
        "Gamma": [("A", 0, 0, C11, -1.0), ("A", 0, 1, C21, mu)],
        "Theta": [
            ("A", 0, 0, C12, -1.0),
            ("A", 0, 1, C22, mu),
            ("A", 1, 0, C11, mu),
            ("A", 1, 1, C21, -(mu**2)),
        ],
        "gamma_pp": [("A", 1, 0, C12, mu), ("A", 1, 1, C22, -(mu**2))],
        "Xi": [("B", 0, 0, C11, -2.0j), ("B", 0, 1, C21, 2.0j * mu)],
        "Upsilon": [
            ("B", 0, 0, C12, -2.0j),
            ("B", 0, 1, C22, 2.0j * mu),
            ("B", 1, 0, C11, -2.0j * mu),
            ("B", 1, 1, C21, 2.0j * mu**2),
        ],
        "alpha": [("B", 1, 0, C12, -mu), ("B", 1, 1, C22, mu**2)],
        "beta": [("B", 1, 0, C11, -mu), ("B", 1, 1, C21, mu**2)],
    })
    for name, vals in ref.items():
        got = getattr(qm, name)
        got = got[:, 0, 0] if got.ndim == 3 else got
        assert np.max(np.abs(got - vals)) <= tol, name
        assert np.max(np.abs(vals)) > 1e-3, name

    # zeroth-order closures
    Dr = make_exponential(1.3, 0.4)
    nd = coefficients_nondissipative(Dr, kern, grid, method, lam_scale=0.7)
    gam, _ = _per_time_closure(Dr, grid, method, (C, C), lam_scale=0.7)
    the, _ = _per_time_closure(Dr, grid, method, (Ct, Ct), lam_scale=0.7)
    assert np.max(np.abs(nd.Gamma[:, 0, 0] - gam)) <= tol
    assert np.max(np.abs(nd.Theta[:, 0, 0] - the)) <= tol
    assert np.max(np.abs(nd.Xi)) == np.max(np.abs(nd.Upsilon)) == 0.0

    de = coefficients_dephasing(D, grid, method)
    gam, xi = _per_time_closure(D, grid, method, (one, one))
    assert np.max(np.abs(de.Gamma[:, 0, 0] - gam)) <= tol
    assert np.max(np.abs(de.Xi[:, 0, 0] - xi)) <= tol
    assert np.max(np.abs(de.Theta)) == np.max(np.abs(de.Upsilon)) == 0.0


# Frozen from the oracle-validated pipeline: rows are
# (Gamma, Theta, Im Xi, Im Upsilon, alpha, beta, gamma_pp) at grid index.
GOLDEN_QMUPL_COEFFS = {
    16: (-0.05834168932115149, 0.006660936422852443, -0.001348342651841217,
         -0.023417094332542316, 0.0006741713259206085, -0.005834048443357961,
         -0.0005866457758322883),
    32: (-0.09153978230431223, 0.019264859198442154, -0.003916818640658159,
         -0.03684372469120082, 0.001958409320329079, -0.009152178893190333,
         -0.0009126767650165764),
    64: (-0.11762773085055502, 0.04152823142553218, -0.00852595313279877,
         -0.04749584973050414, 0.004262976566399386, -0.011746073135634055,
         -0.0010534427762019841),
}
