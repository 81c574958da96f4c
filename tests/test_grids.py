import numpy as np
import pytest

from nmgme.grids import (
    TimeGrid,
    lags,
    make_grid,
    on_square,
    prefix_weights,
    quad_weights,
)

from helpers import integrate_1d, integrate_triangular, simpson_loop_weights, suffix_weights, theta_mask


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_grid(1.0, 1)
    with pytest.raises(ValueError):
        TimeGrid(t_max=1.0, n_points=3, points=np.array([0.0, 0.7, 1.0]))
    with pytest.raises(ValueError):
        make_grid(-1.0, 5)


def test_weights_sum_to_interval_length():
    for method in ("trapezoid", "simpson"):
        for n in (2, 3, 6, 11):
            w = quad_weights(n, 0.1, method)
            assert np.isclose(w.sum(), 0.1 * (n - 1), atol=1e-14)


def test_integrate_constant_exact():
    grid = make_grid(1.0, 11)
    assert integrate_1d(np.ones(11), grid) == pytest.approx(1.0, abs=1e-14)


def test_integrate_affine_exact():
    grid = make_grid(1.0, 11)
    assert integrate_1d(grid.points.copy(), grid) == pytest.approx(0.5, abs=1e-14)


def test_integrate_sin_quarter_period():
    grid = make_grid(np.pi, 201)
    val = integrate_1d(np.sin(grid.points), grid)
    assert val == pytest.approx(2.0, abs=1e-4)
    val_s = integrate_1d(np.sin(grid.points), grid, method="simpson")
    assert val_s == pytest.approx(2.0, abs=1e-8)


def test_integrate_rejects_non_finite_with_index():
    grid = make_grid(1.0, 11)
    samples = np.ones(11)
    samples[4] = np.nan
    with pytest.raises(ValueError, match="index.*4"):
        integrate_1d(samples, grid)


def test_integrate_prefix():
    grid = make_grid(1.0, 11)
    # integral over [0, t_5] of f = 1 is t_5 = 0.5
    assert integrate_1d(np.ones(6), grid, k=5) == pytest.approx(0.5, abs=1e-14)
    assert integrate_1d(np.ones(1), grid, k=0) == 0.0


def test_triangular_constant():
    grid = make_grid(1.0, 65)
    samples = np.ones((65, 65))
    assert integrate_triangular(samples, grid) == pytest.approx(0.5, abs=1e-10)


def test_triangular_zero():
    grid = make_grid(1.0, 9)
    assert integrate_triangular(np.zeros((9, 9)), grid) == 0.0


def test_triangular_exponential_difference():
    # int_0^1 dtau int_0^tau ds exp(-(tau-s)) = t - 1 + exp(-t) at t=1
    grid = make_grid(1.0, 201)
    tau, s = np.meshgrid(grid.points, grid.points, indexing="ij")
    samples = np.exp(-(tau - s))
    exact = np.exp(-1.0)
    assert integrate_triangular(samples, grid) == pytest.approx(exact, abs=1e-3)


def test_linearity():
    rng = np.random.default_rng(7)
    grid = make_grid(2.0, 33)
    f = rng.normal(size=33) + 1j * rng.normal(size=33)
    g = rng.normal(size=33) + 1j * rng.normal(size=33)
    a, b = 1.7 - 0.3j, -0.4 + 2.1j
    lhs = integrate_1d(a * f + b * g, grid)
    rhs = a * integrate_1d(f, grid) + b * integrate_1d(g, grid)
    assert abs(lhs - rhs) < 1e-14 * max(1.0, abs(lhs))

    F = rng.normal(size=(33, 33))
    G = rng.normal(size=(33, 33))
    lhs2 = integrate_triangular(2.0 * F + 3.0 * G, grid)
    rhs2 = 2.0 * integrate_triangular(F, grid) + 3.0 * integrate_triangular(G, grid)
    assert abs(lhs2 - rhs2) < 1e-13 * max(1.0, abs(lhs2))


def test_refinement_convergence_second_order():
    # halving h cuts the error of a smooth integrand by at least 3x
    exact = 1.0 - np.cos(2.0)
    errs = []
    for n in (17, 33, 65):
        grid = make_grid(2.0, n)
        errs.append(abs(integrate_1d(np.sin(grid.points), grid) - exact))
    assert errs[0] / errs[1] >= 3.0
    assert errs[1] / errs[2] >= 3.0


def test_prefix_suffix_weight_structure():
    W = prefix_weights(5, 0.25)
    assert np.all(W[0] == 0.0)
    assert np.allclose(W[2, :3], [0.125, 0.25, 0.125])
    S = suffix_weights(5, 0.25)
    assert np.allclose(S[2, 2:], [0.125, 0.25, 0.125])
    assert np.all(S[4] == 0.0)


def test_theta_mask_half_diagonal():
    M = theta_mask(4)
    assert M[2, 1] == 1.0
    assert M[1, 2] == 0.0
    assert M[2, 2] == 0.5


@pytest.mark.parametrize("method", ["trapezoid", "simpson"])
def test_prefix_rules_are_leading_blocks_of_the_full_grid(method):
    # the series engine takes every outer time's rules as prefix views of
    # the full-grid arrays; only the suffix rule depends on the endpoint
    G, h = 65, 0.03
    W, M = prefix_weights(G, h, method), theta_mask(G)
    for n in range(1, G + 1):
        assert np.array_equal(prefix_weights(n, h, method), W[:n, :n])
        assert np.array_equal(theta_mask(n), M[:n, :n])
        assert np.array_equal(quad_weights(n, h, method), prefix_weights(n, h, method)[-1])


@pytest.mark.parametrize("h", [0.1, 1 / 64, 1.7 / 52, 0.3, 2 / 640])
def test_simpson_weights_match_the_pair_loop_bit_for_bit(h):
    # n = 2 has no panel pair, only the trapezoid tail
    for n in range(2, 700):
        assert quad_weights(n, h, "simpson").tobytes() == simpson_loop_weights(n, h).tobytes(), n


def test_lags_read_as_the_grid_square():
    grid = make_grid(2.0, 9)
    u = lags(grid)
    # 2G - 1 increasing lags, the negative ones exact negations
    assert u.shape == (17,) and np.all(np.diff(u) > 0)
    assert np.array_equal(u[:8], -grid.points[:0:-1]) and np.array_equal(u[8:], grid.points)
    square = on_square(u)
    # a dyadic step: every lag is t_a - t_b bit for bit
    assert np.array_equal(square, np.subtract.outer(grid.points, grid.points))
    assert not square.flags.writeable
    # leading axes are carried, and a reversed sample reads u -> -u
    assert np.array_equal(on_square(np.stack((u, 2 * u)))[1], 2 * square)
    assert np.array_equal(on_square(u[::-1]), -square)
