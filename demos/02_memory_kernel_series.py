"""The contraction series behind the time-local coefficients.

A position-coupled oscillator with one bath mode has a genuinely
non-Markovian kernel: the memory kernels pick up corrections at every
contraction order.  This script assembles the series order by order,
prints the per-order sup-norms (they shrink geometrically at weak
coupling), and shows how the four master-equation coefficients move away
from their zeroth-order values.
"""

from pathlib import Path

from nmgme import (
    SeriesConfig,
    assemble_AB,
    build_ab_tables,
    coefficients_linear,
    commutator_kernel,
    harmonic_kernels,
    make_discrete_modes,
    make_grid,
)
from nmgme.series import dump_convergence_csv

W_MODE, G_COUP = 1.3, 0.3
T_MAX = 2.0

D = make_discrete_modes([W_MODE], [[G_COUP]])
kern = harmonic_kernels(1.0, 1.0)
f = commutator_kernel(kern, ["q"])
grid = make_grid(T_MAX, 65)

print(f"one bath mode at {W_MODE}, coupling {G_COUP}, outer time t = {T_MAX}")
res = assemble_AB(D, f, SeriesConfig(max_order=4, eps_series=1e-10), T_MAX, grid)
print(f"achieved order: {res.achieved_order}  converged: {res.converged}")
print(f"{'order':>5} {'sup|alpha^n|':>14} {'sup|beta^n|':>14}")
for n, na, nb in res.per_order:
    print(f"{n:5d} {na:14.3e} {nb:14.3e}")

print("\ncoefficients at a few times, order 0 vs order 3:")
coeff_by_order = {}
for N in (0, 3):
    tabs = build_ab_tables(D, f, SeriesConfig(max_order=N, eps_series=1e-30), grid)
    coeff_by_order[N] = coefficients_linear(tabs, kern)
print(f"{'t':>5} {'Gamma(0th)':>12} {'Gamma(3rd)':>12} {'Theta(0th)':>12} {'Theta(3rd)':>12}")
for i in range(0, grid.n_points, 16):
    c0, c3 = coeff_by_order[0], coeff_by_order[3]
    print(
        f"{grid.points[i]:5.2f} {c0.Gamma[i, 0, 0].real:12.6f} "
        f"{c3.Gamma[i, 0, 0].real:12.6f} {c0.Theta[i, 0, 0].real:12.6f} "
        f"{c3.Theta[i, 0, 0].real:12.6f}"
    )

tabs = build_ab_tables(D, f, SeriesConfig(max_order=3, eps_series=1e-10), grid)
out = Path("out")
out.mkdir(exist_ok=True)
dump_convergence_csv(tabs, out / "series_convergence.csv")
print(f"\nper-order norms at every grid time written to {out / 'series_convergence.csv'}")
