"""Dissipative position-momentum collapse model, end to end.

The coupled channels (q, -mu p) are eliminated against the 2x2
Heisenberg flow, giving seven time-local coefficients: decoherence
(Gamma), the mixed and momentum diffusion channels (Theta, gamma), the
anticommutator channels (Xi, Upsilon) and two Hamiltonian
renormalizations (alpha, beta).  The same coefficient tables drive a
truncated-Fock propagation and a closed-form Gaussian-moment
propagation; their agreement is the cross-method check.
"""

import numpy as np

from nmgme import (
    GaussianMoments,
    SeriesConfig,
    coefficients_qmupl,
    evolve,
    evolve_moments,
    fock_operators,
    make_exponential,
    make_grid,
    quadratic_hamiltonian,
)
from nmgme.scenarios import coherent_state

LAM, MU = 0.3, 0.1
T_FINAL = 3.0
DIM = 30

base = make_exponential(1.0, 0.5)
grid = make_grid(T_FINAL, 65)
coeffs, _ = coefficients_qmupl(
    LAM, MU, 1.0, 1.0, base, SeriesConfig(max_order=2, eps_series=1e-8), grid
)

print("seven coefficients at t =", T_FINAL)
i = grid.n_points - 1
print(f"  Gamma   = {coeffs.Gamma[i, 0, 0].real:+.6f}   (position decoherence)")
print(f"  Theta   = {coeffs.Theta[i, 0, 0].real:+.6f}   (mixed diffusion)")
print(f"  Im Xi   = {coeffs.Xi[i, 0, 0].imag:+.6f}   (anticommutator, q)")
print(f"  Im Ups  = {coeffs.Upsilon[i, 0, 0].imag:+.6f}   (anticommutator, p)")
print(f"  alpha   = {coeffs.alpha[i]:+.6f}   (p^2 Hamiltonian shift)")
print(f"  beta    = {coeffs.beta[i]:+.6f}   ({{q,p}} Hamiltonian shift)")
print(f"  gamma   = {coeffs.gamma_pp[i]:+.6f}   (momentum diffusion)")

ops_f = fock_operators(DIM)
q, p = ops_f["q"], ops_f["p"]
ops = {"A": [q], "V": [p], "H0": quadratic_hamiltonian(DIM), "q": q, "p": p}
alpha0 = 1.0
psi0 = coherent_state(DIM, alpha0)
observables = {"q": q, "p": p, "qq": q @ q, "pp": p @ p}
traj = evolve(
    np.outer(psi0, psi0.conj()), coeffs, ops, T_FINAL, 1e-3, 13,
    observables=observables,
)

mom0 = GaussianMoments.coherent(np.sqrt(2.0) * alpha0, 0.0)
mtraj = evolve_moments(mom0, coeffs, 1.0, 1.0, T_FINAL, 1e-3, 13)

print(f"\n{'t':>5} {'<q> Fock':>10} {'<q> moments':>12} {'s_qq Fock':>10} {'s_qq mom':>10}")
for k, t in enumerate(traj.times):
    sqq_f = traj.observables["qq"][k] - traj.observables["q"][k] ** 2
    print(
        f"{t:5.2f} {traj.observables['q'][k]:10.6f} {mtraj.means[k, 0]:12.6f} "
        f"{sqq_f:10.6f} {mtraj.covs[k, 0, 0]:10.6f}"
    )

dq = np.max(np.abs(np.array(traj.observables["q"]) - mtraj.means[:, 0]))
print(f"\nmax |<q>_Fock - <q>_moments| = {dq:.2e}")
print(f"trace drift over the run:     {abs(traj.diagnostics['trace'][-1] - 1):.1e}")
print(f"minimum eigenvalue seen:      {min(traj.diagnostics['min_eigenvalue']):+.1e}")
print(f"uncertainty relation held:    {mtraj.uncertainty_ok}")
