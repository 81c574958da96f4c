"""Series coefficients converge to the exact time-local generator.

For a linear system the exact reduced dynamics is Gaussian, so the exact
time-local coefficients can be *extracted* from brute-force moments: two
mean trajectories pin the drift matrix, a covariance trajectory then
pins the diffusion matrix.  Comparing the contraction series against
these moment-extracted values shows geometric convergence order by
order -- the sharpest validation of the kernel machinery in this repo.

Runtime: about a second (brute-force joint evolution dominates).
"""

import numpy as np

from nmgme import (
    JointModel,
    SeriesConfig,
    assemble_AB,
    commutator_kernel,
    evolve_joint,
    fock_operators,
    harmonic_kernels,
    make_discrete_modes,
    make_grid,
    quadratic_hamiltonian,
)
from nmgme.grids import quad_weights
from nmgme.scenarios import coherent_state

M, OMEGA = 1.0, 1.0
W_MODE, G_COUP = 1.3, 0.3
T_STAR = 2.0
DIM_S = 40

ops_f = fock_operators(DIM_S, M, OMEGA)
H0 = quadratic_hamiltonian(DIM_S, M, OMEGA)
q, p = ops_f["q"], ops_f["p"]


model = JointModel(
    h_system=H0,
    channel_ops=(q,),
    mode_freqs=(W_MODE,),
    couplings=np.array([[G_COUP]]),
    mode_dims=(10,),
)

print("extracting the exact generator at t* =", T_STAR, "by moment matching ...")
h_s = 0.002
stencil = np.array([-2, -1, 0, 1, 2])
t_samples = T_STAR + stencil * h_s
n_samp = int(round(t_samples[-1] / h_s)) + 1

mus, covs = [], []
for alpha in (1.2, 1.2j):
    traj = evolve_joint(model, coherent_state(DIM_S, alpha), t_samples[-1], n_samp)
    idx = [int(np.argmin(np.abs(traj.times - t))) for t in t_samples]
    states = [traj.states[i] for i in idx]
    mq = np.array([np.real(np.trace(q @ r)) for r in states])
    mp = np.array([np.real(np.trace(p @ r)) for r in states])
    mus.append(np.array([mq, mp]))
    cv = []
    for i, r in enumerate(states):
        eq = np.real(np.trace(q @ q @ r))
        ep = np.real(np.trace(p @ p @ r))
        eqp = np.real(np.trace((q @ p + p @ q) @ r))
        cv.append(
            [
                [eq - mq[i] ** 2, eqp / 2 - mq[i] * mp[i]],
                [eqp / 2 - mq[i] * mp[i], ep - mp[i] ** 2],
            ]
        )
    covs.append(np.array(cv))

d4 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h_s)
U = np.column_stack([mus[0][:, 2], mus[1][:, 2]])
dU = np.column_stack([mus[0] @ d4, mus[1] @ d4])
M_ex = dU @ np.linalg.inv(U)
cov0 = covs[0][2]
D_ex = np.tensordot(d4, covs[0], axes=(0, 0)) - M_ex @ cov0 - cov0 @ M_ex.T

targets = {
    "Gamma": -0.5 * D_ex[1, 1],
    "Theta": 0.5 * (D_ex[0, 1] + D_ex[1, 0]),
    "Im Xi": M_ex[1, 0] + M * OMEGA**2,
    "Im Upsilon": M_ex[1, 1],
}
print("exact values:", {k: round(float(v), 8) for k, v in targets.items()})

D = make_discrete_modes([W_MODE], [[G_COUP]])
kern = harmonic_kernels(M, OMEGA)
f = commutator_kernel(kern, ["q"])
grid = make_grid(T_STAR, 401)
w = quad_weights(grid.n_points, grid.h)
u = T_STAR - grid.points
Cv = kern.flow(u)[0, 0]
Ctv = kern.flow(u)[0, 1]

print(f"\n{'order':>5} {'|dGamma|':>11} {'|dTheta|':>11} {'|dXi|':>11} {'|dUpsilon|':>11}")
for N in (1, 2, 3, 4):
    res = assemble_AB(D, f, SeriesConfig(max_order=N, eps_series=1e-30), T_STAR, grid)
    vals = {
        "Gamma": -np.dot(w, res.A[0, 0] * Cv).real,
        "Theta": -np.dot(w, res.A[0, 0] * Ctv).real,
        "Im Xi": (-2j * np.dot(w, res.B[0, 0] * Cv)).imag,
        "Im Upsilon": (-2j * np.dot(w, res.B[0, 0] * Ctv)).imag,
    }
    devs = [abs(vals[k] - targets[k]) for k in targets]
    print(f"{N:5d} " + " ".join(f"{d:11.3e}" for d in devs))
print("\neach extra order cuts the deviation by roughly an order of magnitude")
