"""Artifact contract of every scenario and model.

Each case runs at tiny sizes and pins the files written, the keys of
``report.json`` and, where a trajectory is written, its ``scenario``,
its ``source``, its exact key set, the keys of its ``params``, its
observable names and its diagnostics.
"""

import dataclasses
import json
from decimal import Decimal, localcontext

import numpy as np
import pytest

from nmgme import scenarios
from nmgme.propagate import evolve
from nmgme.scenarios import RunConfig, coherent_state, run

from helpers import product_coherent_state

EXP = {"family": "exponential", "gamma": 1.0, "tau_c": 0.5}
MODES = {"family": "discrete_modes", "mode_freqs": [1.0, 1.6], "couplings": [[0.2, [0.1, 0.05]]]}
SYSTEM = {"m": 1.0, "omega": 1.0, "lam": 0.2, "mu": 0.1}
SERIES = {"max_order": 1, "eps_series": 1e-6, "quadrature": "trapezoid"}
FOCK = {"fock_dim": 8, "h": 0.01, "n_samples": 3, "initial_state": {"type": "coherent", "alpha_re": 0.3}}
QUBIT = {"h": 0.01, "n_samples": 3, "initial_state": {"type": "plus"}}
SWEEP = {"eps_values": [0.2, 0.1], "strength": 1.0, "t_eval": 0.5, "n_points": 17}

BASE = {"coefficients.csv", "report.json"}
SERIES_KEYS = {"max_achieved_order", "max_last_order_norm", "all_converged"}
CLOSED_KEYS = {"series"}
TRAJ_KEYS = {"trace_drift_per_unit_time", "max_hermiticity_defect", "min_eigenvalue", "warnings"}
# where the truncation guard runs: Fock propagation outside oracle-check
FOCK_KEYS = TRAJ_KEYS | {"fock_headroom"}
ORACLE_KEYS = {"max_trace_distance", "recurrence_time_estimate"}
MOMENT_KEYS = {"moment_fock_max_dq", "moment_fock_max_dp", "moment_fock_max_dsecond", "uncertainty_ok"}
FOCK_OBS = {"mean_q", "mean_p", "var_q_raw", "var_p_raw", "mean_n"}
QUBIT_OBS = {"coherence_re", "population_0"}
# every key of trajectory.json and oracle_trajectory.json without dump_rho,
# and the per-sample diagnostics (the oracle's also log the joint norm)
TRAJ_FILE_KEYS = {"scenario", "source", "params", "times", "observables", "diagnostics", "warnings"}
DIAGNOSTICS = {"trace", "hermiticity_defect", "min_eigenvalue", "purity"}
# every field of each kernel family and initial-state type
FAMILY_KEYS = {
    "exponential": {"family", "gamma", "tau_c"},
    "white_noise": {"family", "strength", "eps"},
    "discrete_modes": {"family", "mode_freqs", "couplings"},
}
STATE_KEYS = {"coherent": {"type", "alpha_re", "alpha_im"}, "basis": {"type", "index"}, "plus": {"type"}}

# (id, scenario, extra config, files, report keys besides scenario/config,
#  trajectory (scenario, params keys, observables) or None)
CASES = [
    ("coeffs-dephasing", "coeffs", {"model": "dephasing", "kernel": EXP}, BASE, {"model"} | CLOSED_KEYS, None),
    ("coeffs-hpz", "coeffs", {"model": "hpz", "kernel": MODES},
     BASE | {"series_convergence.csv"}, {"model"} | SERIES_KEYS, None),
    ("coeffs-joos-zeh", "coeffs", {"model": "joos-zeh", "kernel": EXP, "system": SYSTEM},
     BASE, {"model"} | CLOSED_KEYS, None),
    ("coeffs-qmupl", "coeffs", {"model": "qmupl", "kernel": EXP, "system": SYSTEM},
     BASE | {"series_convergence.csv"}, {"model"} | SERIES_KEYS, None),
    ("dephasing", "dephasing", {"kernel": EXP, "propagation": QUBIT},
     BASE | {"trajectory.json"}, TRAJ_KEYS, ("dephasing", {"kernel"}, QUBIT_OBS)),
    ("hpz", "hpz", {"kernel": MODES, "propagation": FOCK},
     BASE | {"trajectory.json", "series_convergence.csv"}, SERIES_KEYS | FOCK_KEYS,
     ("hpz", {"system", "kernel"}, FOCK_OBS)),
    ("joos-zeh", "joos-zeh", {"kernel": EXP, "system": SYSTEM, "propagation": FOCK},
     BASE | {"trajectory.json"}, CLOSED_KEYS | FOCK_KEYS, ("joos-zeh", {"system", "kernel"}, FOCK_OBS)),
    ("joos-zeh-sweep", "joos-zeh", {"kernel": EXP, "system": SYSTEM, "propagation": FOCK, "white_noise_sweep": SWEEP},
     BASE | {"trajectory.json"}, CLOSED_KEYS | FOCK_KEYS | {"white_noise_limit"},
     ("joos-zeh", {"system", "kernel"}, FOCK_OBS)),
    ("qmupl-coherent", "qmupl", {"kernel": EXP, "system": SYSTEM, "propagation": FOCK},
     BASE | {"trajectory.json", "series_convergence.csv"},
     SERIES_KEYS | FOCK_KEYS | MOMENT_KEYS, ("qmupl", {"system", "kernel"}, FOCK_OBS)),
    ("qmupl-basis", "qmupl",
     {"kernel": EXP, "system": SYSTEM, "propagation": {**FOCK, "initial_state": {"type": "basis", "index": 1}}},
     BASE | {"trajectory.json", "series_convergence.csv"}, SERIES_KEYS | FOCK_KEYS,
     ("qmupl", {"system", "kernel"}, FOCK_OBS)),
    ("oracle-check-dephasing", "oracle-check",
     {"model": "dephasing", "kernel": MODES, "propagation": QUBIT, "oracle": {"mode_dims": [3, 3]}},
     BASE | {"trajectory.json", "oracle_trajectory.json"}, {"model"} | ORACLE_KEYS | TRAJ_KEYS,
     ("dephasing", set(), set())),
    ("oracle-check-hpz", "oracle-check",
     {"model": "hpz", "kernel": MODES, "propagation": FOCK, "oracle": {"mode_dims": [3, 3]}},
     BASE | {"trajectory.json", "oracle_trajectory.json"}, {"model"} | ORACLE_KEYS | TRAJ_KEYS,
     ("hpz", set(), set())),
]


@pytest.mark.parametrize("scenario, extra, files, report_keys, trajectory", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_artifact_contract(tmp_path, scenario, extra, files, report_keys, trajectory):
    raw = {"scenario": scenario, "grid": {"t_max": 0.5, "n_points": 9}, "series": SERIES,
           "output_dir": str(tmp_path / "out"), **extra}
    returned = run(RunConfig.from_dict(raw))
    out = tmp_path / "out"
    assert {f.name for f in out.iterdir()} == files
    report = json.loads((out / "report.json").read_text())
    assert set(report) == report_keys | {"scenario", "config"}
    assert report["scenario"] == scenario
    # the resolved config names the model that ran
    assert report["config"]["model"] == report.get("model", scenario)
    if "fock_headroom" in report:
        assert 0.0 <= report["fock_headroom"] <= 1e-6
    assert set(returned) == set(report)
    # every default the run used is in the config, which resolves to itself
    config = report["config"]
    assert set(config["kernel"]) == FAMILY_KEYS[config["kernel"]["family"]]
    state = config["propagation"]["initial_state"]
    assert set(state) == STATE_KEYS[state["type"]]
    assert dataclasses.asdict(RunConfig.from_dict(config)) == config
    if trajectory is None:
        return
    name, params, observables = trajectory
    for path, source in (("trajectory.json", "me"), ("oracle_trajectory.json", "oracle")):
        if path in files:
            traj = json.loads((out / path).read_text())
            assert set(traj) == TRAJ_FILE_KEYS
            assert (traj["scenario"], traj["source"]) == (name, source)
            assert set(traj["params"]) == params
            assert set(traj["observables"]) == observables
            assert set(traj["diagnostics"]) == DIAGNOSTICS | ({"norm"} if source == "oracle" else set())


def test_moment_check_sees_a_diffusion_error(tmp_path):
    # Gamma only enters the momentum diffusion: scaling it in the Fock run
    # alone leaves the means as they are and moves the second moments
    cfg = RunConfig.from_dict({
        "scenario": "qmupl", "kernel": EXP, "system": SYSTEM, "series": SERIES,
        "grid": {"t_max": 0.5, "n_points": 9}, "output_dir": str(tmp_path / "out"),
        "propagation": {**FOCK, "fock_dim": 16, "h": 2e-3, "n_samples": 5},
    })
    grid, coeffs, _ = scenarios._coefficients_for(cfg, cfg.model)
    dim, ops, observables, _ = scenarios._system_for(cfg, cfg.model)
    psi0 = scenarios._initial_state(cfg.propagation["initial_state"], dim)
    p = cfg.propagation
    checks = {}
    for scale in (1.0, 1.01):
        fock = dataclasses.replace(coeffs, Gamma=scale * coeffs.Gamma)
        traj = evolve(np.outer(psi0, psi0.conj()), fock, ops, grid.t_max, p["h"], p["n_samples"],
                      observables=observables)
        checks[scale] = scenarios._moment_check(cfg, coeffs, grid, traj)
    assert set(checks[1.0]) == MOMENT_KEYS
    for scale, check in checks.items():
        assert check["moment_fock_max_dq"] < 1e-13, scale
        assert check["moment_fock_max_dp"] < 1e-13, scale
    # the second moments differ by the RK4 error of cov = <q^2> - <q>^2
    assert checks[1.0]["moment_fock_max_dsecond"] < 1e-11
    assert checks[1.01]["moment_fock_max_dsecond"] > 1e-8


def _decimal_coherent_state(dim: int, alpha: float) -> np.ndarray:
    """The coherent state of a real ``alpha`` at 40 digits: ``alpha^n /
    sqrt(n!)``, normalized."""
    with localcontext() as ctx:
        ctx.prec = 40
        a, amps = Decimal(alpha), [Decimal(1)]
        for n in range(1, dim):
            amps.append(amps[-1] * a / Decimal(n).sqrt())
        norm = sum(x * x for x in amps).sqrt()
        return np.array([float(x / norm) for x in amps])


@pytest.mark.parametrize("alpha", [0.5j, complex(1.0, 0.5), -1.3, complex(-0.4, -2.0)])
def test_projector_is_exactly_hermitian(alpha):
    # -1.3 has amplitudes with imaginary parts ~1e-17 from the phase of
    # alpha, so it is complex too
    psi = coherent_state(20, alpha)
    rho = scenarios._projector(psi)
    assert np.array_equal(rho, rho.conj().T)
    assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) <= 1e-16


@pytest.mark.parametrize("psi", [
    coherent_state(20, 1.0),
    np.array([0.5, -0.5, 0.0, -0.0, 0.5, -0.5], dtype=complex),
    np.eye(5, dtype=complex)[2],
])
def test_projector_of_a_real_state_is_the_complex_product(psi):
    # every bit of np.outer(psi, psi.conj()), signed zeros included
    assert scenarios._projector(psi).tobytes() == np.outer(psi, psi.conj()).tobytes()


def test_coherent_state_has_no_overflow():
    # alpha^n and exp(log(n!) / 2) both overflow at (400, 10)
    psi = coherent_state(400, 10.0)
    assert np.isfinite(psi).all()
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-15
    assert not np.isfinite(product_coherent_state(400, 10.0)).all()
    assert np.max(np.abs(psi - _decimal_coherent_state(400, 10.0))) <= 1e-15


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 1 + 1j, 0.6j, -2.5 + 0.3j, 3.0, -3j])
@pytest.mark.parametrize("dim", [2, 3, 8, 30, 40, 100, 400])
def test_coherent_state_matches_the_product_formula(dim, alpha):
    # every |alpha| up to 3, beyond those of the configs, tests and demos
    # (at most 1): both formulas are within rounding of the state
    old = product_coherent_state(dim, alpha)
    assert np.isfinite(old).all()
    assert np.max(np.abs(coherent_state(dim, alpha) - old)) <= 1e-15


@pytest.mark.parametrize("alpha", [7.0, 10.0, 20.0, 30.0])
@pytest.mark.parametrize("dim", [10, 40, 100, 300])
def test_coherent_state_matches_40_digits_where_the_product_formula_drifts(dim, alpha):
    # where the product formula is finite on these cases it is off by up
    # to 8.4e-15, and by 5.1e-3 at alpha 30 in 40 levels, where its
    # squares fall below the normal range; the outward ratios stay within
    # rounding of 40-digit values
    assert np.max(np.abs(coherent_state(dim, alpha) - _decimal_coherent_state(dim, alpha))) <= 1e-15
