import json

import numpy as np
import pytest
import yaml

from nmgme.cli import main
from nmgme.scenarios import ConfigError, RunConfig


def write_config(tmp_path, payload, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def base_dephasing(tmp_path, out="out"):
    return {
        "kernel": {"family": "exponential", "gamma": 2.0, "tau_c": 1.0},
        "grid": {"t_max": 1.0, "n_points": 33},
        "propagation": {"h": 0.002, "n_samples": 11, "initial_state": {"type": "plus"}},
        "output_dir": str(tmp_path / out),
    }


def test_coeffs_scenario_writes_csv(tmp_path):
    cfg = {
        "model": "hpz",
        "kernel": {
            "family": "discrete_modes",
            "mode_freqs": [1.3],
            "couplings": [[0.2]],
        },
        "grid": {"t_max": 1.0, "n_points": 33},
        "series": {"max_order": 1, "eps_series": 1e-6, "quadrature": "trapezoid"},
        "output_dir": str(tmp_path / "out"),
    }
    rc = main(["coeffs", "--config", write_config(tmp_path, cfg)])
    assert rc == 0
    lines = (tmp_path / "out" / "coefficients.csv").read_text().splitlines()
    assert lines[0].split(",")[:9] == [
        "t",
        "Gamma_re", "Gamma_im",
        "Theta_re", "Theta_im",
        "Xi_re", "Xi_im",
        "Upsilon_re", "Upsilon_im",
    ]
    assert len(lines) == 34
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["series"]["max_order"] == 1
    # defaults are echoed
    assert report["config"]["propagation"]["fock_dim"] == 30


def test_dephasing_run_and_determinism(tmp_path):
    cfg = base_dephasing(tmp_path, out="out1")
    path = write_config(tmp_path, cfg)
    assert main(["dephasing", "--config", path]) == 0
    first = {
        name: (tmp_path / "out1" / name).read_bytes()
        for name in ("coefficients.csv", "trajectory.json", "report.json")
    }
    assert main(["dephasing", "--config", path]) == 0
    for name, payload in first.items():
        assert (tmp_path / "out1" / name).read_bytes() == payload


def test_cli_overrides(tmp_path):
    cfg = base_dephasing(tmp_path)
    path = write_config(tmp_path, cfg)
    out2 = str(tmp_path / "other")
    assert main(["dephasing", "--config", path, "--out", out2, "--grid", "17"]) == 0
    report = json.loads((tmp_path / "other" / "report.json").read_text())
    assert report["config"]["grid"]["n_points"] == 17
    assert report["config"]["output_dir"] == out2


def test_dump_rho_flag(tmp_path):
    cfg = base_dephasing(tmp_path)
    path = write_config(tmp_path, cfg)
    assert main(["dephasing", "--config", path, "--dump-rho"]) == 0
    traj = json.loads((tmp_path / "out" / "trajectory.json").read_text())
    assert "rho" in traj
    assert len(traj["rho"][0]) == 8


MODES = {"family": "discrete_modes", "mode_freqs": [1.0, 1.6], "couplings": [[0.2, [0.1, 0.05]]]}
SWEEP = {"eps_values": [0.1, 0.05], "strength": 1.0, "t_eval": 1.0, "n_points": 65}


def test_invalid_config_exit_2(tmp_path, capsys):
    cases = [
        ("dephasing", "grid", "n_points", 1, "grid.n_points"),
        ("dephasing", "series", "max_order", "2", "series.max_order"),
        ("dephasing", "kernel", "gamma", float("nan"), "kernel.gamma"),
        ("hpz", "kernel", "gama", 5.0, "kernel.gama"),
        ("hpz", "kernel", "gamma", "1", "kernel.gamma"),
        ("dephasing", "kernel", "gamma", -1.0, "kernel.gamma"),
        ("dephasing", "kernel", "tau_c", 0.0, "kernel.tau_c"),
        ("dephasing", "kernel", "strength", 1.0, "kernel.strength"),
        ("dephasing", "kernel", "family", "pink", "kernel.family"),
        ("dephasing", "kernel", "family", None, "kernel.family"),
        ("joos-zeh", "system", "lam", 0.0, "system.lam"),
        ("hpz", "propagation", "fock_dim", "30", "propagation.fock_dim"),
        ("hpz", "system", "lam", "0.1", "system.lam"),
        ("hpz", "system", "mu", "0.1", "system.mu"),
        ("hpz", "system", "m", "1", "system.m"),
        ("hpz", "system", "omega", "1", "system.omega"),
        ("hpz", "propagation", "h", "0.002", "propagation.h"),
        ("hpz", "grid", "t_max", "1.0", "grid.t_max"),
        ("hpz", "propagation", "fock_dim", True, "propagation.fock_dim"),
        ("hpz", "series", "eps_series", "1e-6", "series.eps_series"),
        ("hpz", "grid", "t_max", float("inf"), "grid.t_max"),
        ("hpz", "propagation", "h", float("nan"), "propagation.h"),
        ("hpz", "oracle", "h", float("inf"), "oracle.h"),
        ("hpz", "propagation", "n_samples", 0, "propagation.n_samples"),
        ("hpz", "propagation", "n_samples", 1, "propagation.n_samples"),
        ("hpz", "propagation", "n_samples", 11.0, "propagation.n_samples"),
        ("dephasing", "grid", "n_pionts", 65, "grid.n_pionts"),
        ("hpz", "propagation", "fock_dimm", 30, "propagation.fock_dimm"),
        ("hpz", "series", "max_ordr", 2, "series.max_ordr"),
        ("hpz", "system", "omgea", 1.0, "system.omgea"),
        ("oracle-check", "oracle", "mode_dim", [3], "oracle.mode_dim"),
        ("hpz", "propagation", "initial_state", {"alpha_re": "1"}, "propagation.initial_state.alpha_re"),
        ("hpz", "propagation", "initial_state", {"alpah_re": 1.0}, "propagation.initial_state.alpah_re"),
        ("hpz", "propagation", "initial_state", {"alpha_im": True}, "propagation.initial_state.alpha_im"),
        ("hpz", "propagation", "initial_state", {"type": "basis", "index": "3"}, "propagation.initial_state.index"),
        ("hpz", "propagation", "initial_state", {"type": "basis", "index": 2.7}, "propagation.initial_state.index"),
        ("hpz", "propagation", "initial_state", {"type": "basis", "index": True}, "propagation.initial_state.index"),
        ("hpz", "propagation", "initial_state", {"type": "basis", "index": 30}, "propagation.initial_state.index"),
        ("hpz", "propagation", "initial_state", {"type": "squeezed"}, "propagation.initial_state.type"),
        ("hpz", "propagation", "initial_state", {"type": ["basis"]}, "propagation.initial_state.type"),
        ("hpz", "propagation", "initial_state", {"type": "plus"}, "propagation.initial_state"),
        ("hpz", "propagation", "initial_state", "plus", "propagation.initial_state"),
        # key None: the value replaces the whole block
        ("dephasing", "kernel", None, {"family": "white_noise", "strength": 1.0, "eps": 0.0}, "kernel.eps"),
        ("dephasing", "kernel", None, {"family": "white_noise", "strength": 0.0}, "kernel.strength"),
        ("dephasing", "kernel", None, {"family": "white_noise", "gamma": 1.0}, "kernel.gamma"),
        ("dephasing", "kernel", None, {**MODES, "tau_c": 0.5}, "kernel.tau_c"),
        ("dephasing", "kernel", None, {"family": "discrete_modes", "couplings": [[0.2]]}, "kernel.mode_freqs"),
        ("dephasing", "kernel", None, {"family": "discrete_modes", "mode_freqs": [1.0]}, "kernel.couplings"),
        ("dephasing", "kernel", None, {**MODES, "mode_freqs": []}, "kernel.mode_freqs"),
        ("dephasing", "kernel", None, {**MODES, "mode_freqs": [1.0, -1.6]}, "kernel.mode_freqs"),
        ("dephasing", "kernel", None, {**MODES, "mode_freqs": [1.0, "1.6"]}, "kernel.mode_freqs"),
        ("dephasing", "kernel", None, {**MODES, "couplings": [[0.2]]}, "kernel.couplings"),
        ("dephasing", "kernel", None, {**MODES, "couplings": [0.2, 0.1]}, "kernel.couplings"),
        ("dephasing", "kernel", None, {**MODES, "couplings": [[0.2, [0.1, "0"]]]}, "kernel.couplings"),
        ("dephasing", "kernel", None, {**MODES, "couplings": [[0.2, [0.1, 0.0, 0.0]]]}, "kernel.couplings"),
        ("dephasing", "kernel", None, {**MODES, "couplings": [[0.2, float("inf")]]}, "kernel.couplings"),
        ("oracle-check", "kernel", None, {"family": "exponential"}, "kernel.family"),
        # one coupling row per system channel; every model has one
        ("oracle-check", "kernel", None, {**MODES, "couplings": [[0.2, 0.1], [0.1, 0.1]]}, "kernel.couplings"),
        ("hpz", "kernel", None, {**MODES, "couplings": [[0.2, 0.1], [0.1, 0.1]]}, "kernel.couplings"),
        ("oracle-check", "model", None, "qmupl", "model"),
        ("coeffs", "model", None, "pink", "model"),
        ("dephasing", "white_noise_sweep", None, {**SWEEP, "strenght": 2.0}, "white_noise_sweep.strenght"),
        ("dephasing", "white_noise_sweep", None, {**SWEEP, "n_points": 64.5}, "white_noise_sweep.n_points"),
        ("dephasing", "white_noise_sweep", None, {**SWEEP, "n_points": 1}, "white_noise_sweep.n_points"),
        ("dephasing", "white_noise_sweep", None, {**SWEEP, "strength": float("nan")}, "white_noise_sweep.strength"),
        ("dephasing", "white_noise_sweep", None, {**SWEEP, "t_eval": 0.0}, "white_noise_sweep.t_eval"),
        ("dephasing", "white_noise_sweep", None, {**SWEEP, "eps_values": []}, "white_noise_sweep.eps_values"),
        ("dephasing", "white_noise_sweep", None, {**SWEEP, "eps_values": [0.1, -0.05]}, "white_noise_sweep.eps_values"),
        ("dephasing", "white_noise_sweep", None, {"strength": 1.0}, "white_noise_sweep.eps_values"),
        ("dephasing", "white_noise_sweep", None, [0.1, 0.05], "white_noise_sweep"),
    ]
    for scenario, block, key, value, field_path in cases:
        cfg = base_dephasing(tmp_path)
        if key is None:
            cfg[block] = value
        else:
            cfg.setdefault(block, {})[key] = value
        rc = main([scenario, "--config", write_config(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert rc == 2, field_path
        err = json.loads(captured.err)
        assert err["error"] == "invalid_config"
        assert err["field"] == field_path
        # rejected before any computation: no output directory yet
        assert not (tmp_path / "out").exists()


def test_unknown_key_exit_2(tmp_path, capsys):
    cfg = base_dephasing(tmp_path)
    cfg["kernell"] = {}
    rc = main(["dephasing", "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["field"] == "kernell"


def test_runtime_abort_exit_3(tmp_path, capsys):
    # tiny truncation with an energetic coherent state trips the guard
    cfg = {
        "kernel": {"family": "exponential", "gamma": 4.0, "tau_c": 0.2},
        "system": {"m": 1.0, "omega": 1.0, "lam": 1.0, "mu": 0.0},
        "grid": {"t_max": 2.0, "n_points": 33},
        "propagation": {
            "fock_dim": 4,
            "h": 0.002,
            "n_samples": 5,
            "initial_state": {"type": "coherent", "alpha_re": 1.2, "alpha_im": 0.0},
        },
        "output_dir": str(tmp_path / "out"),
    }
    rc = main(["joos-zeh", "--config", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert rc == 3
    err = json.loads(captured.err)
    assert err["error"] == "runtime_abort"
    assert "truncation" in err["message"]


def test_missing_config_exit_2(tmp_path, capsys):
    rc = main(["dephasing", "--config", str(tmp_path / "nope.yaml")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config_unreadable"


def test_oracle_check_report(tmp_path):
    cfg = {
        "model": "dephasing",
        "kernel": {
            "family": "discrete_modes",
            "mode_freqs": [1.0, 1.6],
            "couplings": [[0.2, 0.2]],
        },
        "grid": {"t_max": 2.0, "n_points": 65},
        "propagation": {"h": 0.002, "n_samples": 11, "initial_state": {"type": "plus"}},
        "oracle": {"mode_dims": [5, 5], "h": 0.004},
        "output_dir": str(tmp_path / "out"),
    }
    rc = main(["oracle-check", "--config", write_config(tmp_path, cfg)])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["max_trace_distance"] < 1e-4
    assert report["recurrence_time_estimate"] == pytest.approx(2 * np.pi / 0.6)
    assert (tmp_path / "out" / "oracle_trajectory.json").exists()


def test_oracle_h_has_no_effect(tmp_path):
    # oracle.h is accepted for old configs; the oracle takes no steps
    cfg = {
        "model": "dephasing",
        "kernel": {"family": "discrete_modes", "mode_freqs": [1.0, 1.6], "couplings": [[0.2, 0.2]]},
        "grid": {"t_max": 1.0, "n_points": 33},
        "propagation": {"h": 0.002, "n_samples": 11, "initial_state": {"type": "plus"}},
    }
    outputs = []
    for h in (2e-3, 1e-2):
        out = tmp_path / f"h{h}"
        run = dict(cfg, oracle={"mode_dims": [4, 4], "h": h}, output_dir=str(out))
        assert main(["oracle-check", "--config", write_config(tmp_path, run)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("oracle_trajectory.json", "trajectory.json")])
    assert outputs[0] == outputs[1]


def test_joos_zeh_with_sweep(tmp_path):
    cfg = {
        "kernel": {"family": "white_noise", "strength": 1.0, "eps": 0.05},
        "system": {"m": 1.0, "omega": 1.0, "lam": 1.0, "mu": 0.0},
        "grid": {"t_max": 1.0, "n_points": 65},
        "propagation": {
            "fock_dim": 24,
            "h": 0.002,
            "n_samples": 6,
            "initial_state": {"type": "coherent", "alpha_re": 0.5, "alpha_im": 0.0},
        },
        "white_noise_sweep": {
            "strength": 1.0,
            "eps_values": [0.2, 0.1],
            "t_eval": 2.0,
            "n_points": 321,
        },
        "output_dir": str(tmp_path / "out"),
    }
    rc = main(["joos-zeh", "--config", write_config(tmp_path, cfg)])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    wn = report["white_noise_limit"]
    assert wn["theta_monotone_decreasing"]
    assert abs(wn["gamma_ratio_extrapolated"] + 1.0) < 0.05


def test_hpz_scenario_and_oracle_check(tmp_path):
    common = {
        "kernel": {
            "family": "discrete_modes",
            "mode_freqs": [1.3],
            "couplings": [[0.2]],
        },
        "system": {"m": 1.0, "omega": 1.0},
        "grid": {"t_max": 1.0, "n_points": 33},
        "series": {"max_order": 1, "eps_series": 1e-6, "quadrature": "trapezoid"},
        "propagation": {
            "fock_dim": 12,
            "h": 0.002,
            "n_samples": 6,
            "initial_state": {"type": "coherent", "alpha_re": 0.7, "alpha_im": 0.0},
        },
        "output_dir": str(tmp_path / "hpz"),
    }
    assert main(["hpz", "--config", write_config(tmp_path, common)]) == 0
    report = json.loads((tmp_path / "hpz" / "report.json").read_text())
    assert report["max_achieved_order"] == 1
    assert (tmp_path / "hpz" / "series_convergence.csv").exists()

    common["model"] = "hpz"
    common["oracle"] = {"mode_dims": [5], "h": 0.004}
    common["output_dir"] = str(tmp_path / "oc")
    rc = main(["oracle-check", "--config", write_config(tmp_path, common, "oc.yaml")])
    assert rc == 0
    report = json.loads((tmp_path / "oc" / "report.json").read_text())
    assert report["max_trace_distance"] < 5e-3


def test_qmupl_scenario(tmp_path):
    cfg = {
        "kernel": {"family": "exponential", "gamma": 1.0, "tau_c": 0.5},
        "system": {"m": 1.0, "omega": 1.0, "lam": 0.2, "mu": 0.1},
        "grid": {"t_max": 1.0, "n_points": 33},
        "series": {"max_order": 2, "eps_series": 1e-6, "quadrature": "trapezoid"},
        "propagation": {
            "fock_dim": 16,
            "h": 0.002,
            "n_samples": 6,
            "initial_state": {"type": "coherent", "alpha_re": 0.8, "alpha_im": 0.0},
        },
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["qmupl", "--config", write_config(tmp_path, cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["moment_fock_max_dq"] < 1e-6
    header = (tmp_path / "out" / "coefficients.csv").read_text().splitlines()[0]
    assert "gamma_pp" in header


def test_run_config_validation_direct():
    with pytest.raises(ConfigError, match="scenario"):
        RunConfig.from_dict({"scenario": "nope"})
    cfg = RunConfig.from_dict({"scenario": "dephasing"})
    assert cfg.kernel["family"] == "exponential"
    # a given kernel block replaces the exponential default, not merges into it
    assert RunConfig.from_dict({"scenario": "oracle-check", "kernel": MODES}).kernel == MODES
    cfg = RunConfig.from_dict({"scenario": "dephasing", "kernel": {"gamma": 2.0}})
    assert cfg.kernel == {"family": "exponential", "gamma": 2.0}
