import copy
import json

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nmgme import scenarios, series
from nmgme.cli import main
from nmgme.scenarios import ConfigError, RunConfig, white_noise_limit_report

from helpers import product_coherent_state


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


@pytest.mark.parametrize("in_config", [True, False])
def test_dump_rho_on_coeffs_exit_2(tmp_path, capsys, in_config):
    # coeffs writes no trajectory, so there are no states to dump
    cfg = {**base_dephasing(tmp_path), "model": "dephasing"}
    if in_config:
        cfg["dump_rho"] = True
    flags = [] if in_config else ["--dump-rho"]
    assert main(["coeffs", "--config", write_config(tmp_path, cfg), *flags]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["field"]) == ("invalid_config", "dump_rho")
    assert not (tmp_path / "out").exists()


MODES = {"family": "discrete_modes", "mode_freqs": [1.0, 1.6], "couplings": [[0.2, [0.1, 0.05]]]}
ORACLE_2 = {"model": "dephasing", "kernel": MODES}
SWEEP = {"eps_values": [0.1, 0.05], "strength": 1.0, "t_eval": 1.0, "n_points": 65}
#: A Fock run's blocks for the invalid-config cases: the default state
FOCK_RUN = {"system": {"lam": 1.0}, "propagation": {"h": 0.002, "n_samples": 11}}
#: A Fock run from the ground state
BASIS_RUN = {"propagation": {"h": 0.002, "n_samples": 11, "initial_state": {"type": "basis", "index": 0}}}


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
        # a line in eps^2 needs two distinct widths
        ("dephasing", "white_noise_sweep", None, {**SWEEP, "eps_values": [0.1]}, "white_noise_sweep.eps_values"),
        ("dephasing", "white_noise_sweep", None, {**SWEEP, "eps_values": [0.1, 0.1]}, "white_noise_sweep.eps_values"),
        ("dephasing", "white_noise_sweep", None, {"strength": 1.0}, "white_noise_sweep.eps_values"),
        # the squares overflow, or both are 0: checked before the run
        ("joos-zeh", "white_noise_sweep", None, {**SWEEP, "eps_values": [1.0e200, 1.0e180]},
         "white_noise_sweep.eps_values", FOCK_RUN),
        ("joos-zeh", "white_noise_sweep", None, {**SWEEP, "eps_values": [1.0e-200, 1.0e-201]},
         "white_noise_sweep.eps_values", FOCK_RUN),
        ("dephasing", "white_noise_sweep", None, [0.1, 0.05], "white_noise_sweep"),
        # a valid sweep on a scenario that does not run it
        ("hpz", "white_noise_sweep", None, SWEEP, "white_noise_sweep"),
        # oracle Fock dimensions, checked before the master-equation run;
        # the last entry of a case holds further blocks of the config
        ("oracle-check", "oracle", "mode_dims", [3, 1.5], "oracle.mode_dims", ORACLE_2),
        ("oracle-check", "oracle", "mode_dims", [80, 80], "oracle.mode_dims", ORACLE_2),
        ("oracle-check", "oracle", "mode_dims", [3], "oracle.mode_dims", ORACLE_2),
        ("oracle-check", "oracle", "mode_dims", [3, True], "oracle.mode_dims", ORACLE_2),
        ("oracle-check", "oracle", "mode_dims", [0, 3], "oracle.mode_dims", ORACLE_2),
        ("oracle-check", "oracle", "mode_dims", 3, "oracle.mode_dims", ORACLE_2),
        ("dephasing", "oracle", "mode_dims", [3, "4"], "oracle.mode_dims"),
        # the default of 6 per mode on five modes: 2 * 6^5 > 4096
        ("oracle-check", "oracle", "mode_dims", None, "oracle.mode_dims",
         {**ORACLE_2, "kernel": {**MODES, "mode_freqs": [1.0] * 5, "couplings": [[0.1] * 5]}}),
        # top-level values: no value is ignored, replaced or taken by truthiness
        ("dephasing", "output_dir", None, ["a", "b"], "output_dir"),
        ("dephasing", "output_dir", None, "", "output_dir"),
        ("dephasing", "dump_rho", None, "no", "dump_rho"),
        ("dephasing", "dump_rho", None, 7, "dump_rho"),
        ("hpz", "model", None, "qmupl", "model"),
        ("dephasing", "model", None, 5, "model"),
        ("hpz", "scenario", None, "qmupl", "scenario"),
        ("coeffs", "scenario", None, None, "scenario"),
        # the collapse model's shifted frequency sqrt(omega^2 - (lam mu)^2)
        ("qmupl", "system", None, {"lam": 4.0, "mu": 0.25}, "system"),
        ("coeffs", "system", None, {"lam": 4.0, "mu": 0.5}, "system", {"model": "qmupl"}),
        # a correlation that overflows at lag 0, in the kernel or the
        # collapse strength; the series also squares it
        ("dephasing", "kernel", None, {"family": "exponential", "gamma": 1.0e300, "tau_c": 1.0e-300}, "kernel"),
        ("dephasing", "kernel", None, {**MODES, "mode_freqs": [1.0], "couplings": [[1.0e200]]}, "kernel"),
        ("qmupl", "system", None, {"lam": 1.0e300}, "kernel", FOCK_RUN),
        # omega^2 leaves the float range where a run squares omega: the
        # Fock Hamiltonian of every model but dephasing, the qmupl flow
        ("hpz", "system", "omega", 1.0e200, "system.omega", BASIS_RUN),
        ("qmupl", "system", "omega", 1.0e200, "system.omega", BASIS_RUN),
        ("joos-zeh", "system", None, {"lam": 1.0, "omega": 1.0e200}, "system.omega", BASIS_RUN),
        ("oracle-check", "system", "omega", 1.0e200, "system.omega", {**BASIS_RUN, "model": "hpz", "kernel": MODES}),
        ("coeffs", "system", "omega", 1.0e200, "system.omega", {"model": "qmupl"}),
    ]
    for scenario, block, key, value, field_path, *extra in cases:
        cfg = base_dephasing(tmp_path)
        cfg.update(*extra)
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


@pytest.mark.parametrize("text, flags, rc, field", [
    ("[1, 2]\n", [], 2, "<root>"),
    ("5\n", [], 2, "<root>"),
    ("hello\n", [], 2, "<root>"),
    ("[]\n", [], 2, "<root>"),
    ("grid: 5\n", ["--grid", "5"], 2, "grid"),
    ("{1: 2, a: 3}\n", [], 2, "1"),
    # an empty config runs every default; a config scenario may repeat the
    # command line's, and a model its scenario
    ("", ["--grid", "5"], 0, None),
    ("scenario: coeffs\nmodel: dephasing\n", ["--grid", "5"], 0, None),
])
def test_config_tree_checked_before_output(tmp_path, monkeypatch, capsys, text, flags, rc, field):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.yaml").write_text(text)
    assert main(["coeffs", "--config", "run.yaml", *flags]) == rc
    if field is not None:
        assert json.loads(capsys.readouterr().err)["field"] == field
    assert (tmp_path / "out").exists() == (rc == 0)


@pytest.mark.parametrize("scenario, model", [("coeffs", "hpz"), ("coeffs", "joos-zeh"), ("oracle-check", "dephasing")])
def test_runs_that_never_square_omega_take_an_omega_whose_square_overflows(tmp_path, scenario, model):
    # the hpz and joos-zeh coefficients read omega through cos and sin of
    # omega u, and the dephasing qubit not at all
    cfg = {**base_dephasing(tmp_path), "model": model, "system": {"omega": 1.0e200, "lam": 0.1}}
    if scenario == "oracle-check":
        cfg.update(kernel=MODES, oracle={"mode_dims": [3, 3]})
    else:  # the qubit's plus state is no Fock state
        del cfg["propagation"]
    assert main([scenario, "--config", write_config(tmp_path, cfg)]) == 0


def test_model_may_name_its_own_scenario(tmp_path):
    cfg = base_dephasing(tmp_path)
    cfg.update(scenario="dephasing", model="dephasing")
    assert main(["dephasing", "--config", write_config(tmp_path, cfg)]) == 0


#: A valid tiny ``coeffs`` config, the seed of the fuzzed configs.
TINY_COEFFS = {
    "model": "qmupl",
    "kernel": {"family": "exponential", "gamma": 1.0, "tau_c": 0.5},
    "system": {"m": 1.0, "omega": 1.0, "lam": 0.2, "mu": 0.1},
    "grid": {"t_max": 0.5, "n_points": 5},
    "series": {"max_order": 2, "eps_series": 1e-6, "quadrature": "trapezoid"},
    "propagation": {"initial_state": {"type": "coherent", "alpha_re": 1.0}},
    "output_dir": "out",
}
#: Values a mutation writes; small numbers keep every run cheap
FUZZ_VALUES = [
    None, True, False, 0, 1, 3, -1, 0.5, 2.5, float("nan"), float("inf"), "", "x",
    "hpz", "qmupl", "dephasing", "coeffs", "discrete_modes", "simpson", [], [1, 2], ["a", "b"], {}, {"x": 1},
]
FUZZ_KEYS = ["scenario", "model", "output_dir", "dump_rho", "kernel", "grid", "mode_freqs", "n_points", "type", "x"]


def _paths(tree, prefix=()):
    """Every path of the config tree, the root first."""
    yield prefix
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _paths(value, prefix + (key,))


@st.composite
def mutated_configs(draw):
    cfg = {"root": copy.deepcopy(TINY_COEFFS)}
    for _ in range(draw(st.integers(1, 3))):
        path = ("root",) + draw(st.sampled_from(list(_paths(cfg["root"]))))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["set", "delete", "add"]))
        if action == "set" or (action == "delete" and len(path) == 1):
            parent[path[-1]] = draw(st.sampled_from(FUZZ_VALUES))
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent[path[-1]], dict):
            parent[path[-1]][draw(st.sampled_from(FUZZ_KEYS))] = draw(st.sampled_from(FUZZ_VALUES))
    return cfg["root"]


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=mutated_configs())
def test_fuzzed_config_exits_0_or_2(tmp_path, monkeypatch, capsys, cfg):
    # a config either runs or names its bad field: no trace, no exit 1 or 3
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(cfg))
    assert main(["coeffs", "--config", "run.yaml"]) in (0, 2), capsys.readouterr().err


def test_coeffs_checks_initial_state_against_the_model_system(tmp_path):
    # the dephasing model is a qubit, also under coeffs, which never propagates
    cfg = base_dephasing(tmp_path)
    cfg["model"] = "dephasing"
    assert cfg["propagation"]["initial_state"] == {"type": "plus"}
    assert main(["coeffs", "--config", write_config(tmp_path, cfg)]) == 0


@pytest.mark.parametrize("scenario, model", [
    ("qmupl", None), ("joos-zeh", None), ("coeffs", "qmupl"), ("coeffs", "joos-zeh"),
])
def test_complex_kernel_exit_2_without_output(tmp_path, capsys, scenario, model):
    # the non-dissipative and collapse models need a real kernel
    cfg = base_dephasing(tmp_path)
    cfg["kernel"] = {"family": "discrete_modes", "mode_freqs": [1.3], "couplings": [[0.2]]}
    cfg["system"] = {"lam": 0.1}
    if model is not None:
        cfg["model"] = model
    rc = main([scenario, "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["field"] == "kernel"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["taken", "taken/out"])
def test_unusable_output_dir_exit_2(tmp_path, capsys, out):
    # a path that is a file, or lies under one, cannot be the output directory
    (tmp_path / "taken").write_text("kept\n")
    cfg = {**base_dephasing(tmp_path, out), "model": "dephasing"}
    rc = main(["coeffs", "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["field"]) == ("invalid_config", "output_dir")
    assert (tmp_path / "taken").read_text() == "kept\n"


def test_memory_error_exit_3(tmp_path, monkeypatch, capsys):
    # a grid too large to allocate ends the run as a runtime abort
    def exhausted(cfg):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr("nmgme.cli.run", exhausted)
    cfg = {**base_dephasing(tmp_path), "model": "dephasing"}
    rc = main(["coeffs", "--config", write_config(tmp_path, cfg)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "runtime_abort" and "74.5 GiB" in err["message"]


def test_unknown_key_exit_2(tmp_path, capsys):
    cfg = base_dephasing(tmp_path)
    cfg["kernell"] = {}
    rc = main(["dephasing", "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["field"] == "kernell"


def test_runtime_abort_exit_3(tmp_path, capsys):
    # a small truncation that the strong diffusion fills trips the guard
    # (at t = 0.126); the initial state starts below its bound
    cfg = {
        "kernel": {"family": "exponential", "gamma": 4.0, "tau_c": 0.2},
        "system": {"m": 1.0, "omega": 1.0, "lam": 1.0, "mu": 0.0},
        "grid": {"t_max": 2.0, "n_points": 33},
        "propagation": {
            "fock_dim": 8,
            "h": 0.002,
            "n_samples": 5,
            "initial_state": {"type": "coherent", "alpha_re": 0.3, "alpha_im": 0.0},
        },
        "output_dir": str(tmp_path / "out"),
    }
    rc = main(["joos-zeh", "--config", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert rc == 3
    err = json.loads(captured.err)
    assert err["error"] == "runtime_abort"
    assert "truncation" in err["message"]


@pytest.mark.parametrize("scenario", ["hpz", "qmupl", "joos-zeh"])
def test_initial_state_over_the_truncation_guard_exit_2(tmp_path, capsys, scenario):
    # the default coherent state (alpha = 1) holds 5.839e-4 in the top two
    # of 8 levels, above the guard's 1e-6: rejected before the run
    cfg = {
        "kernel": {"family": "exponential", "gamma": 1.0, "tau_c": 0.5},
        "system": {"m": 1.0, "omega": 1.0, "lam": 0.2, "mu": 0.1},
        "grid": {"t_max": 0.5, "n_points": 9},
        "propagation": {"fock_dim": 8, "h": 0.01, "n_samples": 3},
        "output_dir": str(tmp_path / "out"),
    }
    assert main([scenario, "--config", write_config(tmp_path, cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["field"] == "propagation.initial_state"
    assert "5.839e-04" in err["message"]
    assert not (tmp_path / "out").exists()
    # the basis state next to the top levels fails too, the one below passes
    def basis(index):
        state = {"type": "basis", "index": index}
        return {"scenario": scenario, "system": cfg["system"], "propagation": {"fock_dim": 8, "initial_state": state}}

    with pytest.raises(ConfigError, match="top two Fock levels"):
        RunConfig.from_dict(basis(6))
    RunConfig.from_dict(basis(5))


def test_non_finite_initial_state_exit_2(tmp_path, monkeypatch, capsys):
    # a coherent state of alpha 10 in 400 levels passes; the former product
    # formula overflowed on it to NaN, which the headroom check let through
    # (nan > 1e-6 is false) and the run then stopped on with exit 3
    cfg = {
        "kernel": {"family": "exponential", "gamma": 1.0, "tau_c": 0.5},
        "grid": {"t_max": 0.5, "n_points": 9},
        "propagation": {"fock_dim": 400, "h": 0.01, "n_samples": 3,
                        "initial_state": {"type": "coherent", "alpha_re": 10.0}},
        "output_dir": str(tmp_path / "out"),
    }
    RunConfig.from_dict({"scenario": "hpz", **cfg})
    monkeypatch.setattr(scenarios, "coherent_state", product_coherent_state)
    assert main(["hpz", "--config", write_config(tmp_path, cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["field"] == "propagation.initial_state"
    assert "not finite" in err["message"]
    assert not (tmp_path / "out").exists()


COMPLEX_START = {"type": "coherent", "alpha_re": 1.0, "alpha_im": 0.5}
COMPLEX_START_CASES = {
    "hpz": {"kernel": {"family": "discrete_modes", "mode_freqs": [1.3], "couplings": [[0.2]]}},
    "qmupl": {"kernel": {"family": "exponential", "gamma": 1.0, "tau_c": 0.5},
              "system": {"m": 1.0, "omega": 1.0, "lam": 0.2, "mu": 0.1}},
    "oracle-check": {"model": "hpz", "oracle": {"mode_dims": [5]},
                     "kernel": {"family": "discrete_modes", "mode_freqs": [1.3], "couplings": [[0.2]]}},
}


@pytest.mark.parametrize("scenario", COMPLEX_START_CASES)
def test_complex_coherent_start_runs(tmp_path, scenario):
    # |alpha><alpha| with Im alpha != 0 is built exactly Hermitian
    cfg = {
        **COMPLEX_START_CASES[scenario],
        "grid": {"t_max": 0.5, "n_points": 17},
        "series": {"max_order": 1, "eps_series": 1e-6, "quadrature": "trapezoid"},
        "propagation": {"fock_dim": 16, "h": 0.005, "n_samples": 6, "initial_state": COMPLEX_START},
        "output_dir": str(tmp_path / "out"),
    }
    assert main([scenario, "--config", write_config(tmp_path, cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["max_hermiticity_defect"] == 0.0
    if scenario == "oracle-check":
        assert report["max_trace_distance"] < 5e-3
        return
    obs = json.loads((tmp_path / "out" / "trajectory.json").read_text())["observables"]
    # <p> = sqrt(2 m omega) Im alpha and <q> = Re alpha sqrt(2 / (m omega)) at t = 0
    assert obs["mean_p"][0] == pytest.approx(np.sqrt(2.0) * 0.5, abs=1e-6)
    assert obs["mean_q"][0] == pytest.approx(np.sqrt(2.0), abs=1e-6)


def test_initial_state_headroom_only_where_the_guard_runs():
    # oracle-check runs without the guard and coeffs does not propagate;
    # at fock_dim <= 3 the guard is off
    near_top = {"fock_dim": 8, "initial_state": {"type": "basis", "index": 7}}
    RunConfig.from_dict({"scenario": "oracle-check", "kernel": MODES, "propagation": near_top,
                         "oracle": {"mode_dims": [2, 2]}})
    RunConfig.from_dict({"scenario": "coeffs", "propagation": near_top})
    RunConfig.from_dict({"scenario": "hpz", "propagation": {"fock_dim": 3, "initial_state": {"type": "basis", "index": 2}}})


@pytest.mark.parametrize("text", ["1.0e300", "1e-3"])
def test_yaml_string_number_named_as_a_string(tmp_path, capsys, text):
    # YAML 1.1 reads a float without a dot or an exponent sign as a string
    (tmp_path / "run.yaml").write_text(f"grid: {{t_max: {text}}}\noutput_dir: {tmp_path / 'out'}\n")
    assert main(["dephasing", "--config", str(tmp_path / "run.yaml")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["field"] == "grid.t_max"
    assert f"got the string '{text}'" in err["message"]
    assert not (tmp_path / "out").exists()


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


def test_theta_flag_does_not_depend_on_the_listed_order():
    # |Theta| shrinks as the width narrows, in whatever order the widths
    # are listed and however often; the values themselves follow the list
    thetas, flags = [], []
    for eps in ([0.2, 0.1, 0.05], [0.05, 0.1, 0.2], [0.1, 0.2, 0.05, 0.1]):
        cfg = RunConfig.from_dict({"scenario": "joos-zeh", "system": {"lam": 1.0},
                                   "white_noise_sweep": {**SWEEP, "eps_values": eps}})
        report = white_noise_limit_report(cfg)
        thetas.append(dict(zip(eps, report["abs_theta"])))
        flags.append(report["theta_monotone_decreasing"])
    assert flags == [True, True, True]
    assert thetas[0] == thetas[1] == thetas[2]
    assert thetas[0][0.2] > thetas[0][0.1] > thetas[0][0.05]


def test_sweep_fits_widths_whose_fourth_powers_leave_the_float_range():
    # polyfit squares eps^2 again; the fit in eps^2 rescaled by a power of
    # 2 takes every set of finite squares with two distinct
    for eps in ([1.0e-200, 1.0e-150], [1.0e-160, 1.0e-161], [1.0e100, 1.0e90]):
        cfg = RunConfig.from_dict({"scenario": "joos-zeh", "system": {"lam": 1.0},
                                   "white_noise_sweep": {**SWEEP, "eps_values": eps}})
        assert np.isfinite(white_noise_limit_report(cfg)["gamma_ratio_extrapolated"]), eps


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


@pytest.mark.parametrize("scenario, extra", [
    ("coeffs", {"model": "hpz", "kernel": {"family": "discrete_modes", "mode_freqs": [1.3], "couplings": [[0.2]]}}),
    ("qmupl", {"kernel": {"family": "exponential", "gamma": 1.0, "tau_c": 0.5},
               "system": {"m": 1.0, "omega": 1.0, "lam": 0.2, "mu": 0.1},
               "propagation": {"fock_dim": 8, "h": 0.01, "n_samples": 3,
                               "initial_state": {"type": "coherent", "alpha_re": 0.3}}}),
])
def test_series_runs_build_no_per_time_kernels(tmp_path, monkeypatch, scenario, extra):
    # the reduction, the report and series_convergence.csv read the one
    # stacked build; no outer time is cut out of it
    made = []
    init = series.ABKernels.__init__

    def spy(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(series.ABKernels, "__init__", spy)
    cfg = {"grid": {"t_max": 0.5, "n_points": 17}, "series": {"max_order": 2, "eps_series": 1e-30},
           "output_dir": str(tmp_path / "out"), **extra}
    assert main([scenario, "--config", write_config(tmp_path, cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["max_achieved_order"] == 2
    rows = (tmp_path / "out" / "series_convergence.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 16
    assert made == []


def test_run_config_validation_direct():
    with pytest.raises(ConfigError, match="scenario"):
        RunConfig.from_dict({"scenario": "nope"})
    cfg = RunConfig.from_dict({"scenario": "dephasing"})
    assert cfg.kernel["family"] == "exponential"
    # a given kernel block replaces the exponential default, not merges into it
    assert RunConfig.from_dict({"scenario": "oracle-check", "kernel": MODES}).kernel == MODES
    cfg = RunConfig.from_dict({"scenario": "dephasing", "kernel": {"gamma": 2.0}})
    assert cfg.kernel == {"family": "exponential", "gamma": 2.0, "tau_c": 0.5}
