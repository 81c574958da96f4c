"""Scenario wiring: configs in, coefficient tables / trajectories /
validation reports out.

A run configuration is a plain key-value tree (YAML on disk).  Every
scenario writes ``coefficients.csv``, ``trajectory.json`` and
``report.json`` into the output directory; ``report.json`` embeds the
fully-resolved configuration including defaults, so a run is
reproducible from its own artifacts.  Output formatting is fixed (17
significant digits in CSV, shortest-round-trip floats in JSON, sorted
keys), making identical configs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .bath import (
    CorrelationKernel,
    make_discrete_modes,
    make_exponential,
    make_white_noise_approximant,
)
from .coefficients import (
    build_ab_tables,
    coefficients_dephasing,
    coefficients_linear,
    coefficients_nondissipative,
    coefficients_qmupl,
    write_coefficients_csv,
)
from .grids import make_grid, quad_weights
from .oracle import JointModel, compare_with_me, evolve_joint
from .propagate import GaussianMoments, Trajectory, evolve, evolve_moments
from .series import SeriesConfig, dump_convergence_csv
from .system import commutator_kernel, fock_operators, harmonic_kernels, quadratic_hamiltonian

__all__ = ["RunConfig", "ConfigError", "run", "SCENARIOS", "coherent_state"]

SCENARIOS = ("dephasing", "hpz", "qmupl", "joos-zeh", "oracle-check", "coeffs")


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


@dataclass
class RunConfig:
    """Fully-resolved run configuration with defaults applied."""

    scenario: str
    kernel: dict = field(default_factory=lambda: {"family": "exponential", "gamma": 1.0, "tau_c": 0.5})
    system: dict = field(default_factory=lambda: {"m": 1.0, "omega": 1.0, "lam": 0.0, "mu": 0.0})
    grid: dict = field(default_factory=lambda: {"t_max": 2.0, "n_points": 129})
    series: dict = field(default_factory=lambda: {"max_order": 2, "eps_series": 1e-6, "quadrature": "trapezoid"})
    propagation: dict = field(default_factory=lambda: {"fock_dim": 30, "h": 1e-3, "n_samples": 101, "initial_state": {"type": "coherent", "alpha_re": 1.0, "alpha_im": 0.0}})
    oracle: dict = field(default_factory=lambda: {"mode_dims": None, "h": 2e-3})
    model: str = "hpz"
    white_noise_sweep: dict | None = None
    output_dir: str = "out"
    dump_rho: bool = False

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("<root>", "configuration must be a mapping")
        scenario = raw.get("scenario")
        if scenario not in SCENARIOS:
            raise ConfigError("scenario", f"must be one of {SCENARIOS}, got {scenario!r}")
        cfg = cls(scenario=scenario)
        for key in ("kernel", "system", "grid", "series", "propagation", "oracle"):
            if key in raw:
                if not isinstance(raw[key], dict):
                    raise ConfigError(key, "must be a mapping")
                block = getattr(cfg, key)
                unknown = sorted(set(raw[key]) - set(block))
                # kernel keys depend on the kernel family
                if unknown and key != "kernel":
                    raise ConfigError(f"{key}.{unknown[0]}", "unknown configuration key")
                block.update(raw[key])
        for key in ("model", "output_dir", "dump_rho", "white_noise_sweep"):
            if key in raw:
                setattr(cfg, key, raw[key])
        unknown = set(raw) - {
            "scenario", "kernel", "system", "grid", "series",
            "propagation", "oracle", "model", "output_dir", "dump_rho",
            "white_noise_sweep",
        }
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown configuration key")
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for path, integer, low, strict in _NUMBERS:
            block, key = path.split(".")
            _check_number(getattr(self, block).get(key), path, integer, low, strict)
        if self.series.get("quadrature") not in ("trapezoid", "simpson"):
            raise ConfigError("series.quadrature", "must be trapezoid or simpson")
        model = self.model if self.scenario == "coeffs" else self.scenario
        if model == "joos-zeh" and not self.system["lam"] > 0:
            raise ConfigError("system.lam", "joos-zeh needs a positive coupling")
        try:
            build_kernel(self.kernel)
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError("kernel", str(exc)) from exc
        two_level = self.scenario == "dephasing" or (
            self.scenario == "oracle-check" and self.model == "dephasing"
        )
        dim = 2 if two_level else self.propagation["fock_dim"]
        _check_initial_state(self.propagation.get("initial_state"), dim)


#: Numeric fields ``(path, integer, lower bound, bound excluded)``, checked
#: in this order.  Every value must be a finite int or float (ints only for
#: ``integer``; never a bool).  ``propagation.n_samples >= 2`` because the
#: trace drift is measured between the first and the last sample.
#: ``oracle.h`` is checked but has no effect: the oracle is exact at every
#: sample time and takes no step; configs that set it still run.
_NUMBERS = (
    ("grid.n_points", True, 2, False),
    ("grid.t_max", False, 0, True),
    ("series.max_order", True, 0, False),
    ("series.eps_series", False, 0, True),
    ("propagation.h", False, 0, True),
    ("propagation.fock_dim", True, 2, False),
    ("propagation.n_samples", True, 2, False),
    ("system.m", False, 0, True),
    ("system.omega", False, 0, True),
    ("system.lam", False, 0, False),
    ("system.mu", False, 0, False),
    ("oracle.h", False, 0, True),
)


def _check_number(value, path: str, integer: bool, low: float, strict: bool) -> None:
    kinds = int if integer else (int, float)
    finite = not isinstance(value, float) or math.isfinite(value)
    if isinstance(value, bool) or not isinstance(value, kinds) or not finite:
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(path, f"need {kind}, got {value!r}")
    if value < low or (strict and value == low):
        raise ConfigError(path, f"must be {'>' if strict else '>='} {low}, got {value!r}")


#: Keys of each ``propagation.initial_state`` type: ``(integer, lower
#: bound)`` of each numeric field, checked like ``_NUMBERS``.
_INITIAL_STATES = {
    "coherent": {"alpha_re": (False, -math.inf), "alpha_im": (False, -math.inf)},
    "basis": {"index": (True, 0)},
    "plus": {},
}


def _check_initial_state(spec, dim: int) -> None:
    """Reject an initial-state block with a bad type, an unknown key, a
    bad number or a state outside the ``dim``-level basis."""
    path = "propagation.initial_state"
    if not isinstance(spec, dict):
        raise ConfigError(path, "must be a mapping")
    kind = spec.get("type", "coherent")
    if not isinstance(kind, str) or kind not in _INITIAL_STATES:
        raise ConfigError(f"{path}.type", f"unknown type {kind!r}")
    fields = _INITIAL_STATES[kind]
    unknown = sorted(set(spec) - set(fields) - {"type"})
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}", "unknown configuration key")
    for key, (integer, low) in fields.items():
        if key in spec:
            _check_number(spec[key], f"{path}.{key}", integer, low, False)
    if kind == "plus" and dim != 2:
        raise ConfigError(path, "plus state needs dim 2")
    if spec.get("index", 0) >= dim:
        raise ConfigError(f"{path}.index", "outside basis")


def build_kernel(spec: dict) -> CorrelationKernel:
    """Construct a correlation kernel from its config block."""
    family = spec.get("family")
    if family == "exponential":
        return make_exponential(spec.get("gamma", 1.0), spec.get("tau_c", 0.5))
    if family == "white_noise":
        return make_white_noise_approximant(spec.get("strength", 1.0), spec.get("eps", 0.05))
    if family == "discrete_modes":
        freqs = spec.get("mode_freqs")
        coup = spec.get("couplings")
        if freqs is None or coup is None:
            raise ConfigError(
                "kernel.mode_freqs", "discrete_modes needs mode_freqs and couplings"
            )
        return make_discrete_modes(freqs, _couplings(coup))
    raise ConfigError("kernel.family", f"unknown kernel family {family!r}")


def _couplings(rows) -> np.ndarray:
    """Coupling matrix from config rows; ``[re, im]`` pairs are complex."""
    return np.asarray(
        [[complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c) for c in row] for row in rows]
    )


def coherent_state(dim: int, alpha: complex) -> np.ndarray:
    """Coherent-state vector in a truncated number basis (renormalized)."""
    n = np.arange(dim)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    with np.errstate(divide="ignore"):
        amps = np.exp(-0.5 * abs(alpha) ** 2) * alpha**n / np.exp(0.5 * log_fact)
    return amps / np.linalg.norm(amps)


def _initial_state(spec: dict, dim: int) -> np.ndarray:
    """State vector of a block that passed :func:`_check_initial_state`."""
    kind = spec.get("type", "coherent")
    if kind == "plus":
        return np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    if kind == "basis":
        vec = np.zeros(dim, dtype=complex)
        vec[spec.get("index", 0)] = 1.0
        return vec
    alpha = complex(spec.get("alpha_re", 1.0), spec.get("alpha_im", 0.0))
    return coherent_state(dim, alpha)


def _series_config(cfg: RunConfig) -> SeriesConfig:
    return SeriesConfig(
        max_order=int(cfg.series["max_order"]),
        eps_series=float(cfg.series["eps_series"]),
        method=cfg.series["quadrature"],
    )


def _fock_setup(cfg: RunConfig, lam_mu: float = 0.0):
    dim = int(cfg.propagation["fock_dim"])
    m, omega = cfg.system["m"], cfg.system["omega"]
    ops_f = fock_operators(dim, m, omega)
    H0 = quadratic_hamiltonian(dim, m, omega)
    ops = {
        "A": [ops_f["q"]],
        "V": [ops_f["p"]],
        "H0": H0,
        "q": ops_f["q"],
        "p": ops_f["p"],
    }
    observables = {
        "mean_q": ops_f["q"],
        "mean_p": ops_f["p"],
        "var_q_raw": ops_f["q"] @ ops_f["q"],
        "var_p_raw": ops_f["p"] @ ops_f["p"],
        "mean_n": ops_f["number"],
    }
    return dim, ops, observables


def _coefficients_for(cfg: RunConfig, model: str):
    """Coefficient tables plus series diagnostics for a named model."""
    grid = make_grid(cfg.grid["t_max"], cfg.grid["n_points"])
    method = cfg.series["quadrature"]
    kernel = build_kernel(cfg.kernel)
    m, omega = cfg.system["m"], cfg.system["omega"]
    ab_tables = None
    if model == "dephasing":
        coeffs = coefficients_dephasing(kernel, grid, method)
    elif model == "hpz":
        kern = harmonic_kernels(m, omega)
        f = commutator_kernel(kern, ["q"])
        ab_tables = build_ab_tables(kernel, f, _series_config(cfg), grid)
        coeffs = coefficients_linear(ab_tables, kern, grid, method, scenario="hpz")
    elif model == "joos-zeh":
        kern = harmonic_kernels(m, omega)
        if not kernel.is_real:
            raise ConfigError("kernel", "non-dissipative model needs a real kernel")
        coeffs = coefficients_nondissipative(
            kernel, kern, grid, method, lam_scale=cfg.system["lam"]
        )
    elif model == "qmupl":
        if not kernel.is_real:
            raise ConfigError("kernel", "collapse-model base kernel must be real")
        coeffs, ab_tables = coefficients_qmupl(
            cfg.system["lam"],
            cfg.system["mu"],
            m,
            omega,
            kernel,
            _series_config(cfg),
            grid,
            method,
            return_ab=True,
        )
    else:
        raise ConfigError("model", f"unknown coefficient model {model!r}")
    return grid, kernel, coeffs, ab_tables


def _series_report(ab_tables) -> dict:
    if not ab_tables:
        return {"series": "closed-form (no expansion needed)"}
    achieved = [ab.achieved_order for ab in ab_tables]
    return {
        "max_achieved_order": int(np.max(achieved)),
        "max_last_order_norm": float(np.max([ab.last_order_norm for ab in ab_tables])),
        "all_converged": bool(all(ab.converged for ab in ab_tables)),
    }


def _traj_report(traj: Trajectory) -> dict:
    d = traj.diagnostics
    span = traj.times[-1] - traj.times[0] if len(traj.times) > 1 else 1.0
    return {
        "trace_drift_per_unit_time": float(
            abs(d["trace"][-1] - d["trace"][0]) / max(span, 1e-12)
        ),
        "max_hermiticity_defect": float(np.max(d["hermiticity_defect"])),
        "min_eigenvalue": float(np.min(d["min_eigenvalue"])),
        "warnings": traj.warnings,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _finish(outdir: Path, cfg: RunConfig, coeffs, traj, report, ab_tables=None):
    write_coefficients_csv(coeffs, outdir / "coefficients.csv")
    if traj is not None:
        _write_json(outdir / "trajectory.json", traj.to_json_dict(cfg.dump_rho))
    if ab_tables:
        dump_convergence_csv(ab_tables, outdir / "series_convergence.csv")
    report["config"] = asdict(cfg)
    _write_json(outdir / "report.json", report)
    return report


def run(cfg: RunConfig) -> dict:
    """Execute a scenario; writes artifacts and returns the report."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    p = cfg.propagation

    if cfg.scenario == "coeffs":
        grid, kernel, coeffs, ab_tables = _coefficients_for(cfg, cfg.model)
        report = {"scenario": "coeffs", "model": cfg.model}
        report.update(_series_report(ab_tables))
        return _finish(outdir, cfg, coeffs, None, report, ab_tables)

    if cfg.scenario == "dephasing":
        grid, kernel, coeffs, _ = _coefficients_for(cfg, "dephasing")
        sz = np.diag([1.0, -1.0]).astype(complex)
        ops = {"A": [sz], "H0": np.zeros((2, 2), dtype=complex)}
        psi0 = _initial_state(p.get("initial_state", {"type": "plus"}), 2)
        rho0 = np.outer(psi0, psi0.conj())
        observables = {
            "coherence_re": np.array([[0, 0.5], [0.5, 0]], dtype=complex) * 2,
            "population_0": np.diag([1.0, 0.0]).astype(complex),
        }
        traj = evolve(
            rho0, coeffs, ops, grid.t_max, p["h"], p["n_samples"],
            observables=observables, scenario="dephasing",
            params={"kernel": cfg.kernel},
        )
        report = {"scenario": "dephasing"}
        report.update(_traj_report(traj))
        return _finish(outdir, cfg, coeffs, traj, report)

    if cfg.scenario in ("hpz", "joos-zeh"):
        grid, kernel, coeffs, ab_tables = _coefficients_for(cfg, cfg.scenario)
        dim, ops, observables = _fock_setup(cfg)
        psi0 = _initial_state(p["initial_state"], dim)
        traj = evolve(
            np.outer(psi0, psi0.conj()), coeffs, ops, grid.t_max, p["h"],
            p["n_samples"], observables=observables, scenario=cfg.scenario,
            params={"system": cfg.system, "kernel": cfg.kernel},
        )
        report = {"scenario": cfg.scenario}
        report.update(_series_report(ab_tables))
        report.update(_traj_report(traj))
        if cfg.scenario == "joos-zeh" and cfg.white_noise_sweep:
            report["white_noise_limit"] = white_noise_limit_report(cfg)
        return _finish(outdir, cfg, coeffs, traj, report, ab_tables)

    if cfg.scenario == "qmupl":
        grid, kernel, coeffs, ab_tables = _coefficients_for(cfg, "qmupl")
        dim, ops, observables = _fock_setup(cfg)
        psi0 = _initial_state(p["initial_state"], dim)
        traj = evolve(
            np.outer(psi0, psi0.conj()), coeffs, ops, grid.t_max, p["h"],
            p["n_samples"], observables=observables, scenario="qmupl",
            params={"system": cfg.system, "kernel": cfg.kernel},
        )
        report = {"scenario": "qmupl"}
        report.update(_series_report(ab_tables))
        report.update(_traj_report(traj))
        # moment cross-check under the same coefficient tables
        spec0 = p["initial_state"]
        if spec0.get("type", "coherent") == "coherent":
            alpha = complex(spec0.get("alpha_re", 1.0), spec0.get("alpha_im", 0.0))
            m, omega = cfg.system["m"], cfg.system["omega"]
            scale_q = 1.0 / np.sqrt(2.0 * m * omega)
            mom0 = GaussianMoments.coherent(
                2.0 * scale_q * alpha.real, np.sqrt(2.0 * m * omega) * alpha.imag, m, omega
            )
            mtraj = evolve_moments(mom0, coeffs, m, omega, grid.t_max, p["h"], p["n_samples"])
            iq = traj.observables["mean_q"]
            report["moment_fock_max_dq"] = float(
                np.max(np.abs(np.array(iq) - mtraj.means[:, 0]))
            )
            report["uncertainty_ok"] = mtraj.uncertainty_ok
        return _finish(outdir, cfg, coeffs, traj, report, ab_tables)

    if cfg.scenario == "oracle-check":
        return run_oracle_check(cfg, outdir)

    raise ConfigError("scenario", f"unhandled scenario {cfg.scenario!r}")


def run_oracle_check(cfg: RunConfig, outdir: Path) -> dict:
    """Master equation vs brute-force reference on a discrete-mode bath."""
    if cfg.kernel.get("family") != "discrete_modes":
        raise ConfigError("kernel.family", "oracle-check needs a discrete_modes kernel")
    grid = make_grid(cfg.grid["t_max"], cfg.grid["n_points"])
    kernel = build_kernel(cfg.kernel)
    p = cfg.propagation
    freqs = list(cfg.kernel["mode_freqs"])
    g = _couplings(cfg.kernel["couplings"])
    mode_dims = cfg.oracle.get("mode_dims") or [6] * len(freqs)

    if cfg.model == "dephasing":
        coeffs = coefficients_dephasing(kernel, grid, cfg.series["quadrature"])
        sz = np.diag([1.0, -1.0]).astype(complex)
        h0 = np.zeros((2, 2), dtype=complex)
        ops = {"A": [sz], "H0": h0}
        psi0 = _initial_state(p.get("initial_state", {"type": "plus"}), 2)
        channel_ops = (sz,)
        dim = 2
    elif cfg.model == "hpz":
        m, omega = cfg.system["m"], cfg.system["omega"]
        kern = harmonic_kernels(m, omega)
        f = commutator_kernel(kern, ["q"])
        ab_tables = build_ab_tables(kernel, f, _series_config(cfg), grid)
        coeffs = coefficients_linear(
            ab_tables, kern, grid, cfg.series["quadrature"], scenario="hpz"
        )
        dim, ops, _ = _fock_setup(cfg)
        h0 = ops["H0"]
        psi0 = _initial_state(p["initial_state"], dim)
        channel_ops = (ops["A"][0],)
    else:
        raise ConfigError("model", "oracle-check supports dephasing and hpz models")

    rho0 = np.outer(psi0, psi0.conj())
    traj_me = evolve(
        rho0, coeffs, ops, grid.t_max, p["h"], p["n_samples"],
        scenario=cfg.model, truncation_guard=False,
    )
    model = JointModel(
        h_system=ops["H0"],
        channel_ops=channel_ops,
        mode_freqs=tuple(freqs),
        couplings=g,
        mode_dims=tuple(mode_dims),
    )
    traj_or = evolve_joint(model, psi0, grid.t_max, p["n_samples"], scenario=cfg.model)
    comparison = compare_with_me(traj_or, traj_me, mode_freqs=freqs)
    report = {
        "scenario": "oracle-check",
        "model": cfg.model,
        "max_trace_distance": comparison["max_trace_distance"],
        "recurrence_time_estimate": comparison["recurrence_time_estimate"],
    }
    report.update(_traj_report(traj_me))
    write_coefficients_csv(coeffs, outdir / "coefficients.csv")
    _write_json(outdir / "trajectory.json", traj_me.to_json_dict(cfg.dump_rho))
    _write_json(outdir / "oracle_trajectory.json", traj_or.to_json_dict(cfg.dump_rho))
    report["config"] = asdict(cfg)
    _write_json(outdir / "report.json", report)
    return report


def white_noise_limit_report(cfg: RunConfig) -> dict:
    """Ratio-based white-noise limit estimates for the sweep block.

    For each width, computes ``Gamma(t)/int_0^t D^Re(t,s) ds`` and
    ``|Theta(t)|`` at the evaluation time and extrapolates the ratio to
    zero width linearly in ``eps^2``.
    """
    sweep = cfg.white_noise_sweep
    eps_values = sweep["eps_values"]
    strength = sweep.get("strength", 1.0)
    t_eval = sweep.get("t_eval", cfg.grid["t_max"])
    n_points = int(sweep.get("n_points", 641))
    m, omega = cfg.system["m"], cfg.system["omega"]
    kern = harmonic_kernels(m, omega)
    grid = make_grid(t_eval, n_points)
    K = grid.n_points - 1
    w = quad_weights(grid.n_points, grid.h, "simpson")
    ratios, thetas = [], []
    for eps in eps_values:
        kernel = make_white_noise_approximant(strength, eps)
        coeffs = coefficients_nondissipative(kernel, kern, grid, method="simpson")
        dre = kernel.re_part(0, 0, t_eval, grid.points)
        denom = float(np.dot(w, dre))
        ratios.append(float(coeffs.Gamma[K, 0, 0].real / denom))
        thetas.append(float(abs(coeffs.Theta[K, 0, 0].real)))
    eps_sq = np.array(eps_values, dtype=float) ** 2
    slope, intercept = np.polyfit(eps_sq, ratios, 1)
    return {
        "eps_values": [float(e) for e in eps_values],
        "gamma_ratio": ratios,
        "abs_theta": thetas,
        "gamma_ratio_extrapolated": float(intercept),
        "theta_monotone_decreasing": bool(np.all(np.diff(thetas) < 0)),
    }
