"""Scenario wiring: configs in, coefficient tables / trajectories /
validation reports out.

A run configuration is a plain key-value tree (YAML on disk), checked
against one rule table, ``_CONFIG``: each field's kind, default and
bound.  :meth:`RunConfig.from_dict` rejects an unknown key or a bad value
with its dotted path and fills in every default; :meth:`RunConfig.validate`
then checks the rules that link two or more fields.  Every
scenario writes ``coefficients.csv`` and ``report.json`` into the output
directory; the others depend on the scenario:

* ``trajectory.json`` -- every scenario but ``coeffs``;
* ``oracle_trajectory.json`` -- ``oracle-check``;
* ``series_convergence.csv`` -- ``coeffs``, ``hpz`` and ``qmupl`` when
  the model is ``hpz`` or ``qmupl`` (the models that run the series).

The propagators return bare trajectories; the labels of a trajectory
file are set here (:func:`_trajectory_json`): ``scenario`` (the model
that ran), ``source`` (``me`` or ``oracle``) and ``params`` (the config
blocks of the model's system, empty under ``oracle-check``).
``report.json`` embeds the fully-resolved configuration, every default
the run used included, and so do the ``params`` of ``trajectory.json``;
a run is reproducible from its own artifacts.  Output
formatting is fixed (17 significant digits in CSV, shortest-round-trip
floats in JSON, sorted keys), making identical configs produce
byte-identical files.

The default initial state is the coherent state ``alpha = 1``.  On the
two levels of the ``dephasing`` model it is renormalised to the equal
superposition, the same amplitudes ``0.7071067811865475`` as
``{type: plus}``.
"""

from __future__ import annotations

import json
import math
import sys
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
from .oracle import DEFAULT_DIMENSION_CAP, DEFAULT_MODE_DIM, JointModel, compare_with_me, evolve_joint
from .propagate import TRUNCATION_LIMIT, GaussianMoments, Trajectory, _hermitian_of, evolve, evolve_moments
from .series import SeriesConfig, dump_convergence_csv
from .system import commutator_kernel, fock_operators, harmonic_kernels, quadratic_hamiltonian

__all__ = ["RunConfig", "ConfigError", "run", "SCENARIOS", "coherent_state"]

SCENARIOS = ("dephasing", "hpz", "qmupl", "joos-zeh", "oracle-check", "coeffs")


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


#: Models each scenario runs through ``model``; the others are their own model.
_MODELS = {
    "coeffs": ("dephasing", "hpz", "joos-zeh", "qmupl"),
    "oracle-check": ("dephasing", "hpz"),
}

#: The default of a field that must be given.
_REQUIRED = object()

#: The config tree: one rule ``(kind, default, *bounds)`` per field.
#:
#: * ``number``, ``integer``: a finite int or float (an int for
#:   ``integer``, never a bool) ``>= low``, or ``> low`` where the rule
#:   ends in ``True``;
#: * ``choice``: one of the listed values, of the same type;
#: * ``path``: a non-empty string;
#: * ``list``: a non-empty list of numbers within the bounds; ``dims`` the
#:   same of integers; ``rows`` a non-empty list of non-empty rows of
#:   numbers or ``[re, im]`` pairs;
#: * ``block``: a mapping of the listed fields;
#: * ``tagged``: a block whose fields follow its tag, the one key of its
#:   default; a given mapping goes over the default, so the tag defaults.
#:
#: An absent field takes its default; a field whose default is null also
#: takes null, which :meth:`RunConfig.__post_init__` resolves where it
#: stands for a value.  ``propagation.n_samples >= 2`` because the trace
#: drift is measured between the first and the last sample.  ``oracle.h``
#: is checked but has no effect: the oracle is exact at every sample time
#: and takes no step; configs that set it still run.
_CONFIG = {
    "scenario": ("choice", _REQUIRED, SCENARIOS),
    "model": ("choice", None, _MODELS["coeffs"]),
    "kernel": ("tagged", {"family": "exponential"}, {
        "exponential": {"gamma": ("number", 1.0, 0), "tau_c": ("number", 0.5, 0, True)},
        "white_noise": {"strength": ("number", 1.0, 0, True), "eps": ("number", 0.05, 0, True)},
        "discrete_modes": {"mode_freqs": ("list", _REQUIRED, 0, True), "couplings": ("rows", _REQUIRED, -math.inf)},
    }),
    "system": ("block", {}, {
        "m": ("number", 1.0, 0, True),
        "omega": ("number", 1.0, 0, True),
        "lam": ("number", 0.0, 0),
        "mu": ("number", 0.0, 0),
    }),
    "grid": ("block", {}, {"t_max": ("number", 2.0, 0, True), "n_points": ("integer", 129, 2)}),
    "series": ("block", {}, {
        "max_order": ("integer", 2, 0),
        "eps_series": ("number", 1e-6, 0, True),
        "quadrature": ("choice", "trapezoid", ("trapezoid", "simpson")),
    }),
    "propagation": ("block", {}, {
        "fock_dim": ("integer", 30, 2),
        "h": ("number", 1e-3, 0, True),
        "n_samples": ("integer", 101, 2),
        "initial_state": ("tagged", {"type": "coherent"}, {
            "coherent": {"alpha_re": ("number", 1.0, -math.inf), "alpha_im": ("number", 0.0, -math.inf)},
            "basis": {"index": ("integer", 0, 0)},
            "plus": {},
        }),
    }),
    # null mode_dims: DEFAULT_MODE_DIM levels per mode
    "oracle": ("block", {}, {"mode_dims": ("dims", None, 1), "h": ("number", 2e-3, 0, True)}),
    # null: no sweep; a null t_eval is grid.t_max
    "white_noise_sweep": ("block", None, {
        "eps_values": ("list", _REQUIRED, 0, True),
        "strength": ("number", 1.0, 0, True),
        "t_eval": ("number", None, 0, True),
        "n_points": ("integer", 641, 2),
    }),
    "output_dir": ("path", "out"),
    "dump_rho": ("choice", False, (False, True)),
}


def _check(rule: tuple, value, path: str):
    """``value`` at ``path`` if it meets ``rule``, with every absent field
    below it at its default; else ``ConfigError`` at the first field
    that does not."""
    kind, default, *bounds = rule
    if value is None and default is None:
        return None
    if kind in ("number", "integer"):
        _check_number(value, path, kind == "integer", *bounds)
    elif kind == "choice":
        # of the same type: dump_rho: 1 is no bool, though 1 == True
        if not any(type(value) is type(option) and value == option for option in bounds[0]):
            raise ConfigError(path, f"must be one of {list(bounds[0])}, got {value!r}")
    elif kind == "path":
        if not isinstance(value, str) or not value:
            raise ConfigError(path, f"need a directory path, got {value!r}")
    elif kind in ("list", "dims", "rows"):
        if not isinstance(value, list) or not value:
            raise ConfigError(path, f"need a non-empty list, got {value!r}")
        numbers = value
        if kind == "rows":
            if not all(isinstance(row, list) and row for row in value):
                raise ConfigError(path, f"need rows of numbers or [re, im] pairs, got {value!r}")
            numbers = [x for row in value for c in row for x in (c if isinstance(c, list) and len(c) == 2 else [c])]
        for x in numbers:
            _check_number(x, path, kind == "dims", *bounds)
    else:  # block, tagged
        if not isinstance(value, dict):
            raise ConfigError(path or "<root>", "must be a mapping")
        fields = bounds[0]
        if kind == "tagged":
            (tag,) = default
            value = {**default, **value}
            name = _check(("choice", _REQUIRED, tuple(fields)), value.pop(tag), f"{path}.{tag}")
            return {tag: name, **_fields(fields[name], value, path)}
        return _fields(fields, value, path)
    return value


def _fields(fields: dict, raw: dict, path: str) -> dict:
    """The block ``raw`` at ``path``: an unknown key is rejected, every
    field of ``fields`` checked or set to its default."""
    prefix = f"{path}." if path else ""
    unknown = sorted(set(raw) - set(fields), key=str)
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}", "unknown configuration key")
    resolved = {}
    for key, rule in fields.items():
        value = raw[key] if key in raw else rule[1]
        if value is _REQUIRED:
            raise ConfigError(prefix + key, "required key missing")
        resolved[key] = _check(rule, value, prefix + key)
    return resolved


def _check_number(value, path: str, integer: bool, low: float, strict: bool = False) -> None:
    kinds = int if integer else (int, float)
    # the float range rejects NaN, the infinities and ints no float holds
    if isinstance(value, bool) or not isinstance(value, kinds) or not abs(value) <= sys.float_info.max:
        kind = "an integer" if integer else "a finite number"
        # YAML 1.1 reads 1e-3 and 1.0e300 as strings
        got = f"the string {value!r}" if isinstance(value, str) else repr(value)
        raise ConfigError(path, f"need {kind}, got {got}")
    if value < low or (strict and value == low):
        raise ConfigError(path, f"must be {'>' if strict else '>='} {low}, got {value!r}")


def _default(key: str):
    """The ``RunConfig`` field ``key`` at its resolved default."""
    rule = _CONFIG[key]
    return field(default_factory=lambda: _check(rule, rule[1], key))


@dataclass
class RunConfig:
    """Fully-resolved run configuration: every field of ``_CONFIG``,
    defaults applied."""

    scenario: str
    model: str = _default("model")
    kernel: dict = _default("kernel")
    system: dict = _default("system")
    grid: dict = _default("grid")
    series: dict = _default("series")
    propagation: dict = _default("propagation")
    oracle: dict = _default("oracle")
    white_noise_sweep: dict | None = _default("white_noise_sweep")
    output_dir: str = _default("output_dir")
    dump_rho: bool = _default("dump_rho")

    def __post_init__(self):
        # the values that a null model or sweep t_eval stands for: a
        # scenario without a model choice is its own model
        if self.model is None:
            self.model = "hpz" if self.scenario in _MODELS else self.scenario
        if self.white_noise_sweep is not None and self.white_noise_sweep["t_eval"] is None:
            self.white_noise_sweep["t_eval"] = self.grid["t_max"]

    @classmethod
    def from_dict(cls, raw) -> "RunConfig":
        """The run configuration of the config tree ``raw``, each field
        checked against ``_CONFIG`` and the rules that link fields by
        :meth:`validate`."""
        cfg = cls(**_check(("block", {}, _CONFIG), raw, ""))
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Reject a config, each of whose fields meets its rule, that
        breaks a rule linking two or more fields."""
        model, kernel, system = self.model, self.kernel, self.system
        allowed = _MODELS.get(self.scenario, (self.scenario,))
        if model not in allowed:
            raise ConfigError("model", f"{self.scenario} runs {allowed}, got {model!r}")
        if model == "joos-zeh" and not system["lam"] > 0:
            raise ConfigError("system.lam", "joos-zeh needs a positive coupling")
        lam_mu = system["lam"] * system["mu"]
        if model == "qmupl" and system["omega"] <= lam_mu:
            raise ConfigError("system", f"qmupl needs omega > lam * mu (a real shifted frequency), got lam * mu = {lam_mu!r}")
        # every scenario but coeffs builds the model's system, a Fock
        # Hamiltonian on every model but dephasing; it and the qmupl flow
        # square omega as a float, which raises where the square overflows
        squares_omega = model == "qmupl" or (self.scenario != "coeffs" and model != "dephasing")
        if squares_omega and not math.isfinite(float(system["omega"]) * system["omega"]):
            raise ConfigError("system.omega", f"omega^2 overflows, got omega = {system['omega']!r}")
        if self.scenario == "oracle-check" and kernel["family"] != "discrete_modes":
            raise ConfigError("kernel.family", "oracle-check needs a discrete_modes kernel")
        if kernel["family"] == "discrete_modes":
            # every model couples the system to the bath through one channel
            n_modes = len(kernel["mode_freqs"])
            if len(kernel["couplings"]) != 1 or len(kernel["couplings"][0]) != n_modes:
                raise ConfigError("kernel.couplings", f"need one row (one system channel) of {n_modes} entries, one per mode")
            # discrete_modes is the only complex family
            if model in ("joos-zeh", "qmupl"):
                raise ConfigError("kernel", f"{model} needs a real kernel, not discrete_modes")
        # the model's correlation at lag 0 (lam times the kernel for
        # joos-zeh and qmupl) has the largest modulus of every family; the
        # series multiplies two samples from order 1 on
        with np.errstate(over="ignore", invalid="ignore"):
            peak = np.abs(build_kernel(kernel).evaluator(0, 0, np.zeros(1)))[0]
            if model in ("joos-zeh", "qmupl"):
                peak = system["lam"] * peak
            if model in ("hpz", "qmupl") and self.series["max_order"] > 0:
                peak = peak * peak
        if not np.isfinite(peak):
            raise ConfigError("kernel", "the correlation at lag 0 overflows")
        sweep = self.white_noise_sweep
        if sweep is not None:
            # the extrapolation fits a line in eps^2
            with np.errstate(over="ignore", under="ignore"):
                eps_sq = np.square(sweep["eps_values"], dtype=float)
            if not np.isfinite(eps_sq).all() or len(np.unique(eps_sq)) < 2:
                raise ConfigError("white_noise_sweep.eps_values", "need finite squared widths, two of them distinct")
            if self.scenario != "joos-zeh":
                raise ConfigError("white_noise_sweep", f"only joos-zeh runs the sweep, not {self.scenario}")
        # the system the model has: a qubit for dephasing, else the Fock space
        dim = 2 if model == "dephasing" else self.propagation["fock_dim"]
        state = self.propagation["initial_state"]
        if state["type"] == "plus" and dim != 2:
            raise ConfigError("propagation.initial_state", "plus state needs dim 2")
        if state["type"] == "basis" and state["index"] >= dim:
            raise ConfigError("propagation.initial_state.index", "outside basis")
        if self.scenario != "coeffs":  # every other scenario builds the state
            # the truncation guard runs outside oracle-check, and evolve
            # turns it off for dim <= 3
            _check_state(state, dim, self.scenario not in _MODELS and dim > 3)
        if self.scenario == "oracle-check":
            n_modes = len(kernel["mode_freqs"])
            dims = self.oracle["mode_dims"]
            dims = [DEFAULT_MODE_DIM] * n_modes if dims is None else dims
            if len(dims) != n_modes:
                raise ConfigError("oracle.mode_dims", f"need one entry per kernel.mode_freqs ({n_modes}), got {len(dims)}")
            joint = dim * math.prod(dims)
            if joint > DEFAULT_DIMENSION_CAP:
                raise ConfigError("oracle.mode_dims", f"joint dimension {joint} exceeds cap {DEFAULT_DIMENSION_CAP}")
        if self.dump_rho and self.scenario == "coeffs":
            raise ConfigError("dump_rho", "coeffs writes no trajectory to dump the states into")


def _check_state(spec: dict, dim: int, guarded: bool) -> None:
    """Reject an initial state vector that is not finite and, where the
    run is ``guarded``, one that the truncation guard would stop at once:
    one whose top two Fock levels hold more than ``TRUNCATION_LIMIT``
    population."""
    psi = _initial_state(spec, dim)
    if not np.isfinite(psi).all():
        raise ConfigError("propagation.initial_state", "the state vector is not finite")
    top = float(np.sum(np.abs(psi[-2:]) ** 2))
    if guarded and top > TRUNCATION_LIMIT:
        raise ConfigError(
            "propagation.initial_state",
            f"the top two Fock levels hold {top:.3e} population, above the truncation "
            f"guard's {TRUNCATION_LIMIT:g}; increase propagation.fock_dim",
        )


def build_kernel(spec: dict) -> CorrelationKernel:
    """Construct a correlation kernel from a resolved ``kernel`` block."""
    family = spec["family"]
    if family == "exponential":
        return make_exponential(spec["gamma"], spec["tau_c"])
    if family == "white_noise":
        return make_white_noise_approximant(spec["strength"], spec["eps"])
    return make_discrete_modes(spec["mode_freqs"], _couplings(spec["couplings"]))


def _couplings(rows) -> np.ndarray:
    """Coupling matrix from config rows; ``[re, im]`` pairs are complex."""
    return np.asarray(
        [[complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c) for c in row] for row in rows]
    )


def coherent_state(dim: int, alpha: complex) -> np.ndarray:
    """Coherent-state vector in a truncated number basis, normalized.

    The amplitudes ``alpha^n / sqrt(n!)`` grow by the ratio
    ``alpha / sqrt(n)`` up to ``n = |alpha|^2`` and shrink after it, so
    they are built outward from that largest one, of modulus 1: none
    overflows, whatever ``dim`` and ``alpha``."""
    alpha = complex(alpha)
    with np.errstate(over="ignore", under="ignore"):
        peak = min(int(min(np.abs(alpha), dim) ** 2), dim - 1)
        n = np.arange(1, dim)
        below = np.cumprod(np.sqrt(n[:peak][::-1]) / alpha)[::-1]
        above = np.cumprod(alpha / np.sqrt(n[peak:]))
    amps = np.concatenate([below, [1.0], above]) * np.exp(1j * peak * np.angle(alpha))
    return amps / np.linalg.norm(amps)


def _initial_state(spec: dict, dim: int) -> np.ndarray:
    """State vector of a resolved ``propagation.initial_state`` block."""
    kind = spec["type"]
    if kind == "plus":
        return np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    if kind == "basis":
        vec = np.zeros(dim, dtype=complex)
        vec[spec["index"]] = 1.0
        return vec
    return coherent_state(dim, complex(spec["alpha_re"], spec["alpha_im"]))


def _projector(psi: np.ndarray) -> np.ndarray:
    """``|psi><psi|``, exactly Hermitian entry by entry: its real part
    ``Re psi Re psi^T + Im psi Im psi^T`` is symmetric and its imaginary
    part ``Im psi Re psi^T - Re psi Im psi^T`` antisymmetric, which the
    complex product ``np.outer(psi, psi.conj())`` does not guarantee.  A
    real ``psi`` gives the bits of that product, signed zeros included."""
    re, im = psi.real, psi.imag
    rho = np.empty((psi.size, psi.size), dtype=complex)
    rho.real = np.outer(re, re) + np.outer(im, im)
    rho.imag = np.outer(im, re) - np.outer(re, im)
    return rho


def _series_config(cfg: RunConfig) -> SeriesConfig:
    return SeriesConfig(
        max_order=int(cfg.series["max_order"]),
        eps_series=float(cfg.series["eps_series"]),
        method=cfg.series["quadrature"],
    )


def _coefficients_for(cfg: RunConfig, model: str):
    """Grid, coefficient tables and series tables (``None`` for the
    closed-form models) of a named model."""
    grid = make_grid(cfg.grid["t_max"], cfg.grid["n_points"])
    method = cfg.series["quadrature"]
    kernel = build_kernel(cfg.kernel)
    m, omega = cfg.system["m"], cfg.system["omega"]
    if model == "dephasing":
        return grid, coefficients_dephasing(kernel, grid, method), None
    if model == "hpz":
        kern = harmonic_kernels(m, omega)
        tables = build_ab_tables(kernel, commutator_kernel(kern, ["q"]), _series_config(cfg), grid)
        return grid, coefficients_linear(tables, kern, scenario="hpz"), tables
    if model == "joos-zeh":
        kern = harmonic_kernels(m, omega)
        coeffs = coefficients_nondissipative(kernel, kern, grid, method, lam_scale=cfg.system["lam"])
        return grid, coeffs, None
    # qmupl; validate() admits no other model
    coeffs, tables = coefficients_qmupl(
        cfg.system["lam"], cfg.system["mu"], m, omega, kernel, _series_config(cfg), grid
    )
    return grid, coeffs, tables


def _system_for(cfg: RunConfig, model: str):
    """Dimension, operators, observables and trajectory parameters of the
    model's system: a qubit coupled through sigma_z for ``dephasing``, a
    truncated oscillator coupled through q (and p) for the others."""
    if model == "dephasing":
        sz = np.diag([1.0, -1.0]).astype(complex)
        ops = {"A": [sz], "H0": np.zeros((2, 2), dtype=complex)}
        observables = {
            "coherence_re": np.array([[0, 1], [1, 0]], dtype=complex),
            "population_0": np.diag([1.0, 0.0]).astype(complex),
        }
        return 2, ops, observables, {"kernel": cfg.kernel}
    dim = cfg.propagation["fock_dim"]
    m, omega = cfg.system["m"], cfg.system["omega"]
    fock = fock_operators(dim, m, omega)
    q, p = fock["q"], fock["p"]
    ops = {"A": [q], "V": [p], "H0": quadratic_hamiltonian(dim, m, omega), "q": q, "p": p}
    observables = {
        "mean_q": q,
        "mean_p": p,
        "var_q_raw": q @ q,
        "var_p_raw": p @ p,
        "mean_n": fock["number"],
    }
    return dim, ops, observables, {"system": cfg.system, "kernel": cfg.kernel}


def _series_report(tables) -> dict:
    if tables is None:
        return {"series": "closed-form (no expansion needed)"}
    return {
        "max_achieved_order": int(tables.achieved_order.max()),
        "max_last_order_norm": float(tables.last_order_norm.max()),
        "all_converged": bool(tables.converged.all()),
    }


def _traj_report(traj: Trajectory) -> dict:
    """Trust entries of a trajectory; ``fock_headroom``, the largest
    population of the top two Fock levels, where the truncation guard
    ran."""
    d = traj.diagnostics
    span = traj.times[-1] - traj.times[0] if len(traj.times) > 1 else 1.0
    report = {
        "trace_drift_per_unit_time": float(abs(d["trace"][-1] - d["trace"][0]) / max(span, 1e-12)),
        "max_hermiticity_defect": float(np.max(d["hermiticity_defect"])),
        "min_eigenvalue": float(np.min(d["min_eigenvalue"])),
        "warnings": traj.warnings,
    }
    if traj.top_population is not None:
        report["fock_headroom"] = traj.top_population
    return report


def _moment_check(cfg: RunConfig, coeffs, grid, traj: Trajectory) -> dict:
    """Largest gaps between the Fock-space moments and the Gaussian
    moment equations under the same coefficient tables: the means of
    ``q`` and ``p``, and the second moments ``<q^2>``, ``<p^2>`` against
    ``cov + mean^2`` (the diffusion terms, which leave the means alone,
    show only there); coherent initial states only."""
    p = cfg.propagation
    spec = p["initial_state"]
    if spec["type"] != "coherent":
        return {}
    alpha = complex(spec["alpha_re"], spec["alpha_im"])
    m, omega = cfg.system["m"], cfg.system["omega"]
    scale_q = 1.0 / np.sqrt(2.0 * m * omega)
    mom0 = GaussianMoments.coherent(
        2.0 * scale_q * alpha.real, np.sqrt(2.0 * m * omega) * alpha.imag, m, omega
    )
    mtraj = evolve_moments(mom0, coeffs, m, omega, grid.t_max, p["h"], p["n_samples"])
    obs = {name: np.array(values) for name, values in traj.observables.items()}
    mean, cov = mtraj.means, mtraj.covs
    second = np.abs(np.stack([
        obs["var_q_raw"] - (cov[:, 0, 0] + mean[:, 0] ** 2),
        obs["var_p_raw"] - (cov[:, 1, 1] + mean[:, 1] ** 2),
    ]))
    return {
        "moment_fock_max_dq": float(np.max(np.abs(obs["mean_q"] - mean[:, 0]))),
        "moment_fock_max_dp": float(np.max(np.abs(obs["mean_p"] - mean[:, 1]))),
        "moment_fock_max_dsecond": float(np.max(second)),
        "uncertainty_ok": mtraj.uncertainty_ok,
    }


def _oracle_comparison(cfg: RunConfig, ops: dict, psi0, grid, traj: Trajectory):
    """Brute-force system+modes reference on the ``discrete_modes`` bath
    and its distance from the master-equation trajectory ``traj``;
    returns the report entries and the reference trajectory."""
    freqs = list(cfg.kernel["mode_freqs"])
    joint = JointModel(
        h_system=ops["H0"],
        channel_ops=tuple(ops["A"]),
        mode_freqs=tuple(freqs),
        couplings=_couplings(cfg.kernel["couplings"]),
        mode_dims=tuple(cfg.oracle["mode_dims"] or ()),
    )
    traj_or = evolve_joint(joint, psi0, grid.t_max, cfg.propagation["n_samples"])
    comparison = compare_with_me(traj_or, traj, mode_freqs=freqs)
    entries = {k: comparison[k] for k in ("max_trace_distance", "recurrence_time_estimate")}
    return entries, traj_or


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _trajectory_json(traj: Trajectory, scenario: str, source: str, params: dict, dump_rho: bool = False) -> dict:
    """The payload of ``trajectory.json`` (``source`` ``"me"``) or
    ``oracle_trajectory.json`` (``"oracle"``): the run's labels -- the
    model that ran as ``scenario``, and the config blocks ``params`` --
    then the sample times, observables, diagnostics and warnings of
    ``traj``.  With ``dump_rho`` each sampled ``rho`` follows as its real
    and imaginary parts interleaved, as a complex ``rho`` lies in memory,
    formed one sample at a time."""
    out = {
        "scenario": scenario,
        "source": source,
        "params": params,
        "times": [float(t) for t in traj.times],
        "observables": {k: [float(x) for x in v] for k, v in traj.observables.items()},
        "diagnostics": {k: [float(x) for x in v] for k, v in traj.diagnostics.items()},
        "warnings": list(traj.warnings),
    }
    if dump_rho:
        out["rho"] = [_hermitian_of(M).reshape(-1).view(float).tolist() for M in traj.real_states]
    return out


def run(cfg: RunConfig) -> dict:
    """Execute a scenario; writes artifacts and returns the report.

    Every scenario runs the same pipeline: the model's coefficients, its
    system, one propagation (none for ``coeffs``), the scenario's checks
    and the artifacts listed in the module docstring.
    """
    outdir = Path(cfg.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("output_dir", f"cannot make directory {cfg.output_dir!r}: {exc.strerror}") from exc
    p = cfg.propagation
    model = cfg.model
    oracle_check = cfg.scenario == "oracle-check"
    # dephasing and oracle-check keep the series out of their artifacts
    with_series = cfg.scenario not in ("dephasing", "oracle-check")

    grid, coeffs, tables = _coefficients_for(cfg, model)
    report = {"scenario": cfg.scenario}
    if cfg.scenario in _MODELS:
        report["model"] = model
    if with_series:
        report.update(_series_report(tables))

    traj = traj_or = params = None
    if cfg.scenario != "coeffs":
        dim, ops, observables, params = _system_for(cfg, model)
        if oracle_check:  # compared with the oracle state by state
            observables, params = None, {}
        psi0 = _initial_state(p["initial_state"], dim)
        traj = evolve(
            _projector(psi0), coeffs, ops, grid.t_max, p["h"], p["n_samples"],
            observables=observables, truncation_guard=not oracle_check,
        )
        report.update(_traj_report(traj))

    if cfg.scenario == "qmupl":
        report.update(_moment_check(cfg, coeffs, grid, traj))
    if cfg.scenario == "joos-zeh" and cfg.white_noise_sweep:
        report["white_noise_limit"] = white_noise_limit_report(cfg)
    if oracle_check:
        entries, traj_or = _oracle_comparison(cfg, ops, psi0, grid, traj)
        report.update(entries)

    write_coefficients_csv(coeffs, outdir / "coefficients.csv")
    if traj is not None:
        _write_json(outdir / "trajectory.json", _trajectory_json(traj, model, "me", params, cfg.dump_rho))
    if traj_or is not None:
        _write_json(outdir / "oracle_trajectory.json", _trajectory_json(traj_or, model, "oracle", {}, cfg.dump_rho))
    if with_series and tables is not None:
        dump_convergence_csv(tables, outdir / "series_convergence.csv")
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
    eps_values, strength, t_eval = sweep["eps_values"], sweep["strength"], sweep["t_eval"]
    m, omega = cfg.system["m"], cfg.system["omega"]
    kern = harmonic_kernels(m, omega)
    grid = make_grid(t_eval, sweep["n_points"])
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
    # |Theta| at each distinct width, narrowest first, whatever the listed order
    _, first = np.unique(eps_sq, return_index=True)
    # fitted in eps^2 / 2^e with eps^2 < 2^e: polyfit squares its variable
    # again, and the power of 2 keeps that in range and leaves the
    # intercept's bits alone
    slope, intercept = np.polyfit(np.ldexp(eps_sq, -np.frexp(eps_sq.max())[1]), ratios, 1)
    return {
        "eps_values": [float(e) for e in eps_values],
        "gamma_ratio": ratios,
        "abs_theta": thetas,
        "gamma_ratio_extrapolated": float(intercept),
        "theta_monotone_decreasing": bool(np.all(np.diff(np.array(thetas)[first]) > 0)),
    }
