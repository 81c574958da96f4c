"""Scenario wiring: configs in, coefficient tables / trajectories /
validation reports out.

A run configuration is a plain key-value tree (YAML on disk).  Every
scenario writes ``coefficients.csv`` and ``report.json`` into the output
directory; the others depend on the scenario:

* ``trajectory.json`` -- every scenario but ``coeffs``;
* ``oracle_trajectory.json`` -- ``oracle-check``;
* ``series_convergence.csv`` -- ``coeffs``, ``hpz`` and ``qmupl`` when
  the model is ``hpz`` or ``qmupl`` (the models that run the series).

``report.json`` embeds the fully-resolved configuration including
defaults, so a run is reproducible from its own artifacts.  Output
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
from .propagate import TRUNCATION_LIMIT, GaussianMoments, Trajectory, evolve, evolve_moments
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

    def __post_init__(self):
        # a scenario without a model choice is its own model
        if self.scenario not in _MODELS:
            self.model = self.scenario

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
                if key == "kernel":
                    # keys depend on the family; checked in validate()
                    cfg.kernel = {"family": "exponential", **raw[key]}
                    continue
                block = getattr(cfg, key)
                unknown = sorted(set(raw[key]) - set(block), key=str)
                if unknown:
                    raise ConfigError(f"{key}.{unknown[0]}", "unknown configuration key")
                block.update(raw[key])
        for key in ("model", "output_dir", "dump_rho", "white_noise_sweep"):
            if key in raw:
                setattr(cfg, key, raw[key])
        # only coeffs and oracle-check choose a model; the others are their own
        if "model" in raw and scenario not in _MODELS and raw["model"] != scenario:
            raise ConfigError("model", f"{scenario} runs its own model, got {raw['model']!r}")
        unknown = set(raw) - {
            "scenario", "kernel", "system", "grid", "series",
            "propagation", "oracle", "model", "output_dir", "dump_rho",
            "white_noise_sweep",
        }
        if unknown:
            raise ConfigError(str(sorted(unknown, key=str)[0]), "unknown configuration key")
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for path, integer, low, strict in _NUMBERS:
            block, key = path.split(".")
            _check_number(getattr(self, block).get(key), path, integer, low, strict)
        if self.series.get("quadrature") not in ("trapezoid", "simpson"):
            raise ConfigError("series.quadrature", "must be trapezoid or simpson")
        model = self.model
        allowed = _MODELS.get(self.scenario, (self.scenario,))
        if model not in allowed:
            raise ConfigError("model", f"{self.scenario} supports {allowed}, got {model!r}")
        if model == "joos-zeh" and not self.system["lam"] > 0:
            raise ConfigError("system.lam", "joos-zeh needs a positive coupling")
        lam_mu = self.system["lam"] * self.system["mu"]
        if model == "qmupl" and self.system["omega"] ** 2 <= lam_mu**2:
            raise ConfigError("system", f"qmupl needs omega > lam * mu (a real shifted frequency), got lam * mu = {lam_mu!r}")
        _check_kernel(self.kernel)
        if self.scenario == "oracle-check" and self.kernel["family"] != "discrete_modes":
            raise ConfigError("kernel.family", "oracle-check needs a discrete_modes kernel")
        # every model couples the system to the bath through one channel
        if self.kernel["family"] == "discrete_modes" and len(self.kernel["couplings"]) != 1:
            raise ConfigError("kernel.couplings", "need one row: every model has one system channel")
        # discrete_modes is the only complex family
        if model in ("joos-zeh", "qmupl") and self.kernel["family"] == "discrete_modes":
            raise ConfigError("kernel", f"{model} needs a real kernel, not discrete_modes")
        if self.white_noise_sweep is not None:
            if not isinstance(self.white_noise_sweep, dict):
                raise ConfigError("white_noise_sweep", "must be a mapping")
            _check_fields(self.white_noise_sweep, _SWEEP, "white_noise_sweep")
            # the extrapolation fits a line in eps^2
            if len(set(self.white_noise_sweep["eps_values"])) < 2:
                raise ConfigError("white_noise_sweep.eps_values", "need at least two distinct widths")
            if self.scenario != "joos-zeh":
                raise ConfigError("white_noise_sweep", f"only joos-zeh runs the sweep, not {self.scenario}")
        # the system the model has: a qubit for dephasing, else the Fock space
        dim = 2 if model == "dephasing" else self.propagation["fock_dim"]
        _check_initial_state(self.propagation.get("initial_state"), dim)
        if self.scenario != "coeffs":  # every other scenario builds the state
            # the truncation guard runs outside oracle-check, and evolve
            # turns it off for dim <= 3
            _check_state(self.propagation["initial_state"], dim, self.scenario not in _MODELS and dim > 3)
        _check_mode_dims(self, dim)
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError("output_dir", f"need a directory path, got {self.output_dir!r}")
        if not isinstance(self.dump_rho, bool):
            raise ConfigError("dump_rho", f"need true or false, got {self.dump_rho!r}")
        if self.dump_rho and self.scenario == "coeffs":
            raise ConfigError("dump_rho", "coeffs writes no trajectory to dump the states into")


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
        # YAML 1.1 reads 1e-3 and 1.0e300 as strings
        got = f"the string {value!r}" if isinstance(value, str) else repr(value)
        raise ConfigError(path, f"need {kind}, got {got}")
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
    unknown = sorted(set(spec) - set(fields) - {"type"}, key=str)
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}", "unknown configuration key")
    for key, (integer, low) in fields.items():
        if key in spec:
            _check_number(spec[key], f"{path}.{key}", integer, low, False)
    if kind == "plus" and dim != 2:
        raise ConfigError(path, "plus state needs dim 2")
    if spec.get("index", 0) >= dim:
        raise ConfigError(f"{path}.index", "outside basis")


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


def _check_mode_dims(cfg: RunConfig, system_dim: int) -> None:
    """Reject ``oracle.mode_dims`` unless it is null or a list of ints
    >= 1; under ``oracle-check`` also a list without one entry per mode or
    a joint dimension (the default fills null) above the oracle's cap."""
    path, dims = "oracle.mode_dims", cfg.oracle["mode_dims"]
    if dims is not None:
        if not isinstance(dims, list):
            raise ConfigError(path, f"need null or a list of integers, got {dims!r}")
        for x in dims:
            _check_number(x, path, True, 1, False)
    if cfg.scenario != "oracle-check":
        return
    n_modes = len(cfg.kernel["mode_freqs"])
    if dims is None:
        dims = [DEFAULT_MODE_DIM] * n_modes
    if len(dims) != n_modes:
        raise ConfigError(path, f"need one entry per kernel.mode_freqs ({n_modes}), got {len(dims)}")
    joint = system_dim * math.prod(dims)
    if joint > DEFAULT_DIMENSION_CAP:
        raise ConfigError(path, f"joint dimension {joint} exceeds cap {DEFAULT_DIMENSION_CAP}")


#: Models each scenario runs through ``model``; the others are their own model.
_MODELS = {
    "coeffs": ("dephasing", "hpz", "joos-zeh", "qmupl"),
    "oracle-check": ("dephasing", "hpz"),
}

#: Keys of each ``kernel.family`` and of ``white_noise_sweep``: ``(kind,
#: lower bound, bound excluded)`` of each field.  A ``number`` (or
#: ``integer``) is checked like ``_NUMBERS`` and takes the default of its
#: reader when absent; ``list`` is a required non-empty list of such
#: numbers; ``rows`` is a required list of rows holding one finite number
#: or ``[re, im]`` pair per mode frequency.
_KERNELS = {
    "exponential": {"gamma": ("number", 0, False), "tau_c": ("number", 0, True)},
    "white_noise": {"strength": ("number", 0, True), "eps": ("number", 0, True)},
    "discrete_modes": {"mode_freqs": ("list", 0, True), "couplings": ("rows", -math.inf, False)},
}
_SWEEP = {
    "eps_values": ("list", 0, True),
    "strength": ("number", 0, True),
    "t_eval": ("number", 0, True),
    "n_points": ("integer", 2, False),
}


def _check_kernel(spec: dict) -> None:
    """Reject a kernel block with an unknown family, an unknown or
    missing key or a bad value."""
    family = spec.get("family")
    if not isinstance(family, str) or family not in _KERNELS:
        raise ConfigError("kernel.family", f"unknown kernel family {family!r}")
    _check_fields({k: v for k, v in spec.items() if k != "family"}, _KERNELS[family], "kernel")


def _check_fields(spec: dict, fields: dict, prefix: str) -> None:
    """Reject an unknown or missing key or a bad value of a block
    against its schema in ``_KERNELS`` or ``_SWEEP``."""
    unknown = sorted(set(spec) - set(fields), key=str)
    if unknown:
        raise ConfigError(f"{prefix}.{unknown[0]}", "unknown configuration key")
    for key, (kind, low, strict) in fields.items():
        path, value = f"{prefix}.{key}", spec.get(key)
        if kind in ("number", "integer"):
            if key in spec:
                _check_number(value, path, kind == "integer", low, strict)
        elif kind == "list":
            if not isinstance(value, list) or not value:
                raise ConfigError(path, "need a non-empty list")
            for x in value:
                _check_number(x, path, False, low, strict)
        else:
            n_modes = len(spec["mode_freqs"])
            if not isinstance(value, list) or not value:
                raise ConfigError(path, "need a non-empty list of rows")
            for row in value:
                if not isinstance(row, list) or len(row) != n_modes:
                    raise ConfigError(path, f"need rows of {n_modes} entries, got {row!r}")
                for c in row:
                    pair = isinstance(c, list) and len(c) == 2
                    for x in c if pair else [c]:
                        _check_number(x, path, False, low, strict)


def build_kernel(spec: dict) -> CorrelationKernel:
    """Construct a correlation kernel from a block that passed
    :func:`_check_kernel`."""
    family = spec["family"]
    if family == "exponential":
        return make_exponential(spec.get("gamma", 1.0), spec.get("tau_c", 0.5))
    if family == "white_noise":
        return make_white_noise_approximant(spec.get("strength", 1.0), spec.get("eps", 0.05))
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
    if spec.get("type", "coherent") != "coherent":
        return {}
    alpha = complex(spec.get("alpha_re", 1.0), spec.get("alpha_im", 0.0))
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
    traj_or = evolve_joint(joint, psi0, grid.t_max, cfg.propagation["n_samples"], scenario=cfg.model)
    comparison = compare_with_me(traj_or, traj, mode_freqs=freqs)
    entries = {k: comparison[k] for k in ("max_trace_distance", "recurrence_time_estimate")}
    return entries, traj_or


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


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

    traj = traj_or = None
    if cfg.scenario != "coeffs":
        dim, ops, observables, params = _system_for(cfg, model)
        if oracle_check:  # compared with the oracle state by state
            observables = params = None
        psi0 = _initial_state(p["initial_state"], dim)
        traj = evolve(
            _projector(psi0), coeffs, ops, grid.t_max, p["h"], p["n_samples"],
            observables=observables, truncation_guard=not oracle_check,
            scenario=model, params=params,
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
    for name, trajectory in (("trajectory.json", traj), ("oracle_trajectory.json", traj_or)):
        if trajectory is not None:
            _write_json(outdir / name, trajectory.to_json_dict(cfg.dump_rho))
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
    eps_values = sweep["eps_values"]
    strength = sweep.get("strength", 1.0)
    t_eval = sweep.get("t_eval", cfg.grid["t_max"])
    n_points = sweep.get("n_points", 641)
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
    # |Theta| at each distinct width, narrowest first, whatever the listed order
    _, first = np.unique(eps_sq, return_index=True)
    slope, intercept = np.polyfit(eps_sq, ratios, 1)
    return {
        "eps_values": [float(e) for e in eps_values],
        "gamma_ratio": ratios,
        "abs_theta": thetas,
        "gamma_ratio_extrapolated": float(intercept),
        "theta_monotone_decreasing": bool(np.all(np.diff(np.array(thetas)[first]) > 0)),
    }
