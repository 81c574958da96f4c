"""Seeded workload generator.

Each workload is one ``nmgme`` scenario with fixed sizes.  The seed
jitters physical parameters only, inside the ranges stated below, so the
work done per run (grid points, series orders, Fock dimension, step
count, joint oracle dimension) does not depend on the seed.  The program
under test receives nothing but the generated config.

The reason for each workload is in the docstring of its generator below;
``BENCHMARK.json`` repeats it in one line.
"""

from __future__ import annotations

import random

__all__ = ["WORKLOADS", "make_config"]


def _jitter(rng: random.Random, centre: float, rel: float) -> float:
    """``centre`` times a uniform factor in ``[1 - rel, 1 + rel]``."""
    return round(centre * rng.uniform(1.0 - rel, 1.0 + rel), 9)


def _exponential_kernel(rng: random.Random) -> dict:
    # gamma in [0.9, 1.1], tau_c in [0.45, 0.55]
    return {
        "family": "exponential",
        "gamma": _jitter(rng, 1.0, 0.1),
        "tau_c": _jitter(rng, 0.5, 0.1),
    }


def _series_qmupl(rng: random.Random) -> dict:
    """The two-channel (d = 2) series build, the known bottleneck, is
    about 99% of the run; no propagation runs."""
    # lam in [0.45, 0.55], mu in [0.27, 0.33]; eps 1e-30 makes every
    # outer time run all three orders whatever the parameters
    return {
        "scenario": "coeffs",
        "model": "qmupl",
        "kernel": _exponential_kernel(rng),
        "system": {"m": 1.0, "omega": 1.0, "lam": _jitter(rng, 0.5, 0.1), "mu": _jitter(rng, 0.3, 0.1)},
        "grid": {"t_max": 2.0, "n_points": 65},
        "series": {"max_order": 3, "eps_series": 1e-30, "quadrature": "trapezoid"},
    }


def _fock_qmupl(rng: random.Random) -> dict:
    """The seven-coefficient generator at Fock dimension 40 plus the
    moment ODE dominate; the series is about 2% of the run, so a series
    change should leave this workload unchanged."""
    # lam in [0.09, 0.11], mu in [0.27, 0.33]; h = 1e-3 over t_max = 2
    # gives 2000 RK4 steps for both the Fock and the moment propagation
    return {
        "scenario": "qmupl",
        "kernel": _exponential_kernel(rng),
        "system": {"m": 1.0, "omega": 1.0, "lam": _jitter(rng, 0.1, 0.1), "mu": _jitter(rng, 0.3, 0.1)},
        "grid": {"t_max": 2.0, "n_points": 33},
        "series": {"max_order": 2, "eps_series": 1e-30, "quadrature": "trapezoid"},
        "propagation": {
            "fock_dim": 40,
            "h": 1e-3,
            "n_samples": 101,
            "initial_state": {"type": "coherent", "alpha_re": 1.0, "alpha_im": 0.0},
        },
    }


def _oracle_hpz(rng: random.Random) -> dict:
    """The brute-force oracle at joint dimension 1250 is the largest
    share; the workload also runs the series on a single complex channel
    (d = 1) and ``evolve`` at dimension 10, where per-call overhead rather
    than matrix products dominates."""
    # each mode frequency moves by at most 0.05, so the smallest gap of the
    # comb stays >= 0.3 and the recurrence estimate 2 pi / gap >= 20.9
    # stays far beyond t_max = 2; couplings vary by at most 10%
    freqs = [round(f + rng.uniform(-0.05, 0.05), 9) for f in (1.3, 1.7, 2.1)]
    couplings = [[_jitter(rng, g, 0.1) for g in (0.15, 0.1, 0.1)]]
    return {
        "scenario": "oracle-check",
        "model": "hpz",
        "kernel": {"family": "discrete_modes", "mode_freqs": freqs, "couplings": couplings},
        "system": {"m": 1.0, "omega": 1.0},
        "grid": {"t_max": 2.0, "n_points": 65},
        "series": {"max_order": 3, "eps_series": 1e-30, "quadrature": "trapezoid"},
        "propagation": {
            "fock_dim": 10,
            "h": 1e-3,
            "n_samples": 41,
            "initial_state": {"type": "basis", "index": 0},
        },
        "oracle": {"mode_dims": [5, 5, 5], "h": 2e-3},
    }


_CONFIGS = {
    "series-qmupl": _series_qmupl,
    "fock-qmupl": _fock_qmupl,
    "oracle-hpz": _oracle_hpz,
}
WORKLOADS = tuple(_CONFIGS)

# Tiny sizes for the harness self-test: same scenarios and code paths,
# a fraction of a second each.
_SMOKE_SIZES = {
    "series-qmupl": {"grid": {"t_max": 0.5, "n_points": 9}},
    "fock-qmupl": {
        "grid": {"t_max": 0.5, "n_points": 9},
        "propagation": {"fock_dim": 16, "h": 1e-2},
    },
    "oracle-hpz": {
        "grid": {"t_max": 0.5, "n_points": 9},
        "propagation": {"fock_dim": 6, "h": 1e-2, "n_samples": 11},
        "oracle": {"mode_dims": [3, 3, 3], "h": 1e-2},
    },
}


def make_config(workload: str, seed: int, smoke: bool = False) -> dict:
    """Config tree of ``workload`` for ``seed`` (output directory ``out``)."""
    if workload not in _CONFIGS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    cfg = _CONFIGS[workload](random.Random(f"{workload}:{seed}"))
    if smoke:
        for block, values in _SMOKE_SIZES[workload].items():
            cfg[block].update(values)
    cfg["output_dir"] = "out"
    return cfg
