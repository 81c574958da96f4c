"""Span tracing of one ``nmgme`` run from outside the package.

:func:`install` replaces public names of the package with timing
wrappers, each at the place where its caller looks it up (for example
``nmgme.propagate.me_rhs``, which ``evolve`` resolves as a module global,
or ``CorrelationKernel.__call__``).  A wrapper records a span -- name,
start, end, parent span -- plus a few attributes such as sample-point
counts, all in memory; :meth:`Tracer.to_json` hands them to the caller
when the run ends.  Nothing under ``src/`` is modified.

:func:`layer_metrics` turns a recorded trace into the per-layer figures:
self time (span duration minus the time its child spans cover), exact
call and point counts, achieved series orders and the coverage of the
run by layer spans.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "install", "layer_metrics", "LAYERS", "ROOT_SPAN"]

ROOT_SPAN = "scenarios.run"
# layers that own spans (grids is counted only)
LAYERS = ("scenarios", "bath", "system", "series", "coefficients", "propagate", "oracle")


class Tracer:
    """In-memory span recorder for a single-threaded run."""

    def __init__(self):
        self.spans = []  # [id, name, parent, start, end, attrs]
        self.counts = Counter()
        self._stack = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, **attrs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append([sid, name, parent, start, end, attrs])

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording a span per call; ``attrs(args, result)`` adds
        attributes to the span."""

        def traced(*args, **kwargs):
            with self.span(name) as extra:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra.update(attrs(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn, within: str | None = None):
        """``fn`` counting its calls under ``name`` without a span; with
        ``within`` only calls made directly inside that span count."""

        def counted(*args, **kwargs):
            if within is None or (self._stack and self._stack[-1][1] == within):
                self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _points(args, result) -> dict:
    import numpy as np

    # (self, j, k, t, s): number of sampled (t, s) pairs
    return {"points": int(np.broadcast(args[3], args[4]).size)}


def _order(args, result) -> dict:
    return {"order": int(args[0])}


def _first_order(args, result) -> dict:
    return {"order": 1}


def _outer(args, result) -> dict:
    return {"n": int(result.outer_index) + 1, "achieved": int(result.achieved_order)}


def _joint_dim(args, result) -> dict:
    return {"joint_dim": int(result.shape[0])}


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions where their callers find them."""
    from nmgme import bath, coefficients, grids, oracle, propagate, scenarios, series, system

    def patch(module, attr, name, attrs=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), attrs))

    # bath / system: kernel sampling
    patch(bath.CorrelationKernel, "__call__", "bath.kernel", _points)
    patch(system.CommutatorKernel, "__call__", "system.commutator", _points)

    # series: one context per outer time, then the chain recursions
    patch(series, "SeriesContext", "series.context")
    patch(series, "contraction_BA", "series.contraction_BA", _first_order)
    patch(series, "contraction_BB", "series.contraction_BB", _first_order)
    patch(series, "recurse_a", "series.recurse_a", _order)
    patch(series, "recurse_b", "series.recurse_b", _order)
    patch(series, "alpha_beta", "series.alpha_beta", _order)

    # coefficients: series assembly per outer time and the model reductions
    patch(coefficients, "assemble_AB", "series.assemble_AB", _outer)
    for module in (coefficients, scenarios):
        patch(module, "build_ab_tables", "coefficients.build_ab_tables")
    for attr in (
        "coefficients_qmupl",
        "coefficients_linear",
        "coefficients_dephasing",
        "coefficients_nondissipative",
    ):
        patch(scenarios, attr, "coefficients.reduce")

    # grids: quadrature weight builds, counted wherever they are looked up
    for module in (grids, series, coefficients, scenarios):
        module.quad_weights = tracer.count("grids.quad_weights_calls", module.quad_weights)

    # propagate
    patch(scenarios, "evolve", "propagate.evolve")
    patch(scenarios, "evolve_moments", "propagate.evolve_moments")
    patch(propagate, "me_rhs", "propagate.me_rhs")
    patch(propagate, "diagnostics", "propagate.diagnostics")
    patch(propagate.CoefficientInterpolator, "__call__", "propagate.interp")
    propagate._rk4_step = tracer.count(
        "propagate.rk4_steps", propagate._rk4_step, within="propagate.evolve"
    )

    # oracle
    patch(scenarios, "evolve_joint", "oracle.evolve_joint")
    patch(scenarios, "compare_with_me", "oracle.compare")
    patch(oracle, "build_joint", "oracle.build_joint", _joint_dim)
    patch(oracle, "expm", "oracle.expm")

    # scenarios: artifact writing
    for attr in ("write_coefficients_csv", "_write_json", "dump_convergence_csv"):
        patch(scenarios, attr, "scenarios.write")


def layer_metrics(trace: dict) -> tuple[dict, list]:
    """Per-layer figures of one traced run.

    Returns ``(metrics, achieved)``: ``metrics`` maps per-layer metric
    names to numbers (zero where the workload does not run the layer);
    ``achieved`` is the series order reached at each outer time.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    dur = {s[0]: s[4] - s[3] for s in spans}
    child_time = defaultdict(float)
    for sid, _, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = defaultdict(float)
    calls = Counter()
    for sid, name, *_ in spans:
        self_time[name] += dur[sid] - child_time[sid]
        calls[name] += 1

    def attr_sum(name, key):
        return sum(s[5].get(key, 0) for s in spans if s[1] == name)

    def order_time(n):
        names = ("series.recurse_a", "series.recurse_b", "series.alpha_beta")
        if n == 1:
            names += ("series.contraction_BA", "series.contraction_BB")
        return sum((dur[s[0]] for s in spans if s[1] in names and s[5].get("order") == n), 0.0)

    root = next(s for s in spans if s[1] == ROOT_SPAN)
    run_s = dur[root[0]]
    covered = sum(dur[s[0]] for s in spans if s[2] == root[0])

    per_call = sorted((s[5]["n"], dur[s[0]], s[5]["achieved"]) for s in spans if s[1] == "series.assemble_AB")
    upper = [(n, d) for n, d, _ in per_call if n > 1 and 2 * n >= per_call[-1][0]] if per_call else []
    n_exponent = (
        statistics.linear_regression([math.log(n) for n, _ in upper], [math.log(d) for _, d in upper]).slope
        if len(upper) > 1
        else 0.0
    )

    me_calls = calls["propagate.me_rhs"]
    metrics = {
        "scenarios.config_s": self_time["scenarios.config"],
        "scenarios.write_s": self_time["scenarios.write"],
        "bath.kernel_points": attr_sum("bath.kernel", "points"),
        "bath.kernel_s": self_time["bath.kernel"],
        "system.commutator_points": attr_sum("system.commutator", "points"),
        "system.commutator_s": self_time["system.commutator"],
        "series.assemble_AB_calls": calls["series.assemble_AB"],
        "series.assemble_AB_s": self_time["series.assemble_AB"],
        "series.context_s": self_time["series.context"],
        "series.order1_s": order_time(1),
        "series.recurse_a_s": self_time["series.recurse_a"],
        "series.recurse_b_s": self_time["series.recurse_b"],
        "series.alpha_beta_s": self_time["series.alpha_beta"],
        "series.order2_s": order_time(2),
        "series.order3_s": order_time(3),
        "series.achieved_order_max": max((a for _, _, a in per_call), default=0),
        "series.n_exponent": n_exponent,
        "coefficients.build_ab_tables_s": self_time["coefficients.build_ab_tables"],
        "coefficients.reduce_s": self_time["coefficients.reduce"],
        "grids.quad_weights_calls": counts.get("grids.quad_weights_calls", 0),
        "propagate.evolve_s": self_time["propagate.evolve"],
        "propagate.rk4_steps": counts.get("propagate.rk4_steps", 0),
        "propagate.me_rhs_calls": me_calls,
        "propagate.me_rhs_s": self_time["propagate.me_rhs"],
        "propagate.me_rhs_us_per_call": 1e6 * self_time["propagate.me_rhs"] / me_calls if me_calls else 0.0,
        "propagate.interp_calls": calls["propagate.interp"],
        "propagate.interp_s": self_time["propagate.interp"],
        "propagate.diagnostics_s": self_time["propagate.diagnostics"],
        "propagate.evolve_moments_s": self_time["propagate.evolve_moments"],
        "oracle.build_joint_s": self_time["oracle.build_joint"],
        "oracle.expm_s": self_time["oracle.expm"],
        "oracle.evolve_joint_s": self_time["oracle.evolve_joint"],
        "oracle.compare_s": self_time["oracle.compare"],
        "oracle.joint_dim": max((s[5]["joint_dim"] for s in spans if s[1] == "oracle.build_joint"), default=0),
        "trace.run_s": run_s,
        "trace.coverage": covered / run_s,
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}_s"] = sum(
            t for name, t in self_time.items() if name != ROOT_SPAN and name.split(".")[0] == layer
        )
    return metrics, [a for _, _, a in per_call]
