"""Correctness gate applied to the artifacts of every sample.

A sample passes when its coefficient table matches the stored reference
for its seed (where the benchmark ships one) within the golden
tolerance, its final state (:func:`final_state`: the last sample of the
master-equation and oracle trajectories and the oracle trace distance)
matches the stored one within ``FINAL_TOL``, and when the invariants in
``report.json`` hold:

* trace drift below 1e-9 per unit time and Hermiticity defect below
  1e-10 (the acceptance-suite levels), minimum eigenvalue >= -1e-8, no
  propagation warnings;
* the series ran every configured order at every outer time, for the
  ``coeffs`` and ``qmupl`` scenarios (``oracle-check`` writes no
  ``series_convergence.csv``; there the order is covered only by the
  reference coefficient table);
* Fock and moment propagation agree (``moment_fock_max_dq <= 1e-8``) and
  the moments satisfy the uncertainty relation;
* the master equation stays within ``MAX_TRACE_DISTANCE`` of the oracle,
  compared inside the bath recurrence time.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

__all__ = ["TABLE_TOL", "MAX_TRACE_DISTANCE", "max_table_diff", "final_state", "check_sample"]

TABLE_TOL = 1e-12
# final-state entries (see ``final_state``); they catch generator terms
# the moment cross-check cannot see (the diffusion terms leave the means
# unchanged) and oracle or Hamiltonian changes that leave the purity and
# the trace-distance ceiling intact
FINAL_TOL = 1e-10
MAX_DRIFT = 1e-9
MAX_HERMITICITY_DEFECT = 1e-10
MIN_EIGENVALUE = -1e-8
MAX_MOMENT_FOCK_DQ = 1e-8
# about three times the largest distance seen over the seed jitter ranges
MAX_TRACE_DISTANCE = 1e-4


def _read_table(path: Path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def max_table_diff(path: Path, ref_path: Path) -> float:
    """Largest absolute entry difference of two coefficient tables
    (infinite when their columns or row counts differ)."""
    header, rows = _read_table(path)
    ref_header, ref_rows = _read_table(ref_path)
    if header != ref_header or len(rows) != len(ref_rows):
        return math.inf
    return max(
        (abs(a - b) for row, ref in zip(rows, ref_rows) for a, b in zip(row, ref)),
        default=0.0,
    )


def final_state(outdir: Path) -> dict:
    """Last sampled value of every observable and diagnostic of the
    master-equation trajectory and, where an oracle ran, of the oracle
    trajectory (keys prefixed ``oracle.``) and the oracle trace distance
    from ``report.json``; empty when the run propagates nothing."""
    final = {}
    for prefix, name in (("", "trajectory.json"), ("oracle.", "oracle_trajectory.json")):
        path = outdir / name
        if path.is_file():
            traj = json.loads(path.read_text())
            final.update(
                (f"{prefix}{group}.{key}", values[-1])
                for group in ("observables", "diagnostics")
                for key, values in sorted(traj[group].items())
            )
    report = json.loads((outdir / "report.json").read_text())
    if "max_trace_distance" in report:
        final["report.max_trace_distance"] = report["max_trace_distance"]
    return final


def _series_orders(path: Path) -> dict:
    """Included orders per outer time from ``series_convergence.csv``."""
    orders = {}
    with open(path, newline="") as fh:
        for row in list(csv.reader(fh))[1:]:
            orders.setdefault(row[0], []).append(int(row[1]))
    return orders


def check_sample(cfg: dict, outdir: Path, ref: Path | None) -> tuple[list, dict]:
    """Problems found in one sample's artifacts, and its accuracy figures.

    ``ref`` is the stored reference of the seed without suffix
    (``references/<workload>/seed-<n>``), or None when none ships."""
    problems = []
    report = json.loads((outdir / "report.json").read_text())
    header, rows = _read_table(outdir / "coefficients.csv")
    accuracy = {"max_abs_dcoeff": None}
    if len(rows) != cfg["grid"]["n_points"]:
        problems.append(f"coefficients.csv has {len(rows)} rows, expected {cfg['grid']['n_points']}")
    if not all(math.isfinite(x) for row in rows for x in row):
        problems.append("coefficients.csv holds non-finite entries")
    if ref is not None:
        diff = max_table_diff(outdir / "coefficients.csv", ref.with_suffix(".csv"))
        accuracy["max_abs_dcoeff"] = diff
        if not diff <= TABLE_TOL:
            problems.append(f"coefficients differ from {ref.name}.csv by {diff:.3e} > {TABLE_TOL:g}")
        ref_final_path = ref.with_suffix(".final.json")
        ref_final = json.loads(ref_final_path.read_text()) if ref_final_path.is_file() else {}
        final = final_state(outdir)
        if final.keys() != ref_final.keys():
            problems.append(f"final state has other entries than {ref.name}.final.json")
        elif final:
            diff = max(abs(final[k] - ref_final[k]) for k in final)
            accuracy["max_abs_dfinal"] = diff
            if not diff <= FINAL_TOL:
                problems.append(f"final state differs from {ref.name}.final.json by {diff:.3e} > {FINAL_TOL:g}")

    scenario = cfg["scenario"]
    max_order = cfg["series"]["max_order"]
    if scenario in ("coeffs", "qmupl"):
        orders = _series_orders(outdir / "series_convergence.csv")
        expected = list(range(1, max_order + 1))
        short = [t for t, ns in orders.items() if ns != expected]
        if report.get("max_achieved_order") != max_order or short or len(orders) != len(rows) - 1:
            problems.append(f"series did not run orders {expected} at every outer time")

    if scenario in ("qmupl", "oracle-check"):
        for key in ("trace_drift_per_unit_time", "max_hermiticity_defect", "min_eigenvalue"):
            accuracy[key] = report[key]
        if not report["trace_drift_per_unit_time"] < MAX_DRIFT:
            problems.append(f"trace drift {report['trace_drift_per_unit_time']:.3e} per unit time")
        if not report["max_hermiticity_defect"] < MAX_HERMITICITY_DEFECT:
            problems.append(f"Hermiticity defect {report['max_hermiticity_defect']:.3e}")
        if not report["min_eigenvalue"] >= MIN_EIGENVALUE:
            problems.append(f"minimum eigenvalue {report['min_eigenvalue']:.3e}")
        if report["warnings"]:
            problems.append(f"propagation warnings: {report['warnings']}")

    if scenario == "qmupl":
        accuracy["moment_fock_max_dq"] = report["moment_fock_max_dq"]
        if not report["moment_fock_max_dq"] <= MAX_MOMENT_FOCK_DQ:
            problems.append(f"moments vs Fock differ by {report['moment_fock_max_dq']:.3e}")
        if report["uncertainty_ok"] is not True:
            problems.append("moments violate the uncertainty relation")

    if scenario == "oracle-check":
        accuracy["max_trace_distance"] = report["max_trace_distance"]
        if not report["max_trace_distance"] <= MAX_TRACE_DISTANCE:
            problems.append(f"trace distance to the oracle {report['max_trace_distance']:.3e}")
        if not cfg["grid"]["t_max"] < report["recurrence_time_estimate"]:
            problems.append("comparison window reaches the bath recurrence time")
    return problems, accuracy
