"""The benchmark harness still finds the package names it traces.

``perfbench/tracing.py`` wraps public names of the package with timing
spans; a rename there crashes traced benchmark runs, and a call that
bypasses a patched name leaves its metric at 0.  This runs one traced
smoke sample of each workload end to end, and checks that the RK4 step
count of ``evolve`` and the kernel sampling points still reach the
harness.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from nmgme.propagate import aligned_steps

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Scenario-level spans each workload records; a pipeline call that
#: bypasses a patched name of ``nmgme.scenarios`` leaves its span out.
SPANS = {
    "series-qmupl": {"coefficients.build_ab_tables", "coefficients.reduce", "scenarios.write"},
    "fock-qmupl": {
        "coefficients.build_ab_tables", "coefficients.reduce", "scenarios.write",
        "propagate.evolve", "propagate.evolve_moments", "propagate.diagnostics",
    },
    "oracle-hpz": {
        "coefficients.build_ab_tables", "coefficients.reduce", "scenarios.write",
        "propagate.evolve", "oracle.evolve_joint", "oracle.compare",
    },
}


@pytest.mark.parametrize("workload", sorted(SPANS))
def test_traced_sample_records_scenario_spans(tmp_path, workload):
    cfg = _workloads().make_config(workload, 0, smoke=True)
    (tmp_path / "config.yaml").write_text(yaml.safe_dump(cfg, sort_keys=False))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "sample.py"), "trace", "result.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    trace = json.loads((tmp_path / "result.json").read_text())["trace"]
    assert SPANS[workload] <= {span[1] for span in trace["spans"]}
    # every kernel is sampled through __call__ on the 2G - 1 grid lags at
    # most, never on the G x G square
    G = cfg["grid"]["n_points"]
    for name in ("bath.kernel", "system.commutator"):
        points = [span[5].get("points", 0) for span in trace["spans"] if span[1] == name]
        assert points and all(0 < p <= 2 * G - 1 for p in points), (name, G, points)
    if "propagate.evolve" in SPANS[workload]:
        # every step of evolve goes through the patched propagate._rk4_step
        p = cfg["propagation"]
        assert trace["counts"]["propagate.rk4_steps"] == aligned_steps(cfg["grid"]["t_max"], p["h"], p["n_samples"])[0]
