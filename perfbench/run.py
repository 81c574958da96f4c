"""nmgme benchmark: seeded command-line workloads, timed end to end and
traced layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload series-qmupl --seed 0 --seconds 42 --trace 0
    python3 perfbench/run.py --smoke

A run writes the workload's config for ``--seed`` and then, one at a
time from this process, starts samples: fresh interpreters that import
``nmgme.cli`` (``setup_s``, from process start), read the config and
call ``RunConfig.from_dict`` and ``scenarios.run`` (``run_s``,
``peak_rss_mb``).  With ``--trace 1`` untraced and traced samples
alternate; the traced ones give the per-layer metrics and the
difference is the tracing overhead.

Samples start until the next one would end after ``--seconds``; the
time left goes to import-only samples, which add ``setup_s`` figures.
Untraced and import-only samples run a :class:`speed.Probe`, and the
reported ``run_s`` and ``setup_s`` are their wall times at the reference
speed (see ``speed.py``).
Every sample's artifacts pass the correctness gate (:mod:`gate`) and must be
byte-identical to the first sample's.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (medians over the samples); the lines before it carry the
provenance, the accuracy figures and the layer summary, and the whole
record is written to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import gate
import speed
from tracing import LAYERS, layer_metrics
from workloads import WORKLOADS, make_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
REFERENCES = BENCH / "references"

# BLAS/OpenMP threads for every sample: one, so the numbers do not depend
# on what else shares the machine's cores and results are deterministic.
THREADS = 1
# every subprocess ends within this many seconds of the start of a run
HARD_LIMIT_S = 170.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _git_commit() -> str:
    """Commit of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # stop at the checkout: never report an enclosing repository
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _sample_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def spawn(workdir: Path, mode: str, hard_deadline: float) -> tuple[dict | None, float, str]:
    """Run one ``sample.py mode`` in ``workdir``, ending it by ``hard_deadline``
    (monotonic clock); returns (result or None, setup_s, error)."""
    result_path = workdir / "sample.json"
    result_path.unlink(missing_ok=True)
    timeout = max(hard_deadline - time.monotonic(), 1.0)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "sample.py"), mode, str(result_path)],
            cwd=workdir,
            env=_sample_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, 0.0, f"{mode} sample exceeded {timeout:.0f} s"
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["(no output)"])[-1]
        return None, 0.0, f"{mode} sample exited {proc.returncode}: {tail}"
    result = json.loads(result_path.read_text())
    return result, result["imported_at"] - spawned, ""


def _artifact_digest(outdir: Path) -> tuple[str, int]:
    digest, size = hashlib.sha256(), 0
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


def prepare(workload: str, seed: int, smoke: bool = False) -> tuple[dict, Path]:
    """Fresh work directory holding the workload's ``config.yaml``."""
    cfg = make_config(workload, seed, smoke=smoke)
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (workdir / "config.yaml").write_text(yaml.safe_dump(cfg, sort_keys=False))
    return cfg, workdir


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the full record (see module docstring)."""
    start = time.monotonic()
    deadline = start + seconds
    cfg, workdir = prepare(workload, seed, smoke)
    ref = REFERENCES / workload / f"seed-{seed}"
    if smoke or not ref.with_suffix(".csv").is_file():
        ref = None

    modes = ("run", "trace") if trace else ("run",)
    attempted, samples, durations = 0, {"run": [], "trace": []}, []
    setup_s, setup_ref_s, errors, provenance = [], [], [], {}
    first_digest, accuracy = None, {}
    while True:
        began = time.monotonic()
        mode = modes[attempted % len(modes)]
        attempted += 1
        shutil.rmtree(workdir / "out", ignore_errors=True)
        result, setup, error = spawn(workdir, mode, start + HARD_LIMIT_S)
        durations.append(time.monotonic() - began)
        if result is not None:
            setup_s.append(setup)
            if mode == "run":
                setup_ref_s.append(speed.at_reference_speed(setup, result["import_probe"]))
            provenance = result["provenance"]
            try:
                problems, accuracy_i = gate.check_sample(cfg, workdir / "out", ref)
            except (OSError, KeyError, ValueError) as exc:
                problems, accuracy_i = [f"unreadable artifacts: {exc!r}"], {}
            digest, size = _artifact_digest(workdir / "out")
            first_digest = first_digest or digest
            if digest != first_digest:
                problems.append("artifacts differ from the first sample's")
            if problems:
                error = f"{mode} sample failed the gate: " + "; ".join(problems)
            else:
                result["artifact_bytes"] = size
                samples[mode].append(result)
                accuracy = accuracy_i
        if error:
            errors.append(error)
        projected = time.monotonic() + statistics.median(durations)
        if projected > start + HARD_LIMIT_S or (attempted >= len(modes) and projected > deadline):
            break
    # the time left before the deadline goes to import-only samples, which
    # add setup_s figures
    while setup_s and time.monotonic() + 2 * statistics.median(setup_s) < deadline:
        result, setup, error = spawn(workdir, "import", start + HARD_LIMIT_S)
        if result is None:
            errors.append(error)
            break
        setup_s.append(setup)
        setup_ref_s.append(speed.at_reference_speed(setup, result["import_probe"]))

    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "attempted": attempted,
        "failed": attempted - sum(len(v) for v in samples.values()),
        "errors": errors,
        "provenance": {
            **provenance,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": THREADS,
            "git_commit": _git_commit(),
            "seed": seed,
        },
        "accuracy": accuracy,
        "config": cfg,
        "samples": {
            "setup_s": setup_s,
            **{f"{mode}_run_s": [r["run_s"] for r in results] for mode, results in samples.items()},
        },
    }
    untraced = samples["run"]
    if not untraced or (trace and not samples["trace"]):
        record["metrics"] = None
        return record
    # wall time without the probe's own time
    run_s = statistics.median(s["run_s"] - s["run_probe"]["spent_s"] for s in untraced)
    if not trace:
        record["speed"] = {
            "wall_run_s": run_s,
            "wall_setup_s": statistics.median(setup_s),
            "probe_mean_s": statistics.median(s["run_probe"]["mean_s"] for s in untraced),
            "probes_per_run": statistics.median(s["run_probe"]["n"] for s in untraced),
        }
        record["metrics"] = {
            "run_s": statistics.median(speed.at_reference_speed(s["run_s"], s["run_probe"]) for s in untraced),
            "setup_s": statistics.median(setup_ref_s),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
        }
        return record
    layers = [layer_metrics(s["trace"]) for s in samples["trace"]]
    (WORK / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(samples["trace"][0]["trace"]))
    metrics = {name: statistics.median(m[name] for m, _ in layers) for name in layers[0][0]}
    metrics["scenarios.artifact_bytes"] = untraced[0]["artifact_bytes"]
    metrics["trace.overhead_s"] = statistics.median(s["run_s"] for s in samples["trace"]) - run_s
    record["metrics"] = metrics
    shares = {layer: metrics[f"layer.{layer}_s"] / metrics["trace.run_s"] for layer in LAYERS}
    record["layers"] = {
        "untraced_run_s": run_s,
        "coverage": metrics["trace.coverage"],
        "self_time_share": shares,
        "dominant_layer": max(shares, key=shares.get),
        "achieved_order_per_outer_time": layers[0][1],
    }
    return record


def result_line(record: dict) -> dict:
    """The benchmark's final JSON object for a record."""
    return {
        "correct": record["failed"] == 0 and not record["errors"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in record["metrics"].items()
        },
    }


def smoke() -> int:
    """Harness self-test at tiny sizes.

    Checks that exactly the metrics declared in BENCHMARK.json are printed
    on every workload, that the gate accepts a sample's own table as
    reference and rejects it once one entry is perturbed by 1e-9.
    """
    declared = {
        False: [m["name"] for m in SPEC["end_to_end"]],
        True: [m["name"] for m in SPEC["per_layer"]],
    }
    failures = []
    for workload in WORKLOADS:
        for trace in (False, True):
            record = measure(workload, 0, 1.0, trace, smoke=True)
            if record["metrics"] is None:
                failures.append(f"{workload} trace={int(trace)}: no result ({record['errors']})")
                continue
            line = result_line(record)
            if not line["correct"]:
                failures.append(f"{workload} trace={int(trace)}: {record['errors']}")
            if sorted(line["metrics"]) != sorted(declared[trace]):
                failures.append(f"{workload} trace={int(trace)}: metrics differ from BENCHMARK.json")
        table = WORK / workload / "out" / "coefficients.csv"
        ref = WORK / workload / "reference.csv"
        shutil.copy(table, ref)
        if gate.max_table_diff(table, ref) > gate.TABLE_TOL:
            failures.append(f"{workload}: gate rejects an identical table")
        lines = ref.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[1] = repr(float(cells[1]) + 1e-9)
        ref.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
        if not gate.max_table_diff(table, ref) > gate.TABLE_TOL:
            failures.append(f"{workload}: gate accepts a perturbed reference table")
    for failure in failures:
        print("FAIL", failure)
    print("smoke:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="harness self-test at tiny sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nmgme" / "__init__.py").is_file():
        print(f"nmgme sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    WORK.mkdir(exist_ok=True)
    out = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for error in record["errors"]:
        print("error:", error, file=sys.stderr)
    if record["metrics"] is None:
        print("no sample completed; no result", file=sys.stderr)
        return 1
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({"accuracy": record["accuracy"]}))
    if not args.trace:
        print(json.dumps({"speed": record["speed"]}))
    if args.trace:
        print(json.dumps({"layers": record["layers"]}))
    line = result_line(record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
