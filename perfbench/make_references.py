"""Regenerate the stored reference coefficient tables.

Usage, from the repository root::

    python3 perfbench/make_references.py

Runs one sample of every workload for each of the seeds 0 to 9 that the
benchmark ships references for, checks its report invariants, and
stores its ``coefficients.csv`` as
``perfbench/references/<workload>/seed-<n>.csv`` and, for workloads that
propagate, its final state (see :func:`gate.final_state`) as
``seed-<n>.final.json``.  The benchmark compares every later sample of
those seeds against them (abs 1e-12 and 1e-10), so regenerate them only
for a change that is meant to move the numbers, and always all of them.
"""

import json
import shutil
import sys
import time

import gate
from run import HARD_LIMIT_S, REFERENCES, prepare, spawn
from workloads import WORKLOADS


SEEDS = range(10)


def main() -> int:
    for workload in WORKLOADS:
        target = REFERENCES / workload
        target.mkdir(parents=True, exist_ok=True)
        for seed in SEEDS:
            cfg, workdir = prepare(workload, seed)
            result, _, error = spawn(workdir, "run", time.monotonic() + HARD_LIMIT_S)
            problems = [error] if result is None else gate.check_sample(cfg, workdir / "out", None)[0]
            if problems:
                print(f"{workload} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            shutil.copy(workdir / "out" / "coefficients.csv", target / f"seed-{seed}.csv")
            final = gate.final_state(workdir / "out")
            if final:
                (target / f"seed-{seed}.final.json").write_text(json.dumps(final, indent=1) + "\n")
            print(f"{workload} seed {seed}: stored")
    return 0


if __name__ == "__main__":
    sys.exit(main())
