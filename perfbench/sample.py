"""One benchmark sample, run in a fresh interpreter.

Usage (from a sample directory holding ``config.yaml``)::

    python3 sample.py run|trace|import RESULT.json

The sample first imports ``nmgme.cli`` -- the package and every
dependency a command-line call loads -- and records the monotonic clock
when that finishes, so the parent can time interpreter start-up plus
imports.  It then reads the YAML config, calls ``RunConfig.from_dict``
and ``scenarios.run``, and records the wall time of those steps, the
peak resident memory of the process and the provenance of the numeric
stack.  ``trace`` does the same with span wrappers installed;
``import`` stops after the imports.  ``run`` and ``import`` run a
:class:`speed.Probe` from the start and report its figures separately
for the imports and for the run.
"""

import json
import resource
import sys
import time
from contextlib import nullcontext


def _provenance() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return info.get("openblas configuration") or f"{info.get('name')} {info.get('version')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }


def main(mode: str, result_path: str) -> None:
    import speed

    probe = speed.Probe()
    if mode != "trace":
        probe.start()
    import nmgme.cli  # noqa: F401  (the import cost of a command-line call)

    imported = time.monotonic()
    result = {"imported_at": imported, "import_probe": probe.split()}
    if mode == "import":
        probe.stop()
        with open(result_path, "w") as fh:
            json.dump(result, fh)
        return
    import yaml
    from nmgme.scenarios import RunConfig, run

    import tracing

    tracer = tracing.Tracer() if mode == "trace" else None
    if tracer is not None:
        tracing.install(tracer)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    probe.split()  # drop the probes between the two timed stretches
    start = time.perf_counter()
    with span(tracing.ROOT_SPAN):
        with span("scenarios.config"):
            with open("config.yaml") as fh:
                cfg = RunConfig.from_dict(yaml.safe_load(fh))
        run(cfg)
    result["run_s"] = time.perf_counter() - start
    probe.stop()
    result["run_probe"] = probe.split()
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["provenance"] = _provenance()
    if tracer is not None:
        result["trace"] = tracer.to_json()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ("run", "trace", "import"):
        sys.exit("usage: sample.py run|trace|import RESULT.json")
    main(sys.argv[1], sys.argv[2])
