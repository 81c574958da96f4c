"""Command-line entry point.

Usage::

    nmgme <scenario> --config run.yaml [--out DIR] [--grid G]
          [--order N] [--fock-dim M] [--dump-rho]

Scenarios: dephasing, hpz, qmupl, joos-zeh, oracle-check, coeffs.
Exit codes: 0 success, 2 invalid configuration (error names the field),
3 runtime abort (diagnostic payload on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

import yaml

from .propagate import EvolutionError
from .scenarios import SCENARIOS, ConfigError, RunConfig, run

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmgme",
        description=(
            "Compute master-equation coefficient tables, propagate density "
            "matrices, and validate against a brute-force system+modes "
            "reference."
        ),
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", required=True, help="YAML configuration file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--grid", type=int, help="grid points (overrides config)")
    parser.add_argument("--order", type=int, help="series order (overrides config)")
    parser.add_argument("--fock-dim", type=int, help="Fock truncation (overrides config)")
    parser.add_argument(
        "--dump-rho",
        action="store_true",
        help="include flattened density matrices in trajectory.json",
    )
    return parser


def _fail(code: int, kind: str, detail: dict) -> int:
    sys.stderr.write(json.dumps({"error": kind, **detail}, sort_keys=True) + "\n")
    return code


def _with_overrides(raw, args) -> dict:
    """The config tree with the command-line scenario and overrides; a
    config ``scenario:`` must name the command-line scenario."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", f"configuration must be a mapping, got {raw!r}")
    if raw.setdefault("scenario", args.scenario) != args.scenario:
        raise ConfigError("scenario", f"config names {raw['scenario']!r}, the command line {args.scenario!r}")
    if args.out is not None:
        raw["output_dir"] = args.out
    if args.dump_rho:
        raw["dump_rho"] = True
    for value, block, key in (
        (args.grid, "grid", "n_points"),
        (args.order, "series", "max_order"),
        (args.fock_dim, "propagation", "fock_dim"),
    ):
        if value is not None:
            if not isinstance(raw.setdefault(block, {}), dict):
                raise ConfigError(block, "must be a mapping")
            raw[block][key] = value
    return raw


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        return _fail(2, "config_unreadable", {"path": args.config, "message": str(exc)})

    try:
        # an empty file runs every default
        cfg = RunConfig.from_dict(_with_overrides({} if raw is None else raw, args))
    except ConfigError as exc:
        return _fail(2, "invalid_config", {"field": exc.field_path, "message": str(exc)})

    try:
        report = run(cfg)
    except ConfigError as exc:  # an output directory that cannot be made
        return _fail(2, "invalid_config", {"field": exc.field_path, "message": str(exc)})
    except EvolutionError as exc:
        return _fail(
            3, "runtime_abort", {"message": str(exc), "last_valid_time": exc.time}
        )
    except MemoryError as exc:
        return _fail(3, "runtime_abort", {"message": f"out of memory: {exc}"})
    except (ValueError, RuntimeError) as exc:
        return _fail(3, "runtime_abort", {"message": str(exc)})

    summary = {
        k: report[k]
        for k in ("scenario", "max_trace_distance", "max_achieved_order")
        if k in report
    }
    sys.stdout.write(json.dumps({"status": "ok", **summary}, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
