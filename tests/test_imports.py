"""The command-line path loads numpy and yaml but not scipy."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nmgme import oracle


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import sys, nmgme.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_oracle_expm_resolves_on_access():
    from scipy.linalg import expm

    # the benchmark's tracing wraps this name; unwrap in case it already has
    assert inspect.unwrap(getattr(oracle, "expm")) is expm
    with pytest.raises(AttributeError, match="no_such_name"):
        oracle.no_such_name
