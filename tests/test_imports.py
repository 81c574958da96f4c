"""The command-line path loads numpy and yaml but not scipy, and every
exported name has a caller outside the tests."""

import ast
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


ROOT = Path(__file__).resolve().parents[1]


def _exported_names() -> dict:
    """``__all__`` of the package and of each submodule, by file."""
    out = {}
    for path in sorted((ROOT / "src" / "nmgme").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                out[path.name] = [elt.value for elt in node.value.elts]
    return out


def _references(tree: ast.AST) -> set:
    """Names a module reads outside the body of their own ``def`` or
    ``class`` and outside its ``__all__`` list: identifiers, attributes and
    the strings that ``getattr``-style lookups use.  Import lists are
    aliases, not ``Name`` nodes, so they never count."""
    found = set()

    def visit(node, inside):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_exported_name_has_a_caller_outside_the_tests():
    used = set()
    for top in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= _references(ast.parse(path.read_text()))
    unused = {
        module: sorted(set(names) - used) for module, names in _exported_names().items()
    }
    assert {module: names for module, names in unused.items() if names} == {}
