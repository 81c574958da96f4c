"""The command-line path, an oracle run included, loads numpy and yaml
but not scipy, its import loads yaml but no csv, every exported name,
module-level function or class and method of the package has a caller
outside the tests, and every name a module imports is read there or
exported."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nmgme import oracle


def _modules_after(code: str, cwd=None, prefix: str = "scipy") -> str:
    """Last line printed by ``code`` run in a fresh interpreter, which
    ends by printing the sorted modules it loaded whose names start with
    ``prefix``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code += f"\nprint(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy():
    assert _modules_after("import sys, nmgme.cli") == "[]"


def test_cli_import_loads_no_csv():
    # the writers format their rows themselves; every run pays for the
    # import set in its setup time
    assert _modules_after("import sys, nmgme.cli", prefix="csv") == "[]"


def test_cli_import_loads_yaml():
    # the bench's sample.py times the import of nmgme.cli, then imports
    # yaml itself before its run timer: a CLI that deferred its yaml
    # import would move that cost out of both timings unseen
    assert "'yaml'" in _modules_after("import sys, nmgme.cli", prefix="yaml")


@pytest.mark.parametrize("model", ["dephasing", "hpz"])
def test_oracle_check_run_loads_no_scipy(model, tmp_path):
    (tmp_path / "check.yaml").write_text(
        f"model: {model}\n"
        "kernel: {family: discrete_modes, mode_freqs: [1.0, 1.6], couplings: [[0.2, 0.2]]}\n"
        "grid: {t_max: 0.5, n_points: 9}\n"
        "propagation: {fock_dim: 6, h: 0.01, n_samples: 5}\n"
        "oracle: {mode_dims: [3, 3]}\n"
        "output_dir: out\n"
    )
    code = (
        "import sys\n"
        "from nmgme.cli import main\n"
        "assert main(['oracle-check', '--config', 'check.yaml']) == 0"
    )
    assert _modules_after(code, cwd=tmp_path) == "[]"
    assert (tmp_path / "out" / "oracle_trajectory.json").is_file()


def test_oracle_expm_resolves_on_access():
    from scipy.linalg import expm

    # the benchmark's tracing wraps this name; unwrap in case it already has
    assert inspect.unwrap(getattr(oracle, "expm")) is expm
    with pytest.raises(AttributeError, match="no_such_name"):
        oracle.no_such_name


ROOT = Path(__file__).resolve().parents[1]


def _exported(tree: ast.AST) -> set:
    """The names a module's ``__all__`` lists."""
    return {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }


def _defined_names() -> dict:
    """Names of each module of the package, by file: its ``__all__``, its
    module-level ``def``s and ``class``es, and the methods of those
    classes, dunders such as a module ``__getattr__`` excepted."""
    out = {}
    for path in sorted((ROOT / "src" / "nmgme").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = sorted(_exported(tree))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                body = node.body if isinstance(node, ast.ClassDef) else []
                defs = [node] + [f for f in body if isinstance(f, ast.FunctionDef)]
                names += [f.name for f in defs if not (f.name.startswith("__") and f.name.endswith("__"))]
        out[path.name] = names
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
    # exported names, module-level functions and classes, and methods
    used = set()
    for top in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= _references(ast.parse(path.read_text()))
    unused = {
        module: sorted(set(names) - used) for module, names in _defined_names().items()
    }
    assert {module: names for module, names in unused.items() if names} == {}


def test_every_imported_name_is_read_or_exported():
    # a name imported into a module of the package is read there or listed
    # in its __all__; the one excuse is a "# noqa: F401" name that the
    # benchmark's tracing looks up on that module
    tracing = _references(ast.parse((ROOT / "perfbench" / "tracing.py").read_text()))
    unread, excused = {}, {}
    for path in sorted((ROOT / "src" / "nmgme").glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        lines = text.splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    (excused if noqa else unread).setdefault(path.stem, []).append(name)
    assert unread == {}
    assert excused == {"coefficients": ["quad_weights", "assemble_AB"], "series": ["quad_weights"]}
    for module, names in excused.items():
        assert module in tracing and set(names) <= tracing, module
