"""Source hygiene, checked with the standard library only.

The benchmark's tracer patches the functions named in
`smokebench/tracing.py` TARGETS; a target that no longer exists would
otherwise show up only in a traced benchmark run. Every package module is
also scanned for imported names that it never uses, and every error class
must be raised somewhere in the package. The package needs numpy alone, so
importing its CLI must not load scipy.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smokewatch"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def load_targets():
    spec = importlib.util.spec_from_file_location(
        "smokebench_tracing", ROOT / "smokebench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.TARGETS


def unused_imports(source: str) -> list[str]:
    """Names a module imports (not from __future__) but never loads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def unraised_errors(errors_source: str, sources: list[str]) -> list[str]:
    """SmokewatchError subclasses defined in errors_source that no `raise`
    in sources names (as `X`, `X(...)` or `module.X(...)`)."""
    errors = set()
    for node in ast.parse(errors_source).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in errors | {"SmokewatchError"}
                for b in node.bases):
            errors.add(node.name)
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return sorted(errors - raised)


@pytest.mark.parametrize("module, function",
                         [(m, f) for m, f, _ in load_targets()])
def test_every_traced_target_exists(module, function):
    mod = importlib.import_module(f"smokewatch.{module}")
    assert callable(getattr(mod, function, None)), f"smokewatch.{module}.{function}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_error_class_is_raised():
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    assert unraised_errors((PACKAGE / "errors.py").read_text(encoding="utf-8"),
                           sources) == []


def test_the_scan_finds_an_unraised_error():
    errors = ("class SmokewatchError(Exception): pass\n"
              "class A(SmokewatchError): pass\n"
              "class B(A, ValueError): pass\n"
              "class C(SmokewatchError): pass\n"
              "class D(SmokewatchError): pass\n"
              "class Other(Exception): pass\n")
    sources = ["raise A('x') from None\n", "try:\n    pass\nexcept C:\n    raise\n",
               "from . import errors\nraise errors.D\n"]
    assert unraised_errors(errors, sources) == ["B", "C"]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import Any, Union\nx: Union\n") == [
        "line 1: os", "line 2: Any"]


def test_importing_the_cli_loads_no_scipy():
    # a fresh interpreter: this test process may have imported scipy already
    code = ("import sys, smokewatch.cli; "
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
