"""Every import of the package is at module level: an import inside a
function runs again, lock and lookup included, on every call."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import fiberjoin

PACKAGE = Path(fiberjoin.__file__).resolve().parent


def test_no_import_inside_a_function():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {
                    f"{path.name}:{node.lineno} in {function.name}"
                    for node in ast.walk(function)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                }
    assert not found, sorted(found)


def test_no_generated_code():
    """No module imports ``dataclasses`` or calls ``exec``: a generated
    record writes out and compiles its methods at every import, about
    1 ms a class (see ``exactalg.Record``)."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            else:
                imported = [node.module] if isinstance(node, ast.ImportFrom) else []
            calls_exec = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "exec"
            )
            if "dataclasses" in imported or calls_exec:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_import_loads_neither_dataclasses_nor_inspect():
    """What importing the command line adds to a fresh interpreter."""
    script = (
        "import sys; before = set(sys.modules); import fiberjoin.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "fiberjoin.cli" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded)
