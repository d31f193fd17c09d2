"""Every import of the package is at module level: an import inside a
function runs again, lock and lookup included, on every call.  And
every module-level import and private name is read in its module."""

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


def module_level_bindings(tree):
    """(line, name) of each name the module's top-level statements bind
    by an import, but ``from __future__``, and of each private one, ``_x``,
    bound by a def, a class or an assignment."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    yield node.lineno, (alias.asname or alias.name).split(".")[0]
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield node.lineno, name


def test_every_module_level_import_and_private_name_is_read():
    """A deletion leaves nothing behind: each module reads every name it
    imports and every private name it defines.  ``__init__`` is exempt
    from the import half, as its imports are the package's exports."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for line, name in module_level_bindings(tree):
            exported = path.name == "__init__.py" and not name.startswith("_")
            if name not in read and not exported:
                found.append(f"{path.name}:{line} {name}")
    assert not found, found
