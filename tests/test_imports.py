"""Every import of the package is at module level: an import inside a
function runs again, lock and lookup included, on every call."""

import ast
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
