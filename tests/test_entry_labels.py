"""An admissible entry's role is told one way, by its r: the fiber
blocks are the entries at r = +1 and -1.  Its label only names it, so
under ``src/`` the label is read only where ``admissible_data`` names
two entries in its ``RepeatedParameterError`` message."""

import ast
from pathlib import Path

import fiberjoin

PACKAGE = Path(fiberjoin.__file__).resolve().parent


def test_only_the_repeated_parameter_message_reads_a_label():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "label"
                    and isinstance(node.ctx, ast.Load)
                ):
                    found.add(f"{path.name}:{node.lineno} in {function.name}")
    assert {entry.split(" in ")[1] for entry in found} == {"admissible_data"}, sorted(found)
