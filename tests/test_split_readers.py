"""A join's split blocks are derived in one place: ``model.JoinFacts``
keeps them as ``blocks``, and every other module reads them there.
Outside ``model`` only ``invariant_report`` reads a spec's ``split``,
to echo the declared split in the report."""

import ast
import re
from pathlib import Path

import fiberjoin

PACKAGE = Path(fiberjoin.__file__).resolve().parent

# Objects whose ``split`` is not a spec's: an ``InvariantReport``, the
# survey's entries (``self``) and a ``SurveyReport`` (``report``).
NOT_A_SPEC = {"self", "report"}


def test_no_pole_accessor_comes_back():
    found = [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"omega_(zero|infinity)", line)
    ]
    assert not found, found


def test_only_model_and_the_report_echo_read_a_spec_split():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "model.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls = {id(n.func) for n in ast.walk(function) if isinstance(n, ast.Call)}
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Attribute)
                    and id(node) not in calls  # str.split
                    and node.attr == "split"
                    and isinstance(node.ctx, ast.Load)
                    and getattr(node.value, "id", None) not in NOT_A_SPEC
                ):
                    found.add(f"{path.name}:{node.lineno} in {function.name}")
    assert {entry.split(" in ")[1] for entry in found} == {"invariant_report"}, sorted(found)
