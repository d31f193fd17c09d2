"""The benchmark tracer (bench/tracing.py) rebinds package functions by
name; a refactor that renames or deletes one must fail here."""

import ast
import importlib
from pathlib import Path

import fiberjoin
from fiberjoin import model

TRACING = Path(fiberjoin.__file__).resolve().parents[2] / "bench" / "tracing.py"


def traced_targets():
    """``TARGETS`` of the tracer, read from its source without importing it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no TARGETS")


def test_every_traced_target_is_a_package_function():
    targets = traced_targets()
    assert targets
    for module_name, func_name in targets:
        module = importlib.import_module(f"fiberjoin.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"


def test_spec_construction_looks_validate_up_by_name(monkeypatch):
    seen = []
    original = model.validate
    monkeypatch.setattr(model, "validate", lambda spec: seen.append(spec) or original(spec))
    spec = model.make_spec([model.BaseFactor.surface(2)], [[2], [3]], (0, 0))
    assert seen == [spec]
