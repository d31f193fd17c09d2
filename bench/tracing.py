"""Span tracing of fiberjoin's layers from outside the package.

``install`` wraps the public functions named in ``TARGETS`` by
rebinding every module attribute of the ``fiberjoin`` package that
refers to them, so calls between modules and within a module go
through the wrapper.  Nothing under ``src/`` changes, and
``uninstall`` puts the original functions back.

A span is (request, name, start, end, parent); the spans of a pass
stay in memory and ``layer_report`` turns them into per-layer counts
and self times.  The program is single-threaded, so no layer waits
on another and no waiting time is reported.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import wraps

TARGETS = (
    ("exactalg", "strictly_positive_on"),
    ("exactalg", "solve_linear"),
    ("admissible", "admissible_data"),
    ("admissible", "solve_csc"),
    ("admissible", "extremal_profile"),
    ("model", "make_spec"),
    ("model", "validate"),
    ("model", "is_colinear"),
    ("model", "canonical_split_spec"),
    ("topology", "c1_contact"),
    ("topology", "cohomology_table"),
    ("topology", "euler_class"),
    ("topology", "p1"),
    ("topology", "spin_status"),
    ("einstein", "se_check"),
    ("classify", "parse_spec"),
    ("classify", "parse_factor"),
    ("classify", "classify"),
    ("classify", "invariant_report"),
    ("classify", "emit"),
    ("classify", "survey"),
    ("cli", "main"),
)

TOPOLOGY = [f"topology.{name}" for module, name in TARGETS if module == "topology"]
MODEL = [f"model.{name}" for module, name in TARGETS if module == "model"]
PARSE = ("classify.parse_spec", "classify.parse_factor")


class Recorder:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = 0
        self._stack: list[int] = []

    def clear(self):
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        observe = _OBSERVERS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.request, name, start, end, parent)
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced


def _observe_positivity(counts, args, result):
    counts["exactalg.strictly_positive_on.positive"] += bool(result)


def _observe_emit(counts, args, result):
    counts["classify.emit.bytes"] += len(result.encode("utf-8"))


def _observe_survey(counts, args, result):
    base, _, max_entry = args[:3]
    counts["classify.survey.candidates"] += max_entry ** (2 * len(base.factors))
    counts["classify.survey.orbits"] += len(result.entries)


_OBSERVERS = {
    "exactalg.strictly_positive_on": _observe_positivity,
    "classify.emit": _observe_emit,
    "classify.survey": _observe_survey,
}


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "fiberjoin" or name.startswith("fiberjoin."))
    ]


def install(recorder: Recorder) -> list:
    """Rebind every reference to a target function inside the package
    to a traced wrapper; returns what ``uninstall`` needs."""
    modules = _package_modules()
    undo = []
    for module_name, func_name in TARGETS:
        original = getattr(sys.modules[f"fiberjoin.{module_name}"], func_name)
        traced = recorder.wrap(f"{module_name}.{func_name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
                    undo.append((module, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


def layer_report(recorder: Recorder) -> dict:
    """Calls, self time and inclusive time per span name, plus the
    per-layer metrics built from them.  Times are in milliseconds."""
    spans = recorder.spans
    child_ns = [0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    parse_ns = 0
    for i, (_, name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name] += end - start - child_ns[i]
        if name in PARSE and (parent < 0 or spans[parent][1] not in PARSE):
            parse_ns += end - start

    def ms(ns):
        return ns / 1e6

    names = {f"{m}.{f}" for m, f in TARGETS}
    per_name = {
        name: {"calls": calls[name], "self_ms": ms(self_ns[name])} for name in sorted(names)
    }
    counts = recorder.counts
    positivity = calls["exactalg.strictly_positive_on"]
    candidates = counts["classify.survey.candidates"]
    layers = {
        "exactalg.strictly_positive_on.calls": positivity,
        "exactalg.strictly_positive_on.self_ms": ms(self_ns["exactalg.strictly_positive_on"]),
        "exactalg.strictly_positive_on.positive_ratio": (
            counts["exactalg.strictly_positive_on.positive"] / positivity if positivity else 0.0
        ),
        "exactalg.solve_linear.calls": calls["exactalg.solve_linear"],
        "exactalg.solve_linear.self_ms": ms(self_ns["exactalg.solve_linear"]),
    }
    for name in ("admissible.extremal_profile", "admissible.solve_csc", "admissible.admissible_data"):
        layers[f"{name}.calls"] = calls[name]
        layers[f"{name}.self_ms"] = ms(self_ns[name])
    layers.update(
        {
            "model.canonical_split_spec.calls": calls["model.canonical_split_spec"],
            "model.make_spec.calls": calls["model.make_spec"],
            "model.make_spec.self_ms": ms(self_ns["model.make_spec"]),
            "model.validate.calls": calls["model.validate"],
            "model.is_colinear.calls": calls["model.is_colinear"],
            "model.self_ms": ms(sum(self_ns[n] for n in MODEL)),
            "topology.self_ms": ms(sum(self_ns[n] for n in TOPOLOGY)),
            "einstein.se_check.self_ms": ms(self_ns["einstein.se_check"]),
            "classify.parse_spec.calls": calls["classify.parse_spec"],
            "classify.parse.ms": ms(parse_ns),
            "classify.classify.self_ms": ms(self_ns["classify.classify"]),
            "classify.invariant_report.self_ms": ms(self_ns["classify.invariant_report"]),
            "classify.emit.ms": ms(total_ns["classify.emit"]),
            "classify.emit.bytes": counts["classify.emit.bytes"],
            "classify.survey.candidates": candidates,
            "classify.survey.orbits": counts["classify.survey.orbits"],
            "classify.survey.orbit_ratio": (
                counts["classify.survey.orbits"] / candidates if candidates else 0.0
            ),
            "cli.main.self_ms": ms(self_ns["cli.main"]),
        }
    )
    return {"layers": layers, "per_name": per_name}
