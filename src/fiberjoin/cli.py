"""Command line interface.

Every subcommand reads one JSON document from a file path (or ``-``
for stdin) and writes a JSON document to stdout; ``survey`` writes
JSON or, with ``--format csv``, csv one entry at a time.  Exit codes:
0 on success, 1 for an invalid input document, an answer holding an
integer too long to write or a reader of stdout that has gone, 2 when
a valid join hits degenerate data for the requested computation.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import json
import os
import sys
from typing import Callable, Generator, Optional, Sequence

from . import admissible as adm
from . import einstein
from .classify import (
    emit,
    invariant_report,
    parse_spec,
    parse_survey,
    serialize_polynomial,
    serialize_rational,
    spec_report,
    survey,
    survey_chunks,
)
from .exactalg import SingularMatrixError
from .model import DigitLimitError, FiberJoinSpec, SpecError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for data errors
        raise _UsageError(message)


def _read_document(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return _DECODER.decode(text)


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refusing a repeated key: json.loads keeps its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = collections.Counter(key for key, _ in pairs)
        raise ValueError(f"repeated key {max(counts, key=counts.get)!r}")
    return obj


# Built once: json.loads would build a decoder for each document.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _run_csc(spec: FiberJoinSpec) -> dict:
    result = adm.solve_csc(adm.admissible_data(spec))
    return {
        "verdict": result.verdict,
        "s": serialize_rational(result.s) if result.s is not None else None,
        "certificate": (
            serialize_polynomial(result.certificate)
            if result.certificate is not None
            else None
        ),
    }


def _run_extremal(spec: FiberJoinSpec) -> dict:
    profile = adm.extremal_profile(adm.admissible_data(spec))
    return {
        "profile": serialize_polynomial(profile.profile),
        "source": serialize_polynomial(profile.source),
        "char_product": serialize_polynomial(profile.char_product),
        "positive": profile.positive,
    }


def _run_se(spec: FiberJoinSpec) -> dict:
    verdict = einstein.se_check(spec)
    return {"possible": verdict.possible, "reason": verdict.reason, "count": verdict.count}


# Each single-document subcommand: its help text, and the answer it
# builds from a join.
_ANSWERS: dict[str, tuple[str, Callable[[FiberJoinSpec], dict]]] = {
    "invariants": (
        "topological invariants of one join",
        lambda spec: invariant_report(spec).as_dict(),
    ),
    "classify": ("invariants plus every applicable metric verdict", spec_report),
    "csc": ("constant scalar curvature solve on the regular ray", _run_csc),
    "extremal": ("extremal profile polynomial on the regular ray", _run_extremal),
    "se": ("Sasaki-Einstein obstruction and existence check", _run_se),
}


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="fiberjoin",
        description="Exact invariants and canonical-metric verdicts for fiber joins.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        sub.add_parser(name, help=help_text, description=help_text)
        for name, (help_text, _) in _ANSWERS.items()
    ]
    survey_help = "enumerate and classify a family of joins"
    commands.append(sub.add_parser("survey", help=survey_help, description=survey_help))
    for cmd in commands:
        cmd.add_argument("document", help="path of the JSON input document, or - for stdin")
    commands[-1].add_argument("--format", choices=["json", "csv"], default="json")
    return parser


def _write(chunks: Generator[str, None, None]) -> int:
    """Print the answer's chunks, built as they are written, and a
    newline: 0.  An integer too long to write (1) or degenerate data
    (2) stops the answer with one ``error:`` line, and what was written
    before it stays.  1 once the reader has closed stdout.  The chunks
    are closed on every path, so a survey's helper is reaped here."""
    try:
        with contextlib.closing(chunks):
            sys.stdout.writelines(chunks)
            sys.stdout.write("\n")
            sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit: let that flush reach
        # devnull ("Note on SIGPIPE" in the signal module's docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except DigitLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SpecError, SingularMatrixError) as exc:
        print(f"error: degenerate data: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # ValueError covers malformed JSON, undecodable bytes and integers
    # past the interpreter's digit limit; RecursionError, deep nesting.
    try:
        document = _read_document(args.document)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read document: {exc}", file=sys.stderr)
        return 1

    if args.command == "survey":
        try:
            report = survey(*parse_survey(document))
        except SpecError as exc:  # includes the enumeration cap
            print(f"error: invalid survey request: {exc}", file=sys.stderr)
            return 1
        return _write(survey_chunks(report, args.format))

    try:
        spec = parse_spec(document)
    except SpecError as exc:
        print(f"error: invalid join document: {exc}", file=sys.stderr)
        return 1
    _, build = _ANSWERS[args.command]
    # A generator, so the answer is built inside the guarded write.
    return _write(emit(build(s)) for s in [spec])


if __name__ == "__main__":
    raise SystemExit(main())
