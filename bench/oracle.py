"""Correctness checks on the program's answers, independent of its solver.

Every check here uses only the standard library and the answer text:
structural invariants recomputed from the request, polynomial
witnesses re-evaluated from their serialized rationals in integer
arithmetic, and digests of earlier answers, recorded in
``reference.json`` beside this file by ``run.py --write-reference``.
Each check returns a list of problems; an empty list means the answer
passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

EXISTENCE_KINDS = {
    "csc_regular_ray",
    "csc_ray_in_cone",
    "extremal_regular_ray",
    "extremal_open_set",
}
KINDS = EXISTENCE_KINDS | {"se_exists", "se_obstructed", "inconclusive"}

# Interior points k/16 of (-1, 1) at which a positivity witness must
# be positive.  A grid cannot prove positivity; it catches a wrong or
# corrupted witness without trusting the Sturm code that produced it.
GRID_DENOMINATOR = 16
GRID = range(-GRID_DENOMINATOR + 1, GRID_DENOMINATOR)

CSV_COLUMNS = ("K", "d", "n", "colinear", "c1", "euler", "p1", "spin", "verdicts")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Polynomial witnesses


def parse_rationals(items) -> list[Fraction]:
    values = []
    for item in items:
        num, _, den = item.partition("/")
        values.append(Fraction(int(num), int(den or 1)))
    return values


def _scaled_value(coeffs: list[Fraction], k: int, den: int) -> int:
    """lcm(denominators) * den^degree * F(k/den), an integer with the
    sign of F(k/den)."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    degree = len(ints) - 1
    return sum(a * k**i * den ** (degree - i) for i, a in enumerate(ints))


def check_positive_on_grid(coeffs: list[Fraction], what: str) -> list[str]:
    if not coeffs:
        return [f"{what}: zero polynomial"]
    bad = [k for k in GRID if _scaled_value(coeffs, k, GRID_DENOMINATOR) <= 0]
    if bad:
        return [f"{what}: not positive at {bad[0]}/{GRID_DENOMINATOR}"]
    return []


def check_witness(witness) -> list[str]:
    """Re-check the polynomial witnesses a verdict carries; fields
    this oracle does not know are ignored."""
    if not isinstance(witness, dict):
        return []
    problems = []
    try:
        if "profile" in witness:
            profile = parse_rationals(witness["profile"])
            if not profile:
                problems.append("profile: zero polynomial")
            else:
                for end in (1, -1):
                    if _scaled_value(profile, end, 1) != 0:
                        problems.append(f"profile: F({end}) != 0")
                problems += check_positive_on_grid(profile, "profile")
        if "certificate" in witness:
            parse_rationals([witness["s"]])
            problems += check_positive_on_grid(
                parse_rationals(witness["certificate"]), "certificate"
            )
    except (TypeError, ValueError, ZeroDivisionError, KeyError) as exc:
        problems.append(f"unreadable witness: {exc!r}")
    return problems


# ---------------------------------------------------------------------------
# Invariants and verdicts


def _factor_c1(factor: dict) -> int:
    if factor["kind"] == "surface":
        return 2 - 2 * factor["genus"]
    if factor["kind"] == "projective_space":
        return factor["n"] + 1
    return 0


def _factor_dim(factor: dict) -> int:
    return factor["n"] if factor["kind"] == "projective_space" else 1


def _colinear(rows) -> bool:
    """Rank one: every row is a constant multiple of the first
    (entries are positive, so no ratio divides by zero)."""
    first = rows[0]
    return all(
        len({Fraction(row[a], first[a]) for a in range(len(first))}) == 1
        for row in rows
    )


def expected_structure(base: list, rows: list, split) -> dict:
    """The invariants that follow from the request by definition."""
    return {
        "d": len(rows) - 1,
        "n": sum(_factor_dim(f) for f in base),
        "split": list(split) if split is not None else None,
        "colinear": _colinear(rows),
        "c1": [_factor_c1(f) - sum(col) for f, col in zip(base, zip(*rows))],
    }


def check_invariants(invariants: dict, base: list, rows: list, split) -> list[str]:
    expected = expected_structure(base, rows, split)
    return [
        f"invariant {key}: {invariants.get(key)!r} != {value!r}"
        for key, value in expected.items()
        if invariants.get(key) != value
    ]


def check_kinds(kinds: list) -> list[str]:
    problems = []
    unknown = [k for k in kinds if k not in KINDS]
    if unknown:
        problems.append(f"unknown verdict kinds {unknown}")
    existence = any(k in EXISTENCE_KINDS for k in kinds)
    if existence == ("inconclusive" in kinds):
        problems.append("inconclusive must appear exactly when no existence verdict does")
    return problems


def check_verdicts(verdicts: list) -> list[str]:
    problems = check_kinds([v.get("kind") for v in verdicts])
    for v in verdicts:
        problems += check_witness(v.get("witness"))
    return problems


def record_digest(invariants: dict, verdicts: list, K=None) -> str:
    """Digest of what the reference pins: the invariants block and each
    verdict's (kind, rule), so new witness fields do not count."""
    record = {
        "invariants": invariants,
        "verdicts": [[v["kind"], v["rule"]] for v in verdicts],
    }
    if K is not None:
        record["K"] = K
    return digest(record)


def check_classify(request_text: str, output: str, expected_digest=None) -> list[str]:
    """Check one ``classify`` answer against its request document."""
    try:
        answer = json.loads(output)
        invariants, verdicts = answer["invariants"], answer["verdicts"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"answer is not a classify document: {exc!r}"]
    request = json.loads(request_text)
    problems = check_invariants(
        invariants, request["base"], request["K"], request.get("split")
    )
    problems += check_verdicts(verdicts)
    if expected_digest is not None:
        if record_digest(invariants, verdicts) != expected_digest:
            problems.append("invariants or verdicts differ from the reference")
    return problems


# ---------------------------------------------------------------------------
# Surveys


def check_survey_json(request: dict, output: str, orbits: int, digests) -> list[str]:
    try:
        answer = json.loads(output)
        entries = answer["entries"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"answer is not a survey document: {exc!r}"]
    problems = []
    for key in ("base", "split", "max_entry"):
        if answer.get(key) != request[key]:
            problems.append(f"survey {key} not echoed")
    if len(entries) != orbits:
        problems.append(f"{len(entries)} orbits, expected {orbits}")
    for i, entry in enumerate(entries):
        found = check_invariants(
            entry["invariants"], request["base"], entry["K"], request["split"]
        )
        found += check_verdicts(entry["verdicts"])
        if digests is not None and i < len(digests):
            got = record_digest(entry["invariants"], entry["verdicts"], entry["K"])
            if got != digests[i]:
                found.append("entry differs from the reference")
        problems += [f"entry {i}: {p}" for p in found]
    return problems


def csv_records(output: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(output))
    return [{key: row.get(key) for key in CSV_COLUMNS} for row in reader]


def check_survey_csv(request: dict, output: str, orbits: int, digests) -> list[str]:
    try:
        records = csv_records(output)
    except csv.Error as exc:
        return [f"answer is not CSV: {exc!r}"]
    problems = []
    if len(records) != orbits:
        problems.append(f"{len(records)} orbits, expected {orbits}")
    d0, dinf = request["split"]
    for i, record in enumerate(records):
        found = []
        try:
            rows = [[int(e) for e in row.split(",")] for row in record["K"].split(";")]
            expected = expected_structure(request["base"], rows, request["split"])
            if len(rows) != d0 + dinf + 2:
                found.append("K has the wrong row count")
            if int(record["d"]) != expected["d"] or int(record["n"]) != expected["n"]:
                found.append("d or n wrong")
            if record["colinear"] != str(expected["colinear"]):
                found.append("colinear wrong")
            if record["c1"] != ",".join(str(c) for c in expected["c1"]):
                found.append("c1 wrong")
            found += check_kinds(record["verdicts"].split(";"))
        except (AttributeError, ValueError, ZeroDivisionError) as exc:
            found.append(f"unreadable row: {exc!r}")
        if digests is not None and i < len(digests) and digest(record) != digests[i]:
            found.append("row differs from the reference")
        problems += [f"row {i}: {p}" for p in found]
    return problems
