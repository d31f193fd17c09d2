"""Classification rules, survey enumeration, and report serialization.

Each rule couples a decidable predicate on the join description with
the canonical-metric conclusion it licenses; computational rules carry
their certificate (a curvature value and a positivity certificate, or
the extremal profile itself) as a witness.  Verdict kinds:

  csc_regular_ray       the regular Reeb ray admits constant scalar curvature
  csc_ray_in_cone       some ray in the sphere subcone does
  extremal_regular_ray  the regular ray admits an extremal structure
  extremal_open_set     an open set of rays does
  se_exists             a Sasaki-Einstein structure exists
  se_obstructed         Sasaki-Einstein is impossible
  inconclusive          no rule applies

A survey classifies an orbit only when its entry is read, and
``survey_chunks`` writes one entry at a time.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Optional

from . import admissible as adm
from . import einstein, topology
from .exactalg import Polynomial
from .model import (
    BaseFactor,
    BaseProduct,
    FiberJoinSpec,
    KahlerMatrix,
    RegularJoinData,
    SpecError,
    canonical_columns,
    identical_factor_groups,
    integer,
    is_colinear,
    make_spec,
    regular_join_data,
    retained_factors,
)

CSC_REGULAR_RAY = "csc_regular_ray"
CSC_RAY_IN_CONE = "csc_ray_in_cone"
EXTREMAL_REGULAR_RAY = "extremal_regular_ray"
EXTREMAL_OPEN_SET = "extremal_open_set"
SE_EXISTS = "se_exists"
SE_OBSTRUCTED = "se_obstructed"
INCONCLUSIVE = "inconclusive"

_EXISTENCE_KINDS = {
    CSC_REGULAR_RAY,
    CSC_RAY_IN_CONE,
    EXTREMAL_REGULAR_RAY,
    EXTREMAL_OPEN_SET,
}


# Default bound on the column-pair multisets times d a survey may enumerate.
SURVEY_CAP = 200_000


class BoundsTooLargeError(SpecError):
    """Survey enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class Verdict:
    kind: str
    rule: str
    citation: str
    witness: Optional[dict] = None

    def as_dict(self) -> dict:
        doc = {"kind": self.kind, "rule": self.rule, "citation": self.citation}
        doc["witness"] = self.witness
        return doc


def serialize_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def serialize_polynomial(poly: Polynomial) -> list[str]:
    """Each coefficient as "n/d" in lowest terms, from the numerators
    and the one denominator: one gcd per coefficient."""
    den = poly.den
    out = []
    for num in poly.nums:
        g = math.gcd(num, den)
        out.append(f"{num // g}/{den // g}")
    return out


def _base_scalar_sign(base: BaseProduct, class_vector) -> int:
    """Sign of the base's scalar curvature in these classes: each factor
    contributes c1 times its complex dimension over its class."""
    total = sum(
        Fraction(f.c1_coefficient * f.dim_c, v)
        for f, v in zip(base.factors, class_vector)
    )
    return (total > 0) - (total < 0)


@dataclass(frozen=True)
class _JoinFacts:
    """What the rules read about one join, derived once per ``classify``."""

    spec: FiberJoinSpec
    join: Optional[RegularJoinData]  # None when K is not colinear
    genera: tuple[Optional[int], ...]  # each factor's effective genus
    retained: tuple[int, ...]  # () when the join is unsplit


def _rule_colinear(facts: _JoinFacts) -> list[Verdict]:
    """Colinear joins: with two summands over a CSC base, a CSC ray in
    the sphere subcone; over an extremal base, an open set of rays."""
    join = facts.join
    if join is None:
        return []
    verdicts = []
    if facts.spec.d == 1:
        verdicts.append(
            Verdict(
                kind=CSC_RAY_IN_CONE,
                rule="colinear-subcone-csc",
                citation=(
                    "a two-summand colinear join over a constant-scalar-curvature "
                    "base carries a CSC ray in its sphere subcone"
                ),
                witness={"b": join.b, "w": list(join.w)},
            )
        )
        if _base_scalar_sign(facts.spec.base, join.primitive) >= 0:
            verdicts.append(
                Verdict(
                    kind=EXTREMAL_REGULAR_RAY,
                    rule="colinear-subcone-exhausted",
                    citation=(
                        "with nonnegative base scalar curvature the sphere subcone "
                        "of a two-summand colinear join is exhausted by extremal "
                        "structures; in particular the regular ray is extremal"
                    ),
                )
            )
    verdicts.append(
        Verdict(
            kind=EXTREMAL_OPEN_SET,
            rule="colinear-extremal-base",
            citation=(
                "a colinear join over a base with extremal metrics carries an "
                "open set of extremal rays in its sphere subcone"
            ),
        )
    )
    return verdicts


def _rule_super_admissible(facts: _JoinFacts) -> list[Verdict]:
    """Super admissible joins over nonnegative local products: no curve
    of genus above one, and at most one of genus one."""
    genera = [g for g in facts.genera if g is not None]
    if not facts.retained or max(genera, default=0) > 1 or genera.count(1) > 1:
        return []
    return [
        Verdict(
            kind=EXTREMAL_OPEN_SET,
            rule="super-admissible-nonneg-product",
            citation=(
                "every class on this base is admissible and the base is a "
                "local product of nonnegative CSC metrics, giving an open "
                "set of extremal rays around the regular one"
            ),
        )
    ]


def _rule_line_times_curve(facts: _JoinFacts) -> list[Verdict]:
    """Joins over (projective line) x (curve)."""
    genera = facts.genera
    if not facts.retained or len(genera) != 2 or None in genera or 0 not in genera:
        return []
    line_idx = genera.index(0)
    other_idx = 1 - line_idx
    g = genera[other_idx]
    verdict = Verdict(
        kind=EXTREMAL_REGULAR_RAY,
        rule="line-times-curve-regular-ray",
        citation=(
            "over a projective line times a curve of genus at most one, every "
            "admissible split join has an extremal structure on its regular "
            "ray; for higher genus exactly the distinguished matrix does"
        ),
    )
    if g <= 1:
        return [verdict]
    spec = facts.spec
    if spec.split != (1, 1):
        return []
    w0 = spec.omega_zero()
    winf = spec.omega_infinity()
    marked = {(2, g), (1, 1)}
    seen = {
        (w0[line_idx], w0[other_idx]),
        (winf[line_idx], winf[other_idx]),
    }
    if seen != marked:
        return []
    return [verdict]


def _rule_curve_two_block(facts: _JoinFacts) -> list[Verdict]:
    """Two-block joins over a single curve, split with or without a
    retained factor."""
    spec, genus = facts.spec, facts.genera[0]
    if spec.split is None or len(facts.genera) != 1 or genus is None:
        return []
    d0, dinf = spec.split
    b1 = spec.omega_zero()[0]
    b2 = spec.omega_infinity()[0]
    verdict = Verdict(
        kind=EXTREMAL_REGULAR_RAY,
        rule="curve-two-block-window",
        citation=(
            "a two-block join over a single curve has an extremal regular "
            "ray for genus at most one, and for higher genus whenever "
            "2(1-g)/(b1-b2) lies between -d0(d0+1) and dinf(dinf+1)"
        ),
    )
    if genus <= 1:
        return [verdict]
    if b1 == b2:
        return []
    ratio = Fraction(2 * (1 - genus), b1 - b2)
    if -d0 * (d0 + 1) <= ratio <= dinf * (dinf + 1):
        return [verdict]
    return []


def _rule_line_triple(facts: _JoinFacts) -> list[Verdict]:
    """Three-summand joins over the projective line."""
    if facts.spec.d != 2 or facts.genera != (0,):
        return []
    return [
        Verdict(
            kind=EXTREMAL_REGULAR_RAY,
            rule="line-triple-regular-ray",
            citation=(
                "every three-summand join over the projective line has an "
                "extremal structure on its regular ray"
            ),
        )
    ]


def _or_none(fn: Callable[[FiberJoinSpec], object], spec: FiberJoinSpec):
    """``fn(spec)``, or None where the join has no such fact.  Callers
    look ``fn`` up in its module at each call, so a rebinding holds."""
    try:
        return fn(spec)
    except SpecError:
        return None


def _rule_profile(facts: _JoinFacts) -> list[Verdict]:
    """Exact extremal solve on a d=1 split, where the regular quotient
    class is pinned by the join data; with two retained factors the
    same solve decides constant scalar curvature."""
    if facts.spec.split != (0, 0):
        return []
    data = _or_none(adm.admissible_data, facts.spec)
    if data is None:
        return []
    profile = adm.extremal_profile(data)
    verdicts = []
    if len(data.base_entries) == 2:
        result = adm.csc_from_profile(profile)
        if result.verdict == adm.CSC:
            verdicts.append(
                Verdict(
                    kind=CSC_REGULAR_RAY,
                    rule="csc-profile-certificate",
                    citation=(
                        "both curvature equations share a root and the "
                        "certificate quadratic is positive on (-1, 1), so the "
                        "regular ray has constant scalar curvature"
                    ),
                    witness={
                        "s": serialize_rational(result.s),
                        "certificate": serialize_polynomial(result.certificate),
                    },
                )
            )
    if profile.positive:
        verdicts.append(
            Verdict(
                kind=EXTREMAL_REGULAR_RAY,
                rule="extremal-profile-certificate",
                citation=(
                    "the extremal profile polynomial is positive on (-1, 1), so "
                    "the regular ray carries an extremal structure"
                ),
                witness={"profile": serialize_polynomial(profile.profile)},
            )
        )
    return verdicts


def _rule_einstein(facts: _JoinFacts) -> list[Verdict]:
    verdict = einstein.se_check(facts.spec)
    if not verdict.possible:
        return [
            Verdict(
                kind=SE_OBSTRUCTED,
                rule="einstein-obstruction-chain",
                citation=verdict.reason,
            )
        ]
    if verdict.reason == einstein.NECESSARY_CONDITIONS_PASS:
        return []
    witness = {"count": verdict.count} if verdict.count is not None else None
    return [
        Verdict(
            kind=SE_EXISTS,
            rule="einstein-existence",
            citation=verdict.reason,
            witness=witness,
        )
    ]


_RULES: tuple[Callable[[_JoinFacts], list[Verdict]], ...] = (
    _rule_colinear,
    _rule_super_admissible,
    _rule_line_times_curve,
    _rule_curve_two_block,
    _rule_line_triple,
    _rule_profile,
    _rule_einstein,
)


def classify(spec: FiberJoinSpec) -> list[Verdict]:
    """Fire every applicable rule, in a fixed order, on the facts
    derived once here; append a single inconclusive verdict when no
    existence conclusion was reached."""
    facts = _JoinFacts(
        spec=spec,
        join=regular_join_data(spec) if is_colinear(spec) else None,
        genera=tuple(f.effective_genus for f in spec.base.factors),
        retained=retained_factors(spec) if spec.split is not None else (),
    )
    verdicts: list[Verdict] = []
    for rule in _RULES:
        verdicts.extend(rule(facts))
    if not any(v.kind in _EXISTENCE_KINDS for v in verdicts):
        verdicts.append(
            Verdict(
                kind=INCONCLUSIVE,
                rule="none",
                citation="no applicable existence rule",
            )
        )
    return verdicts


@dataclass(frozen=True)
class InvariantReport:
    """Everything computable about one join, Nones where no closed
    form covers the base."""

    base: str
    d: int
    n: int
    split: Optional[tuple[int, int]]
    colinear: bool
    join_b: Optional[int]
    join_w: Optional[tuple[int, ...]]
    c1: tuple[int, ...]
    euler: Optional[int]
    p1: Optional[int]
    spin: Optional[str]
    cohomology: Optional[dict]

    def as_dict(self) -> dict:
        return {
            "base": self.base,
            "d": self.d,
            "n": self.n,
            "split": list(self.split) if self.split is not None else None,
            "colinear": self.colinear,
            "join_b": self.join_b,
            "join_w": list(self.join_w) if self.join_w is not None else None,
            "c1": list(self.c1),
            "euler": self.euler,
            "p1": self.p1,
            "spin": self.spin,
            "cohomology": self.cohomology,
        }


def invariant_report(spec: FiberJoinSpec) -> InvariantReport:
    colinear = is_colinear(spec)
    join_b = join_w = None
    if colinear:
        join = regular_join_data(spec)
        join_b, join_w = join.b, join.w
    cohomology = _or_none(topology.cohomology_table, spec)
    return InvariantReport(
        base=spec.base.describe(),
        d=spec.d,
        n=spec.n,
        split=spec.split,
        colinear=colinear,
        join_b=join_b,
        join_w=join_w,
        c1=topology.c1_contact(spec),
        euler=_or_none(topology.euler_class, spec),
        p1=_or_none(topology.p1, spec),
        spin=_or_none(topology.spin_status, spec),
        cohomology=cohomology.as_dict() if cohomology is not None else None,
    )


def spec_report(spec: FiberJoinSpec) -> dict:
    """The full single-join document: invariants plus verdicts."""
    return {
        "invariants": invariant_report(spec).as_dict(),
        "verdicts": [v.as_dict() for v in classify(spec)],
    }


# ---------------------------------------------------------------------------
# Survey enumeration


@dataclass(frozen=True)
class SurveyEntry:
    matrix: KahlerMatrix
    invariants: InvariantReport
    verdicts: tuple[Verdict, ...]


class _OrbitEntries(Sequence):
    """A survey's entries, each classified from its key when it is read."""

    def __init__(self, factors, split: tuple[int, int], keys: list):
        self.factors, self.split, self.keys = factors, split, keys

    def __eq__(self, other) -> bool:
        return isinstance(other, _OrbitEntries) and vars(self) == vars(other)

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        (w0, winf), (d0, dinf) = self.keys[index], self.split
        spec = make_spec(self.factors, [w0] * (d0 + 1) + [winf] * (dinf + 1), self.split)
        return SurveyEntry(spec.matrix, invariant_report(spec), tuple(classify(spec)))


@dataclass(frozen=True)
class SurveyReport:
    base: BaseProduct
    split: tuple[int, int]
    max_entry: int
    entries: Sequence[SurveyEntry]


def survey(
    base: BaseProduct,
    split: tuple[int, int],
    max_entry: int,
    cap: int = SURVEY_CAP,
) -> SurveyReport:
    """Check the request, then sort the canonical keys of the split
    joins with entries in [1, max_entry], one per orbit under
    exchanging columns of identical base factors (and the poles, when
    the split blocks are equal); an entry is built and classified when
    it is read, so every refusal comes before any output.

    Within a group of g identical factors the column pairs
    (omega_zero[i], omega_infinity[i]) form a multiset, produced once
    as a non-increasing tuple of pairs, which is the representative's
    order.  A symmetric split keeps a multiset only when swapping the
    poles gives no larger representative.  ``cap`` bounds the number
    of multisets enumerated, the product over groups of
    C(max_entry**2 + g - 1, g), times d = d0 + dinf + 1, since each
    orbit's matrix has d + 1 rows.  The split is a list or tuple of
    two nonnegative integers, and the bounds are integers.
    """
    if not isinstance(split, (list, tuple)) or len(split) != 2:
        raise SpecError("split must be a list of two integers")
    split = tuple(integer(x, "split entry") for x in split)
    d0, dinf = split
    if d0 < 0 or dinf < 0:
        raise SpecError("split must be a pair of nonnegative integers")
    integer(max_entry, "max_entry")
    integer(cap, "cap")
    if max_entry < 1:
        raise SpecError("max_entry must be at least 1")
    groups = identical_factor_groups(base.factors)
    _check_work(max_entry**2, groups, d0 + dinf + 1, cap)
    values = range(max_entry, 0, -1)
    pairs = list(itertools.product(values, repeat=2))  # descending
    columns: list = [None] * len(base.factors)
    keys = []
    for choice in itertools.product(
        *(itertools.combinations_with_replacement(pairs, len(g)) for g in groups)
    ):
        for positions, chosen in zip(groups, choice):
            for i, pair in zip(positions, chosen):
                columns[i] = pair
        omegas = (tuple(a for a, _ in columns), tuple(b for _, b in columns))
        if d0 == dinf and canonical_columns(columns, groups, True) != omegas:
            continue
        keys.append(omegas)
    keys.sort()  # (omega_zero, omega_infinity) sorts as the matrix rows do
    return SurveyReport(base, split, max_entry, _OrbitEntries(base.factors, split, keys))


def _check_work(kinds: int, groups, d: int, cap: int) -> None:
    """Raise unless ``d`` times the product over groups of
    C(kinds + g - 1, g) is at most ``cap``.  The partial products only
    grow, so the count stops at the first one past the cap, at once
    when ``d`` alone passes it."""
    count = d
    for group in groups:
        multisets = 1
        for k in range(1, len(group) + 1):
            multisets = multisets * (kinds + k - 1) // k
            if count * multisets > cap:
                raise BoundsTooLargeError(
                    f"the survey's column-pair multisets times d = {d} "
                    f"would be more than {cap}, which exceeds the cap"
                )
        count *= multisets


def survey_chunks(report: SurveyReport, fmt: str = "json") -> Iterator[str]:
    """A survey's text, a chunk per entry: JSON as ``json.dumps(document,
    indent=2)`` writes it, or csv rows of invariants and verdict kinds."""
    if fmt not in ("json", "csv"):
        raise SpecError(f"unsupported format: {fmt}")
    return _json_chunks(report) if fmt == "json" else _csv_chunks(report)


def _json_chunks(report: SurveyReport) -> Iterator[str]:
    base = [_factor_document(f) for f in report.base.factors]
    head = {"base": base, "split": list(report.split), "max_entry": report.max_entry}
    # The head ends at '"entries": [': an entry sits two levels deep,
    # and JSON escapes newlines in strings, so re-indenting it is safe.
    yield json.dumps({**head, "entries": []}, indent=2)[: -len("]\n}")]
    separator, tail = "\n    ", "]\n}"
    for entry in report.entries:
        document = {
            "K": [list(row) for row in entry.matrix.rows],
            "invariants": entry.invariants.as_dict(),
            "verdicts": [v.as_dict() for v in entry.verdicts],
        }
        yield separator + json.dumps(document, indent=2).replace("\n", "\n    ")
        separator, tail = ",\n    ", "\n  ]\n}"
    yield tail


def _csv_chunks(report: SurveyReport) -> Iterator[str]:
    # writerow returns what its file's write returns: here, the row.
    writer = csv.writer(SimpleNamespace(write=str))
    yield writer.writerow(
        ["K", "d", "n", "colinear", "c1", "euler", "p1", "spin", "verdicts"]
    )
    for entry in report.entries:
        inv = entry.invariants
        yield writer.writerow(
            [
                ";".join(",".join(str(e) for e in row) for row in entry.matrix.rows),
                inv.d,
                inv.n,
                inv.colinear,
                ",".join(str(c) for c in inv.c1),
                inv.euler if inv.euler is not None else "",
                inv.p1 if inv.p1 is not None else "",
                inv.spin if inv.spin is not None else "",
                ";".join(sorted({v.kind for v in entry.verdicts})),
            ]
        )


# ---------------------------------------------------------------------------
# Document parsing


# The keys each document may hold, and the fields of each factor kind;
# any other key is refused, so a misspelt one cannot change the question.
JOIN_KEYS = ("base", "K", "split")
SURVEY_KEYS = ("base", "split", "max_entry", "cap")
FACTOR_FIELDS = {"surface": ("genus",), "projective_space": ("n",), "torus": ()}


def _factor_document(factor: BaseFactor) -> dict:
    fields = FACTOR_FIELDS[factor.kind]
    return {"kind": factor.kind, **{field: getattr(factor, field) for field in fields}}


def _refuse_unknown_keys(doc: dict, allowed: tuple[str, ...], what: str) -> None:
    unknown = [key for key in doc if key not in allowed]
    if unknown:
        raise SpecError(
            f"unknown key {', '.join(map(repr, unknown))} in {what}; "
            f"allowed: {', '.join(allowed)}"
        )


def parse_factor(doc: dict) -> BaseFactor:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SpecError(f"base factor needs a kind: {doc!r}")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in FACTOR_FIELDS:
        raise SpecError(f"unknown base factor kind: {kind!r}")
    fields = FACTOR_FIELDS[kind]
    _refuse_unknown_keys(doc, ("kind", *fields), f"{kind} factor")
    return BaseFactor(kind, **{field: doc[field] for field in fields})


@contextmanager
def _document(doc, allowed: tuple[str, ...], what: str):
    """The base factors of a JSON object holding only ``allowed`` keys;
    a missing key or a mistyped value in the body is a SpecError."""
    if not isinstance(doc, dict):
        raise SpecError(f"{what} must be an object")
    _refuse_unknown_keys(doc, allowed, what)
    try:
        if not isinstance(doc["base"], list):
            raise SpecError("base must be a list of factors")
        yield [parse_factor(f) for f in doc["base"]]
    except KeyError as exc:
        raise SpecError(f"missing key {exc}") from exc
    except TypeError as exc:
        raise SpecError(str(exc)) from exc


def parse_spec(doc: dict) -> FiberJoinSpec:
    """Map the JSON join document (base, K, optional split) onto the
    model constructors, which check it."""
    with _document(doc, JOIN_KEYS, "join document") as factors:
        return make_spec(factors, doc["K"], doc.get("split"))


def parse_survey(doc: dict) -> tuple:
    """Map the JSON survey request (base, split, max_entry, optional
    cap) onto the arguments of ``survey``, which checks them."""
    with _document(doc, SURVEY_KEYS, "survey request") as factors:
        cap = doc.get("cap", SURVEY_CAP)
        return BaseProduct(tuple(factors)), doc["split"], doc["max_entry"], cap


def emit(report, fmt: str = "json") -> str:
    """Serialize a survey report or a plain document; surveys also
    support csv."""
    if isinstance(report, SurveyReport):
        return "".join(survey_chunks(report, fmt))
    if fmt == "json":
        return json.dumps(report, indent=2)
    raise SpecError(f"unsupported format: {fmt}")
