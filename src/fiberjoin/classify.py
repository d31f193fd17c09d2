"""Classification rules, survey enumeration, and report serialization.

Each rule couples a decidable predicate on the join description with
the canonical-metric conclusion it licenses; computational rules carry
their certificate (a curvature value and a positivity certificate, or
the extremal profile itself) as a witness.  A rule's kind and citation
are written once, in ``_CONCLUSIONS`` by rule name, except for the two
Sasaki-Einstein rules, which cite ``se_check``'s reason.  Verdict kinds:

  csc_regular_ray       the regular Reeb ray admits constant scalar curvature
  csc_ray_in_cone       some ray in the sphere subcone does
  extremal_regular_ray  the regular ray admits an extremal structure
  extremal_open_set     an open set of rays does
  se_exists             a Sasaki-Einstein structure exists
  se_obstructed         Sasaki-Einstein is impossible
  inconclusive          no rule applies

A survey classifies an orbit only when its entry is read, and
``survey_chunks`` writes one entry at a time.  Its orbits share its
base, which keeps the profile rule's verdicts by the sorted (dim, s, r)
of the admissible entries: the solve reads nothing else and is
symmetric in the entries, so a survey solves each distinct data once.
Every JSON answer is the text ``json.dumps(document, indent=2)`` would
write, from one direct writer: the standard encoder falls back to pure
Python when asked to indent, and spends more time than the writer does.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
import os
import signal
import sys
import threading
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Callable, Optional

from . import admissible as adm
from . import einstein, topology
from .exactalg import Polynomial, Record
from .model import (
    BaseFactor,
    BaseProduct,
    DigitLimitError,
    FiberJoinSpec,
    SpecError,
    identical_factor_groups,
    integer,
    make_spec,
    mention,
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


class Verdict(Record):
    """A rule's conclusion.  Its witness, if any, is a tuple of
    (name, value) pairs, each value a scalar or a tuple of them, so a
    verdict hashes and the joins that share one cannot change it."""

    def __init__(self, kind: str, rule: str, citation: str, witness: Optional[tuple] = None):
        vars(self).update(
            kind=kind, rule=rule, citation=citation, witness=witness,
            _values=(kind, rule, citation, witness),
        )

    def as_dict(self) -> dict:
        """The verdict as a document, the witness as a dict of lists."""
        witness = self.witness
        if witness is not None:
            witness = {
                name: list(value) if type(value) is tuple else value for name, value in witness
            }
        return {
            "kind": self.kind,
            "rule": self.rule,
            "citation": self.citation,
            "witness": witness,
        }


# Each rule whose citation is fixed, by name: the kind of verdict it
# concludes and the result it cites.
_CONCLUSIONS = {
    "colinear-subcone-csc": (
        CSC_RAY_IN_CONE,
        "a two-summand colinear join over a constant-scalar-curvature "
        "base carries a CSC ray in its sphere subcone",
    ),
    "colinear-subcone-exhausted": (
        EXTREMAL_REGULAR_RAY,
        "with nonnegative base scalar curvature the sphere subcone "
        "of a two-summand colinear join is exhausted by extremal "
        "structures; in particular the regular ray is extremal",
    ),
    "colinear-extremal-base": (
        EXTREMAL_OPEN_SET,
        "a colinear join over a base with extremal metrics carries an "
        "open set of extremal rays in its sphere subcone",
    ),
    "super-admissible-nonneg-product": (
        EXTREMAL_OPEN_SET,
        "every class on this base is admissible and the base is a "
        "local product of nonnegative CSC metrics, giving an open "
        "set of extremal rays around the regular one",
    ),
    "line-times-curve-regular-ray": (
        EXTREMAL_REGULAR_RAY,
        "over a projective line times a curve of genus at most one, every "
        "admissible split join has an extremal structure on its regular "
        "ray; for higher genus exactly the distinguished matrix does",
    ),
    "curve-two-block-window": (
        EXTREMAL_REGULAR_RAY,
        "a two-block join over a single curve has an extremal regular "
        "ray for genus at most one, and for higher genus whenever "
        "2(1-g)/(b1-b2) lies between -d0(d0+1) and dinf(dinf+1)",
    ),
    "line-triple-regular-ray": (
        EXTREMAL_REGULAR_RAY,
        "every three-summand join over the projective line has an "
        "extremal structure on its regular ray",
    ),
    "csc-profile-certificate": (
        CSC_REGULAR_RAY,
        "both curvature equations share a root and the "
        "certificate quadratic is positive on (-1, 1), so the "
        "regular ray has constant scalar curvature",
    ),
    "extremal-profile-certificate": (
        EXTREMAL_REGULAR_RAY,
        "the extremal profile polynomial is positive on (-1, 1), so "
        "the regular ray carries an extremal structure",
    ),
    "none": (INCONCLUSIVE, "no applicable existence rule"),
}


def _verdict(rule: str, witness: Optional[tuple] = None) -> Verdict:
    """The verdict of a rule in ``_CONCLUSIONS``, with its witness."""
    kind, citation = _CONCLUSIONS[rule]
    return Verdict(kind, rule, citation, witness)


def serialize_rational(value: Fraction) -> str:
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:  # only the digit limit raises here
        raise DigitLimitError() from exc


def serialize_polynomial(poly: Polynomial) -> list[str]:
    """Each coefficient as "n/d" in lowest terms, from the numerators
    and the one denominator: one gcd per coefficient."""
    den = poly.den
    out = []
    try:
        for num in poly.nums:
            g = math.gcd(num, den)
            out.append(f"{num // g}/{den // g}")
    except ValueError as exc:  # only the digit limit raises here
        raise DigitLimitError() from exc
    return out


def _base_scalar_sign(base: BaseProduct, class_vector) -> int:
    """Sign of the base's scalar curvature in these classes: each factor
    contributes c1 times its complex dimension over its class."""
    total = sum(
        Fraction(f.c1_coefficient * f.dim_c, v)
        for f, v in zip(base.factors, class_vector)
    )
    return (total > 0) - (total < 0)


def _rule_colinear(spec: FiberJoinSpec) -> list[Verdict]:
    """Colinear joins: with two summands over a CSC base, a CSC ray in
    the sphere subcone; over an extremal base, an open set of rays."""
    join = spec.facts.join
    if join is None:
        return []
    verdicts = []
    if spec.d == 1:
        verdicts.append(_verdict("colinear-subcone-csc", (("b", join.b), ("w", join.w))))
        if _base_scalar_sign(spec.base, join.primitive) >= 0:
            verdicts.append(_verdict("colinear-subcone-exhausted"))
    verdicts.append(_verdict("colinear-extremal-base"))
    return verdicts


def _rule_super_admissible(spec: FiberJoinSpec) -> list[Verdict]:
    """Super admissible joins over nonnegative local products: no curve
    of genus above one, and at most one of genus one."""
    genera = [g for g in spec.base.facts.genera if g is not None]
    if not spec.facts.retained or max(genera, default=0) > 1 or genera.count(1) > 1:
        return []
    return [_verdict("super-admissible-nonneg-product")]


def _rule_line_times_curve(spec: FiberJoinSpec) -> list[Verdict]:
    """Joins over (projective line) x (curve): any admissible split for
    genus at most one, else only the distinguished (1, 1) matrix."""
    curves = spec.base.facts.curves
    if not spec.facts.retained or curves is None or 0 not in curves:
        return []
    line_idx = curves.index(0)
    other_idx = 1 - line_idx
    g = curves[other_idx]
    if g > 1:
        w0, winf, d0, dinf = spec.facts.blocks
        if (d0, dinf) != (1, 1):
            return []
        seen = {
            (w0[line_idx], w0[other_idx]),
            (winf[line_idx], winf[other_idx]),
        }
        if seen != {(2, g), (1, 1)}:
            return []
    return [_verdict("line-times-curve-regular-ray")]


def _rule_curve_two_block(spec: FiberJoinSpec) -> list[Verdict]:
    """Two-block joins over a single curve, split with or without a
    retained factor: any for genus at most one, else inside a window."""
    genus = spec.base.facts.genera[0]
    if spec.facts.blocks is None or len(spec.base.factors) != 1 or genus is None:
        return []
    if genus > 1:
        (b1,), (b2,), d0, dinf = spec.facts.blocks
        if b1 == b2:
            return []
        ratio = Fraction(2 * (1 - genus), b1 - b2)
        if not -d0 * (d0 + 1) <= ratio <= dinf * (dinf + 1):
            return []
    return [_verdict("curve-two-block-window")]


def _rule_line_triple(spec: FiberJoinSpec) -> list[Verdict]:
    """Three-summand joins over the projective line."""
    if spec.d != 2 or spec.base.facts.genera != (0,):
        return []
    return [_verdict("line-triple-regular-ray")]


def _or_none(fn: Callable[[FiberJoinSpec], object], spec: FiberJoinSpec):
    """``fn(spec)``, or None where the join has no such fact.  Callers
    look ``fn`` up in its module at each call, so a rebinding holds."""
    try:
        return fn(spec)
    except SpecError:
        return None


def _rule_profile(spec: FiberJoinSpec) -> Sequence[Verdict]:
    """Exact extremal solve on a d=1 split, where the regular quotient
    class is pinned by the join data; with two retained factors the
    same solve decides constant scalar curvature.

    The verdicts are kept on the base, by the sorted tuple of each
    entry's (dim, s, r) as integers, the oldest dropped past 256 keys,
    so a survey solves each distinct data once.  Equal keys give equal
    verdicts: the solve builds q, L and R_base as symmetric functions
    of the entries and returns canonical polynomials and Fractions.  A
    refusal is not kept, and is raised again."""
    if spec.facts.blocks is None or spec.d != 1:  # the split is (0, 0)
        return []
    data = _or_none(adm.admissible_data, spec)
    if data is None:
        return []
    key = tuple(sorted(
        (e.dim, e.s.numerator, e.s.denominator, e.r.numerator, e.r.denominator)
        for e in data.entries
    ))
    memo = spec.base.profile_verdicts
    verdicts = memo.get(key)
    if verdicts is None:
        verdicts = _profile_verdicts(data)
        if len(memo) >= 256:
            del memo[next(iter(memo))]  # the oldest
        memo[key] = verdicts
    return verdicts


def _profile_verdicts(data: adm.AdmissibleData) -> tuple[Verdict, ...]:
    """The profile rule's verdicts on one admissible data, a tuple that
    the joins sharing the data share."""
    profile = adm.extremal_profile(data)
    verdicts = []
    if len(data.entries) == 2:  # at split (0, 0) every entry is a base entry
        result = adm.csc_from_profile(profile)
        if result.verdict == adm.CSC:
            witness = (
                ("s", serialize_rational(result.s)),
                ("certificate", tuple(serialize_polynomial(result.certificate))),
            )
            verdicts.append(_verdict("csc-profile-certificate", witness))
    if profile.positive:
        witness = (("profile", tuple(serialize_polynomial(profile.profile))),)
        verdicts.append(_verdict("extremal-profile-certificate", witness))
    return tuple(verdicts)


def _rule_einstein(spec: FiberJoinSpec) -> list[Verdict]:
    verdict = einstein.se_check(spec)
    if not verdict.possible:
        return [Verdict(SE_OBSTRUCTED, "einstein-obstruction-chain", verdict.reason)]
    if verdict.reason == einstein.NECESSARY_CONDITIONS_PASS:
        return []
    witness = (("count", verdict.count),) if verdict.count is not None else None
    return [Verdict(SE_EXISTS, "einstein-existence", verdict.reason, witness)]


_RULES: tuple[Callable[[FiberJoinSpec], Sequence[Verdict]], ...] = (
    _rule_colinear,
    _rule_super_admissible,
    _rule_line_times_curve,
    _rule_curve_two_block,
    _rule_line_triple,
    _rule_profile,
    _rule_einstein,
)


def classify(spec: FiberJoinSpec) -> list[Verdict]:
    """Fire every applicable rule, in a fixed order, each reading the
    join's facts (``spec.facts``, derived once per spec); append a
    single inconclusive verdict when no existence conclusion was
    reached."""
    verdicts: list[Verdict] = []
    for rule in _RULES:
        verdicts.extend(rule(spec))
    if not any(v.kind in _EXISTENCE_KINDS for v in verdicts):
        verdicts.append(_verdict("none"))
    return verdicts


class InvariantReport(Record):
    """Everything computable about one join, Nones where no closed
    form covers the base."""

    def __init__(
        self,
        base: str,
        d: int,
        n: int,
        split: Optional[tuple[int, int]],
        colinear: bool,
        join_b: Optional[int],
        join_w: Optional[tuple[int, ...]],
        c1: tuple[int, ...],
        euler: Optional[int],
        p1: Optional[int],
        spin: Optional[str],
        cohomology: Optional[topology.CohomologyTable],
    ):
        vars(self).update(
            base=base, d=d, n=n, split=split, colinear=colinear, join_b=join_b,
            join_w=join_w, c1=c1, euler=euler, p1=p1, spin=spin, cohomology=cohomology,
            _values=(
                base, d, n, split, colinear, join_b, join_w, c1, euler, p1, spin,
                cohomology,
            ),
        )

    def as_dict(self, cohomology=topology.CohomologyTable.as_dict) -> dict:
        """The report as a document, each table as ``cohomology`` writes it."""
        table = self.cohomology
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
            "cohomology": cohomology(table) if table is not None else None,
        }


def invariant_report(spec: FiberJoinSpec) -> InvariantReport:
    join = spec.facts.join
    return InvariantReport(
        base=spec.base.description,
        d=spec.d,
        n=spec.n,
        split=spec.split,
        colinear=join is not None,
        join_b=join.b if join else None,
        join_w=join.w if join else None,
        c1=spec.facts.c1,
        euler=_or_none(topology.euler_class, spec),
        p1=_or_none(topology.p1, spec),
        spin=_or_none(topology.spin_status, spec),
        cohomology=_or_none(topology.cohomology_table, spec),
    )


def spec_report(spec: FiberJoinSpec) -> dict:
    """The full single-join document: invariants plus verdicts."""
    return {
        "invariants": invariant_report(spec).as_dict(),
        "verdicts": [v.as_dict() for v in classify(spec)],
    }


# ---------------------------------------------------------------------------
# Survey enumeration


class SurveyEntry(Record):
    def __init__(
        self,
        matrix: tuple[tuple[int, ...], ...],
        invariants: InvariantReport,
        verdicts: tuple[Verdict, ...],
    ):
        vars(self).update(
            matrix=matrix, invariants=invariants, verdicts=verdicts,
            _values=(matrix, invariants, verdicts),
        )


class _OrbitEntries(Sequence):
    """A survey's entries, classified when read, sharing its base's facts."""

    def __init__(self, base: BaseProduct, split: tuple[int, int], keys: list):
        self.base, self.split, self.keys = base, split, keys

    def __eq__(self, other) -> bool:
        return isinstance(other, _OrbitEntries) and vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash((self.base, self.split, tuple(self.keys)))

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        (w0, winf), (d0, dinf) = self.keys[index], self.split
        spec = make_spec(self.base, [w0] * (d0 + 1) + [winf] * (dinf + 1), self.split)
        return SurveyEntry(spec.matrix, invariant_report(spec), tuple(classify(spec)))


class SurveyReport(Record):
    def __init__(
        self,
        base: BaseProduct,
        split: tuple[int, int],
        max_entry: int,
        entries: Sequence[SurveyEntry],
    ):
        vars(self).update(
            base=base, split=split, max_entry=max_entry, entries=entries,
            _values=(base, split, max_entry, entries),
        )


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
    (w0[i], winf[i]) of the pole rows form a multiset, produced once
    as a non-increasing tuple of pairs, which is the representative's
    order.  A symmetric split keeps a multiset only when swapping the
    poles gives no larger representative.  ``cap`` bounds the number
    of multisets enumerated, the product over groups of
    C(max_entry**2 + g - 1, g), times d = d0 + dinf + 1, since each
    orbit's matrix has d + 1 rows, which must fit in a list.  The base
    is a ``BaseProduct``, the split a list or tuple of two nonnegative
    integers, and the bounds are positive integers.
    """
    if not isinstance(base, BaseProduct):
        raise SpecError("base must be a BaseProduct")
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
    if cap < 1:
        raise SpecError("cap must be at least 1")
    groups = identical_factor_groups(base.factors)
    _check_work(max_entry**2, groups, d0 + dinf + 1, cap)
    # No list holds more than sys.maxsize // 8 items on a 64-bit build
    # (an 8-byte pointer each): refuse a longer matrix before trying it.
    if d0 + dinf + 2 > sys.maxsize // 8:
        raise SpecError(
            f"the split asks for matrices of more than {sys.maxsize // 8} rows, "
            "more than a list can hold"
        )
    values = range(max_entry, 0, -1)
    pairs = list(itertools.product(values, repeat=2))  # descending
    # Each group's multisets as its part of the pole rows (w0, winf),
    # then of those rows with the poles swapped.
    options = [
        [
            (*zip(*chosen), *zip(*sorted([(b, a) for a, b in chosen], reverse=True)))
            for chosen in itertools.combinations_with_replacement(pairs, len(g))
        ]
        for g in groups
    ]
    # The parts join in group order; ``place`` puts them in factor order.
    joined = [i for g in groups for i in g]
    inverse = sorted(range(len(joined)), key=joined.__getitem__)
    place = operator.itemgetter(*inverse) if inverse != sorted(inverse) else None
    keys = []
    for choice in itertools.product(*options):
        zero = inf = swap_zero = swap_inf = ()
        for z, i, sz, si in choice:
            zero += z
            inf += i
            swap_zero += sz
            swap_inf += si
        if place:
            zero, inf, swap_zero, swap_inf = map(place, (zero, inf, swap_zero, swap_inf))
        # Each part is in canonical order: only swapping the poles can
        # give a larger representative.
        if d0 == dinf and (swap_zero, swap_inf) > (zero, inf):
            continue
        keys.append((zero, inf))
    keys.sort()  # (w0, winf) sorts as the matrix rows do
    return SurveyReport(base, split, max_entry, _OrbitEntries(base, split, keys))


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
                    "the survey's column-pair multisets "
                    + mention("times d = {}", d, "times d")
                    + mention(" would be more than {}, which exceeds", cap, " would exceed")
                    + " the cap"
                )
        count *= multisets


def survey_chunks(report: SurveyReport, fmt: str = "json") -> Iterator[str]:
    """A survey's text, a chunk per entry: JSON as ``json.dumps(document,
    indent=2)`` writes it, or csv rows of invariants and verdict kinds.
    A large survey's helper process is reaped when the generator is
    exhausted or closed."""
    if fmt not in ("json", "csv"):
        raise SpecError(f"unsupported format: {fmt}")
    return _chunks(report, _json_writer if fmt == "json" else _csv_writer)


# A survey of at least this many entries forks a helper.  What the
# helper saves is the cost of the entries, which the count only stands
# for: in 9 alternating runs per survey on 2 vCPUs, the median time
# fell in 9 of 9 at 378 entries (genus 2 x 3 x 4, max_entry 3) and at
# 637 and more, but not at 405 cheap ones (genus 2 x 2 x 3, split
# (1, 0), max_entry 3: 35 ms in one process).  Any value from 406 to
# 637 fits those runs; the sizes between were not run.  A survey of a
# few hundred entries, such as genus 0 to the 4th at max_entry 3 (267),
# stays in one process.
_HELPER_MIN_ENTRIES = 500


def _chunks(report: SurveyReport, writer) -> Iterator[str]:
    """The writer's head, each entry's text in order, and its tail.

    A survey of at least ``_HELPER_MIN_ENTRIES`` entries forks a helper
    that renders the odd entries while this process renders the even
    ones.  This process never waits for the helper: an odd entry whose
    frame has not come (the helper is behind, failed, ended or was
    killed) it renders itself, so the text and any refusal are those of
    one process, and a starved helper cannot hold a survey up."""
    head, render, tail = writer(report)
    yield head
    entries = report.entries
    helper = _fork_helper(entries, render) if len(entries) >= _HELPER_MIN_ENTRIES else None
    try:
        for i in range(len(entries)):
            text = helper.take(i) if helper and i % 2 else None
            # Reading entries[i] classifies it: only here, where it is rendered.
            yield render(i, entries[i]) if text is None else text
    finally:
        if helper:
            helper.close()
    yield tail


def _fork_helper(entries: Sequence, render) -> Optional[_Helper]:
    """A forked helper that writes each odd entry's text on a pipe;
    None where no helper can start."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    # A forked child of a process with other threads may find their
    # locks held forever.
    if not hasattr(os, "fork") or cpus < 2 or threading.active_count() > 1:
        return None
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        # The helper leaves only by _exit: it never flushes the stdout
        # buffer it inherited, and never returns into the caller.
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                for i in range(1, len(entries), 2):
                    text = render(i, entries[i]).encode("ascii")
                    pipe.write(b"%d\n%b" % (len(text), text))
                    pipe.flush()
        finally:
            os._exit(0)
    os.close(write)
    os.set_blocking(read, False)
    return _Helper(pid, read)


class _Helper:
    """A forked helper and the read end of its pipe, on which it writes
    each odd entry's text in order as a frame: its length, a newline
    and its ASCII bytes.  The pipe is read only for a frame not yet
    whole, so this process holds at most one read past the frame it
    cuts, and a helper that is ahead waits on a full pipe."""

    def __init__(self, pid: int, fd: int):
        self.pid, self.fd = pid, fd
        # Bytes read, the offset of their first unread frame, its entry.
        self.data, self.at, self.next = bytearray(), 0, 1

    def take(self, i: int) -> Optional[str]:
        """Entry i's text if its whole frame is on the pipe, else None.
        The frames of entries before i, rendered here, are dropped.
        Frames are cut in place, and the pipe is read only while entry
        i's frame is not yet whole: the work per frame is its size."""
        data = self.data
        while True:
            newline = data.find(b"\n", self.at)
            if newline >= 0:
                start = newline + 1
                end = start + int(data[self.at : newline])
                if end <= len(data):
                    self.at, self.next = end, self.next + 2
                    if self.next > i:
                        return data[start:end].decode("ascii")
                    continue
            del data[: self.at]
            self.at = 0
            try:
                more = os.read(self.fd, 1 << 16)
            except BlockingIOError:
                more = b""
            if not more:  # nothing new yet, or the helper has ended
                return None
            data.extend(more)

    def close(self) -> None:
        """Stop the helper, done or not, and reap it."""
        os.close(self.fd)
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _json_writer(report: SurveyReport):
    """The head up to '"entries": [', the text of an entry with the
    separator before it, and the tail."""
    base = [_factor_document(f) for f in report.base.factors]
    head = {"base": base, "split": list(report.split), "max_entry": report.max_entry}

    @functools.cache  # a survey has few distinct tables and many entries
    def cohomology(table) -> _Text:
        """The table's text, at its depth in an entry."""
        return _Text(_json_text(table.as_dict(), "\n        "))

    def render(i: int, entry: SurveyEntry) -> str:
        document = {
            "K": [list(row) for row in entry.matrix],
            "invariants": entry.invariants.as_dict(cohomology),
            "verdicts": [v.as_dict() for v in entry.verdicts],
        }
        # An entry starts two levels deep.
        return (",\n    " if i else "\n    ") + _json_text(document, "\n    ")

    tail = "\n  ]\n}" if report.entries else "]\n}"
    return _json_text({**head, "entries": []})[: -len("]\n}")], render, tail


class _Text(str):
    """JSON text already written, which _append_json copies."""


# The text json.dumps writes for each scalar type, by exact type; a
# subclass of str or int takes the isinstance path of _append_json.
_SCALAR_TEXT = {
    _Text: str.__str__,
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, with ``newline`` in place of
    each newline: the text of ``value`` nested at that indent."""
    out: list[str] = []
    try:
        _append_json(value, out, newline)
    except ValueError as exc:  # only the digit limit raises here
        raise DigitLimitError() from exc
    return "".join(out)


def _append_json(value, out: list[str], newline: str) -> None:
    """Append the text of ``value`` to ``out``: str, int, bool, None,
    and dicts (str or int keys), lists and tuples of them."""
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        out.append(text(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if isinstance(key, str):
                key = encode_basestring_ascii(key)
            elif isinstance(key, int) and not isinstance(key, bool):
                key = '"' + int.__repr__(key) + '"'
            else:
                raise TypeError(f"keys must be str or int, not {type(key).__name__}")
            text = _SCALAR_TEXT.get(type(item))
            if text is None:
                out.append(separator + key + ": ")
                _append_json(item, out, inner)
            else:
                out.append(separator + key + ": " + text(item))
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            text = _SCALAR_TEXT.get(type(item))
            if text is None:
                out.append(separator)
                _append_json(item, out, inner)
            else:
                out.append(separator + text(item))
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _csv_writer(report: SurveyReport):
    """The header row, an entry's row, and no tail."""
    # writerow returns what its file's write returns: here, the row.
    writer = csv.writer(SimpleNamespace(write=str))

    def render(i: int, entry: SurveyEntry) -> str:
        inv = entry.invariants
        try:
            return writer.writerow(
                [
                    ";".join(",".join(str(e) for e in row) for row in entry.matrix),
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
        except ValueError as exc:  # only the digit limit raises here
            raise DigitLimitError() from exc

    header = ["K", "d", "n", "colinear", "c1", "euler", "p1", "spin", "verdicts"]
    return writer.writerow(header), render, ""


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


def emit(document) -> str:
    """A plain document's JSON text; a survey's text comes from
    ``survey_chunks``."""
    return _json_text(document)
