"""Data model for fiber joins of sphere bundles.

A fiber join is the unit sphere bundle in a direct sum of d+1 line
bundles over a compact base: each summand is classified by a positive
integral class on the base, and the join is recorded as the matrix K
whose rows are those classes written in the basis of primitive
generators (one per base factor).  An optional split (d0, dinf)
declares that the first d0+1 rows agree and the last dinf+1 rows
agree, which is the structure all curvature computations consume.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from typing import Optional, Sequence

from .exactalg import Record


class SpecError(ValueError):
    """Invalid join description."""


class DigitLimitError(ValueError):
    """An integer of the answer is longer than the interpreter will
    write as text."""

    def __init__(self):
        super().__init__(
            "an integer of the answer has more than "
            f"{sys.get_int_max_str_digits()} digits, the interpreter's limit "
            "for integer string conversion"
        )


class EmptyBaseError(SpecError):
    pass


class NonPositiveEntryError(SpecError):
    pass


class SplitMismatchError(SpecError):
    pass


class NotColinearError(SpecError):
    pass


def integer(value, name: str) -> int:
    """A JSON integer, refusing booleans, floats and strings."""
    if type(value) is not int:
        raise SpecError(f"{name} must be an integer, not {type(value).__name__}")
    return value


def mention(template: str, value, fallback: str) -> str:
    """``template`` with ``value`` written in, or ``fallback`` when an
    integer in ``value`` is longer than the interpreter will write."""
    try:
        return template.format(value)
    except ValueError:
        return fallback


SURFACE = "surface"
PROJECTIVE_SPACE = "projective_space"
TORUS = "torus"


class BaseFactor(Record):
    """One factor of the base: a Riemann surface, a projective space,
    or a 2-torus (the genus-one surface, kept as its own kind so
    reports name it).  A factor takes only its kind's field: n for a
    projective space, genus for the others."""

    def __init__(self, kind: str, genus: Optional[int] = None, n: Optional[int] = None):
        if kind == SURFACE:
            if integer(genus, "genus") < 0:
                raise SpecError("surface factor needs genus >= 0")
        elif kind == PROJECTIVE_SPACE:
            if integer(n, "n") < 1:
                raise SpecError("projective space factor needs n >= 1")
        elif kind == TORUS:
            if genus is not None and integer(genus, "genus") != 1:
                raise SpecError("torus factor has genus 1")
            genus = 1  # one torus, however spelt: equal and hashing alike
        else:
            raise SpecError(f"unknown base factor kind: {kind!r}")
        field, value = ("genus", genus) if kind == PROJECTIVE_SPACE else ("n", n)
        if value is not None:
            raise SpecError(f"{kind.replace('_', ' ')} factor takes no {field}")
        vars(self).update(kind=kind, genus=genus, n=n, _values=(kind, genus, n))

    @staticmethod
    def surface(genus: int) -> "BaseFactor":
        return BaseFactor(SURFACE, genus=genus)

    @staticmethod
    def projective_space(n: int) -> "BaseFactor":
        return BaseFactor(PROJECTIVE_SPACE, n=n)

    @staticmethod
    def torus() -> "BaseFactor":
        return BaseFactor(TORUS, genus=1)

    @property
    def dim_c(self) -> int:
        return self.n if self.kind == PROJECTIVE_SPACE else 1

    @property
    def c1_coefficient(self) -> int:
        """Coefficient of the anticanonical class on this factor's
        primitive generator."""
        if self.kind == PROJECTIVE_SPACE:
            return self.n + 1
        return 2 - 2 * self.genus

    @property
    def effective_genus(self) -> Optional[int]:
        """Genus when the factor is a curve (surface, torus, or CP^1);
        None for higher-dimensional projective spaces."""
        if self.kind in (SURFACE, TORUS):
            return self.genus
        if self.kind == PROJECTIVE_SPACE and self.n == 1:
            return 0
        return None

    def describe(self) -> str:
        try:
            if self.kind == SURFACE:
                return f"surface(genus={self.genus})"
            if self.kind == PROJECTIVE_SPACE:
                return f"projective_space(n={self.n})"
        except ValueError as exc:  # only the digit limit raises here
            raise DigitLimitError() from exc
        return "torus"


class BaseProduct(Record):
    def __init__(self, factors: tuple[BaseFactor, ...]):
        if not isinstance(factors, tuple) or not all(
            isinstance(f, BaseFactor) for f in factors
        ):
            raise SpecError("base must be a tuple of base factors")
        if not factors:
            raise EmptyBaseError("base product needs at least one factor")
        vars(self).update(factors=factors, _values=(factors,))

    @property
    def dim_c(self) -> int:
        return sum(f.dim_c for f in self.factors)

    def describe(self) -> str:
        return " x ".join(f.describe() for f in self.factors)

    @cached_property
    def description(self) -> str:
        """``describe()``, kept: the entries of a survey share its base."""
        return self.describe()

    @cached_property
    def facts(self) -> BaseFacts:
        """This base's ``BaseFacts``, built on first use."""
        return BaseFacts(self)

    @cached_property
    def profile_verdicts(self) -> dict:
        """The extremal-profile verdicts of joins over this base, by the
        solve's inputs; ``classify`` fills and bounds it."""
        return {}


def _two_curve_base(genera: tuple[Optional[int], ...]) -> Optional[tuple[int, int]]:
    """The genera of a product of two curves; None on any other base."""
    return genera if len(genera) == 2 and None not in genera else None


class BaseFacts:
    """What the base alone decides, kept by ``BaseProduct.facts``: its
    c1 vector, genera, and for a product of two curves their genera
    and its Betti numbers (else None), each a tuple.  A plain class
    with ``__slots__``, not a record: it is built once per base and
    never compared or hashed."""

    __slots__ = ("c1", "genera", "curves", "betti")

    def __init__(self, base: BaseProduct):
        self.c1 = tuple(f.c1_coefficient for f in base.factors)
        self.genera = tuple(f.effective_genus for f in base.factors)
        self.curves, self.betti = _two_curve_base(self.genera), None
        if self.curves:
            g1, g2 = self.curves
            self.betti = (1, 2 * g1 + 2 * g2, 4 * g1 * g2 + 2, 2 * g1 + 2 * g2, 1)


class FiberJoinSpec(Record):
    def __init__(
        self,
        base: BaseProduct,
        matrix: tuple[tuple[int, ...], ...],
        split: Optional[tuple[int, int]] = None,
    ):
        vars(self).update(
            base=base, matrix=matrix, split=split,
            _values=(base, matrix, split),
        )
        validate(self)

    @property
    def d(self) -> int:
        """Fiber sphere dimension parameter: the fiber is S^(2d+1)."""
        return len(self.matrix) - 1

    @property
    def n(self) -> int:
        return self.base.dim_c

    @cached_property
    def facts(self) -> JoinFacts:
        """This join's ``JoinFacts``, built on first use."""
        return JoinFacts(self)


def validate(spec: FiberJoinSpec) -> FiberJoinSpec:
    """Check the join contract; returns the spec unchanged.

    ``FiberJoinSpec`` runs this once, on construction, so every spec
    in hand is valid.  The base is a ``BaseProduct``, K a tuple of row
    tuples and the split a tuple; their entries are integers, never
    booleans, floats or strings; nothing is coerced."""
    if not isinstance(spec.base, BaseProduct):
        raise SpecError("base must be a BaseProduct")
    rows = spec.matrix
    if not isinstance(rows, tuple) or not all(isinstance(row, tuple) for row in rows):
        raise SpecError("matrix must be a tuple of rows, each a tuple of integers")
    if len(rows) < 2:
        raise SpecError("a join needs at least two line bundle summands")
    width = len(spec.base.factors)
    for row in rows:
        if len(row) != width:
            raise SpecError("matrix width must equal the number of base factors")
        for entry in row:
            if integer(entry, "matrix entry") < 1:
                raise NonPositiveEntryError(
                    "matrix entries must be positive" + mention(": {}", row, "")
                )
    if spec.split is not None:
        if not isinstance(spec.split, tuple) or len(spec.split) != 2:
            raise SpecError("split must be a pair of integers")
        d0, dinf = (integer(x, "split entry") for x in spec.split)
        if d0 < 0 or dinf < 0 or d0 + dinf + 1 != spec.d:
            raise SplitMismatchError(
                mention("split {}", spec.split, "split")
                + f" incompatible with {spec.d + 1} rows"
            )
        head = rows[: d0 + 1]
        tail = rows[d0 + 1 :]
        if any(r != head[0] for r in head) or any(r != tail[0] for r in tail):
            raise SplitMismatchError("rows must be constant on each split block")
    return spec


def make_spec(
    base: Sequence[BaseFactor] | BaseProduct,
    rows: Sequence[Sequence[int]],
    split: Optional[tuple[int, int]] = None,
) -> FiberJoinSpec:
    """Only a list or tuple is read as K, a row or the split."""
    if not isinstance(rows, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in rows
    ):
        raise SpecError("K must be a list of rows, each a list of integers")
    return FiberJoinSpec(
        base=base if isinstance(base, BaseProduct) else BaseProduct(tuple(base)),
        matrix=tuple(tuple(row) for row in rows),
        split=tuple(split) if isinstance(split, (list, tuple)) else split,
    )


def is_colinear(spec: FiberJoinSpec) -> bool:
    """Whether all rows of K are proportional (rank one over Q).

    Equivalent to the cone of the join decomposing as a product.  Every
    entry is positive, so row i is a multiple of the first row exactly
    when each 2x2 minor on the first row and the first column vanishes.
    """
    rows = spec.matrix
    first = rows[0]
    return all(
        first[0] * row[b] == first[b] * row[0]
        for row in rows[1:]
        for b in range(1, len(first))
    )


class RegularJoinData(Record):
    """Colinear joins are joins of a sphere with a weighted sphere:
    rows are multiples m_j = b * w_j of one primitive class."""

    def __init__(self, b: int, w: tuple[int, ...], primitive: tuple[int, ...]):
        vars(self).update(b=b, w=w, primitive=primitive, _values=(b, w, primitive))

    @property
    def multiples(self) -> tuple[int, ...]:
        return tuple(self.b * wj for wj in self.w)


def regular_join_data(spec: FiberJoinSpec) -> RegularJoinData:
    """Each row as m_j times the first row's primitive vector; a row of
    positive integers that is no such multiple is not proportional."""
    rows = spec.matrix
    g = math.gcd(*rows[0])
    primitive = tuple(e // g for e in rows[0])
    multiples = []
    for row in rows:
        m = row[0] // primitive[0]
        if any(e != m * p for e, p in zip(row, primitive)):
            raise NotColinearError("rows are not proportional")
        multiples.append(m)
    b = math.gcd(*multiples)
    w = tuple(m // b for m in multiples)
    return RegularJoinData(b=b, w=w, primitive=primitive)


def identical_factor_groups(
    factors: Sequence[BaseFactor],
) -> tuple[tuple[int, ...], ...]:
    """Positions of each distinct base factor, in order of first
    appearance; columns may be exchanged only within one group."""
    groups: dict[BaseFactor, list[int]] = {}
    for idx, factor in enumerate(factors):
        groups.setdefault(factor, []).append(idx)
    return tuple(tuple(group) for group in groups.values())


def canonical_columns(
    columns: Sequence[tuple[int, int]],
    groups: Sequence[Sequence[int]],
    swap_poles: bool,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lexicographically largest pole pair (w0, winf) over exchanging
    the column pairs (w0[i], winf[i]) within each group, and over
    swapping the poles when allowed.

    Sorting a group's pairs in descending order and writing them back
    to its positions in increasing order maximizes w0 first and winf
    among its ties, so no permutation is tried.
    """

    def arrange(pairs):
        placed = list(pairs)
        for positions in groups:
            ordered = sorted((pairs[i] for i in positions), reverse=True)
            for i, pair in zip(positions, ordered):
                placed[i] = pair
        return tuple(a for a, _ in placed), tuple(b for _, b in placed)

    best = arrange(columns)
    if swap_poles:
        best = max(best, arrange([(b, a) for a, b in columns]))
    return best


def canonical_split_spec(spec: FiberJoinSpec) -> FiberJoinSpec:
    """Orbit representative of a split join over its symmetries.

    Columns may only be exchanged between identical base factors
    (relabeling interchangeable factors), and the two split blocks
    swap only when they hold the same number of summands (relabeling
    the poles).  The representative is the lexicographically largest
    pole pair (w0, winf), so invariants computed from it always refer
    to the matrix the report displays.
    """
    if spec.facts.blocks is None:
        raise SpecError("split required")
    w0, winf, d0, dinf = spec.facts.blocks
    a, b = canonical_columns(
        list(zip(w0, winf)), identical_factor_groups(spec.base.factors), d0 == dinf
    )
    rows = [list(a)] * (d0 + 1) + [list(b)] * (dinf + 1)
    return make_spec(spec.base.factors, rows, (d0, dinf))


class JoinFacts:
    """What the join decides beyond its base, kept by
    ``FiberJoinSpec.facts``: c1 of the contact bundle on the base
    generators (anticanonical coefficient minus column sum of K), the
    ``RegularJoinData`` (None when K is not colinear), the split blocks
    (w0, winf, d0, dinf), pole classes and block sizes read from the
    declared split (None when the join is unsplit), and the retained
    factors, where w0 and winf differ (() when unsplit).  A plain
    class with ``__slots__``, not a record: it is built once per join
    and never compared or hashed."""

    __slots__ = ("c1", "join", "blocks", "retained")

    def __init__(self, spec: FiberJoinSpec):
        columns = zip(*spec.matrix)
        self.c1 = tuple(c - sum(col) for c, col in zip(spec.base.facts.c1, columns))
        self.join = regular_join_data(spec) if is_colinear(spec) else None
        self.blocks, self.retained = None, ()
        if spec.split is not None:
            d0, dinf = spec.split
            w0, winf = spec.matrix[0], spec.matrix[d0 + 1]
            self.blocks = (w0, winf, d0, dinf)
            self.retained = tuple(a for a, (x, y) in enumerate(zip(w0, winf)) if x != y)
