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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


class SpecError(ValueError):
    """Invalid join description."""


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


SURFACE = "surface"
PROJECTIVE_SPACE = "projective_space"
TORUS = "torus"


@dataclass(frozen=True)
class BaseFactor:
    """One factor of the base: a Riemann surface, a projective space,
    or a 2-torus (the genus-one surface, kept as its own kind so
    reports name it)."""

    kind: str
    genus: Optional[int] = None
    n: Optional[int] = None

    def __post_init__(self):
        if self.kind == SURFACE:
            if integer(self.genus, "genus") < 0:
                raise SpecError("surface factor needs genus >= 0")
        elif self.kind == PROJECTIVE_SPACE:
            if integer(self.n, "n") < 1:
                raise SpecError("projective space factor needs n >= 1")
        elif self.kind == TORUS:
            if self.genus is not None and integer(self.genus, "genus") != 1:
                raise SpecError("torus factor has genus 1")
            # One torus, however spelt: equal and hashing alike.
            object.__setattr__(self, "genus", 1)
        else:
            raise SpecError(f"unknown base factor kind: {self.kind!r}")

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
        if self.kind == SURFACE:
            return f"surface(genus={self.genus})"
        if self.kind == PROJECTIVE_SPACE:
            return f"projective_space(n={self.n})"
        return "torus"


@dataclass(frozen=True)
class BaseProduct:
    factors: tuple[BaseFactor, ...]

    def __post_init__(self):
        if not self.factors:
            raise EmptyBaseError("base product needs at least one factor")

    @property
    def dim_c(self) -> int:
        return sum(f.dim_c for f in self.factors)

    def c1_vector(self) -> tuple[int, ...]:
        return tuple(f.c1_coefficient for f in self.factors)

    def describe(self) -> str:
        return " x ".join(f.describe() for f in self.factors)


@dataclass(frozen=True)
class KahlerMatrix:
    """Rows are the classifying classes of the line bundle summands,
    one column per base factor, all entries positive integers."""

    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "KahlerMatrix":
        return KahlerMatrix(tuple(tuple(row) for row in rows))

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.rows))


@dataclass(frozen=True)
class FiberJoinSpec:
    base: BaseProduct
    matrix: KahlerMatrix
    split: Optional[tuple[int, int]] = None

    def __post_init__(self):
        validate(self)

    @property
    def d(self) -> int:
        """Fiber sphere dimension parameter: the fiber is S^(2d+1)."""
        return self.matrix.row_count - 1

    @property
    def n(self) -> int:
        return self.base.dim_c

    def omega_zero(self) -> tuple[int, ...]:
        return self.matrix.rows[0]

    def omega_infinity(self) -> tuple[int, ...]:
        d0, _ = self.split
        return self.matrix.rows[d0 + 1]


def validate(spec: FiberJoinSpec) -> FiberJoinSpec:
    """Check the join contract; returns the spec unchanged.

    ``FiberJoinSpec`` runs this once, on construction, so every spec
    in hand is valid.  Matrix entries and the split are integers,
    never booleans, floats or strings; nothing is coerced."""
    rows = spec.matrix.rows
    if not rows or spec.d < 1:
        raise SpecError("a join needs at least two line bundle summands")
    width = len(spec.base.factors)
    for row in rows:
        if len(row) != width:
            raise SpecError("matrix width must equal the number of base factors")
        for entry in row:
            if integer(entry, "matrix entry") < 1:
                raise NonPositiveEntryError(f"matrix entries must be positive: {row}")
    if spec.split is not None:
        if not isinstance(spec.split, tuple) or len(spec.split) != 2:
            raise SpecError("split must be a pair of integers")
        d0, dinf = (integer(x, "split entry") for x in spec.split)
        if d0 < 0 or dinf < 0 or d0 + dinf + 1 != spec.d:
            raise SplitMismatchError(
                f"split {spec.split} incompatible with {spec.d + 1} rows"
            )
        head = rows[: d0 + 1]
        tail = rows[d0 + 1 :]
        if any(r != head[0] for r in head) or any(r != tail[0] for r in tail):
            raise SplitMismatchError("rows must be constant on each split block")
    return spec


def make_spec(
    base: Sequence[BaseFactor],
    rows: Sequence[Sequence[int]],
    split: Optional[tuple[int, int]] = None,
) -> FiberJoinSpec:
    """Only a list or tuple is read as K, a row or the split."""
    if not isinstance(rows, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in rows
    ):
        raise SpecError("K must be a list of rows, each a list of integers")
    return FiberJoinSpec(
        base=BaseProduct(tuple(base)),
        matrix=KahlerMatrix.from_rows(rows),
        split=tuple(split) if isinstance(split, (list, tuple)) else split,
    )


def is_colinear(spec: FiberJoinSpec) -> bool:
    """Whether all rows of K are proportional (rank one over Q).

    Equivalent to the cone of the join decomposing as a product.  Every
    entry is positive, so row i is a multiple of the first row exactly
    when each 2x2 minor on the first row and the first column vanishes.
    """
    rows = spec.matrix.rows
    first = rows[0]
    return all(
        first[0] * row[b] == first[b] * row[0]
        for row in rows[1:]
        for b in range(1, len(first))
    )


@dataclass(frozen=True)
class RegularJoinData:
    """Colinear joins are joins of a sphere with a weighted sphere:
    rows are multiples m_j = b * w_j of one primitive class."""

    b: int
    w: tuple[int, ...]
    primitive: tuple[int, ...]

    @property
    def multiples(self) -> tuple[int, ...]:
        return tuple(self.b * wj for wj in self.w)


def regular_join_data(spec: FiberJoinSpec) -> RegularJoinData:
    """Each row as m_j times the first row's primitive vector; a row of
    positive integers that is no such multiple is not proportional."""
    rows = spec.matrix.rows
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
    """Lexicographically largest (omega_zero, omega_infinity) over
    exchanging the column pairs (omega_zero[i], omega_infinity[i])
    within each group, and over swapping the poles when allowed.

    Sorting a group's pairs in descending order and writing them back
    to its positions in increasing order maximizes omega_zero first
    and omega_infinity among its ties, so no permutation is tried.
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
    (omega_zero, omega_infinity) pair, so invariants computed from it
    always refer to the matrix the report displays.
    """
    if spec.split is None:
        raise SpecError("split required")
    d0, dinf = spec.split
    a, b = canonical_columns(
        list(zip(spec.omega_zero(), spec.omega_infinity())),
        identical_factor_groups(spec.base.factors),
        d0 == dinf,
    )
    rows = [list(a)] * (d0 + 1) + [list(b)] * (dinf + 1)
    return make_spec(spec.base.factors, rows, spec.split)


def retained_factors(spec: FiberJoinSpec) -> tuple[int, ...]:
    """Indices of base factors where the split classes differ; the
    curvature reduction keeps exactly these."""
    if spec.split is None:
        raise SpecError("split required")
    pairs = zip(spec.omega_zero(), spec.omega_infinity())
    return tuple(a for a, (w0, winf) in enumerate(pairs) if w0 != winf)
