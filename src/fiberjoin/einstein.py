"""Sasaki-Einstein obstructions and existence for fiber joins.

A join can only carry a Sasaki-Einstein structure in its sphere cone
if the contact bundle has vanishing first Chern class; on top of that
the colinear case forces an arithmetic chain tying the sum of the
multiples to the divisibility index of the base.  Existence (with a
count of inequivalent solutions) is granted in the cases where it is
actually known: d=1 joins over a single projective space hitting the
index exactly, and the homogeneous all-ones join.
"""

from __future__ import annotations

import math
from typing import Optional

from .exactalg import Record
from .model import BaseProduct, DigitLimitError, FiberJoinSpec, SpecError


NECESSARY_CONDITIONS_PASS = "necessary conditions pass"


class NotFanoError(SpecError):
    """The base has nonpositive anticanonical class on some factor."""


def fano_index(base: BaseProduct) -> int:
    """Divisibility index of the anticanonical class: the gcd of its
    coefficients on the primitive generators.  Defined only when every
    coefficient is positive."""
    coefficients = base.facts.c1
    if any(c <= 0 for c in coefficients):
        try:
            message = f"anticanonical coefficients {coefficients} not positive"
        except ValueError as exc:  # only the digit limit raises here
            raise DigitLimitError() from exc
        raise NotFanoError(message)
    return math.gcd(*coefficients)


class SEVerdict(Record):
    """Outcome of the Sasaki-Einstein check.

    possible: no known obstruction fires (True) or one does (False)
    reason:   the deciding obstruction or the granting construction
    count:    number of inequivalent solutions when the counting rule
              applies, otherwise None
    """

    def __init__(self, possible: bool, reason: str, count: Optional[int] = None):
        vars(self).update(
            possible=possible, reason=reason, count=count,
            _values=(possible, reason, count),
        )


def se_check(spec: FiberJoinSpec) -> SEVerdict:
    """Run the obstruction chain and the known existence upgrades."""
    n, d = spec.n, spec.d

    # Structural obstruction independent of the classes: equal split
    # blocks of dimension at least the base dimension leave no room
    # for the Einstein condition.  Checked first because vanishing c1
    # already excludes it arithmetically, which would make it
    # unobservable downstream.
    if spec.facts.blocks is not None:
        _, _, d0, dinf = spec.facts.blocks
        if d0 == dinf and d0 >= n:
            return SEVerdict(
                possible=False,
                reason=(
                    "equal split blocks of dimension at least the base "
                    "dimension admit no Einstein structure"
                ),
            )

    c1, join = spec.facts.c1, spec.facts.join
    if any(c != 0 for c in c1):
        try:
            reason = f"contact bundle has nonzero first Chern class {list(c1)}"
        except ValueError as exc:  # only the digit limit raises here
            raise DigitLimitError() from exc
        return SEVerdict(possible=False, reason=reason)

    # With c1 = 0 the anticanonical class equals the (positive) column
    # sum, so the base is automatically Fano.
    index = fano_index(spec.base)

    if join is not None:
        total = sum(join.multiples)
        # Arithmetic chain for colinear joins with vanishing c1: the
        # multiples sum to the index, which the weight sum divides and
        # which is pinched between d+1 and n+1.  The upper end always
        # holds: the index divides every anticanonical coefficient,
        # n_a + 1 on CP^(n_a) or 2 on a genus-zero curve, each <= n + 1.
        assert total == index
        assert join.b * sum(join.w) == index
        assert d + 1 <= index <= n + 1
        if n == d:
            assert join.w == (1,) * (d + 1)
        # Vanishing c1 leaves a lone factor only CP^n or a genus-zero curve.
        if d == 1 and len(spec.base.factors) == 1:
            return SEVerdict(
                possible=True,
                reason=(
                    "two-summand join over a projective space with "
                    "multiples summing to the index"
                ),
                # Multisets of two positive multiples summing to the index.
                count=index // 2,
            )
        if all(row == (1,) * len(spec.base.factors) for row in spec.matrix):
            return SEVerdict(
                possible=True,
                reason="homogeneous join of unit-class summands",
            )
        return SEVerdict(possible=True, reason=NECESSARY_CONDITIONS_PASS)

    # Vanishing c1 forces every column to sum to the factor's
    # anticanonical coefficient, which already caps d by n.
    assert n >= d
    return SEVerdict(possible=True, reason=NECESSARY_CONDITIONS_PASS)
