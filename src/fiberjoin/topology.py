"""Topological invariants of fiber joins.

The first Chern class of the contact bundle lives on the base and is
computed exactly on its primitive generators; the Euler class, first
Pontryagin number, spin type, and the integral cohomology table are
available for the bases where a closed form holds: products of two
curves for most of them, and for d > 1 the first Pontryagin number
only on a split join over two genus-zero curves.
"""

from __future__ import annotations

from .exactalg import Record
from .model import FiberJoinSpec, SpecError

ClassVector = tuple[int, ...]


class UnsupportedBaseError(SpecError):
    """The requested invariant has no closed form for this base."""


def c1_contact(spec: FiberJoinSpec) -> ClassVector:
    """First Chern class of the contact bundle, on the base generators.

    Componentwise: (anticanonical coefficient) minus (column sum of K).
    """
    return spec.facts.c1


def _curves(spec: FiberJoinSpec) -> tuple[int, int]:
    curves = spec.base.facts.curves
    if curves is None:
        raise UnsupportedBaseError("this invariant needs a product of two curves")
    return curves


def euler_class(spec: FiberJoinSpec) -> int:
    """Euler class of the join over a product of two curves, as a
    multiple of the orientation class; zero as soon as d > 1."""
    _curves(spec)
    if spec.d > 1:
        return 0
    r0, r1 = spec.matrix
    return r0[0] * r1[1] + r0[1] * r1[0]


def p1(spec: FiberJoinSpec) -> int:
    """First Pontryagin number against the natural orientation class.

    Closed forms: any d=1 join over a product of two curves; for
    d > 1 a split join over a product of two genus-zero curves.
    """
    curves = _curves(spec)
    if spec.d == 1:
        r0, r1 = spec.matrix
        return 2 * (r0[0] - r1[0]) * (r0[1] - r1[1])
    if spec.facts.blocks is None:
        raise UnsupportedBaseError("d > 1 needs a split join")
    if curves != (0, 0):
        raise UnsupportedBaseError(
            "d > 1 closed form holds over two genus-zero curves"
        )
    k0, kinf, d0, dinf = spec.facts.blocks
    return (
        -4 * (d0 + 1) * (k0[0] + k0[1])
        - 4 * (dinf + 1) * (kinf[0] + kinf[1])
        + 2 * (d0 + 1) * k0[0] * k0[1]
        + 2 * (dinf + 1) * kinf[0] * kinf[1]
    )


SPIN = "spin"
NON_SPIN = "non_spin"


def spin_status(spec: FiberJoinSpec) -> str:
    """Spin or not: the second Stiefel-Whitney class is the mod-2
    reduction of c1 of the contact bundle."""
    _curves(spec)
    return SPIN if all(c % 2 == 0 for c in spec.facts.c1) else NON_SPIN


def p1_congruence_holds(spec: FiberJoinSpec) -> bool:
    """Whether p1 = 2e mod 4, the congruence entering finiteness
    arguments for homotopy types of these 7-manifolds (d=1)."""
    return (p1(spec) - 2 * euler_class(spec)) % 4 == 0


class CohomologyTable(Record):
    """Integral cohomology, degree -> (free rank, torsion cyclic orders)."""

    def __init__(self, groups: tuple[tuple[int, int, tuple[int, ...]], ...]):
        vars(self).update(groups=groups, _values=(groups,))

    def as_dict(self) -> dict[int, dict]:
        return {
            deg: {"free": rank, "torsion": list(tors)}
            for deg, rank, tors in self.groups
        }


def cohomology_table(spec: FiberJoinSpec) -> CohomologyTable:
    """Integral cohomology of the join over a product N of two curves,
    from the Gysin sequence of the S^(2d+1) bundle: degree k holds
    H^k(N) plus H^(k-2d-1)(N), except where the Euler class e in
    H^(2d+2)(N) acts.  That happens only for d = 1, where cup with
    e != 0 maps H^0(N) onto e H^4(N): one free summand leaves degrees
    3 and 4, and degree 4 gains Z/e.
    """
    e = euler_class(spec)  # refuses every other base
    betti = spec.base.facts.betti
    shift = 2 * spec.d + 1
    ranks = [0] * (shift + 5)
    for k, b in enumerate(betti):
        ranks[k] += b
        ranks[k + shift] += b
    torsion = {}
    if e:
        ranks[shift] -= 1
        ranks[shift + 1] -= 1
        torsion[shift + 1] = (e,)
    return CohomologyTable(
        tuple((deg, rank, torsion.get(deg, ())) for deg, rank in enumerate(ranks))
    )


class HomeoKey(Record):
    """(p1, euler) pair; distinct keys certify distinct homeomorphism
    types within the symmetric two-parameter family."""

    def __init__(self, p1: int, euler: int):
        vars(self).update(p1=p1, euler=euler, _values=(p1, euler))


def homeo_key(spec: FiberJoinSpec) -> HomeoKey:
    """Homeomorphism-separating key for d=1 joins over a product of two
    genus-zero curves with matrix [[k, l], [l, k]], k > l."""
    if _curves(spec) != (0, 0):
        raise UnsupportedBaseError("key defined over two genus-zero curves")
    if spec.d != 1:
        raise UnsupportedBaseError("key defined for d=1 joins")
    r0, r1 = spec.matrix
    k, l = r0
    if (r1[0], r1[1]) != (l, k) or not k > l:
        raise UnsupportedBaseError(
            "key defined for the symmetric family [[k, l], [l, k]] with k > l"
        )
    return HomeoKey(p1=p1(spec), euler=euler_class(spec))
