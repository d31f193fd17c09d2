"""Closed forms the tests compare the package against.

Each is an independent derivation of a fact the package computes
another way: the two affine curvature equations of the two-factor CSC
problem and the solve built on them, the balanced closed form of its
root, and the characteristic product of admissible data.
"""

from fractions import Fraction

from fiberjoin.admissible import (
    CSC,
    INCONSISTENT,
    POSITIVITY_FAILS,
    AdmissibleData,
    CscResult,
)
from fiberjoin.exactalg import Polynomial, strictly_positive_on
from fiberjoin.model import SpecError


class AnsatzError(SpecError):
    """The balanced ansatz needs s1 + s2 = 0 and r1 + r2 = 0."""


def curvature_equation(s_own, r_own, r_other, s):
    """Equations (17) and (18) written out directly: zero exactly when
    s is the constant scalar curvature, as seen from one factor."""
    return (
        r_own * (s_own * (r_own - r_other) - 2 + (1 - s) * r_own * r_other)
        + 3 * (s - 1) * r_other
    )


def back_solve_csc(r1, r2, s1):
    """The root s of factor 1's equation and the s2 that makes it a
    root of factor 2's equation too: consistent two-factor data."""
    s = (2 * r1 + 3 * r2 - r1 * r1 * r2 - r1 * s1 * (r1 - r2)) / (r2 * (3 - r1 * r1))
    s2 = (2 * r2 - r1 * r2 * r2 * (1 - s) - 3 * (s - 1) * r1) / (r2 * (r2 - r1))
    return s, s2


def reference_solve_csc(data: AdmissibleData) -> CscResult:
    """Two-factor CSC from the two curvature equations, each affine in
    s: a common root plus positivity of the certificate quadratic on
    (-1, 1).  Divides by r1 and r2, so an entry with r = 0 raises
    ZeroDivisionError."""
    (e1, e2) = data.base_entries
    s1, r1 = e1.s, e1.r
    s2, r2 = e2.s, e2.r
    coef_a = r2 * (3 - r1 * r1)
    const_a = r1 * (s1 * (r1 - r2) - 2 + r1 * r2) - 3 * r2
    coef_b = r1 * (3 - r2 * r2)
    const_b = r2 * (s2 * (r2 - r1) - 2 + r1 * r2) - 3 * r1
    sa = -const_a / coef_a
    sb = -const_b / coef_b
    if sa != sb:
        return CscResult(s=None, certificate=None, verdict=INCONSISTENT)
    s = sa
    certificate = (
        Polynomial.linear(1, r1) * Polynomial.linear(1, r2)
        + (1 - s / 2) * r1 * r2 * Polynomial.from_coeffs([1, 0, -1])
    )
    if strictly_positive_on(certificate, -1, 1):
        return CscResult(s=s, certificate=certificate, verdict=CSC)
    return CscResult(s=s, certificate=certificate, verdict=POSITIVITY_FAILS)


def csc_ansatz(data: AdmissibleData) -> Fraction:
    """Closed form for the CSC value under the balanced hypothesis
    s1 + s2 = 0, r1 + r2 = 0."""
    base = data.base_entries
    if len(base) != 2 or data.d0 != 0 or data.dinf != 0:
        raise SpecError("two retained factors and a trivial split required")
    (e1, e2) = base
    if e1.s + e2.s != 0 or e1.r + e2.r != 0:
        raise AnsatzError("balanced hypothesis fails")
    s1, r1 = e1.s, e1.r
    return (1 - r1 * r1 + 2 * s1 * r1) / (3 - r1 * r1)


def characteristic_product(data: AdmissibleData) -> Polynomial:
    """The product of (1 + r_a z)^(dim_a) over all entries; it weights
    the boundary conditions and divides the profile's second derivative."""
    result = Polynomial.one()
    for e in data.entries:
        result = result * Polynomial.linear(1, e.r) ** e.dim
    return result
