"""Closed forms the tests compare the package against.

Each is an independent derivation of a fact the package computes
another way: the two affine curvature equations of the two-factor CSC
problem and the solve built on them, the balanced closed form of its
root, the characteristic product of admissible data, and the extremal
profile by two antiderivatives and a moment system; and the plain
power, antiderivative and quotient of polynomials that route needs.
"""

import math
from fractions import Fraction

from fiberjoin.admissible import (
    CSC,
    INCONSISTENT,
    POSITIVITY_FAILS,
    AdmissibleData,
    CscResult,
    ExtremalProfile,
    RepeatedNodeError,
    SingularSystemError,
)
from fiberjoin.exactalg import (
    Polynomial,
    SingularMatrixError,
    solve_linear,
    strictly_positive_on,
)
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
        Polynomial.from_coeffs([1, r1]) * Polynomial.from_coeffs([1, r2])
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
    result = Polynomial.from_coeffs([1])
    for e in data.entries:
        result = result * power(Polynomial.from_coeffs([1, e.r]), e.dim)
    return result


def power(poly: Polynomial, exponent: int) -> Polynomial:
    """poly to a nonnegative integer power, by repeated products."""
    result = Polynomial.from_coeffs([1])
    for _ in range(exponent):
        result = result * poly
    return result


def antiderivative(poly: Polynomial) -> Polynomial:
    """The antiderivative of poly with zero constant term."""
    return Polynomial.from_coeffs(
        [0] + [c / k for k, c in enumerate(poly.coeffs, 1)]
    )


def divide(poly: Polynomial, divisor: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Quotient and remainder of poly by a nonzero divisor, by long
    division on the Fraction coefficients."""
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    *low, lead = divisor.coeffs
    rem = list(poly.coeffs)
    quot = [Fraction(0)] * max(len(rem) - len(low), 0)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = rem.pop() / lead
        for j, y in enumerate(low, k):
            rem[j] -= c * y
    return Polynomial.from_coeffs(quot), Polynomial.from_coeffs(rem)


def _moment(poly: Polynomial, k: int) -> Fraction:
    """The integral of z^k * poly(z) over [-1, 1]: the sum of
    2 * nums[j] / (j + k + 1) over even j + k, taken over one common
    denominator."""
    terms = [(n, j + k + 1) for j, n in enumerate(poly.nums) if (j + k) % 2 == 0]
    scale = math.lcm(*(d for _, d in terms))
    return Fraction(2 * sum(n * (scale // d) for n, d in terms), scale * poly.den)


def _ends(poly: Polynomial) -> tuple[int, int]:
    """poly(1) and poly(-1) times poly.den: the sums of the even and odd
    numerators, added and subtracted."""
    even, odd = sum(poly.nums[::2]), sum(poly.nums[1::2])
    return even + odd, even - odd


def _antiderivative_from(poly: Polynomial, start) -> Polynomial:
    """The antiderivative of poly that takes the value ``start`` at -1."""
    anti = antiderivative(poly)
    return anti + Polynomial.from_coeffs([start - anti(-1)])


def reference_extremal_profile(data: AdmissibleData) -> ExtremalProfile:
    """The extremal profile by the moment route: two antiderivatives of
    R * P fixed at -1, with alpha and beta from the 2x2 moment system.
    The factor is F divided by (1 + z)^(u + 1) (1 - z)^(v + 1), with u
    and v the dims at r = 1 and r = -1; the division is exact.

    F is determined by F'' = R * P with R the reduced characteristic
    product, the product of (1 + r_a z)^(dim_a - 1), and the boundary
    conditions F(+-1) = 0, F'(+-1) = -+2 p(+-1) with p the
    characteristic product.  The source P has the closed form

        P = L + (alpha + beta*z) * q,   q = prod_a (1 + r_a z),
        L = 2 * sum_a dim_a * s_a * r_a * prod_{b != a} (1 + r_b z),

    so P(-1/r_a) = L(-1/r_a) is the value the data prescribes there,
    and R*q = p.  F(+-1) = 0 fix the two integration constants and the
    derivative conditions become the moment conditions

        int_{-1}^{1} R*P = -2 (p(1) + p(-1)),
        int_{-1}^{1} z*R*P = 2 (p(-1) - p(1)),

    a symmetric 2x2 system in alpha and beta.  By Cauchy-Schwarz its
    determinant is positive whenever p keeps one sign on (-1, 1),
    which holds when every |r| <= 1: then no root of p lies inside.
    Data from ``admissible_data`` has |r| < 1 on base factors and
    r = +-1 on fiber blocks, so only synthetic data with some |r| > 1
    can raise SingularSystemError.  Repeated r values raise
    RepeatedNodeError.
    """
    entries = data.entries
    m = len(entries)
    if m == 0:
        raise SpecError("empty admissible data")
    if len({e.r for e in entries}) != m:
        raise RepeatedNodeError("repeated class parameters")

    linears = [Polynomial.from_coeffs([1, e.r]) for e in entries]
    reduced = Polynomial.from_coeffs([1])
    q = Polynomial.from_coeffs([1])
    for e, linear in zip(entries, linears):
        reduced = reduced * power(linear, e.dim - 1)
        q = q * linear
    char = reduced * q
    interpolant = Polynomial.from_coeffs([])
    for a, e in enumerate(entries):
        term = Polynomial.from_coeffs([2 * e.dim * e.s * e.r])
        for b, linear in enumerate(linears):
            if b != a:
                term = term * linear
        interpolant = interpolant + term

    # p(1) and p(-1) are these numerators over char.den.
    p_plus, p_minus = _ends(char)
    fixed = reduced * interpolant
    m0, m1, m2 = (_moment(char, k) for k in range(3))
    rhs = [
        Fraction(-2 * (p_plus + p_minus), char.den) - _moment(fixed, 0),
        Fraction(2 * (p_minus - p_plus), char.den) - _moment(fixed, 1),
    ]
    try:
        alpha, beta = solve_linear([[m0, m1], [m1, m2]], rhs)
    except SingularMatrixError as exc:
        raise SingularSystemError(str(exc)) from exc

    source = interpolant + Polynomial.from_coeffs([alpha, beta]) * q
    # F' and F are the antiderivatives of R * P fixed by F'(-1) = 2 p(-1)
    # and F(-1) = 0; the moment conditions give the values at +1.
    first = _antiderivative_from(reduced * source, Fraction(2 * p_minus, char.den))
    profile = _antiderivative_from(first, 0)

    # F(+-1) = 0 and F'(+-1) = -+2 p(+-1), compared on numerators.
    assert _ends(profile) == (0, 0)
    first_plus, first_minus = _ends(first)
    assert first_plus * char.den == -2 * p_plus * first.den
    assert first_minus * char.den == 2 * p_minus * first.den
    positive = (not profile.is_zero) and strictly_positive_on(profile, -1, 1)
    u = next((e.dim for e in entries if e.r == 1), 0)
    v = next((e.dim for e in entries if e.r == -1), 0)
    factor, rest = divide(
        profile,
        power(Polynomial.from_coeffs([1, 1]), u + 1)
        * power(Polynomial.from_coeffs([1, -1]), v + 1),
    )
    assert rest.is_zero
    return ExtremalProfile(
        profile=profile,
        source=source,
        char_product=char,
        positive=positive,
        alpha=alpha,
        beta=beta,
        factor=factor,
    )
