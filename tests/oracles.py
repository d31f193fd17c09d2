"""Closed forms the tests compare the package against.

Each is an independent derivation of a fact the package computes
another way: the two affine curvature equations of the two-factor CSC
problem and the solve built on them, the balanced closed form of its
root, the characteristic product of admissible data, the extremal
profile by two antiderivatives and a moment system, and root counts and
positivity on an interval by Sturm's theorem.  They compute with the
tests' one reference arithmetic: ``FractionPolynomial``, a polynomial
as a tuple of Fraction coefficients, and ``gaussian_solve``, Gaussian
elimination over Fractions.  A reference converts its result
to the library's layout once, at its end, with
``Polynomial.from_coeffs(fp.coeffs)``.
"""

from dataclasses import dataclass
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
from fiberjoin.exactalg import Polynomial, SingularMatrixError
from fiberjoin.model import SpecError


@dataclass(frozen=True)
class FractionPolynomial:
    """The reference polynomial: a tuple of Fraction coefficients in
    ascending degree with no trailing zero, and plain Fraction
    arithmetic throughout.  It shares no code with
    ``exactalg.Polynomial``, whose integer-numerator layout the tests
    compare against it through ``coeffs``."""

    coeffs: tuple

    @staticmethod
    def from_coeffs(coeffs):
        items = [Fraction(c) for c in coeffs]
        while items and items[-1] == 0:
            items.pop()
        return FractionPolynomial(tuple(items))

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPolynomial.from_coeffs(out)

    def __neg__(self):
        return FractionPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FractionPolynomial):
            if self.is_zero or other.is_zero:
                return FractionPolynomial(())
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return FractionPolynomial.from_coeffs(out)
        return FractionPolynomial.from_coeffs(c * Fraction(other) for c in self.coeffs)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        """By repeated squaring."""
        result, square = FractionPolynomial((Fraction(1),)), self
        while exponent:
            if exponent & 1:
                result = result * square
            exponent >>= 1
            if exponent:
                square = square * square
        return result

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return FractionPolynomial.from_coeffs(
            i * c for i, c in enumerate(self.coeffs) if i > 0
        )

    def antiderivative(self):
        """The antiderivative with zero constant term."""
        return FractionPolynomial.from_coeffs(
            [0] + [c / k for k, c in enumerate(self.coeffs, 1)]
        )

    def divmod(self, divisor):
        """Quotient and remainder by a nonzero divisor, by long division."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(len(rem) - len(divisor.coeffs) + 1, 0)
        dlead = divisor.coeffs[-1]
        dn = len(divisor.coeffs)
        for k in range(len(rem) - dn, -1, -1):
            factor = rem[k + dn - 1] / dlead
            quot[k] = factor
            for j, c in enumerate(divisor.coeffs):
                rem[k + j] -= factor * c
        return FractionPolynomial.from_coeffs(quot), FractionPolynomial.from_coeffs(rem)

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.divmod(b)[1]
        if a.is_zero:
            return a
        return a * (1 / a.coeffs[-1])

    def squarefree_part(self):
        g = self.gcd(self.derivative())
        if len(g.coeffs) <= 1:
            return self * (1 / self.coeffs[-1])
        q, _ = self.divmod(g)
        return q * (1 / q.coeffs[-1])


ONE = FractionPolynomial.from_coeffs([1])


def sturm_sequence(poly):
    """p, p' and the negated remainders of Euclid's algorithm on them,
    up to the last nonzero one."""
    sequence = [poly, poly.derivative()]
    while not sequence[-1].is_zero:
        sequence.append(-sequence[-2].divmod(sequence[-1])[1])
    return sequence[:-1]


def sign_changes(sequence, x):
    """Sign changes in the values of the sequence at x, zeros dropped."""
    signs = [value > 0 for value in (p(x) for p in sequence) if value != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sturm_root_count(poly, lo, hi):
    """Distinct real roots of a nonzero polynomial in the open interval
    (lo, hi).  By Sturm's theorem on the square-free part f, the count
    in (lo, hi] is V(lo) - V(hi), V the sign changes of f's Sturm
    sequence; a root at hi is then taken off."""
    squarefree = poly.squarefree_part()
    sequence = sturm_sequence(squarefree)
    count = sign_changes(sequence, lo) - sign_changes(sequence, hi)
    return count - (squarefree(hi) == 0)


def sturm_positive_on(poly, lo, hi):
    """Whether a nonzero polynomial is positive at every point of the
    open interval (lo, hi): no root there, and positive at the midpoint."""
    return sturm_root_count(poly, lo, hi) == 0 and poly((lo + hi) / 2) > 0


def gaussian_solve(matrix, rhs):
    """Reference solver: Gaussian elimination over Fractions with row
    pivoting (the first nonzero entry of the column)."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    b = [Fraction(x) for x in rhs]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            b[r] -= factor * b[col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    x = [Fraction(0)] * n
    for row in range(n - 1, -1, -1):
        acc = b[row] - sum(a[row][c] * x[c] for c in range(row + 1, n))
        x[row] = acc / a[row][row]
    return x


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


def two_factor_entries(data: AdmissibleData):
    """The entries of two retained factors on a trivial split: exactly
    two entries, neither a fiber block at r = +-1."""
    entries = data.entries
    if len(entries) != 2 or any(abs(e.r) == 1 for e in entries):
        raise SpecError("two retained factors and a trivial split required")
    return entries


def reference_solve_csc(data: AdmissibleData) -> CscResult:
    """Two-factor CSC from the two curvature equations, each affine in
    s: a common root plus positivity of the certificate quadratic on
    (-1, 1).  Divides by r1 and r2, so an entry with r = 0 raises
    ZeroDivisionError."""
    (e1, e2) = two_factor_entries(data)
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
    line = FractionPolynomial.from_coeffs
    quadratic = line([1, r1]) * line([1, r2]) + (1 - s / 2) * r1 * r2 * line([1, 0, -1])
    certificate = Polynomial.from_coeffs(quadratic.coeffs)
    if sturm_positive_on(quadratic, -1, 1):
        return CscResult(s=s, certificate=certificate, verdict=CSC)
    return CscResult(s=s, certificate=certificate, verdict=POSITIVITY_FAILS)


def csc_ansatz(data: AdmissibleData) -> Fraction:
    """Closed form for the CSC value under the balanced hypothesis
    s1 + s2 = 0, r1 + r2 = 0."""
    (e1, e2) = two_factor_entries(data)
    if e1.s + e2.s != 0 or e1.r + e2.r != 0:
        raise AnsatzError("balanced hypothesis fails")
    s1, r1 = e1.s, e1.r
    return (1 - r1 * r1 + 2 * s1 * r1) / (3 - r1 * r1)


def reduced_characteristic_product(data: AdmissibleData) -> FractionPolynomial:
    """R, the product of (1 + r_a z)^(dim_a - 1) over all entries: the
    profile's second derivative is R times the source."""
    result = ONE
    for e in data.entries:
        result = result * FractionPolynomial.from_coeffs([1, e.r]) ** (e.dim - 1)
    return result


def characteristic_product(data: AdmissibleData) -> Polynomial:
    """The product of (1 + r_a z)^(dim_a) over all entries; it weights
    the boundary conditions and divides the profile's second derivative."""
    result = ONE
    for e in data.entries:
        result = result * FractionPolynomial.from_coeffs([1, e.r]) ** e.dim
    return Polynomial.from_coeffs(result.coeffs)


def _moment(poly: FractionPolynomial, k: int) -> Fraction:
    """The integral of z^k * poly(z) over [-1, 1]: the sum of
    2 * c_j / (j + k + 1) over even j + k."""
    return sum(
        (2 * c / (j + k + 1) for j, c in enumerate(poly.coeffs) if (j + k) % 2 == 0),
        Fraction(0),
    )


def _antiderivative_from(poly: FractionPolynomial, start) -> FractionPolynomial:
    """The antiderivative of poly that takes the value ``start`` at -1."""
    anti = poly.antiderivative()
    return anti + FractionPolynomial.from_coeffs([start - anti(-1)])


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

    linears = [FractionPolynomial.from_coeffs([1, e.r]) for e in entries]
    reduced = reduced_characteristic_product(data)
    q = ONE
    for linear in linears:
        q = q * linear
    char = reduced * q
    interpolant = FractionPolynomial(())
    for a, e in enumerate(entries):
        term = FractionPolynomial.from_coeffs([2 * e.dim * e.s * e.r])
        for b, linear in enumerate(linears):
            if b != a:
                term = term * linear
        interpolant = interpolant + term

    p_plus, p_minus = char(1), char(-1)
    fixed = reduced * interpolant
    m0, m1, m2 = (_moment(char, k) for k in range(3))
    rhs = [
        -2 * (p_plus + p_minus) - _moment(fixed, 0),
        2 * (p_minus - p_plus) - _moment(fixed, 1),
    ]
    try:
        alpha, beta = gaussian_solve([[m0, m1], [m1, m2]], rhs)
    except SingularMatrixError as exc:
        raise SingularSystemError(str(exc)) from exc

    source = interpolant + FractionPolynomial.from_coeffs([alpha, beta]) * q
    # F' and F are the antiderivatives of R * P fixed by F'(-1) = 2 p(-1)
    # and F(-1) = 0; the moment conditions give the values at +1.
    first = _antiderivative_from(reduced * source, 2 * p_minus)
    profile = _antiderivative_from(first, 0)

    # F(+-1) = 0 and F'(+-1) = -+2 p(+-1).
    assert profile(1) == 0 and profile(-1) == 0
    assert first(1) == -2 * p_plus and first(-1) == 2 * p_minus
    u = next((e.dim for e in entries if e.r == 1), 0)
    v = next((e.dim for e in entries if e.r == -1), 0)
    factor, rest = profile.divmod(
        FractionPolynomial.from_coeffs([1, 1]) ** (u + 1)
        * FractionPolynomial.from_coeffs([1, -1]) ** (v + 1)
    )
    assert rest.is_zero
    positive = (not profile.is_zero) and sturm_positive_on(profile, -1, 1)
    profile, source, char, factor = (
        Polynomial.from_coeffs(p.coeffs) for p in (profile, source, char, factor)
    )
    return ExtremalProfile(
        profile=profile,
        source=source,
        char_product=char,
        positive=positive,
        alpha=alpha,
        beta=beta,
        factor=factor,
    )
