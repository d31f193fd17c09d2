"""Exact rational and polynomial arithmetic.

Everything downstream (characteristic classes, curvature profiles,
positivity certificates) is decided by exact computation over the
rationals: dense univariate polynomials with Fraction coefficients,
Descartes' rule of signs after a Möbius map, which decides positivity
on an open interval and, by bisection, counts the roots there, and
Gaussian elimination without pivot growth concerns.  No floating point
enters any decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

# Exact scalars are plain stdlib Fractions: arbitrary-precision,
# always reduced, positive denominator.
Rational = Fraction


class ZeroPolynomialError(ValueError):
    """Raised when an operation is undefined for the zero polynomial."""


class SingularMatrixError(ValueError):
    """Raised when a linear system has no unique solution."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial over the rationals.

    Coefficients are stored in ascending degree with no trailing
    zeros; the zero polynomial has an empty coefficient tuple and
    degree -1.
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(coeffs: Iterable) -> "Polynomial":
        items = [_as_fraction(c) for c in coeffs]
        while items and items[-1] == 0:
            items.pop()
        return Polynomial(tuple(items))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial.from_coeffs([1])

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial.from_coeffs([c])

    @staticmethod
    def linear(constant, slope) -> "Polynomial":
        """The polynomial constant + slope*z."""
        return Polynomial.from_coeffs([constant, slope])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial.from_coeffs(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial.from_coeffs(out)
        scalar = _as_fraction(other)
        return Polynomial.from_coeffs(c * scalar for c in self.coeffs)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = Polynomial.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x) -> Fraction:
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial.from_coeffs(
            i * c for i, c in enumerate(self.coeffs) if i > 0
        )

    def antiderivative(self) -> "Polynomial":
        """Antiderivative with zero constant term."""
        out = [Fraction(0)]
        out.extend(c / (i + 1) for i, c in enumerate(self.coeffs))
        return Polynomial.from_coeffs(out)

    def divmod(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(len(rem) - len(divisor.coeffs) + 1, 0)
        dlead = divisor.coeffs[-1]
        dn = len(divisor.coeffs)
        for k in range(len(rem) - dn, -1, -1):
            factor = rem[k + dn - 1] / dlead
            quot[k] = factor
            if factor == 0:
                continue
            for j, c in enumerate(divisor.coeffs):
                rem[k + j] -= factor * c
        return Polynomial.from_coeffs(quot), Polynomial.from_coeffs(rem)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor (Euclid's algorithm)."""
        a, b = self, other
        while not b.is_zero:
            _, r = a.divmod(b)
            a, b = b, r
        if a.is_zero:
            return a
        return a * (1 / a.coeffs[-1])

    def squarefree_part(self) -> "Polynomial":
        """The product of the distinct irreducible factors, made monic."""
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no square-free part")
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self * (1 / self.coeffs[-1])
        q, r = self.divmod(g)
        assert r.is_zero
        return q * (1 / q.coeffs[-1])


def _times_linear(coeffs: list[int], a: int, b: int) -> list[int]:
    """Ascending integer coefficients of coeffs * (a + b*t)."""
    return [a * x + b * y for x, y in zip(coeffs + [0], [0] + coeffs)]


def _mobius_coefficients(poly: Polynomial, lo: Fraction, hi: Fraction) -> list[int]:
    """Integer coefficients of a positive multiple of
    q(t) = (1 + t)^n * poly((lo + hi*t) / (1 + t)), n = deg poly.

    The map t -> (lo + hi*t) / (1 + t) sends (0, oo) onto (lo, hi), so q
    has the sign pattern of ``poly`` on the interval.  With lo = a/b,
    hi = c/d and ``poly`` scaled to integers c_k, (b*d)^n * q is the sum
    of c_k * U^k * V^(n-k) for U = a*d + c*b*t and V = b*d*(1 + t),
    evaluated by a homogeneous Horner rule.
    """
    scale = lcm(*(c.denominator for c in poly.coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in poly.coeffs]
    u0 = lo.numerator * hi.denominator
    u1 = hi.numerator * lo.denominator
    v = lo.denominator * hi.denominator
    acc = [ints[-1]]
    v_power = [1]
    for c in reversed(ints[:-1]):
        v_power = _times_linear(v_power, v, v)
        acc = [x + c * y for x, y in zip(_times_linear(acc, u0, u1), v_power)]
    return acc


def count_roots_in_open_interval(poly: Polynomial, lo, hi) -> int:
    """Number of distinct real roots of ``poly`` in the open interval (lo, hi).

    Multiplicities are ignored: the count refers to roots of the
    square-free part.  Roots at the endpoints are excluded.

    Vincent-Collins-Akritas bisection (Collins and Akritas, 1976): the
    sign changes of a piece's Möbius coefficients exceed its roots by
    an even number, so 0 or 1 is exact and more splits the piece at its
    midpoint.  An endpoint root is a zero end coefficient, which the
    count skips.  For a square-free polynomial every small enough piece
    shows 0 or 1 (Alesina and Galuzzi, 1998), so the bisection ends.
    """
    if poly.is_zero:
        raise ZeroPolynomialError("root counting is undefined for the zero polynomial")
    lo = _as_fraction(lo)
    hi = _as_fraction(hi)
    if not lo < hi:
        raise ValueError("empty interval")
    reduced = poly.squarefree_part()
    count = 0
    pieces = [(lo, hi)]
    while pieces:
        a, b = pieces.pop()
        signs = [c > 0 for c in _mobius_coefficients(reduced, a, b) if c]
        changes = sum(x != y for x, y in zip(signs, signs[1:]))
        if changes <= 1:
            count += changes
        else:
            mid = (a + b) / 2
            count += reduced(mid) == 0
            pieces += [(a, mid), (mid, b)]
    return count


def strictly_positive_on(poly: Polynomial, lo, hi) -> bool:
    """Whether ``poly`` > 0 everywhere on the open interval (lo, hi).

    Zeros at the endpoints themselves are allowed; any root strictly
    inside the interval (even one of even multiplicity) refutes
    positivity.

    Descartes' rule of signs after a Möbius map decides first (Collins
    and Akritas, 1976): when every nonzero coefficient of the mapped
    polynomial has one sign, ``poly`` has that sign throughout the
    interval.  Mixed signs fall back to counting the roots by bisection.
    """
    if poly.is_zero:
        raise ZeroPolynomialError("positivity is undefined for the zero polynomial")
    lo = _as_fraction(lo)
    hi = _as_fraction(hi)
    if not lo < hi:
        raise ValueError("empty interval")
    mapped = _mobius_coefficients(poly, lo, hi)
    if all(c >= 0 for c in mapped):
        return True
    if all(c <= 0 for c in mapped):
        return False
    if count_roots_in_open_interval(poly, lo, hi) > 0:
        return False
    # Root-free on the interval, so one interior sign decides.
    return poly((lo + hi) / 2) > 0


def solve_linear(matrix: Sequence[Sequence], rhs: Sequence) -> list[Fraction]:
    """Solve a square rational linear system exactly.

    Plain Gaussian elimination with row pivoting; raises
    SingularMatrixError when no unique solution exists.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("system is not square")
    a = [[_as_fraction(entry) for entry in row] for row in matrix]
    b = [_as_fraction(entry) for entry in rhs]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor == 0:
                continue
            b[r] -= factor * b[col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    x = [Fraction(0)] * n
    for row in range(n - 1, -1, -1):
        acc = b[row]
        for c in range(row + 1, n):
            acc -= a[row][c] * x[c]
        x[row] = acc / a[row][row]
    return x
