"""Exact rational polynomials, positivity and linear solves.

Everything downstream (characteristic classes, curvature profiles,
positivity certificates) is decided by exact computation over the
rationals.  A dense univariate polynomial is stored as integer
numerators over one positive common denominator, the layout of
FLINT's fmpq_poly (von zur Gathen and Gerhard, *Modern Computer
Algebra*, ch. 6), with only what the solve and the root counter run,
on Python integers, and its one constructor keeps the form canonical.
Descartes' rule of signs after a Möbius map decides positivity on an
open interval and, by bisection, counts the roots there; gcds and
square-free parts come from a primitive pseudo-remainder sequence;
square linear systems are solved by fraction-free (Bareiss)
elimination.  No floating point enters any decision.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


class ZeroPolynomialError(ValueError):
    """Raised when an operation is undefined for the zero polynomial."""


class SingularMatrixError(ValueError):
    """Raised when a linear system has no unique solution."""


class Record:
    """A frozen value record, built without generated code: the
    standard library's record decorator writes out and compiles six
    methods per class at every import, about 1 ms a class.

    A subclass names its fields once, as the parameters of its
    ``__init__``, which checks them and stores them, and their tuple as
    ``_values``, with ``vars(self).update(...)``.  A record equals one
    of its own class with equal fields, hashes as the tuple of its
    fields, prints as ``Name(field=value, ...)`` and refuses assignment
    and deletion with ``AttributeError``.  ``==`` and ``hash`` read
    ``_values``: fetching the fields by name from here would cost up
    to twice the generated methods' time.  Instances keep a
    ``__dict__``, so ``functools.cached_property`` works on them.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        code = type(self).__init__.__code__
        fields = code.co_varnames[1 : code.co_argcount]
        text = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{type(self).__qualname__}({text})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _as_fraction(value) -> Fraction:
    """An exact scalar (int or Fraction) as a Fraction.

    Booleans are refused rather than read as 0 and 1."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def _ratio(value) -> tuple[int, int]:
    """Numerator and positive denominator of an exact scalar."""
    if type(value) is int:
        return value, 1
    if not isinstance(value, Fraction):
        value = _as_fraction(value)
    return value.numerator, value.denominator


def _over_common_denominator(values: Iterable) -> tuple[list[int], int]:
    """Integers n_i and the least d > 0 with values[i] == n_i / d."""
    pairs = [_ratio(v) for v in values]
    den = lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


class Polynomial(Record):
    """Dense univariate polynomial over the rationals, stored as integer
    numerators over one denominator: the coefficient of z^k is
    nums[k] / den.

    ``Polynomial(nums, den)`` takes integer numerators over a nonzero
    integer denominator, booleans refused, and keeps the canonical form,
    so == and hash compare structure: den > 0, gcd(den, *nums) == 1 and
    no trailing zero numerator; the zero polynomial is ((), 1) and has
    degree -1.  Then den is the least common denominator of the
    coefficients.  ``from_coeffs`` and ``coeffs`` are the one conversion
    to and from Fraction coefficients, through which callers and tests
    build and read values.  There is no ring arithmetic.
    """

    def __init__(self, nums: tuple[int, ...], den: int = 1):
        # A canonical tuple is kept as given; copies only where it changes.
        nums = tuple(nums)
        for n in nums:
            if type(n) is not int:
                raise TypeError("polynomial numerators must be integers")
        if type(den) is not int:
            raise TypeError("polynomial denominator must be an integer")
        if not den:
            raise ZeroDivisionError("polynomial denominator is zero")
        while nums and not nums[-1]:
            nums = nums[:-1]
        if not nums:
            den = 1
        elif den != 1:
            if den < 0:
                nums, den = tuple([-n for n in nums]), -den
            g = gcd(den, *nums)
            if g != 1:
                nums, den = tuple([n // g for n in nums]), den // g
        vars(self).update(nums=nums, den=den, _values=(nums, den))

    @staticmethod
    def from_coeffs(coeffs: Iterable) -> "Polynomial":
        """The polynomial with these coefficients, in ascending degree."""
        return Polynomial(*_over_common_denominator(coeffs))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients in ascending degree, as Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __call__(self, x) -> Fraction:
        """The value at x, by Horner's rule on integers: with x = p/q,
        q^n * den * poly(x) = sum nums[k] * p^k * q^(n-k)."""
        nums = self.nums
        if not nums:
            return Fraction(0)
        p, q = _ratio(x)
        acc = nums[-1]
        scale = 1
        for c in reversed(nums[:-1]):
            scale *= q
            acc = acc * p + c * scale
        return Fraction(acc, self.den * scale)

    def derivative(self) -> "Polynomial":
        return Polynomial([i * n for i, n in enumerate(self.nums)][1:], self.den)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor.

        Euclid's algorithm as a primitive pseudo-remainder sequence on
        the numerators: each remainder is divided by its content, so the
        integers stay small, and only the last is made monic."""
        a, b = _primitive(self.nums), _primitive(other.nums)
        while b:
            _, r, _ = _pseudo_divmod(a, b)
            a, b = b, _primitive(r)
        return _monic(a)

    def squarefree_part(self) -> "Polynomial":
        """The product of the distinct irreducible factors, made monic."""
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no square-free part")
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return _monic(self.nums)
        quot, rem, _ = _pseudo_divmod(self.nums, g.nums)
        assert not rem
        return _monic(quot)


def _primitive(nums: Sequence[int]) -> list[int]:
    """The numerators divided by their content, the gcd of them all."""
    g = gcd(*nums)
    return [n // g for n in nums] if g > 1 else list(nums)


def _monic(nums: Sequence[int]) -> Polynomial:
    """The monic polynomial proportional to nums (zero for no nums)."""
    return Polynomial(nums, nums[-1] if nums else 1)


def _pseudo_divmod(
    a: Sequence[int], b: Sequence[int]
) -> tuple[list[int], list[int], int]:
    """Pseudo-division of integer coefficient lists, b without trailing
    zero: q, r and m, a power of the leading coefficient of b, with
    m * a == q * b + r and deg r < deg b; r has no trailing zero."""
    lead, n = b[-1], len(b)
    rem = list(a)
    quot = [0] * max(len(rem) - n + 1, 0)
    m = 1
    for k in range(len(quot) - 1, -1, -1):
        c = rem.pop()
        if c:
            # m*a == q*b + r  becomes  lead*m*a == (lead*q + c*z^k)*b
            # + (lead*r - c*z^k*b), which clears the top of r.
            rem = [lead * x for x in rem]
            quot = [lead * x for x in quot]
            quot[k] = c
            for j, y in enumerate(b[:-1], k):
                rem[j] -= c * y
            m *= lead
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem, m


def _taylor_shift(coeffs: list[int], a: int) -> list[int]:
    """Ascending coefficients of p(y + a) from those of p, in place:
    repeated synthetic division, integer additions and products by a."""
    n = len(coeffs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            coeffs[j] += a * coeffs[j + 1]
    return coeffs


def _mobius_coefficients(poly: Polynomial, lo: Fraction, hi: Fraction) -> list[int]:
    """Integer coefficients of a positive multiple of
    q(t) = (1 + t)^n * poly((lo + hi*t) / (1 + t)), n = deg poly.

    The map t -> (lo + hi*t) / (1 + t) sends (0, oo) onto (lo, hi), so q
    has the sign pattern of ``poly`` on the interval.  With lo = a/b and
    hi - lo = e/f, the numerators of ``poly`` (its coefficients times the
    positive den) give (b*f)^n * poly(lo + (hi - lo)*x) by a Taylor shift
    by a and a rescaling; reversing the coefficients, a Taylor shift by
    1 and reversing again give (b*f)^n * den * q (Collins and Akritas,
    1976).  The shifts take only integer additions and products by a
    and 1, no product of two large coefficients.
    """
    nums = poly.nums
    n = len(nums) - 1
    a, b = lo.numerator, lo.denominator
    # hi - lo = e/f in lowest terms, on integers.
    e, f = hi.numerator * b - a * hi.denominator, b * hi.denominator
    g = gcd(e, f)
    e, f = e // g, f // g
    # b^n * poly((y + a) / b), then y = b*(hi - lo)*x with f^n cleared.
    shifted = _taylor_shift([c * b ** (n - k) for k, c in enumerate(nums)], a)
    scaled = [c * (b * e) ** k * f ** (n - k) for k, c in enumerate(shifted)]
    return _taylor_shift(scaled[::-1], 1)[::-1]


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

    Fraction-free Gaussian elimination (Bareiss, 1968) with row
    pivoting: each row, right-hand side included, is scaled to
    integers, and each step divides exactly by the previous pivot, so
    every entry stays an integer minor of the scaled system.  The last
    pivot is its determinant, det, so back substitution yields the
    integers det * x.  Raises SingularMatrixError when no unique
    solution exists.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("system is not square")
    rows = [_over_common_denominator([*row, b])[0] for row, b in zip(matrix, rhs)]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        lead = top[col]
        for row in rows[col + 1:]:
            factor = row[col]
            row[col] = 0
            for c in range(col + 1, n + 1):
                row[c] = (lead * row[c] - factor * top[c]) // det
        det = lead
    scaled = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = det * row[n] - sum(row[c] * scaled[c] for c in range(i + 1, n))
        scaled[i] = acc // row[i]
    return [Fraction(v, det) for v in scaled]
