"""Exact polynomial arithmetic, root counting by bisection, Descartes
positivity, and the linear solver."""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberjoin.exactalg import (
    Polynomial,
    SingularMatrixError,
    ZeroPolynomialError,
    _mobius_coefficients,
    count_roots_in_open_interval,
    solve_linear,
    strictly_positive_on,
)
from oracles import antiderivative, divide, power

rationals = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=20
)
polys = st.builds(
    Polynomial.from_coeffs, st.lists(rationals, min_size=0, max_size=9)
)


def test_construction_strips_leading_zeros():
    p = Polynomial.from_coeffs([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1


@given(
    st.lists(st.integers(min_value=-50, max_value=50), max_size=6),
    st.integers(min_value=-30, max_value=30).filter(bool),
)
def test_from_numerators_is_canonical(nums, den):
    assert Polynomial.from_numerators(nums, den) == Polynomial.from_coeffs(
        [Fraction(n, den) for n in nums]
    )


def test_zero_polynomial():
    z = Polynomial.from_coeffs([])
    assert z.is_zero
    assert z.coeffs == ()
    assert z(5) == 0


def test_arithmetic_smoke():
    p = Polynomial.from_coeffs([1, 1])  # 1 + z
    q = Polynomial.from_coeffs([-1, 1])  # -1 + z
    assert (p * q).coeffs == (Fraction(-1), Fraction(0), Fraction(1))
    assert (p + q).coeffs == (Fraction(0), Fraction(2))
    assert (p - p).is_zero
    assert (p * p * p).coeffs == (Fraction(1), Fraction(3), Fraction(3), Fraction(1))


def test_scalar_multiplication():
    p = Polynomial.from_coeffs([1, 2])
    assert (p * Fraction(1, 2)).coeffs == (Fraction(1, 2), Fraction(1))


@given(polys, polys, rationals)
def test_eval_is_ring_homomorphism(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)


@given(polys)
def test_derivative_of_antiderivative(p):
    assert antiderivative(p).derivative() == p


@given(polys, polys)
def test_divmod_reconstructs(p, q):
    if q.is_zero:
        with pytest.raises(ZeroDivisionError):
            divide(p, q)
        return
    quot, rem = divide(p, q)
    assert quot * q + rem == p
    assert rem.is_zero or rem.degree < q.degree


def test_gcd_of_common_factor():
    common = Polynomial.from_coeffs([1, 1])
    p = common * Polynomial.from_coeffs([2, 3])
    q = common * Polynomial.from_coeffs([-5, 1, 1])
    g = p.gcd(q)
    # monic normalization
    assert g == Polynomial.from_coeffs([1, 1])


def test_squarefree_part_drops_multiplicity():
    p = power(Polynomial.from_coeffs([-1, 1]), 3) * Polynomial.from_coeffs([2, 1])
    sf = p.squarefree_part()
    assert sf.degree == 2
    assert sf(1) == 0 and sf(-2) == 0


def test_root_count_simple_cubic():
    # z(z-1)(z+1) has all three roots in (-2, 2)
    p = Polynomial.from_coeffs([0, -1, 0, 1])
    assert count_roots_in_open_interval(p, -2, 2) == 3
    assert count_roots_in_open_interval(p, 0, 2) == 1
    # open interval: endpoint roots do not count
    assert count_roots_in_open_interval(p, -1, 1) == 1
    assert count_roots_in_open_interval(p, 0, 1) == 0


def test_root_count_ignores_multiplicity():
    p = power(Polynomial.from_coeffs([-1, 1]), 4)
    assert count_roots_in_open_interval(p, 0, 2) == 1


def test_root_count_rejects_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        count_roots_in_open_interval(Polynomial.from_coeffs([]), -1, 1)


def test_strictly_positive_allows_boundary_zeros():
    # (1 - z^2) vanishes at both endpoints but is positive inside
    p = Polynomial.from_coeffs([1, 0, -1])
    assert strictly_positive_on(p, -1, 1)
    assert not strictly_positive_on(-p, -1, 1)


def test_strictly_positive_detects_interior_root():
    p = Polynomial.from_coeffs([0, 1])
    assert not strictly_positive_on(p, -1, 1)
    assert strictly_positive_on(p, Fraction(1, 100), 1)


def _sign_pattern(p, lo, hi):
    signs = {c > 0 for c in _mobius_coefficients(p, Fraction(lo), Fraction(hi)) if c}
    if signs == {True}:
        return "positive"
    if signs == {False}:
        return "negative"
    return "mixed"


@pytest.mark.parametrize(
    "coeffs, pattern, expected",
    [
        ([1, 0, -1], "positive", True),  # 1 - z^2
        ([-1, 0, 1], "negative", False),  # z^2 - 1
        ([Fraction(13, 50), -1, 1], "mixed", True),  # no real root, bisection decides
        ([Fraction(-1, 4), 0, 1], "mixed", False),  # roots at +-1/2
        ([1, -2, 1], "positive", True),  # (1 - z)^2, double root at 1
    ],
)
def test_strictly_positive_branches(coeffs, pattern, expected):
    """One polynomial per branch: Descartes decides on one-signed
    coefficients after the Möbius map, bisection decides on mixed ones."""
    p = Polynomial.from_coeffs(coeffs)
    assert _sign_pattern(p, -1, 1) == pattern
    assert strictly_positive_on(p, -1, 1) is expected


@given(polys, rationals, st.fractions(min_value=Fraction(1, 20), max_value=Fraction(5)))
@settings(max_examples=60)
def test_mobius_coefficients_are_a_positive_multiple(p, lo, width):
    """q(t) = (1+t)^n p((lo + hi t)/(1+t)) up to a positive constant."""
    if p.is_zero:
        return
    hi = lo + width
    mapped = Polynomial.from_coeffs(_mobius_coefficients(p, lo, hi))
    expected = Polynomial.from_coeffs([])
    for k, c in enumerate(p.coeffs):
        expected = expected + c * power(Polynomial.from_coeffs([lo, hi]), k) * power(
            Polynomial.from_coeffs([1, 1]), p.degree - k
        )
    ratio = mapped.coeffs[-1] / expected.coeffs[-1]
    assert ratio > 0
    assert mapped == expected * ratio


@given(polys, st.integers(min_value=0, max_value=999))
@settings(max_examples=60)
def test_strictly_positive_spot_check(p, k):
    if p.is_zero:
        return
    if not strictly_positive_on(p, -1, 1):
        return
    x = Fraction(2 * k + 1, 1000) - 1  # inside (-1, 1)
    assert p(x) > 0


def test_solve_linear_2x2():
    solution = solve_linear([[2, 1], [1, -1]], [5, 1])
    assert solution == [Fraction(2), Fraction(1)]


def test_solve_linear_needs_pivoting():
    solution = solve_linear([[0, 1], [1, 0]], [3, 4])
    assert solution == [Fraction(4), Fraction(3)]


def test_solve_linear_singular():
    with pytest.raises(SingularMatrixError):
        solve_linear([[1, 2], [2, 4]], [1, 2])


@given(
    st.lists(
        st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3
    ),
    st.lists(rationals, min_size=3, max_size=3),
)
@settings(max_examples=60)
def test_solve_linear_solves_or_raises(matrix, rhs):
    try:
        x = solve_linear(matrix, rhs)
    except SingularMatrixError:
        return
    for row, b in zip(matrix, rhs):
        assert sum(Fraction(a) * v for a, v in zip(row, x)) == Fraction(b)


def test_booleans_are_refused():
    """True and False are not read as 1 and 0."""
    with pytest.raises(TypeError):
        Polynomial.from_coeffs([True, False, True])
    with pytest.raises(TypeError):
        solve_linear([[True]], [True])


# --- the integer-numerator layout against a Fraction reference ----------------


@dataclass(frozen=True)
class FractionPolynomial:
    """The earlier layout, kept as the reference: a tuple of Fraction
    coefficients in ascending degree with no trailing zero, and plain
    Fraction arithmetic throughout."""

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

    def __pow__(self, exponent):
        result = FractionPolynomial((Fraction(1),))
        for _ in range(exponent):
            result = result * self
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

    def divmod(self, divisor):
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


def gaussian_solve(matrix, rhs):
    """Reference solver: Gaussian elimination over Fractions with the
    same row pivoting (the first nonzero entry of the column)."""
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


coefficient_lists = st.lists(rationals, min_size=0, max_size=7)


def assert_canonical(p):
    assert p.den > 0
    assert gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert p.coeffs == tuple(Fraction(n, p.den) for n in p.nums)


def assert_agrees(p, reference):
    assert_canonical(p)
    assert p.coeffs == reference.coeffs


@given(coefficient_lists, coefficient_lists, rationals)
@settings(max_examples=150)
def test_layout_matches_fraction_reference(a, b, x):
    p, q = Polynomial.from_coeffs(a), Polynomial.from_coeffs(b)
    rp, rq = FractionPolynomial.from_coeffs(a), FractionPolynomial.from_coeffs(b)
    assert_agrees(p, rp)
    assert_agrees(p + q, rp + rq)
    assert_agrees(p - q, rp - rq)
    assert_agrees(-p, -rp)
    assert_agrees(p * q, rp * rq)
    assert_agrees(p * x, rp * x)
    assert_agrees(x * p, rp * x)
    assert_agrees(p * 3, rp * 3)
    assert_agrees(p.derivative(), rp.derivative())
    assert p(x) == rp(x) and p(-3) == rp(Fraction(-3))
    assert_agrees(p.gcd(q), rp.gcd(rq))
    if not p.is_zero:
        assert_agrees(p.squarefree_part(), rp.squarefree_part())


factors = st.lists(rationals, min_size=1, max_size=3)


@given(coefficient_lists, factors, st.integers(2, 4))
@settings(max_examples=100)
def test_repeated_factors_match_fraction_reference(a, factor, exponent):
    """gcd and square-free part where they have work to do: a monic
    factor raised to a power of at least 2."""
    p = Polynomial.from_coeffs(a) * power(Polynomial.from_coeffs(factor + [1]), exponent)
    rp = FractionPolynomial.from_coeffs(a) * (
        FractionPolynomial.from_coeffs(factor + [1]) ** exponent
    )
    if p.is_zero:
        return
    assert_agrees(p.gcd(p.derivative()), rp.gcd(rp.derivative()))
    assert_agrees(p.squarefree_part(), rp.squarefree_part())


@given(coefficient_lists, rationals)
def test_equal_polynomials_compare_and_hash_equal(a, x):
    """One polynomial built three ways has one canonical form."""
    direct = Polynomial.from_coeffs(a)
    # Over twice the least common denominator, which the form reduces.
    den = 2 * lcm(1, *(c.denominator for c in a))
    scaled = Polynomial.from_numerators([int(c * den) for c in a], den)
    line = Polynomial.from_coeffs([x, 1])
    shifted = (direct + line) - line
    assert direct == scaled == shifted
    assert hash(direct) == hash(scaled) == hash(shifted)
    zero = Polynomial.from_coeffs([])
    assert (direct - shifted) == zero
    assert (zero.nums, zero.den) == ((), 1)


@st.composite
def linear_systems(draw):
    """A 1x1 to 4x4 system; about half the time the last row is a
    rational combination of the others, so the matrix is singular."""
    n = draw(st.integers(1, 4))
    rows = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        weights = draw(st.lists(rationals, min_size=n - 1, max_size=n - 1))
        rows[-1] = [
            sum((w * row[c] for w, row in zip(weights, rows)), Fraction(0))
            for c in range(n)
        ]
    rhs = draw(st.lists(rationals, min_size=n, max_size=n))
    return rows, rhs


@given(linear_systems())
@settings(max_examples=120)
def test_solve_linear_matches_gaussian_reference(system):
    matrix, rhs = system
    try:
        expected = gaussian_solve(matrix, rhs)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError, match="matrix is singular"):
            solve_linear(matrix, rhs)
        return
    assert solve_linear(matrix, rhs) == expected
