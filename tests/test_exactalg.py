"""The polynomial layout against the Fraction reference, root counting
by bisection, Descartes positivity, and the linear solver."""

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
from oracles import FractionPolynomial, gaussian_solve

rationals = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=20
)
polys = st.builds(
    Polynomial.from_coeffs, st.lists(rationals, min_size=0, max_size=9)
)
fraction_polys = st.builds(
    FractionPolynomial.from_coeffs, st.lists(rationals, min_size=0, max_size=9)
)


def library(reference):
    """A reference polynomial in the library's layout."""
    return Polynomial.from_coeffs(reference.coeffs)


def test_construction_strips_leading_zeros():
    p = Polynomial.from_coeffs([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1


@given(
    st.lists(st.integers(min_value=-50, max_value=50), max_size=6),
    st.integers(min_value=-30, max_value=30).filter(bool),
)
def test_constructor_is_canonical(nums, den):
    """Any integer numerators over a nonzero integer denominator, in
    canonical form, with the reference's coefficients."""
    p = Polynomial(nums, den)
    assert_canonical(p)
    assert p.coeffs == FractionPolynomial.from_coeffs(
        [Fraction(n, den) for n in nums]
    ).coeffs


# Pairs not in canonical form are brought into it.
def test_negative_denominator_is_made_positive():
    minus_one = Polynomial((1,), -1)
    assert (minus_one.nums, minus_one.den) == ((-1,), 1)
    assert not strictly_positive_on(minus_one, -1, 1)


def test_zero_numerators_are_the_zero_polynomial():
    zero = Polynomial((0,), 1)
    assert zero.is_zero and (zero.nums, zero.den) == ((), 1)
    with pytest.raises(ZeroPolynomialError):
        strictly_positive_on(zero, -1, 1)


def test_trailing_zeros_and_common_factors_are_removed():
    one, expected = Polynomial((1, 0), 1), Polynomial.from_coeffs([1])
    assert one == expected and hash(one) == hash(expected)
    assert Polynomial((2, 4), 2) == Polynomial.from_coeffs([1, 2])


def test_list_numerators_hash():
    assert hash(Polynomial([1, 2], 1)) == hash(Polynomial.from_coeffs([1, 2]))


def test_zero_polynomial():
    z = Polynomial.from_coeffs([])
    assert z.is_zero
    assert z.coeffs == ()
    assert z(5) == 0


@given(fraction_polys)
def test_derivative_of_antiderivative(p):
    assert p.antiderivative().derivative() == p


@given(fraction_polys, fraction_polys)
def test_divmod_reconstructs(p, q):
    if q.is_zero:
        with pytest.raises(ZeroDivisionError):
            p.divmod(q)
        return
    quot, rem = p.divmod(q)
    assert quot * q + rem == p
    assert rem.is_zero or rem.degree < q.degree


def test_gcd_of_common_factor():
    common = FractionPolynomial.from_coeffs([1, 1])
    p = library(common * FractionPolynomial.from_coeffs([2, 3]))
    q = library(common * FractionPolynomial.from_coeffs([-5, 1, 1]))
    g = p.gcd(q)
    # monic normalization
    assert g == Polynomial.from_coeffs([1, 1])


def test_squarefree_part_drops_multiplicity():
    p = library(
        FractionPolynomial.from_coeffs([-1, 1]) ** 3
        * FractionPolynomial.from_coeffs([2, 1])
    )
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
    p = library(FractionPolynomial.from_coeffs([-1, 1]) ** 4)
    assert count_roots_in_open_interval(p, 0, 2) == 1


def test_root_count_rejects_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        count_roots_in_open_interval(Polynomial.from_coeffs([]), -1, 1)


def test_strictly_positive_allows_boundary_zeros():
    # (1 - z^2) vanishes at both endpoints but is positive inside
    p = Polynomial.from_coeffs([1, 0, -1])
    assert strictly_positive_on(p, -1, 1)
    assert not strictly_positive_on(Polynomial.from_coeffs([-1, 0, 1]), -1, 1)


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
    mapped = FractionPolynomial.from_coeffs(_mobius_coefficients(p, lo, hi))
    expected = FractionPolynomial(())
    for k, c in enumerate(p.coeffs):
        expected = expected + c * FractionPolynomial.from_coeffs(
            [lo, hi]
        ) ** k * FractionPolynomial.from_coeffs([1, 1]) ** (p.degree - k)
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
    rp = FractionPolynomial.from_coeffs(a) * (
        FractionPolynomial.from_coeffs(factor + [1]) ** exponent
    )
    p = library(rp)
    if p.is_zero:
        return
    assert_agrees(p.gcd(p.derivative()), rp.gcd(rp.derivative()))
    assert_agrees(p.squarefree_part(), rp.squarefree_part())


@given(coefficient_lists)
def test_equal_polynomials_compare_and_hash_equal(a):
    """One polynomial built three ways has one canonical form."""
    direct = Polynomial.from_coeffs(a)
    # Over twice the least common denominator, which the form reduces,
    # and over its negative with trailing zeros, which the form strips.
    den = 2 * lcm(1, *(c.denominator for c in a))
    scaled = Polynomial([int(c * den) for c in a], den)
    negated = Polynomial([-int(c * den) for c in a] + [0, 0], -den)
    assert direct == scaled == negated
    assert hash(direct) == hash(scaled) == hash(negated)
    zero = Polynomial.from_coeffs([0, 0])
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
