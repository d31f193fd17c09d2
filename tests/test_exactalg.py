"""Exact polynomial arithmetic, root counting by bisection, Descartes
positivity, and the linear solver."""

from fractions import Fraction

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


def test_zero_polynomial():
    z = Polynomial.zero()
    assert z.is_zero
    assert z.coeffs == ()
    assert z(5) == 0


def test_linear_and_constant_helpers():
    assert Polynomial.linear(1, 2)(3) == 7
    assert Polynomial.constant(Fraction(1, 2))(100) == Fraction(1, 2)


def test_arithmetic_smoke():
    p = Polynomial.from_coeffs([1, 1])  # 1 + z
    q = Polynomial.from_coeffs([-1, 1])  # -1 + z
    assert (p * q).coeffs == (Fraction(-1), Fraction(0), Fraction(1))
    assert (p + q).coeffs == (Fraction(0), Fraction(2))
    assert (p - p).is_zero
    assert (p**3).coeffs == (Fraction(1), Fraction(3), Fraction(3), Fraction(1))


def test_scalar_multiplication():
    p = Polynomial.from_coeffs([1, 2])
    assert (p * Fraction(1, 2)).coeffs == (Fraction(1, 2), Fraction(1))


@given(polys, polys, rationals)
def test_eval_is_ring_homomorphism(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)


@given(polys)
def test_derivative_of_antiderivative(p):
    assert p.antiderivative().derivative() == p


@given(polys, polys)
def test_divmod_reconstructs(p, q):
    if q.is_zero:
        with pytest.raises(ZeroDivisionError):
            p.divmod(q)
        return
    quot, rem = p.divmod(q)
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
    p = Polynomial.from_coeffs([-1, 1]) ** 3 * Polynomial.from_coeffs([2, 1])
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
    p = Polynomial.from_coeffs([-1, 1]) ** 4
    assert count_roots_in_open_interval(p, 0, 2) == 1


def test_root_count_rejects_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        count_roots_in_open_interval(Polynomial.zero(), -1, 1)


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
    expected = Polynomial.zero()
    for k, c in enumerate(p.coeffs):
        expected = expected + c * Polynomial.linear(lo, hi) ** k * Polynomial.linear(
            1, 1
        ) ** (p.degree - k)
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
