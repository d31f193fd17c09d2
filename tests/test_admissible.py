"""Admissible data, the extremal profile system, and the CSC solver."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberjoin.admissible import (
    CSC,
    FIBER_INFINITY,
    FIBER_ZERO,
    INCONSISTENT,
    POSITIVITY_FAILS,
    AdmissibleData,
    AdmissibleEntry,
    CscResult,
    DegenerateFactorError,
    NotAdmissibleError,
    RepeatedNodeError,
    RepeatedParameterError,
    SingularSystemError,
    _operator_column,
    _times_binomial_pair,
    admissible_data,
    extremal_profile,
    genus_threshold,
    solve_csc,
)
from fiberjoin.exactalg import Polynomial
from fiberjoin.model import BaseFactor, SpecError, make_spec
from oracles import (
    AnsatzError,
    FractionPolynomial,
    back_solve_csc,
    characteristic_product,
    csc_ansatz,
    curvature_equation,
    gaussian_solve,
    reduced_characteristic_product,
    reference_extremal_profile,
    reference_solve_csc,
    sturm_positive_on,
)
from test_cli import specs

ONE_MINUS_Z2 = FractionPolynomial.from_coeffs([1, 0, -1])
PLUS = FractionPolynomial.from_coeffs([1, 1])
MINUS = FractionPolynomial.from_coeffs([1, -1])


def reference(poly):
    """A library polynomial as a reference polynomial."""
    return FractionPolynomial.from_coeffs(poly.coeffs)


def surface_pair(g1, g2, rows=((2, 1), (1, 3))):
    return make_spec(
        [BaseFactor.surface(g1), BaseFactor.surface(g2)],
        [list(r) for r in rows],
        (0, 0),
    )


def base_entry(idx, s, r):
    return AdmissibleEntry(f"factor_{idx}", 1, Fraction(s), Fraction(r))


# --- admissible data -----------------------------------------------------


def test_admissible_data_of_reference_spec():
    data = admissible_data(surface_pair(5, 3))
    (e1, e2) = data.entries
    assert (e1.s, e2.s) == (-8, 2)
    assert (e1.r, e2.r) == (Fraction(1, 3), Fraction(-1, 2))
    assert [e.label for e in data.entries] == ["factor_0", "factor_1"]


def test_admissible_data_fiber_entries():
    spec = make_spec(
        [BaseFactor.surface(0), BaseFactor.surface(2)],
        [[2, 1], [2, 1], [1, 2], [1, 2], [1, 2]],
        (1, 2),
    )
    data = admissible_data(spec)
    labels = [e.label for e in data.entries]
    assert labels == ["factor_0", "factor_1", FIBER_ZERO, FIBER_INFINITY]
    fiber0 = data.entries[2]
    fiberinf = data.entries[3]
    assert (fiber0.dim, fiber0.s, fiber0.r) == (1, 2, 1)
    assert (fiberinf.dim, fiberinf.s, fiberinf.r) == (2, -3, -1)


def test_admissible_data_drops_unretained_factor():
    spec = make_spec(
        [BaseFactor.surface(0), BaseFactor.surface(2)], [[2, 3], [1, 3]], (0, 0)
    )
    data = admissible_data(spec)
    assert len(data.entries) == 1
    assert data.entries[0].label == "factor_0"


def test_admissible_data_requires_split():
    spec = make_spec(
        [BaseFactor.surface(0), BaseFactor.surface(2)], [[2, 1], [1, 2]], None
    )
    with pytest.raises(Exception):
        admissible_data(spec)


def test_admissible_data_rejects_all_equal_columns():
    spec = make_spec(
        [BaseFactor.surface(0), BaseFactor.surface(2)], [[2, 3], [2, 3]], (0, 0)
    )
    with pytest.raises(NotAdmissibleError):
        admissible_data(spec)


def test_admissible_data_rejects_duplicate_columns():
    spec = make_spec(
        [BaseFactor.surface(1), BaseFactor.surface(1)], [[2, 2], [1, 1]], (0, 0)
    )
    with pytest.raises(DegenerateFactorError):
        admissible_data(spec)


def test_duplicate_columns_name_the_least_pair():
    # CP^2 x T^3: factors 0 and 3 share a column, and so do 1 and 2.
    base = [BaseFactor.projective_space(2)] + [BaseFactor.torus()] * 3
    spec = make_spec(base, [[3, 1, 1, 3], [1, 2, 2, 1]], (0, 0))
    with pytest.raises(DegenerateFactorError, match="^factors 0 and 3 carry"):
        admissible_data(spec)


def test_admissible_data_rejects_repeated_r():
    spec = make_spec(
        [BaseFactor.surface(1), BaseFactor.surface(2)], [[2, 4], [1, 2]], (0, 0)
    )
    with pytest.raises(RepeatedParameterError):
        admissible_data(spec)


def test_admissible_data_rejects_higher_projective_factor():
    spec = make_spec(
        [BaseFactor.projective_space(2), BaseFactor.surface(0)],
        [[2, 1], [1, 2]],
        (0, 0),
    )
    with pytest.raises(NotAdmissibleError):
        admissible_data(spec)


def test_r_values_live_in_open_unit_interval():
    data = admissible_data(surface_pair(5, 3))
    for e in data.entries:
        assert -1 < e.r < 1


# --- characteristic product ----------------------------------------------


def test_characteristic_product():
    data = admissible_data(surface_pair(5, 3))
    p = characteristic_product(data)
    line = FractionPolynomial.from_coeffs
    expected = line([1, Fraction(1, 3)]) * line([1, Fraction(-1, 2)])
    assert p.coeffs == expected.coeffs
    assert p.coeffs == (Fraction(1), Fraction(-1, 6), Fraction(-1, 6))
    assert extremal_profile(data).char_product == p


# --- extremal profile -----------------------------------------------------


def test_profile_reference_case():
    data = admissible_data(surface_pair(5, 3))
    result = extremal_profile(data)
    q = FractionPolynomial.from_coeffs(
        [Fraction(3, 4), Fraction(-1, 6), Fraction(1, 12)]
    )
    assert result.profile.coeffs == (ONE_MINUS_Z2 * q).coeffs
    assert result.positive


def test_profile_boundary_conditions_hand_case():
    data = AdmissibleData(
        (base_entry(0, 3, Fraction(1, 2)), base_entry(1, -1, Fraction(-1, 3)))
    )
    result = extremal_profile(data)
    p = result.char_product
    f = result.profile
    fprime = f.derivative()
    assert f(1) == 0 and f(-1) == 0
    assert fprime(1) == -2 * p(1)
    assert fprime(-1) == 2 * p(-1)


def test_profile_second_derivative_factorization():
    data = AdmissibleData(
        (
            base_entry(0, 2, Fraction(1, 5)),
            base_entry(1, -4, Fraction(-2, 7)),
            AdmissibleEntry(FIBER_ZERO, 2, Fraction(3), Fraction(1)),
        )
    )
    result = extremal_profile(data)
    reduced = reduced_characteristic_product(data)
    second = result.profile.derivative().derivative()
    assert second.coeffs == (reduced * reference(result.source)).coeffs


def test_profile_source_interpolation():
    data = AdmissibleData(
        (base_entry(0, 5, Fraction(2, 3)), base_entry(1, 1, Fraction(-3, 5)))
    )
    result = extremal_profile(data)
    for e in data.entries:
        node = Fraction(-1) / e.r
        others = Fraction(1)
        for other in data.entries:
            if other is not e:
                others *= 1 - other.r / e.r
        assert result.source(node) == 2 * e.dim * e.s * e.r * others


def test_profile_repeated_nodes_raise():
    data = AdmissibleData(
        (base_entry(0, 1, Fraction(1, 2)), base_entry(1, 2, Fraction(1, 2)))
    )
    with pytest.raises(RepeatedNodeError):
        extremal_profile(data)


def test_profile_rejects_empty_data():
    with pytest.raises(Exception):
        extremal_profile(AdmissibleData(()))


def test_profile_singular_system_raises():
    """A base entry with |r| > 1 can make the 2x2 for alpha and beta
    singular; both solves refuse it with the same message."""
    data = AdmissibleData(
        (
            AdmissibleEntry("f0", 1, Fraction(0), Fraction(-3)),
            AdmissibleEntry(FIBER_ZERO, 3, Fraction(2), Fraction(1)),
            AdmissibleEntry(FIBER_INFINITY, 3, Fraction(-2), Fraction(-1)),
        )
    )
    for solve in (extremal_profile, reference_extremal_profile):
        with pytest.raises(SingularSystemError, match="matrix is singular"):
            solve(data)


@pytest.mark.parametrize("label, r", [("factor_1", Fraction(1, 3)), (FIBER_ZERO, 1)])
def test_profile_rejects_dimensionless_entries(label, r):
    entries = (base_entry(0, 2, Fraction(-1, 2)), AdmissibleEntry(label, 0, 3, r))
    with pytest.raises(ValueError):
        extremal_profile(AdmissibleData(entries))


rational_r = st.fractions(
    min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=12
).filter(lambda x: x != 0)
rational_s = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)


@given(st.lists(st.tuples(rational_r, rational_s), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_profile_postconditions_random(params):
    rs = [r for r, _ in params]
    if len(set(rs)) != len(rs):
        return
    entries = tuple(
        base_entry(i, s, r) for i, (r, s) in enumerate(params)
    )
    result = extremal_profile(AdmissibleData(entries))
    f = result.profile
    fprime = f.derivative()
    p = result.char_product
    assert f(1) == 0 and f(-1) == 0
    assert fprime(1) == -2 * p(1) and fprime(-1) == 2 * p(-1)


def data_with_fiber_blocks(params, d0, dinf):
    """Base entries from (r, s, dim) triples, then the fiber blocks of
    dimensions d0 and dinf (none for 0), as ``admissible_data`` adds them."""
    entries = [
        AdmissibleEntry(f"factor_{i}", dim, s, r)
        for i, (r, s, dim) in enumerate(params)
    ]
    if d0:
        entries.append(AdmissibleEntry(FIBER_ZERO, d0, Fraction(d0 + 1), Fraction(1)))
    if dinf:
        entries.append(
            AdmissibleEntry(FIBER_INFINITY, dinf, Fraction(-(dinf + 1)), Fraction(-1))
        )
    return AdmissibleData(tuple(entries))


def reference_extremal_solve(data):
    """The square (m+4) x (m+4) system the solver used to assemble:
    interpolation of P at every node and the four boundary conditions
    on F, solved by elimination.  Returns (source, profile)."""
    entries = data.entries
    m = len(entries)
    nodes = [Fraction(-1, 1) / e.r for e in entries]
    reduced = reduced_characteristic_product(data)
    char = characteristic_product(data)

    # Basis images: for P = sum p_k z^k, F'' = reduced * P, so F' and F
    # are the iterated antiderivatives plus the two constants.
    monomial_first = []
    monomial_second = []
    for k in range(m + 2):
        g = reduced * FractionPolynomial.from_coeffs([0] * k + [1])
        first = g.antiderivative()
        monomial_first.append(first)
        monomial_second.append(first.antiderivative())

    size = m + 4
    matrix = [[Fraction(0)] * size for _ in range(size)]
    rhs = [Fraction(0)] * size

    for i, e in enumerate(entries):
        node = nodes[i]
        for k in range(m + 2):
            matrix[i][k] = node**k
        prod = Fraction(1)
        for j, other in enumerate(entries):
            if j != i:
                prod *= 1 - other.r / e.r
        rhs[i] = 2 * e.dim * e.s * e.r * prod

    one = Fraction(1)
    # F(x)  = sum_k p_k * B_k(x) + c_lin * x + c_const
    # F'(x) = sum_k p_k * C_k(x) + c_lin
    boundary = [
        (monomial_second, one, one, one, Fraction(0)),  # F(1) = 0
        (monomial_second, -one, -one, one, Fraction(0)),  # F(-1) = 0
        (monomial_first, one, one, Fraction(0), -2 * char(1)),  # F'(1)
        (monomial_first, -one, one, Fraction(0), 2 * char(-1)),  # F'(-1)
    ]
    for row_idx, (basis, point, lin_coef, const_coef, value) in enumerate(boundary):
        row = matrix[m + row_idx]
        for k in range(m + 2):
            row[k] = basis[k](point)
        row[m + 2] = lin_coef
        row[m + 3] = const_coef
        rhs[m + row_idx] = value

    solution = gaussian_solve(matrix, rhs)

    source = FractionPolynomial.from_coeffs(solution[: m + 2])
    c_lin, c_const = solution[m + 2], solution[m + 3]
    second = reduced * source
    profile = second.antiderivative().antiderivative() + (
        FractionPolynomial.from_coeffs([c_const, c_lin])
    )
    return Polynomial.from_coeffs(source.coeffs), Polynomial.from_coeffs(profile.coeffs)


@given(
    st.lists(
        st.tuples(rational_r, rational_s, st.integers(min_value=1, max_value=3)),
        min_size=1,
        max_size=3,
        unique_by=lambda t: t[0],
    ),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=80, deadline=None)
def test_profile_matches_square_system(params, d0, dinf):
    """The factored solve gives exactly the source and profile of the
    square system, fiber blocks of dimension >= 2 included (R != 1)."""
    data = data_with_fiber_blocks(params, d0, dinf)
    result = extremal_profile(data)
    assert (result.source, result.profile) == reference_extremal_solve(data)


@given(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=12),
)
def test_times_binomial_pair_matches_powers(a, b, nums, den):
    scaled = FractionPolynomial.from_coeffs(Fraction(n, den) for n in nums)
    expected = PLUS**a * MINUS**b * scaled
    assert _times_binomial_pair(a, b, nums, den).coeffs == expected.coeffs


@pytest.mark.parametrize("u", range(6))
@pytest.mark.parametrize("v", range(6))
def test_operator_column_matches_expansion(u, v):
    """The column of z^k is (B z^k)'' with B = (1 + z)^(u+1) (1 - z)^(v+1),
    divided exactly by (1 + z)^max(u-1, 0) (1 - z)^max(v-1, 0), from
    z^(k-2) up, with zeros below z^0 and a nonzero top entry."""
    fibers = PLUS ** (u + 1) * MINUS ** (v + 1)
    divisor = PLUS ** max(u - 1, 0) * MINUS ** max(v - 1, 0)
    for k in range(11):
        first = (fibers * FractionPolynomial.from_coeffs([0] * k + [1])).derivative()
        quotient, remainder = first.derivative().divmod(divisor)
        assert remainder.is_zero
        column = _operator_column(k, u, v)
        below = max(2 - k, 0)
        assert column[:below] == [0] * below
        assert column[-1] != 0
        padded = [0] * (k - 2 + below) + column[below:]
        assert FractionPolynomial.from_coeffs(padded) == quotient


unit_r = st.fractions(
    min_value=Fraction(-19, 20), max_value=Fraction(19, 20), max_denominator=20
)


@given(
    st.lists(
        st.tuples(unit_r, rational_s, st.integers(min_value=1, max_value=3)),
        min_size=1,
        max_size=3,
        unique_by=lambda t: t[0],
    ),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=120, deadline=None)
def test_profile_matches_moment_oracle(params, d0, dinf):
    """The factored solve gives every field of the moment route: base
    entries of dims 1-3 with |r| < 1 (R_base != 1 when a dim exceeds
    1) and fiber blocks of dims 0-4."""
    data = data_with_fiber_blocks(params, d0, dinf)
    assert extremal_profile(data) == reference_extremal_profile(data)


split_spec_st = st.tuples(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=3),
    st.lists(st.integers(min_value=1, max_value=9), min_size=6, max_size=6),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)


@given(split_spec_st)
@settings(max_examples=120, deadline=None)
def test_profile_factors_over_fiber_blocks(spec_params):
    """On admissible data of split joins, F = (1 + z)^(d0 + 1)
    (1 - z)^(dinf + 1) H with deg H <= w + 1 for w retained curves, and
    H > 0 on (-1, 1) exactly when F is."""
    genera, entries, d0, dinf = spec_params
    width = len(genera)
    w0, winf = entries[:width], entries[3 : 3 + width]
    spec = make_spec(
        [BaseFactor.surface(g) for g in genera],
        [w0] * (d0 + 1) + [winf] * (dinf + 1),
        (d0, dinf),
    )
    try:
        data = admissible_data(spec)
    except SpecError:
        return
    result = extremal_profile(data)
    fibers = PLUS ** (d0 + 1) * MINUS ** (dinf + 1)
    assert result.profile.coeffs == (fibers * reference(result.factor)).coeffs
    assert result.factor.degree <= sum(abs(e.r) < 1 for e in data.entries) + 1
    assert result.positive == (
        not result.profile.is_zero
        and sturm_positive_on(reference(result.profile), -1, 1)
    )


@given(specs(), st.data())
@settings(max_examples=150, deadline=None)
def test_profile_reads_each_entry_by_dim_s_and_r_in_any_order(spec, draws):
    """The solve reads only the multiset of the entries' (dim, s, r):
    relabelling and permuting the entries of a join's data at d = 1,
    split (0, 0), gives an equal profile.  The survey's memo of profile
    verdicts is keyed on that multiset."""
    join = make_spec(spec.base.factors, [spec.matrix[0], spec.matrix[-1]], (0, 0))
    try:
        data = admissible_data(join)
    except SpecError:
        return
    relabelled = [
        AdmissibleEntry(f"relabelled_{i}", e.dim, e.s, e.r)
        for i, e in enumerate(data.entries)
    ]
    permuted = AdmissibleData(tuple(draws.draw(st.permutations(relabelled))))
    assert extremal_profile(permuted) == extremal_profile(data)


def outcome(solve, data):
    """The solve's answer, or the class and message of its refusal."""
    try:
        return solve(data)
    except Exception as exc:
        return type(exc), str(exc)


LABELS = st.one_of(st.sampled_from([FIBER_ZERO, FIBER_INFINITY, "factor_0"]), st.text())


@given(
    st.lists(
        st.tuples(unit_r, rational_s, st.integers(min_value=1, max_value=3)),
        min_size=1,
        max_size=3,
        unique_by=lambda t: t[0],
    ),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.lists(LABELS, min_size=5, max_size=5),
)
# Two retained factors, one relabelled as a fiber block; and a fiber
# block at r = 1 relabelled as a retained factor.
@example([(Fraction(1, 3), Fraction(-2), 1), (Fraction(-1, 2), Fraction(2), 1)], 0, 0,
         ["factor_0", FIBER_ZERO, "", "", ""])
@example([(Fraction(1, 3), Fraction(-2), 1)], 1, 0, ["factor_0", "factor_1", "", "", ""])
@settings(max_examples=150, deadline=None, derandomize=True)
def test_labels_only_name_entries(params, d0, dinf, labels):
    """An entry's role is told by its r alone: relabelling the entries
    with any strings, the fiber blocks' labels included, changes
    neither the extremal solve nor the CSC answer or refusal."""
    data = data_with_fiber_blocks(params, d0, dinf)
    relabelled = AdmissibleData(
        tuple(AdmissibleEntry(label, e.dim, e.s, e.r) for label, e in zip(labels, data.entries))
    )
    for solve in (extremal_profile, solve_csc):
        assert outcome(solve, relabelled) == outcome(solve, data)


# --- csc solver -----------------------------------------------------------


def test_csc_reference_values():
    result = solve_csc(admissible_data(surface_pair(5, 3)))
    assert result.verdict == CSC
    assert result.s == -1
    assert result.certificate == Polynomial.from_coeffs(
        [Fraction(3, 4), Fraction(-1, 6), Fraction(1, 12)]
    )


def test_csc_second_reference():
    result = solve_csc(admissible_data(surface_pair(18, 14)))
    assert result.verdict == CSC
    assert result.s == -6
    assert result.certificate == Polynomial.from_coeffs(
        [Fraction(1, 3), Fraction(-1, 6), Fraction(1, 2)]
    )


def test_csc_positivity_failure():
    result = solve_csc(admissible_data(surface_pair(31, 25)))
    assert result.verdict == POSITIVITY_FAILS
    assert result.s == -11
    assert result.certificate == Polynomial.from_coeffs(
        [Fraction(-1, 12), Fraction(-1, 6), Fraction(11, 12)]
    )


def test_csc_returned_s_solves_both_equations():
    for genera in [(5, 3), (18, 14), (31, 25)]:
        data = admissible_data(surface_pair(*genera))
        (e1, e2) = data.entries
        result = solve_csc(data)
        assert curvature_equation(e1.s, e1.r, e2.r, result.s) == 0
        assert curvature_equation(e2.s, e2.r, e1.r, result.s) == 0


def test_csc_inconsistent_data():
    data = AdmissibleData(
        (base_entry(0, 1, Fraction(1, 2)), base_entry(1, 1, Fraction(1, 3)))
    )
    result = solve_csc(data)
    assert result.verdict == INCONSISTENT
    assert result.s is None and result.certificate is None


def test_csc_rejects_equal_parameters():
    data = AdmissibleData(
        (base_entry(0, 1, Fraction(1, 2)), base_entry(1, 2, Fraction(1, 2)))
    )
    with pytest.raises(RepeatedNodeError):
        solve_csc(data)


def test_csc_rejects_wrong_shape():
    """One entry, or a retained factor and a fiber block at r = +-1, are
    not two retained factors on a trivial split."""
    factor = base_entry(0, -2, Fraction(1, 3))
    for entries in [(factor,), (factor, base_entry(1, 2, 1)), (factor, base_entry(1, 2, -1))]:
        for solve in (solve_csc, reference_solve_csc, csc_ansatz):
            with pytest.raises(SpecError, match="^two retained factors and a trivial split"):
                solve(AdmissibleData(entries))


def test_csc_zero_parameter_is_inconsistent():
    """The affine equations divide by each r; the extremal solve does not."""
    data = AdmissibleData((base_entry(0, 2, Fraction(1, 2)), base_entry(1, 3, 0)))
    with pytest.raises(ZeroDivisionError):
        reference_solve_csc(data)
    assert solve_csc(data) == CscResult(s=None, certificate=None, verdict=INCONSISTENT)


@given(rational_r, rational_r, rational_s)
@settings(max_examples=80, deadline=None)
def test_csc_consistent_solutions_satisfy_oracle(r1, r2, s1):
    """Back-solve s2 so both equations share the root, then cross-check."""
    if r1 == r2:
        return
    s, s2 = back_solve_csc(r1, r2, s1)
    data = AdmissibleData((base_entry(0, s1, r1), base_entry(1, s2, r2)))
    result = solve_csc(data)
    assert result.s == s
    assert curvature_equation(s1, r1, r2, s) == 0
    assert curvature_equation(s2, r2, r1, s) == 0
    # Curve factors always satisfy s_a*r_a = 2(1-g_a)/(k0+kinf) < 2,
    # which forces r1*r2 < 0 and makes the quadratic concave down, so a
    # nonnegative root settles positivity.  Synthetic data may violate it.
    if s >= 0 and s1 * r1 < 2 and s2 * r2 < 2:
        assert result.verdict == CSC
    if result.verdict == CSC:
        assert sturm_positive_on(reference(result.certificate), -1, 1)


@given(rational_r, rational_r, rational_s, rational_s, st.booleans())
@settings(max_examples=120, deadline=None)
def test_csc_matches_affine_oracle(r1, r2, s1, s2, consistent):
    """Reading the extremal solve gives the affine derivation's verdict,
    s and certificate; half the cases back-solve s2 so that both
    equations share a root."""
    if r1 == r2:
        return
    if consistent:
        _, s2 = back_solve_csc(r1, r2, s1)
    data = AdmissibleData((base_entry(0, s1, r1), base_entry(1, s2, r2)))
    result = solve_csc(data)
    assert result == reference_solve_csc(data)
    if result.certificate is not None:
        expected = reference(result.certificate) * ONE_MINUS_Z2
        assert extremal_profile(data).profile.coeffs == expected.coeffs


# --- ansatz and threshold ---------------------------------------------------


def symmetric_family_spec(g, k):
    return make_spec(
        [BaseFactor.surface(g), BaseFactor.surface(g)],
        [[k + 1, k], [k, k + 1]],
        (0, 0),
    )


def test_ansatz_matches_solver_on_symmetric_family():
    for g in range(0, 6):
        for k in range(1, 6):
            data = admissible_data(symmetric_family_spec(g, k))
            assert csc_ansatz(data) == solve_csc(data).s


def test_ansatz_rejects_unbalanced_data():
    with pytest.raises(AnsatzError):
        csc_ansatz(admissible_data(surface_pair(5, 3)))


@given(rational_r, rational_s)
@settings(max_examples=60, deadline=None)
def test_ansatz_closed_form_random(r1, s1):
    data = AdmissibleData((base_entry(0, s1, r1), base_entry(1, -s1, -r1)))
    expected = (1 - r1 * r1 + 2 * s1 * r1) / (3 - r1 * r1)
    assert csc_ansatz(data) == expected
    assert solve_csc(data).s == expected


def test_genus_threshold_values():
    assert genus_threshold(0) == 0
    assert genus_threshold(1) == 0
    assert genus_threshold(2) == 1
    assert genus_threshold(3) == 3
    assert genus_threshold(4) == 5


def test_threshold_separates_sign_of_s():
    for g in range(2, 8):
        threshold = genus_threshold(g)
        for k in range(1, threshold + 4):
            data = admissible_data(symmetric_family_spec(g, k))
            s = solve_csc(data).s
            assert (s > 0) == (k > threshold)


def test_spot_value_genus_two():
    data = admissible_data(symmetric_family_spec(2, 2))
    assert solve_csc(data).s == Fraction(2, 37)
