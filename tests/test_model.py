"""Join descriptions: validation, colinearity, canonical forms."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberjoin.model import (
    TORUS,
    BaseFactor,
    BaseProduct,
    EmptyBaseError,
    FiberJoinSpec,
    KahlerMatrix,
    NonPositiveEntryError,
    NotColinearError,
    SpecError,
    SplitMismatchError,
    canonical_split_spec,
    is_colinear,
    make_spec,
    regular_join_data,
    retained_factors,
    validate,
)

TWO_LINES = [BaseFactor.projective_space(1), BaseFactor.projective_space(1)]


def two_surface_spec(rows, g1=2, g2=3, split=(0, 0)):
    return make_spec([BaseFactor.surface(g1), BaseFactor.surface(g2)], rows, split)


# --- factors -----------------------------------------------------------


def test_factor_constructors():
    assert BaseFactor.surface(4).genus == 4
    assert BaseFactor.projective_space(3).n == 3
    assert BaseFactor.torus().kind == "torus"


def test_factor_validation():
    with pytest.raises(SpecError):
        BaseFactor.surface(-1)
    with pytest.raises(SpecError):
        BaseFactor.projective_space(0)
    # Integers only: booleans, floats, strings and missing values are refused.
    for bad in ("5", 3.9, 5.0, True, None):
        with pytest.raises(SpecError, match="genus must be an integer"):
            BaseFactor.surface(bad)
        with pytest.raises(SpecError, match="n must be an integer"):
            BaseFactor.projective_space(bad)
    with pytest.raises(SpecError):
        BaseFactor(TORUS, genus=True)


def test_torus_spellings_are_one_factor():
    plain = BaseFactor(TORUS)
    assert plain == BaseFactor.torus()
    assert hash(plain) == hash(BaseFactor.torus())
    assert plain.genus == 1


def test_c1_coefficients():
    assert BaseFactor.surface(0).c1_coefficient == 2
    assert BaseFactor.surface(5).c1_coefficient == -8
    assert BaseFactor.projective_space(4).c1_coefficient == 5
    assert BaseFactor.torus().c1_coefficient == 0


def test_effective_genus():
    assert BaseFactor.surface(3).effective_genus == 3
    assert BaseFactor.projective_space(1).effective_genus == 0
    assert BaseFactor.torus().effective_genus == 1
    assert BaseFactor.projective_space(2).effective_genus is None


def test_base_product_requires_factors():
    with pytest.raises(EmptyBaseError):
        BaseProduct(())


# --- validation --------------------------------------------------------


def test_validate_accepts_good_spec():
    spec = two_surface_spec([[2, 1], [1, 3]])
    validate(spec)
    assert spec.d == 1
    assert spec.n == 2


def test_validate_rejects_nonpositive_entries():
    with pytest.raises(NonPositiveEntryError):
        two_surface_spec([[2, 0], [1, 3]])
    with pytest.raises(NonPositiveEntryError):
        two_surface_spec([[2, -1], [1, 3]])


def test_validate_rejects_width_mismatch():
    with pytest.raises(SpecError):
        two_surface_spec([[2, 1, 1], [1, 3, 1]])


def test_validate_needs_two_summands():
    with pytest.raises(SpecError):
        make_spec([BaseFactor.surface(2)], [[2]], None)


def test_split_must_match_row_count():
    with pytest.raises(SplitMismatchError):
        two_surface_spec([[2, 1], [1, 3]], split=(1, 0))


def test_split_blocks_must_be_constant():
    with pytest.raises(SplitMismatchError):
        make_spec(TWO_LINES, [[1, 2], [1, 1], [2, 2]], (1, 0))
    # constant blocks pass
    make_spec(TWO_LINES, [[1, 2], [1, 2], [2, 2]], (1, 0))


def test_split_is_optional():
    spec = make_spec(TWO_LINES, [[1, 2], [2, 1], [1, 1]], None)
    assert spec.split is None
    assert spec.d == 2


@pytest.mark.parametrize("entry", [2.7, 2.0, True, "3"])
def test_matrix_entries_must_be_integers(entry):
    with pytest.raises(SpecError, match="matrix entry must be an integer"):
        two_surface_spec([[entry, 1], [1, 3]], split=None)


@pytest.mark.parametrize(
    "split", [(True, False), (0.5, 0), ("0", 0), (0, 0, 1), (0,), ()]
)
def test_split_must_be_a_pair_of_integers(split):
    with pytest.raises(SpecError):
        two_surface_spec([[2, 1], [1, 3]], split=split)


@pytest.mark.parametrize(
    "split",
    [5, True, "ab", {"a": 0, "b": 0}],
    ids=["integer", "boolean", "string", "object"],
)
def test_split_other_than_a_list_or_tuple_is_not_coerced(split):
    # An integer or boolean is not iterable, and a string or an object
    # would be read as its characters or keys; all are refused alike.
    with pytest.raises(SpecError, match="^split must be a pair of integers$"):
        two_surface_spec([[2, 1], [1, 3]], split=split)


@pytest.mark.parametrize(
    "rows",
    [5, "ab", {"a": 1, "b": 2}, [5, 6], ["ab", "cd"], [[2, 1], 3]],
    ids=["integer", "string", "object", "integer-rows", "string-rows", "mixed-rows"],
)
def test_matrix_other_than_a_list_of_lists_is_not_coerced(rows):
    # Neither K nor a row is iterated unless it is a list or tuple, so a
    # string or an object is not read as its characters or keys.
    with pytest.raises(
        SpecError, match="^K must be a list of rows, each a list of integers$"
    ):
        two_surface_spec(rows, split=None)


def test_spec_validates_on_construction():
    base = BaseProduct((BaseFactor.surface(2),))
    with pytest.raises(SpecError, match="two line bundle summands"):
        FiberJoinSpec(base, KahlerMatrix(((2,),)))
    with pytest.raises(NonPositiveEntryError):
        FiberJoinSpec(base, KahlerMatrix(((2,), (0,))))
    with pytest.raises(SplitMismatchError):
        FiberJoinSpec(base, KahlerMatrix(((2,), (3,))), (1, 0))
    # A list split would compare unequal to every tuple downstream.
    with pytest.raises(SpecError, match="pair"):
        FiberJoinSpec(base, KahlerMatrix(((2,), (3,))), [0, 0])
    spec = FiberJoinSpec(base, KahlerMatrix(((2,), (3,))), (0, 0))
    assert spec == make_spec([BaseFactor.surface(2)], [[2], [3]], [0, 0])


# --- colinearity and join data ----------------------------------------


def test_colinear_examples():
    assert is_colinear(two_surface_spec([[2, 1], [4, 2]]))
    assert not is_colinear(two_surface_spec([[2, 1], [1, 3]]))
    # single column is always colinear
    assert is_colinear(make_spec([BaseFactor.surface(2)], [[2], [3]], (0, 0)))


def test_regular_join_data():
    spec = two_surface_spec([[2, 1], [4, 2]])
    join = regular_join_data(spec)
    assert join.primitive == (2, 1)
    assert join.b == 1
    assert join.w == (1, 2)
    assert join.multiples == (1, 2)


def test_regular_join_data_extracts_gcd():
    spec = two_surface_spec([[4, 2], [8, 4]])
    join = regular_join_data(spec)
    assert join.primitive == (2, 1)
    assert (join.b, join.w) == (2, (1, 2))


def test_regular_join_data_rejects_non_colinear():
    with pytest.raises(NotColinearError):
        regular_join_data(two_surface_spec([[2, 1], [1, 3]]))


@st.composite
def near_rank_one(draw):
    """Matrices of width 1-5 and 2-5 rows, most of them multiples of
    one row with at most one entry changed, so both answers occur."""
    width = draw(st.integers(min_value=1, max_value=5))
    entries = st.integers(min_value=1, max_value=9)
    primitive = draw(st.lists(entries, min_size=width, max_size=width))
    multiples = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    rows = [[m * p for p in primitive] for m in multiples]
    if draw(st.booleans()):
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.integers(0, width - 1))] = draw(entries)
    return rows


@settings(max_examples=300)
@given(near_rank_one())
def test_colinear_matches_rank_oracle(rows):
    spec = make_spec([BaseFactor.surface(2)] * len(rows[0]), rows, None)
    rank_one = all(
        r1[a] * r2[b] == r1[b] * r2[a]
        for r1, r2 in itertools.combinations(rows, 2)
        for a, b in itertools.combinations(range(len(rows[0])), 2)
    )
    assert is_colinear(spec) == rank_one


@settings(max_examples=300)
@given(near_rank_one())
def test_regular_join_data_decides_colinearity(rows):
    # Its own row loop refuses exactly the joins is_colinear refuses.
    spec = make_spec([BaseFactor.surface(2)] * len(rows[0]), rows, None)
    try:
        join = regular_join_data(spec)
    except NotColinearError:
        join = None
    assert (join is not None) == is_colinear(spec)
    if join is not None:
        assert all(
            row == tuple(m * p for p in join.primitive)
            for row, m in zip(spec.matrix.rows, join.multiples)
        )


@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=4),
)
def test_join_data_reconstructs_multiples(b, w):
    from math import gcd

    g = gcd(*w)
    w = [x // g for x in w]  # force gcd(w) = 1
    primitive = (3, 2)
    rows = [[b * x * primitive[0], b * x * primitive[1]] for x in w]
    join = regular_join_data(make_spec(TWO_LINES, rows, None))
    assert [join.b * x for x in join.w] == [b * x for x in w]
    rebuilt = [
        [m * p for p in join.primitive] for m in join.multiples
    ]
    assert rebuilt == rows


# --- canonical forms ---------------------------------------------------


def reference_canonical_pair(spec):
    """The largest (omega_zero, omega_infinity) found by trying every
    permutation of identical-factor columns, prod g! orders, each
    with the pole swap when the split blocks are equal."""
    d0, dinf = spec.split
    w0 = spec.omega_zero()
    winf = spec.omega_infinity()
    groups: dict[BaseFactor, list[int]] = {}
    for idx, factor in enumerate(spec.base.factors):
        groups.setdefault(factor, []).append(idx)
    group_lists = list(groups.values())
    best = None
    for perms in itertools.product(
        *(itertools.permutations(g) for g in group_lists)
    ):
        mapping = {}
        for original, permuted in zip(group_lists, perms):
            mapping.update(dict(zip(original, permuted)))
        order = [mapping[i] for i in range(len(spec.base.factors))]
        a = tuple(w0[i] for i in order)
        b = tuple(winf[i] for i in order)
        if d0 == dinf and b > a:
            a, b = b, a
        if best is None or (a, b) > best:
            best = (a, b)
    return best


FACTOR_POOL = [
    BaseFactor.surface(0),
    BaseFactor.surface(2),
    BaseFactor.torus(),
    BaseFactor.projective_space(1),
    BaseFactor.projective_space(2),
]


@st.composite
def split_joins(draw):
    """Bases of up to 4 factors of 2 kinds, so identical factors
    group, with small entries, so column pairs tie."""
    kinds = draw(
        st.lists(st.sampled_from(FACTOR_POOL), min_size=2, max_size=2, unique=True)
    )
    factors = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4))
    d0, dinf = draw(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]))
    entries = st.integers(min_value=1, max_value=3)
    w0 = draw(st.lists(entries, min_size=len(factors), max_size=len(factors)))
    winf = draw(st.lists(entries, min_size=len(factors), max_size=len(factors)))
    return make_spec(factors, [w0] * (d0 + 1) + [winf] * (dinf + 1), (d0, dinf))


@given(split_joins())
@settings(max_examples=300, deadline=None)
def test_canonical_split_spec_matches_permutation_oracle(spec):
    d0, dinf = spec.split
    a, b = reference_canonical_pair(spec)
    canonical = canonical_split_spec(spec)
    assert canonical.matrix.rows == (a,) * (d0 + 1) + (b,) * (dinf + 1)
    assert canonical.base == spec.base and canonical.split == spec.split


def test_canonical_split_spec_swaps_identical_factors_only():
    mixed = [BaseFactor.projective_space(1), BaseFactor.surface(2)]
    spec = make_spec(mixed, [[1, 3], [1, 2]], (0, 0))
    # distinct factors: columns must stay put
    assert canonical_split_spec(spec).matrix.rows == ((1, 3), (1, 2))

    same = make_spec(
        [BaseFactor.surface(2), BaseFactor.surface(2)], [[1, 3], [1, 2]], (0, 0)
    )
    assert canonical_split_spec(same).matrix.rows == ((3, 1), (2, 1))


def test_canonical_split_spec_relabels_poles_on_any_base():
    mixed = [BaseFactor.projective_space(1), BaseFactor.surface(2)]
    spec = make_spec(mixed, [[1, 2], [2, 1]], (0, 0))
    # equal blocks may swap even over distinct factors
    assert canonical_split_spec(spec).matrix.rows == ((2, 1), (1, 2))


def test_canonical_split_spec_swaps_equal_blocks_only():
    lopsided = make_spec(TWO_LINES, [[1, 1], [2, 2], [2, 2]], (0, 1))
    # blocks of different sizes keep their roles
    assert canonical_split_spec(lopsided).matrix.rows[0] == (1, 1)

    balanced = make_spec(TWO_LINES, [[1, 1], [2, 2]], (0, 0))
    assert canonical_split_spec(balanced).matrix.rows == ((2, 2), (1, 1))


# --- split bookkeeping -------------------------------------------------


def test_column_differences_and_retained():
    spec = two_surface_spec([[2, 1], [1, 3]])
    assert retained_factors(spec) == (0, 1)


def test_retained_drops_equal_columns():
    spec = make_spec(TWO_LINES, [[2, 1], [2, 3]], (0, 0))
    assert retained_factors(spec) == (1,)


def test_no_retained_factor_fails_check():
    spec = make_spec(TWO_LINES, [[2, 3], [2, 3]], (0, 0))
    assert retained_factors(spec) == ()
