"""Characteristic classes, cohomology, and homeomorphism keys."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberjoin.model import BaseFactor, make_spec
from fiberjoin.topology import (
    NON_SPIN,
    SPIN,
    UnsupportedBaseError,
    c1_contact,
    cohomology_table,
    euler_class,
    homeo_key,
    p1,
    p1_congruence_holds,
    spin_status,
)

LINES = [BaseFactor.projective_space(1), BaseFactor.projective_space(1)]


def surfaces(g1, g2):
    return [BaseFactor.surface(g1), BaseFactor.surface(g2)]


small_rows = st.lists(
    st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=2),
    min_size=2,
    max_size=4,
)


# --- first Chern class -------------------------------------------------


def test_c1_contact_surface_product():
    spec = make_spec(surfaces(5, 3), [[2, 1], [1, 3]], (0, 0))
    assert c1_contact(spec) == (-11, -8)


def test_c1_contact_projective_factors():
    spec = make_spec(
        [BaseFactor.projective_space(2), BaseFactor.torus()],
        [[1, 1], [1, 2]],
        (0, 0),
    )
    # (n+1) - col sum and 0 - col sum
    assert c1_contact(spec) == (3 - 2, 0 - 3)


@given(small_rows)
def test_c1_contact_row_order_invariant(rows):
    spec = make_spec(surfaces(2, 4), rows, None)
    for perm in itertools.permutations(rows):
        assert c1_contact(make_spec(surfaces(2, 4), list(perm), None)) == c1_contact(
            spec
        )


# --- Euler class and p1 -------------------------------------------------


def test_euler_class_two_surfaces():
    spec = make_spec(surfaces(5, 3), [[2, 1], [1, 3]], (0, 0))
    assert euler_class(spec) == 2 * 3 + 1 * 1


def test_euler_class_vanishes_for_higher_rank():
    spec = make_spec(LINES, [[1, 1], [1, 1], [2, 2]], (1, 0))
    assert euler_class(spec) == 0


@given(small_rows)
def test_euler_symmetric_under_simultaneous_swap(rows):
    if len(rows) != 2:
        rows = rows[:2]
    spec = make_spec(surfaces(1, 2), rows, None)
    swapped_rows = [list(reversed(r)) for r in reversed(rows)]
    swapped = make_spec(surfaces(2, 1), swapped_rows, None)
    assert euler_class(spec) == euler_class(swapped)


def test_p1_two_surfaces():
    spec = make_spec(surfaces(5, 3), [[2, 1], [1, 3]], (0, 0))
    assert p1(spec) == 2 * (2 - 1) * (1 - 3)


def test_p1_antidiagonal_family():
    for k in range(2, 7):
        for l in range(1, k):
            spec = make_spec(LINES, [[k, l], [l, k]], (0, 0))
            assert p1(spec) == -2 * (k - l) ** 2
            assert euler_class(spec) == k * k + l * l


def test_p1_constant_on_second_column_two_family():
    for d0, dinf in [(0, 1), (1, 1), (2, 2)]:
        for k0, kinf in itertools.product(range(1, 5), repeat=2):
            rows = [[k0, 2]] * (d0 + 1) + [[kinf, 2]] * (dinf + 1)
            spec = make_spec(LINES, rows, (d0, dinf))
            assert p1(spec) == -8 * (d0 + dinf + 2)


def test_p1_needs_split_for_higher_rank():
    spec = make_spec(LINES, [[1, 2], [2, 1], [1, 1]], None)
    with pytest.raises(UnsupportedBaseError):
        p1(spec)


# --- spin status ---------------------------------------------------------


def test_spin_examples():
    assert spin_status(make_spec(LINES, [[1, 1], [1, 1]], (0, 0))) == SPIN
    assert spin_status(make_spec(LINES, [[2, 1], [1, 1]], (0, 0))) == NON_SPIN


@given(small_rows)
def test_spin_matches_c1_parity(rows):
    spec = make_spec(surfaces(3, 1), rows, None)
    parity_even = all(c % 2 == 0 for c in c1_contact(spec))
    assert (spin_status(spec) == SPIN) == parity_even


def test_spin_parity_rules_by_split():
    # both blocks odd-dimensional: spin regardless of the classes
    for rows in [[[1, 2], [2, 3]], [[3, 1], [1, 1]]]:
        blocks = [rows[0], rows[0], rows[1], rows[1]]
        spec = make_spec(surfaces(2, 5), blocks, (1, 1))
        assert spin_status(spec) == SPIN

    # both blocks even-dimensional: spin iff both column sums are even
    for w0, winf in [((1, 2), (1, 2)), ((1, 2), (2, 1)), ((2, 2), (2, 2))]:
        blocks = [list(w0), list(winf)]
        spec = make_spec(surfaces(2, 5), blocks, (0, 0))
        expected = all((a + b) % 2 == 0 for a, b in zip(w0, winf))
        assert (spin_status(spec) == SPIN) == expected

    # mixed parity: the odd block drops out mod 2, the even block decides
    for w0, winf in [((2, 2), (1, 1)), ((2, 2), (2, 4)), ((1, 2), (2, 2))]:
        blocks = [list(w0), list(w0), list(winf)]
        spec = make_spec(surfaces(2, 5), blocks, (1, 0))
        expected = all(x % 2 == 0 for x in winf)
        assert (spin_status(spec) == SPIN) == expected


# --- p1 = 2e congruence ---------------------------------------------------


def test_congruence_on_shifted_family():
    # rows (k1+b, k2+c), (k1, k2): p1 = 2bc and e = bk2 + ck1 + 2k1k2,
    # so the mod-4 congruence reduces to bc = bk2 + ck1 mod 2
    for b, c in itertools.product(range(0, 4), repeat=2):
        for k1, k2 in itertools.product(range(1, 5), repeat=2):
            rows = [[k1 + b, k2 + c], [k1, k2]]
            spec = make_spec(LINES, rows, (0, 0))
            assert p1(spec) == 2 * b * c
            assert euler_class(spec) == b * k2 + c * k1 + 2 * k1 * k2
            expected = (b * c - b * k2 - c * k1) % 2 == 0
            assert p1_congruence_holds(spec) == expected
            if b * c % 2 == 0:
                assert p1_congruence_holds(spec) == ((b * k2 + c * k1) % 2 == 0)


# --- cohomology -----------------------------------------------------------


def test_cohomology_table_surface_product():
    spec = make_spec(surfaces(5, 3), [[2, 1], [1, 3]], (0, 0))
    table = cohomology_table(spec)
    e = euler_class(spec)
    assert e == 7
    groups = table.as_dict()
    assert sorted(groups) == list(range(8))
    assert groups[0] == groups[7] == {"free": 1, "torsion": []}
    for p_ in (1, 3, 6):
        assert groups[p_] == {"free": 2 * 5 + 2 * 3, "torsion": []}
    for p_ in (2, 5):
        assert groups[p_] == {"free": 4 * 5 * 3 + 2, "torsion": []}
    assert groups[4] == {"free": 2 * 5 + 2 * 3, "torsion": [e]}


def test_cohomology_degree_four_torsion_is_z_mod_e_with_e_at_least_two():
    # Every K entry is at least 1, so the d = 1 Euler class
    # r0[0] r1[1] + r0[1] r1[0] is at least 2: Z/e is never trivial.
    eulers = []
    for genera in ((0, 0), (2, 3)):
        for entries in itertools.product(range(1, 5), repeat=4):
            spec = make_spec(surfaces(*genera), [entries[:2], entries[2:]])
            e = euler_class(spec)
            assert cohomology_table(spec).as_dict()[4]["torsion"] == [e]
            eulers.append(e)
    assert min(eulers) == 2


def test_cohomology_higher_rank_splits_off_sphere():
    spec = make_spec(surfaces(2, 0), [[1, 1], [1, 1], [1, 1]], (1, 0))
    table = cohomology_table(spec)
    # curve product times S^{2d+1} with d=2: betti of Sigma_2 x CP^1
    # in degrees 0..4 and a shifted copy starting at degree 5
    betti = [1, 4, 2, 4, 1]
    assert table.groups == tuple(
        (degree, rank, ()) for degree, rank in enumerate(betti + betti)
    )


@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    small_rows,
)
@settings(max_examples=60)
def test_cohomology_poincare_duality(g1, g2, rows):
    rows = rows[:2]
    spec = make_spec(surfaces(g1, g2), rows, (0, 0))
    table = cohomology_table(spec)
    ranks = [rank for _, rank, _ in table.groups]
    assert [degree for degree, _, _ in table.groups] == list(range(8))
    assert ranks == ranks[::-1]


# --- homeomorphism keys -----------------------------------------------------


def test_homeo_keys_distinct_on_antidiagonal_family():
    keys = set()
    for k in range(2, 7):
        for l in range(1, k):
            spec = make_spec(LINES, [[k, l], [l, k]], (0, 0))
            keys.add(homeo_key(spec))
    assert len(keys) == 15


def test_homeo_key_requires_antidiagonal_shape():
    with pytest.raises(UnsupportedBaseError):
        homeo_key(make_spec(LINES, [[2, 1], [1, 3]], (0, 0)))
    with pytest.raises(UnsupportedBaseError):
        homeo_key(make_spec(surfaces(1, 0), [[2, 1], [1, 2]], (0, 0)))
