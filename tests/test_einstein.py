"""Obstruction chain, existence upgrades, and the solution count."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberjoin.einstein import NotFanoError, fano_index, se_check
from fiberjoin.model import BaseFactor, BaseProduct, make_spec
from fiberjoin.topology import c1_contact


def brute_partitions(total, parts):
    """Enumerate nondecreasing positive tuples directly."""

    def count(remaining, k, minimum):
        if k == 0:
            return 1 if remaining == 0 else 0
        return sum(
            count(remaining - v, k - 1, v)
            for v in range(minimum, remaining // k + 1)
        )

    return count(total, parts, 1)


# --- fano index -----------------------------------------------------------


def test_fano_index_values():
    assert fano_index(BaseProduct((BaseFactor.projective_space(3),))) == 4
    assert (
        fano_index(
            BaseProduct(
                (BaseFactor.projective_space(2), BaseFactor.projective_space(5))
            )
        )
        == 3
    )
    assert fano_index(BaseProduct((BaseFactor.surface(0),))) == 2
    mixed = BaseProduct((BaseFactor.surface(0), BaseFactor.projective_space(1)))
    assert fano_index(mixed) == 2


def test_fano_index_rejects_nonpositive():
    with pytest.raises(NotFanoError):
        fano_index(BaseProduct((BaseFactor.torus(),)))
    with pytest.raises(NotFanoError):
        fano_index(BaseProduct((BaseFactor.surface(2),)))


# --- obstruction chain ----------------------------------------------------


def test_equal_blocks_obstruction_precedes_chern_class():
    spec = make_spec(
        [BaseFactor.projective_space(1)], [[2], [2], [1], [1]], (1, 1)
    )
    verdict = se_check(spec)
    assert not verdict.possible
    assert "equal split blocks" in verdict.reason
    # same matrix without the split data falls through to the c1 test
    no_split = make_spec([BaseFactor.projective_space(1)], [[2], [2], [1], [1]], None)
    fallback = se_check(no_split)
    assert not fallback.possible
    assert "first Chern class" in fallback.reason


def test_equal_blocks_obstruction_at_base_dimension():
    spec = make_spec(
        [BaseFactor.projective_space(2)], [[1]] * 6, (2, 2)
    )
    verdict = se_check(spec)
    assert not verdict.possible
    assert "equal split blocks" in verdict.reason


def test_unequal_blocks_escape_the_blanket():
    spec = make_spec(
        [BaseFactor.projective_space(1)], [[1], [1], [1]], (0, 1)
    )
    verdict = se_check(spec)
    assert not verdict.possible
    assert "first Chern class" in verdict.reason


def test_nonzero_chern_class_blocks():
    spec = make_spec(
        [BaseFactor.projective_space(2), BaseFactor.surface(0)],
        [[1, 1], [1, 1]],
        None,
    )
    verdict = se_check(spec)
    assert not verdict.possible
    assert "first Chern class" in verdict.reason


def test_torus_factor_always_blocked():
    spec = make_spec(
        [BaseFactor.torus(), BaseFactor.surface(0)], [[1, 1], [1, 1]], None
    )
    assert not se_check(spec).possible


# --- existence upgrades -----------------------------------------------------


def test_projective_line_pair_counts():
    for n in range(1, 21):
        spec = make_spec([BaseFactor.projective_space(n)], [[1], [n]], None)
        verdict = se_check(spec)
        assert verdict.possible
        assert verdict.count == (n + 1) // 2
        assert verdict.count == brute_partitions(n + 1, 2)
        assert "multiples summing to the index" in verdict.reason


def test_count_sees_every_multiple_split():
    for b1 in range(1, 5):
        spec = make_spec([BaseFactor.projective_space(4)], [[b1], [5 - b1]], None)
        assert se_check(spec).count == 2


def test_genus_zero_surface_counts_like_the_line():
    spec = make_spec([BaseFactor.surface(0)], [[1], [1]], None)
    verdict = se_check(spec)
    assert verdict.possible
    assert verdict.count == 1


def test_homogeneous_join_exists():
    spec = make_spec([BaseFactor.projective_space(2)], [[1], [1], [1]], None)
    verdict = se_check(spec)
    assert verdict.possible
    assert verdict.count is None
    assert "homogeneous join" in verdict.reason


def test_homogeneous_join_over_product():
    spec = make_spec(
        [BaseFactor.projective_space(1), BaseFactor.projective_space(1)],
        [[1, 1], [1, 1]],
        None,
    )
    verdict = se_check(spec)
    assert verdict.possible
    assert "homogeneous join" in verdict.reason


def test_colinear_product_passes_without_upgrade():
    spec = make_spec(
        [BaseFactor.projective_space(1), BaseFactor.projective_space(3)],
        [[1, 2], [1, 2]],
        None,
    )
    verdict = se_check(spec)
    assert verdict.possible
    assert verdict.count is None
    assert verdict.reason == "necessary conditions pass"


def test_non_colinear_necessary_pass():
    spec = make_spec(
        [BaseFactor.projective_space(2), BaseFactor.projective_space(1)],
        [[1, 1], [2, 1]],
        None,
    )
    verdict = se_check(spec)
    assert verdict.possible
    assert verdict.reason == "necessary conditions pass"


# --- properties -------------------------------------------------------------


factor_pool = st.sampled_from(
    [
        BaseFactor.projective_space(1),
        BaseFactor.projective_space(2),
        BaseFactor.surface(0),
        BaseFactor.surface(1),
        BaseFactor.surface(2),
        BaseFactor.torus(),
    ]
)


@st.composite
def random_specs(draw):
    factors = draw(st.lists(factor_pool, min_size=1, max_size=3))
    width = len(factors)
    rows = draw(
        st.lists(
            st.lists(st.integers(1, 3), min_size=width, max_size=width),
            min_size=2,
            max_size=4,
        )
    )
    return make_spec(factors, rows, None)


@given(random_specs())
@settings(max_examples=150, deadline=None)
def test_possible_verdicts_need_vanishing_chern_class(spec):
    verdict = se_check(spec)
    if verdict.possible:
        assert all(c == 0 for c in c1_contact(spec))
    if any(c != 0 for c in c1_contact(spec)):
        assert not verdict.possible


@given(st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_line_join_over_projective_space(b1, b2):
    """d=1 colinear joins over a single projective space of matching index."""
    n = b1 + b2 - 1
    spec = make_spec([BaseFactor.projective_space(n)], [[b1], [b2]], None)
    verdict = se_check(spec)
    assert verdict.possible
    assert verdict.count == (n + 1) // 2
