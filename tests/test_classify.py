"""Classification rules, reports, parsing, and the survey."""

import csv as csv_module
import importlib
import io
import itertools
import json
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberjoin import admissible as adm
from fiberjoin import einstein, exactalg
from fiberjoin.admissible import admissible_data
from fiberjoin.classify import (
    CSC_RAY_IN_CONE,
    CSC_REGULAR_RAY,
    EXTREMAL_OPEN_SET,
    EXTREMAL_REGULAR_RAY,
    INCONCLUSIVE,
    SE_EXISTS,
    SE_OBSTRUCTED,
    BoundsTooLargeError,
    SurveyEntry,
    SurveyReport,
    _factor_document,
    classify,
    emit,
    invariant_report,
    parse_factor,
    parse_spec,
    serialize_polynomial,
    serialize_rational,
    spec_report,
    survey,
)
from fiberjoin.exactalg import Polynomial
from fiberjoin.model import (
    BaseFactor,
    BaseProduct,
    SpecError,
    canonical_split_spec,
    make_spec,
)
from oracles import characteristic_product, curvature_equation


# The package exports a ``classify`` function under the module's name.
classify_module = importlib.import_module("fiberjoin.classify")


def curve_pair(g1, g2, rows, split=(0, 0)):
    return make_spec(
        [BaseFactor.surface(g1), BaseFactor.surface(g2)], rows, split
    )


def kinds(spec):
    return [v.kind for v in classify(spec)]


def rules(spec):
    return {v.rule for v in classify(spec)}


def parse_poly(witness_coeffs):
    return Polynomial.from_coeffs([Fraction(c) for c in witness_coeffs])


# --- reference joins --------------------------------------------------------


def test_reference_join_verdicts():
    spec = curve_pair(5, 3, [[2, 1], [1, 3]])
    verdicts = classify(spec)
    assert [v.kind for v in verdicts] == [
        CSC_REGULAR_RAY,
        EXTREMAL_REGULAR_RAY,
        SE_OBSTRUCTED,
    ]
    csc, extremal, se = verdicts
    assert csc.rule == "csc-profile-certificate"
    assert csc.witness == {
        "s": "-1/1",
        "certificate": ["3/4", "-1/6", "1/12"],
    }
    assert extremal.rule == "extremal-profile-certificate"
    assert parse_poly(extremal.witness["profile"]) == Polynomial.from_coeffs(
        [1, 0, -1]
    ) * parse_poly(csc.witness["certificate"])
    assert se.rule == "einstein-obstruction-chain"
    assert "[-11, -8]" in se.citation


def test_second_reference_join():
    spec = curve_pair(18, 14, [[2, 1], [1, 3]])
    verdicts = {v.rule: v for v in classify(spec)}
    assert verdicts["csc-profile-certificate"].witness["s"] == "-6/1"
    assert verdicts["csc-profile-certificate"].witness["certificate"] == [
        "1/3",
        "-1/6",
        "1/2",
    ]


def test_einstein_necessary_conditions_alone_are_inconclusive():
    """c1 = 0 on CP^2 x CP^1 with rows that are not colinear: no
    obstruction fires and no existence rule applies."""
    spec = make_spec(
        [BaseFactor.projective_space(2), BaseFactor.projective_space(1)],
        [[1, 1], [2, 1]],
    )
    assert einstein.se_check(spec).reason == einstein.NECESSARY_CONDITIONS_PASS
    assert [v.kind for v in classify(spec)] == [INCONCLUSIVE]


def test_high_genus_pair_is_inconclusive():
    spec = curve_pair(31, 25, [[2, 1], [1, 3]])
    verdicts = classify(spec)
    assert [v.kind for v in verdicts] == [SE_OBSTRUCTED, INCONCLUSIVE]
    assert verdicts[-1].rule == "none"
    assert verdicts[-1].citation == "no applicable existence rule"


# --- line x line family ------------------------------------------------------


def test_line_times_line_family_always_extremal():
    base = [BaseFactor.surface(0), BaseFactor.surface(0)]
    for k in range(1, 5):
        for l in range(1, 5):
            spec = make_spec(base, [[k, l], [l, k]], (0, 0))
            verdict_rules = rules(spec)
            assert EXTREMAL_REGULAR_RAY in kinds(spec)
            if k == l:
                assert "colinear-subcone-exhausted" in verdict_rules
            else:
                assert "line-times-curve-regular-ray" in verdict_rules


@pytest.mark.parametrize("genus, exhausted", [(4, True), (5, False)])
def test_colinear_subcone_weighs_each_factor_by_c1_times_dimension(genus, exhausted):
    # In the primitive class (1, 1) the base scalar curvature is 3 * 2
    # from CP^2 plus 2 - 2g from the curve: zero at genus 4.  Weighing
    # CP^2 by c1 = 3 alone would make it negative there.
    base = [BaseFactor.projective_space(2), BaseFactor.surface(genus)]
    spec = make_spec(base, [[1, 1], [2, 2]])
    assert ("colinear-subcone-exhausted" in rules(spec)) == exhausted


def test_homogeneous_line_pair_einstein():
    spec = make_spec(
        [BaseFactor.surface(0), BaseFactor.surface(0)], [[1, 1], [1, 1]], (0, 0)
    )
    assert SE_EXISTS in kinds(spec)


# --- high-genus line x curve: no extrapolation -------------------------------


def marked_spec(g, rows, factors=None, split=(1, 1)):
    if factors is None:
        factors = [BaseFactor.surface(0), BaseFactor.surface(g)]
    return make_spec(factors, rows, split)


def test_high_genus_line_times_curve_exact_matrix_only():
    fire = marked_spec(3, [[2, 3], [2, 3], [1, 1], [1, 1]])
    assert "line-times-curve-regular-ray" in rules(fire)

    perturbed = [
        marked_spec(3, [[2, 3], [2, 3], [1, 2], [1, 2]]),
        marked_spec(3, [[3, 3], [3, 3], [1, 1], [1, 1]]),
        marked_spec(3, [[2, 4], [2, 4], [1, 1], [1, 1]]),
        marked_spec(3, [[2, 3], [1, 1], [1, 1], [1, 1]], split=(0, 2)),
    ]
    for spec in perturbed:
        assert "line-times-curve-regular-ray" not in rules(spec)


def test_high_genus_marked_matrix_factor_order_free():
    spec = marked_spec(
        4,
        [[4, 2], [4, 2], [1, 1], [1, 1]],
        factors=[BaseFactor.surface(4), BaseFactor.surface(0)],
    )
    assert "line-times-curve-regular-ray" in rules(spec)


def test_low_genus_line_times_curve_any_admissible_matrix():
    for g in (0, 1):
        spec = marked_spec(g, [[5, 2], [5, 2], [1, 7], [1, 7]])
        assert "line-times-curve-regular-ray" in rules(spec)


# --- single-curve rules -------------------------------------------------------


def two_block(genus, b1, b2, split):
    d0, dinf = split
    rows = [[b1]] * (d0 + 1) + [[b2]] * (dinf + 1)
    return make_spec([BaseFactor.surface(genus)], rows, split)


def test_curve_two_block_window():
    # genus 2 gives ratio 2(1-g)/(b1-b2) = -2/(b1-b2)
    assert "curve-two-block-window" in rules(two_block(2, 2, 1, (1, 1)))
    assert "curve-two-block-window" in rules(two_block(2, 1, 2, (1, 1)))
    # ratio -2 misses the window [0, 2] of split (0, 1)
    assert "curve-two-block-window" not in rules(two_block(2, 2, 1, (0, 1)))
    assert "curve-two-block-window" in rules(two_block(2, 1, 3, (0, 1)))
    # mirrored split flips the window
    assert "curve-two-block-window" in rules(two_block(2, 2, 1, (1, 0)))
    assert "curve-two-block-window" not in rules(two_block(2, 1, 2, (1, 0)))


def test_curve_two_block_low_genus_unconditional():
    for genus in (0, 1):
        for split in ((0, 0), (0, 1), (2, 1)):
            assert "curve-two-block-window" in rules(
                two_block(genus, 4, 1, split)
            )


def test_equal_blocks_high_genus_no_window():
    assert "curve-two-block-window" not in rules(two_block(3, 2, 2, (1, 1)))


def test_line_triple():
    spec = make_spec([BaseFactor.surface(0)], [[1], [2], [5]], None)
    verdicts = classify(spec)
    assert [v.kind for v in verdicts] == [
        EXTREMAL_OPEN_SET,
        EXTREMAL_REGULAR_RAY,
        SE_OBSTRUCTED,
    ]
    assert "line-triple-regular-ray" in {v.rule for v in verdicts}
    over_line = make_spec([BaseFactor.projective_space(1)], [[1], [1], [2]], None)
    assert "line-triple-regular-ray" in rules(over_line)


def test_line_triple_needs_three_summands_and_genus_zero():
    assert "line-triple-regular-ray" not in rules(
        make_spec([BaseFactor.surface(0)], [[1], [2]], None)
    )
    assert "line-triple-regular-ray" not in rules(
        make_spec([BaseFactor.surface(1)], [[1], [2], [5]], None)
    )


TORUS, LINE, PLANE = (
    BaseFactor.torus(),
    BaseFactor.projective_space(1),
    BaseFactor.projective_space(2),
)
GENUS_TWO = BaseFactor.surface(2)

RULES_FIRED = {
    "torus-x-torus": (
        [TORUS, TORUS],
        [[2, 1], [1, 3]],
        (0, 0),
        ["extremal-profile-certificate", "einstein-obstruction-chain"],
    ),
    "torus-x-line": (
        [TORUS, LINE],
        [[2, 1], [1, 3]],
        (0, 0),
        [
            "super-admissible-nonneg-product",
            "line-times-curve-regular-ray",
            "extremal-profile-certificate",
            "einstein-obstruction-chain",
        ],
    ),
    "plane-x-torus": (
        [PLANE, TORUS],
        [[2, 1], [1, 3]],
        (0, 0),
        ["super-admissible-nonneg-product", "einstein-obstruction-chain"],
    ),
    "g2-x-line": (
        [GENUS_TWO, LINE],
        [[2, 1], [1, 3]],
        (0, 0),
        ["extremal-profile-certificate", "einstein-obstruction-chain"],
    ),
    "line-x-g2-colinear": (
        [LINE, GENUS_TWO],
        [[2, 2]] * 2 + [[1, 1]] * 2,
        (1, 1),
        [
            "colinear-extremal-base",
            "line-times-curve-regular-ray",
            "einstein-obstruction-chain",
        ],
    ),
    "line-x-g2-unmarked": (
        [LINE, GENUS_TWO],
        [[2, 3]] * 2 + [[1, 1]] * 2,
        (1, 1),
        ["einstein-obstruction-chain", "none"],
    ),
    "torus-equal-blocks": (
        [TORUS],
        [[2]] * 4,
        (1, 1),
        [
            "colinear-extremal-base",
            "curve-two-block-window",
            "einstein-obstruction-chain",
        ],
    ),
}


@pytest.mark.parametrize(
    "factors, rows, split, fired", RULES_FIRED.values(), ids=RULES_FIRED.keys()
)
def test_rules_fired_by_name(factors, rows, split, fired):
    # Two genus-one curves are not a nonnegative local product; one
    # genus-one curve beside a line or a plane is.  A genus-two curve
    # lets the line-times-curve rule fire only on the marked matrix.
    # The two-block rule needs a split but no retained factor.
    spec = make_spec(factors, rows, split)
    assert [v.rule for v in classify(spec)] == fired


# --- fallback ----------------------------------------------------------------


def test_fallback_without_split():
    spec = make_spec(
        [BaseFactor.torus(), BaseFactor.surface(2)], [[1, 1], [1, 2]], None
    )
    verdicts = classify(spec)
    assert [v.kind for v in verdicts] == [SE_OBSTRUCTED, INCONCLUSIVE]


def test_fallback_absent_when_any_existence_rule_fires():
    spec = curve_pair(5, 3, [[2, 1], [1, 3]])
    assert INCONCLUSIVE not in kinds(spec)


# --- witness revalidation -----------------------------------------------------


genus_st = st.integers(0, 6)
entry_st = st.integers(1, 5)


@given(genus_st, genus_st, entry_st, entry_st, entry_st, entry_st)
@settings(max_examples=120, deadline=None)
def test_witnesses_revalidate(g1, g2, a, b, c, d):
    spec = curve_pair(g1, g2, [[a, b], [c, d]])
    for verdict in classify(spec):
        if verdict.rule == "csc-profile-certificate":
            data = admissible_data(spec)
            (e1, e2) = data.base_entries
            s = Fraction(verdict.witness["s"])
            assert curvature_equation(e1.s, e1.r, e2.r, s) == 0
            assert curvature_equation(e2.s, e2.r, e1.r, s) == 0
            quadratic = parse_poly(verdict.witness["certificate"])
            expected = Polynomial.linear(1, e1.r) * Polynomial.linear(
                1, e2.r
            ) + (1 - s / 2) * e1.r * e2.r * Polynomial.from_coeffs([1, 0, -1])
            assert quadratic == expected
        if verdict.rule == "extremal-profile-certificate":
            profile = parse_poly(verdict.witness["profile"])
            p = characteristic_product(admissible_data(spec))
            assert profile(1) == 0 and profile(-1) == 0
            assert profile.derivative()(1) == -2 * p(1)
            assert profile.derivative()(-1) == 2 * p(-1)


@given(genus_st, genus_st, entry_st, entry_st, entry_st, entry_st)
@settings(max_examples=60, deadline=None)
def test_classify_deterministic(g1, g2, a, b, c, d):
    spec = curve_pair(g1, g2, [[a, b], [c, d]])
    assert classify(spec) == classify(spec)


def test_classify_solves_each_profile_once(monkeypatch):
    """The CSC and extremal verdicts come from one admissible data and
    one extremal solve, whose 2x2 is solved in place, not by the
    general ``solve_linear``."""
    calls = Counter()
    for module, name in (
        (adm, "admissible_data"),
        (adm, "extremal_profile"),
        (exactalg, "solve_linear"),
    ):
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    # Counted too if admissible imports solve_linear again.
    monkeypatch.setattr(adm, "solve_linear", exactalg.solve_linear, raising=False)
    assert "csc-profile-certificate" in rules(curve_pair(5, 3, [[2, 1], [1, 3]]))
    counts = (calls["admissible_data"], calls["extremal_profile"], calls["solve_linear"])
    assert counts == (1, 1, 0)


def test_classify_derives_each_rule_fact_once(monkeypatch):
    """Every rule reads one record of the join's facts, so one call
    decides colinearity; the second ``retained_factors`` call is made
    inside ``admissible_data``."""
    calls = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("fiberjoin.")]
    for name in ("is_colinear", "regular_join_data", "retained_factors"):
        original = getattr(sys.modules["fiberjoin.model"], name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    # Colinear, d = 1, split (0, 0), and c1 != 0, so se_check stops early.
    spec = curve_pair(2, 3, [[2, 2], [1, 1]])
    verdicts = sys.modules["fiberjoin.classify"].classify(spec)
    assert "colinear-subcone-csc" in {v.rule for v in verdicts}
    assert calls == {"is_colinear": 1, "regular_join_data": 1, "retained_factors": 2}


# --- reports and serialization ------------------------------------------------


def test_serialize_rational():
    assert serialize_rational(Fraction(-1)) == "-1/1"
    assert serialize_rational(Fraction(3, 4)) == "3/4"
    assert serialize_rational(Fraction(-2, 6)) == "-1/3"


def test_serialize_polynomial():
    poly = Polynomial.from_coeffs([Fraction(3, 4), Fraction(-1, 6), Fraction(1, 12)])
    assert serialize_polynomial(poly) == ["3/4", "-1/6", "1/12"]


@given(st.lists(st.fractions(max_denominator=10**6), max_size=8))
@settings(max_examples=200, deadline=None)
def test_serialize_polynomial_matches_coefficients(coeffs):
    """The numerator form gives each coefficient's lowest terms."""
    poly = Polynomial.from_coeffs(coeffs)
    assert serialize_polynomial(poly) == [serialize_rational(c) for c in poly.coeffs]


def test_invariant_report_reference():
    report = invariant_report(curve_pair(5, 3, [[2, 1], [1, 3]]))
    assert report.base == "surface(genus=5) x surface(genus=3)"
    assert (report.d, report.n) == (1, 2)
    assert report.split == (0, 0)
    assert not report.colinear
    assert report.join_b is None and report.join_w is None
    assert report.c1 == (-11, -8)
    assert report.euler == 7
    assert report.p1 == 2 * (2 - 1) * (1 - 3)
    assert report.spin == "non_spin"
    assert report.cohomology is not None


def test_invariant_report_colinear_join_data():
    spec = make_spec(
        [BaseFactor.projective_space(2)], [[2], [4]], None
    )
    report = invariant_report(spec)
    assert report.colinear
    assert report.join_b == 2
    assert report.join_w == (1, 2)
    assert report.euler is None and report.p1 is None


def test_spec_report_is_json_ready():
    doc = spec_report(curve_pair(5, 3, [[2, 1], [1, 3]]))
    text = emit(doc)
    parsed = json.loads(text)
    assert set(parsed) == {"invariants", "verdicts"}
    assert parsed["verdicts"][0]["witness"]["s"] == "-1/1"


def test_emit_rejects_csv_for_single_reports():
    with pytest.raises(SpecError):
        emit(spec_report(curve_pair(5, 3, [[2, 1], [1, 3]])), "csv")


# --- document parsing ----------------------------------------------------------


def test_parse_spec_round_trip():
    doc = {
        "base": [
            {"kind": "surface", "genus": 5},
            {"kind": "surface", "genus": 3},
        ],
        "K": [[2, 1], [1, 3]],
        "split": [0, 0],
    }
    spec = parse_spec(doc)
    assert spec == curve_pair(5, 3, [[2, 1], [1, 3]])


def test_parse_spec_optional_split():
    doc = {"base": [{"kind": "torus"}], "K": [[1], [2]]}
    assert parse_spec(doc).split is None


def test_parse_factor_errors():
    with pytest.raises(SpecError):
        parse_factor({"kind": "lens_space"})
    with pytest.raises(SpecError):
        parse_factor("surface")
    with pytest.raises(SpecError):
        parse_spec({"K": [[1]]})
    with pytest.raises(SpecError):
        parse_spec(
            {"base": [{"kind": "torus"}], "K": [[1], [2]], "split": [0, 0, 1]}
        )


# --- survey ---------------------------------------------------------------------


def test_survey_identical_factors_orbit_count():
    base = BaseProduct((BaseFactor.surface(0), BaseFactor.surface(0)))
    report = survey(base, (0, 0), 2)
    assert len(report.entries) == 7


def test_survey_mixed_factors_orbit_count():
    base = BaseProduct((BaseFactor.surface(0), BaseFactor.surface(1)))
    report = survey(base, (0, 0), 2)
    assert len(report.entries) == 10


def test_survey_entries_are_canonical_and_sorted():
    base = BaseProduct((BaseFactor.surface(0), BaseFactor.surface(0)))
    report = survey(base, (0, 1), 2)
    keys = [entry.matrix.rows for entry in report.entries]
    assert keys == sorted(keys)
    for entry in report.entries:
        spec = make_spec(base.factors, [list(r) for r in entry.matrix.rows], (0, 1))
        assert canonical_split_spec(spec).matrix.rows == entry.matrix.rows


def test_survey_displayed_matrix_matches_invariants_and_verdicts():
    base = BaseProduct((BaseFactor.surface(0), BaseFactor.surface(2)))
    report = survey(base, (0, 0), 2)
    for entry in report.entries:
        spec = make_spec(base.factors, [list(r) for r in entry.matrix.rows], (0, 0))
        assert invariant_report(spec) == entry.invariants
        assert tuple(classify(spec)) == entry.verdicts


def test_survey_minimal():
    base = BaseProduct((BaseFactor.surface(1),))
    report = survey(base, (0, 0), 1)
    assert len(report.entries) == 1
    assert report.entries[0].matrix.rows == ((1,), (1,))


def test_survey_cap():
    base = BaseProduct((BaseFactor.surface(0), BaseFactor.surface(0)))
    with pytest.raises(BoundsTooLargeError):
        survey(base, (0, 0), 10, cap=100)
    with pytest.raises(SpecError):
        survey(base, (0, 0), 0)
    # The cap counts column-pair multisets: C(3**2 + 1, 2) = 45 here.
    assert len(survey(base, (0, 0), 3, cap=45).entries) == 27
    with pytest.raises(BoundsTooLargeError, match="exceed"):
        survey(base, (0, 0), 3, cap=44)
    mixed = BaseProduct((BaseFactor.surface(0), BaseFactor.surface(1)))
    # Split (1, 0) has d = 2: 4 * 4 multisets times 2 = 32.
    survey(mixed, (1, 0), 2, cap=32)
    with pytest.raises(BoundsTooLargeError):
        survey(mixed, (1, 0), 2, cap=31)


def test_survey_cap_rejects_huge_requests_without_counting_them():
    wide = BaseProduct((BaseFactor.surface(0),) * 100_000)
    with pytest.raises(BoundsTooLargeError):
        survey(wide, (0, 0), 2)
    single = BaseProduct((BaseFactor.surface(0),))
    with pytest.raises(BoundsTooLargeError):
        survey(single, (0, 0), 10**1000)


def test_survey_cap_counts_the_split(monkeypatch):
    def built(*args):
        raise AssertionError("the cap must be checked before any spec is built")

    monkeypatch.setattr(classify_module, "make_spec", built)
    base = BaseProduct((BaseFactor.surface(0), BaseFactor.surface(2)))
    # 16 multisets times d = 100,001 passes the default cap.
    with pytest.raises(BoundsTooLargeError):
        survey(base, (0, 10**5), 2)
    # Reached only when the split is counted, so no 10**9-row list is built.
    with pytest.raises(BoundsTooLargeError):
        survey(base, (0, 10**9), 2)


@pytest.mark.parametrize(
    "split, max_entry, cap",
    [
        ((-1, 0), 2, 100),
        ((0, -1), 2, 100),
        ([0], 2, 100),
        ((0, True), 2, 100),
        ((0, 0), 2.5, 100),
        ((0, 0), True, 100),
        ((0, 0), 2, "7"),
    ],
    ids=["d0", "dinf", "one-entry", "bool-entry", "float-bound", "bool-bound", "str-cap"],
)
def test_survey_refuses_a_bad_request_at_the_call(monkeypatch, split, max_entry, cap):
    def built(*args):
        raise AssertionError("the request must be refused before any spec is built")

    monkeypatch.setattr(classify_module, "make_spec", built)
    base = BaseProduct((BaseFactor.surface(0), BaseFactor.surface(2)))
    with pytest.raises(SpecError):
        survey(base, split, max_entry, cap)


def test_survey_takes_a_list_split():
    base = BaseProduct((BaseFactor.surface(0), BaseFactor.surface(2)))
    report = survey(base, [0, 0], 2)
    assert report.split == (0, 0)
    assert report == survey(base, (0, 0), 2)


def multiset_count(base, max_entry):
    groups = Counter(base.factors).values()
    return math.prod(math.comb(max_entry**2 + g - 1, g) for g in groups)


@pytest.fixture
def unclassified(monkeypatch):
    """Survey enumeration alone: orbits are found but not classified."""
    monkeypatch.setattr(classify_module, "invariant_report", lambda spec: None)
    monkeypatch.setattr(classify_module, "classify", lambda spec: ())


@pytest.mark.parametrize(
    "width, max_entry, orbits",
    [(2, 6, 351), (2, 10, 2575), (3, 4, 430), (4, 3, 267)],
)
def test_survey_orbit_counts(unclassified, width, max_entry, orbits):
    base = BaseProduct((BaseFactor.surface(0),) * width)
    keys = [entry.matrix.rows for entry in survey(base, (0, 0), max_entry).entries]
    assert len(keys) == orbits
    assert keys == sorted(set(keys))


def test_survey_over_both_torus_spellings(unclassified):
    """The two spellings of the torus form one group of identical factors."""
    mixed = BaseProduct((BaseFactor("torus"), BaseFactor.torus()))
    same = BaseProduct((BaseFactor.torus(), BaseFactor.torus()))
    assert len(survey(mixed, (0, 0), 3).entries) == 27
    assert len(survey(same, (0, 0), 3).entries) == 27


def test_survey_of_twelve_identical_factors():
    base = BaseProduct((BaseFactor.surface(0),) * 12)
    report = survey(base, (0, 0), 1)
    assert [entry.matrix.rows for entry in report.entries] == [((1,) * 12,) * 2]


@pytest.mark.parametrize(
    "factors, split, max_entry",
    [
        ((BaseFactor.surface(0),) * 4, (0, 0), 3),
        ((BaseFactor.surface(0),) * 3, (1, 0), 2),
        ((BaseFactor.torus(), BaseFactor.surface(0), BaseFactor.torus()), (1, 1), 2),
    ],
)
def test_survey_builds_one_spec_per_orbit(
    unclassified, monkeypatch, factors, split, max_entry
):
    built = []
    make = classify_module.make_spec

    def counted(*args, **kwargs):
        built.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(classify_module, "make_spec", counted)
    base = BaseProduct(factors)
    report = survey(base, split, max_entry)
    assert built == []  # entries are built when they are read
    entries = list(report.entries)
    assert len(built) == len(entries) == len(report.entries)
    assert len(built) <= multiset_count(base, max_entry)


@pytest.mark.parametrize(
    "factors, split, max_entry",
    [
        ((BaseFactor.surface(0),) * 3, (0, 0), 2),
        ((BaseFactor.torus(), BaseFactor.surface(0), BaseFactor.torus()), (1, 0), 2),
        (
            (BaseFactor.surface(0), BaseFactor.surface(2), BaseFactor.surface(0)),
            (1, 1),
            3,
        ),
    ],
)
def test_survey_matches_candidate_deduplication(factors, split, max_entry):
    base = BaseProduct(factors)
    # Every candidate pair, canonicalised, duplicates dropped.
    d0, dinf = split
    seen = {}
    values = range(1, max_entry + 1)
    for w0 in itertools.product(values, repeat=len(factors)):
        for winf in itertools.product(values, repeat=len(factors)):
            rows = [list(w0)] * (d0 + 1) + [list(winf)] * (dinf + 1)
            spec = canonical_split_spec(make_spec(base.factors, rows, (d0, dinf)))
            if spec.matrix.rows in seen:
                continue
            seen[spec.matrix.rows] = SurveyEntry(
                matrix=spec.matrix,
                invariants=invariant_report(spec),
                verdicts=tuple(classify(spec)),
            )
    expected = SurveyReport(
        base=base,
        split=split,
        max_entry=max_entry,
        entries=tuple(seen[key] for key in sorted(seen)),
    )
    report = survey(base, split, max_entry)
    assert (report.base, report.split, report.max_entry) == (base, split, max_entry)
    assert list(report.entries) == list(expected.entries)
    assert emit(report, "json") == emit(expected, "json")
    assert emit(report, "csv") == emit(expected, "csv")


def test_survey_document_shape():
    base = BaseProduct((BaseFactor.surface(0),))
    report = survey(base, (0, 0), 2)
    doc = json.loads(emit(report))
    assert set(doc) == {"base", "split", "max_entry", "entries"}
    assert doc["base"] == [{"kind": "surface", "genus": 0}]
    assert doc["split"] == [0, 0]
    assert len(doc["entries"]) == len(report.entries)
    for entry in doc["entries"]:
        assert set(entry) == {"K", "invariants", "verdicts"}


def test_survey_csv_shape():
    base = BaseProduct((BaseFactor.surface(0), BaseFactor.surface(0)))
    report = survey(base, (0, 0), 2)
    text = emit(report, "csv")
    parsed = list(csv_module.reader(io.StringIO(text)))
    assert parsed[0] == [
        "K", "d", "n", "colinear", "c1", "euler", "p1", "spin", "verdicts",
    ]
    assert len(parsed) == len(report.entries) + 1
    first = parsed[1]
    rows = [
        [int(x) for x in chunk.split(",")] for chunk in first[0].split(";")
    ]
    assert len(rows) == 2 and len(rows[0]) == 2
    assert text == reference_csv(report)


def test_survey_entries_are_a_read_only_sequence():
    base = BaseProduct((BaseFactor.surface(0), BaseFactor.surface(2)))
    entries = survey(base, (1, 0), 2).entries
    everything = tuple(entries)
    assert entries[-1] == everything[-1]
    assert entries[1:3] == everything[1:3]
    assert entries[::-2] == everything[::-2]
    with pytest.raises(IndexError):
        entries[len(everything)]
    with pytest.raises(TypeError):
        entries[0] = everything[0]
    assert survey(base, (1, 0), 2) == survey(base, (1, 0), 2)
    assert survey(base, (1, 0), 2) != survey(base, (0, 1), 2)


# --- the survey writer against the documents it replaced ------------------------


def reference_document(report):
    """The whole survey as one document, as the writer used to build it."""
    return {
        "base": [_factor_document(f) for f in report.base.factors],
        "split": list(report.split),
        "max_entry": report.max_entry,
        "entries": [
            {
                "K": [list(row) for row in entry.matrix.rows],
                "invariants": entry.invariants.as_dict(),
                "verdicts": [v.as_dict() for v in entry.verdicts],
            }
            for entry in report.entries
        ],
    }


def reference_csv(report):
    """One row per canonical matrix: flattened invariants plus the
    sorted set of verdict kinds, written in one piece."""
    out = io.StringIO()
    writer = csv_module.writer(out)
    writer.writerow(
        ["K", "d", "n", "colinear", "c1", "euler", "p1", "spin", "verdicts"]
    )
    for entry in report.entries:
        inv = entry.invariants
        writer.writerow(
            [
                ";".join(",".join(str(e) for e in row) for row in entry.matrix.rows),
                inv.d,
                inv.n,
                inv.colinear,
                ",".join(str(c) for c in inv.c1),
                inv.euler if inv.euler is not None else "",
                inv.p1 if inv.p1 is not None else "",
                inv.spin if inv.spin is not None else "",
                ";".join(sorted({v.kind for v in entry.verdicts})),
            ]
        )
    return out.getvalue()


WRITER_FACTORS = st.sampled_from(
    [BaseFactor.surface(g) for g in range(4)]
    + [BaseFactor.torus()]
    + [BaseFactor.projective_space(n) for n in (1, 2)]
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(WRITER_FACTORS, min_size=1, max_size=3),
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
    st.integers(1, 3),
    st.sampled_from(["json", "csv"]),
)
def test_survey_writer_matches_the_whole_document(factors, split, max_entry, fmt):
    base = BaseProduct(tuple(factors))
    text = emit(survey(base, split, max_entry), fmt)
    report = survey(base, split, max_entry)
    held = SurveyReport(report.base, report.split, report.max_entry, tuple(report.entries))
    if fmt == "json":
        assert text == json.dumps(reference_document(held), indent=2)
    else:
        assert text == reference_csv(held)


def test_survey_writer_on_a_report_without_entries():
    base = BaseProduct((BaseFactor.surface(0),))
    empty = SurveyReport(base, (0, 0), 1, ())
    assert emit(empty) == json.dumps(reference_document(empty), indent=2)
    assert emit(empty, "csv") == reference_csv(empty)
    with pytest.raises(SpecError, match="unsupported format"):
        emit(empty, "xml")
