"""Classification rules, reports, parsing, and the survey."""

import csv as csv_module
import importlib
import inspect
import io
import itertools
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fiberjoin
from fiberjoin import admissible as adm
from fiberjoin import einstein, exactalg, model
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
    _json_text,
    classify,
    emit,
    invariant_report,
    parse_factor,
    parse_spec,
    serialize_polynomial,
    serialize_rational,
    spec_report,
    survey,
    survey_chunks,
)
from fiberjoin.cli import main
from fiberjoin.exactalg import Polynomial
from fiberjoin.model import (
    BaseFactor,
    BaseProduct,
    SpecError,
    canonical_columns,
    canonical_split_spec,
    identical_factor_groups,
    make_spec,
)
from oracles import FractionPolynomial, characteristic_product, curvature_equation
from test_cli import specs
from test_golden import join_documents


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


def survey_text(report, fmt="json"):
    """A survey's whole text, as ``survey_chunks`` writes it."""
    return "".join(survey_chunks(report, fmt))


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
    assert csc.witness == (("s", "-1/1"), ("certificate", ("3/4", "-1/6", "1/12")))
    assert csc.as_dict()["witness"] == {
        "s": "-1/1",
        "certificate": ["3/4", "-1/6", "1/12"],
    }
    assert extremal.rule == "extremal-profile-certificate"
    certificate = parse_poly(dict(csc.witness)["certificate"]).coeffs
    expected = FractionPolynomial.from_coeffs([1, 0, -1]) * (
        FractionPolynomial.from_coeffs(certificate)
    )
    assert parse_poly(dict(extremal.witness)["profile"]).coeffs == expected.coeffs
    assert se.rule == "einstein-obstruction-chain"
    assert "[-11, -8]" in se.citation


def test_second_reference_join():
    spec = curve_pair(18, 14, [[2, 1], [1, 3]])
    verdicts = {v.rule: v for v in classify(spec)}
    witness = dict(verdicts["csc-profile-certificate"].witness)
    assert witness["s"] == "-6/1"
    assert witness["certificate"] == ("1/3", "-1/6", "1/2")


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


# One join per row of the conclusions table, each firing that row's rule.
TABLE_ROW_JOINS = {
    "colinear-subcone-csc": ([PLANE, BaseFactor.surface(4)], [[1, 1], [2, 2]], None),
    "colinear-subcone-exhausted": ([PLANE, BaseFactor.surface(4)], [[1, 1], [2, 2]], None),
    "colinear-extremal-base": RULES_FIRED["line-x-g2-colinear"][:3],
    "super-admissible-nonneg-product": RULES_FIRED["plane-x-torus"][:3],
    "line-times-curve-regular-ray": RULES_FIRED["torus-x-line"][:3],
    "curve-two-block-window": RULES_FIRED["torus-equal-blocks"][:3],
    "line-triple-regular-ray": ([LINE], [[1], [1], [2]], None),
    "csc-profile-certificate": (
        [BaseFactor.surface(5), BaseFactor.surface(3)],
        [[2, 1], [1, 3]],
        (0, 0),
    ),
    "extremal-profile-certificate": RULES_FIRED["g2-x-line"][:3],
    "none": RULES_FIRED["line-x-g2-unmarked"][:3],
}
EINSTEIN_RULES = {"einstein-obstruction-chain", "einstein-existence"}


def test_conclusions_table_and_rules_in_step():
    """Every row of the table is a rule some join fires, and every rule
    fired on the golden corpus is a row or cites ``se_check``."""
    table = classify_module._CONCLUSIONS
    assert TABLE_ROW_JOINS.keys() == table.keys()
    for rule, (factors, rows, split) in TABLE_ROW_JOINS.items():
        verdict = {v.rule: v for v in classify(make_spec(factors, rows, split))}[rule]
        assert (verdict.kind, verdict.citation) == table[rule]
    fired = set()
    for doc in join_documents():
        try:
            fired |= rules(parse_spec(doc))
        except SpecError:
            continue
    assert fired - EINSTEIN_RULES <= table.keys()


def regular_ray_grid():
    """Fixed joins on which the cited regular-ray rules fire: one curve,
    the projective line with three summands, and a line times a curve."""
    for g, d0, dinf in itertools.product(range(5), range(3), range(3)):
        for w0, winf in itertools.product(range(1, 7), repeat=2):
            yield [BaseFactor.surface(g)], [[w0]] * (d0 + 1) + [[winf]] * (dinf + 1), (d0, dinf)
    for d0, dinf in ((1, 0), (0, 1)):
        for w0, winf in itertools.product(range(1, 8), repeat=2):
            yield [LINE], [[w0]] * (d0 + 1) + [[winf]] * (dinf + 1), (d0, dinf)
    columns = list(itertools.product(range(1, 4), repeat=2))
    for g, (d0, dinf) in itertools.product(range(5), ((0, 0), (1, 0), (0, 1), (1, 1))):
        for w0, winf in itertools.product(columns, repeat=2):
            rows = [list(w0)] * (d0 + 1) + [list(winf)] * (dinf + 1)
            yield [BaseFactor.surface(0), BaseFactor.surface(g)], rows, (d0, dinf)


def test_cited_regular_ray_rules_agree_with_the_extremal_solve():
    """Where a cited regular-ray rule fires and the join is admissible,
    the exact extremal profile is positive: the solve agrees with each
    citation it could replace."""
    cited = {
        "curve-two-block-window",
        "line-triple-regular-ray",
        "line-times-curve-regular-ray",
        "colinear-subcone-exhausted",
    }
    checked = Counter()
    for factors, rows, split in regular_ray_grid():
        spec = make_spec(factors, rows, split)
        fired = rules(spec) & cited
        if not fired:
            continue
        try:
            data = admissible_data(spec)
        except SpecError:
            continue
        assert adm.extremal_profile(data).positive, (factors, rows, split, fired)
        checked.update(fired)
    assert checked == {
        "curve-two-block-window": 1080,
        "line-triple-regular-ray": 144,
        "line-times-curve-regular-ray": 530,
        "colinear-subcone-exhausted": 60,
    }


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
            (e1, e2) = data.entries
            s = Fraction(dict(verdict.witness)["s"])
            assert curvature_equation(e1.s, e1.r, e2.r, s) == 0
            assert curvature_equation(e2.s, e2.r, e1.r, s) == 0
            quadratic = parse_poly(dict(verdict.witness)["certificate"])
            expected = (
                FractionPolynomial.from_coeffs([1, e1.r])
                * FractionPolynomial.from_coeffs([1, e2.r])
                + (1 - s / 2) * e1.r * e2.r * FractionPolynomial.from_coeffs([1, 0, -1])
            )
            assert quadratic.coeffs == expected.coeffs
        if verdict.rule == "extremal-profile-certificate":
            profile = parse_poly(dict(verdict.witness)["profile"])
            p = characteristic_product(admissible_data(spec))
            assert profile(1) == 0 and profile(-1) == 0
            assert profile.derivative()(1) == -2 * p(1)
            assert profile.derivative()(-1) == 2 * p(-1)


@given(genus_st, genus_st, entry_st, entry_st, entry_st, entry_st)
@settings(max_examples=60, deadline=None)
def test_classify_deterministic(g1, g2, a, b, c, d):
    spec = curve_pair(g1, g2, [[a, b], [c, d]])
    assert classify(spec) == classify(spec)


def triples(join):
    """The sorted (kind, rule, citation) of each verdict on ``join``."""
    return sorted((v.kind, v.rule, v.citation) for v in classify(join))


@given(specs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_swapping_the_poles_keeps_invariants_and_verdicts(spec):
    """Reversing K's rows, and the split when one is declared, is the
    same join with its poles swapped: only ``split`` and ``join_w``
    reverse, and the verdicts keep their kinds, rules and citations.
    Witnesses are not compared: a profile F(z) becomes F(-z)."""
    rows = spec.matrix[::-1]
    swapped = make_spec(spec.base, rows, spec.split and spec.split[::-1])
    before, after = invariant_report(spec).as_dict(), invariant_report(swapped).as_dict()
    for key in ("split", "join_w"):
        value = before.pop(key)
        assert after.pop(key) == (value[::-1] if value is not None else None)
    assert after == before
    assert triples(swapped) == triples(spec)


@given(specs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_permuting_the_base_factors_keeps_invariants_and_verdicts(spec):
    """Permuting the base factors together with K's columns is the same
    join: only ``base``'s text and ``c1`` permute, and the verdicts keep
    their kinds, rules and citations, once the c1 list quoted by the
    ``einstein-obstruction-chain`` citation is permuted too.  Every
    order of the factors but the given one is checked."""
    before = invariant_report(spec).as_dict()
    names, c1 = before.pop("base").split(" x "), before.pop("c1")
    for order in list(itertools.permutations(range(len(names))))[1:]:
        factors = [spec.base.factors[i] for i in order]
        rows = [[row[i] for i in order] for row in spec.matrix]
        permuted = make_spec(factors, rows, spec.split)
        after = invariant_report(permuted).as_dict()
        assert after.pop("base") == " x ".join(names[i] for i in order)
        moved = [c1[i] for i in order]
        assert after.pop("c1") == moved
        assert after == before
        expected = sorted(
            (kind, rule, citation.replace(str(c1), str(moved)))
            if rule == "einstein-obstruction-chain"
            else (kind, rule, citation)
            for kind, rule, citation in triples(spec)
        )
        assert triples(permuted) == expected


def assert_respelling_keeps_the_join(spec, old, new):
    """Writing each base factor equal to ``old`` as ``new`` changes the
    report's ``base`` text only: every other invariant, and the sorted
    (kind, rule, citation) triples of the verdicts, are unchanged."""
    factors = [new if f == old else f for f in spec.base.factors]
    respelt = make_spec(factors, spec.matrix, spec.split)
    before, after = invariant_report(spec).as_dict(), invariant_report(respelt).as_dict()
    before.pop("base"), after.pop("base")
    assert after == before
    assert triples(respelt) == triples(spec)


@given(specs())
@settings(max_examples=200, deadline=None, derandomize=True)
@example(make_spec([BaseFactor.torus(), BaseFactor.surface(2)], [[2, 1], [1, 3]], (0, 0)))
def test_a_torus_written_as_a_genus_one_surface_is_the_same_join(spec):
    assert_respelling_keeps_the_join(spec, BaseFactor.torus(), BaseFactor.surface(1))


@given(specs())
@settings(max_examples=200, deadline=None, derandomize=True)
@example(make_spec([BaseFactor.projective_space(1)] * 2, [[2, 1], [1, 3]], (0, 0)))
def test_cp1_written_as_a_genus_zero_surface_is_the_same_join(spec):
    assert_respelling_keeps_the_join(
        spec, BaseFactor.projective_space(1), BaseFactor.surface(0)
    )


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


@pytest.fixture
def solves(monkeypatch):
    """The data of each extremal solve, rebound in its module, where
    ``_rule_profile`` looks it up."""
    calls = []
    original = adm.extremal_profile
    monkeypatch.setattr(adm, "extremal_profile", lambda data: calls.append(data) or original(data))
    return calls


def test_a_survey_request_solves_each_distinct_data_once(monkeypatch, capsys, solves):
    """The benchmark's survey_identical request (bench/workloads.py),
    through the command line in process: its 267 orbits hold 31
    distinct admissible data, each solved once, where a solve per orbit
    on the regular ray would be 123.  A second request parses a fresh
    base and solves them all again: the memo lives for one request."""
    path = Path(adm.__file__).resolve().parents[2] / "bench" / "workloads.py"
    loader = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, "bench_workloads", workloads)
    loader.loader.exec_module(workloads)
    request = workloads.SURVEYS["survey_identical"]
    for _ in range(2):
        solves.clear()
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(request.request)))
        assert main(request.argv) == 0
        assert len(solves) == 31
        assert capsys.readouterr().out.count("\r\n") == request.orbits + 1  # csv rows


def test_columns_with_equal_solve_inputs_share_one_key(solves):
    """Over genus 2 x genus 3, the columns (2, 1), (6, 2) and (3, 1),
    (4, 2) give the entries (s, r) = (-2, 1/3) and (-1, 1/2) in
    swapped order.  Solved apart, the two joins give equal verdicts;
    over one base they share one key, and the second is not solved."""
    first, second = [[2, 6], [1, 2]], [[3, 4], [1, 2]]
    apart = [classify_module._rule_profile(curve_pair(2, 3, rows)) for rows in (first, second)]
    assert apart[0] == apart[1]
    assert "extremal-profile-certificate" in {v.rule for v in apart[0]}
    base = BaseProduct((BaseFactor.surface(2), BaseFactor.surface(3)))
    shared = [classify_module._rule_profile(make_spec(base, rows, (0, 0))) for rows in (first, second)]
    assert shared[0] is shared[1] and shared[0] == apart[0]
    assert len(base.profile_verdicts) == 1 and len(solves) == 3


def test_a_base_keeps_at_most_256_profile_verdicts(solves):
    """Past 256 keys the memo drops its oldest one: genus 0 to the 4th
    at max_entry 4 holds 1,996 orbits, and its data are solved 389
    times."""
    base = BaseProduct((BaseFactor.surface(0),) * 4)
    assert len(survey(base, (0, 0), 4).entries[:]) == 1996
    assert len(solves) == 389 and len(base.profile_verdicts) == 256


LINE = BaseFactor.projective_space(1)


@pytest.mark.parametrize(
    "factors, rows, rule",
    [
        ((LINE, LINE), [[1, 1], [1, 1]], "colinear-subcone-csc"),
        ((LINE, LINE), [[1, 2], [2, 1]], "csc-profile-certificate"),
        ((LINE, LINE), [[1, 1], [1, 2]], "extremal-profile-certificate"),
        ((BaseFactor.projective_space(2),), [[1], [2]], "einstein-existence"),
    ],
    ids=["colinear", "csc-profile", "extremal-profile", "einstein-existence"],
)
def test_verdicts_with_witnesses_hash(factors, rows, rule):
    """A witness is a tuple of (name, value) pairs, so a verdict that
    carries one hashes, and so does a survey entry holding it."""
    spec = make_spec(factors, rows, (0, 0))
    verdicts = tuple(classify(spec))
    verdict = next(v for v in verdicts if v.rule == rule)
    assert verdict.witness is not None
    assert hash(verdict) == hash((verdict.kind, verdict.rule, verdict.citation, verdict.witness))
    entry = SurveyEntry(spec.matrix, invariant_report(spec), verdicts)
    assert hash(entry) == hash(SurveyEntry(spec.matrix, invariant_report(spec), verdicts))


def test_a_shared_witness_cannot_be_edited():
    """Two joins whose data differ only in order share the memo's
    verdicts; editing the first one's witness is refused, so the
    second's answer keeps its own bytes."""
    base = BaseProduct((BaseFactor.surface(0), BaseFactor.surface(0)))
    first, second = (make_spec(base, rows, (0, 0)) for rows in ([[2, 1], [1, 2]], [[1, 2], [2, 1]]))
    expected = emit(spec_report(make_spec(base.factors, [[1, 2], [2, 1]], (0, 0))))
    verdict = next(v for v in classify(first) if v.rule == "extremal-profile-certificate")
    with pytest.raises(TypeError):
        verdict.witness["profile"] = ["tampered"]
    assert emit(spec_report(second)) == expected


def test_classify_derives_each_rule_fact_once(monkeypatch):
    """Every entry point reads the join's one record of facts,
    ``spec.facts``: per join one record is built, one call decides
    colinearity and each derivation the record holds runs at most
    once, for ``classify``, ``spec_report`` and each survey entry."""
    calls = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("fiberjoin.")]
    for name in ("JoinFacts", "is_colinear", "regular_join_data"):
        original = getattr(sys.modules["fiberjoin.model"], name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    once = {"JoinFacts": 1, "is_colinear": 1}
    colinear_once = {**once, "regular_join_data": 1}
    # Colinear, d = 1, split (0, 0), and c1 != 0, so se_check stops early.
    verdicts = sys.modules["fiberjoin.classify"].classify(curve_pair(2, 3, [[2, 2], [1, 1]]))
    assert "colinear-subcone-csc" in {v.rule for v in verdicts}
    assert calls == colinear_once
    for rows, expected in (([[2, 2], [1, 1]], colinear_once), ([[2, 1], [1, 3]], once)):
        calls.clear()
        spec_report(curve_pair(2, 3, rows))
        assert calls == expected
    calls.clear()
    entries = survey(BaseProduct((BaseFactor.surface(2), BaseFactor.surface(3))), (0, 0), 2).entries
    assert not calls  # no join is built before its entry is read
    for i in range(len(entries)):
        calls.clear()
        entry = entries[i]
        assert calls == (colinear_once if entry.invariants.colinear else once)


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


def test_the_package_exports_survey_chunks():
    assert fiberjoin.survey_chunks is classify_module.survey_chunks


def test_emit_rejects_csv_for_single_reports():
    """``emit`` writes one plain document as JSON and takes no format:
    a survey's csv comes from ``survey_chunks``."""
    assert list(inspect.signature(emit).parameters) == ["document"]
    with pytest.raises(TypeError):
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
    keys = [entry.matrix for entry in report.entries]
    assert keys == sorted(keys)
    for entry in report.entries:
        spec = make_spec(base.factors, [list(r) for r in entry.matrix], (0, 1))
        assert canonical_split_spec(spec).matrix == entry.matrix


def test_survey_displayed_matrix_matches_invariants_and_verdicts():
    base = BaseProduct((BaseFactor.surface(0), BaseFactor.surface(2)))
    report = survey(base, (0, 0), 2)
    for entry in report.entries:
        spec = make_spec(base.factors, [list(r) for r in entry.matrix], (0, 0))
        assert invariant_report(spec) == entry.invariants
        assert tuple(classify(spec)) == entry.verdicts


def test_survey_minimal():
    base = BaseProduct((BaseFactor.surface(1),))
    report = survey(base, (0, 0), 1)
    assert len(report.entries) == 1
    assert report.entries[0].matrix == ((1,), (1,))


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
    keys = [entry.matrix for entry in survey(base, (0, 0), max_entry).entries]
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
    assert [entry.matrix for entry in report.entries] == [((1,) * 12,) * 2]


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
            if spec.matrix in seen:
                continue
            seen[spec.matrix] = SurveyEntry(
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
    assert survey_text(report, "json") == survey_text(expected, "json")
    assert survey_text(report, "csv") == survey_text(expected, "csv")


S0, S2, TORUS = BaseFactor.surface(0), BaseFactor.surface(2), BaseFactor.torus()


@pytest.mark.parametrize("split", [(0, 0), (1, 1), (1, 0), (0, 2)])
@pytest.mark.parametrize(
    "factors, max_entry",
    [
        ((S2,), 4),
        ((S0, S2), 3),
        ((S0, S0), 3),
        ((S0, S2, S0), 2),
        ((TORUS, S0, TORUS, S0), 2),
        ((S0, S0, S0), 2),
        ((S2, S0, S0, S0), 2),
    ],
    ids=[
        "one", "two-distinct", "pair", "pair-apart", "two-pairs-apart", "triple", "triple-after"
    ],
)
def test_survey_keys_match_every_candidate_canonicalised(factors, max_entry, split):
    """Every candidate through ``canonical_columns``, duplicates dropped
    and sorted: groups of one, two and three identical factors, whole or
    apart, on symmetric and asymmetric splits."""
    groups = identical_factor_groups(factors)
    d0, dinf = split
    values = range(1, max_entry + 1)
    keys = {
        canonical_columns(list(zip(w0, winf)), groups, swap_poles=d0 == dinf)
        for w0 in itertools.product(values, repeat=len(factors))
        for winf in itertools.product(values, repeat=len(factors))
    }
    report = survey(BaseProduct(factors), split, max_entry)
    assert report.entries.keys == sorted(keys)


def test_equal_surveys_hash_equal_and_collapse_in_a_set():
    """A survey report is a value: two reports of one request are
    equal, hash equal and collapse in a set; another request differs."""
    base = BaseProduct((S2,))
    first, second = survey(base, (0, 0), 2), survey(base, (0, 0), 2)
    assert first == second and first.entries is not second.entries
    assert hash(first) == hash(second)
    assert len({first, second, survey(base, (0, 0), 3)}) == 2


@pytest.fixture
def counted(monkeypatch):
    """Counts of the calls to the base's and the solve's shared facts,
    and of the operator columns by (k, u, v), from empty caches."""
    calls = Counter()

    def count(owner, name, key=None):
        original = getattr(owner, name)

        def counting(*args):
            calls[key(*args) if key else name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counting)

    count(model.BaseFacts, "__init__", key=lambda facts, base: "BaseFacts")
    count(BaseFactor, "describe")
    count(adm, "_operator_column", key=lambda k, u, v: (k, u, v))
    adm._operator_columns.cache_clear()
    yield calls
    adm._operator_columns.cache_clear()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_survey_derives_its_shared_facts_once(counted, fmt):
    """A survey shaped like g2 x g3 at split (0, 0): the base's facts
    and its description, which describes each factor, are derived once
    per survey, not per entry, and the operator
    columns of each (top, u, v) shape once, column k for every shape
    with top >= k; the cached columns are tuples."""
    report = survey(BaseProduct((BaseFactor.surface(2), BaseFactor.surface(3))), (0, 0), 4)
    assert len(report.entries) > 100
    survey_text(report, fmt)
    assert (counted["BaseFacts"], counted["describe"]) == (1, 2)
    shapes = [(2, 0, 0), (3, 0, 0)]
    assert adm._operator_columns.cache_info().misses == len(shapes)
    columns = {key: n for key, n in counted.items() if isinstance(key, tuple)}
    assert columns == Counter((k, u, v) for top, u, v in shapes for k in range(top + 1))
    for top, u, v in shapes:
        shared, lead = adm._operator_columns(top, u, v)
        assert type(shared) is tuple and all(type(column) is tuple for column in shared)
        assert lead == math.prod(column[-1] for column in shared)


def test_survey_document_shape():
    base = BaseProduct((BaseFactor.surface(0),))
    report = survey(base, (0, 0), 2)
    doc = json.loads(survey_text(report))
    assert set(doc) == {"base", "split", "max_entry", "entries"}
    assert doc["base"] == [{"kind": "surface", "genus": 0}]
    assert doc["split"] == [0, 0]
    assert len(doc["entries"]) == len(report.entries)
    for entry in doc["entries"]:
        assert set(entry) == {"K", "invariants", "verdicts"}


def test_survey_csv_shape():
    base = BaseProduct((BaseFactor.surface(0), BaseFactor.surface(0)))
    report = survey(base, (0, 0), 2)
    text = survey_text(report, "csv")
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
                "K": [list(row) for row in entry.matrix],
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
                ";".join(",".join(str(e) for e in row) for row in entry.matrix),
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
    text = survey_text(survey(base, split, max_entry), fmt)
    report = survey(base, split, max_entry)
    held = SurveyReport(report.base, report.split, report.max_entry, tuple(report.entries))
    if fmt == "json":
        assert text == json.dumps(reference_document(held), indent=2)
    else:
        assert text == reference_csv(held)


def test_survey_writer_on_a_report_without_entries():
    base = BaseProduct((BaseFactor.surface(0),))
    empty = SurveyReport(base, (0, 0), 1, ())
    assert survey_text(empty) == json.dumps(reference_document(empty), indent=2)
    assert survey_text(empty, "csv") == reference_csv(empty)
    with pytest.raises(SpecError, match="unsupported format"):
        survey_chunks(empty, "xml")
    document = reference_document(empty)
    assert emit(document) == json.dumps(document, indent=2)


JSON_TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\n\t\x7f\u00e9\u2028\U0001f600') | st.characters()
)
JSON_SCALARS = (
    JSON_TEXT
    | st.integers()
    | st.integers(-(10**60), 10**60)
    | st.booleans()
    | st.none()
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_TEXT | st.integers(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES, st.integers(0, 8))
def test_json_writer_matches_the_standard_encoder(value, indent):
    """The writer gives the bytes of ``json.dumps(indent=2)``, and at a
    nesting prefix the same text with that prefix after each newline."""
    text = json.dumps(value, indent=2)
    assert emit(value) == text
    prefix = "\n" + " " * indent
    assert _json_text(value, prefix) == text.replace("\n", prefix)
    for foreign in (1.5, Fraction(1, 2), {1}):
        with pytest.raises(TypeError):
            _json_text({"value": [value, foreign]})
