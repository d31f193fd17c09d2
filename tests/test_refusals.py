"""Library calls that refuse their input, each with its exact answer,
the exception and its message; and command-line refusals, each with
its exit code and its one line."""

import importlib
import io
import json
import random
import re
import sys
from fractions import Fraction

import pytest

from fiberjoin.admissible import AdmissibleData, AdmissibleEntry, admissible_data
from fiberjoin.classify import BoundsTooLargeError, _json_text, serialize_rational, survey
from fiberjoin.cli import _unique_keys, main
from fiberjoin.einstein import fano_index, se_check
from fiberjoin.exactalg import (
    Polynomial,
    ZeroPolynomialError,
    count_roots_in_open_interval,
    solve_linear,
    strictly_positive_on,
)
from fiberjoin.model import (
    BaseFactor,
    BaseProduct,
    DigitLimitError,
    FiberJoinSpec,
    NonPositiveEntryError,
    SpecError,
    SplitMismatchError,
    canonical_split_spec,
    make_spec,
)
from fiberjoin.topology import (
    UnsupportedBaseError,
    homeo_key,
)

# The package exports a ``classify`` function under the module's name.
classify_module = importlib.import_module("fiberjoin.classify")

# The longest integer the reader takes: 4,300 digits at the default limit.
NINES = int("9" * 4300)

BASE = BaseProduct((BaseFactor.surface(2),))
UNSPLIT = make_spec([BaseFactor.surface(2), BaseFactor.surface(3)], [[2, 1], [1, 3]])
LINES_THREE_ROWS = make_spec([BaseFactor.projective_space(1)] * 2, [[2, 1]] * 3)
ZERO = Polynomial.from_coeffs([0])
LINE = Polynomial.from_coeffs([1, 1])
ENTRY = AdmissibleEntry("factor_0", 1, Fraction(-2), Fraction(1, 3))

REFUSALS = {
    "torus-genus-2": (
        lambda: BaseFactor("torus", genus=2),
        SpecError("torus factor has genus 1"),
    ),
    "unknown-kind": (
        lambda: BaseFactor("cone"),
        SpecError("unknown base factor kind: 'cone'"),
    ),
    "surface-with-n": (
        lambda: BaseFactor("surface", genus=2, n=3),
        SpecError("surface factor takes no n"),
    ),
    "torus-with-n": (lambda: BaseFactor("torus", n=4), SpecError("torus factor takes no n")),
    "projective-space-with-genus": (
        lambda: BaseFactor("projective_space", n=2, genus=7),
        SpecError("projective space factor takes no genus"),
    ),
    # A spec holds K as a tuple of row tuples; make_spec converts lists.
    "spec-matrix-of-lists": (
        lambda: FiberJoinSpec(BASE, [[2], [3]], (0, 0)),
        SpecError("matrix must be a tuple of rows, each a tuple of integers"),
    ),
    "spec-row-a-list": (
        lambda: FiberJoinSpec(BASE, ((2,), [3]), (0, 0)),
        SpecError("matrix must be a tuple of rows, each a tuple of integers"),
    ),
    # A join's base is a BaseProduct of a tuple of factors; make_spec
    # converts a list of factors.
    "spec-base-a-list": (
        lambda: FiberJoinSpec([BaseFactor.surface(2)], ((2,), (3,)), (0, 0)),
        SpecError("base must be a BaseProduct"),
    ),
    "base-of-a-list": (
        lambda: hash(make_spec(BaseProduct([BaseFactor.surface(2)]), [[2], [3]])),
        SpecError("base must be a tuple of base factors"),
    ),
    "base-of-a-non-factor": (
        lambda: BaseProduct(("x",)).dim_c,
        SpecError("base must be a tuple of base factors"),
    ),
    "canonical-unsplit": (
        lambda: canonical_split_spec(UNSPLIT),
        SpecError("split required"),
    ),
    "homeo-key-d-2": (
        lambda: homeo_key(LINES_THREE_ROWS),
        UnsupportedBaseError("key defined for d=1 joins"),
    ),
    "squarefree-zero": (
        lambda: ZERO.squarefree_part(),
        ZeroPolynomialError("zero polynomial has no square-free part"),
    ),
    "positivity-zero": (
        lambda: strictly_positive_on(ZERO, 0, 1),
        ZeroPolynomialError("positivity is undefined for the zero polynomial"),
    ),
    # A polynomial is built from integer numerators over a nonzero
    # integer denominator, booleans refused, and nothing else.
    "polynomial-float-numerator": (
        lambda: Polynomial((0.5,), 1),
        TypeError("polynomial numerators must be integers"),
    ),
    "polynomial-bool-numerator": (
        lambda: Polynomial((1, True), 1),
        TypeError("polynomial numerators must be integers"),
    ),
    "polynomial-string-denominator": (
        lambda: Polynomial((1, 2), "3"),
        TypeError("polynomial denominator must be an integer"),
    ),
    "polynomial-non-iterable-numerators": (
        lambda: Polynomial(4, 2),
        TypeError("'int' object is not iterable"),
    ),
    "polynomial-zero-denominator": (
        lambda: Polynomial((1, 2), 0),
        ZeroDivisionError("polynomial denominator is zero"),
    ),
    "roots-empty-interval": (
        lambda: count_roots_in_open_interval(LINE, 1, 1),
        ValueError("empty interval"),
    ),
    "positivity-string-bound": (
        lambda: strictly_positive_on(LINE, "0", 1),
        TypeError("not an exact scalar: '0'"),
    ),
    "positivity-empty-interval": (
        lambda: strictly_positive_on(LINE, 1, 0),
        ValueError("empty interval"),
    ),
    "solve-not-square": (
        lambda: solve_linear([[1, 2]], [1]),
        ValueError("system is not square"),
    ),
    "writer-digit-limit": (lambda: _json_text({"K": [[10**4999]]}), DigitLimitError()),
    "rational-digit-limit": (
        lambda: serialize_rational(Fraction(10**4300, 3)),
        DigitLimitError(),
    ),
    "se-reason-digit-limit": (
        lambda: se_check(make_spec([BaseFactor.surface(NINES)], [[1], [2]], (0, 0))),
        DigitLimitError(),
    ),
    # The messages of NotFanoError, a factor's description and
    # RepeatedParameterError each name an integer past the limit.
    "fano-index-digit-limit": (
        lambda: fano_index(BaseProduct((BaseFactor.surface(NINES),))),
        DigitLimitError(),
    ),
    "describe-digit-limit": (lambda: BaseFactor.surface(10**4300).describe(), DigitLimitError()),
    "describe-n-digit-limit": (
        lambda: BaseFactor.projective_space(10**4300).describe(),
        DigitLimitError(),
    ),
    # Columns (2a, 2) and (a, 1) share r = (a - 1)/(a + 1), with a = 10**4301.
    "repeated-r-digit-limit": (
        lambda: admissible_data(
            make_spec(
                [BaseFactor.surface(2), BaseFactor.surface(3)],
                [[2 * 10**4301, 10**4301], [2, 1]],
                (0, 0),
            )
        ),
        DigitLimitError(),
    ),
    # An admissible record refuses a malformed field when it is built:
    # a float s or r, a dim that is not an integer, and entries that
    # are not a tuple of entries.
    "entry-float-s": (
        lambda: AdmissibleEntry("factor_0", 1, 0.5, Fraction(1, 3)),
        TypeError("not an exact scalar: 0.5"),
    ),
    "entry-float-r": (
        lambda: AdmissibleEntry("factor_0", 1, Fraction(2), 0.25),
        TypeError("not an exact scalar: 0.25"),
    ),
    "entry-bool-r": (
        lambda: AdmissibleEntry("factor_0", 1, Fraction(2), True),
        TypeError("not an exact scalar: True"),
    ),
    "entry-bool-dim": (
        lambda: AdmissibleEntry("factor_0", True, Fraction(2), Fraction(1, 3)),
        SpecError("dim must be an integer, not bool"),
    ),
    "entry-string-dim": (
        lambda: AdmissibleEntry("factor_0", "1", Fraction(2), Fraction(1, 3)),
        SpecError("dim must be an integer, not str"),
    ),
    "admissible-data-of-a-list": (
        lambda: hash(AdmissibleData([ENTRY])),
        SpecError("admissible data must be a tuple of admissible entries"),
    ),
    "admissible-data-of-a-non-entry": (
        lambda: AdmissibleData((ENTRY, (1, Fraction(2), Fraction(1, 3)))),
        SpecError("admissible data must be a tuple of admissible entries"),
    ),
    # A JSON object's pairs: json.loads would keep the last value of K.
    "repeated-key": (
        lambda: _unique_keys([("K", [[1], [2]]), ("split", [0, 0]), ("K", [[3], [4]])]),
        ValueError("repeated key 'K'"),
    ),
    # A survey reads its base's factors: a list or tuple of them is
    # refused, as ``validate`` refuses it.
    "survey-base-list": (
        lambda: survey([BaseFactor.surface(2)], (0, 0), 2),
        SpecError("base must be a BaseProduct"),
    ),
    "survey-base-tuple": (
        lambda: survey((BaseFactor.surface(2),), (0, 0), 2),
        SpecError("base must be a BaseProduct"),
    ),
    # A cap below 1 is refused as such, not as work past the cap.
    "survey-cap-below-1": (
        lambda: survey(BaseProduct((BaseFactor.surface(2),)), (0, 0), 1, cap=-1),
        SpecError("cap must be at least 1"),
    ),
    # Each refusal keeps its class and leaves out the integer it
    # cannot write.
    "nonpositive-entry-digit-limit": (
        lambda: make_spec([BaseFactor.surface(2)] * 2, [[10**5000, 0], [1, 1]]),
        NonPositiveEntryError("matrix entries must be positive"),
    ),
    "split-digit-limit": (
        lambda: make_spec([BaseFactor.surface(2)], [[1], [1]], (10**5000, 0)),
        SplitMismatchError("split incompatible with 2 rows"),
    ),
    "survey-cap-past-digit-limit": (
        lambda: survey(
            BaseProduct((BaseFactor.surface(2),) * 3), (0, 0), 10**5000, cap=10**5000
        ),
        BoundsTooLargeError(
            "the survey's column-pair multisets times d = 1 would exceed the cap"
        ),
    ),
    "survey-cap-d-past-digit-limit": (
        lambda: survey(BaseProduct((BaseFactor.surface(2),)), (NINES, NINES), 1),
        BoundsTooLargeError(
            "the survey's column-pair multisets times d would be more than "
            "200000, which exceeds the cap"
        ),
    ),
}


@pytest.mark.parametrize("call, answer", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, answer):
    with pytest.raises(type(answer), match=f"^{re.escape(str(answer))}$"):
        call()


# A 1,500-digit K entry is within the reader's digit limit, but the
# extremal profile's coefficients are longer than it.
LONG_ENTRY_JOIN = {
    "base": [{"kind": "surface", "genus": 2}, {"kind": "surface", "genus": 3}],
    "K": [[random.Random(1).randrange(10**1499, 10**1500), 1], [1, 3]],
    "split": [0, 0],
}


def surfaces(*genera):
    return [{"kind": "surface", "genus": g} for g in genera]


DIGIT_LIMIT_LINE = (
    f"error: an integer of the answer has more than {sys.get_int_max_str_digits()} "
    "digits, the interpreter's limit for integer string conversion\n"
)

# (argv, document, the one stderr line, the survey entries written
# before the refusal or None where stdout stays empty).
PAST_THE_DIGIT_LIMIT = {
    "classify": (["classify", "-"], LONG_ENTRY_JOIN, DIGIT_LIMIT_LINE, None),
    "extremal": (["extremal", "-"], LONG_ENTRY_JOIN, DIGIT_LIMIT_LINE, None),
    # c1 = -2g - 1 has 4,301 digits, and the Sasaki-Einstein reason names it.
    **{
        f"{command}-c1": (
            [command, "-"],
            {"base": surfaces(NINES), "K": [[1], [2]], "split": [0, 0]},
            DIGIT_LIMIT_LINE,
            None,
        )
        for command in ("classify", "se")
    },
    # The constant scalar curvature s has a 4,301-digit numerator.
    "csc-s": (
        ["csc", "-"],
        {"base": surfaces(NINES, NINES), "K": [[2, 1], [1, 2]], "split": [0, 0]},
        DIGIT_LIMIT_LINE,
        None,
    ),
    # Equal blocks obstruct Sasaki-Einstein before c1 is written, so the
    # csv row's c1 is the first over-long integer, after the header.
    "survey-csv-c1": (
        ["survey", "-", "--format", "csv"],
        {"base": surfaces(NINES), "split": [1, 1], "max_entry": 1},
        DIGIT_LIMIT_LINE,
        0,
    ),
    # d = d0 + dinf + 1 has 4,301 digits: the cap's refusal leaves it out.
    "survey-cap-d": (
        ["survey", "-"],
        {"base": surfaces(2), "split": [NINES, NINES], "max_entry": 1},
        "error: invalid survey request: the survey's column-pair multisets "
        "times d would be more than 200000, which exceeds the cap\n",
        None,
    ),
    # A Betti number of every entry, 4 g1 g2 + 2, has 8,581 digits.
    "survey-json-betti": (
        ["survey", "-"],
        {"base": surfaces(10**4290, 10**4290 + 1), "split": [0, 0], "max_entry": 2},
        DIGIT_LIMIT_LINE,
        0,
    ),
    # 2g - 2 = 10**4300 - 4, so c1 = 2 - 2g - (column sum) fits in the
    # first two of the three orbits, with column sums 2 and 3, not the third.
    "survey-json-third-entry": (
        ["survey", "-"],
        {"base": surfaces(5 * 10**4299 - 1), "split": [0, 0], "max_entry": 2},
        DIGIT_LIMIT_LINE,
        2,
    ),
    # 2g - 2 = 10**4300 - 6: the sixth of six orbits, column sum 6, is
    # the first whose c1 is too long, and a survey helper renders it.
    "survey-json-sixth-entry": (
        ["survey", "-"],
        {"base": surfaces(5 * 10**4299 - 2), "split": [0, 0], "max_entry": 3},
        DIGIT_LIMIT_LINE,
        5,
    ),
}


def call_main(monkeypatch, capsys, argv, document):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(document)))
    code = main(argv)
    return (code, *capsys.readouterr())


def first_entries(answer, argv, count):
    """A survey's answer up to the end of its first ``count`` entries."""
    if "csv" in argv:
        return "".join(answer.splitlines(keepends=True)[: count + 1])
    # Each entry starts at indent 4, after "[" or after the one before.
    entries = re.compile(r",?\n    \{")
    head = answer.index('"entries": [')
    starts = [match.start() for match in entries.finditer(answer, head)]
    return answer[: starts[count]]


@pytest.mark.parametrize(
    "argv, document, line, entries",
    PAST_THE_DIGIT_LIMIT.values(),
    ids=PAST_THE_DIGIT_LIMIT.keys(),
)
def test_answer_past_the_digit_limit(monkeypatch, capsys, argv, document, line, entries):
    """Exit 1 with one line and no traceback; a survey keeps the whole
    entries it wrote before, byte for byte as without the limit."""
    code, out, err = call_main(monkeypatch, capsys, argv, document)
    assert (code, err) == (1, line)
    if entries is None:
        assert out == ""
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, answer, err = call_main(monkeypatch, capsys, argv, document)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "")
    assert out == first_entries(answer, argv, entries)


def test_one_digit_limit_error():
    assert classify_module.DigitLimitError is DigitLimitError


# A raised cap lets these splits past the work bound, but no orbit's
# matrix of d + 1 rows fits in a list: the list of 10**19 rows has no
# index-sized length, and 2**61 pointers are more bytes than sys.maxsize.
# Both are refused before any output, so no helper starts and nothing
# is allocated.
SPLITS_PAST_A_LIST = {
    "survey-split-past-an-index": [10**19, 0],
    "survey-split-past-the-pointers": [2**61, 0],
}


@pytest.mark.parametrize(
    "split", SPLITS_PAST_A_LIST.values(), ids=SPLITS_PAST_A_LIST.keys()
)
def test_survey_split_past_a_list(monkeypatch, capsys, split):
    document = {"base": surfaces(2), "split": split, "max_entry": 1, "cap": 2**70}
    code, out, err = call_main(monkeypatch, capsys, ["survey", "-"], document)
    assert (code, out) == (1, "")
    assert err == (
        "error: invalid survey request: the split asks for matrices of more "
        f"than {sys.maxsize // 8} rows, more than a list can hold\n"
    )
