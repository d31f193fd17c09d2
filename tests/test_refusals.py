"""Library calls that refuse their input, each with its exact answer:
the exception and its message, or the empty value it stands on; and
command-line refusals, each with its exit code and its one line."""

import io
import json
import random
import re
import sys

import pytest

from fiberjoin.classify import DigitLimitError, _json_text
from fiberjoin.cli import main
from fiberjoin.exactalg import (
    Polynomial,
    ZeroPolynomialError,
    count_roots_in_open_interval,
    solve_linear,
    strictly_positive_on,
)
from fiberjoin.model import (
    BaseFactor,
    SpecError,
    canonical_split_spec,
    make_spec,
    retained_factors,
)
from fiberjoin.topology import (
    UnsupportedBaseError,
    chern_k,
    cohomology_table,
    homeo_key,
)

UNSPLIT = make_spec([BaseFactor.surface(2), BaseFactor.surface(3)], [[2, 1], [1, 3]])
PLANE_THREE_ROWS = make_spec([BaseFactor.projective_space(2)], [[1], [1], [1]])
LINES_THREE_ROWS = make_spec([BaseFactor.projective_space(1)] * 2, [[2, 1]] * 3)
ZERO = Polynomial.from_coeffs([0])
LINE = Polynomial.from_coeffs([1, 1])

REFUSALS = {
    "torus-genus-2": (
        lambda: BaseFactor("torus", genus=2),
        SpecError("torus factor has genus 1"),
    ),
    "unknown-kind": (
        lambda: BaseFactor("cone"),
        SpecError("unknown base factor kind: 'cone'"),
    ),
    "canonical-unsplit": (
        lambda: canonical_split_spec(UNSPLIT),
        SpecError("split required"),
    ),
    "retained-unsplit": (lambda: retained_factors(UNSPLIT), SpecError("split required")),
    "chern-degree-0": (lambda: chern_k(UNSPLIT, 0), ValueError("k must be positive")),
    "chern-degree-2-over-plane": (
        lambda: chern_k(PLANE_THREE_ROWS, 2),
        UnsupportedBaseError("cup products need every base factor of complex dimension one"),
    ),
    "homeo-key-d-2": (
        lambda: homeo_key(LINES_THREE_ROWS),
        UnsupportedBaseError("key defined for d=1 joins"),
    ),
    "torsion-absent-degree": (lambda: cohomology_table(UNSPLIT).torsion(99), ()),
    "negative-power": (lambda: LINE**-1, ValueError("negative exponent")),
    "squarefree-zero": (
        lambda: ZERO.squarefree_part(),
        ZeroPolynomialError("zero polynomial has no square-free part"),
    ),
    "positivity-zero": (
        lambda: strictly_positive_on(ZERO, 0, 1),
        ZeroPolynomialError("positivity is undefined for the zero polynomial"),
    ),
    "roots-empty-interval": (
        lambda: count_roots_in_open_interval(LINE, 1, 1),
        ValueError("empty interval"),
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
}


@pytest.mark.parametrize("call, answer", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, answer):
    if isinstance(answer, Exception):
        with pytest.raises(type(answer), match=f"^{re.escape(str(answer))}$"):
            call()
    else:
        assert call() == answer


# A 1,500-digit K entry is within the reader's digit limit, but the
# extremal profile's coefficients are longer than it.
LONG_ENTRY_JOIN = {
    "base": [{"kind": "surface", "genus": 2}, {"kind": "surface", "genus": 3}],
    "K": [[random.Random(1).randrange(10**1499, 10**1500), 1], [1, 3]],
    "split": [0, 0],
}


@pytest.mark.parametrize("command", ["classify", "extremal"])
def test_answer_past_the_digit_limit(monkeypatch, capsys, command):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(LONG_ENTRY_JOIN)))
    assert main([command, "-"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: an integer of the answer has more than {sys.get_int_max_str_digits()} "
        "digits, the interpreter's limit for integer string conversion\n"
    )
