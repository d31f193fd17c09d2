"""The contract of the package's value records: construction by
position and by keyword with the documented defaults, equality and
hashing by class and fields, the ``Name(field=value, ...)`` text, and
refusal of assignment and deletion."""

import ast
import importlib
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from fiberjoin import admissible, einstein, exactalg, model, topology

classify = importlib.import_module("fiberjoin.classify")

FACTOR = model.BaseFactor.surface(2)
BASE = model.BaseProduct((FACTOR, FACTOR))
MATRIX = ((2, 1), (1, 3))
LINE = exactalg.Polynomial((1, 1))
TABLE = topology.CohomologyTable(((0, 1, ()), (1, 0, ())))
ENTRY = admissible.AdmissibleEntry(1, Fraction(-2, 1), Fraction(1, 3))
VERDICT = classify.Verdict("inconclusive", "none", "no rule applies")
REPORT = classify.InvariantReport(
    "surface(genus=2) x surface(genus=2)", 1, 2, (0, 0), False, None, None,
    (-5, -6), 7, None, "spin", TABLE,
)

# Each record class with one set of fields, in declaration order.
RECORDS = {
    exactalg.Polynomial: {"nums": (1, 2), "den": 3},
    model.BaseFactor: {"kind": "projective_space", "genus": None, "n": 2},
    model.BaseProduct: {"factors": (FACTOR,)},
    model.FiberJoinSpec: {"base": BASE, "matrix": MATRIX, "split": (0, 0)},
    model.RegularJoinData: {"b": 2, "w": (1, 1), "primitive": (1, 1)},
    topology.CohomologyTable: {"groups": ((0, 1, ()), (4, 0, (2,)))},
    topology.HomeoKey: {"p1": 4, "euler": 2},
    einstein.SEVerdict: {"possible": True, "reason": "r", "count": 2},
    admissible.AdmissibleEntry: {"dim": 1, "s": Fraction(2), "r": Fraction(1)},
    admissible.AdmissibleData: {"entries": (ENTRY,)},
    admissible.ExtremalProfile: {
        "profile": LINE, "source": LINE, "char_product": LINE, "positive": True,
        "alpha": Fraction(1, 2), "beta": Fraction(0), "factor": LINE,
    },
    admissible.CscResult: {"s": Fraction(1, 6), "certificate": LINE, "verdict": "csc"},
    classify.Verdict: {
        "kind": "k", "rule": "r", "citation": "c", "witness": (("w", (1, 2)), ("b", 3)),
    },
    classify.InvariantReport: {
        name: getattr(REPORT, name)
        for name in (
            "base", "d", "n", "split", "colinear", "join_b", "join_w",
            "c1", "euler", "p1", "spin", "cohomology",
        )
    },
    classify.SurveyEntry: {"matrix": MATRIX, "invariants": REPORT, "verdicts": (VERDICT,)},
    classify.SurveyReport: {"base": BASE, "split": (0, 0), "max_entry": 3, "entries": ()},
}

# The fields a record may leave out, with their defaults.
DEFAULTS = {
    exactalg.Polynomial: ({"nums": (1,)}, {"den": 1}),
    model.BaseFactor: ({"kind": "surface", "genus": 0}, {"n": None}),
    model.FiberJoinSpec: ({"base": BASE, "matrix": MATRIX}, {"split": None}),
    einstein.SEVerdict: ({"possible": False, "reason": "r"}, {"count": None}),
    classify.Verdict: ({"kind": "k", "rule": "r", "citation": "c"}, {"witness": None}),
}

IDS = [cls.__name__ for cls in RECORDS]


def copied(value):
    """An equal value that is not the same object, where one can be made."""
    return tuple(list(value)) if isinstance(value, tuple) else value


def test_the_table_holds_every_record():
    assert set(RECORDS) == set(exactalg.Record.__subclasses__())
    assert len(RECORDS) == 16


@pytest.mark.parametrize("cls, fields", RECORDS.items(), ids=IDS)
def test_construction_by_position_and_by_keyword(cls, fields):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    assert by_position == by_keyword


@pytest.mark.parametrize(
    "cls, given_and_defaults", DEFAULTS.items(), ids=[cls.__name__ for cls in DEFAULTS]
)
def test_defaults(cls, given_and_defaults):
    given, defaults = given_and_defaults
    record = cls(*given.values())
    assert {name: getattr(record, name) for name in defaults} == defaults
    assert record == cls(**given, **defaults)


@pytest.mark.parametrize("cls, fields", RECORDS.items(), ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(cls, fields):
    first = cls(**fields)
    second = cls(**{name: copied(value) for name, value in fields.items()})
    assert first == second and not first != second
    assert hash(first) == hash(second) == hash(tuple(fields.values()))


def test_records_of_two_classes_are_never_equal():
    records = [cls(**fields) for cls, fields in RECORDS.items()]
    for a, b in itertools.combinations(records, 2):
        assert a != b and not a == b
    # The same field values in two classes of the same shape.
    assert topology.HomeoKey((1,), 3) != exactalg.Polynomial((1,), 3)
    assert topology.HomeoKey(4, 2) != (4, 2)


def test_repr():
    assert repr(exactalg.Polynomial((1, -2), 3)) == "Polynomial(nums=(1, -2), den=3)"
    assert repr(model.BaseFactor.torus()) == "BaseFactor(kind='torus', genus=1, n=None)"
    assert repr(VERDICT) == (
        "Verdict(kind='inconclusive', rule='none', citation='no rule applies', witness=None)"
    )
    assert repr(ENTRY) == (
        "AdmissibleEntry(dim=1, s=Fraction(-2, 1), r=Fraction(1, 3))"
    )
    assert repr(topology.HomeoKey(4, 2)) == "HomeoKey(p1=4, euler=2)"


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_records_keep_the_inherited_methods(cls):
    """A record compares, hashes and refuses assignment through
    ``Record``'s methods, on the ``_values`` its ``__init__`` stores."""
    for name in ("__eq__", "__hash__", "__setattr__"):
        assert getattr(cls, name) is getattr(exactalg.Record, name)


def test_no_module_calls_object_setattr():
    """Records store their fields through ``vars(self).update``; no
    module writes around ``__setattr__`` with ``object.__setattr__``."""
    package = Path(exactalg.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    ]
    assert found == []


@pytest.mark.parametrize("cls, fields", RECORDS.items(), ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    record = cls(**fields)
    for name in [*fields, "not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is fields[name]


def test_facts_are_built_once(monkeypatch):
    built = []
    for name in ("BaseFacts", "JoinFacts"):
        original = getattr(model, name)
        monkeypatch.setattr(model, name, lambda x, made=original: built.append(x) or made(x))
    base = model.BaseProduct((model.BaseFactor.surface(1), model.BaseFactor.surface(3)))
    spec = model.make_spec(base, [[2, 1], [1, 3]], (0, 0))
    assert spec.facts is spec.facts and base.facts is base.facts
    assert spec.base.description is spec.base.description
    assert built == [spec, base]
    # The cached facts take no part in equality or hashing.
    fresh = model.make_spec(base.factors, [[2, 1], [1, 3]], (0, 0))
    assert fresh == spec and hash(fresh) == hash(spec)
