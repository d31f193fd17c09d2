"""Exit codes, document handling, and output formats of the CLI."""

import argparse
import csv
import errno
import hashlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import tomllib
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fiberjoin
from fiberjoin.admissible import admissible_data
from fiberjoin.classify import _factor_document, parse_spec, serialize_polynomial
from fiberjoin import cli
from fiberjoin.cli import main
from fiberjoin.model import BaseFactor, make_spec
from oracles import reference_extremal_profile

# The package exports a ``classify`` function under the module's name.
classify_module = importlib.import_module("fiberjoin.classify")

# The directory that holds the imported ``fiberjoin`` package (``src/``).
PACKAGE_ROOT = Path(fiberjoin.__file__).resolve().parent.parent

REFERENCE = {
    "base": [
        {"kind": "surface", "genus": 5},
        {"kind": "surface", "genus": 3},
    ],
    "K": [[2, 1], [1, 3]],
    "split": [0, 0],
}

SURVEY_REQUEST = {
    "base": [{"kind": "surface", "genus": 0}, {"kind": "surface", "genus": 0}],
    "split": [0, 0],
    "max_entry": 2,
}

JOIN_COMMANDS = ["invariants", "classify", "csc", "extremal", "se"]


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, doc, name="doc.json"):
    """The document as a file: a str is its text, anything else is dumped."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


# --- subcommands ------------------------------------------------------------


def test_invariants(tmp_path, capsys):
    code, out, _ = run(capsys, ["invariants", write_doc(tmp_path, REFERENCE)])
    assert code == 0
    doc = json.loads(out)
    assert doc["c1"] == [-11, -8]
    assert doc["euler"] == 7
    assert doc["spin"] == "non_spin"


def test_classify(tmp_path, capsys):
    code, out, _ = run(capsys, ["classify", write_doc(tmp_path, REFERENCE)])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"invariants", "verdicts"}
    kinds = [v["kind"] for v in doc["verdicts"]]
    assert kinds == ["csc_regular_ray", "extremal_regular_ray", "se_obstructed"]


def test_csc(tmp_path, capsys):
    code, out, _ = run(capsys, ["csc", write_doc(tmp_path, REFERENCE)])
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "verdict": "csc",
        "s": "-1/1",
        "certificate": ["3/4", "-1/6", "1/12"],
    }


def test_csc_positivity_failure_still_succeeds(tmp_path, capsys):
    request = dict(REFERENCE)
    request["base"] = [
        {"kind": "surface", "genus": 31},
        {"kind": "surface", "genus": 25},
    ]
    code, out, _ = run(capsys, ["csc", write_doc(tmp_path, request)])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "positivity_fails"
    assert doc["s"] == "-11/1"


G2_G3_SPLIT_JOIN = {
    "base": [{"kind": "surface", "genus": 2}, {"kind": "surface", "genus": 3}],
    "K": [[3, 1], [3, 1], [1, 4]],
    "split": [1, 0],
}

EXTREMAL_OUTPUT = [
    (
        REFERENCE,
        {
            "profile": ["3/4", "-1/6", "-2/3", "1/6", "-1/12"],
            "source": ["-4/3", "1/1", "-1/1"],
            "char_product": ["1/1", "-1/6", "-1/6"],
            "positive": True,
        },
    ),
    (
        G2_G3_SPLIT_JOIN,
        {
            "profile": [
                "6583/9110", "5449/9110", "-7923/9110", "-2716/4555",
                "1563/9110", "-17/9110", "-223/9110",
            ],
            "source": [
                "-7923/4555", "-16296/4555", "9378/4555", "-34/911", "-669/911",
            ],
            "char_product": ["1/1", "9/10", "-2/5", "-3/10"],
            "positive": True,
        },
    ),
]


def test_extremal(tmp_path, capsys):
    code, out, _ = run(capsys, ["extremal", write_doc(tmp_path, REFERENCE)])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"profile", "source", "char_product", "positive"}
    assert doc["positive"] is True
    assert doc["profile"][:2] == ["3/4", "-1/6"]
    # The whole output, byte for byte, on the README join and a g2 x g3
    # join with split (1, 0): profile, source and characteristic product.
    for document, expected in EXTREMAL_OUTPUT:
        code, out, err = run(capsys, ["extremal", write_doc(tmp_path, document)])
        assert (code, err) == (0, "")
        assert out == json.dumps(expected, indent=2) + "\n"


def long_split_join(d0):
    """g2 x g3 with rows [3, 1] and [1, 4] each repeated d0 + 1 times,
    split (d0, d0): the profile has degree 2 * d0 + 4 and large
    coefficients."""
    return {
        "base": [{"kind": "surface", "genus": 2}, {"kind": "surface", "genus": 3}],
        "K": [[3, 1]] * (d0 + 1) + [[1, 4]] * (d0 + 1),
        "split": [d0, d0],
    }


def test_extremal_large_document(tmp_path, capsys):
    """Exact bytes where the coefficients run to hundreds of digits, and
    a time budget for a profile of degree 804."""
    path = write_doc(tmp_path, long_split_join(150))
    code, out, err = run(capsys, ["extremal", path])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ee2b2f1cfd6ee76680025c002778fd500549e398629c5eb8143daa65ff502ae2"
    )
    path = write_doc(tmp_path, long_split_join(400))
    started = time.perf_counter()
    code, out, err = run(capsys, ["extremal", path])
    elapsed = time.perf_counter() - started
    assert (code, err) == (0, "")
    assert json.loads(out)["positive"] is True
    assert elapsed < 1.5, f"took {elapsed:.2f}s"


def test_extremal_large_document_matches_oracle(tmp_path, capsys):
    """At d0 = 400 the output equals the moment route's, serialized the
    same way: g2 x g3 with rows [3, 1] and [1, 2] each repeated d0 + 1
    times, split (d0, d0)."""
    d0 = 400
    document = {
        "base": [{"kind": "surface", "genus": 2}, {"kind": "surface", "genus": 3}],
        "K": [[3, 1]] * (d0 + 1) + [[1, 2]] * (d0 + 1),
        "split": [d0, d0],
    }
    code, out, err = run(capsys, ["extremal", write_doc(tmp_path, document)])
    assert (code, err) == (0, "")
    reference = reference_extremal_profile(admissible_data(parse_spec(document)))
    expected = {
        "profile": serialize_polynomial(reference.profile),
        "source": serialize_polynomial(reference.source),
        "char_product": serialize_polynomial(reference.char_product),
        "positive": reference.positive,
    }
    assert out == json.dumps(expected, indent=2) + "\n"


def test_se(tmp_path, capsys):
    code, out, _ = run(capsys, ["se", write_doc(tmp_path, REFERENCE)])
    assert code == 0
    doc = json.loads(out)
    assert doc["possible"] is False
    assert "first Chern class" in doc["reason"]


def test_se_count(tmp_path, capsys):
    request = {
        "base": [{"kind": "projective_space", "n": 4}],
        "K": [[2], [3]],
    }
    code, out, _ = run(capsys, ["se", write_doc(tmp_path, request)])
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_se_count_on_a_huge_projective_space(tmp_path, capsys):
    # Two summands count in closed form, so the work does not grow with n.
    n = 10**12
    request = {"base": [{"kind": "projective_space", "n": n}], "K": [[1], [n]]}
    start = time.perf_counter()
    code, out, err = run(capsys, ["se", write_doc(tmp_path, request)])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert json.loads(out)["count"] == (n + 1) // 2


def test_survey_json(tmp_path, capsys):
    code, out, _ = run(capsys, ["survey", write_doc(tmp_path, SURVEY_REQUEST)])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["entries"]) == 7
    assert doc["max_entry"] == 2


def test_survey_csv(tmp_path, capsys):
    path = write_doc(tmp_path, SURVEY_REQUEST)
    code, out, _ = run(capsys, ["survey", path, "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("K,d,n,colinear")
    assert len(lines) == 8


# --- stdin ---------------------------------------------------------------------


def test_stdin_document(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["csc", "-"],
        stdin_text=json.dumps(REFERENCE),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["s"] == "-1/1"


# --- failure modes ---------------------------------------------------------------


def test_missing_file(capsys):
    code, _, err = run(capsys, ["csc", "/nonexistent/doc.json"])
    assert code == 1
    assert "cannot read document" in err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["csc", str(path)])
    assert code == 1
    assert "cannot read document" in err


def test_integer_past_digit_limit(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"base": [{"kind": "torus"}], "K": [[1' + "0" * 5000 + "], [1]]}")
    code, out, err = run(capsys, ["classify", str(path)])
    assert code == 1
    assert out == ""
    assert "cannot read document" in err


def test_deeply_nested_document(capsys, monkeypatch):
    text = "[" * 100_000 + "]" * 100_000
    code, out, err = run(capsys, ["survey", "-"], text, monkeypatch)
    assert code == 1
    assert out == ""
    assert "cannot read document" in err


def test_invalid_join_document(tmp_path, capsys):
    code, _, err = run(
        capsys, ["classify", write_doc(tmp_path, {"K": [[1, 2]]})]
    )
    assert code == 1
    assert "invalid join document" in err


def test_nonpositive_entry_rejected(tmp_path, capsys):
    doc = {"base": [{"kind": "torus"}], "K": [[1], [0]]}
    code, _, err = run(capsys, ["invariants", write_doc(tmp_path, doc)])
    assert code == 1
    assert "invalid join document" in err


def test_usage_error(capsys):
    assert run(capsys, [])[0] == 1
    assert run(capsys, ["frobnicate", "-"])[0] == 1


def test_parser_is_built_once(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, REFERENCE)
    assert run(capsys, ["classify", path])[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(2):
        assert run(capsys, ["classify", path])[0] == 0
    assert built == []


HELP = {
    **{name: help_text for name, (help_text, _) in cli._ANSWERS.items()},
    "survey": "enumerate and classify a family of joins",
}


def help_text(capsys, argv):
    """What ``--help`` prints, on one line, after checking it exits 0."""
    with pytest.raises(SystemExit) as exit:
        main(argv)
    assert exit.value.code == 0
    return " ".join(capsys.readouterr().out.split())


def test_subcommands_are_the_table_and_survey(capsys):
    assert list(cli._ANSWERS) == JOIN_COMMANDS
    out = help_text(capsys, ["--help"])
    assert "{" + ",".join([*JOIN_COMMANDS, "survey"]) + "}" in out
    for name, text in HELP.items():
        assert f"{name} {text}" in out


@pytest.mark.parametrize("command", [*JOIN_COMMANDS, "survey"])
def test_subcommand_help(capsys, command):
    out = help_text(capsys, [command, "--help"])
    assert out.startswith(f"usage: fiberjoin {command} ")
    assert HELP[command] in out
    assert ("--format" in out) == (command == "survey")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", JOIN_COMMANDS)
def test_format_refused_outside_survey(tmp_path, capsys, command, fmt):
    path = write_doc(tmp_path, REFERENCE)
    code, out, err = run(capsys, [command, path, "--format", fmt])
    assert (code, out) == (1, "")
    assert err == f"error: unrecognized arguments: --format {fmt}\n"


def test_survey_format(tmp_path, capsys):
    path = write_doc(tmp_path, SURVEY_REQUEST)
    default = run(capsys, ["survey", path])
    assert default[0] == 0
    assert run(capsys, ["survey", path, "--format", "json"]) == default
    code, out, err = run(capsys, ["survey", path, "--format", "csv"])
    assert (code, err) == (0, "")
    assert out.startswith("K,d,n,colinear,c1,euler,p1,spin,verdicts\r\n")
    code, out, err = run(capsys, ["survey", path, "--format", "xml"])
    assert (code, out) == (1, "")
    assert err.startswith("error: argument --format: invalid choice: 'xml'")


def test_degenerate_data_exit_two(tmp_path, capsys):
    colinear = {
        "base": [
            {"kind": "surface", "genus": 0},
            {"kind": "surface", "genus": 0},
        ],
        "K": [[1, 1], [1, 1]],
        "split": [0, 0],
    }
    code, _, err = run(capsys, ["csc", write_doc(tmp_path, colinear)])
    assert code == 2
    assert "degenerate data" in err


def test_missing_split_exit_two(tmp_path, capsys):
    doc = dict(REFERENCE)
    del doc["split"]
    code, _, err = run(capsys, ["csc", write_doc(tmp_path, doc)])
    assert code == 2


def test_bad_survey_request(tmp_path, capsys):
    valid = {"base": [{"kind": "surface", "genus": 0}], "split": [0, 0], "max_entry": 2}
    assert run(capsys, ["survey", write_doc(tmp_path, valid)])[0] == 0
    # No coercion: only a list of two integers, and integer bounds.
    coerced = [dict(valid, split=x) for x in ("00", [0, False], [0.0, 0], ["0", 0])]
    coerced += [dict(valid, max_entry=x) for x in (True, 2.9, "2")]
    coerced += [dict(valid, cap=x) for x in ("7", 7.0)]
    for broken in [
        {"base": [{"kind": "surface", "genus": 0}], "split": [0, 0]},
        {"base": [{"kind": "surface", "genus": 0}], "max_entry": 2},
        {
            "base": [{"kind": "surface", "genus": 0}],
            "split": [0, 0, 1],
            "max_entry": 2,
        },
        {
            "base": [{"kind": "surface", "genus": 0}],
            "split": [-1, 0],
            "max_entry": 2,
        },
        {"base": [], "split": [0, 0], "max_entry": 2},
        [{"kind": "surface", "genus": 0}],
    ] + coerced:
        code, out, err = run(capsys, ["survey", write_doc(tmp_path, broken)])
        assert code == 1, broken
        assert out == ""
        assert "error:" in err


def test_se_count_at_a_large_index(tmp_path, capsys):
    request = {"base": [{"kind": "projective_space", "n": 3999}], "K": [[1], [3999]]}
    code, out, err = run(capsys, ["se", write_doc(tmp_path, request)])
    assert code == 0, err
    assert json.loads(out)["count"] == 2000


def _container(doc, path):
    """The list or object holding the item at ``path``, and its key there."""
    *head, last = path
    for key in head:
        doc = doc[key]
    return doc, last


def _replaced(path, value):
    """A deep copy of the reference join with the item at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(REFERENCE))
    target, key = _container(doc, path)
    target[key] = value
    return doc


MALFORMED = {
    "genus-string": _replaced(("base", 0, "genus"), "5"),
    "genus-float": _replaced(("base", 0, "genus"), 3.9),
    "n-string": {"base": [{"kind": "projective_space", "n": "2"}], "K": [[1], [2]]},
    "entry-float": _replaced(("K", 0, 0), 2.7),
    "entry-boolean": _replaced(("K", 0, 0), True),
    "entry-string": _replaced(("K", 0, 0), "3"),
    "split-integer": _replaced(("split",), 5),
    "split-string": _replaced(("split",), "ab"),
    "split-booleans": _replaced(("split",), [True, False]),
    "split-float": _replaced(("split",), [0.5, 0]),
    "split-triple": _replaced(("split",), [0, 0, 1]),
}


@pytest.mark.parametrize("command", JOIN_COMMANDS)
@pytest.mark.parametrize("document", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_join_document(tmp_path, capsys, command, document):
    code, out, err = run(capsys, [command, write_doc(tmp_path, document)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: invalid join document")


MISSING_OR_MISTYPED = [
    (
        "survey",
        {key: value for key, value in SURVEY_REQUEST.items() if key != "max_entry"},
        "error: invalid survey request: missing key 'max_entry'\n",
    ),
    (
        "classify",
        {key: value for key, value in REFERENCE.items() if key != "K"},
        "error: invalid join document: missing key 'K'\n",
    ),
    (
        "classify",
        _replaced(("base",), 5),
        "error: invalid join document: base must be a list of factors\n",
    ),
    # Only a list is read as the split: no error from iterating it, and
    # no string or object read as its characters or keys.
    *(
        (
            "classify",
            _replaced(("split",), split),
            "error: invalid join document: split must be a pair of integers\n",
        )
        for split in (5, True, "ab", {"a": 0, "b": 0})
    ),
    # Nor is K, a row of K, or the base read unless it is a list.
    *(
        (
            "classify",
            _replaced(("K",), rows),
            "error: invalid join document: "
            "K must be a list of rows, each a list of integers\n",
        )
        for rows in (5, "ab", {"a": 1}, ["ab", "cd"])
    ),
    (
        "classify",
        _replaced(("base",), "ab"),
        "error: invalid join document: base must be a list of factors\n",
    ),
    (
        "survey",
        dict(SURVEY_REQUEST, base=5),
        "error: invalid survey request: base must be a list of factors\n",
    ),
    # A repeated key is refused, not read as its last value, in a join
    # document, a survey request and a factor object alike.
    *(
        (
            command,
            json.dumps(REFERENCE)[:-1] + ', "K": [[3, 3], [4, 4]]}',
            "error: cannot read document: repeated key 'K'\n",
        )
        for command in JOIN_COMMANDS
    ),
    (
        "survey",
        json.dumps(SURVEY_REQUEST)[:-1] + ', "max_entry": 3}',
        "error: cannot read document: repeated key 'max_entry'\n",
    ),
    (
        "classify",
        json.dumps(REFERENCE).replace('"genus": 5', '"genus": 5, "genus": 2'),
        "error: cannot read document: repeated key 'genus'\n",
    ),
    (
        "survey",
        json.dumps(SURVEY_REQUEST).replace(
            '"kind": "surface"', '"kind": "surface", "kind": "torus"', 1
        ),
        "error: cannot read document: repeated key 'kind'\n",
    ),
]


@pytest.mark.parametrize(
    "command, document, message",
    MISSING_OR_MISTYPED,
    ids=[
        "survey-without-max_entry",
        "join-without-K",
        "base-integer",
        "split-integer",
        "split-boolean",
        "split-string",
        "split-object",
        "K-integer",
        "K-string",
        "K-object",
        "K-string-rows",
        "base-string",
        "survey-base-integer",
        *(f"repeated-K-{command}" for command in JOIN_COMMANDS),
        "survey-repeated-max_entry",
        "factor-repeated-genus",
        "survey-factor-repeated-kind",
    ],
)
def test_error_names_the_document_kind_once(
    tmp_path, capsys, command, document, message
):
    code, out, err = run(capsys, [command, write_doc(tmp_path, document)])
    assert (code, out, err) == (1, "", message)


def _renamed(doc, old, new):
    """A copy of ``doc`` with its key ``old`` renamed to ``new``."""
    return {new if key == old else key: value for key, value in doc.items()}


UNKNOWN_KEYS = {
    "splt": _renamed(REFERENCE, "split", "splt"),
    "extra-key": _replaced(("comment",), "g5 x g3"),
    "surface-with-n": _replaced(("base", 0, "n"), 2),
    "torus-with-genus": {"base": [{"kind": "torus", "genus": 1}], "K": [[1], [2]]},
}


@pytest.mark.parametrize("command", JOIN_COMMANDS)
@pytest.mark.parametrize("document", UNKNOWN_KEYS.values(), ids=UNKNOWN_KEYS.keys())
def test_unknown_join_key(tmp_path, capsys, command, document):
    code, out, err = run(capsys, [command, write_doc(tmp_path, document)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: invalid join document: unknown key")


@pytest.mark.parametrize(
    "document",
    [
        dict(SURVEY_REQUEST, max_entries=3),
        _renamed(SURVEY_REQUEST, "max_entry", "max_entries"),
        dict(SURVEY_REQUEST, base=[{"kind": "torus", "genus": 1}]),
    ],
)
def test_unknown_survey_key(tmp_path, capsys, document):
    code, out, err = run(capsys, ["survey", write_doc(tmp_path, document)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: invalid survey request: unknown key")


def test_survey_cap_exceeded(tmp_path, capsys):
    request = dict(SURVEY_REQUEST)
    request["max_entry"] = 40
    request["cap"] = 1000
    code, _, err = run(capsys, ["survey", write_doc(tmp_path, request)])
    assert code == 1
    assert err.startswith("error: invalid survey request: ")
    assert "exceed" in err


# --- console entry point ----------------------------------------------------------

# The wrapper that pip writes for a console script, as a ``-c`` program.
CONSOLE_WRAPPER = """\
import sys
from {module} import {attr} as entry
sys.argv[0] = "fiberjoin"
sys.exit(entry())
"""


def child_env():
    """The environment of a child Python that imports this ``fiberjoin``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
    )
    return env


def run_console_script(args):
    """Run ``[project.scripts]["fiberjoin"]`` from this repository's code."""
    with (PACKAGE_ROOT.parent / "pyproject.toml").open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["fiberjoin"]
    module, _, attr = target.partition(":")
    program = CONSOLE_WRAPPER.format(module=module.strip(), attr=attr.strip())
    return subprocess.run(
        [sys.executable, "-c", program, *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )


def test_console_script(tmp_path):
    path = write_doc(tmp_path, REFERENCE)
    result = run_console_script(["classify", path])
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["invariants"]["c1"] == [-11, -8]

    missing = run_console_script(["classify", str(tmp_path / "missing.json")])
    assert missing.returncode == 1, missing.stderr
    assert missing.stdout == ""


@pytest.mark.skipif(
    shutil.which("fiberjoin") is None, reason="fiberjoin console script not installed"
)
def test_installed_console_script(tmp_path):
    path = write_doc(tmp_path, REFERENCE)
    result = subprocess.run(
        ["fiberjoin", "classify", path], capture_output=True, text=True
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["invariants"]["c1"] == [-11, -8]


def test_closed_stdout_exits_one_without_traceback():
    """A reader that goes away before the output is written."""
    child = subprocess.Popen(
        [sys.executable, "-m", "fiberjoin", "survey", "-"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    child.stdout.close()
    _, err = child.communicate(json.dumps(SURVEY_REQUEST).encode(), timeout=60)
    assert child.returncode == 1
    assert b"Traceback" not in err
    assert b"Exception ignored" not in err


# g2 x g3 at max_entry 8: 2,080 orbits and about 4 MB of JSON.
DISTINCT_SURVEY = {
    "base": [{"kind": "surface", "genus": 2}, {"kind": "surface", "genus": 3}],
    "split": [0, 0],
    "max_entry": 8,
}


class ClosedAfterFirstChunk(io.TextIOBase):
    """A stdout whose reader goes away once the first chunk is in."""

    def __init__(self, fd):
        self.fd = fd
        self.chunks = 0

    def write(self, text):
        self.chunks += 1
        if self.chunks > 1:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return len(text)

    def fileno(self):
        return self.fd


def test_closed_stdout_stops_the_survey(tmp_path, monkeypatch):
    """A closed reader stops the classification, not only the output."""
    classified = []
    original = classify_module.classify
    monkeypatch.setattr(
        classify_module, "classify", lambda spec: classified.append(spec) or original(spec)
    )
    # The closed-pipe handler points the stdout descriptor at devnull.
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        stdout, stderr = ClosedAfterFirstChunk(fd), io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(DISTINCT_SURVEY)))
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "stderr", stderr)
        code = main(["survey", "-"])
    finally:
        os.close(fd)
    assert code == 1
    assert stderr.getvalue() == ""
    assert stdout.chunks == 2
    assert 0 < len(classified) < 20


def test_closed_stdout_leaks_no_descriptor(tmp_path, monkeypatch):
    """The closed-pipe handler closes the devnull descriptor it opens:
    after two closed answers in this process the lowest free descriptor
    is the one before them."""
    path = write_doc(tmp_path, REFERENCE)
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    def lowest_free():
        probe = os.dup(fd)
        os.close(probe)
        return probe

    try:
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        before = lowest_free()
        for _ in range(2):
            monkeypatch.setattr(sys, "stdout", ClosedAfterFirstChunk(fd))
            assert main(["classify", path]) == 1
        assert lowest_free() == before
    finally:
        os.close(fd)


class Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def test_survey_memory_does_not_hold_the_output(monkeypatch):
    """g2 x g3 at max_entry 5 (325 orbits, 0.6 MB of JSON) is written
    one entry at a time: about 0.5 MB at the traced peak, where holding
    the whole report, its document and the encoder's pieces took 6 MB."""
    request = dict(DISTINCT_SURVEY, max_entry=5)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(request)))
    monkeypatch.setattr(sys, "stdout", Discard())
    tracemalloc.start()
    try:
        code = main(["survey", "-"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1.5e6, peak


# --- fuzzing the input contract ------------------------------------------------

def call_main(argv, text):
    """``main`` on a document given as text: (exit code, stdout, stderr)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = (io.StringIO(text), io.StringIO(), io.StringIO())
    try:
        code = main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def assert_contract(argv, document):
    """Exit 0 with JSON on stdout, or exit 1 or 2 with only an error."""
    code, out, err = call_main(argv, json.dumps(document))
    assert code in (0, 1, 2), (document, code)
    if code == 0:
        json.loads(out)
    else:
        assert out == ""
        assert err.startswith("error: "), err


def paths_below(doc, prefix=()):
    """Paths to every value below the root of a JSON tree."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths_below(value, prefix + (key,))


JSON_TREES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(["base", "K", "split", "kind", "genus", "n", "max_entry", "cap"])
        | st.text(max_size=3),
        children,
        max_size=4,
    ),
    max_leaves=12,
)

ODD_VALUES = st.one_of(
    st.booleans(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(min_value=-2, max_value=5), max_size=3),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, -1, 2**64, {}, None]),
)


@st.composite
def mutated(draw, document):
    """``document`` with one to three values replaced or keys deleted."""
    doc = json.loads(json.dumps(document))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        paths = list(paths_below(doc))
        if not paths:
            break
        target, key = _container(doc, draw(st.sampled_from(paths)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(ODD_VALUES)
    return doc


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(JOIN_COMMANDS + ["survey"]), JSON_TREES)
def test_random_documents_keep_the_contract(command, document):
    if command == "survey" and isinstance(document, dict):
        document["cap"] = 50
    assert_contract([command, "-"], document)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(JOIN_COMMANDS), mutated(REFERENCE))
def test_mutated_join_documents_keep_the_contract(command, document):
    assert_contract([command, "-"], document)


@settings(max_examples=100, deadline=None)
@given(mutated(SURVEY_REQUEST), st.integers(min_value=-1, max_value=1000))
def test_mutated_survey_requests_keep_the_contract(document, cap):
    if isinstance(document, dict):
        document["cap"] = cap
    assert_contract(["survey", "-"], document)


# Values of each JSON type but the one a key wants, the reader's
# non-finite floats among them.
WRONG_TYPES = st.one_of(
    st.booleans(),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), None]),
    st.text(max_size=4),
    st.lists(st.integers(min_value=-2, max_value=5), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(min_value=-2, max_value=5), max_size=2),
)

SMALL_INTEGERS = st.integers(min_value=1, max_value=9)

# Zero and negative entries, and 4,300-digit ones, the longest the
# reader takes.
HOSTILE_INTEGERS = SMALL_INTEGERS | st.sampled_from(
    [0, -1, -9, 10**4299, int("9" * 4300), -int("9" * 4300)]
)


def _value(doc, path):
    target, key = _container(doc, path)
    return target[key]


def edited(draw, doc):
    """``doc`` after up to three edits: a wrong type at a key, an
    unknown key, or a deleted key."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        paths = list(paths_below(doc))
        edit = draw(st.sampled_from(["wrong type", "unknown key", "delete"]))
        if edit == "unknown key":
            values = (_value(doc, path) for path in paths)
            objects = [doc] + [value for value in values if isinstance(value, dict)]
            draw(st.sampled_from(objects))[draw(st.text())] = draw(WRONG_TYPES)
        elif paths:
            target, key = _container(doc, draw(st.sampled_from(paths)))
            if edit == "delete":
                del target[key]
            else:
                target[key] = draw(WRONG_TYPES)
    return doc


@st.composite
def hostile_joins(draw):
    """A join document of any split shape, over small or hostile
    integers, then up to three edits: a wrong type at a key, an unknown
    key, or a deleted key."""
    integers = draw(st.sampled_from([SMALL_INTEGERS, HOSTILE_INTEGERS]))
    factor = st.one_of(
        integers.map(lambda genus: {"kind": "surface", "genus": genus}),
        st.integers(min_value=1, max_value=3).map(
            lambda n: {"kind": "projective_space", "n": n}
        ),
        st.just({"kind": "torus"}),
    )
    base = draw(st.lists(factor, min_size=1, max_size=3))
    row = st.lists(integers, min_size=len(base), max_size=len(base))
    d0, dinf = (draw(st.sampled_from([0, 0, 1, 2])) for _ in range(2))
    if draw(st.booleans()):
        rows = [draw(row)] * (d0 + 1) + [draw(row)] * (dinf + 1)
    else:
        rows = draw(st.lists(row, min_size=2, max_size=4))
    doc = json.loads(json.dumps({"base": base, "K": rows}))
    split = draw(st.sampled_from(["blocks", "blocks", "other", "null", "absent"]))
    if split == "blocks":
        doc["split"] = [d0, dinf]
    elif split == "other":
        doc["split"] = [draw(st.integers(0, 3)), draw(st.integers(0, 3))]
    elif split == "null":
        doc["split"] = None
    return edited(draw, doc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(JOIN_COMMANDS), hostile_joins())
def test_hostile_join_documents_keep_the_contract(command, document):
    """Exit 0 with JSON on stdout, or exit 1 or 2 with exactly one
    ``error:`` line; never a traceback, and no child process is left."""
    code, out, err = call_main([command, "-"], json.dumps(document))
    assert code in (0, 1, 2), (document, code)
    if code == 0:
        json.loads(out)
        assert err == ""
    else:
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n"), err
        assert err.count("\n") == 1, err
    assert "Traceback" not in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Zero, negative and 4,300-digit counts, the longest the reader takes.
HOSTILE_COUNTS = st.sampled_from([0, -1, -3, 10**4299, int("9" * 4300), -int("9" * 4300)])

# Stands in a document for text that json.dumps cannot write.
PLACEHOLDER = "\x00placeholder\x00"

CSV_HEADER = ["K", "d", "n", "colinear", "c1", "euler", "p1", "spin", "verdicts"]


def repeated_key_text(obj, value):
    """The JSON text of a nonempty object with its first key written
    twice, first with ``value``."""
    key = next(iter(obj))
    return "{" + f"{json.dumps(key)}: {json.dumps(value)}, " + json.dumps(obj)[1:]


@st.composite
def hostile_surveys(draw):
    """The text of a survey request: a small survey of max_entry at most
    3 over 0-5 factors, or one with hostile integers at any key, any
    split shape, up to three edits (a wrong type at a key, an unknown
    key, a deleted key), and maybe a repeated key or 5,000-deep
    nesting."""
    hostile = draw(st.booleans())
    small = st.integers(min_value=1, max_value=3)
    counts = small | HOSTILE_COUNTS if hostile else small
    factor = st.one_of(
        (st.integers(min_value=0, max_value=4) | counts).map(
            lambda g: {"kind": "surface", "genus": g}
        ),
        small.map(lambda n: {"kind": "projective_space", "n": n}),
        st.just({"kind": "torus"}),
    )
    splits = st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=2)
    if hostile:
        splits |= st.sampled_from([[], [0], [0, 0, 0], [-1, 0], [int("9" * 4300), 0], None])
    doc = {
        "base": draw(st.lists(factor, min_size=0 if hostile else 1, max_size=5)),
        "split": draw(splits),
        "max_entry": draw(counts),
        "cap": draw(st.integers(min_value=1, max_value=5000) | counts),
    }
    if draw(st.booleans()):
        del doc["cap"]
    if not hostile:
        return json.dumps(doc)
    # Edited in a copy: the drawn factor objects may be shared.
    doc = edited(draw, json.loads(json.dumps(doc)))
    text = draw(st.sampled_from(["as is", "repeated", "nested"]))
    if text == "nested" and draw(st.booleans()):
        return "[" * 5000 + "]" * 5000
    # A repeated key goes in an object with a key: the request or a factor.
    paths = [
        path for path in paths_below(doc)
        if text == "nested" or (isinstance(_value(doc, path), dict) and _value(doc, path))
    ]
    if text == "as is" or not paths:
        return json.dumps(doc)
    if text == "repeated" and draw(st.booleans()):
        return repeated_key_text(doc, draw(WRONG_TYPES | small))
    target, key = _container(doc, draw(st.sampled_from(paths)))
    replaced, target[key] = target[key], PLACEHOLDER
    nested = "[" * 5000 + "]" * 5000
    if text == "repeated":
        nested = repeated_key_text(replaced, draw(WRONG_TYPES | small))
    return json.dumps(doc).replace(json.dumps(PLACEHOLDER), nested)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(["json", "csv"]), hostile_surveys())
def test_hostile_survey_requests_keep_the_contract(fmt, text):
    """Exit 0 with JSON, or csv under its header row, on stdout, or exit
    1 or 2 with exactly one ``error:`` line; never a traceback, no child
    process left, and each request answered in a few seconds."""
    started = time.perf_counter()
    code, out, err = call_main(["survey", "-", "--format", fmt], text)
    assert time.perf_counter() - started < 10.0, text[:200]
    assert code in (0, 1, 2), (text[:200], code)
    if code == 0:
        if fmt == "json":
            json.loads(out)
        else:
            assert next(csv.reader(io.StringIO(out))) == CSV_HEADER
        assert err == ""
    else:
        assert err.startswith("error: ") and err.endswith("\n"), err
        assert err.count("\n") == 1, err
    assert "Traceback" not in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# --- serialise and parse ---------------------------------------------------------

FACTORS = st.one_of(
    st.integers(min_value=0, max_value=6).map(BaseFactor.surface),
    st.integers(min_value=1, max_value=4).map(BaseFactor.projective_space),
    st.sampled_from([BaseFactor.torus(), BaseFactor("torus")]),
)


@st.composite
def specs(draw):
    """Valid joins of one to three factors, split or not."""
    factors = draw(st.lists(FACTORS, min_size=1, max_size=3))
    row = st.lists(
        st.integers(min_value=1, max_value=9),
        min_size=len(factors),
        max_size=len(factors),
    )
    if draw(st.booleans()):
        d0, dinf = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        rows = [draw(row)] * (d0 + 1) + [draw(row)] * (dinf + 1)
        return make_spec(factors, rows, (d0, dinf))
    return make_spec(factors, draw(st.lists(row, min_size=2, max_size=4)))


def spec_document(spec):
    """The join document of ``spec``, through JSON text."""
    document = {
        "base": [_factor_document(f) for f in spec.base.factors],
        "K": [list(row) for row in spec.matrix],
        "split": list(spec.split) if spec.split is not None else None,
    }
    return json.loads(json.dumps(document))


@settings(max_examples=200, deadline=None)
@given(specs())
@example(make_spec([BaseFactor("torus")], [[1], [2]]))
@example(make_spec([BaseFactor("torus"), BaseFactor.surface(2)], [[1, 2]] * 2, (0, 0)))
def test_serialised_spec_parses_back(spec):
    assert parse_spec(spec_document(spec)) == spec
