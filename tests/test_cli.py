"""Exit codes, document handling, and output formats of the CLI."""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fiberjoin
from fiberjoin.cli import main

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


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
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


def test_extremal(tmp_path, capsys):
    code, out, _ = run(capsys, ["extremal", write_doc(tmp_path, REFERENCE)])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"profile", "source", "char_product", "positive"}
    assert doc["positive"] is True
    assert doc["profile"][:2] == ["3/4", "-1/6"]


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


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
)
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


def test_csv_rejected_outside_survey(tmp_path, capsys):
    path = write_doc(tmp_path, REFERENCE)
    code, _, _ = run(capsys, ["csc", path, "--format", "csv"])
    assert code == 1


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


def test_survey_cap_exceeded(tmp_path, capsys):
    request = dict(SURVEY_REQUEST)
    request["max_entry"] = 40
    request["cap"] = 1000
    code, _, err = run(capsys, ["survey", write_doc(tmp_path, request)])
    assert code == 1
    assert "exceed" in err


# --- console entry point ----------------------------------------------------------

# The wrapper that pip writes for a console script, as a ``-c`` program.
CONSOLE_WRAPPER = """\
import sys
from {module} import {attr} as entry
sys.argv[0] = "fiberjoin"
sys.exit(entry())
"""


def run_console_script(args):
    """Run ``[project.scripts]["fiberjoin"]`` from this repository's code."""
    tomllib = pytest.importorskip("tomllib")
    with (PACKAGE_ROOT.parent / "pyproject.toml").open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["fiberjoin"]
    module, _, attr = target.partition(":")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
    )
    program = CONSOLE_WRAPPER.format(module=module.strip(), attr=attr.strip())
    return subprocess.run(
        [sys.executable, "-c", program, *args],
        capture_output=True,
        text=True,
        env=env,
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
