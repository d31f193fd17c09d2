"""Self-tests of the benchmark harness, at a tiny size.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, SURVEYS, classify_documents  # noqa: E402

run.import_fiberjoin()


def answers(documents):
    out = []
    for doc in documents:
        code, text, err, _ = run.call(["classify", "-"], doc)
        assert code == 0, err
        out.append(text)
    return out


def test_generator_is_a_function_of_the_seed():
    assert classify_documents(5, 40) == classify_documents(5, 40)
    assert classify_documents(5, 40) != classify_documents(6, 40)
    docs = [json.loads(d) for d in classify_documents(5, 60)]
    assert sum("split" in d for d in docs) == 42  # 70% split joins
    assert sum(d.get("split") == [0, 0] for d in docs) == 30
    assert all(1 <= len(d["base"]) <= 3 for d in docs)
    assert all(1 <= e <= 9 for d in docs for row in d["K"] for e in row)


def test_stream_answers_match_the_reference_of_the_default_seed():
    reference = oracle.load_reference()["classify_stream"]
    assert reference["seed"] == DEFAULT_SEED
    documents = classify_documents(DEFAULT_SEED)[:30]
    for i, (doc, text) in enumerate(zip(documents, answers(documents))):
        assert oracle.check_classify(doc, text, reference["digests"][i]) == []


def _answer_with(rule: str):
    for doc in classify_documents(DEFAULT_SEED, 200):
        answer = json.loads(answers([doc])[0])
        for verdict in answer["verdicts"]:
            if verdict["rule"] == rule:
                return doc, answer, verdict
    raise AssertionError(f"no {rule} verdict in the first 200 documents")


def test_oracle_rejects_a_corrupted_profile():
    doc, answer, verdict = _answer_with("extremal-profile-certificate")
    assert oracle.check_classify(doc, json.dumps(answer)) == []
    profile = verdict["witness"]["profile"]
    verdict["witness"]["profile"] = [c[1:] if c[0] == "-" else "-" + c for c in profile]
    assert "profile: not positive" in " ".join(oracle.check_classify(doc, json.dumps(answer)))


def test_oracle_rejects_a_corrupted_certificate():
    # 1 - z^2 is positive on (-1, 1); z^2 - 1 is not.
    assert oracle.check_witness({"s": "1/2", "certificate": ["1/1", "0/1", "-1/1"]}) == []
    assert oracle.check_witness({"s": "1/2", "certificate": ["-1/1", "0/1", "1/1"]})


def test_oracle_checks_the_verdict_kinds_of_csv_rows():
    survey = SURVEYS["survey_identical"]
    request = dict(survey.request, max_entry=2)
    code, text, err, _ = run.call(survey.argv, json.dumps(request))
    assert code == 0, err
    orbits = len(oracle.csv_records(text))
    assert oracle.check_survey_csv(request, text, orbits, None) == []
    lines = text.splitlines(keepends=True)
    first = lines[1].rstrip("\r\n")
    kinds = first.rsplit(",", 1)[1]
    for corrupted in (kinds + ";inconclusive", "se_exists"):
        bad_row = first[: -len(kinds)] + corrupted + lines[1][len(first):]
        bad = "".join([lines[0], bad_row, *lines[2:]])
        problems = oracle.check_survey_csv(request, bad, orbits, None)
        assert problems == ["row 0: inconclusive must appear exactly when "
                            "no existence verdict does"]


def test_oracle_rejects_a_wrong_invariant_and_ignores_new_witness_fields():
    doc, answer, verdict = _answer_with("extremal-profile-certificate")
    verdict["witness"]["new_field"] = [1, 2, 3]
    assert oracle.check_classify(doc, json.dumps(answer)) == []
    answer["invariants"]["c1"][0] += 1
    assert oracle.check_classify(doc, json.dumps(answer))


def _traced(fn):
    recorder = tracing.Recorder()
    undo = tracing.install(recorder)
    try:
        return fn(), recorder
    finally:
        tracing.uninstall(undo)


def test_traced_answers_equal_untraced_answers():
    documents = classify_documents(3, 30)
    survey = dict(SURVEYS["survey_identical"].request, max_entry=2)
    survey_argv = ["survey", "-", "--format", "csv"]

    def both():
        return answers(documents), run.call(survey_argv, json.dumps(survey))[1]

    main_before = sys.modules["fiberjoin.cli"].main
    plain = both()
    traced, recorder = _traced(both)
    assert traced == plain
    assert sys.modules["fiberjoin.cli"].main is main_before
    layers = tracing.layer_report(recorder)["layers"]
    assert layers["classify.parse_spec.calls"] == len(documents)
    assert layers["classify.survey.candidates"] == 2 ** 8
    assert layers["model.canonical_split_spec.calls"] == 2 ** 8


def test_self_time_excludes_children():
    recorder = tracing.Recorder()
    recorder.spans[:] = [(0, "cli.main", 0, 100, -1), (0, "classify.emit", 10, 40, 0)]
    report = tracing.layer_report(recorder)
    assert report["layers"]["cli.main.self_ms"] == 70 / 1e6
    assert report["layers"]["classify.emit.ms"] == 30 / 1e6


def _result(capsys, *argv):
    code = run.main(list(argv))
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_a_run_reports_the_metrics_benchmark_json_names(monkeypatch, capsys):
    monkeypatch.setattr(run, "classify_documents", lambda seed: classify_documents(seed, 5))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result = _result(capsys, "--workload", "classify_stream", "--seed", "2",
                               "--seconds", "0", "--trace", str(trace))
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]
        assert [m["unit"] for m in result["metrics"].values()] == [m["unit"] for m in spec[key]]


def test_a_run_without_the_program_exits_non_zero(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "missing")
    try:
        assert run.main(["--workload", "survey_identical", "--seconds", "0"]) == 2
        assert capsys.readouterr().out == ""
    finally:
        monkeypatch.undo()
        run.import_fiberjoin()


def _orbits(max_entry: int, width: int, identical: bool) -> int:
    """Split (0, 0) joins up to the pole swap, and up to column order
    when the factors are identical, counted without fiberjoin."""
    values = range(1, max_entry + 1)
    seen = set()
    for w0 in itertools.product(values, repeat=width):
        for winf in itertools.product(values, repeat=width):
            forms = []
            for a, b in ((w0, winf), (winf, w0)):
                columns = list(zip(a, b))
                forms.append(tuple(sorted(columns)) if identical else tuple(columns))
            seen.add(min(forms))
    return len(seen)


def test_survey_orbit_counts():
    assert _orbits(8, 2, identical=False) == SURVEYS["survey_distinct"].orbits == 2080
    assert _orbits(3, 4, identical=True) == SURVEYS["survey_identical"].orbits == 267
