#!/usr/bin/env python3
"""The fiberjoin benchmark: one workload per run, timed from outside.

    python3 bench/run.py --workload classify_stream --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all   # each workload in its own process, in turn

One process, one thread, one client: each request goes through
``fiberjoin.cli.main`` with stdin and stdout held in memory, and the
next request is sent only when the previous answer is in (a closed
loop).  Every answer is checked by ``oracle.py``.  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes over the same requests and
reports the per-layer metrics of ``tracing.py``.  The last line of
standard output is the JSON result; the exit code is 0 only when
every check passed.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import oracle  # noqa: E402  (beside this file, found through sys.path[0])
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    STREAM_DOCUMENTS,
    SURVEYS,
    WORKLOADS,
    Survey,
    classify_documents,
)

SETUPS = 15


class ProgramMissing(RuntimeError):
    pass


def import_fiberjoin():
    """A fresh import of the fiberjoin source tree beside this benchmark;
    returns its ``cli`` module."""
    for name in [n for n in sys.modules if n == "fiberjoin" or n.startswith("fiberjoin.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("fiberjoin.cli")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import fiberjoin from {SRC}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"fiberjoin was imported from {cli.__file__}, not {SRC}")
    return cli


def call(argv: list[str], text: str):
    """One request through cli.main: (exit code, stdout, stderr, ns).

    ``main`` is looked up at call time, so a traced pass goes through
    the wrapper the tracer installed."""
    main = sys.modules["fiberjoin.cli"].main
    stdin, stdout, stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = stdin, stdout, stderr
    try:
        start = time.perf_counter_ns()
        code = main(argv)
        elapsed = time.perf_counter_ns() - start
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, stdout.getvalue(), stderr.getvalue(), elapsed


# ---------------------------------------------------------------------------
# Workloads: what a request is, and how its answer is checked


class ClassifyStream:
    name = "classify_stream"
    argv = ["classify", "-"]

    def __init__(self, seed: int, reference: dict | None):
        self.documents = classify_documents(seed)
        self.pass_size = len(self.documents)
        ref = reference["classify_stream"] if reference else None
        self.expected = ref["digests"] if ref and ref["seed"] == seed else None

    def request(self, i: int):
        key = i % self.pass_size
        return self.argv, self.documents[key], key

    def warmup(self):
        return [(self.argv, doc) for doc in self.documents[:50]]

    def check(self, key: int, output: str) -> list[str]:
        expected = self.expected[key] if self.expected else None
        return oracle.check_classify(self.documents[key], output, expected)


class SurveyWorkload:
    pass_size = 1

    def __init__(self, survey: Survey, reference: dict | None):
        self.survey = survey
        self.name = survey.name
        self.text = json.dumps(survey.request)
        self.expected = reference[survey.name]["digests"] if reference else None

    def request(self, i: int):
        return self.survey.argv, self.text, 0

    def warmup(self):
        return [(self.survey.argv, json.dumps(self.survey.warmup_request()))]

    def check(self, key: int, output: str) -> list[str]:
        check = oracle.check_survey_json if self.survey.fmt == "json" else oracle.check_survey_csv
        return check(self.survey.request, output, self.survey.orbits, self.expected)


def build_workload(name: str, seed: int, reference: dict | None):
    if name == "classify_stream":
        return ClassifyStream(seed, reference)
    return SurveyWorkload(SURVEYS[name], reference)


class Checker:
    """Counts requests and failures.  The first answer to each distinct
    request is checked by the oracle; a repeat must match it byte for
    byte, since the program is deterministic."""

    def __init__(self, workload):
        self.workload = workload
        self.seen: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def run(self, argv, text, key=None):
        """Send one request and check its answer; returns (ns, stdout)
        or None when the request failed."""
        self.attempted += 1
        try:
            code, out, err, ns = call(argv, text)
        except Exception as exc:  # a traceback out of cli.main is a failed request
            self.fail(f"{self.workload.name}: {argv[0]} raised {exc!r}")
            return None
        if code != 0:
            self.fail(f"{self.workload.name}: exit {code}: {err.strip()[:200]}")
            return None
        if key is not None:
            fingerprint = hashlib.sha1(out.encode("utf-8")).hexdigest()
            if key not in self.seen:
                problems = self.workload.check(key, out)
                if problems:
                    self.fail(f"{self.workload.name} request {key}: {problems[:3]}")
                    return None
                self.seen[key] = fingerprint
            elif self.seen[key] != fingerprint:
                self.fail(f"{self.workload.name} request {key}: answer changed on repeat")
                return None
        return ns, out


# ---------------------------------------------------------------------------
# Runs


def setup(name: str, seed: int, reference: dict | None):
    """Import fiberjoin afresh and build the workload's inputs;
    returns the workload and the seconds it took.  The heap is
    collected first, so that the garbage of earlier requests is not
    collected inside the timed set-up."""
    gc.collect()
    start = time.perf_counter()
    import_fiberjoin()
    workload = build_workload(name, seed, reference)
    return workload, time.perf_counter() - start


def warm(checker: Checker):
    for argv, text in checker.workload.warmup():
        checker.run(argv, text)


def nearest_rank(sorted_values: list, fraction: float):
    return sorted_values[max(0, math.ceil(fraction * len(sorted_values)) - 1)]


def run_untraced(workload, checker: Checker, seconds: float, resetup):
    """Send requests until the time is up; returns the request times in
    ms and the set-up times in s.

    The set-up is repeated SETUPS times at moments spread over the run
    (``resetup`` returns its seconds), so that its median does not hang
    on one moment of a machine whose speed drifts.  A set-up imports
    fiberjoin afresh, so the warm-up is run again after each one,
    untimed, and no timed request runs on cold modules."""
    latencies = []
    setups = []
    start = time.perf_counter()
    i = 0

    def setup_due():
        return (len(setups) < SETUPS
                and time.perf_counter() - start >= len(setups) * seconds / SETUPS)

    while i == 0 or time.perf_counter() - start < seconds:
        if setup_due():
            while setup_due():
                setups.append(resetup())
            warm(checker)
            gc.collect()
        argv, text, key = workload.request(i)
        i += 1
        result = checker.run(argv, text, key)
        if result is not None:
            latencies.append(result[0] / 1e6)
    while len(setups) < SETUPS:
        setups.append(resetup())
    return latencies, setups


def end_to_end(workload, latencies: list, setups: list):
    """The metrics BENCHMARK.json gates, and the figures derived from the
    same requests that are printed beside them; name -> (value, unit,
    samples, note).

    A request is one classify document or one whole survey.  The gated
    latency is the tail: the p99 on classify_stream, which has thousands
    of requests in a run, and the slowest survey on a survey workload,
    which has too few for a percentile with 10 samples beyond it.  The
    medians are printed, not gated: on a shared machine whose speed
    comes and goes in bursts of tens of seconds, a run's median moves
    with the share of the run spent in a burst, while its slow end
    stays put (see README.md)."""
    n = len(latencies)
    gated = {"setup_s": (statistics.median(setups), "s", len(setups), "")}
    derived = {}
    if latencies:
        ordered = sorted(latencies)
        p50 = statistics.median(ordered)
        if workload.name == "classify_stream":
            tail = nearest_rank(ordered, 0.99)
            beyond = sum(1 for v in ordered if v > tail)
            gated["request_tail_ms"] = (tail, "ms", n, f"classify_p99_ms, {beyond} beyond it")
            derived["classify_p50_ms"] = (p50, "ms", n, "")
            derived["classify_docs_per_s"] = (n * 1e3 / sum(ordered), "1/s", n, "")
        else:
            survey = workload.survey
            gated["request_tail_ms"] = (ordered[-1], "ms", n, "slowest survey_s")
            derived["survey_s"] = (p50 / 1e3, "s", n, "median")
            derived["survey_us_per_candidate"] = (p50 * 1e3 / survey.candidates, "us", n,
                                                  f"{survey.candidates} candidates")
            derived["survey_ms_per_orbit"] = (p50 / survey.orbits, "ms", n,
                                              f"{survey.orbits} orbits")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gated["peak_rss_mb"] = (rss, "MB", 1, "")
    return gated, derived


def _median_or_count(values: list):
    """Counts repeat exactly from pass to pass; times are medians."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def run_traced(workload, checker: Checker, seconds: float) -> dict:
    """Alternate an untraced and a traced pass over the same requests
    until the time is up; each traced answer must equal its untraced
    twin byte for byte.  Layer metrics are medians over traced passes."""
    recorder = tracing.Recorder()
    reports = []
    untraced_ns = traced_ns = 0
    start = time.perf_counter()
    while not reports or time.perf_counter() - start < seconds:
        plain = []
        for i in range(workload.pass_size):
            argv, text, key = workload.request(i)
            plain.append(checker.run(argv, text, key))
        recorder.clear()
        undo = tracing.install(recorder)
        try:
            traced = []
            for i in range(workload.pass_size):
                argv, text, _ = workload.request(i)
                recorder.request = i
                traced.append(checker.run(argv, text))
        finally:
            tracing.uninstall(undo)
        for i, (a, b) in enumerate(zip(plain, traced)):
            if a is None or b is None:
                continue
            if a[1] != b[1]:
                checker.fail(f"{workload.name} request {i}: traced answer differs")
            untraced_ns += a[0]
            traced_ns += b[0]
        reports.append(tracing.layer_report(recorder))
        if checker.failed:
            break
    layers = {
        name: _median_or_count([r["layers"][name] for r in reports])
        for name in reports[0]["layers"]
    }
    layers["trace.overhead_pct"] = (
        100.0 * (traced_ns / untraced_ns - 1.0) if untraced_ns else 0.0
    )
    per_name = {
        name: {
            "calls": reports[-1]["per_name"][name]["calls"],
            "self_ms": statistics.median(r["per_name"][name]["self_ms"] for r in reports),
        }
        for name in reports[0]["per_name"]
    }
    return {"layers": layers, "per_name": per_name, "passes": len(reports),
            "spans": len(recorder.spans)}


# ---------------------------------------------------------------------------
# Reporting


def git_commit() -> str:
    """The commit of the checkout, or "unknown" outside a git work tree;
    git is kept from looking above the benchmark's own tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args, samples: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seed_note": (
            "the seed selects the classify_stream documents; "
            "the surveys are fixed enumerations and ignore it"
        ),
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one request at a time, one thread",
        "samples": samples,
    }


def run_one(args) -> int:
    reference = oracle.load_reference()
    try:
        workload, _ = setup(args.workload, args.seed, reference)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checker = Checker(workload)
    warm(checker)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds}")
    if args.trace:
        traced = run_traced(workload, checker, args.seconds)
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in traced["layers"].items()}
        samples = {"traced_passes": traced["passes"], "requests_per_pass": workload.pass_size,
                   "spans_per_pass": traced["spans"]}
        print("per-layer metrics, per traced pass (one pass = "
              f"{workload.pass_size} request{'s' if workload.pass_size > 1 else ''}); "
              "single-threaded, so no layer has queueing or waiting time:")
        for name, metric in metrics.items():
            print(f"  {name:48s} {metric['value']:14.4f} {metric['unit']}")
        print("every traced function, per traced pass:")
        for name, row in traced["per_name"].items():
            print(f"  {name:48s} calls {row['calls']:9d}  self {row['self_ms']:12.3f} ms")
    else:
        latencies, setups = run_untraced(
            workload, checker, args.seconds,
            lambda: setup(args.workload, args.seed, reference)[1])
        gated, derived = end_to_end(workload, latencies, setups)
        metrics = {name: {"value": v[0], "unit": v[1]} for name, v in gated.items()}
        samples = {name: v[2] for name, v in gated.items()}
        print("end-to-end metrics (the JSON result below):")
        for name, (value, unit, count, note) in gated.items():
            print(f"  {name:24s} {value:14.4f} {unit:4s} n={count:<6d} {note}")
        print("derived from the same requests (printed only):")
        for name, (value, unit, count, note) in derived.items():
            print(f"  {name:24s} {value:14.4f} {unit:4s} n={count:<6d} {note}")
    error_ratio = checker.failed / checker.attempted
    print(f"  error_ratio {error_ratio:.4f} ({checker.failed} of {checker.attempted} requests failed)")
    for problem in checker.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({"stamp": stamp(args, samples)}))
    correct = checker.failed == 0
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, check=False)
        worst = max(worst, done.returncode)
    return worst


def write_reference() -> int:
    """Record the digests of the current program's answers for the
    default seed and the two surveys in reference.json."""
    import_fiberjoin()
    reference = {}
    stream = ClassifyStream(DEFAULT_SEED, None)
    digests = []
    for doc in stream.documents:
        code, out, err, _ = call(stream.argv, doc)
        if code != 0:
            raise SystemExit(f"cannot record a reference: exit {code}: {err}")
        answer = json.loads(out)
        digests.append(oracle.record_digest(answer["invariants"], answer["verdicts"]))
    reference["classify_stream"] = {"seed": DEFAULT_SEED, "documents": STREAM_DOCUMENTS,
                                    "digests": digests}
    for survey in SURVEYS.values():
        code, out, err, _ = call(survey.argv, json.dumps(survey.request))
        if code != 0:
            raise SystemExit(f"cannot record a reference: exit {code}: {err}")
        if survey.fmt == "json":
            digests = [oracle.record_digest(e["invariants"], e["verdicts"], e["K"])
                       for e in json.loads(out)["entries"]]
        else:
            digests = [oracle.digest(r) for r in oracle.csv_records(out)]
        reference[survey.name] = {"orbits": len(digests), "digests": digests}
    oracle.REFERENCE_PATH.write_text(json.dumps(reference, indent=0) + "\n", encoding="utf-8")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the current answers as the reference and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
