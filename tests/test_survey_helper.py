"""A large survey's helper process: the same bytes and refusals as one
process, and no child left behind on any path."""

import errno
import importlib
import io
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time

import pytest

from fiberjoin import cli
from fiberjoin.classify import spec_report
from fiberjoin.cli import main
from fiberjoin.model import BaseFactor, BaseProduct, make_spec
from test_cli import DISTINCT_SURVEY, ClosedAfterFirstChunk, child_env
from test_golden import GOLDEN, SURVEYS, digest, run
from test_refusals import PAST_THE_DIGIT_LIMIT, call_main

classify_module = importlib.import_module("fiberjoin.classify")

SURVEY_CASES = {name: case for name, case in PAST_THE_DIGIT_LIMIT.items() if case[3] is not None}


@pytest.fixture(autouse=True)
def no_child_remains():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Start the helper on every survey, on any number of CPUs; the list
    of helper pids."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(classify_module, "_HELPER_MIN_ENTRIES", 0)
    return pids


@pytest.fixture
def waits_for_frames(monkeypatch):
    """This process waits for each odd entry's frame until the helper
    has ended, so the helper's share does not hang on timing."""
    take = classify_module._Helper.take

    def waits(helper, i):
        deadline = time.monotonic() + 60
        while (text := take(helper, i)) is None:
            ended = os.waitid(os.P_PID, helper.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
            if ended:  # its last frames are on the pipe
                return take(helper, i)
            assert time.monotonic() < deadline, f"no frame for entry {i}"
            select.select([helper.fd], [], [], 0.01)
        return text

    monkeypatch.setattr(classify_module._Helper, "take", waits)


@pytest.fixture
def parent_classified(monkeypatch):
    """The joins this process classifies; the helper's are not seen."""
    classified = []
    original = classify_module.classify
    monkeypatch.setattr(
        classify_module, "classify", lambda spec: classified.append(spec) or original(spec)
    )
    return classified


def test_golden_surveys_with_the_helper(
    monkeypatch, forks, waits_for_frames, parent_classified
):
    assert digest(monkeypatch, "survey") == GOLDEN["survey"]
    assert len(forks) == 2 * len(SURVEYS)
    # The helper renders every odd entry, so this process classifies
    # the even ones: ceil(n / 2) of each survey's n orbits, per format.
    orbits = [
        len(classify_module.survey(*classify_module.parse_survey(s)).entries) for s in SURVEYS
    ]
    assert len(parent_classified) == 2 * sum((n + 1) // 2 for n in orbits)


@pytest.mark.parametrize(
    "argv, document, line, entries", SURVEY_CASES.values(), ids=SURVEY_CASES.keys()
)
def test_refusal_with_the_helper(
    monkeypatch, capsys, argv, document, line, entries, waits_for_frames, parent_classified
):
    """The same exit, stderr line and partial stdout: the first entry
    too long to write is found by this process, or by the helper and
    then again by this process, which renders it and stops there."""
    alone = call_main(monkeypatch, capsys, argv, document)
    assert alone[0] == 1
    del parent_classified[:]
    monkeypatch.setattr(classify_module, "_HELPER_MIN_ENTRIES", 0)
    assert call_main(monkeypatch, capsys, argv, document) == alone
    assert len(parent_classified) == entries // 2 + 1 + entries % 2


FACT_BASES = {
    "g2-g3": (BaseFactor.surface(2), BaseFactor.surface(3)),
    "three-lines": (BaseFactor.surface(0),) * 3,
    "plane-curve": (BaseFactor.projective_space(2), BaseFactor.surface(2)),
    "torus-line": (BaseFactor.torus(), BaseFactor.surface(0)),
}


@pytest.mark.parametrize("helper", [True, False], ids=["helper", "one-process"])
@pytest.mark.parametrize("split", [(0, 0), (1, 0), (1, 1)])
@pytest.mark.parametrize("factors", FACT_BASES.values(), ids=FACT_BASES.keys())
def test_entries_read_the_facts_each_join_derives(request, factors, split, helper):
    """Each entry's text, whichever process renders it from the facts
    its survey shares, is the text of its join's own ``spec_report``,
    written by json.dumps at an entry's depth."""
    if helper:
        forks = request.getfixturevalue("forks")
        request.getfixturevalue("waits_for_frames")
    report = classify_module.survey(BaseProduct(factors), split, 2)
    head, *texts, tail = classify_module.survey_chunks(report)
    assert len(texts) == len(report.entries) > 1
    d0, dinf = split
    for i, (text, (w0, winf)) in enumerate(zip(texts, report.entries.keys)):
        rows = [list(w0)] * (d0 + 1) + [list(winf)] * (dinf + 1)
        document = {"K": rows, **spec_report(make_spec(list(factors), rows, split))}
        separator = ",\n    " if i else "\n    "
        assert text == separator + json.dumps(document, indent=2).replace("\n", "\n    ")
    if helper:
        assert len(forks) == 1


@pytest.mark.parametrize(
    "call, error",
    [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)],
    ids=["fork", "pipe"],
)
def test_a_failed_fork_writes_the_same_bytes(monkeypatch, call, error):
    def refused():
        raise OSError(error, os.strerror(error))

    monkeypatch.setattr(os, call, refused)
    monkeypatch.setattr(classify_module, "_HELPER_MIN_ENTRIES", 0)
    assert digest(monkeypatch, "survey") == GOLDEN["survey"]


@pytest.mark.parametrize("alone", ["one-cpu", "thread"])
def test_no_helper_on_one_cpu_or_beside_a_thread(monkeypatch, forks, alone):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if alone == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        thread.start()
    try:
        assert digest(monkeypatch, "survey") == GOLDEN["survey"]
    finally:
        stop.set()
        if thread.ident is not None:
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


def test_a_killed_helper_leaves_its_entries_to_this_process(monkeypatch, forks):
    """Each helper dies at its second orbit, after one whole frame."""
    parent = os.getpid()
    original = classify_module.classify
    calls = {}

    def dies_in_the_helper(spec):
        pid = os.getpid()
        calls[pid] = calls.get(pid, 0) + 1
        if pid != parent and calls[pid] == 2:
            os.kill(pid, signal.SIGKILL)
        return original(spec)

    monkeypatch.setattr(classify_module, "classify", dies_in_the_helper)
    assert digest(monkeypatch, "survey") == GOLDEN["survey"]
    assert len(forks) == 2 * len(SURVEYS)


def test_a_stalled_helper_does_not_hold_the_survey_up(monkeypatch, forks):
    """Each helper stops at its first orbit until it is killed: this
    process renders every entry itself."""
    parent = os.getpid()
    original = classify_module.classify

    def stalls_in_the_helper(spec):
        if os.getpid() != parent:
            signal.pause()
        return original(spec)

    monkeypatch.setattr(classify_module, "classify", stalls_in_the_helper)
    assert digest(monkeypatch, "survey") == GOLDEN["survey"]
    assert len(forks) == 2 * len(SURVEYS)


def test_late_and_cut_frames_are_not_taken():
    """Frames of entries 1, 3 and 5, then a frame cut short."""
    read, write = os.pipe()
    os.write(write, b"3\nabc4\nde\n11\nf12\nghi")
    os.close(write)
    os.set_blocking(read, False)
    helper = classify_module._Helper(0, read)
    try:
        assert helper.take(1) == "abc"
        assert helper.take(5) == "f"  # entry 3 was rendered here
        assert (helper.take(7), helper.take(9)) == (None, None)
    finally:
        os.close(read)


def test_the_reader_reads_only_for_a_missing_frame(monkeypatch):
    """Sixty frames of about 1 KB, all on the pipe: one read takes them
    all, and one more finds the end of the file."""
    texts = [f"{i:04d}".encode() * 256 for i in range(1, 121, 2)]
    read, write = os.pipe()
    os.write(write, b"".join(b"%d\n%b" % (len(text), text) for text in texts))
    os.close(write)
    os.set_blocking(read, False)
    reads = []
    original = os.read
    monkeypatch.setattr(os, "read", lambda fd, n: reads.append(n) or original(fd, n))
    helper = classify_module._Helper(0, read)
    try:
        taken = [helper.take(i) for i in range(1, 123, 2)]
    finally:
        os.close(read)
    assert taken == [text.decode() for text in texts] + [None]
    assert len(reads) <= 2


def test_the_same_bytes_when_the_helper_is_a_full_pipe_ahead(
    monkeypatch, forks, waits_for_frames
):
    """This process stops at entry 0 while the helper fills the pipe:
    666 orbits' frames are far more than a pipe holds."""
    text = json.dumps(dict(DISTINCT_SURVEY, max_entry=6))
    monkeypatch.setattr(classify_module, "_HELPER_MIN_ENTRIES", 10**9)
    alone = run(monkeypatch, ["survey", "-"], text)
    monkeypatch.setattr(classify_module, "_HELPER_MIN_ENTRIES", 0)
    parent = os.getpid()
    original = classify_module.classify
    classified = []

    def held_at_entry_0(spec):
        if os.getpid() == parent:
            if not classified:
                time.sleep(0.2)
            classified.append(spec)
        return original(spec)

    monkeypatch.setattr(classify_module, "classify", held_at_entry_0)
    assert run(monkeypatch, ["survey", "-"], text) == alone
    n = len(json.loads(alone[1])["entries"])
    assert n == 666
    assert len(classified) == (n + 1) // 2
    assert len(forks) == 1


def test_a_closed_reader_reaps_the_helper(tmp_path, monkeypatch, forks):
    # Held here, the answer is not collected when main returns: only
    # closing it reaps the helper.
    answers = []

    def held(*args):
        answers.append(classify_module.survey_chunks(*args))
        return answers[-1]

    monkeypatch.setattr(cli, "survey_chunks", held)
    # The closed-pipe handler points the stdout descriptor at devnull.
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        stdout, stderr = ClosedAfterFirstChunk(fd), io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(DISTINCT_SURVEY)))
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "stderr", stderr)
        code = main(["survey", "-"])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    finally:
        os.close(fd)
    assert (code, stderr.getvalue(), stdout.chunks) == (1, "", 2)
    assert len(forks) == 1


def test_survey_through_a_pipe_prints_each_byte_once(monkeypatch):
    """The helper inherits the head in this process's stdout buffer and
    must never flush it: the child's stdout is the in-process answer."""
    request = dict(DISTINCT_SURVEY, max_entry=6)
    text = json.dumps(request)
    code, answer, err = run(monkeypatch, ["survey", "-"], text)
    assert (code, err) == (0, "")
    assert len(json.loads(answer)["entries"]) >= classify_module._HELPER_MIN_ENTRIES
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)  # so the head waits in the buffer
    child = subprocess.run(
        [sys.executable, "-m", "fiberjoin", "survey", "-"],
        input=text.encode(),
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert (child.returncode, child.stderr) == (0, b"")
    assert child.stdout == answer.encode()
