"""Byte-identity of the command line on a seeded corpus.

Each digest is the sha256 of every exit code, stdout and stderr one
command gives over the corpus below.  The digests were taken from the
program before a change meant to keep its output, so a refactor that
alters one byte of any answer, message or exit code fails here.  A
change that means to alter output re-pins the digest it alters and
says so.
"""

import hashlib
import io
import json
import random
import sys

import pytest

from fiberjoin.cli import main

JOIN_COMMANDS = ["invariants", "classify", "csc", "extremal", "se"]

FACTORS = (
    [{"kind": "surface", "genus": g} for g in range(7)]
    + [{"kind": "torus"}]
    + [{"kind": "projective_space", "n": n} for n in (1, 2, 3)]
)

# CP^2 x T^3 with split (0, 0): retained factors 0 and 3 share a
# column, and so do 1 and 2; the projective plane is not a curve, and
# each clashing pair shares r.  The refusal must name the pair of the
# smallest index, then the smallest second index: factors 0 and 3.
MULTI_FAULT = {
    "base": [{"kind": "projective_space", "n": 2}] + [{"kind": "torus"}] * 3,
    "K": [[3, 1, 1, 3], [1, 2, 2, 1]],
    "split": [0, 0],
}

# Joins at the edges of three rules: the CSC certificate (the first two
# carry one, the third fails positivity) and the colinear subcone over a
# projective plane, whose base scalar curvature is positive beside a
# genus-4 curve and negative beside a genus-5 one.
EDGES = [
    {
        "base": [{"kind": "surface", "genus": g1}, {"kind": "surface", "genus": g2}],
        "K": [[2, 1], [1, 3]],
        "split": [0, 0],
    }
    for g1, g2 in ((5, 3), (18, 14), (31, 25))
] + [
    {
        "base": [{"kind": "projective_space", "n": 2}, {"kind": "surface", "genus": g}],
        "K": [[1, 1], [2, 2]],
    }
    for g in (4, 5)
]

SURVEYS = [
    {"base": [{"kind": "surface", "genus": 0}] * 2, "split": [0, 0], "max_entry": 3},
    {
        "base": [{"kind": "surface", "genus": 2}, {"kind": "surface", "genus": 3}],
        "split": [0, 0],
        "max_entry": 3,
    },
    {
        "base": [{"kind": "torus"}, {"kind": "projective_space", "n": 2}],
        "split": [1, 0],
        "max_entry": 2,
    },
    {
        "base": [{"kind": "surface", "genus": g} for g in (1, 0, 4)],
        "split": [1, 1],
        "max_entry": 2,
    },
]


def join_documents(seed: int = 10, count: int = 300) -> list[dict]:
    """``count`` join documents, a pure function of ``seed``: random
    split and unsplit matrices, colinear ones, split joins with
    repeated columns, Calabi-Yau-type colinear joins over projective
    spaces (vanishing c1), and a few invalid ones."""
    rng = random.Random(seed)
    docs = [MULTI_FAULT, *EDGES]
    while len(docs) < count:
        width = rng.randint(1, 4)
        base = [rng.choice(FACTORS) for _ in range(width)]
        shape = rng.choice(["split", "split", "unsplit", "colinear", "repeat", "fano", "bad"])

        def row():
            return [rng.randint(1, 9) for _ in range(width)]

        if shape in ("split", "repeat"):
            d0, dinf = rng.choice([(0, 0), (0, 0), (1, 0), (0, 1), (1, 1), (2, 0)])
            w0, winf = row(), row()
            if shape == "repeat" and width > 1:
                i, j = rng.sample(range(width), 2)
                w0[j], winf[j] = w0[i], winf[i]
                base[j] = base[i] if rng.random() < 0.5 else base[j]
            doc = {"base": base, "K": [w0] * (d0 + 1) + [winf] * (dinf + 1), "split": [d0, dinf]}
        elif shape == "unsplit":
            doc = {"base": base, "K": [row() for _ in range(rng.randint(2, 4))]}
        elif shape == "colinear":
            primitive = [rng.randint(1, 3) for _ in range(width)]
            multiples = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
            doc = {"base": base, "K": [[m * p for p in primitive] for m in multiples]}
            if len(multiples) == 2 and rng.random() < 0.5:
                doc["split"] = [0, 0]
        elif shape == "fano":
            n = rng.randint(1, 3)
            index = n + 1
            first = rng.randint(1, index - 1) if index > 2 else 1
            doc = {
                "base": [{"kind": "projective_space", "n": n}],
                "K": [[first], [index - first]],
            }
        else:
            doc = {"base": base, "K": [row(), row()], "split": [0, 0]}
            doc["K"][rng.randint(0, 1)][0] = rng.choice([0, -1])
        docs.append(doc)
    return docs


def run(monkeypatch, argv, text) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", stderr)
    code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def digest(monkeypatch, command: str) -> str:
    h = hashlib.sha256()
    if command == "survey":
        calls = [
            (["survey", "-", "--format", fmt], request)
            for request in SURVEYS
            for fmt in ("json", "csv")
        ]
    else:
        calls = [([command, "-"], doc) for doc in join_documents()]
    for argv, doc in calls:
        code, out, err = run(monkeypatch, argv, json.dumps(doc))
        h.update(f"{code}\0{out}\0{err}\0".encode("utf-8"))
    return h.hexdigest()


GOLDEN = {
    "invariants": "d9696534a21df6e6f449a8fb83351e7a2cd876c517ca1f7fadfa64c0a9cb0b06",
    "classify": "ee85ec1c8e42c67b78056c97099f44a0219c2afdf37ca4459d9998ea5fe2800b",
    "csc": "9d20d273f5b168c4c2bd2b9183ac076fa7f54a78d450aaf5bf9b89c4131c2968",
    "extremal": "3ac3fa6615e7e142650aa14dd6ca43193440a0a792df26aaceaaf055d487b273",
    "se": "06d6b741a504a5a94888a1a6417ed35a6dda33b8f59071b834084481870ddebd",
    "survey": "88fa62cdf83b42a63f8b2ddf57b1cba50e226f5d3d6e356f2ce50c5ff62c5438",
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_output_is_byte_identical(monkeypatch, command):
    assert digest(monkeypatch, command) == GOLDEN[command]


@pytest.mark.parametrize(
    "argv, documents",
    [
        (["survey", "-", "--format", "json"], SURVEYS[1:2]),
        (["classify", "-"], join_documents()),
    ],
    ids=["survey-g2xg3", "classify-corpus"],
)
def test_json_answers_are_the_standard_encoding(monkeypatch, argv, documents):
    """Every JSON answer is ``json.dumps(answer, indent=2)`` and a
    newline; a mismatch shows as a diff, where a digest shows a hash."""
    answers = [run(monkeypatch, argv, json.dumps(doc)) for doc in documents]
    outs = [out for code, out, _ in answers if code == 0]
    assert outs
    for out in outs:
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
