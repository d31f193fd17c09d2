"""The benchmark's workloads and their seeded inputs.

Standard library only.  The program under test receives nothing but
the documents built here, as the text of a ``classify -`` or
``survey -`` request.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

DEFAULT_SEED = 1

# Documents per pass of classify_stream.  A run cycles through them
# until its time is up; the traced run times one pass at a time.
STREAM_DOCUMENTS = 2000

# Factors a stream base is drawn from: surfaces of genus 0-6, the
# torus and CP^1-CP^3.  Only curve factors can be retained by the
# admissible layer, so the projective spaces of dimension 2 and 3 send
# some split joins down the "not admissible" path.
FACTOR_POOL = (
    [{"kind": "surface", "genus": g} for g in range(7)]
    + [{"kind": "torus"}]
    + [{"kind": "projective_space", "n": n} for n in (1, 2, 3)]
)
MAX_STREAM_ENTRY = 9

# Shape quotas per 20 documents: 14 split joins (10 with split (0, 0),
# the rest spread over (1, 0), (0, 1) and (1, 1)) and 6 unsplit joins
# with 2, 3 or 4 rows.  Each shape comes with each base width 1-3
# equally often.  Quotas rather than independent draws keep the mix,
# and so the latency figures, nearly the same from seed to seed.
SHAPE_QUOTAS = (
    [(0, 0)] * 10
    + [(1, 0), (1, 0), (0, 1), (1, 1)]
    + [2, 2, 3, 3, 4, 4]
)
WIDTHS = (1, 2, 3)
QUOTAS = [(shape, width) for shape in SHAPE_QUOTAS for width in WIDTHS]


def classify_documents(seed: int, count: int = STREAM_DOCUMENTS) -> list[str]:
    """``count`` join documents as JSON text, a pure function of ``seed``.

    A tuple entry of the shape list is a split (d0, dinf); an integer is
    the row count of an unsplit join.
    """
    rng = random.Random(seed)
    shapes = [QUOTAS[i % len(QUOTAS)] for i in range(count)]
    rng.shuffle(shapes)
    documents = []
    for shape, width in shapes:
        base = [rng.choice(FACTOR_POOL) for _ in range(width)]

        def row():
            return [rng.randint(1, MAX_STREAM_ENTRY) for _ in range(width)]

        doc = {"base": base}
        if isinstance(shape, tuple):
            d0, dinf = shape
            w0, winf = row(), row()
            doc["K"] = [w0] * (d0 + 1) + [winf] * (dinf + 1)
            doc["split"] = [d0, dinf]
        else:
            doc["K"] = [row() for _ in range(shape)]
        documents.append(json.dumps(doc))
    return documents


@dataclass(frozen=True)
class Survey:
    """One fixed survey request and the size of its answer."""

    name: str
    request: dict
    fmt: str
    orbits: int

    @property
    def candidates(self) -> int:
        return self.request["max_entry"] ** (2 * len(self.request["base"]))

    @property
    def argv(self) -> list[str]:
        return ["survey", "-", "--format", self.fmt]

    def warmup_request(self) -> dict:
        """The same base and split with entries up to 2: a small request
        that runs every layer of the survey once before timing starts."""
        return dict(self.request, max_entry=2)


def _surfaces(*genera: int) -> list[dict]:
    return [{"kind": "surface", "genus": g} for g in genera]


SURVEYS = {
    survey.name: survey
    for survey in (
        # Distinct factors: the canonical form tries one permutation,
        # and the extremal solve and positivity dominate.
        Survey(
            "survey_distinct",
            {"base": _surfaces(2, 3), "split": [0, 0], "max_entry": 8},
            "json",
            orbits=2080,
        ),
        # Four identical factors: the canonical form tries 4! column
        # orders per candidate, and the answer is written as CSV.
        Survey(
            "survey_identical",
            {"base": _surfaces(0, 0, 0, 0), "split": [0, 0], "max_entry": 3},
            "csv",
            orbits=267,
        ),
    )
}

WORKLOADS = ("classify_stream", *SURVEYS)
