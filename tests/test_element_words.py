"""Replay recorded element words and inverses.

Every realized group names its elements by words read off a breadth-first
spanning tree of its Cayley graph.  The records in
golden/element_words.json hold `element_str(x)` and the inverse of every
element of a few catalog groups and of eta for nu(S3); they pin the tree's
tie-breaking, which every CLI answer that prints a word depends on.

`python tests/test_element_words.py` rewrites the records from the current
engine.
"""

import json
from pathlib import Path

import pytest

from ntl.catalog import realize_name
from ntl.tensor import build_nu

RECORDS = Path(__file__).parent / "golden" / "element_words.json"

NAMES = ("S3", "Q8", "D4", "A4", "eta(nu(S3))")


def _group(name):
    if name == "eta(nu(S3))":
        return build_nu(realize_name("S3")).eta
    return realize_name(name)


def record(name) -> dict:
    g = _group(name)
    return {"words": [g.element_str(x) for x in range(g.order)],
            "inverse": [g.inv(x) for x in range(g.order)]}


@pytest.fixture(scope="module")
def records():
    return json.loads(RECORDS.read_text(encoding="utf-8"))


def test_every_group_is_recorded(records):
    assert sorted(records) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_words_and_inverses_match_record(name, records):
    assert record(name) == records[name]


if __name__ == "__main__":
    RECORDS.write_text(json.dumps({n: record(n) for n in NAMES}, indent=1)
                       + "\n", encoding="utf-8")
