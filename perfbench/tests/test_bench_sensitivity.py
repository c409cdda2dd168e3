"""The benchmark's answer checks can fail: failed_frac flips above zero."""

import json
import random

import run

CHEAP = {"nu --group C2", "thmc --group C3", "nu --group S3"}


def _failed_frac(queries):
    p = run.run_pass(queries, random.Random(0))
    return p.failed / p.attempted


def _square_subset(expected):
    return [q for q in run.square_queries(expected)
            if run.query_key(q.argv) in CHEAP]


def test_corrupted_expected_record_is_counted_as_failure():
    run.prepare_engine()
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    assert _failed_frac(_square_subset(expected)) == 0
    expected["nu --group S3"]["order"] += 1
    assert _failed_frac(_square_subset(expected)) > 0


def test_faulted_verify_is_counted_as_failure():
    run.prepare_engine()
    faulted = run.Query(("verify", "--fault-skip-eta-relators"),
                        run.verify_catalog()[0].check)
    assert _failed_frac([faulted]) > 0

