"""Every work count the traced run reports repeats exactly."""

import random

import pytest

import run
from spans import Tracer

QUERIES = [("nu", "--group", "D6"), ("thmc", "--group", "S3"),
           ("finiteness", "--group", "C2xC2"),
           ("tensor", "--group", "C4", "--other", "C6", "--trivial-actions")]
TIMINGS = ("_s", "useful_ratio")


def _traced_counts(seed):
    run.prepare_engine()
    queries = [run.Query(argv, lambda rc, out: (1, int(rc != 0)))
               for argv in QUERIES]
    tracer = Tracer()
    tracer.install()
    try:
        p = run.run_pass(queries, random.Random(seed), tracer)
    finally:
        tracer.uninstall()
    assert p.failed == 0
    return {k: v for k, v in p.layers.items() if not k.endswith(TIMINGS)}


@pytest.fixture(scope="module")
def counts():
    return [_traced_counts(seed) for seed in (1, 1, 2)]


def test_counts_repeat_across_runs_and_seeds(counts):
    assert counts[0] == counts[1] == counts[2]
    for name in ("coset.cosets_defined", "coset.coincidences",
                 "coset.table_bytes", "tensor.relators",
                 "tensor.relator_letters", "abelian.smith.cells",
                 "groups.realize.calls"):
        assert counts[0][name] > 0, name


def test_d6_nu_build_matches_the_roadmap_baseline():
    run.prepare_engine()
    tracer = Tracer()
    tracer.install()
    try:
        before = tracer.snapshot()
        rc, _, _ = run.call_cli(("nu", "--group", "D6"))
        spent = tracer.snapshot() - before
    finally:
        tracer.uninstall()
    assert rc == 0
    assert spent.counts["coset.cosets_defined"] == 100_452
    assert spent.counts["coset.cosets_final"] == 6912
    assert spent.counts["coset.coincidences"] == 93_540
    assert spent.counts["coset.table_bytes"] == 6912 ** 2 * 2
