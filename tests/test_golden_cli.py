"""Replay recorded CLI answers: every command below must print the same
`query`, `result` and `chain` as when the records were written.

Each record in golden/cli_records.json was produced by the engine before a
refactor that had to keep its output: the tensor-realization refactor for
the first ones, and the rework of the input layer (tokenizer, `--other`
lookup, catalog names) for the commands no earlier record covered.
`stats` is left out because it holds timing.
"""

import argparse
import json
import sys
from pathlib import Path

import pytest

from ntl.cli import build_parser, main

RECORDS = Path(__file__).parent / "golden" / "cli_records.json"

COMMANDS = (
    [("invariant", kind, "--group", g)
     for g in ("S3", "D4", "Q8", "A4")
     for kind in ("j2", "delta", "delta-tilde", "schur", "stable-pi2",
                  "pi4-s2")]
    + [("tensors", "--group", "Q8"),
       ("tensor", "--group", "C4", "--other", "C6", "--trivial-actions"),
       ("pushout", "--group", "C2xC2", "--m", "a,b", "--n", "a,b"),
       ("three-connected", "--group", "C6", "--m", "a^3", "--n", "a^2"),
       ("thmc", "--group", "A4"),
       ("finiteness", "--group", "C2xC6"),
       ("exponent-check", "--group", "Q8")]
    # Outputs read off an abelian section (J2, the pushout's pi2 and pi3,
    # the diagonal) or off G/G' of a tensor product without a presentation.
    + [("tensor", "--group", "A4"),
       ("pushout", "--group", "S3", "--m", "b", "--n", "b"),
       ("wedge", "--group", "C2xC4", "--other", "C6"),
       ("finiteness", "--group", "Q8"),
       ("invariant", "j2", "--group", "C2xC2")]
    # One record for each command no record above covers, and the
    # infinite cyclic group on the abelian fast path.
    + [("nu", "--group", "S3"),
       ("eta", "--group", "C3", "--other", "C2", "--trivial-actions"),
       ("triad", "--group", "C2", "--other", "C2", "--trivial-actions",
        "-p", "1", "-q", "2"),
       ("bound", "thma", "2", "3", "4", "5"),
       ("bound", "thmb", "2", "2"),
       ("bound", "pushout", "2", "3", "4"),
       ("thmc", "--group", "Z"),
       ("finiteness", "--group", "Z"),
       ("wedge", "--group", "Z", "--other", "C6")])


def replay(argv, capsys) -> dict:
    rc = main(list(argv) + ["--json"])
    record = json.loads(capsys.readouterr().out)
    assert rc == 0
    record.pop("stats")
    return record


@pytest.fixture(scope="module")
def records():
    return json.loads(RECORDS.read_text(encoding="utf-8"))


def test_every_command_is_recorded(records):
    assert sorted(records) == sorted(" ".join(a) for a in COMMANDS)


def test_every_subcommand_but_verify_has_a_record():
    # verify prints no query/result/chain record; its checks have their own
    # tests
    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    recorded = {argv[0] for argv in COMMANDS}
    assert recorded == set(sub.choices) - {"verify"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_replay_matches_record(argv, records, capsys):
    assert replay(argv, capsys) == records[" ".join(argv)]


# The commands whose answer is eta itself; every other command reads T.
ETA_COMMANDS = ("eta", "nu")


class EtaBuilt(Exception):
    """Raised by `build_eta` and `build_nu` under the `no_eta` fixture."""


@pytest.fixture
def no_eta(monkeypatch):
    """`build_eta` and `build_nu` raise EtaBuilt in every module that binds
    them, so a command reaches eta only by raising."""
    def refuse(*args, **kwargs):
        raise EtaBuilt
    for name, module in list(sys.modules.items()):
        if name == "ntl" or name.startswith("ntl."):
            for builder in ("build_eta", "build_nu"):
                if hasattr(module, builder):
                    monkeypatch.setattr(module, builder, refuse)


@pytest.mark.parametrize(
    "argv", [a for a in COMMANDS if a[0] not in ETA_COMMANDS], ids=" ".join)
def test_commands_that_read_t_build_no_eta(argv, records, capsys, no_eta):
    assert replay(argv, capsys) == records[" ".join(argv)]


@pytest.mark.parametrize(
    "argv", [a for a in COMMANDS if a[0] in ETA_COMMANDS], ids=" ".join)
def test_eta_and_nu_build_eta(argv, no_eta):
    with pytest.raises(EtaBuilt):
        main(list(argv) + ["--json"])
