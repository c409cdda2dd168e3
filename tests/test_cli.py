import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ntl import catalog, cli
from ntl.cli import _budget_from, build_parser, main
from ntl.coset import EnumerationBudget, _Enumerator
from ntl.errors import NtlError


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def readme_cli_lines():
    """The argv of every `ntl` line in the README's CLI block."""
    text = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("ntl ")]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--json")
    return rc, json.loads(out), err


class TestBasicCommands:
    def test_tensor_c4_c6(self, capsys):
        rc, record, _ = run_json(capsys, "tensor", "--group", "C4",
                                 "--other", "C6", "--trivial-actions")
        assert rc == 0
        assert record["result"]["order"] == 2
        assert record["result"]["abelian_invariants"] == [2]
        assert record["result"]["tensor_count_m"] == 2
        assert record["query"]["command"] == "tensor"

    def test_nu_s3(self, capsys):
        rc, record, _ = run_json(capsys, "nu", "--group", "S3")
        assert rc == 0
        assert record["result"]["order"] == 216
        assert record["chain"] == ["decomposition: 216 = 6 * 6 * 6"]
        assert record["stats"]["cosets_defined"] > 0

    def test_eta_distinct_groups(self, capsys):
        rc, record, _ = run_json(capsys, "eta", "--group", "C2",
                                 "--other", "C3", "--trivial-actions")
        assert rc == 0
        assert record["result"]["order"] == 6

    def test_tensors_count(self, capsys):
        rc, record, _ = run_json(capsys, "tensors", "--group", "C6")
        assert rc == 0
        assert record["result"]["tensor_count_m"] == 6

    @pytest.mark.parametrize("kind,order", [("j2", 2), ("delta", 2),
                                            ("delta-tilde", 1),
                                            ("schur", 1), ("stable-pi2", 2),
                                            ("pi4-s2", 2)])
    def test_invariants_of_c2(self, capsys, kind, order):
        rc, record, _ = run_json(capsys, "invariant", kind,
                                 "--group", "C2")
        assert rc == 0
        assert record["result"]["order"] == order

    def test_triad(self, capsys):
        rc, record, _ = run_json(capsys, "triad", "--group", "C2",
                                 "--other", "C2", "--trivial-actions",
                                 "-p", "2", "-q", "1")
        assert rc == 0
        assert record["result"]["order"] == 2
        assert "dimension p+q+1 = 4" in record["chain"][0]

    def test_wedge(self, capsys):
        rc, record, _ = run_json(capsys, "wedge", "--group", "C4",
                                 "--other", "C6")
        assert rc == 0
        assert record["result"]["order"] == 2

    def test_wedge_infinite_input(self, capsys):
        rc, record, _ = run_json(capsys, "wedge", "--group", "Z",
                                 "--other", "Z")
        assert rc == 0
        assert record["result"]["order"] == "infinite"

    def test_pushout(self, capsys):
        rc, record, _ = run_json(capsys, "pushout", "--group", "C2xC2",
                                 "--m", "a, b", "--n", "a, b")
        assert rc == 0
        assert record["result"]["order"] == 16
        assert any("pi2" in line for line in record["chain"])

    def test_pushout_with_trivial_subgroup(self, capsys):
        rc, record, _ = run_json(capsys, "pushout", "--group", "C6",
                                 "--m", "a^6", "--n", "a^2")
        assert rc == 0
        assert record["result"]["order"] == 1
        assert record["chain"] == [
            "pi2 = (M cap N)/[M,N]: order 1, invariants []",
            "pi3 = kernel of the derived map: order 1, invariants []"]
        assert record["stats"]["cosets_defined"] <= 100

    def test_three_connected(self, capsys):
        rc, record, _ = run_json(capsys, "three-connected", "--group", "C6",
                                 "--m", "a^3", "--n", "a^2")
        assert rc == 0
        assert "verdict: 3-connected" in record["chain"]

    def test_thmc(self, capsys):
        rc, out, _ = run(capsys, "thmc", "--group", "S3")
        assert rc == 0
        assert out.count("true") >= 8

    def test_thmc_z(self, capsys):
        rc, record, _ = run_json(capsys, "thmc", "--group", "Z")
        assert rc == 0
        assert record["result"]["order"] == "infinite"
        chain = record["chain"]
        assert [line[:3] for line in chain[:7]] == [f"({k})" for k in "abcdefg"]
        assert all(line.endswith(": false") for line in chain[:7])
        assert chain[7:] == ["unanimous: true", "witness: a(x)a has infinite "
                             "order in the tensor square Z"]

    def test_finiteness(self, capsys):
        rc, record, _ = run_json(capsys, "finiteness", "--group", "S3")
        assert rc == 0
        assert record["result"]["order"] == 6
        assert any("m = 6" in line for line in record["chain"])

    def test_finiteness_undetermined(self, capsys):
        rc, record, _ = run_json(capsys, "finiteness", "--group", "F2")
        assert rc == 0
        assert record["result"]["order"] == "undetermined"

    def test_bounds(self, capsys):
        rc, record, _ = run_json(capsys, "bound", "thma", "2", "3", "4", "5")
        assert rc == 0
        assert record["result"]["order"] == 120
        assert len(record["chain"]) == 3
        rc, record, _ = run_json(capsys, "bound", "thmb", "2", "2")
        assert record["result"]["order"] == 4
        rc, record, _ = run_json(capsys, "bound", "pushout", "2", "3", "4")
        assert record["result"]["order"] == 24

    @pytest.mark.parametrize("command", ["nu", "thmc", "finiteness"])
    def test_a_catalog_group_is_reported_by_its_one_name(self, capsys,
                                                         command):
        rc, record, _ = run_json(capsys, command, "--group", "C06")
        assert rc == 0
        assert record["query"]["group"] == "C6"

    def test_f1_is_reported_as_z(self, capsys):
        rc, record, _ = run_json(capsys, "thmc", "--group", "F1")
        assert rc == 0
        assert record["query"]["group"] == "Z"

    @pytest.mark.parametrize("command", ["tensor", "tensors"])
    def test_two_spellings_of_one_group_are_the_square_pair(self, capsys,
                                                            command):
        rc, record, _ = run_json(capsys, command, "--group", "S3",
                                 "--other", "S03")
        _, alone, _ = run_json(capsys, command, "--group", "S3")
        assert rc == 0
        assert record["query"] == alone["query"]
        assert record["result"] == alone["result"]

    def test_wedge_resolves_one_subject_for_two_spellings(self, capsys,
                                                          monkeypatch):
        resolved = []
        resolve = cli.resolve_subject

        def counted(subject):
            resolved.append(subject.name)
            return resolve(subject)
        monkeypatch.setattr(cli, "resolve_subject", counted)
        rc, record, _ = run_json(capsys, "wedge", "--group", "C2",
                                 "--other", "C02")
        assert rc == 0
        assert resolved == ["C2"]
        assert (record["query"]["group"], record["query"]["other"]) == \
            ("C2", "C2")
        assert record["result"]["abelian_invariants"] == [2]

    def test_thmc_reports_the_direct_build(self, capsys):
        # the tensor square's own presentation: 41 cosets, not nu(S3)'s
        # 2487
        _, thmc, _ = run_json(capsys, "thmc", "--group", "S3")
        _, tensor, _ = run_json(capsys, "tensor", "--group", "S3")
        assert thmc["stats"]["cosets_defined"] == \
            tensor["stats"]["cosets_defined"] == 41

    def test_a_cold_catalog_cache_costs_the_command_nothing(self, capsys,
                                                            monkeypatch):
        monkeypatch.setattr(catalog, "_REALIZED", {})
        _, cold, _ = run_json(capsys, "nu", "--group", "S3")
        assert "S3" in catalog._REALIZED  # the cold run filled the cache
        _, warm, _ = run_json(capsys, "nu", "--group", "S3")
        assert cold["stats"]["cosets_defined"] == \
            warm["stats"]["cosets_defined"] == 2487

    def test_triad_reports_the_direct_build(self, capsys):
        _, triad, _ = run_json(capsys, "triad", "--group", "S3",
                               "--other", "S3")
        _, tensor, _ = run_json(capsys, "tensor", "--group", "S3")
        assert triad["stats"]["cosets_defined"] == \
            tensor["stats"]["cosets_defined"] == 41

    def test_finiteness_reports_the_direct_build(self, capsys):
        _, fin, _ = run_json(capsys, "finiteness", "--group", "C2xC2")
        _, tensor, _ = run_json(capsys, "tensor", "--group", "C2xC2")
        assert fin["stats"]["cosets_defined"] == \
            tensor["stats"]["cosets_defined"] == 31

    def test_exponent_check(self, capsys):
        rc, record, _ = run_json(capsys, "exponent-check", "--group", "C5")
        assert rc == 0
        assert record["result"]["exponent"] == 5
        assert any("applies: false" in line for line in record["chain"])


class TestTriad:
    def triad(self, capsys, other, *degrees):
        rc, record, _ = run_json(capsys, "triad", "--group", "C2",
                                 "--other", other, "--trivial-actions",
                                 *degrees)
        assert rc == 0
        return record

    def test_klein_case(self, capsys):
        record = self.triad(capsys, "C2", "-p", "1", "-q", "1")
        assert record["result"]["order"] == 2
        assert record["chain"] == ["triad group lives in dimension "
                                   "p+q+1 = 3"]

    def test_coprime_vanishes(self, capsys):
        record = self.triad(capsys, "C3")
        assert record["result"]["order"] == 1

    def test_dimension_arithmetic(self, capsys):
        record = self.triad(capsys, "C2", "-p", "2", "-q", "1")
        assert record["query"]["p"] == 2 and record["query"]["q"] == 1
        assert record["chain"] == ["triad group lives in dimension "
                                   "p+q+1 = 4"]

    @pytest.mark.parametrize("argv,name,degree", [
        (("--group", "S3", "-p", "2", "-q", "3"), "S3", 3),
        (("--group", "S3", "--other", "C2", "--trivial-actions", "-p", "2"),
         "S3", 3),
        (("--group", "C2", "--other", "S3", "--trivial-actions", "-q", "3"),
         "S3", 4)], ids=["square", "group", "other"])
    def test_a_degree_above_one_refuses_a_non_abelian_group(
            self, capsys, monkeypatch, argv, name, degree):
        def refuse(pair):
            raise AssertionError("built T")
        monkeypatch.setattr(cli, "build_direct", refuse)
        rc, out, err = run(capsys, "triad", *argv)
        assert (rc, out) == (1, "")
        assert err == (f"error NotAbelian: '{name}' is not abelian; a "
                       f"relative homotopy group of degree {degree} must "
                       "be\n")

    @pytest.mark.parametrize("argv", [
        ("--group", "F2", "--other", "C2", "--trivial-actions", "-p", "2"),
        ("--group", "C2", "--other", "F3", "--trivial-actions", "-q", "2")],
        ids=["group", "other"])
    def test_a_catalog_record_refuses_before_any_realization(
            self, capsys, monkeypatch, argv):
        # F2 and F3 are infinite: resolving either could only exhaust the
        # coset budget, so the catalog's record alone must refuse them.
        def unreachable(subject):
            raise AssertionError("resolved a group")
        monkeypatch.setattr(cli, "resolve_subject", unreachable)
        rc, out, err = run(capsys, "triad", *argv)
        name = argv[1] if argv[1] != "C2" else argv[3]
        assert (rc, out) == (1, "")
        assert err == (f"error NotAbelian: '{name}' is not abelian; a "
                       "relative homotopy group of degree 3 must be\n")

    def test_a_file_group_is_refused_once_realized(self, capsys, tmp_path):
        # A file records no facts: S3 from a file is refused by its table.
        f = tmp_path / "s3.grp"
        f.write_text("group G { gens: a b; rels: a^3, b^2, (a b)^2; }")
        rc, out, err = run(capsys, "triad", "--group", str(f), "--other",
                           "C2", "--trivial-actions", "-p", "2")
        assert (rc, out) == (1, "")
        assert err == ("error NotAbelian: 'G' is not abelian; a relative "
                       "homotopy group of degree 3 must be\n")
        rc, out, err = run(capsys, "triad", "--group", str(f), "--other",
                           "C2", "--trivial-actions", "-q", "2")
        assert (rc, err) == (0, "")

    def test_the_flags_are_checked_before_the_record(self, capsys):
        rc, out, err = run(capsys, "triad", "--group", "F2", "--other", "C2",
                           "--trivial-actions", "--conjugation", "-p", "2")
        assert (rc, out) == (2, "")
        assert err.startswith("usage error: choose one of")

    def test_degree_one_takes_a_non_abelian_group(self, capsys):
        rc, record, _ = run_json(capsys, "triad", "--group", "S3", "--other",
                                 "C2", "--trivial-actions", "-q", "2")
        assert rc == 0
        assert record["result"]["order"] == 2  # S3^ab (x) C2

    def test_without_the_degree_check_s3_is_answered_again(self, capsys,
                                                           monkeypatch):
        monkeypatch.setattr(cli, "_check_triad_degrees", lambda *a: None)
        rc, record, _ = run_json(capsys, "triad", "--group", "S3",
                                 "-p", "2", "-q", "3")
        assert rc == 0
        assert record["result"]["order"] == 6  # S3(x)S3

    @pytest.mark.parametrize("group,other", [
        ("C4", "C6"), ("C2xC4", "C6"), ("C3", "C3"), ("C2xC2", "C2xC2"),
        ("C1", "C5")])
    def test_both_degrees_above_one_give_the_wedge_answer(self, capsys,
                                                          group, other):
        # Both relative groups are abelian, so under trivial actions the
        # triad group is their abelian tensor product, which `wedge` reads
        # off the two abelianizations without building T.
        rc, triad, _ = run_json(capsys, "triad", "--group", group, "--other",
                                other, "--trivial-actions", "-p", "2",
                                "-q", "2")
        assert rc == 0
        rc, wedge, _ = run_json(capsys, "wedge", "--group", group,
                                "--other", other)
        assert rc == 0
        keys = ("order", "abelian_invariants")
        assert ({k: triad["result"][k] for k in keys}
                == {k: wedge["result"][k] for k in keys})

    def test_degree_validation(self, capsys):
        for degrees in (["-p", "0"], ["-q", "0"], ["-p", "-1", "-q", "2"]):
            rc, out, err = run(capsys, "triad", "--group", "C2", "--other",
                               "C2", "--trivial-actions", *degrees)
            assert rc == 2
            assert out == ""
            assert "connectivity degrees must be >= 1" in err


class TestExitCodes:
    def test_infinite_group_is_domain_error(self, capsys):
        rc, out, err = run(capsys, "nu", "--group", "Z")
        assert rc == 1
        assert "BudgetExceeded" in err

    def test_thmc_on_a_free_group_is_undecided(self, capsys):
        rc, out, err = run(capsys, "thmc", "--group", "F2")
        assert rc == 1
        assert out == ""
        assert err == ("error Undecided: budget exhausted with no finiteness "
                       "certificate (catalog entry 'F2' is infinite; no "
                       "coset budget can realize it)\n")

    def test_unknown_catalog_name(self, capsys):
        rc, _, err = run(capsys, "tensor", "--group", "S9",
                         "--trivial-actions")
        assert rc == 1
        assert "UnknownCatalogName" in err

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tensor"])
        assert exc.value.code == 2

    def test_conflicting_action_flags(self, capsys):
        rc, _, err = run(capsys, "tensor", "--group", "C2",
                         "--trivial-actions", "--conjugation")
        assert rc == 2
        assert "usage error" in err

    def test_conjugation_needs_same_group(self, capsys):
        rc, _, err = run(capsys, "tensor", "--group", "C2",
                         "--other", "C3")
        assert rc == 2

    def test_an_unknown_other_is_looked_up_before_the_pair_is_judged(
            self, capsys):
        rc, out, err = run(capsys, "tensor", "--group", "C2",
                           "--other", "NOSUCH")
        assert (rc, out) == (1, "")
        assert err.startswith("error UnknownCatalogName: ")

    def test_wedge_of_a_non_abelian_group_is_a_domain_error(self, capsys):
        rc, out, err = run(capsys, "wedge", "--group", "S3", "--other", "C2")
        assert (rc, out) == (1, "")
        assert err == ("error NotAbelian: 'S3' is not abelian; a second "
                       "homotopy group must be\n")

    @pytest.mark.parametrize("argv,name", [
        (("--group", "F2", "--other", "C2"), "F2"),
        (("--group", "F3"), "F3")], ids=["F2", "F3"])
    def test_wedge_refuses_a_catalog_group_recorded_non_abelian(
            self, capsys, monkeypatch, argv, name):
        # F2 and F3 are infinite: resolving either could only exhaust the
        # coset budget, so the catalog's record alone must refuse them.
        def unreachable(subject):
            raise AssertionError("resolved a group")
        monkeypatch.setattr(cli, "resolve_subject", unreachable)
        rc, out, err = run(capsys, "wedge", *argv)
        assert (rc, out) == (1, "")
        assert err == (f"error NotAbelian: '{name}' is not abelian; a second "
                       "homotopy group must be\n")

    def test_a_group_file_defining_two_groups_is_a_usage_error(
            self, capsys, tmp_path):
        f = tmp_path / "two.grp"
        f.write_text("group K { gens: a; rels: a^2; }\n"
                     "group L { gens: x; rels: x^3; }\n")
        rc, out, err = run(capsys, "nu", "--group", str(f))
        assert (rc, out) == (2, "")
        assert err == (f"usage error: {f} defines 2 groups; exactly one "
                       "needed\n")

    def test_error_codes_distinct(self):
        # Read off the hierarchy, so no error class can be left out; a
        # class that sets no code of its own would repeat the base's.
        codes = [e.code for e in NtlError.__subclasses__()]
        codes.append(NtlError.code)
        assert len(codes) == len(set(codes))

    @pytest.mark.parametrize("argv", [
        ("wedge", "--group", "C4", "--other", "C6",
         "--action", "/nonexistent.act"),
        ("wedge", "--group", "C4", "--other", "C6", "--trivial-actions",
         "--conjugation"),
        ("bound", "thma", "2", "3", "4", "5", "--max-cosets", "1"),
        ("bound", "thmb", "2", "3", "--budget-ms", "100")],
        ids=["wedge-action", "wedge-regimes", "bound-cosets", "bound-ms"])
    def test_a_flag_the_command_never_reads_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_bad_degree_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "triad", "--group", "C2", "--other", "C2",
                         "--trivial-actions", "-p", "0")
        assert rc == 2
        assert "usage error" in err

    def test_missing_file_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "tensor", "--group", "C2", "--other", "C3",
                         "--action", "/nonexistent/file.act")
        assert rc == 2

    def test_not_normal_subgroup_is_domain_error(self, capsys):
        rc, _, err = run(capsys, "pushout", "--group", "S3",
                         "--m", "a", "--n", "b")
        assert rc == 1
        assert "NotNormal" in err

    def test_bound_zero_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "bound", "thmb", "0", "5")
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ("tensor", "--group", "F2", "--trivial-actions", "--conjugation"),
        ("tensor", "--group", "Z", "--other", "C2")],
        ids=["two-regimes", "conjugation-of-distinct-groups"])
    def test_action_flags_are_checked_before_any_group(self, capsys, argv):
        # Resolving F2 or Z would raise BudgetExceeded (exit 1) first.
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("usage error: ")

    def test_a_known_order_over_the_cap_is_refused_before_enumerating(
            self, capsys):
        # Enumerating C30000 takes most of a minute, past this budget.
        rc, out, err = run(capsys, "nu", "--group", "C30000",
                           "--budget-ms", "2000")
        assert (rc, out) == (1, "")
        assert err == ("error CapExceeded: group order 30000 exceeds cap "
                       "20000\n")

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["uncached", "cached"])
    @pytest.mark.parametrize("source", ["catalog", "file"])
    @pytest.mark.parametrize("argv,orders", [
        (("thmc",), "169"), (("nu",), "169"), (("finiteness",), "169"),
        (("invariant", "schur"), "169"),
        (("tensor", "--other", "C12", "--trivial-actions"), "156")],
        ids=["thmc", "nu", "finiteness", "invariant-schur", "tensor"])
    def test_a_known_pair_over_the_cap_is_refused_before_enumerating(
            self, capsys, tmp_path, monkeypatch, argv, orders, source,
            cached):
        # C13 is cyclic, so a one-generator file knows its order too.
        group = "C13"
        if source == "file":
            group = str(tmp_path / "c13.grp")
            Path(group).write_text("group K { gens: a; rels: a^13; }")
        if cached:
            for name in ("C12", "C13"):
                catalog.realize_entry(catalog.catalog_lookup(name))
        else:
            monkeypatch.setattr(catalog, "_REALIZED", {})

        def refuse(self):
            raise AssertionError("enumerated")

        monkeypatch.setattr(_Enumerator, "run", refuse)
        rc, out, err = run(capsys, *argv, "--group", group)
        assert (rc, out) == (1, "")
        assert err == (f"error CapExceeded: |G|*|H| = {orders} exceeds the "
                       "build cap 144\n")

    def test_fault_flag_in_file_scope_is_a_usage_error(self, capsys,
                                                       tmp_path):
        f = tmp_path / "one.grp"
        f.write_text("group K { gens: a; rels: a^5; }")
        rc, out, err = run(capsys, "verify", str(f),
                           "--fault-skip-eta-relators")
        assert (rc, out) == (2, "")
        assert err.startswith("usage error: ")

    def test_the_fault_scan_is_timed_as_a_check(self, capsys):
        rc, record, _ = run_json(capsys, "verify",
                                 "--fault-skip-eta-relators")
        assert (rc, record["passed"]) == (1, False)
        [check] = record["checks"]
        assert 1 <= check["elapsed_ms"] <= record["stats"]["elapsed_ms"]


class TestDeterminism:
    def strip_timing(self, record):
        """The record without its wall times: `stats.elapsed_ms` and, in
        a `verify` record, each check's `elapsed_ms`."""
        record = json.loads(json.dumps(record))
        record["stats"].pop("elapsed_ms")
        for check in record.get("checks", []):
            check.pop("elapsed_ms")
        return record

    def test_identical_invocations_identical_output(self, capsys):
        rc1, rec1, _ = run_json(capsys, "nu", "--group", "D4")
        rc2, rec2, _ = run_json(capsys, "nu", "--group", "D4")
        assert rc1 == rc2 == 0
        assert self.strip_timing(rec1) == self.strip_timing(rec2)

    def test_identical_verify_runs_identical_records(self, capsys,
                                                     tmp_path):
        f = tmp_path / "two.grp"
        f.write_text("group A { gens: a; rels: a^4; }\n"
                     "group B { gens: a b; rels: a^3, b^2, (a b)^2; }\n")
        rc1, rec1, _ = run_json(capsys, "verify", str(f))
        rc2, rec2, _ = run_json(capsys, "verify", str(f))
        assert rc1 == rc2 == 0 and len(rec1["checks"]) == 4
        assert self.strip_timing(rec1) == self.strip_timing(rec2)

    def test_key_order_is_sorted(self, capsys):
        rc, out, _ = run(capsys, "tensor", "--group", "C2",
                         "--other", "C2", "--trivial-actions", "--json")
        record = json.loads(out)
        assert list(record) == sorted(record)
        assert out == json.dumps(record, sort_keys=True, indent=2) + "\n"


class TestFilesAndEnv:
    def test_group_from_file(self, capsys, tmp_path):
        f = tmp_path / "g.grp"
        f.write_text("group K { gens: a b; rels: a^2, b^2, (a b)^2; }")
        rc, record, _ = run_json(capsys, "nu", "--group", str(f))
        assert rc == 0
        assert record["result"]["order"] == 256

    @pytest.mark.parametrize("command", ["thmc", "finiteness"])
    def test_file_group_is_realized_once(self, capsys, tmp_path, monkeypatch,
                                         command):
        f = tmp_path / "k.grp"
        f.write_text("group K { gens: a b; rels: a^2, b^2, (a b)^2; }")
        runs = []
        enumerate_once = _Enumerator.run

        def counted(self):
            rows, stats = enumerate_once(self)
            runs.append(stats.cosets_defined)
            return rows, stats
        monkeypatch.setattr(_Enumerator, "run", counted)
        rc, record, _ = run_json(capsys, command, "--group", str(f))
        assert rc == 0
        assert record["result"]["order"] == 4
        # K, then its tensor square by the direct route
        assert runs == [4, 31]
        assert record["stats"]["cosets_defined"] == 35

    def test_nu_counts_the_file_realization(self, capsys, tmp_path,
                                            monkeypatch):
        f = tmp_path / "k.grp"
        f.write_text("group K { gens: a b; rels: a^2, b^2, (a b)^2; }")
        runs = []
        enumerate_once = _Enumerator.run

        def counted(self):
            rows, stats = enumerate_once(self)
            runs.append(stats.cosets_defined)
            return rows, stats
        monkeypatch.setattr(_Enumerator, "run", counted)
        rc, record, _ = run_json(capsys, "nu", "--group", str(f))
        assert rc == 0
        assert record["result"]["order"] == 256
        assert runs == [4, 801]
        assert record["stats"]["cosets_defined"] == 805

    @pytest.mark.parametrize("command,result", [
        ("thmc", {"order": "infinite"}),
        ("finiteness", {"abelian": True, "abelian_invariants": [0],
                        "exponent": "infinite", "order": "infinite"}),
        ("wedge", {"abelian": True, "abelian_invariants": [0],
                   "exponent": "infinite", "order": "infinite"}),
    ])
    def test_infinite_cyclic_file_takes_the_fast_path(
            self, capsys, tmp_path, command, result):
        f = tmp_path / "z.grp"
        f.write_text("group K { gens: a; }")
        rc, record, _ = run_json(capsys, command, "--group", str(f))
        assert rc == 0
        assert record["result"] == result
        assert record["stats"]["cosets_defined"] == 0

    def test_wedge_resolves_a_file_group_once(self, capsys, tmp_path):
        f = tmp_path / "c4.grp"
        f.write_text("group A { gens: a; rels: a^4; }")
        rc, record, _ = run_json(capsys, "wedge", "--group", str(f))
        assert rc == 0
        assert record["result"]["abelian_invariants"] == [4]
        assert record["stats"]["cosets_defined"] == 4

    def test_infinite_cyclic_group_has_no_nu(self, capsys, tmp_path):
        f = tmp_path / "z.grp"
        f.write_text("group K { gens: a; }")
        for group, reason in (
                ("Z", "catalog entry 'Z' is infinite; no coset budget can "
                      "realize it"),
                (str(f), "coset budget 1000 exhausted (possible infinite "
                         "group or undersized budget)")):
            rc, out, err = run(capsys, "nu", "--group", group,
                               "--max-cosets", "1000")
            assert (rc, out) == (1, "")
            assert err == f"error BudgetExceeded: {reason}\n"

    def test_undetermined_finiteness_counts_the_exhausted_enumeration(
            self, capsys, tmp_path):
        f = tmp_path / "F.grp"
        f.write_text("group F { gens: a b; }")
        rc, record, _ = run_json(capsys, "finiteness", "--group", str(f),
                                 "--max-cosets", "500")
        assert rc == 0
        assert record["result"] == {"order": "undetermined"}
        assert record["stats"]["cosets_defined"] == 501

    def test_two_paths_to_one_file_are_the_square_pair(self, capsys,
                                                       tmp_path, monkeypatch):
        (tmp_path / "K.grp").write_text(
            "group K { gens: a b; rels: a^2, b^2, (a b)^2; }")
        monkeypatch.chdir(tmp_path)
        rc, record, _ = run_json(capsys, "tensor", "--group", "K.grp",
                                 "--other", "./K.grp")
        _, alone, _ = run_json(capsys, "tensor", "--group", "K.grp")
        assert rc == 0
        assert record["query"] == alone["query"]
        assert record["query"]["actions"] == "conjugation"
        assert record["result"] == alone["result"]
        assert record["stats"]["cosets_defined"] == \
            alone["stats"]["cosets_defined"]

    def test_action_file(self, capsys, tmp_path):
        f = tmp_path / "acts.act"
        f.write_text("""
        action fwd { from: C2; to: C3; a => (a -> a); }
        action bwd { from: C3; to: C2; a => (a -> a); }
        """)
        rc, record, _ = run_json(capsys, "tensor", "--group", "C2",
                                 "--other", "C3", "--action", str(f))
        assert rc == 0
        assert record["result"]["order"] == 1

    @pytest.mark.parametrize("group", ["C4", "F2"])
    def test_action_names_are_matched_before_either_group_is_resolved(
            self, capsys, tmp_path, group):
        # F2 has no realization, so resolving it before the names are
        # matched would raise BudgetExceeded (exit 1).
        f = tmp_path / "acts.act"
        f.write_text("""
        action fwd { from: C2; to: C3; a => (a -> a); }
        action bwd { from: C3; to: C2; a => (a -> a); }
        """)
        rc, out, err = run(capsys, "tensor", "--group", group,
                           "--other", "C3", "--action", str(f))
        assert (rc, out) == (2, "")
        assert err == (f"usage error: {f} must define exactly one action "
                       f"{group}->C3 and one C3->{group}\n")

    def write_pair(self, tmp_path, k_gens, k_rels, k_maps):
        """K.grp, L.grp = <x | x^3>, and an action file in which K acts
        on L by `k_maps` and L acts trivially on K."""
        k = f"group K {{ gens: {k_gens}; rels: {k_rels}; }}\n"
        l_grp = "group L { gens: x; rels: x^3; }\n"
        (tmp_path / "K.grp").write_text(k)
        (tmp_path / "L.grp").write_text(l_grp)
        trivial = ", ".join(f"{g} -> {g}" for g in k_gens.split())
        (tmp_path / "acts.act").write_text(
            k + l_grp + f"action kl {{ from: K; to: L; {k_maps} }}\n"
            f"action lk {{ from: L; to: K; x => ({trivial}); }}\n")
        return [str(tmp_path / n) for n in ("K.grp", "L.grp", "acts.act")]

    @pytest.mark.parametrize("k_gens,k_rels,k_maps,element", [
        ("a b", "a b^-1, a^2", "a => (x -> x); b => (x -> x^-1);", "a"),
        ("a b", "a b^-1, a^2", "a => (x -> x^-1); b => (x -> x);", "a"),
        ("a b", "a^2, b", "a => (x -> x); b => (x -> x^-1);", "1")],
        ids=["b-is-a", "b-is-a-swapped", "b-is-1"])
    def test_two_maps_for_one_element_are_refused(self, capsys, tmp_path,
                                                  k_gens, k_rels, k_maps,
                                                  element):
        # a and b name one element of K but are given different maps, so
        # an answer would depend on which map the walk reads first
        k, l_grp, acts = self.write_pair(tmp_path, k_gens, k_rels, k_maps)
        rc, out, err = run(capsys, "tensor", "--group", k, "--other", l_grp,
                           "--action", acts)
        assert (rc, out) == (1, "")
        assert err == ("error NotActionHomomorphism: action 'kl': the map "
                       "of generator 'b' is not the action the other "
                       f"generators give its element '{element}' of 'K'\n")

    @pytest.mark.parametrize("images", ["x -> x^-1, y -> y",
                                        "x -> x, y -> y^-1"],
                             ids=["x-inverted", "y-inverted"])
    def test_two_images_of_one_element_are_refused(self, capsys, tmp_path,
                                                   images):
        # x and y are one element of M, sent to different images, so an
        # answer would depend on which image the walk reads first
        m = "group M { gens: x y; rels: x y^-1, x^3; }\n"
        (tmp_path / "M.grp").write_text(m)
        f = tmp_path / "acts.act"
        f.write_text(m + f"action cm {{ from: C2; to: M; a => ({images}); }}\n"
                     "action mc { from: M; to: C2; x => (a -> a); "
                     "y => (a -> a); }\n")
        rc, out, err = run(capsys, "tensor", "--group", "C2", "--other",
                           str(tmp_path / "M.grp"), "--action", str(f))
        assert (rc, out) == (1, "")
        assert err == ("error NotAutomorphism: action 'cm': generator 'a' "
                       "induces no map of 'M' that sends every generator "
                       "to its given image\n")

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_a_second_block_for_one_direction_is_refused(
            self, capsys, tmp_path, monkeypatch, order):
        # a choice between the blocks would give order 1 or 3
        maps = ["a => (x -> x);", "a => (x -> x^-1);"]
        k, l_grp, acts = self.write_pair(tmp_path, "a", "a^2", maps[order[0]])
        with open(acts, "a") as f:
            f.write(f"action k2 {{ from: K; to: L; {maps[order[1]]} }}\n")
        runs = []
        monkeypatch.setattr(_Enumerator, "run", runs.append)
        rc, out, err = run(capsys, "tensor", "--group", k,
                           "--other", l_grp, "--action", acts)
        assert (rc, out, runs) == (2, "", [])
        assert err == (f"usage error: {acts} must define exactly one action "
                       "K->L and one L->K\n")

    def test_a_square_pair_reads_one_block_for_both_directions(
            self, capsys, tmp_path):
        f = tmp_path / "acts.act"
        one = "action conj { from: C3; to: C3; a => (a -> a); }\n"
        f.write_text(one)
        rc, record, _ = run_json(capsys, "tensor", "--group", "C3",
                                 "--action", str(f))
        assert (rc, record["result"]["order"]) == (0, 3)
        f.write_text(one + one.replace("conj", "inv").replace("a -> a",
                                                              "a -> a^-1"))
        rc, out, err = run(capsys, "tensor", "--group", "C3",
                           "--action", str(f))
        assert (rc, out) == (2, "")
        assert err == (f"usage error: {f} must define exactly one action "
                       "C3->C3\n")

    def test_action_file_names_a_group_by_any_spelling(self, capsys,
                                                       tmp_path):
        f = tmp_path / "acts.act"
        f.write_text("""
        action fwd { from: C02; to: C3; a => (a -> a); }
        action bwd { from: C3; to: C2; a => (a -> a); }
        """)
        rc, record, _ = run_json(capsys, "tensor", "--group", "C2",
                                 "--other", "C03", "--action", str(f))
        assert rc == 0
        assert (record["query"]["group"], record["query"]["other"]) == \
            ("C2", "C3")

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("NTL_MAX_COSETS", "40")
        rc, _, err = run(capsys, "nu", "--group", "C4")
        assert rc == 1
        assert "BudgetExceeded" in err

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("NTL_MAX_COSETS", "40")
        rc, record, _ = run_json(capsys, "nu", "--group", "C4",
                                 "--max-cosets", "100000")
        assert rc == 0
        assert record["result"]["order"] == 64

    def test_env_budget_reaches_verify(self, capsys, monkeypatch):
        monkeypatch.setenv("NTL_MAX_COSETS", "40")
        rc, _, err = run(capsys, "verify")
        assert rc == 1
        assert "BudgetExceeded" in err

    def test_no_budget_flag_defers_to_the_environment(self, monkeypatch):
        monkeypatch.setenv("NTL_MAX_COSETS", "40")
        assert _budget_from(build_parser().parse_args(["nu", "--group",
                                                       "C2"])) is None
        budget = _budget_from(build_parser().parse_args(
            ["nu", "--group", "C2", "--budget-ms", "500"]))
        assert budget == EnumerationBudget(max_cosets=40, max_time_ms=500)

    @pytest.mark.parametrize("flag, value, reason", [
        ("--max-cosets", "0", "max_cosets must be positive"),
        ("--budget-ms", "-5", "max_time_ms must be positive")])
    def test_bad_budget_flag_is_a_usage_error(self, capsys, flag, value,
                                              reason):
        rc, out, err = run(capsys, "nu", "--group", "C2", flag, value)
        assert (rc, out, err) == (2, "", f"usage error: {reason}\n")

    def test_verify_file_scope(self, capsys, tmp_path):
        f = tmp_path / "one.grp"
        f.write_text("group K { gens: a; rels: a^5; }")
        rc, out, _ = run(capsys, "verify", str(f))
        assert rc == 0
        lines = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(lines) == 2
        assert all("K:" in line for line in lines)
        assert lines[0].startswith(
            "PASS  K: realization: order 5, 5 cosets defined [")

    def test_verify_file_scope_skips_a_square_over_the_cap(self, capsys,
                                                          tmp_path):
        f = tmp_path / "big.grp"
        f.write_text("group B { gens: a; rels: a^13; }")  # 13^2 > 144
        rc, out, _ = run(capsys, "verify", str(f))
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("PASS  B: realization: order 13, ")
        assert lines[1] == ("PASS  B: conjugation build: skipped: square "
                            "build exceeds the size cap [0 ms]")
        assert lines[2] == "all checks passed (2/2)"

    @pytest.mark.parametrize("text", ["", "# a comment only\n"],
                             ids=["empty", "comment"])
    def test_verify_file_without_groups_or_actions_is_a_usage_error(
            self, capsys, tmp_path, text):
        f = tmp_path / "empty.grp"
        f.write_text(text)
        rc, out, err = run(capsys, "verify", str(f))
        assert (rc, out) == (2, "")
        assert err == f"usage error: {f} defines no group\n"

    def test_verify_file_with_actions_only_is_a_usage_error(self, capsys,
                                                            tmp_path):
        # not even an automorphism: an action is checked where --action
        # uses it, so parsing one alone proves nothing
        f = tmp_path / "sq.act"
        f.write_text("action sq { from: C2; to: C4; a => (a -> a^2); }")
        rc, out, err = run(capsys, "verify", str(f))
        assert (rc, out) == (2, "")
        assert err == f"usage error: {f} defines no group\n"

    def test_verify_file_checks_no_action(self, capsys, tmp_path):
        f = tmp_path / "one.grp"
        f.write_text("group K { gens: a; rels: a^5; }\n"
                     "action sq { from: K; to: C4; a => (a -> a^2); }\n")
        rc, record, _ = run_json(capsys, "verify", str(f))
        assert rc == 0
        assert [c["name"] for c in record["checks"]] == [
            "K: realization", "K: conjugation build"]

    def test_verify_file_scope_refuses_z_without_enumerating(self, capsys,
                                                             tmp_path):
        f = tmp_path / "z.grp"
        f.write_text("group Z { gens: a; }")
        rc, out, _ = run(capsys, "verify", str(f))
        assert rc == 1
        lines = out.splitlines()
        assert lines[0].startswith(
            "FAIL  Z: realization: BudgetExceeded: coset budget 2000000 "
            "exhausted (possible infinite group or undersized budget) [")
        assert lines[1] == "CHECKS FAILED (0/1)"
        assert lines[2].startswith("stats: 0 cosets defined, ")

    def test_verify_file_scope_failure(self, capsys, tmp_path):
        f = tmp_path / "bad.grp"
        f.write_text("group F { gens: a b; }")
        rc, out, _ = run(capsys, "verify", str(f), "--max-cosets", "500")
        assert rc == 1
        assert "FAIL" in out

    def test_verify_file_scope_reports_a_build_over_budget(self, capsys,
                                                           tmp_path):
        # K's conjugation build fits in 1000 cosets and L's does not: L's
        # build fails alone and the report still lists every check.
        f = tmp_path / "two.grp"
        f.write_text("group K { gens: a; rels: a^5; }\n"
                     "group L { gens: a b; rels: a^3, b^2, (a b)^2; }\n")
        rc, out, err = run(capsys, "verify", str(f), "--max-cosets", "1000")
        assert (rc, err) == (1, "")
        lines = out.splitlines()
        assert lines[1].startswith("PASS  K: conjugation build: |T|=5, ")
        assert lines[2].startswith("PASS  L: realization: order 6, ")
        assert lines[3].startswith(
            "FAIL  L: conjugation build: BudgetExceeded: coset budget 1000 "
            "exhausted (possible infinite group or undersized budget) [")
        assert lines[4] == "CHECKS FAILED (3/4)"
        rc, record, err = run_json(capsys, "verify", str(f),
                                   "--max-cosets", "1000")
        assert (rc, err, record["passed"]) == (1, "", False)
        assert [(c["name"], c["passed"]) for c in record["checks"]] == [
            ("K: realization", True), ("K: conjugation build", True),
            ("L: realization", True), ("L: conjugation build", False)]
        assert record["checks"][3]["detail"].startswith("BudgetExceeded: ")


class TestActionPairs:
    """Pairs under actions other than trivial or conjugation.  The tensor
    product is read off its own presentation, which holds for every
    compatible pair; G(x)H and H(x)G are isomorphic by a(x)b |-> (b(x)a)^-1
    (Brown-Loday 1987), so a swapped pair has the same order, invariants
    and number of tensors."""

    INVERSIONS = {
        "C4": "action inv { from: C4; to: C4; a => (a -> a^-1); }\n",
        "C6": "action inv46 { from: C4; to: C6; a => (a -> a^-1); }\n"
              "action inv64 { from: C6; to: C4; a => (a -> a^-1); }\n",
    }

    @pytest.mark.parametrize("other, order, invariants, m, cosets", [
        ("C4", 8, [2, 4], 7, 24), ("C6", 12, [12], 10, 42)])
    def test_inversion_on_both_sides(self, capsys, tmp_path, other, order,
                                     invariants, m, cosets):
        f = tmp_path / "inv.act"
        f.write_text(self.INVERSIONS[other])
        records = []
        for g, h in (("C4", other), (other, "C4")):
            rc, record, _ = run_json(capsys, "tensor", "--group", g,
                                     "--other", h, "--action", str(f))
            assert rc == 0
            assert record["query"]["actions"] == "file"
            records.append(record)
        for record in records:
            result = record["result"]
            assert (result["order"], result["abelian_invariants"],
                    result["tensor_count_m"]) == (order, invariants, m)
        assert records[0]["stats"]["cosets_defined"] == cosets


class TestPushout:
    def test_a_huge_exponent_is_read_by_squaring(self, capsys):
        # a^(10^10) = a^4 in C6, read in a few dozen squarings
        _, huge, _ = run_json(capsys, "pushout", "--group", "C6",
                              "--m", "a^10000000000", "--n", "a")
        _, small, _ = run_json(capsys, "pushout", "--group", "C6",
                               "--m", "a^4", "--n", "a")
        assert huge["query"].pop("m") == "a^10000000000"
        assert small["query"].pop("m") == "a^4"
        assert huge["stats"].pop("elapsed_ms") < 1000
        small["stats"].pop("elapsed_ms")
        assert huge == small


class TestProcessBoundary:
    """`python -m ntl.cli` in a fresh process, as the `ntl` script runs."""

    def ntl(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        return subprocess.run([sys.executable, "-m", "ntl.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    def test_exit_codes(self):
        done = self.ntl("bound", "thma", "2", "3", "4", "5", "--json")
        assert (done.returncode, done.stderr) == (0, "")
        record = json.loads(done.stdout)
        record.pop("stats")
        golden = json.loads((ROOT / "tests" / "golden" /
                             "cli_records.json").read_text(encoding="utf-8"))
        assert record == golden["bound thma 2 3 4 5"]
        done = self.ntl("nu", "--group", "C13")
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error CapExceeded: ")
        done = self.ntl("nu", "--group", "C2", "--no-such-flag")
        assert (done.returncode, done.stdout) == (2, "")
        assert "unrecognized arguments: --no-such-flag" in done.stderr

    @pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                        reason="numpy 1.x imports numpy.ma with numpy")
    def test_import_and_corpus_leave_numpy_ma_unimported(self):
        """A plain `np.unique` imports numpy.ma, about 15 ms, on its first
        call in a process; setting up the corpus makes none."""
        code = ("import sys, ntl\n"
                "from ntl.catalog import finite_corpus, realize_entry\n"
                "for entry in finite_corpus():\n"
                "    realize_entry(entry)\n"
                "print('numpy.ma' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (0, "False\n")

    @pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                        reason="numpy 1.x imports numpy.ma with numpy")
    @pytest.mark.parametrize("command", ["nu", "thmc", "tensor",
                                         "finiteness"])
    def test_a_command_on_s3_leaves_numpy_ma_unimported(self, command):
        """After the corpus is set up, as `ntl` and the benchmark do."""
        code = ("import contextlib, io, sys\n"
                "from ntl.catalog import finite_corpus, realize_entry\n"
                "from ntl.cli import main\n"
                "for entry in finite_corpus():\n"
                "    realize_entry(entry)\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = main([{command!r}, '--group', 'S3', '--json'])\n"
                "print(code, 'numpy.ma' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (0, "0 False\n")


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=" ".join)
def test_readme_cli_example_runs(capsys, argv):
    assert main(argv) == 0


def test_readme_cli_block_is_read():
    assert len(readme_cli_lines()) == 13
