import json

import pytest

from ntl.cli import _budget_from, build_parser, main
from ntl.coset import EnumerationBudget, _Enumerator
from ntl.errors import ALL_ERRORS


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
        assert any("witness" in line for line in record["chain"])

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

    def test_thmc_reports_the_nu_build(self, capsys):
        _, thmc, _ = run_json(capsys, "thmc", "--group", "S3")
        _, nu, _ = run_json(capsys, "nu", "--group", "S3")
        assert thmc["stats"]["cosets_defined"] == \
            nu["stats"]["cosets_defined"] == 2487

    def test_finiteness_reports_the_nu_build(self, capsys):
        _, fin, _ = run_json(capsys, "finiteness", "--group", "C2xC2")
        _, nu, _ = run_json(capsys, "nu", "--group", "C2xC2")
        assert fin["stats"]["cosets_defined"] == \
            nu["stats"]["cosets_defined"] > 0

    def test_exponent_check(self, capsys):
        rc, record, _ = run_json(capsys, "exponent-check", "--group", "C5")
        assert rc == 0
        assert record["result"]["exponent"] == 5
        assert any("applies: false" in line for line in record["chain"])


class TestExitCodes:
    def test_infinite_group_is_domain_error(self, capsys):
        rc, out, err = run(capsys, "nu", "--group", "Z")
        assert rc == 1
        assert "BudgetExceeded" in err

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

    def test_error_codes_distinct(self):
        codes = [e.code for e in ALL_ERRORS]
        assert len(codes) == len(set(codes))

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


class TestDeterminism:
    def strip_timing(self, record):
        record = json.loads(json.dumps(record))
        record["stats"].pop("elapsed_ms")
        return record

    def test_identical_invocations_identical_output(self, capsys):
        rc1, rec1, _ = run_json(capsys, "nu", "--group", "D4")
        rc2, rec2, _ = run_json(capsys, "nu", "--group", "D4")
        assert rc1 == rc2 == 0
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
            rows, n, stats = enumerate_once(self)
            runs.append(stats.cosets_defined)
            return rows, n, stats
        monkeypatch.setattr(_Enumerator, "run", counted)
        rc, record, _ = run_json(capsys, command, "--group", str(f))
        assert rc == 0
        assert record["result"]["order"] == 4
        assert runs == [4, 801]
        assert record["stats"]["cosets_defined"] == 805

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

    def test_verify_file_scope(self, capsys, tmp_path):
        f = tmp_path / "one.grp"
        f.write_text("group K { gens: a; rels: a^5; }")
        rc, out, _ = run(capsys, "verify", str(f))
        assert rc == 0
        lines = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(lines) == 2
        assert all("K:" in line for line in lines)

    def test_verify_file_scope_failure(self, capsys, tmp_path):
        f = tmp_path / "bad.grp"
        f.write_text("group F { gens: a b; }")
        rc, out, _ = run(capsys, "verify", str(f), "--max-cosets", "500")
        assert rc == 1
        assert "FAIL" in out
