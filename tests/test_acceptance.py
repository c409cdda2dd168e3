"""The acceptance gate: one test per criterion, one pass/fail line each.

Profiles (one commutator-pairing build per corpus member, plus the direct
tensor route) are computed once per session; every criterion check reads
from that store at its stated tolerance.  Run with `-s` to see the lines.
A fault test replaces one invariants-layer function that a check reads
with a plain function, so the memo on the session's realizations keeps
the true values for the tests that follow.
"""

import json
from dataclasses import replace

import pytest

from ntl import coset, homotopy, tensor, verification
from ntl.abelian import AbelianInvariants
from ntl.catalog import catalog_lookup, finite_corpus, realize_entry
from ntl.cli import main
from ntl.errors import BudgetExceeded
from ntl.groups import closure
from ntl.homotopy import pi3_suspension_K, schur_multiplier, stable_pi2_K
from ntl.tensor import conjugation_pair
from ntl.verification import (ProfileStore, build_profiles,
                              check_abelian_reduction,
                              check_bound_arithmetic, check_decomposition,
                              check_diagonal_embedding,
                              check_exact_sequences, check_negative_control,
                              check_pairing_certificate, check_pushout,
                              check_performance, check_route_equivalence,
                              check_schur_oracle, check_stable_pi2,
                              check_tensor_counts, check_theoremC,
                              check_wedge_prufer_analog, run_catalog_suite)


@pytest.fixture(scope="session")
def store():
    return build_profiles()


def _gate(result):
    print()
    print(result.line())
    assert result.passed, result.detail
    return result


def _faulted(result):
    print()
    print(result.line())
    assert not result.passed
    return result


def _trivial_subgroup(r):
    return closure(r.group, [])


def test_criterion_01_decomposition_identity(store):
    r = _gate(check_decomposition(store))
    assert r.elapsed_ms <= 60_000


def test_criterion_01_fails_when_the_builds_run_over_time(store):
    slow = replace(store, nus={**store.nus, "S3": replace(store.nus["S3"],
                                                          build_ms=60_001)})
    r = _faulted(check_decomposition(slow))
    assert r.detail.endswith(" (over the 60 s budget)")


def test_criterion_02_route_equivalence(store):
    r = _gate(check_route_equivalence(store))
    assert r.elapsed_ms <= 60_000


def test_criterion_02_fails_when_the_direct_route_transposes_its_symbols(
        store, monkeypatch):
    def transposed(pair):
        # T is labelled from b(x)a where a(x)b belongs
        r = tensor.build_direct(pair)
        group, sym, _ = tensor._label_tensor(r.group.name, r.group.table,
                                             r.sym.T)
        return replace(r, group=group, sym=sym, derived=None)

    # When T is abelian, a(x)b |-> b(x)a extends to an automorphism and
    # the fault leaves T unchanged; A4's tensor square is not abelian.
    # The fault keeps T's order, abelian invariants, m, |D| and |Dt|.
    monkeypatch.setattr(verification, "build_direct", transposed)
    faulted = ProfileStore(pairs=store.pairs)
    for name in ("S3", "A4"):
        pair = conjugation_pair(realize_entry(catalog_lookup(name)))
        faulted.nus[name] = verification._profile(name, pair)
    r = check_route_equivalence(faulted)
    print(r.line())
    assert not r.passed
    assert r.detail.startswith("routes disagree on A4;")


def test_criterion_02_says_when_it_fails_on_time(store):
    slow = ProfileStore(nus={"C1": replace(store.nus["C1"],
                                           direct_ms=60_001)})
    r = _faulted(check_route_equivalence(slow))
    assert r.detail.endswith("direct route took 60001 ms "
                             "(over the 60 s budget)")


def test_criterion_03_abelian_reduction(store):
    r = _gate(check_abelian_reduction(store))
    assert r.elapsed_ms <= 30_000


def test_criterion_03_fails_when_each_pair_builds_its_first_square(
        monkeypatch):
    # Cm(x)Cn is built as Cm(x)Cm, so C4(x)C6 has order 4, not gcd 2; with
    # an empty store every cyclic pair goes through the faulted build.
    # Each square is built once: the fault gives it for every Cn alike.
    squares = {}
    build_direct = verification.build_direct

    def squared(pair):
        g = pair.g
        if g.name not in squares:
            squares[g.name] = build_direct(tensor.trivial_pair(g, g))
        return squares[g.name]
    monkeypatch.setattr(verification, "build_direct", squared)
    r = _faulted(check_abelian_reduction(ProfileStore()))
    assert r.detail.startswith("C2(x)C1: got ")


def test_criterion_03_builds_only_what_the_store_lacks(store, monkeypatch):
    # Cm(x)Cn with m <= n and mn <= 36 is a stored pair and Cn(x)Cn is
    # nu(Cn): 49 of the 144 cyclic pairs, so 95 are built, each by the
    # direct route.
    built = []
    build_direct = verification.build_direct

    def counted(pair):
        built.append((pair.g.name, pair.h.name))
        return build_direct(pair)
    monkeypatch.setattr(verification, "build_direct", counted)
    monkeypatch.setattr(verification, "build_eta", None)
    _gate(check_abelian_reduction(store))
    assert len(built) == len(set(built)) == 95
    assert ("C6", "C6") not in built and ("C6", "C4") in built


def test_criterion_04_tensor_counts(store):
    _gate(check_tensor_counts(store))


def test_criterion_04_fails_when_a_tensor_count_is_off(store, monkeypatch):
    def miscounted(r):
        ts = tensor.tensor_set(r)
        return replace(ts, m=ts.m + 1) if r.pair.g.name == "C6" else ts

    monkeypatch.setattr(verification, "tensor_set", miscounted)
    r = _faulted(check_tensor_counts(store))
    assert r.detail == "C6: m=7, bilinear image 6"


def test_criterion_05_exact_sequences(store):
    _gate(check_exact_sequences(store))


def test_criterion_05_fails_when_the_symmetrized_diagonal_is_lost(
        store, monkeypatch):
    monkeypatch.setattr(verification, "delta_tilde", _trivial_subgroup)
    r = _faulted(check_exact_sequences(store))
    assert r.detail.startswith("C3: |J2| != |Dt||J2/Dt|")


def test_criterion_06_schur_multipliers(store):
    _gate(check_schur_oracle(store))


def test_criterion_06_fails_when_the_schur_multiplier_is_lost(
        store, monkeypatch):
    monkeypatch.setattr(verification, "schur_multiplier",
                        lambda r: AbelianInvariants(()))
    r = _faulted(check_schur_oracle(store))
    assert r.detail.startswith("C2xC2: H2=")


def test_criterion_07_stable_pi2(store):
    _gate(check_stable_pi2(store))


def test_criterion_07_fails_when_the_stable_pi2_is_lost(store, monkeypatch):
    monkeypatch.setattr(verification, "stable_pi2_K",
                        lambda r: AbelianInvariants(()))
    r = _faulted(check_stable_pi2(store))
    assert r.detail.startswith("pi2S(K(C2,1))=")


@pytest.mark.parametrize("name", ["S3", "A4"])
def test_the_layer_computes_each_invariant_once(store, name):
    r = store.nus[name].r
    for invariant in (pi3_suspension_K, schur_multiplier, stable_pi2_K):
        assert invariant(r) is invariant(r)


def test_profiles_keep_tensor_products_without_eta(store):
    assert all(p.r.eta is None and p.r.presentation is None
               for p in store.profiles())


def test_criterion_08_theoremC_unanimity(store):
    _gate(check_theoremC(store))


def test_criterion_09_pushout_values():
    _gate(check_pushout())


def test_criterion_09_fails_when_pi3_is_lost(monkeypatch):
    monkeypatch.setattr(homotopy, "pi3_suspension_K",
                        lambda r: AbelianInvariants(()))
    r = _faulted(check_pushout())
    assert r.detail.endswith("|pi2|=4, |pi3|=1")


def test_criterion_10_wedge_prufer_analog():
    _gate(check_wedge_prufer_analog())


def test_criterion_10_fails_when_the_wedge_is_not_trivial(monkeypatch):
    monkeypatch.setattr(verification, "wedge_pi3",
                        lambda a, b: AbelianInvariants((2,)))
    r = _faulted(check_wedge_prufer_analog())
    assert r.detail.startswith("k=1, j=1: ")


def test_criterion_11_bound_arithmetic():
    r = _gate(check_bound_arithmetic())
    from ntl.homotopy import bound_theorem_A, bound_theorem_B, \
        bound_pushout_pi3
    assert bound_theorem_A(2, 3, 4, 5).bound == 120
    assert bound_theorem_B(2, 2).bound == 4
    assert bound_pushout_pi3(2, 3, 4).bound == 24


def test_criterion_11_fails_when_theorem_B_is_off(monkeypatch):
    bound_theorem_B = verification.bound_theorem_B
    monkeypatch.setattr(verification, "bound_theorem_B",
                        lambda a, t: bound_theorem_B(a, t + 1))
    r = _faulted(check_bound_arithmetic())
    assert "B(2,2)=6" in r.detail


def test_criterion_12_performance(store):
    r = _gate(check_performance(store))
    assert all(p.build_ms <= 10_000 for p in store.nus.values())


def test_criterion_12_fails_on_a_slow_build(store):
    slow = replace(store, nus={**store.nus, "S3": replace(store.nus["S3"],
                                                          build_ms=10_001)})
    r = _faulted(check_performance(slow))
    assert r.detail == "S3: 10001 ms"


def test_criterion_13_negative_control(store):
    # The fault flag must break the criterion-1 check: the whole suite run
    # under fault reports a failure and would exit nonzero.
    r = _gate(check_negative_control())
    faulted = run_catalog_suite(fault=True)
    print(faulted[0].line())
    assert not all(c.passed for c in faulted)
    assert "criterion 1" in faulted[0].name


def test_criterion_13_fails_when_the_fault_does_not_reach_the_build(
        monkeypatch):
    # Criterion 13 and the fault mode run one scan: a build that keeps the
    # pairing relators blinds both, and the scan says so.
    build_eta = verification.build_eta
    pairs = verification.pair_corpus()[:3]
    monkeypatch.setattr(verification, "build_eta",
                        lambda pair, *, skip_pairing_relators=False:
                        build_eta(pair))
    monkeypatch.setattr(verification, "pair_corpus", lambda: pairs)
    r = _faulted(check_negative_control())
    assert r.detail == "dropping the pairing relators went unnoticed"
    [faulted] = run_catalog_suite(fault=True)
    assert (faulted.passed, faulted.detail) == (True, r.detail)


def test_diagonal_embedding_fails_when_the_diagonal_is_lost(store,
                                                            monkeypatch):
    monkeypatch.setattr(homotopy, "delta", _trivial_subgroup)
    r = _faulted(check_diagonal_embedding(store))
    assert r.detail.startswith("C2: ")


def test_pairing_certificate():
    _gate(check_pairing_certificate())


def test_pairing_certificate_check_fails_on_a_blind_certificate(monkeypatch):
    monkeypatch.setattr(verification, "pairing_relators_hold",
                        lambda pair, eta: True)
    r = check_pairing_certificate()
    print(r.line())
    assert not r.passed


def test_catalog_suite_runs_fifteen_named_checks(store, monkeypatch):
    monkeypatch.setattr(verification, "build_profiles",
                        lambda: store)
    names = [c.name for c in run_catalog_suite()]
    assert len(names) == len(set(names)) == 15


@pytest.mark.parametrize("fault", [[], ["--fault-skip-eta-relators"]],
                         ids=["battery", "fault"])
def test_verify_reports_the_cosets_of_every_enumeration(monkeypatch,
                                                        capsys, fault):
    # Catalog groups are realized first: filling the shared cache is
    # charged to no command, but the wrapper below would see it.
    for entry in finite_corpus():
        realize_entry(entry)
    spent = []
    enumerate_cosets = coset.enumerate_cosets

    def counted(p):
        try:
            table, stats = enumerate_cosets(p)
        except BudgetExceeded as exc:
            spent.append(exc.stats)
            raise
        spent.append(stats)
        return table, stats

    monkeypatch.setattr(coset, "enumerate_cosets", counted)
    rc = main(["verify", *fault, "--json"])
    record = json.loads(capsys.readouterr().out)
    # under the fault, criterion 13's exhausted attempt is counted too
    assert (rc, record["passed"]) == ((1, False) if fault else (0, True))
    assert record["stats"]["cosets_defined"] == sum(
        s.cosets_defined for s in spent)
    assert record["stats"]["elapsed_ms"] >= 0
