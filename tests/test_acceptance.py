"""The acceptance gate: one test per criterion, one pass/fail line each.

Profiles (the direct build of T per corpus member, plus the
commutator-pairing build that criteria 1, 2 and 12 read) are computed once
per session; every criterion check reads from that store at its stated
tolerance.  Run with `-s` to see the lines.
A fault test replaces one invariants-layer function that a check reads
with a plain function, so the memo on the session's realizations keeps
the true values for the tests that follow.
"""

import itertools
import json
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from ntl import coset, homotopy, tensor, verification
from ntl.abelian import AbelianInvariants
from ntl.catalog import catalog_lookup, finite_corpus, realize_entry
from ntl.cli import main
from ntl.coset import EnumerationStats
from ntl.errors import BudgetExceeded
from ntl.groups import closure
from ntl.homotopy import pi3_suspension_K, schur_multiplier, stable_pi2_K
from ntl.tensor import EtaRealization, build_nu, conjugation_pair
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

from support import realize_name


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
    assert r.detail == ("a(x)b |-> [a, b~] is an isomorphism onto the T "
                        f"inside eta on {len(store.profiles())} builds")


def test_criterion_02_fails_when_the_direct_route_transposes_its_symbols(
        store, monkeypatch):
    def transposed(pair):
        # b(x)a stands where a(x)b belongs
        r = tensor.build_direct(pair)
        return replace(r, sym=r.sym.T, derived=None)

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
    assert r.detail == "routes disagree on A4"
    assert "isomorphism" not in r.detail


def test_criterion_02_says_when_it_fails_on_time(store):
    slow = ProfileStore(nus={"C1": replace(store.nus["C1"],
                                           direct_ms=60_001)})
    r = _faulted(check_route_equivalence(slow))
    assert r.detail.endswith("direct route took 60001 ms "
                             "(over the 60 s budget)")


def test_criterion_03_abelian_reduction(store):
    _gate(check_abelian_reduction(store))


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


def test_criterion_03_fails_when_a_corpus_pair_misses_its_oracle(
        store, monkeypatch):
    # The cyclic pairs read no tensor of abelian invariants, so only the
    # corpus-pair oracle sees the fault; C2(x)C2 is the first corpus pair
    # with a nontrivial tensor product.
    monkeypatch.setattr(AbelianInvariants, "tensor",
                        lambda a, b: AbelianInvariants(()))
    r = _faulted(check_abelian_reduction(store))
    assert r.detail.startswith("C2(x)C2: C2 vs oracle 1; ")


def test_criterion_04_tensor_counts(store):
    _gate(check_tensor_counts(store))


def test_criterion_04_fails_when_a_tensor_count_is_off(store, monkeypatch):
    def miscounted(r):
        ts = tensor.tensor_set(r)
        # one entry more than the tensors, under a label T does not have
        return {**ts, -1: (0, 0)} if r.pair.g.name == "C6" else ts

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


def test_criterion_05_fails_when_the_derived_subgroup_is_lost(
        store, monkeypatch):
    # D3 is the first conjugation build with a nontrivial G'.
    monkeypatch.setattr(verification, "derived_subgroup",
                        lambda g: closure(g, []))
    r = _faulted(check_exact_sequences(store))
    assert r.detail.startswith("D3: |T| != |J2||G'|; ")


def test_criterion_05_fails_when_the_tensor_set_does_not_generate(
        store, monkeypatch):
    # Only the identity is left in the tensor set; C2's T is the first
    # that it does not generate.
    monkeypatch.setattr(verification, "tensor_set",
                        lambda r: {0: tensor.tensor_set(r)[0]})
    r = _faulted(check_exact_sequences(store))
    assert r.detail.startswith("C2: tensor set does not generate")


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


def test_the_battery_keeps_the_tensor_products_build_direct_returned(
        monkeypatch):
    # The battery and `ntl verify FILE` read the very objects that
    # `build_direct` returned, and eta's build returns no tensor product.
    built = []
    build_direct = verification.build_direct

    def recorded(pair):
        built.append(build_direct(pair))
        return built[-1]

    monkeypatch.setattr(verification, "build_direct", recorded)
    pairs, nus = verification.pair_corpus()[:4], verification.nu_corpus()[:4]
    monkeypatch.setattr(verification, "pair_corpus", lambda: pairs)
    monkeypatch.setattr(verification, "nu_corpus", lambda: nus)
    profiles = build_profiles().profiles()
    assert len(profiles) == len(built) == 8
    assert all(p.r is r for p, r in zip(profiles, built))
    assert not any(isinstance(v, EtaRealization)
                   for p in profiles for v in vars(p).values())

    built.clear()
    read = []
    for name in ("_sequence_faults", "theoremC_report"):
        def reading(r, layer=getattr(verification, name)):
            read.append(r)
            return layer(r)
        monkeypatch.setattr(verification, name, reading)
    results = verification.run_file_suite(
        "group G { gens: a b; rels: a^3, b^2, (a b)^2; }")
    assert all(c.passed for c in results)
    assert len(built) == 1 and len(read) == 2
    assert all(r is built[0] for r in read)

    e = build_nu(realize_name("S3"))
    assert not hasattr(e, "sym") and not hasattr(e, "derived")


def test_criterion_08_theoremC_unanimity(store):
    _gate(check_theoremC(store))


def test_criterion_08_fails_when_Z_loses_its_fast_path(store, monkeypatch):
    # Z's invariant factors are lost, so the abelian fast path cannot
    # decide it; the finite groups do not read this function.
    monkeypatch.setattr(homotopy, "presentation_invariants", lambda p: None)
    r = _faulted(check_theoremC(store))
    assert r.detail == "Z"


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
    assert r.detail.startswith("largest build D6 with stats ")


def test_criterion_12_fails_on_a_slow_build(store):
    slow = replace(store, nus={**store.nus, "S3": replace(store.nus["S3"],
                                                          build_ms=10_001)})
    r = _faulted(check_performance(slow))
    assert r.detail == "S3: 10001 ms"


def test_criterion_12_fails_on_broken_eta_stats(store):
    # fewer cosets defined than kept: no enumeration ends that way
    broken = EnumerationStats(cosets_defined=5, cosets_final=6)
    faulted = replace(store, nus={**store.nus, "S3": replace(
        store.nus["S3"], eta_stats=broken)})
    r = _faulted(check_performance(faulted))
    assert r.detail == f"S3: impossible stats {broken}"


@pytest.mark.parametrize("check", [
    check_decomposition, check_route_equivalence, check_abelian_reduction,
    check_tensor_counts, check_exact_sequences, check_schur_oracle,
    check_stable_pi2, check_theoremC, check_performance,
    check_diagonal_embedding], ids=lambda check: check.__name__)
def test_a_verdict_reads_no_time_it_passes_within(store, monkeypatch,
                                                   check):
    # Every build time in the store changes, and each read of the clock
    # runs 5 s later than the one before: the verdict and detail stay.
    def retime(profiles):
        return {key: replace(p, build_ms=p.build_ms + 1,
                             direct_ms=p.direct_ms + 1)
                for key, p in profiles.items()}

    before = check(store)
    retimed = ProfileStore(retime(store.pairs), retime(store.nus))
    reads = itertools.count()
    monotonic = time.monotonic
    monkeypatch.setattr(verification, "time", SimpleNamespace(
        monotonic=lambda: monotonic() + 5 * next(reads)))
    after = check(retimed)
    assert (after.passed, after.detail) == (before.passed, before.detail)


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

    # every binding: `coset` calls its own, `tensor` its imported copy
    for module in (coset, tensor):
        monkeypatch.setattr(module, "enumerate_cosets", counted)
    rc = main(["verify", *fault, "--json"])
    record = json.loads(capsys.readouterr().out)
    # under the fault, criterion 13's exhausted attempt is counted too
    assert (rc, record["passed"]) == ((1, False) if fault else (0, True))
    assert record["stats"]["cosets_defined"] == sum(
        s.cosets_defined for s in spent)
    assert record["stats"]["elapsed_ms"] >= 0


def test_no_check_fills_an_eta_table(monkeypatch, capsys):
    """`ntl verify`, in catalog scope and in file scope, certifies every eta
    on its coset table: no coset table of a nu(...) or eta(...)
    presentation reaches `regular_representation`.  `nu` realizes its
    one eta table, for the record."""
    realized = []
    regular_representation = coset.regular_representation

    def spied(t):
        realized.append(t.presentation.name)
        return regular_representation(t)

    for module in (coset, tensor):
        monkeypatch.setattr(module, "regular_representation", spied)

    def etas():
        return [name for name in realized
                if name.startswith(("nu(", "eta("))]

    assert all(c.passed for c in run_catalog_suite())
    assert all(c.passed for c in verification.run_file_suite(
        "group G { gens: a b; rels: a^3, b^2, (a b)^2; }"))
    assert realized and etas() == []
    assert main(["nu", "--group", "S3", "--json"]) == 0
    assert etas() == ["nu(S3)"]
    assert json.loads(capsys.readouterr().out)["result"]["order"] == 216
