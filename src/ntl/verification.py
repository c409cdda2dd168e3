"""The acceptance battery: every check the suite runs over the catalog.

Each corpus member is built once per run, by one direct build and one
commutator-pairing build, and kept as a `Profile`: the T that
`build_direct` returned, the stats of eta's enumeration, and what the two
builds alone can tell (route agreement and timings).  Every eta build
certifies its own decomposition |eta| = |T||G||H|, and criterion 2 compares
the T inside eta with the stored one, both on eta's coset table, so no
check fills eta's multiplication table.  eta itself is not kept, and only
the certificate check and criterion 13's fault scan build it again.
Whatever a check builds beyond the store (criterion 3's other cyclic
pairs, criterion 9's pushouts) is T alone, by the direct route.  Every check reads J2, the
diagonals, H2, pi2S and the Theorem C and finiteness reports from the
memoized invariants layer on that T (`tensor` and `homotopy`), the T every
command serves, so nothing is computed twice and a fault injected into one
layer function reaches every check that reads it.

Wall time reaches a result only through `CheckResult.elapsed_ms`:
`run_catalog_suite` times each check in one loop, and criteria 1 and 2
add the store's eta and direct build times to theirs.  The time gates of
criteria 1, 2, 3 and 12 read the profiles' build times and criterion 3's
own clock, and a detail quotes a time only when it broke its gate, so a
passing detail depends on the inputs alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .abelian import AbelianInvariants
from .catalog import (CatalogEntry, catalog_lookup, finite_corpus,
                      realize_entry)
from .coset import (EnumerationBudget, EnumerationStats, budget_scope,
                    current_tally)
from .errors import CapExceeded, NtlError
from .groups import closure, derived_subgroup
from .homotopy import (bound_pushout_pi3, bound_theorem_A,
                       bound_theorem_B, finiteness_report, pushout_EM,
                       resolve_subject, schur_multiplier, stable_pi2_K,
                       theoremC_report, three_connected_check, wedge_pi3)
from .parsing import parse_file
from .tensor import (CompatibleActionPair, TensorRealization, build_direct,
                     build_eta, build_nu, conjugation_pair, delta,
                     delta_tilde, j2, pairing_relators_hold, same_tensor,
                     tensor_set, trivial_pair)

FAULT_BUDGET = EnumerationBudget(max_cosets=20_000)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_ms: int = 0

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark}  {self.name}: {self.detail} [{self.elapsed_ms} ms]"


@dataclass(frozen=True)
class Profile:
    """One corpus member built both ways.  `r` is the T that
    `build_direct` returned, the one every command serves; the invariants
    are read off it by the checks.  `eta_stats` is the enumeration of eta,
    the only part of the eta build that is kept."""

    name: str
    r: TensorRealization
    eta_stats: EnumerationStats
    routes_agree: bool
    build_ms: int
    direct_ms: int


@dataclass
class ProfileStore:
    pairs: dict[tuple[str, str], Profile] = field(default_factory=dict)
    nus: dict[str, Profile] = field(default_factory=dict)

    def profiles(self) -> list[Profile]:
        """The pairs, then the nu builds."""
        return [*self.pairs.values(), *self.nus.values()]


def pair_corpus() -> list[tuple[CatalogEntry, CatalogEntry]]:
    """Unordered catalog pairs with |G|*|H| <= 36, smallest products first."""
    entries = finite_corpus()
    out = []
    for i, a in enumerate(entries):
        for b in entries[i:]:
            if a.known_facts["order"] * b.known_facts["order"] <= 36:
                out.append((a, b))
    out.sort(key=lambda ab: (ab[0].known_facts["order"] *
                             ab[1].known_facts["order"],
                             ab[0].name, ab[1].name))
    return out


def nu_corpus() -> list[CatalogEntry]:
    return [e for e in finite_corpus() if e.known_facts["order"] <= 12]


def _ms_since(t0: float) -> int:
    return int((time.monotonic() - t0) * 1000)


def _profile(name: str, pair: CompatibleActionPair) -> Profile:
    """Build T directly and eta around it, and compare the two."""
    t0 = time.monotonic()
    e = build_eta(pair)
    build_ms = _ms_since(t0)
    t0 = time.monotonic()
    r = build_direct(pair)
    direct_ms = _ms_since(t0)
    return Profile(name=name, r=r, eta_stats=e.stats,
                   routes_agree=same_tensor(r, e),
                   build_ms=build_ms, direct_ms=direct_ms)


def build_profiles() -> ProfileStore:
    store = ProfileStore()
    for a, b in pair_corpus():
        pair = trivial_pair(realize_entry(a), realize_entry(b))
        store.pairs[(a.name, b.name)] = _profile(f"{a.name}x{b.name}", pair)
    for entry in nu_corpus():
        pair = conjugation_pair(realize_entry(entry))
        store.nus[entry.name] = _profile(entry.name, pair)
    return store


def _sequence_faults(r: TensorRealization) -> list[str]:
    """The order products of the exact sequences through J2, the diagonal
    and the symmetrized diagonal, and the seven structural facts under
    them, for a tensor square with its derived map.  Returns the faults
    found, empty when all hold."""
    jsub, dsub, dtsub = j2(r), delta(r), delta_tilde(r)
    gprime = derived_subgroup(r.pair.g)
    faults = []
    if r.group.order != jsub.order * gprime.order:
        faults.append("|T| != |J2||G'|")
    if jsub.order != dsub.order * schur_multiplier(r).order():
        faults.append("|J2| != |D||H2|")
    if jsub.order != dtsub.order * stable_pi2_K(r).order():
        faults.append("|J2| != |Dt||J2/Dt|")
    structural = {
        "j2_is_kappa_kernel": (
            list(jsub.members) == np.flatnonzero(r.derived.images == 0)
            .tolist()),
        "kappa_image_is_derived": (
            r.derived.image_members() == gprime.members),
        "delta_in_j2": set(dsub.members) <= set(jsub.members),
        "delta_tilde_in_j2": set(dtsub.members) <= set(jsub.members),
        "j2_normal": jsub.is_normal(),
        "delta_normal": dsub.is_normal(),
        "delta_tilde_normal": dtsub.is_normal(),
    }
    faults += [key for key, ok in structural.items() if not ok]
    if closure(r.group, tensor_set(r)).order != r.group.order:
        faults.append("tensor set does not generate")
    return faults


# -- the thirteen criteria ----------------------------------------------------


def check_decomposition(store: ProfileStore) -> CheckResult:
    """Every build in the store passed `build_eta`'s certificate, which
    proves |eta| = |T||G||H|; what is left to check is their time."""
    build_ms = sum(p.build_ms for p in store.profiles())
    within = build_ms <= 60_000
    detail = (f"{len(store.pairs)} trivial-action pairs + "
              f"{len(store.nus)} conjugation builds")
    if not within:
        detail += f", builds took {build_ms} ms (over the 60 s budget)"
    return CheckResult("criterion 1: decomposition identity", within,
                       detail, elapsed_ms=build_ms)


def check_route_equivalence(store: ProfileStore) -> CheckResult:
    profiles = store.profiles()
    bad = [p.name for p in profiles if not p.routes_agree]
    direct_ms = sum(p.direct_ms for p in profiles)
    within = direct_ms <= 60_000
    if bad:
        detail = f"routes disagree on {', '.join(bad)}"
    else:
        detail = ("a(x)b |-> [a, b~] is an isomorphism onto the T inside "
                  f"eta on {len(profiles)} builds")
    if not within:
        detail += f"; direct route took {direct_ms} ms (over the 60 s budget)"
    return CheckResult("criterion 2: route equivalence",
                       not bad and within, detail, elapsed_ms=direct_ms)


def check_abelian_reduction(store: ProfileStore) -> CheckResult:
    t0 = time.monotonic()
    bad = []
    for m in range(1, 13):
        gm = realize_entry(catalog_lookup(f"C{m}"))
        for n in range(1, 13):
            # the store already holds Cm(x)Cn for m <= n, mn <= 36, as a
            # trivial-action pair, and Cn(x)Cn as nu(Cn)
            held = (store.nus.get(f"C{n}") if m == n
                    else store.pairs.get((f"C{m}", f"C{n}")))
            if held is None:
                gn = realize_entry(catalog_lookup(f"C{n}"))
                r = build_direct(trivial_pair(gm, gn))
            else:
                r = held.r
            t = r.group
            want = AbelianInvariants.from_cyclic_orders([gcd(m, n)])
            got = t.abelianization()
            if (got != want or not t.is_abelian()
                    or t.order != (want.order() or 0)):
                bad.append(f"C{m}(x)C{n}: got {got}, want {want}")
    # With trivial actions the tensor product factors through the
    # abelianizations, so every corpus pair must match the oracle.
    for p in store.pairs.values():
        g, h = p.r.pair.g, p.r.pair.h
        got = p.r.group.abelianization()
        oracle = g.abelianization().tensor(h.abelianization())
        if got != oracle:
            bad.append(f"{g.name}(x){h.name}: {got} vs oracle {oracle}")
    elapsed = _ms_since(t0)
    ok = not bad and elapsed <= 30_000
    detail = ("144 cyclic pairs against the gcd oracle; "
              f"{len(store.pairs)} corpus pairs re-checked against the "
              "abelianization oracle")
    if elapsed > 30_000:
        detail += f"; took {elapsed} ms (over the 30 s budget)"
    if bad:
        detail = "; ".join(bad[:3])
    return CheckResult("criterion 3: abelian reduction", ok, detail)


def check_tensor_counts(store: ProfileStore) -> CheckResult:
    bad = []
    for n in range(1, 13):
        want = len({(i * j) % n for i in range(n) for j in range(n)})
        got = len(tensor_set(store.nus[f"C{n}"].r))
        if got != want:
            bad.append(f"C{n}: m={got}, bilinear image {want}")
    return CheckResult(
        "criterion 4: tensor counts", not bad,
        "m equals the bilinear-image count for C1..C12" if not bad
        else "; ".join(bad))


def check_exact_sequences(store: ProfileStore) -> CheckResult:
    bad = []
    for p in store.nus.values():
        bad += [f"{p.name}: {fault}" for fault in _sequence_faults(p.r)]
    return CheckResult(
        "criterion 5: exact-sequence order products", not bad,
        f"kernel=image and order products verified on {len(store.nus)} "
        "groups" if not bad else "; ".join(bad[:4]))


def check_schur_oracle(store: ProfileStore) -> CheckResult:
    def mismatch(p: Profile) -> str:
        h2 = schur_multiplier(p.r)
        oracle = p.r.pair.g.abelianization().exterior_square()
        return "" if h2 == oracle else f"{p.name}: H2={h2}, oracle {oracle}"

    names = [f"C{n}" for n in range(1, 13)] + ["C2xC2", "C2xC4"]
    bad = [m for m in map(mismatch, (store.nus[n] for n in names)) if m]
    bad += [f"{p.name} (abelian sweep)" for p in store.nus.values()
            if catalog_lookup(p.name).abelian and mismatch(p)]
    return CheckResult(
        "criterion 6: Schur multipliers match the exterior-square oracle",
        not bad,
        "H2(C1..C12)=1, H2(C2xC2)=C2, H2(C2xC4)=C2, all abelian entries "
        "match" if not bad else "; ".join(bad[:4]))


def check_stable_pi2(store: ProfileStore) -> CheckResult:
    c2 = stable_pi2_K(store.nus["C2"].r)
    c3 = stable_pi2_K(store.nus["C3"].r)
    ok = c2.order() == 2 and c2 == AbelianInvariants((2,)) and c3.order() == 1
    return CheckResult(
        "criterion 7: second stable homotopy of K(C2,1) and K(C3,1)", ok,
        f"pi2S(K(C2,1))={c2}, pi2S(K(C3,1)) order {c3.order()}")


def check_theoremC(store: ProfileStore) -> CheckResult:
    bad = []
    for p in store.nus.values():
        rep = theoremC_report(p.r)
        if not rep.unanimous or not all(rep.properties.values()):
            bad.append(p.name)
    # Z has no tensor square to read: the abelian fast path decides all
    # seven properties false with an infinite-order tensor as witness.
    z = resolve_subject(catalog_lookup("Z"))
    if (z.invariants is None or not z.theoremC.unanimous
            or any(z.theoremC.properties.values())
            or "infinite order" not in z.witness):
        bad.append("Z")
    return CheckResult(
        "criterion 8: seven-property unanimity", not bad,
        f"all true on {len(store.nus)} finite groups; all false on Z "
        f"with witness: {z.witness}" if not bad else "; ".join(bad))


def check_pushout() -> CheckResult:
    c6 = realize_entry(catalog_lookup("C6"))
    a = c6.generator_images[0]
    m = closure(c6, [c6.power(a, 3)])
    n = closure(c6, [c6.power(a, 2)])
    rep = three_connected_check(m, n)
    pi2, pi3 = rep.result.pi2.order(), rep.result.pi3.order()
    ok1 = pi2 == 1 and pi3 == 1 and rep.verdict == "3-connected"
    v4 = realize_entry(catalog_lookup("C2xC2"))
    full = closure(v4, v4.generator_images)
    res = pushout_EM(full, full)
    ok2 = res.pi2.order() == 4 and res.pi3.order() == 16
    detail = (f"C6 with coprime cyclic parts: pi2={pi2}, pi3={pi3}, "
              f"{rep.verdict}; "
              f"C2xC2 with M=N=G: |pi2|={res.pi2.order()}, "
              f"|pi3|={res.pi3.order()}")
    return CheckResult("criterion 9: homotopy pushout values",
                       ok1 and ok2, detail)


def check_wedge_prufer_analog() -> CheckResult:
    bad = []
    for k in range(1, 6):
        for j in range(1, 6):
            got = wedge_pi3(AbelianInvariants((2 ** k,)),
                            AbelianInvariants((3 ** j,)))
            if got != AbelianInvariants(()):
                bad.append(f"k={k}, j={j}: {got}")
    return CheckResult(
        "criterion 10: wedge of coprime prime-power cyclic data is trivial",
        not bad, "pi3(K(C2^k,2) v K(C3^j,2)) = 1 for k,j <= 5" if not bad
        else "; ".join(bad))


def check_bound_arithmetic() -> CheckResult:
    ra = bound_theorem_A(2, 3, 4, 5)
    rb = bound_theorem_B(2, 2)
    rp = bound_pushout_pi3(2, 3, 4)
    ok = (ra.bound == 120 and rb.bound == 4 and rp.bound == 24
          and len(ra.chain) == 3 and len(rp.chain) == 3
          and all("->" in s for s in ra.chain))
    return CheckResult(
        "criterion 11: bound arithmetic and chains", ok,
        f"A(2,3,4,5)={ra.bound}, B(2,2)={rb.bound}, pushout(2,3,4)="
        f"{rp.bound}; chains walk the exact sequences")


def check_performance(store: ProfileStore) -> CheckResult:
    """Each conjugation build within 10 s, with stats that an enumeration
    can end with; a pass names the build that defined the most cosets."""
    nus = store.nus.values()
    bad = [f"{p.name}: {p.build_ms} ms" for p in nus if p.build_ms > 10_000]
    bad += [f"{p.name}: impossible stats {p.eta_stats}" for p in nus
            if not p.eta_stats.cosets_defined >= p.eta_stats.cosets_final
            >= 1]
    largest = max(nus, key=lambda p: p.eta_stats.cosets_defined)
    return CheckResult(
        "criterion 12: conjugation builds within 10 s each", not bad,
        "; ".join(bad) or f"largest build {largest.name} with stats "
        f"{largest.eta_stats}")


def _fault_scan() -> tuple[bool, str]:
    """Rebuild the criterion-1 corpus with the pairing relators dropped,
    under `FAULT_BUDGET` whatever budget is in force around it.  Returns
    whether a build failed, by its certificate or its coset budget, with
    the first pair where one did."""
    with budget_scope(FAULT_BUDGET):
        for a, b in pair_corpus():
            pair = trivial_pair(realize_entry(a), realize_entry(b))
            try:
                build_eta(pair, skip_pairing_relators=True)
            except NtlError as exc:
                return True, (f"fault exposed at {a.name}(x){b.name}: "
                              f"{exc.code}: {exc}")
    return False, "dropping the pairing relators went unnoticed"


def _fault_injected_decomposition() -> CheckResult:
    """Criterion 1 under the fault: it passes only when the fault goes
    unnoticed."""
    exposed, detail = _fault_scan()
    return CheckResult("criterion 1: decomposition identity (fault injected)",
                       not exposed, detail)


def check_negative_control() -> CheckResult:
    """The fault must break a build somewhere, or the suite is blind."""
    exposed, detail = _fault_scan()
    return CheckResult("criterion 13: negative control", exposed, detail)


def check_diagonal_embedding(store: ProfileStore) -> CheckResult:
    bad = []
    for p in store.nus.values():
        rep = finiteness_report(p.r)
        if not rep.embedding_holds:
            bad.append(f"{p.name}: {rep.gab_invariants} !| "
                       f"{rep.delta_invariants}")
    return CheckResult(
        "invariant: abelianization divides into the diagonal subgroup",
        not bad,
        f"invariant factors embed on {len(store.nus)} groups" if not bad
        else "; ".join(bad))


def check_pairing_certificate() -> CheckResult:
    """The element-triple certificate that every eta build relies on must
    accept nu(S3)'s eta with its own conjugation actions and reject it
    under trivial actions, or it certifies nothing."""
    g = realize_entry(catalog_lookup("S3"))
    r = build_nu(g)
    holds = pairing_relators_hold(r.pair, r.table)
    rejects = not pairing_relators_hold(trivial_pair(g, g), r.table)
    return CheckResult(
        "invariant: element-triple certificate", holds and rejects,
        f"certificate {'holds' if holds else 'FAILS'} on "
        f"{r.presentation.name} with "
        f"its own actions and {'rejects' if rejects else 'ACCEPTS'} it "
        "under trivial actions")


def run_catalog_suite(fault: bool = False) -> list[CheckResult]:
    """Run the acceptance battery over the built-in corpus.

    With `fault=True` the commutator-pairing relators are dropped from the
    builds of the criterion-1 corpus, so one of them must fail; the run
    demonstrates the suite's sensitivity and exits nonzero.
    """
    if fault:
        checks = [(_fault_injected_decomposition, ())]
    else:
        store = build_profiles()
        checks = [
            (check_decomposition, (store,)),
            (check_route_equivalence, (store,)),
            (check_abelian_reduction, (store,)),
            (check_tensor_counts, (store,)),
            (check_exact_sequences, (store,)),
            (check_schur_oracle, (store,)),
            (check_stable_pi2, (store,)),
            (check_theoremC, (store,)),
            (check_pushout, ()),
            (check_wedge_prufer_analog, ()),
            (check_bound_arithmetic, ()),
            (check_performance, (store,)),
            (check_negative_control, ()),
            (check_diagonal_embedding, (store,)),
            (check_pairing_certificate, ())]
    results = []
    for check, args in checks:
        t0 = time.monotonic()
        result = check(*args)
        # criteria 1 and 2 start from the store's build times
        result.elapsed_ms += _ms_since(t0)
        results.append(result)
    return results


def run_file_suite(text: str) -> list[CheckResult]:
    """Per-group checks for a user-supplied presentation file.  Each group
    is resolved as every command resolves its input, so an input the
    abelian fast path decides infinite is refused without enumerating.
    Action blocks are parsed, so a malformed one is an error, but they are
    checked only where `--action` uses them."""
    groups, _ = parse_file(
        text, resolver=lambda name: catalog_lookup(name).presentation)
    results: list[CheckResult] = []
    for name, pres in groups.items():
        t0 = time.monotonic()
        spent = current_tally()
        before = spent.cosets_defined
        try:
            grp = resolve_subject(pres).realized()
        except NtlError as exc:
            results.append(CheckResult(
                f"{name}: realization", False, f"{exc.code}: {exc}",
                _ms_since(t0)))
            continue
        results.append(CheckResult(
            f"{name}: realization", True,
            f"order {grp.order}, {spent.cosets_defined - before} cosets "
            "defined", _ms_since(t0)))
        t0 = time.monotonic()
        try:
            p = _profile(name, conjugation_pair(grp))  # certifies |eta|
        except CapExceeded:
            results.append(CheckResult(
                f"{name}: conjugation build", True,
                "skipped: square build exceeds the size cap"))
            continue
        except NtlError as exc:
            results.append(CheckResult(
                f"{name}: conjugation build", False, f"{exc.code}: {exc}",
                _ms_since(t0)))
            continue
        agree = p.routes_agree
        prods = not _sequence_faults(p.r)
        thmc = theoremC_report(p.r)
        results.append(CheckResult(
            f"{name}: conjugation build",
            agree and prods and thmc.unanimous,
            f"|T|={p.r.group.order}, decomposition holds, routes "
            f"{'agree' if agree else 'DIFFER'}, sequences "
            f"{'hold' if prods else 'FAIL'}, seven-property "
            f"{'unanimous' if thmc.unanimous else 'split'}",
            _ms_since(t0)))
    return results
