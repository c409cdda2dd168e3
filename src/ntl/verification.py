"""The acceptance battery: every check the suite runs over the catalog.

Profiles are computed once per run (one commutator-pairing build per corpus
member) and every check reads from them, so the expensive constructions are
never repeated across criteria.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from math import gcd

import numpy as np

from .abelian import AbelianInvariants
from .catalog import (CatalogEntry, catalog_lookup, finite_corpus,
                      realize_entry)
from .coset import EnumerationBudget, EnumerationStats
from .errors import NtlError
from .groups import RealizedGroup, closure, derived_subgroup
from .homotopy import (PushoutInput, bound_pushout_pi3, bound_theorem_A,
                       bound_theorem_B, finiteness_report, pushout_EM,
                       schur_multiplier, stable_pi2_K, theoremC_report,
                       three_connected_check, wedge_pi3)
from .parsing import parse_file
from .tensor import (TensorRealization, build_direct, build_eta, build_nu,
                     delta, delta_tilde, j2, tensor_set, trivial_pair)

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
class RouteProfile:
    """What one route gives for a tensor product.  The derived-map fields
    (|J2|, |D|, |Dt|, H2 = J2/D and pi2S = J2/Dt) are None for a build
    without a derived map."""

    order: int
    invariants: AbelianInvariants
    m: int
    j2_order: int | None = None
    delta_order: int | None = None
    delta_tilde_order: int | None = None
    schur: AbelianInvariants | None = None
    stable: AbelianInvariants | None = None


def _route_profile(r: TensorRealization) -> RouteProfile:
    prof = RouteProfile(r.group.order, r.group.abelianization(),
                        tensor_set(r).m)
    if r.derived is None:
        return prof
    return replace(prof, j2_order=j2(r).order, delta_order=delta(r).order,
                   delta_tilde_order=delta_tilde(r).order,
                   schur=schur_multiplier(r).abelianization(),
                   stable=stable_pi2_K(r).abelianization())


@dataclass
class PairProfile:
    gname: str
    hname: str
    g_order: int
    h_order: int
    eta_order: int
    eta_route: RouteProfile
    direct_route: RouteProfile
    oracle_invariants: AbelianInvariants
    decomposition_ok: bool
    stats: EnumerationStats


@dataclass
class NuProfile:
    name: str
    group_order: int
    eta_order: int
    eta_route: RouteProfile
    direct_route: RouteProfile
    gab: AbelianInvariants
    gprime_order: int
    delta_invariants: AbelianInvariants
    decomposition_ok: bool
    tensorset_generates: bool
    structural: dict[str, bool]
    embedding_holds: bool
    thmc_properties: dict[str, bool]
    thmc_unanimous: bool
    stats: EnumerationStats
    build_ms: int


@dataclass
class ProfileStore:
    pairs: dict[tuple[str, str], PairProfile] = field(default_factory=dict)
    nus: dict[str, NuProfile] = field(default_factory=dict)
    eta_build_ms: int = 0
    direct_build_ms: int = 0


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


def _profile_pair(a: CatalogEntry, b: CatalogEntry,
                  budget: EnumerationBudget | None,
                  store: ProfileStore) -> PairProfile:
    g = realize_entry(a, budget)
    h = realize_entry(b, budget)
    pair = trivial_pair(g, h)
    t0 = time.monotonic()
    r = build_eta(pair, budget)
    eta_route = _route_profile(r)
    store.eta_build_ms += _ms_since(t0)
    t0 = time.monotonic()
    direct = build_direct(pair, budget)
    store.direct_build_ms += _ms_since(t0)
    return PairProfile(
        gname=a.name, hname=b.name, g_order=g.order, h_order=h.order,
        eta_order=r.eta.order, eta_route=eta_route,
        direct_route=_route_profile(direct),
        oracle_invariants=g.abelianization().tensor(h.abelianization()),
        decomposition_ok=(r.eta.order == r.group.order * g.order * h.order),
        stats=r.stats)


def _profile_nu(entry: CatalogEntry,
                budget: EnumerationBudget | None,
                store: ProfileStore) -> NuProfile:
    g = realize_entry(entry, budget)
    t0 = time.monotonic()
    r = build_nu(g, budget)
    build_ms = _ms_since(t0)
    store.eta_build_ms += build_ms
    t0 = time.monotonic()
    direct = build_direct(r.pair, budget)
    store.direct_build_ms += _ms_since(t0)

    jsub, dsub, dtsub = j2(r), delta(r), delta_tilde(r)
    gprime = derived_subgroup(g)
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
    thmc = theoremC_report(r)
    fin = finiteness_report(r)
    regen = closure(r.group, tensor_set(r).elements)
    return NuProfile(
        name=entry.name, group_order=g.order, eta_order=r.eta.order,
        eta_route=_route_profile(r), direct_route=_route_profile(direct),
        gab=fin.gab_invariants, gprime_order=gprime.order,
        delta_invariants=fin.delta_invariants,
        decomposition_ok=(r.eta.order == r.group.order * g.order ** 2),
        tensorset_generates=(regen.order == r.group.order),
        structural=structural,
        embedding_holds=fin.embedding_holds,
        thmc_properties=thmc.properties,
        thmc_unanimous=thmc.unanimous,
        stats=r.stats, build_ms=build_ms)


def build_profiles(budget: EnumerationBudget | None = None) -> ProfileStore:
    store = ProfileStore()
    for a, b in pair_corpus():
        store.pairs[(a.name, b.name)] = _profile_pair(a, b, budget, store)
    for entry in nu_corpus():
        store.nus[entry.name] = _profile_nu(entry, budget, store)
    return store


# -- the thirteen criteria ----------------------------------------------------


def _timed(fn):
    def wrapper(*args, **kwargs) -> CheckResult:
        t0 = time.monotonic()
        result = fn(*args, **kwargs)
        result.elapsed_ms += _ms_since(t0)
        return result
    return wrapper


@_timed
def check_decomposition(store: ProfileStore) -> CheckResult:
    bad = [f"{p.gname}x{p.hname}" for p in store.pairs.values()
           if not p.decomposition_ok]
    bad += [p.name for p in store.nus.values() if not p.decomposition_ok]
    within = store.eta_build_ms <= 60_000
    detail = (f"{len(store.pairs)} trivial-action pairs + "
              f"{len(store.nus)} conjugation builds, "
              f"builds took {store.eta_build_ms} ms")
    if bad:
        detail = f"decomposition broken for {', '.join(bad)}; " + detail
    if not within:
        detail += " (over the 60 s budget)"
    return CheckResult("criterion 1: decomposition identity",
                       not bad and within, detail,
                       elapsed_ms=store.eta_build_ms)


@_timed
def check_route_equivalence(store: ProfileStore) -> CheckResult:
    bad = [f"{p.gname}x{p.hname}" for p in store.pairs.values()
           if p.eta_route != p.direct_route]
    bad += [p.name for p in store.nus.values()
            if p.eta_route != p.direct_route]
    within = store.direct_build_ms <= 60_000
    detail = (f"order, abelian invariants and m agree on "
              f"{len(store.pairs) + len(store.nus)} builds, and |J2|, |D|, "
              f"|Dt|, H2 and pi2S on the {len(store.nus)} tensor squares; "
              f"direct route took {store.direct_build_ms} ms")
    if bad:
        detail = f"routes disagree on {', '.join(bad)}; " + detail
    return CheckResult("criterion 2: route equivalence",
                       not bad and within, detail,
                       elapsed_ms=store.direct_build_ms)


@_timed
def check_abelian_reduction(budget: EnumerationBudget | None,
                            store: ProfileStore | None = None) -> CheckResult:
    t0 = time.monotonic()
    bad = []
    for m in range(1, 13):
        gm = realize_entry(catalog_lookup(f"C{m}"), budget)
        for n in range(1, 13):
            gn = realize_entry(catalog_lookup(f"C{n}"), budget)
            pair = trivial_pair(gm, gn)
            t = build_eta(pair, budget).group
            want = AbelianInvariants.from_cyclic_orders([gcd(m, n)])
            got = t.abelianization()
            if (got != want or not t.is_abelian()
                    or t.order != (want.order() or 0)):
                bad.append(f"C{m}(x)C{n}: got {got}, want {want}")
    oracle_checked = 0
    if store is not None:
        # With trivial actions the tensor product factors through the
        # abelianizations, so every corpus pair must match the oracle.
        for p in store.pairs.values():
            oracle_checked += 1
            if p.eta_route.invariants != p.oracle_invariants:
                bad.append(f"{p.gname}(x){p.hname}: {p.eta_route.invariants} "
                           f"vs oracle {p.oracle_invariants}")
    elapsed = _ms_since(t0)
    ok = not bad and elapsed <= 30_000
    detail = (f"144 cyclic pairs against the gcd oracle in {elapsed} ms; "
              f"{oracle_checked} corpus pairs re-checked against the "
              "abelianization oracle")
    if bad:
        detail = "; ".join(bad[:3])
    return CheckResult("criterion 3: abelian reduction", ok, detail)


@_timed
def check_tensor_counts(store: ProfileStore) -> CheckResult:
    bad = []
    for n in range(1, 13):
        want = len({(i * j) % n for i in range(n) for j in range(n)})
        got = store.nus[f"C{n}"].eta_route.m
        if got != want:
            bad.append(f"C{n}: m={got}, bilinear image {want}")
    return CheckResult(
        "criterion 4: tensor counts", not bad,
        "m equals the bilinear-image count for C1..C12" if not bad
        else "; ".join(bad))


@_timed
def check_exact_sequences(store: ProfileStore) -> CheckResult:
    bad = []
    for p in store.nus.values():
        q = p.eta_route
        if q.order != q.j2_order * p.gprime_order:
            bad.append(f"{p.name}: |T| != |J2||G'|")
        if q.j2_order != q.delta_order * q.schur.order():
            bad.append(f"{p.name}: |J2| != |D||H2|")
        if q.j2_order != q.delta_tilde_order * q.stable.order():
            bad.append(f"{p.name}: |J2| != |Dt||J2/Dt|")
        for key, ok in p.structural.items():
            if not ok:
                bad.append(f"{p.name}: {key}")
        if not p.tensorset_generates:
            bad.append(f"{p.name}: tensor set does not generate")
    return CheckResult(
        "criterion 5: exact-sequence order products", not bad,
        f"kernel=image and order products verified on {len(store.nus)} "
        "groups" if not bad else "; ".join(bad[:4]))


@_timed
def check_schur_oracle(store: ProfileStore) -> CheckResult:
    bad = []
    for name in [f"C{n}" for n in range(1, 13)] + ["C2xC2", "C2xC4"]:
        p = store.nus[name]
        oracle = p.gab.exterior_square()
        if p.eta_route.schur != oracle:
            bad.append(f"{name}: H2={p.eta_route.schur}, oracle {oracle}")
    for p in store.nus.values():
        entry = catalog_lookup(p.name)
        if entry.abelian:
            if p.eta_route.schur != p.gab.exterior_square():
                bad.append(f"{p.name} (abelian sweep)")
    return CheckResult(
        "criterion 6: Schur multipliers match the exterior-square oracle",
        not bad,
        "H2(C1..C12)=1, H2(C2xC2)=C2, H2(C2xC4)=C2, all abelian entries "
        "match" if not bad else "; ".join(bad[:4]))


@_timed
def check_stable_pi2(store: ProfileStore) -> CheckResult:
    c2 = store.nus["C2"].eta_route.stable
    c3 = store.nus["C3"].eta_route.stable
    ok = c2.order() == 2 and c2 == AbelianInvariants((2,)) and c3.order() == 1
    return CheckResult(
        "criterion 7: second stable homotopy of K(C2,1) and K(C3,1)", ok,
        f"pi2S(K(C2,1))={c2}, pi2S(K(C3,1)) order {c3.order()}")


@_timed
def check_theoremC(store: ProfileStore,
                   budget: EnumerationBudget | None) -> CheckResult:
    bad = []
    for p in store.nus.values():
        if not p.thmc_unanimous or not all(p.thmc_properties.values()):
            bad.append(p.name)
    z = theoremC_report(catalog_lookup("Z"), budget)
    z_ok = (z.unanimous and not any(z.properties.values())
            and "infinite order" in z.witness)
    if not z_ok:
        bad.append("Z")
    return CheckResult(
        "criterion 8: seven-property unanimity", not bad,
        f"all true on {len(store.nus)} finite groups; all false on Z "
        f"with witness: {z.witness}" if not bad else "; ".join(bad))


@_timed
def check_pushout(budget: EnumerationBudget | None) -> CheckResult:
    c6 = realize_entry(catalog_lookup("C6"), budget)
    a = c6.generator_images[0]
    m = closure(c6, [c6.power(a, 3)])
    n = closure(c6, [c6.power(a, 2)])
    rep = three_connected_check(PushoutInput(c6, m, n), budget)
    ok1 = (rep.pi2_order == 1 and rep.pi3_order == 1
           and rep.verdict == "3-connected")
    v4 = realize_entry(catalog_lookup("C2xC2"), budget)
    full = closure(v4, v4.generator_images)
    res = pushout_EM(PushoutInput(v4, full, full), budget)
    ok2 = res.pi2.order == 4 and res.pi3.order == 16
    detail = (f"C6 with coprime cyclic parts: pi2={rep.pi2_order}, "
              f"pi3={rep.pi3_order}, {rep.verdict}; "
              f"C2xC2 with M=N=G: |pi2|={res.pi2.order}, "
              f"|pi3|={res.pi3.order}")
    return CheckResult("criterion 9: homotopy pushout values",
                       ok1 and ok2, detail)


@_timed
def check_wedge_prufer_analog(_: ProfileStore | None = None) -> CheckResult:
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


@_timed
def check_bound_arithmetic(_: ProfileStore | None = None) -> CheckResult:
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


@_timed
def check_performance(store: ProfileStore) -> CheckResult:
    slow = [f"{p.name}: {p.build_ms} ms" for p in store.nus.values()
            if p.build_ms > 10_000]
    stats_ok = all(p.stats.cosets_defined >= p.stats.cosets_final >= 1
                   for p in store.nus.values())
    worst = max(store.nus.values(), key=lambda p: p.build_ms)
    return CheckResult(
        "criterion 12: conjugation builds within 10 s each", not slow
        and stats_ok,
        f"worst build {worst.name} at {worst.build_ms} ms with stats "
        f"{worst.stats}" if not slow else "; ".join(slow))


def _fault_scan(budget: EnumerationBudget | None) -> tuple[bool, str]:
    """Rebuild the criterion-1 corpus with the pairing relators dropped.
    Returns whether the decomposition check broke, with the first pair where
    it did."""
    for a, b in pair_corpus():
        g = realize_entry(a)
        h = realize_entry(b)
        try:
            r = build_eta(trivial_pair(g, h), budget or FAULT_BUDGET,
                          skip_pairing_relators=True)
        except NtlError as exc:
            return True, (f"fault exposed at {a.name}(x){b.name}: "
                          f"{exc.code}: {exc}")
        if r.eta.order != r.group.order * g.order * h.order:
            return True, (f"fault exposed at {a.name}(x){b.name}: "
                          f"|eta|={r.eta.order} != {r.group.order}"
                          f"*{g.order}*{h.order}")
    return False, "dropping the pairing relators went unnoticed"


@_timed
def check_negative_control(budget: EnumerationBudget | None) -> CheckResult:
    """The fault must break the decomposition check somewhere, or the suite
    is blind."""
    exposed, detail = _fault_scan(budget)
    return CheckResult("criterion 13: negative control", exposed, detail)


@_timed
def check_diagonal_embedding(store: ProfileStore) -> CheckResult:
    bad = [f"{p.name}: {p.gab} !| {p.delta_invariants}"
           for p in store.nus.values() if not p.embedding_holds]
    return CheckResult(
        "invariant: abelianization divides into the diagonal subgroup",
        not bad,
        f"invariant factors embed on {len(store.nus)} groups" if not bad
        else "; ".join(bad))


@_timed
def check_generator_scope_variant(store: ProfileStore,
                                  budget: EnumerationBudget | None
                                  ) -> CheckResult:
    bad = []
    for name, p in store.nus.items():
        g = realize_entry(catalog_lookup(name), budget)
        r = build_nu(g, budget, relator_scope="generators")
        if r.eta.order != p.eta_order:
            bad.append(f"{name}: {r.eta.order} != {p.eta_order}")
    return CheckResult(
        "invariant: generator-scope variant matches the full build",
        not bad, f"orders agree on {len(store.nus)} groups" if not bad
        else "; ".join(bad))


def run_catalog_suite(budget: EnumerationBudget | None = None,
                      fault: bool = False,
                      include_extras: bool = True) -> list[CheckResult]:
    """Run the acceptance battery over the built-in corpus.

    With `fault=True` the commutator-pairing relators are dropped from the
    builds, so the decomposition criterion must fail; the run demonstrates
    the suite's sensitivity and exits nonzero.
    """
    if fault:
        exposed, detail = _fault_scan(budget)
        return [CheckResult(
            "criterion 1: decomposition identity (fault injected)",
            not exposed, detail)]

    store = build_profiles(budget)
    results = [
        check_decomposition(store),
        check_route_equivalence(store),
        check_abelian_reduction(budget, store),
        check_tensor_counts(store),
        check_exact_sequences(store),
        check_schur_oracle(store),
        check_stable_pi2(store),
        check_theoremC(store, budget),
        check_pushout(budget),
        check_wedge_prufer_analog(),
        check_bound_arithmetic(),
        check_performance(store),
        check_negative_control(None),
    ]
    if include_extras:
        results.append(check_diagonal_embedding(store))
        results.append(check_generator_scope_variant(store, budget))
    return results


def run_file_suite(text: str,
                   budget: EnumerationBudget | None = None
                   ) -> list[CheckResult]:
    """Per-group checks for a user-supplied presentation file."""
    groups, actions = parse_file(
        text, resolver=lambda name: catalog_lookup(name).presentation)
    results: list[CheckResult] = []
    from .coset import realize_presentation
    realized: dict[str, RealizedGroup] = {}
    for name, pres in groups.items():
        t0 = time.monotonic()
        try:
            grp, stats = realize_presentation(pres, budget)
        except NtlError as exc:
            results.append(CheckResult(
                f"{name}: realization", False, f"{exc.code}: {exc}",
                _ms_since(t0)))
            continue
        realized[name] = grp
        results.append(CheckResult(
            f"{name}: realization", True,
            f"order {grp.order}, {stats.cosets_defined} cosets defined",
            _ms_since(t0)))
        if grp.order ** 2 > 144:
            results.append(CheckResult(
                f"{name}: conjugation build", True,
                "skipped: square build exceeds the size cap"))
            continue
        t0 = time.monotonic()
        r = build_nu(grp, budget)
        direct = build_direct(r.pair, budget)
        ok = (r.eta.order == r.group.order * grp.order ** 2
              and direct.group.order == r.group.order)
        jsub = j2(r)
        dsub = delta(r)
        prods = (r.group.order == jsub.order * derived_subgroup(grp).order
                 and jsub.order % dsub.order == 0)
        thmc = theoremC_report(r)
        results.append(CheckResult(
            f"{name}: conjugation build", ok and prods and thmc.unanimous,
            f"|T|={r.group.order}, decomposition "
            f"{'holds' if ok else 'FAILS'}, sequences "
            f"{'hold' if prods else 'FAIL'}, seven-property "
            f"{'unanimous' if thmc.unanimous else 'split'}",
            _ms_since(t0)))
    for spec in actions:
        results.append(CheckResult(
            f"action {spec.name}: parsed", True,
            f"{spec.actor} acting on {spec.target}"))
    return results
