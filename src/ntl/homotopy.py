"""Homotopy-group invariants exposed as operations on group data.

Spaces never appear as data: a triad enters through its two relative
homotopy groups and their mutual actions, a suspension through the
fundamental group, a homotopy pushout through a group with two normal
subgroups.  Everything else is finite group arithmetic on the commutator
pairing builds from `tensor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .abelian import AbelianInvariants, abelian_invariants
from .catalog import CatalogEntry, realize_entry
from .coset import (EnumerationBudget, EnumerationStats,
                    realize_presentation)
from .errors import (BudgetExceeded, InternalInconsistency,
                     NotGeneratingPair, NotNormal, Undecided)
from .groups import (RealizedGroup, Subgroup, abelian_structure,
                     closure, commutator_subgroup, derived_subgroup,
                     intersection, subgroup_as_group, subgroup_exponent,
                     subgroup_quotient)
from .tensor import (CompatibleActionPair, TensorRealization,
                     _validate_tables, build_eta, build_nu, delta,
                     delta_tilde, j2, tensor_set)
from .words import Presentation


# -- inputs ------------------------------------------------------------------


@dataclass(frozen=True)
class TriadInput:
    """Relative homotopy data of an excisive triad: the two relative groups
    in dimensions p+1 and q+1 with their compatible actions."""

    m: RealizedGroup
    n: RealizedGroup
    actions: CompatibleActionPair
    p: int = 1
    q: int = 1

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("connectivity degrees must be >= 1")
        if self.actions.g is not self.m or self.actions.h is not self.n:
            raise InternalInconsistency(
                "triad actions do not act on the given groups")


@dataclass(frozen=True)
class PushoutInput:
    """A group with two normal subgroups, describing the homotopy pushout of
    the three associated aspherical spaces."""

    g: RealizedGroup
    m: Subgroup
    n: Subgroup


@dataclass(frozen=True)
class BoundReport:
    exact_orders: dict[str, int]
    bound: int
    chain: tuple[str, ...]

    def __post_init__(self):
        prod = 1
        for v in self.exact_orders.values():
            prod *= v
        if prod != self.bound:
            raise InternalInconsistency(
                "bound does not equal the product of its factors")


# -- triads, wedges, bounds ---------------------------------------------------


def triad_group(t: TriadInput,
                budget: EnumerationBudget | None = None
                ) -> tuple[RealizedGroup, int]:
    """The triad group in dimension p+q+1: the tensor product of the two
    relative groups under their mutual actions."""
    return build_eta(t.actions, budget).group, t.p + t.q + 1


def bound_theorem_A(a: int, b: int, c: int, t: int) -> BoundReport:
    """Order bound a*b*c*t for the total space of a connected triad union,
    walked along the three relative homotopy exact sequences."""
    for v in (a, b, c, t):
        if v <= 0:
            raise ValueError("orders must be positive")
    chain = (
        f"pi_n(B) -> pi_n(B,C) -> pi_(n-1)(C): |pi_n(B,C)| <= b*c = {b * c}",
        f"pi_n(B,C) -> pi_n(X,A) -> pi_n(X,A,B): "
        f"|pi_n(X,A)| <= b*c*t = {b * c * t}",
        f"pi_n(A) -> pi_n(X) -> pi_n(X,A): "
        f"|pi_n(X)| <= a*b*c*t = {a * b * c * t}",
    )
    return BoundReport({"a": a, "b": b, "c": c, "t": t}, a * b * c * t, chain)


def bound_theorem_B(a: int, t: int) -> BoundReport:
    """Order bound a*t for the third homotopy group of a suspension, using
    the loop-space exact sequence."""
    if a <= 0 or t <= 0:
        raise ValueError("orders must be positive")
    chain = (
        f"pi_2(X) -> pi_3(SX) -> pi_2(Loops(SX),X): |pi_3(SX)| <= a*t = "
        f"{a * t}",
    )
    return BoundReport({"a": a, "t": t}, a * t, chain)


def bound_pushout_pi3(n_a: int, n_b: int, t: int) -> BoundReport:
    """Order bound n_a*n_b*t for pi_3 of a homotopy pushout, walked along
    the two fibration sequences."""
    for v in (n_a, n_b, t):
        if v <= 0:
            raise ValueError("orders must be positive")
    chain = (
        f"pi_1 of the total fibre is a tensor product: order <= t = {t}",
        f"F(X) -> F(g) -> F(a): |pi_2(F(a))| <= n_b*t = {n_b * t}",
        f"F(a) -> A -> X: |pi_3(X)| <= n_a*n_b*t = {n_a * n_b * t}",
    )
    return BoundReport({"n_a": n_a, "n_b": n_b, "t": t}, n_a * n_b * t, chain)


def wedge_pi3(g_inv: AbelianInvariants,
              h_inv: AbelianInvariants) -> AbelianInvariants:
    """pi_3 of a wedge of two simply-connected Eilenberg-MacLane spaces
    K(G,2) v K(H,2): the tensor product of the two abelian groups."""
    return g_inv.tensor(h_inv)


# -- suspension invariants ----------------------------------------------------


def pi3_suspension_K(r: TensorRealization) -> RealizedGroup:
    """pi_3 of the suspension of K(G,1): the kernel of the derived map
    inside the tensor square, realized as a group."""
    grp, _ = subgroup_as_group(j2(r))
    return grp


def schur_multiplier(r: TensorRealization) -> RealizedGroup:
    """Second homology, realized as the quotient of the derived-map kernel
    by the diagonal subgroup."""
    q, _, _ = subgroup_quotient(j2(r), delta(r))
    return q


def stable_pi2_K(r: TensorRealization) -> RealizedGroup:
    """Second stable homotopy group of K(G,1): the quotient of the
    derived-map kernel by the symmetrized diagonal subgroup.  It is also
    pi_4 of the double suspension of K(G,1)."""
    q, _, _ = subgroup_quotient(j2(r), delta_tilde(r))
    return q


# -- homotopy pushout ----------------------------------------------------------


@dataclass(frozen=True)
class PushoutResult:
    pi2: RealizedGroup
    pi3: RealizedGroup
    build: TensorRealization


def _conjugation_pair_between(g: RealizedGroup, m: Subgroup, n: Subgroup
                              ) -> CompatibleActionPair:
    m_grp, _ = subgroup_as_group(m)
    n_grp, _ = subgroup_as_group(n)
    m_mem = m.members_array()
    n_mem = n.members_array()
    m_on_n = np.empty((m.order, n.order), dtype=np.int64)
    n_on_m = np.empty((n.order, m.order), dtype=np.int64)
    for a in range(m.order):
        for b in range(n.order):
            v = g.conj(int(n_mem[b]), int(m_mem[a]))
            if not n.contains(v):
                raise InternalInconsistency(
                    "conjugation escapes the second subgroup")
            m_on_n[a, b] = int(np.searchsorted(n_mem, v))
            w = g.conj(int(m_mem[a]), int(n_mem[b]))
            if not m.contains(w):
                raise InternalInconsistency(
                    "conjugation escapes the first subgroup")
            n_on_m[b, a] = int(np.searchsorted(m_mem, w))
    return _validate_tables(m_grp, n_grp, m_on_n, n_on_m,
                            "conjugation inside the parent",
                            (g, m_mem, n_mem))


def pushout_EM(p: PushoutInput,
               budget: EnumerationBudget | None = None) -> PushoutResult:
    """pi_2 and pi_3 of the homotopy pushout of aspherical spaces along the
    two quotient maps: pi_2 = (M cap N)/[M,N] and pi_3 = the kernel of the
    derived map from the tensor product [M,N~] back into the parent."""
    g, m, n = p.g, p.m, p.n
    for sub, label in ((m, "M"), (n, "N")):
        if not sub.is_normal():
            raise NotNormal(f"subgroup {label} is not normal in {g.name!r}")
    inter = intersection(m, n)
    comm = commutator_subgroup(m, n)
    if not set(comm.members) <= set(inter.members):
        raise InternalInconsistency("[M,N] is not inside M cap N")
    pi2, _, _ = subgroup_quotient(inter, comm)
    r = build_eta(_conjugation_pair_between(g, m, n), budget,
                  name=f"eta({g.name}|M,N)")
    pi3, _ = subgroup_as_group(j2(r))
    return PushoutResult(pi2=pi2, pi3=pi3, build=r)


@dataclass(frozen=True)
class ThreeConnectedReport:
    pi1_trivial: bool
    pi2_order: int
    pi3_order: int
    verdict: str
    result: PushoutResult


def three_connected_check(p: PushoutInput,
                          budget: EnumerationBudget | None = None
                          ) -> ThreeConnectedReport:
    """For G = MN, decide whether the pushout is 3-connected: pi_1 dies by
    the amalgamation argument, pi_2 and pi_3 come from `pushout_EM`."""
    g, m, n = p.g, p.m, p.n
    gen = closure(g, tuple(m.members) + tuple(n.members))
    if gen.order != g.order:
        raise NotGeneratingPair(
            f"M and N generate a subgroup of order {gen.order}, "
            f"not all of {g.name!r}")
    res = pushout_EM(p, budget)
    ok = res.pi2.order == 1 and res.pi3.order == 1
    return ThreeConnectedReport(
        pi1_trivial=True,
        pi2_order=res.pi2.order,
        pi3_order=res.pi3.order,
        verdict="3-connected" if ok else "not 3-connected",
        result=res)


# -- subjects that may be infinite ---------------------------------------------


@dataclass(frozen=True)
class ResolvedSubject:
    name: str
    group: RealizedGroup | None
    invariants: AbelianInvariants | None  # abelian fast path only
    presentation: Presentation | None
    stats: EnumerationStats | None = None  # realizing a presentation


def _presentation_coker(p: Presentation) -> AbelianInvariants:
    rows = [w.exponent_row(p.ngens) for w in p.relators]
    return abelian_invariants(rows, ncols=p.ngens)


def resolve_subject(subject,
                    budget: EnumerationBudget | None = None
                    ) -> ResolvedSubject:
    """Realize a group input, or route a known-abelian infinite input to the
    invariant-factor fast path.  Raises BudgetExceeded when realization is
    the only route and it fails."""
    if isinstance(subject, RealizedGroup):
        return ResolvedSubject(subject.name, subject, None,
                               subject.source_presentation)
    if isinstance(subject, CatalogEntry):
        if subject.infinite and subject.abelian:
            return ResolvedSubject(subject.name, None,
                                   _presentation_coker(subject.presentation),
                                   subject.presentation)
        group = realize_entry(subject, budget)
        return ResolvedSubject(subject.name, group, None,
                               subject.presentation)
    if isinstance(subject, Presentation):
        if subject.ngens == 1:
            inv = _presentation_coker(subject)
            if not inv.is_finite():
                return ResolvedSubject(subject.name, None, inv, subject)
        group, stats = realize_presentation(subject, budget)
        return ResolvedSubject(subject.name, group, None, subject, stats)
    raise TypeError(f"cannot resolve {type(subject).__name__} into a group")


def _free_witness_generator(p: Presentation) -> str:
    """Name of a generator whose abelianized image has infinite order."""
    rows = [w.exponent_row(p.ngens) for w in p.relators]
    base_rank = _presentation_coker(p).free_rank
    for i, name in enumerate(p.generators):
        unit = [0] * p.ngens
        unit[i] = 1
        killed = abelian_invariants(rows + [unit], ncols=p.ngens)
        if killed.free_rank < base_rank:
            return name
    raise InternalInconsistency("no free generator despite infinite factor")


# -- finiteness reports ---------------------------------------------------------


@dataclass(frozen=True)
class FinitenessReport:
    name: str
    determined: bool
    finite: bool | None
    gab_order: int | None
    gab_invariants: AbelianInvariants | None
    gprime_order: int | None
    tensor_count_m: int | None
    tensor_order: int | None
    delta_invariants: AbelianInvariants | None
    embedding_holds: bool | None
    note: str = ""
    stats: EnumerationStats | None = None  # the tensor-square build
    group: RealizedGroup | None = None
    group_stats: EnumerationStats | None = None  # realizing `group`


def finiteness_report(subject,
                      budget: EnumerationBudget | None = None
                      ) -> FinitenessReport:
    """Report |G^ab|, |G'|, the tensor count m, the tensor-square order, and
    check the divisibility embedding of G^ab into the diagonal subgroup.

    A `TensorRealization` subject is taken as the tensor square of its
    group and used as it is; any other subject is resolved and built."""
    if isinstance(subject, TensorRealization):
        return _finite_report(subject.pair.g.name, subject)
    try:
        resolved = resolve_subject(subject, budget)
    except BudgetExceeded as exc:
        name = getattr(subject, "name", "?")
        return FinitenessReport(
            name=name, determined=False, finite=None, gab_order=None,
            gab_invariants=None, gprime_order=None, tensor_count_m=None,
            tensor_order=None, delta_invariants=None, embedding_holds=None,
            note=f"undetermined - consistent with infinite ({exc})")
    if resolved.group is None:
        inv = resolved.invariants
        tensor = inv.tensor(inv)
        return FinitenessReport(
            name=resolved.name, determined=True, finite=False,
            gab_order=None, gab_invariants=inv, gprime_order=1,
            tensor_count_m=None, tensor_order=None,
            delta_invariants=None, embedding_holds=None,
            note=f"abelian fast path; tensor square {tensor} is infinite")
    return _finite_report(resolved.name, build_nu(resolved.group, budget),
                          resolved.stats)


def _finite_report(name: str, r: TensorRealization,
                   group_stats: EnumerationStats | None = None
                   ) -> FinitenessReport:
    g = r.pair.g
    gab = g.abelianization()
    dgrp, _ = subgroup_as_group(delta(r))
    dinv = abelian_structure(dgrp)
    return FinitenessReport(
        name=name, determined=True, finite=True,
        gab_order=gab.order(), gab_invariants=gab,
        gprime_order=derived_subgroup(g).order,
        tensor_count_m=tensor_set(r).m, tensor_order=r.group.order,
        delta_invariants=dinv, embedding_holds=gab.divides_into(dinv),
        stats=r.stats, group=g, group_stats=group_stats)


_PROPERTY_KEYS = ("a", "b", "c", "d", "e", "f", "g")


@dataclass(frozen=True)
class TheoremCReport:
    name: str
    properties: dict[str, bool]
    unanimous: bool
    finite: bool
    witness: str = ""
    evidence: dict[str, int] = field(default_factory=dict)
    stats: EnumerationStats | None = None  # the tensor-square build
    group: RealizedGroup | None = None
    group_stats: EnumerationStats | None = None  # realizing `group`


def theoremC_report(subject,
                    budget: EnumerationBudget | None = None
                    ) -> TheoremCReport:
    """Evaluate the seven equivalent finiteness properties of a finitely
    generated group and check they agree.

    (a) G finite, (b) finitely many tensors, (c) tensor square finite,
    (d) G' locally finite and the derived-map kernel periodic, (e) same
    with the diagonal subgroup, (f) same with the symmetrized diagonal,
    (g) tensor square locally finite.  Local finiteness and periodicity
    specialize to finiteness in the realized regime; the infinite regime
    is decided only via the abelian fast path, with an explicit
    infinite-order tensor as witness.  A `TensorRealization` subject is
    taken as the tensor square of its group and used as it is.
    """
    if isinstance(subject, TensorRealization):
        return _finite_theoremC(subject.pair.g.name, subject)
    try:
        resolved = resolve_subject(subject, budget)
    except BudgetExceeded as exc:
        raise Undecided(
            f"budget exhausted with no finiteness certificate ({exc})"
        ) from exc
    if resolved.group is None:
        inv = resolved.invariants
        witness_gen = _free_witness_generator(resolved.presentation)
        props = {k: False for k in _PROPERTY_KEYS}
        return TheoremCReport(
            name=resolved.name, properties=props, unanimous=True,
            finite=False,
            witness=(f"{witness_gen}(x){witness_gen} has infinite order "
                     f"in the tensor square {inv.tensor(inv)}"))
    return _finite_theoremC(resolved.name, build_nu(resolved.group, budget),
                            resolved.stats)


def _finite_theoremC(name: str, r: TensorRealization,
                     group_stats: EnumerationStats | None = None
                     ) -> TheoremCReport:
    g = r.pair.g
    ts = tensor_set(r)
    jsub = j2(r)
    dsub = delta(r)
    dtsub = delta_tilde(r)
    gprime = derived_subgroup(g)
    # Every witness object was materialized as a finite group, which decides
    # each property affirmatively in the realized regime.
    evidence = {"group_order": g.order, "tensor_count_m": ts.m,
                "tensor_order": r.group.order,
                "derived_order": gprime.order, "j2_order": jsub.order,
                "delta_order": dsub.order, "delta_tilde_order": dtsub.order}
    props = {
        "a": g.order >= 1,
        "b": ts.m >= 1,
        "c": r.group.order >= 1,
        "d": gprime.order >= 1 and subgroup_exponent(jsub) >= 1,
        "e": gprime.order >= 1 and subgroup_exponent(dsub) >= 1,
        "f": gprime.order >= 1 and subgroup_exponent(dtsub) >= 1,
        "g": r.group.order >= 1,
    }
    unanimous = len(set(props.values())) == 1
    return TheoremCReport(
        name=name, properties=props, unanimous=unanimous,
        finite=True, evidence=evidence, stats=r.stats, group=g,
        group_stats=group_stats)


@dataclass(frozen=True)
class ExponentReport:
    name: str
    tensor_exponent: int
    applicable: bool
    group_order: int
    consistent: bool


def burnside_exponent_check(r: TensorRealization) -> ExponentReport:
    """Exponent of the tensor square; when it lies in {2,3,4,6} the small
    exponent criterion applies and finiteness of G is recorded as a
    consistency check."""
    g = r.pair.g
    exp = r.group.exponent()
    applicable = exp in (2, 3, 4, 6)
    return ExponentReport(
        name=g.name, tensor_exponent=exp, applicable=applicable,
        group_order=g.order, consistent=(not applicable) or g.order >= 1)
