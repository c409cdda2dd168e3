"""Homotopy-group invariants exposed as operations on group data.

Spaces never appear as data: a suspension enters through its fundamental
group, a homotopy pushout through two normal subgroups of one group.  (A
triad group is the tensor product of its two relative groups under their
mutual actions, so it is `build_direct(pair).group` itself.)  Everything
else is finite group arithmetic on tensor products from `tensor`, each
read off its own presentation by `build_direct`; nothing here reads
eta(G,H).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import prod

from .abelian import AbelianInvariants
from .catalog import CatalogEntry, realize_entry
from .coset import EnumerationStats, current_budget, realize_presentation
from .errors import (BudgetExceeded, InternalInconsistency,
                     NotGeneratingPair, NotNormal)
from .groups import (RealizedGroup, Subgroup, _check_order, _same_parent,
                     closure, commutator_subgroup, derived_subgroup,
                     intersection, presentation_invariants,
                     section_invariants, subgroup_exponent)
from .tensor import (TensorRealization, _conjugation_pair_between,
                     _memoized, build_direct, delta, delta_tilde, j2,
                     tensor_set)
from .words import Presentation, Word


@dataclass(frozen=True)
class BoundReport:
    exact_orders: dict[str, int]
    chain: tuple[str, ...]

    def __post_init__(self):
        if min(self.exact_orders.values()) <= 0:
            raise ValueError("orders must be positive")

    @property
    def bound(self) -> int:
        """The bound: the product of the exact orders."""
        return prod(self.exact_orders.values())


# -- wedges, bounds ------------------------------------------------------------


def bound_theorem_A(a: int, b: int, c: int, t: int) -> BoundReport:
    """Order bound a*b*c*t for the total space of a connected triad union,
    walked along the three relative homotopy exact sequences."""
    chain = (
        f"pi_n(B) -> pi_n(B,C) -> pi_(n-1)(C): |pi_n(B,C)| <= b*c = {b * c}",
        f"pi_n(B,C) -> pi_n(X,A) -> pi_n(X,A,B): "
        f"|pi_n(X,A)| <= b*c*t = {b * c * t}",
        f"pi_n(A) -> pi_n(X) -> pi_n(X,A): "
        f"|pi_n(X)| <= a*b*c*t = {a * b * c * t}",
    )
    return BoundReport({"a": a, "b": b, "c": c, "t": t}, chain)


def bound_theorem_B(a: int, t: int) -> BoundReport:
    """Order bound a*t for the third homotopy group of a suspension, using
    the loop-space exact sequence."""
    chain = (
        f"pi_2(X) -> pi_3(SX) -> pi_2(Loops(SX),X): |pi_3(SX)| <= a*t = "
        f"{a * t}",
    )
    return BoundReport({"a": a, "t": t}, chain)


def bound_pushout_pi3(n_a: int, n_b: int, t: int) -> BoundReport:
    """Order bound n_a*n_b*t for pi_3 of a homotopy pushout, walked along
    the two fibration sequences."""
    chain = (
        f"pi_1 of the total fibre is a tensor product: order <= t = {t}",
        f"F(X) -> F(g) -> F(a): |pi_2(F(a))| <= n_b*t = {n_b * t}",
        f"F(a) -> A -> X: |pi_3(X)| <= n_a*n_b*t = {n_a * n_b * t}",
    )
    return BoundReport({"n_a": n_a, "n_b": n_b, "t": t}, chain)


def wedge_pi3(g_inv: AbelianInvariants,
              h_inv: AbelianInvariants) -> AbelianInvariants:
    """pi_3 of a wedge of two simply-connected Eilenberg-MacLane spaces
    K(G,2) v K(H,2): the tensor product of the two abelian groups."""
    return g_inv.tensor(h_inv)


# -- suspension invariants ----------------------------------------------------


@_memoized
def pi3_suspension_K(r: TensorRealization) -> AbelianInvariants:
    """pi_3 of the suspension of K(G,1): the kernel J2 of the derived map
    inside the tensor square, a central and so abelian subgroup."""
    return section_invariants(j2(r), closure(r.group, ()))


@_memoized
def schur_multiplier(r: TensorRealization) -> AbelianInvariants:
    """Second homology: the derived-map kernel over the diagonal
    subgroup."""
    return section_invariants(j2(r), delta(r))


@_memoized
def stable_pi2_K(r: TensorRealization) -> AbelianInvariants:
    """Second stable homotopy group of K(G,1): the derived-map kernel over
    the symmetrized diagonal subgroup.  It is also pi_4 of the double
    suspension of K(G,1)."""
    return section_invariants(j2(r), delta_tilde(r))


# -- homotopy pushout ----------------------------------------------------------


@dataclass(frozen=True)
class PushoutResult:
    pi2: AbelianInvariants
    pi3: AbelianInvariants


def pushout_EM(m: Subgroup, n: Subgroup) -> PushoutResult:
    """pi_2 and pi_3 of the homotopy pushout of aspherical spaces along the
    two quotient maps by normal subgroups M and N of one parent group G:
    pi_2 = (M cap N)/[M,N] and pi_3 = the kernel of the derived map from
    the tensor product M(x)N back into G."""
    g = _same_parent(m, n)
    for sub, label in ((m, "M"), (n, "N")):
        if not sub.is_normal():
            raise NotNormal(f"subgroup {label} is not normal in {g.name!r}")
    pi2 = section_invariants(intersection(m, n), commutator_subgroup(m, n))
    r = build_direct(_conjugation_pair_between(m, n))
    return PushoutResult(pi2=pi2, pi3=pi3_suspension_K(r))


@dataclass(frozen=True)
class ThreeConnectedReport:
    verdict: str
    result: PushoutResult


def three_connected_check(m: Subgroup, n: Subgroup) -> ThreeConnectedReport:
    """For G = MN, decide whether the pushout is 3-connected: pi_1 dies by
    the amalgamation argument, pi_2 and pi_3 come from `pushout_EM`."""
    g = _same_parent(m, n)
    gen = closure(g, tuple(m.members) + tuple(n.members))
    if gen.order != g.order:
        raise NotGeneratingPair(
            f"M and N generate a subgroup of order {gen.order}, "
            f"not all of {g.name!r}")
    res = pushout_EM(m, n)
    ok = res.pi2.order() == 1 and res.pi3.order() == 1
    return ThreeConnectedReport(
        verdict="3-connected" if ok else "not 3-connected", result=res)


# -- subjects that may be infinite ---------------------------------------------


@dataclass(frozen=True)
class ResolvedSubject:
    """A group input, resolved once for whatever reads it.

    `group` is its realization.  Without one, `unrealized` is the
    BudgetExceeded that stands for it, and an infinite abelian input
    carries its invariant factors in `invariants`: the abelian fast path."""

    name: str
    presentation: Presentation
    group: RealizedGroup | None = None
    invariants: AbelianInvariants | None = None
    unrealized: BudgetExceeded | None = None

    def realized(self) -> RealizedGroup:
        """The realization; raises `unrealized` when there is none."""
        if self.group is None:
            raise self.unrealized
        return self.group

    @property
    def witness(self) -> str:
        """On the abelian fast path, a tensor of infinite order: x(x)x for
        a generator x of infinite image, since G(x)G = G^ab(x)G^ab."""
        x = _free_witness_generator(self.presentation)
        return (f"{x}(x){x} has infinite order in the tensor square "
                f"{self.invariants.tensor(self.invariants)}")

    @property
    def theoremC(self) -> TheoremCReport:
        """On the abelian fast path, Theorem C without a tensor square:
        G = G^ab is infinite and so is G(x)G, so all seven are false."""
        return TheoremCReport(self.name,
                              dict.fromkeys(THEOREM_C_PROPERTIES, False))


def known_order(subject: CatalogEntry | Presentation) -> int | None:
    """The order of a group input known before any enumeration, checked
    against the order cap: a catalog entry's recorded order, or the order
    of a one-generator presentation's finite cokernel (a cyclic group is
    its abelianization).  None when it is unknown or infinite."""
    if isinstance(subject, CatalogEntry):
        order = subject.known_facts.get("order")
    elif subject.ngens == 1:
        coker = presentation_invariants(subject)
        order = coker.order() if coker.is_finite() else None
    else:
        order = None
    if order is not None:
        _check_order(order)
    return order


def resolve_subject(subject: CatalogEntry | Presentation) -> ResolvedSubject:
    """Realize a catalog entry or a presentation, or decide that it has no
    realization; never raises BudgetExceeded.  A catalog entry flagged
    infinite abelian, or a one-generator presentation with an infinite
    cokernel, takes the abelian fast path without enumerating.  A known
    order (`known_order`) is checked against the order cap before any
    enumeration."""
    entry = subject if isinstance(subject, CatalogEntry) else None
    p = entry.presentation if entry else subject
    if known_order(subject) is None and entry is None and p.ngens == 1:
        # an infinite cokernel: an enumeration could only exhaust
        return ResolvedSubject(
            p.name, p, invariants=presentation_invariants(p),
            unrealized=current_budget().cosets_exhausted(EnumerationStats()))
    try:  # an infinite entry is refused at once
        group = (realize_entry(entry) if entry
                 else realize_presentation(p)[0])
    except BudgetExceeded as exc:
        fast = entry is not None and entry.infinite and bool(entry.abelian)
        return ResolvedSubject(
            subject.name, p, unrealized=exc,
            invariants=presentation_invariants(p) if fast else None)
    return ResolvedSubject(subject.name, p, group)


def _free_witness_generator(p: Presentation) -> str:
    """Name of a generator whose abelianized image has infinite order."""
    base_rank = presentation_invariants(p).free_rank
    for i, name in enumerate(p.generators):
        killed = replace(p, relators=p.relators + (Word.gen(i),))
        if presentation_invariants(killed).free_rank < base_rank:
            return name
    raise InternalInconsistency("no free generator despite infinite factor")


# -- finiteness reports ---------------------------------------------------------
#
# Both read a tensor square, so both are about a finite group; an input
# without a realization is decided by `resolve_subject`.


@dataclass(frozen=True)
class FinitenessReport:
    gab_invariants: AbelianInvariants
    gprime_order: int
    tensor_count_m: int
    tensor_order: int
    delta_invariants: AbelianInvariants
    embedding_holds: bool


def finiteness_report(r: TensorRealization) -> FinitenessReport:
    """Report |G^ab|, |G'|, the tensor count m and the order of the tensor
    square r, and check the divisibility embedding of G^ab into the
    diagonal subgroup."""
    g = r.pair.g
    gab = g.abelianization()
    dinv = section_invariants(delta(r), closure(r.group, ()))
    return FinitenessReport(
        gab_invariants=gab, gprime_order=derived_subgroup(g).order,
        tensor_count_m=len(tensor_set(r)), tensor_order=r.group.order,
        delta_invariants=dinv, embedding_holds=gab.divides_into(dinv))


# Theorem C: seven properties of G, equivalent for every group.
THEOREM_C_PROPERTIES = {
    "a": "the group is finite",
    "b": "the set of tensors is finite",
    "c": "the tensor product subgroup is finite",
    "d": "derived subgroup locally finite, derived-map kernel periodic",
    "e": "derived subgroup locally finite, diagonal periodic",
    "f": "derived subgroup locally finite, symmetrized diagonal periodic",
    "g": "the tensor square is locally finite",
}


@dataclass(frozen=True)
class TheoremCReport:
    name: str
    properties: dict[str, bool]
    evidence: dict[str, int] = field(default_factory=dict)

    @property
    def unanimous(self) -> bool:
        return len(set(self.properties.values())) == 1


def theoremC_report(r: TensorRealization) -> TheoremCReport:
    """Evaluate the seven equivalent finiteness properties of G
    (THEOREM_C_PROPERTIES) on its tensor square r and check they agree.

    Local finiteness and periodicity specialize to finiteness in the
    realized regime.  An infinite G has no tensor square to read; the
    abelian fast path of `resolve_subject` decides it, with
    `ResolvedSubject.theoremC` and `ResolvedSubject.witness`.
    """
    g = r.pair.g
    m = len(tensor_set(r))
    jsub = j2(r)
    dsub = delta(r)
    dtsub = delta_tilde(r)
    gprime = derived_subgroup(g)
    # Every witness object was materialized as a finite group, which decides
    # each property affirmatively in the realized regime.
    evidence = {"group_order": g.order, "tensor_count_m": m,
                "tensor_order": r.group.order,
                "derived_order": gprime.order, "j2_order": jsub.order,
                "delta_order": dsub.order, "delta_tilde_order": dtsub.order}
    props = {
        "a": g.order >= 1,
        "b": m >= 1,
        "c": r.group.order >= 1,
        "d": gprime.order >= 1 and subgroup_exponent(jsub) >= 1,
        "e": gprime.order >= 1 and subgroup_exponent(dsub) >= 1,
        "f": gprime.order >= 1 and subgroup_exponent(dtsub) >= 1,
        "g": r.group.order >= 1,
    }
    return TheoremCReport(name=g.name, properties=props, evidence=evidence)


@dataclass(frozen=True)
class ExponentReport:
    tensor_exponent: int
    applicable: bool


def burnside_exponent_check(r: TensorRealization) -> ExponentReport:
    """Exponent of the tensor square; the small exponent criterion applies
    when it lies in {2,3,4,6}."""
    exp = r.group.exponent()
    return ExponentReport(tensor_exponent=exp,
                          applicable=exp in (2, 3, 4, 6))
