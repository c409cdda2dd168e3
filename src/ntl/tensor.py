"""Mutual group actions, the commutator-pairing group eta(G,H), and the
non-abelian tensor product.

There is one route to each object.  `build_direct` gives the tensor product
T = G(x)H from its defining presentation, the biadditivity relators on the
|G|*|H| symbols a(x)b (Brown-Loday 1987), so its T needs no certificate and
its enumeration ends near |T| cosets.  Every command and check that reads
only T, its symbols and its derived map builds T there.  `build_eta` (and
`build_nu`, its conjugation case) gives eta(G,H), for the commands whose
answer is eta and for the checks that compare the two routes.  eta is
presented on the full element sets of both factors: Cayley relators on the
generator edges of each factor plus the two commutator-action relator
families on generator triples.  The enumerated group is certified to be
eta(G,H) with no theorem assumed: the factor embeddings are homomorphisms,
which proves every Cayley relator, and `pairing_relators_hold` checks both
families on every element triple in the realized table; the subgroup
generated by the commutators [g, h~] inside it is T.  Every pair builder
checks |G|*|H| against `ETA_SIZE_CAP` before it builds an action table, so
a pair is never too large to tensor.  Both routes realize their
presentation through `coset.realize_presentation` and label T canonically
(`_label_tensor`: queue-BFS discovery order over the symbols a(x)b), so
they return the same T: the same table, generator images, `sym` and
derived map.  The invariants below (the tensor set, J2, the diagonal and
the symmetrized diagonal) are functions of a `TensorRealization` that
never look inside eta.  Element-level action tables are spread along the
Cayley-graph walk (`groups._walk`) or sliced from the conjugation table,
never evaluated word by word.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .coset import EnumerationStats, realize_presentation
from .errors import (CapExceeded, IncompleteMap, Incompatible,
                     InternalInconsistency, NotActionHomomorphism,
                     NotAutomorphism)
from .groups import (Homomorphism, RealizedGroup, Subgroup, _commutators,
                     _conjugates, _same_parent, _walk, closure,
                     commutator_subgroup, subgroup_as_group)
from .parsing import ActionSpec
from .words import Presentation, Word, commutator, conjugate

ETA_SIZE_CAP = 144  # |G| * |H| bound for every compatible action pair


@dataclass(frozen=True)
class CompatibleActionPair:
    """Two mutual element-level actions that passed every compatibility check.

    g_on_h[x, b] is the image of the H-element b under the G-element x;
    h_on_g[y, a] is the image of the G-element a under the H-element y.
    `ambient`, when set, is a group P with element maps G -> P and H -> P
    under which both actions are conjugation in P; P is the target of the
    derived map a(x)b |-> [a, b].
    """

    g: RealizedGroup
    h: RealizedGroup
    g_on_h: np.ndarray
    h_on_g: np.ndarray
    ambient: tuple[RealizedGroup, np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        self.g_on_h.setflags(write=False)
        self.h_on_g.setflags(write=False)
        if self.ambient is not None:
            for images in self.ambient[1:]:
                images.setflags(write=False)


def _first_non_automorphism(target: RealizedGroup,
                            perms: np.ndarray) -> int | None:
    """The first row of `perms` that is not an automorphism of target, or
    None.  The target's table is widened once for all rows."""
    n = target.order
    tab = target.table.astype(np.int64)
    for x, perm in enumerate(perms):
        if (len(np.unique(perm)) != n or perm[0] != 0
                or not np.array_equal(perm[tab],
                                      tab[perm[:, None], perm[None, :]])):
            return x
    return None


def _tables_from_spec(actor: RealizedGroup, target: RealizedGroup,
                      spec: ActionSpec) -> np.ndarray:
    """Element-level action table induced by a generator-level spec.

    Each generator's map of the target is spread along the target's
    Cayley-graph walk (x = p.s goes to image(p).image(s)), and the actor's
    rows along the actor's walk (the row of x = p.s is that of p followed by
    the map of s); walk words have positive exponents only.  Walks skip
    generators naming the identity or an element already reached, so every
    target generator must go to its given image and every actor
    generator's map must be its element's row; `_validate_tables` checks
    the rest.
    """
    apres = actor.source_presentation
    tpres = target.source_presentation
    if apres is None or tpres is None:
        raise InternalInconsistency(
            "action specs need presentation-backed groups")
    if spec.actor != apres.name or spec.target != tpres.name:
        raise IncompleteMap(
            f"action {spec.name!r} maps {spec.actor!r} on {spec.target!r}, "
            f"expected {apres.name!r} on {tpres.name!r}")
    t_tab = target.table
    t_tree = _walk(t_tab, target.generator_images)
    gen_perms = np.zeros((apres.ngens, target.order), dtype=np.int64)
    for perm, gname in zip(gen_perms, apres.generators):
        images = spec.generator_map[gname]
        img_elems = [target.evaluate(images[t]) for t in tpres.generators]
        for x, p, i in t_tree:
            perm[x] = t_tab[perm[p], img_elems[i]]
        if perm[list(target.generator_images)].tolist() != img_elems:
            raise NotAutomorphism(
                f"action {spec.name!r}: generator {gname!r} induces no map "
                f"of {target.name!r} that sends every generator to its "
                "given image")
    table = np.empty((actor.order, target.order), dtype=np.int64)
    table[0] = np.arange(target.order)
    for x, p, i in _walk(actor.table, actor.generator_images):
        table[x] = gen_perms[i][table[p]]
    for gname, x, perm in zip(apres.generators, actor.generator_images,
                              gen_perms):
        if not np.array_equal(table[x], perm):
            raise NotActionHomomorphism(
                f"action {spec.name!r}: the map of generator {gname!r} is "
                f"not the action the other generators give its element "
                f"{actor.element_str(x)!r} of {actor.name!r}")
    return table


def _first_incompatible(a: RealizedGroup, b_on_a: np.ndarray,
                        a_on_b: np.ndarray) -> tuple[int, int, int] | None:
    """The lexicographically first (ai, bi, a1) at which
    b_on_a[a_on_b[a1, bi], ai] != (b_on_a[bi, ai^(a1^-1)])^a1, or None.

    One chunk per ai, in increasing order, each |B| x |A| over (bi, a1), so
    the first failing chunk holds the first failing triple.
    """
    conj = _conjugation_table(a)
    # conj_back[a1, ai] = ai^(a1^-1)
    conj_back = conj[a.inverse.astype(np.int64)]
    cols = np.arange(a.order)[None, :]
    a_on_b_t = a_on_b.T
    for ai in range(a.order):
        lhs = b_on_a[a_on_b_t, ai]
        rhs = conj[cols, b_on_a[:, conj_back[:, ai]]]
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            return ai, int(bad[0, 0]), int(bad[0, 1])
    return None


def _first_non_homomorphic(actor: RealizedGroup, table: np.ndarray
                           ) -> tuple[int, int] | None:
    """The first (x, y), row-major, at which table[xy] is not the action of
    x followed by that of y, or None.  One |A| x |B| chunk per x."""
    tab = actor.table
    for x in range(actor.order):
        # composed[y, b] = table[y, table[x, b]]
        composed = table[:, table[x]]
        bad = np.argwhere(table[tab[x]] != composed)
        if bad.size:
            return x, int(bad[0, 0])
    return None


def _validate_tables(g: RealizedGroup, h: RealizedGroup,
                     g_on_h: np.ndarray, h_on_g: np.ndarray,
                     label: str,
                     ambient: tuple | None = None) -> CompatibleActionPair:
    """Run every element-level check and wrap the tables.

    Per-element automorphism first, then the two compatibility identities
    (first violating triple reported as the witness), then the
    homomorphism-into-automorphisms law for both actions.  The identities
    and the law are checked by array operations, one chunk per first index.
    """
    for actor, target, table, what in ((g, h, g_on_h, "on the right factor"),
                                       (h, g, h_on_g, "on the left factor")):
        if table.shape != (actor.order, target.order):
            raise InternalInconsistency("action table has wrong shape")
        x = _first_non_automorphism(target, table.astype(np.int64))
        if x is not None:
            raise NotAutomorphism(
                f"{label}: element {actor.element_str(x)!r} of "
                f"{actor.name!r} does not act as an automorphism {what}")
    for a, b, a_on_b, b_on_a in ((g, h, g_on_h, h_on_g),
                                 (h, g, h_on_g, g_on_h)):
        bad = _first_incompatible(a, b_on_a, a_on_b)
        if bad is not None:
            ai, bi, a1 = bad
            raise Incompatible(
                f"{label}: compatibility fails at "
                f"({a.element_str(ai)}, {b.element_str(bi)}, "
                f"{a.element_str(a1)})",
                witness=bad)
    for actor, table, what in ((g, g_on_h, "left"), (h, h_on_g, "right")):
        bad = _first_non_homomorphic(actor, table)
        if bad is not None:
            x, y = bad
            raise NotActionHomomorphism(
                f"{label}: the {what} action is not a homomorphism "
                f"(fails at {actor.element_str(x)}, "
                f"{actor.element_str(y)})")
    return CompatibleActionPair(g, h, g_on_h.astype(np.int64),
                                h_on_g.astype(np.int64), ambient)


def validate_compatibility(g: RealizedGroup, h: RealizedGroup,
                           g_on_h: ActionSpec,
                           h_on_g: ActionSpec) -> CompatibleActionPair:
    """Build element-level tables from the generator-level specs and verify
    the whole compatibility contract."""
    _check_cap(g.order, h.order)
    t_gh = _tables_from_spec(g, h, g_on_h)
    t_hg = _tables_from_spec(h, g, h_on_g)
    return _validate_tables(g, h, t_gh, t_hg,
                            f"actions {g_on_h.name!r}/{h_on_g.name!r}")


def trivial_pair(g: RealizedGroup, h: RealizedGroup) -> CompatibleActionPair:
    _check_cap(g.order, h.order)
    g_on_h = np.tile(np.arange(h.order, dtype=np.int64), (g.order, 1))
    h_on_g = np.tile(np.arange(g.order, dtype=np.int64), (h.order, 1))
    return _validate_tables(g, h, g_on_h, h_on_g, "trivial actions")


def _conjugation_table(g: RealizedGroup) -> np.ndarray:
    ar = np.arange(g.order)
    return _conjugates(g, ar, ar)


def _pairing_commutators(pair: CompatibleActionPair, eta: RealizedGroup):
    """The images of G and H in eta and the commutators [a, b~], indexed
    [a, b]."""
    ng = pair.g.order
    eg = np.asarray(eta.generator_images[:ng], dtype=np.int64)
    eh = np.asarray(eta.generator_images[ng:], dtype=np.int64)
    return eg, eh, _commutators(eta, eg, eh)


def pairing_relators_hold(pair: CompatibleActionPair,
                          eta: RealizedGroup) -> bool:
    """Whether both commutator-action relator families hold in eta on every
    element triple: [a, b~]^x = [a^x, (x.b)~] for x in G and
    [a, b~]^y~ = [y.a, (b^y)~] for y in H.

    eta is generated by the element generators of G, then those of H, as
    `build_eta` realizes it.  All |G|^2 |H| + |G| |H|^2 identities are
    compared at once, indexed [acting element, a, b].
    """
    eg, eh, comms = _pairing_commutators(pair, eta)
    for by, a_to, b_to in (
            (eg, _conjugation_table(pair.g)[:, :, None],
             pair.g_on_h[:, None, :]),
            (eh, pair.h_on_g[:, :, None],
             _conjugation_table(pair.h)[:, None, :])):
        if not np.array_equal(_conjugates(eta, by, comms),
                              comms[a_to, b_to]):
            return False
    return True


def conjugation_pair(g: RealizedGroup) -> CompatibleActionPair:
    """Both actions by conjugation inside the same group."""
    _check_cap(g.order, g.order)
    table = _conjugation_table(g)
    ident = np.arange(g.order, dtype=np.int64)
    return _validate_tables(g, g, table, table, "conjugation actions",
                            (g, ident, ident))


def _conjugation_pair_between(m: Subgroup, n: Subgroup
                              ) -> CompatibleActionPair:
    """M and N acting on each other by conjugation inside their common
    parent, which is the ambient group of the derived map."""
    g = _same_parent(m, n)
    _check_cap(m.order, n.order)
    m_grp, _ = subgroup_as_group(m)
    n_grp, _ = subgroup_as_group(n)
    m_mem = m.members_array()
    n_mem = n.members_array()
    m_on_n = _conjugates(g, m_mem, n_mem)
    n_on_m = _conjugates(g, n_mem, m_mem)
    if not np.isin(m_on_n, n_mem).all():
        raise InternalInconsistency("conjugation escapes the second subgroup")
    if not np.isin(n_on_m, m_mem).all():
        raise InternalInconsistency("conjugation escapes the first subgroup")
    return _validate_tables(m_grp, n_grp, np.searchsorted(n_mem, m_on_n),
                            np.searchsorted(m_mem, n_on_m),
                            "conjugation inside the parent",
                            (g, m_mem, n_mem))


@dataclass(frozen=True, eq=False)
class TensorRealization:
    """A realized tensor product T, from either route.

    `sym[a, b]` is the element a(x)b of T.  T is labelled canonically by
    `_label_tensor`, so both routes give equal `group`, `sym` and
    `derived`; only `presentation`, `stats` and `eta` differ.  `derived` is
    the map T -> P, a(x)b |-> [a, b], into the pair's ambient group P,
    verified as a homomorphism with the commutator subgroup as its image;
    it is None when the pair has no ambient group.  `eta` is the
    commutator pairing group on the eta route and None on the direct
    route.  A realization kept without eta, as the acceptance battery
    keeps its builds, drops eta's presentation too: both are None.  The
    invariants below are computed from `group`, `sym` and `derived`
    alone, once per realization.
    """

    pair: CompatibleActionPair
    presentation: Presentation | None
    stats: EnumerationStats
    group: RealizedGroup
    sym: np.ndarray
    derived: Homomorphism | None
    eta: RealizedGroup | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.sym.setflags(write=False)


@dataclass(frozen=True)
class TensorSet:
    """All values a(x)b inside T, with witnesses."""

    elements: tuple[int, ...]
    m: int
    witness: dict[int, tuple[int, int]]


def _derived_map(pair: CompatibleActionPair, group: RealizedGroup,
                 sym: np.ndarray) -> Homomorphism | None:
    """a(x)b |-> [a, b] into the ambient group, spread over T along a
    breadth-first spanning tree on the symbols, then verified."""
    if pair.ambient is None:
        return None
    base, g_in, h_in = pair.ambient
    want = _commutators(base, g_in, h_in)
    steps = dict(zip(sym.ravel().tolist(), want.ravel().tolist()))
    tree = _walk(group.table, list(steps))
    if len(tree) + 1 != group.order:
        raise InternalInconsistency("the symbols a(x)b do not generate T")
    step_images = list(steps.values())
    images = np.zeros(group.order, dtype=np.int64)
    for x, p, i in tree:
        images[x] = base.table[images[p], step_images[i]]
    derived = Homomorphism(group, base, images)
    if not np.array_equal(derived.images[sym], want):
        raise InternalInconsistency("the derived map does not send a(x)b "
                                    "to [a, b]")
    comm = commutator_subgroup(closure(base, g_in), closure(base, h_in))
    if derived.image_members() != comm.members:
        raise InternalInconsistency(
            "derived-map image differs from the commutator subgroup")
    return derived


def _label_tensor(name: str, table: np.ndarray, sym: np.ndarray
                  ) -> tuple[RealizedGroup, np.ndarray, np.ndarray]:
    """T with its canonical labels, from the symbols a(x)b in any table
    that holds them (eta's, or the biadditivity presentation's).

    T's elements are numbered in plain queue-BFS discovery order from 0,
    each dequeued element being multiplied on the right by the distinct
    symbols in row-major order of `sym`.  The numbering depends on T and
    `sym` alone, never on the labels of `table`, so an isomorphism that
    fixes every a(x)b makes the two results equal.  Returns T, generated
    by the distinct symbols in that order, `sym` in T's labels and the
    members of T in `table`'s labels, listed by their new label.
    """
    steps = list(dict.fromkeys(sym.ravel().tolist()))
    label = {0: 0}
    members = [0]
    for x in members:  # the list grows while it is read: a plain queue
        for y in table[x, steps].tolist():
            if y not in label:
                label[y] = len(members)
                members.append(y)
    mem = np.asarray(members, dtype=np.int64)
    relabel = np.full(table.shape[0], -1, dtype=np.int64)
    relabel[mem] = np.arange(mem.size)
    group = RealizedGroup(name, relabel[table[np.ix_(mem, mem)]],
                          relabel[steps])
    return group, relabel[sym], mem


def _check_cap(ng: int, nh: int):
    """Refuse a pair too large to tensor; every pair builder calls this
    before it builds an action table."""
    if ng * nh > ETA_SIZE_CAP:
        raise CapExceeded(f"|G|*|H| = {ng * nh} exceeds the build "
                          f"cap {ETA_SIZE_CAP}")


def build_eta(pair: CompatibleActionPair,
              *,
              skip_pairing_relators: bool = False) -> TensorRealization:
    """Realize eta(G,H) for a compatible pair; T is the subgroup generated
    by the commutators [a, b~].  A group paired with itself inside an
    ambient group is nu(G) and is named so.

    The presentation has one generator per element of G and of H, the
    Cayley relators on the generator edges of each factor and the two
    commutator-action relator families on generator triples.  The realized
    table is then certified to be eta(G,H) itself: the factor embeddings
    prove every Cayley relator and `pairing_relators_hold` every
    element-triple pairing relator.  `skip_pairing_relators` is the
    test-only fault switch that drops both families; the certificate still
    runs, so the verification suite can prove its own sensitivity.
    """
    g, h = pair.g, pair.h
    ng, nh = g.order, h.order
    name = (f"nu({g.name})" if g is h and pair.ambient is not None
            else f"eta({g.name},{h.name})")

    def y(b: int) -> int:
        return ng + b

    gens = tuple(f"g{i}" for i in range(ng)) + tuple(
        f"h{j}" for j in range(nh))
    # A trivial factor has no generator images; the identity stands in, so
    # its Cayley relator g0 g0 = g0 still kills the element generator.
    ggens = list(dict.fromkeys(g.generator_images)) or [0]
    hgens = list(dict.fromkeys(h.generator_images)) or [0]

    def cayley(offset, grp, seconds):
        tab = grp.table
        return [Word.of(((offset + a, 1), (offset + b, 1),
                         (offset + int(tab[a, b]), -1)))
                for a in range(grp.order) for b in seconds]

    def pairing_one(gi, hi, g1):
        gp = g.conj(gi, g1)
        hp = int(pair.g_on_h[g1, hi])
        lhs = conjugate(commutator(Word.gen(gi), Word.gen(y(hi))),
                        Word.gen(g1))
        rhs = commutator(Word.gen(gp), Word.gen(y(hp)))
        return lhs * ~rhs

    def pairing_two(gi, hi, h1):
        gp = int(pair.h_on_g[h1, gi])
        hp = h.conj(hi, h1)
        lhs = conjugate(commutator(Word.gen(gi), Word.gen(y(hi))),
                        Word.gen(y(h1)))
        rhs = commutator(Word.gen(gp), Word.gen(y(hp)))
        return lhs * ~rhs

    relators = cayley(0, g, ggens) + cayley(ng, h, hgens)
    if not skip_pairing_relators:
        relators += [pairing_one(gi, hi, g1) for gi in ggens
                     for hi in hgens for g1 in ggens]
        relators += [pairing_two(gi, hi, h1) for gi in ggens
                     for hi in hgens for h1 in hgens]

    presentation = Presentation(name, gens, tuple(relators))
    eta, stats = realize_presentation(presentation)

    eg, eh, comms = _pairing_commutators(pair, eta)
    group, sym, members = _label_tensor(f"tensor({g.name},{h.name})",
                                        eta.table, comms)
    if not (Homomorphism(g, eta, eg).is_injective()
            and Homomorphism(h, eta, eh).is_injective()):
        raise InternalInconsistency(
            f"{name}: factor embeddings are not injective")
    if not pairing_relators_hold(pair, eta):
        raise InternalInconsistency(
            f"{name}: an element-triple pairing relator fails")
    if eta.order != members.size * ng * nh:
        raise InternalInconsistency(
            f"{name}: order {eta.order} breaks the semidirect "
            f"decomposition {members.size}*{ng}*{nh}")
    if not Subgroup(eta, tuple(np.sort(members).tolist())).is_normal():
        raise InternalInconsistency(
            f"{name}: tensor subgroup is not normal")
    return TensorRealization(pair, presentation, stats, group, sym,
                             _derived_map(pair, group, sym), eta)


def build_nu(g: RealizedGroup) -> TensorRealization:
    """nu(G) = eta(G,G) with both actions by conjugation; T is the tensor
    square and the derived map lands in G."""
    return build_eta(conjugation_pair(g))


def _direct_relators(pair: CompatibleActionPair) -> tuple[Word, ...]:
    """The biadditivity relators on the symbols t(a, b) = a(x)b, generator
    a*|H| + b, for every a, a' in G and b, b' in H:

        (aa')(x)b = (a^a' (x) a'.b)(a'(x)b)   in the order (a, a', b),
        a(x)(bb') = (a(x)b')(b'.a (x) b^b')   in the order (a, b, b'),

    each written X^-1 Y Z, the |G|^2|H| relators of the first family first.
    The index triples are computed from the group and action tables at
    once; `Word.of` merges the letters of the few relators in which X = Y
    or Y = Z, and every other relator is its three letters as they stand.
    """
    g, h = pair.g, pair.h
    ng, nh = g.order, h.order
    a = np.arange(ng)[:, None, None]
    b = np.arange(nh)[None, None, :]
    # first family, indexed [a, a', b]
    a2 = np.arange(ng)[None, :, None]
    g_tab = g.table.astype(np.int64)
    first = (g_tab[a, a2] * nh + b,
             _conjugation_table(g)[a2, a] * nh + pair.g_on_h[a2, b],
             a2 * nh + b)
    # second family, indexed [a, b, b']
    b = np.arange(nh)[None, :, None]
    b2 = np.arange(nh)[None, None, :]
    h_tab = h.table.astype(np.int64)
    second = (a * nh + h_tab[b, b2],
              a * nh + b2,
              pair.h_on_g[b2, a] * nh + _conjugation_table(h)[b2, b])
    x, y, z = (np.concatenate([np.broadcast_to(f, (ng, ng, nh)).ravel(),
                               np.broadcast_to(s, (ng, nh, nh)).ravel()])
               for f, s in zip(first, second))
    merge = ((x == y) | (y == z)).tolist()
    return tuple(
        (Word.of if m else Word)(((xi, -1), (yi, 1), (zi, 1)))
        for xi, yi, zi, m in zip(x.tolist(), y.tolist(), z.tolist(), merge))


def build_direct(pair: CompatibleActionPair) -> TensorRealization:
    """The tensor product T = G(x)H from its defining presentation: the
    biadditivity relators on the |G||H| symbols a(x)b (Brown-Loday 1987).
    This is the one route to T: its realization is T by definition, so it
    needs no certificate, and its enumeration ends near |T| cosets, where
    eta's ends near |T||G||H|.  Every command and check that reads only T,
    its symbols and its derived map builds T here; `build_eta` is for eta
    itself."""
    g, h = pair.g, pair.h
    ng, nh = g.order, h.order
    gens = tuple(f"t{a}_{b}" for a in range(ng) for b in range(nh))
    name = f"tensor({g.name},{h.name})"
    presentation = Presentation(name, gens, _direct_relators(pair))
    realized, stats = realize_presentation(presentation)
    group, sym, _ = _label_tensor(
        name, realized.table,
        np.asarray(realized.generator_images).reshape(ng, nh))
    return TensorRealization(pair, presentation, stats, group, sym,
                             _derived_map(pair, group, sym))


def tensor_direct(pair: CompatibleActionPair) -> RealizedGroup:
    """The group T of `build_direct` alone, generated by the distinct
    symbols a(x)b in row-major order (perfbench/make_expected.py reads its
    order and generator images)."""
    return build_direct(pair).group


def _memoized(fn):
    """Compute an invariant once per realization; realizations are
    immutable, so the cached value can be shared."""
    @functools.wraps(fn)
    def once(r: TensorRealization):
        if fn.__name__ not in r._memo:
            r._memo[fn.__name__] = fn(r)
        return r._memo[fn.__name__]
    return once


def _require_square(r: TensorRealization, what: str):
    if r.pair.g is not r.pair.h:
        raise InternalInconsistency(
            f"{what} needs a square build (same group on both sides)")


@_memoized
def tensor_set(r: TensorRealization) -> TensorSet:
    """All tensors a(x)b, with the first witnessing pair (row-major) per
    value."""
    values, first = np.unique(r.sym, return_index=True)
    nh = r.sym.shape[1]
    witness = {int(v): divmod(int(i), nh) for v, i in zip(values, first)}
    return TensorSet(elements=tuple(witness), m=len(witness),
                     witness=witness)


@_memoized
def j2(r: TensorRealization) -> Subgroup:
    """Kernel of the derived map, a normal subgroup of T."""
    if r.derived is None:
        raise InternalInconsistency(
            "j2 needs a build with a derived-map target")
    return r.derived.kernel()


@_memoized
def delta(r: TensorRealization) -> Subgroup:
    """Diagonal subgroup, generated by the square tensors a(x)a."""
    _require_square(r, "the diagonal subgroup")
    return closure(r.group, np.unique(np.diagonal(r.sym)))


@_memoized
def delta_tilde(r: TensorRealization) -> Subgroup:
    """Subgroup generated by the symmetrized tensors (a(x)b)(b(x)a)."""
    _require_square(r, "the symmetrized diagonal subgroup")
    sub = closure(r.group, np.unique(r.group.table[r.sym, r.sym.T]))
    if r.derived is not None and r.derived.images[sub.members_array()].any():
        raise InternalInconsistency(
            "symmetrized diagonal escapes the derived-map kernel")
    return sub
