"""Mutual group actions, the commutator-pairing group eta(G,H), and the
non-abelian tensor product.

There is one producer of each object.  `build_direct` is the only producer
of a `TensorRealization`, the tensor product T = G(x)H: it enumerates T's
defining presentation, the biadditivity relators on the |G|*|H| symbols
a(x)b (Brown-Loday 1987), so its T needs no certificate and its enumeration
ends near |T| cosets.  T keeps the labels and the walk of that
enumeration and carries its symbol map and derived map.  Every map out of
T is fixed by the images of the symbols and spread along T's walk
(`_symbol_map`), reading right multiplication in its target from a table's
columns, for the derived map into the ambient group, or from traces
through eta's coset table, for the map onto the T inside eta by which the
two routes are compared (`same_tensor`); no second T is realized.  The
invariants below (the tensor set, J2, the diagonal and the symmetrized
diagonal) are functions of that realization alone.

`build_eta` (and `build_nu`, its conjugation case) is the only producer of
an `EtaRealization`: eta(G,H), for the commands whose answer is eta and for
the checks that compare it with T.  eta is presented on the full element
sets of both factors: Cayley relators on the generator edges of each
factor plus the two commutator-action relator families on generator
triples.  The enumerated group is certified to be eta(G,H) with no theorem
assumed, on its coset table alone, which is eta's regular permutation
representation: every product the certificate reads is a product by an
element generator or by a commutator [a, b~], a short trace through that
table (`coset.trace`).  The factor embeddings are homomorphisms, which
proves every Cayley relator, and `pairing_relators_hold` checks both
families on every element triple.  eta's multiplication table is built
only where a command's record reads it; the record holds no symbol map
and no derived map.

Every pair builder checks |G|*|H| against `ETA_SIZE_CAP` before it builds
an action table, so a pair is never too large to tensor.  No group is
walked here: element-level action tables and the derived map are spread
along the walk each group keeps (`groups._spread`), or sliced from the
conjugation table, never evaluated word by word.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .coset import (CosetTable, EnumerationStats, Relators, _WordSteps,
                    certify_regular, enumerate_cosets, realize_presentation,
                    regular_representation, subgroup_cosets, trace)
from .errors import (CapExceeded, IncompleteMap, Incompatible,
                     InternalInconsistency, NotActionHomomorphism,
                     NotAutomorphism)
from .groups import (Homomorphism, RealizedGroup, Subgroup, _blocks,
                     _commutators, _conjugates, _same_parent, _spread,
                     closure, commutator_subgroup, subgroup_as_group)
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
    None.  Rows are checked in bounded blocks (`groups._blocks`); a row
    that is not a bijection fixing 0 is checked as the identity in the
    product law, so every index stays in range."""
    n = target.order
    tab = target.table.astype(np.int64)
    ar = np.arange(n)
    for cut in _blocks(len(perms), n * n):
        p = perms[cut]
        ok = (np.sort(p, axis=1) == ar).all(axis=1) & (p[:, 0] == 0)
        p = np.where(ok[:, None], p, ar)
        ok &= (p[:, tab] == tab[p[:, :, None], p[:, None, :]]).all(axis=(1, 2))
        if not ok.all():
            return cut.start + int(np.argmin(ok))
    return None


def _tables_from_spec(actor: RealizedGroup, target: RealizedGroup,
                      spec: ActionSpec) -> np.ndarray:
    """Element-level action table induced by a generator-level spec.

    Both spreads are `groups._spread`: each generator's map of the target
    along the target's walk, then the actor's rows along the actor's walk
    from the identity row, the generator maps stacked as the columns of a
    table (the row of x = p.s is that of p followed by the map of s); walk
    words have positive exponents only.  Walks skip generators naming the
    identity or an element already reached, so every target generator must
    go to its given image and every actor generator's map must be its
    element's row; `_validate_tables` checks the rest.
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
    gen_perms = []
    for gname in apres.generators:
        images = spec.generator_map[gname]
        img_elems = [target.evaluate(images[t]) for t in tpres.generators]
        gen_perms.append(_spread(target.walk, target.table, img_elems))
        if gen_perms[-1][list(target.generator_images)].tolist() != img_elems:
            raise NotAutomorphism(
                f"action {spec.name!r}: generator {gname!r} induces no map "
                f"of {target.name!r} that sends every generator to its "
                "given image")
    table = _spread(actor.walk, np.stack(gen_perms, axis=1),
                    range(len(gen_perms)), start=np.arange(target.order))
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

    The ai are taken in increasing bounded blocks (`groups._blocks`) of
    triples, each indexed [ai, bi, a1], so the first failing block holds
    the first failing triple.
    """
    conj = _conjugation_table(a)
    # conj_back[a1, ai] = ai^(a1^-1)
    conj_back = conj[a.inverse.astype(np.int64)]
    na, nb = a.order, b_on_a.shape[0]
    a1 = np.arange(na)[None, None, :]
    bi = np.arange(nb)[None, :, None]
    a_on_b_t = a_on_b.T[None]
    for cut in _blocks(na, na * nb):
        ai = np.arange(cut.start, cut.stop)
        lhs = b_on_a[a_on_b_t, ai[:, None, None]]
        rhs = conj[a1, b_on_a[bi, conj_back[:, ai].T[:, None, :]]]
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            k, b, x = bad[0].tolist()
            return cut.start + k, b, x
    return None


def _first_non_homomorphic(actor: RealizedGroup, table: np.ndarray
                           ) -> tuple[int, int] | None:
    """The first (x, y), row-major, at which table[xy] is not the action of
    x followed by that of y, or None.  The x are taken in increasing
    bounded blocks (`groups._blocks`), each indexed [x, y, b]."""
    tab = actor.table
    na, nb = table.shape
    ys = np.arange(na)[None, :, None]
    for cut in _blocks(na, na * nb):
        xs = np.arange(cut.start, cut.stop)
        # composed[x, y, b] = table[y, table[x, b]]
        composed = table[ys, table[xs][:, None, :]]
        bad = np.argwhere(table[tab[xs]] != composed)
        if bad.size:
            k, y = bad[0, :2].tolist()
            return cut.start + k, y
    return None


def _validate_tables(g: RealizedGroup, h: RealizedGroup,
                     g_on_h: np.ndarray, h_on_g: np.ndarray,
                     label: str,
                     ambient: tuple | None = None) -> CompatibleActionPair:
    """Run every element-level check and wrap the tables.

    Per-element automorphism first, then the two compatibility identities
    (first violating triple reported as the witness), then the
    homomorphism-into-automorphisms law for both actions.  The identities
    and the law are checked by array operations, in blocks of first
    indices taken in increasing order.
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


def _element_columns(pair: CompatibleActionPair):
    """The generator columns of eta's coset table that the elements of G
    and of H name: G's element a is generator a, H's element b generator
    |G| + b."""
    ng, nh = pair.g.order, pair.h.order
    return 2 * np.arange(ng), 2 * (ng + np.arange(nh))


def _commutator_letters(x, y):
    """The column letters of [a, b~] = a^-1 b~^-1 a b~, for the columns x
    of a and y of b~, broadcast."""
    return x + 1, y + 1, x, y


def _pairing_commutators(pair: CompatibleActionPair,
                         t: CosetTable) -> np.ndarray:
    """The cosets of the commutators [a, b~], indexed [a, b]: each the
    trace of its four letters from coset 0."""
    gx, hy = _element_columns(pair)
    return trace(t, 0, _commutator_letters(gx[:, None], hy[None, :]))


def _first_positions(values) -> dict[int, int]:
    """Each distinct value of `values`, read in row-major order, mapped to
    the first position where it occurs, in order of first occurrence."""
    first: dict[int, int] = {}
    for i, v in enumerate(np.ravel(values).tolist()):
        first.setdefault(v, i)
    return first


def _commutator_words(pair: CompatibleActionPair, positions) -> np.ndarray:
    """The letters of [a, b~] for each (a, b) at the row-major `positions`
    of G x H, one row each, in that order."""
    a, b = np.divmod(np.asarray(positions, dtype=np.int64), pair.h.order)
    gx, hy = _element_columns(pair)
    return np.stack(_commutator_letters(gx[a], hy[b]), axis=1)


def pairing_relators_hold(pair: CompatibleActionPair,
                          t: CosetTable) -> bool:
    """Whether both commutator-action relator families hold, on every
    element triple, in the group of eta's coset table t:
    [a, b~]^x = [a^x, (x.b)~] for x in G and [a, b~]^y~ = [y.a, (b^y)~] for
    y in H.

    Each conjugate u^-1 [a, b~] u is the trace of its six letters from
    coset 0, compared with the trace of the commutator on the right.  All
    |G|^2 |H| + |G| |H|^2 identities are compared at once, indexed
    [acting element, a, b].
    """
    gx, hy = _element_columns(pair)
    comms = _pairing_commutators(pair, t)
    word = _commutator_letters(gx[None, :, None], hy[None, None, :])
    for by, a_to, b_to in (
            (gx, _conjugation_table(pair.g)[:, :, None],
             pair.g_on_h[:, None, :]),
            (hy, pair.h_on_g[:, :, None],
             _conjugation_table(pair.h)[:, None, :])):
        u = by[:, None, None]
        if not np.array_equal(trace(t, 0, (u + 1, *word, u)),
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
    """The tensor product T = G(x)H of a compatible pair, as `build_direct`
    realizes it.

    `group` is T with the labels and walk of its coset enumeration,
    generated by the symbols in row-major order (repeats and the identity
    included); `sym[a, b]` is the element a(x)b of T.  `derived` is the map
    T -> P, a(x)b |-> [a, b], into the pair's ambient group P, verified as
    a homomorphism with the commutator subgroup as its image; it is None
    when the pair has no ambient group.  The invariants below are computed
    from `group`, `sym` and `derived`, once per realization.
    """

    pair: CompatibleActionPair
    group: RealizedGroup
    sym: np.ndarray
    derived: Homomorphism | None
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.sym.setflags(write=False)


@dataclass(frozen=True, eq=False)
class EtaRealization:
    """eta(G,H) as `build_eta` realizes and certifies it, read off its coset
    table.

    `table` is eta's coset table and `stats` its enumeration's; eta is
    generated by the element generators of G, then those of H, and coset x
    is the element that x's trace from coset 0 names.  The rest needs no
    multiplication table of eta: `tensor_cosets` are the cosets of the
    subgroup T = [G, H~], in increasing order, and `commutators[a, b]` is
    [a, b~] as the element of T numbered by its place there.  T is not
    realized as a group of its own: `same_tensor` reads its products as
    traces through `table`.

    `eta`, eta's |eta|^2 regular representation, is realized only when
    read, and then kept; only the records of `eta` and `nu` read it.
    """

    pair: CompatibleActionPair
    table: CosetTable
    stats: EnumerationStats
    commutators: np.ndarray
    tensor_cosets: np.ndarray

    def __post_init__(self):
        self.commutators.setflags(write=False)
        self.tensor_cosets.setflags(write=False)

    @property
    def presentation(self) -> Presentation:
        """eta's presentation, as enumerated."""
        return self.table.presentation

    @property
    def tensor_count_m(self) -> int:
        """The number of distinct commutators [a, b~], the tensors
        a(x)b."""
        return len(_first_positions(self.commutators))

    @functools.cached_property
    def eta(self) -> RealizedGroup:
        """eta's regular representation, its |eta|^2 table."""
        return regular_representation(self.table)


def _symbol_map(group: RealizedGroup, sym: np.ndarray, steps,
                columns: np.ndarray) -> np.ndarray | None:
    """The images of the map f out of T fixed by the images of the
    symbols, or None when no homomorphism has them.  `steps[y, c]` is y
    times the element of column c in the target: a multiplication table's
    columns, or words traced through a coset table (`coset._WordSteps`).
    Each generator of T, a symbol s, goes to the element of
    `columns[a, b]` for the first (a, b) in row-major order with
    `sym[a, b]` = s (`_first_positions`), so a(x)b itself may go elsewhere:
    the caller checks where `sym` goes.

    f is spread along T's walk (`groups._spread`) and checked on every
    element x and distinct generator s, in bounded blocks of x
    (`groups._blocks`): f(x.s) = f(x) times the element of s's column.
    Then f(xy) = f(x)f(y) by induction on a positive word for y, which a
    finite group has for each element."""
    first = _first_positions(sym)
    gens = np.fromiter(first, dtype=np.int64, count=len(first))
    cols = columns.ravel()[list(first.values())]
    column = dict(zip(first, cols.tolist()))
    images = _spread(group.walk, steps,
                     [column[s] for s in group.generator_images])
    for cut in _blocks(group.order, gens.size):
        if not np.array_equal(images[group.table[cut][:, gens]],
                              steps[images[cut, None], cols]):
            return None
    return images


def _derived_map(pair: CompatibleActionPair, group: RealizedGroup,
                 sym: np.ndarray) -> Homomorphism | None:
    """a(x)b |-> [a, b] into the ambient group (`_symbol_map`, on its
    table's columns), verified as a homomorphism again on every pair of
    elements, with the commutator subgroup as its image."""
    if pair.ambient is None:
        return None
    base, g_in, h_in = pair.ambient
    want = _commutators(base, g_in, h_in)
    images = _symbol_map(group, sym, base.table, want)
    if images is None or not np.array_equal(images[sym], want):
        raise InternalInconsistency("the derived map does not send a(x)b "
                                    "to [a, b]")
    derived = Homomorphism(group, base, images)
    comm = commutator_subgroup(closure(base, g_in), closure(base, h_in))
    if derived.image_members() != comm.members:
        raise InternalInconsistency(
            "derived-map image differs from the commutator subgroup")
    return derived


def same_tensor(r: TensorRealization, e: EtaRealization) -> bool:
    """Whether a(x)b |-> [a, b~] is an isomorphism from r's T onto e's:
    the map out of T (`_symbol_map`), reading each [a, b~] as its four
    letters traced through eta's coset table, is a homomorphism, it sends
    every a(x)b to [a, b~], and its images, sorted, are T's cosets, so it
    is injective and onto.  No group is realized and nothing is walked."""
    shape = e.commutators.shape
    words = _commutator_words(e.pair, range(e.commutators.size))
    images = _symbol_map(r.group, r.sym, _WordSteps(e.table, words),
                         np.arange(e.commutators.size).reshape(shape))
    return (images is not None
            and np.array_equal(images[r.sym],
                               e.tensor_cosets[e.commutators])
            and np.array_equal(np.sort(images), e.tensor_cosets))


def _check_cap(ng: int, nh: int):
    """Refuse a pair too large to tensor; every pair builder calls this
    before it builds an action table."""
    if ng * nh > ETA_SIZE_CAP:
        raise CapExceeded(f"|G|*|H| = {ng * nh} exceeds the build "
                          f"cap {ETA_SIZE_CAP}")


def build_eta(pair: CompatibleActionPair,
              *,
              skip_pairing_relators: bool = False) -> EtaRealization:
    """Realize eta(G,H) for a compatible pair, with the commutators
    [a, b~] and the subgroup T they generate.  A group paired with itself
    inside an ambient group is nu(G) and is named so.

    The presentation has one generator per element of G and of H, the
    Cayley relators on the generator edges of each factor and the two
    commutator-action relator families on generator triples.  The
    enumerated coset table is then certified, with no multiplication table
    of eta, to be a group that satisfies eta(G,H)'s relators on every
    element: `certify_regular` makes each trace from coset 0 name an
    element; the factor embeddings, row 0's generator columns, are
    injective homomorphisms (column b read at each embedded a is the
    embedded ab), which proves every Cayley relator; and
    `pairing_relators_hold` proves every element-triple pairing relator.
    T's cosets are the vertices of the walk of right multiplication by the
    distinct commutators, and |eta| = |T||G||H| is checked on them.  T is
    normal with nothing to check: by [gx, h] = [g, h]^x [x, h], conjugation
    by an element generator x of G maps [g, h~] to [gx, h~][x, h~]^-1, in
    T, and likewise for H, and these generators generate eta.
    `skip_pairing_relators` is the test-only fault switch that drops both
    families; the certificate still runs, so the verification suite can
    prove its own sensitivity.
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
    table, stats = enumerate_cosets(presentation)
    return EtaRealization(pair, table, stats, *_certify(name, pair, table))


def _certify(name: str, pair: CompatibleActionPair, table: CosetTable
             ) -> tuple[np.ndarray, np.ndarray]:
    """`build_eta`'s certificate of eta's coset table, each branch raising
    InternalInconsistency; returns the commutators as elements of T and
    T's cosets.  Order matters: every branch after `certify_regular`
    reads a trace from coset 0 as the element it names."""
    ng, nh = pair.g.order, pair.h.order
    # By the Cayley relators, the element generators of G's and of H's
    # generators generate eta.
    certify_regular(table, [*pair.g.generator_images,
                            *(ng + b for b in pair.h.generator_images)])
    for grp, cols in zip((pair.g, pair.h), _element_columns(pair)):
        emb = table.rows[0, cols]
        if (len(set(emb.tolist())) != grp.order or not np.array_equal(
                table.rows[emb[:, None], cols], emb[grp.table])):
            raise InternalInconsistency(
                f"{name}: factor embeddings are not injective "
                "homomorphisms")
    if not pairing_relators_hold(pair, table):
        raise InternalInconsistency(
            f"{name}: an element-triple pairing relator fails")
    comms = _pairing_commutators(pair, table)
    cosets = subgroup_cosets(table, _commutator_words(
        pair, list(_first_positions(comms).values())))
    if table.coset_count != cosets.size * ng * nh:
        raise InternalInconsistency(
            f"{name}: order {table.coset_count} breaks the semidirect "
            f"decomposition {cosets.size}*{ng}*{nh}")
    return np.searchsorted(cosets, comms), cosets


def build_nu(g: RealizedGroup) -> EtaRealization:
    """nu(G) = eta(G,G) with both actions by conjugation; its T is the
    tensor square."""
    return build_eta(conjugation_pair(g))


def _direct_relators(pair: CompatibleActionPair) -> Relators:
    """The biadditivity relators on the symbols t(a, b) = a(x)b, generator
    a*|H| + b, for every a, a' in G and b, b' in H:

        (aa')(x)b = (a^a' (x) a'.b)(a'(x)b)   in the order (a, a', b),
        a(x)(bb') = (a(x)b')(b'.a (x) b^b')   in the order (a, b, b'),

    each written X^-1 Y Z, the |G|^2|H| relators of the first family first,
    in the column letters [2X+1, 2Y, 2Z] that the enumerator reads.  The
    index triples are computed from the group and action tables at once.
    A relator with X = Y is the letter [2Z], as `Word.of` would merge it;
    one with Y = Z already reads Y^2.  Repeats are dropped by one
    `np.unique` on a packed key per relator, keeping first occurrences in
    order."""
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
    rows = np.stack([2 * x + 1, 2 * y, 2 * z], axis=1)
    rows[x == y, :2] = -1  # a merged relator is its last letter alone
    # One key per relator, each letter and the -1 of a merged one shifted
    # into 0..2|G||H|: distinct relators get distinct keys.
    base = 2 * ng * nh + 1
    key = ((rows[:, 0] + 1) * base + rows[:, 1] + 1) * base + rows[:, 2] + 1
    rows = rows[np.sort(np.unique(key, return_index=True)[1])]
    return Relators(f"tensor({g.name},{h.name})", ng * nh, rows[rows >= 0],
                    np.cumsum((rows >= 0).sum(axis=1)))


def build_direct(pair: CompatibleActionPair) -> TensorRealization:
    """The tensor product T = G(x)H from its defining presentation: the
    biadditivity relators on the |G||H| symbols a(x)b (Brown-Loday 1987),
    enumerated in the letter form `_direct_relators` builds.  This is the
    one producer of T: its realization is T by definition, so it needs no
    certificate, and its enumeration ends near |T| cosets, where eta's
    ends near |T||G||H|.  T is the group the enumeration realizes, with
    its table, labels, generators (the symbols a(x)b in row-major order)
    and walk, and no source presentation."""
    g, h = pair.g, pair.h
    group, _ = realize_presentation(_direct_relators(pair))
    sym = np.asarray(group.generator_images).reshape(g.order, h.order)
    return TensorRealization(pair, group, sym, _derived_map(pair, group, sym))


def tensor_direct(pair: CompatibleActionPair) -> RealizedGroup:
    """The group T of `build_direct` alone, generated by the symbols a(x)b
    in row-major order, so its distinct generator images are the m tensors
    (perfbench/make_expected.py reads its order and generator images)."""
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
def tensor_set(r: TensorRealization) -> dict[int, tuple[int, int]]:
    """Every tensor a(x)b of T mapped to its first witnessing pair (a, b)
    in row-major order, in the order of those witnesses; its length is the
    tensor count m."""
    nh = r.sym.shape[1]
    return {v: divmod(i, nh) for v, i in _first_positions(r.sym).items()}


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
    return closure(r.group, np.diagonal(r.sym))


@_memoized
def delta_tilde(r: TensorRealization) -> Subgroup:
    """Subgroup generated by the symmetrized tensors (a(x)b)(b(x)a)."""
    _require_square(r, "the symmetrized diagonal subgroup")
    sub = closure(r.group, r.group.table[r.sym, r.sym.T].ravel())
    if r.derived is not None and r.derived.images[sub.members_array()].any():
        raise InternalInconsistency(
            "symmetrized diagonal escapes the derived-map kernel")
    return sub
