"""Realized finite groups: multiplication tables, subgroups, homomorphisms
and the invariant factors of abelian sections.

Elements are dense indices 0..order-1 with 0 the identity, so products are
O(1) table lookups and every axiom stays exhaustively checkable at desk
scale.  Associativity is certified by Light's test (Clifford-Preston,
The Algebraic Theory of Semigroups I, 1961), in O(n^2 k) rather than
O(n^3), on the k generator images that right multiplication by the images
kept before them does not reach from the identity.  Each group is walked
once, when it is built, and keeps the breadth-first tree of its Cayley
graph as `walk` (a table built along a walk, as the regular representation
is, comes with it, checked rather than walked again): one triple of edge
arrays (vertex, parent, step) a level, read directly by every reader of a
walk.  Every map along a walk, here or in `coset` and `tensor`, is spread
by the one function `_spread`, a level at a time: the inverses, each map
fixed by its generator images, and rows of maps, such as an actor's
action rows and the left multiplications of a coset table.  Element words
are read off the walk too.  Every bounded gather, the walk's and the
spread's included, is cut into blocks of `_CELLS` entries.  All values
are immutable after construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .abelian import AbelianInvariants, abelian_invariants
from .errors import CapExceeded, InternalInconsistency, MixedParents
from .words import Presentation, Word

GROUP_ORDER_CAP = 20_000

_ASSOC_CHECK_MAX = 256
_CELLS = 1 << 16  # entries per block of a gather and of each temporary


def _table_dtype(order: int):
    return np.int16 if order <= np.iinfo(np.int16).max else np.int32


def _check_order(n: int):
    """Refuse a group of more than `GROUP_ORDER_CAP` elements; every
    n x n table is checked here before it is built or kept, and every
    order known before an enumeration before that enumeration."""
    if n > GROUP_ORDER_CAP:
        raise CapExceeded(f"group order {n} exceeds cap {GROUP_ORDER_CAP}")


def _in_range(a: np.ndarray, n: int) -> bool:
    """Whether `a` holds integers, each in 0..n-1, read in one pass: viewed
    as unsigned, a negative entry is at least half the type's range, which
    no order under the cap reaches."""
    a = np.asarray(a)
    if a.dtype.kind not in "iu":
        return False
    return not a.size or int(a.view(f"u{a.itemsize}").max()) < n


def _blocks(n: int, per_item: int):
    """The slices of range(n) in order, each of at most
    max(1, _CELLS // per_item) items, so that a gather of `per_item`
    entries per item gathers at most `_CELLS` a block, or one item.  Every
    bounded gather is cut here."""
    step = max(1, _CELLS // max(per_item, 1))
    for lo in range(0, n, step):
        yield slice(lo, min(lo + step, n))


def _walk_levels(table: np.ndarray, steps: Sequence[int]
                 ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Breadth-first spanning tree from 0 of the graph x -> table[x, s],
    one level at a time.

    Each level is three arrays of its tree edges, (vertex, parent, step):
    the vertices it reaches first, the parent of each and the index in
    `steps` of the step that reaches it, ordered by step and then by
    vertex.  0 is the root and on no level.  A vertex belongs to the first
    step that reaches it and keeps its first parent in frontier order, so
    the tree is canonical, and the levels concatenated are its discovery
    order.  A level is gathered step-major (all of step 0, then all of
    step 1, ...) in blocks (`_blocks`) of at most `_CELLS`
    (step, frontier vertex) cells, or of one step, and each block is
    resolved by one `np.unique`.  The arrays are read-only.
    """
    steps = np.fromiter(steps, dtype=np.int64)
    seen = np.zeros(table.shape[0], dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    levels = []
    while True:
        f = frontier.size
        edges = []
        for cut in _blocks(steps.size, f):
            t = table[frontier, steps[cut, None]].ravel()
            # positions in t of the vertices seen first here, each vertex
            # at its first position, in increasing order of vertex
            pos = (~seen[t]).nonzero()[0]
            if not pos.size:
                continue
            if pos.size > 1:
                pos = pos[np.unique(t[pos], return_index=True)[1]]
                # by step; the sort is stable, so vertices stay in order
                pos = pos[(pos // f).argsort(kind="stable")]
            reached = t[pos]
            seen[reached] = True
            edges.append((reached, frontier[pos % f], cut.start + pos // f))
        if not edges:
            return levels
        level = tuple(a[0] if len(edges) == 1 else np.concatenate(a)
                      for a in zip(*edges))
        for a in level:
            a.setflags(write=False)
        levels.append(level)
        frontier = level[0]


def _tree_size(levels) -> int:
    """The number of vertices of a walk's tree, the root included."""
    return 1 + sum(v.size for v, _, _ in levels)


def _spread(walk, table, images: Sequence[int], start=0) -> np.ndarray:
    """f(x) = table[f(p), images[i]] for each edge (x, p, i) of `walk`, and
    f(0) = `start`: from 0 along a group's walk, in the target's table, the
    map with those generator images; in `g.table.T` from the generators'
    inverses, the inverses (x^-1 = s^-1.p^-1).  When `start` is an array,
    f(x) is a row, each entry spread from its own start.  A level is
    gathered in blocks (`_blocks`) of edges, its parents all on the level
    above.  Nothing is checked here."""
    start = np.asarray(start, dtype=np.int64)
    images = np.asarray(images, dtype=np.int64).reshape(
        (-1,) + (1,) * start.ndim)
    out = np.empty((_tree_size(walk),) + start.shape, dtype=np.int64)
    out[0] = start
    for v, p, s in walk:
        for cut in _blocks(v.size, start.size):
            out[v[cut]] = table[out[p[cut]], images[s[cut]]]
    return out


def _is_tree(table: np.ndarray, steps: Sequence[int], levels) -> bool:
    """Whether a walk's `levels` hold every element but 0 once, each the
    product of a parent on the level above (0 above the first) and the
    image of its step, as a walk of table over `steps` from 0 does."""
    if not levels:
        return True
    depth = np.full(table.shape[0], -1)
    depth[0] = 0
    for d, (v, _, _) in enumerate(levels, 1):
        depth[v] = d
    v, p, s = (np.concatenate(a) for a in zip(*levels))
    return bool((depth >= 0).all() and (depth[p] == depth[v] - 1).all()
                and (table[p, np.asarray(steps)[s]] == v).all())


def _select_generators(table: np.ndarray, candidates: Sequence[int]
                       ) -> list[int]:
    """The candidates that right multiplication by the candidates kept
    before them does not reach from 0, in order.  In a group the elements
    that the kept ones reach from 0 form the subgroup they generate, so
    each kept candidate is the first not generated by those before it."""
    candidates = np.fromiter(candidates, dtype=np.int64)
    kept: list[int] = []
    reached = np.zeros(table.shape[0], dtype=bool)
    reached[0] = True
    for j, g in enumerate(candidates.tolist()):
        if reached[g]:
            continue
        kept.append(g)
        reached[g] = True
        # The walk stops once every later candidate is reached, so no later
        # candidate is kept: the reached set matters for nothing else.
        later = candidates[j + 1:]
        frontier = reached.nonzero()[0]
        while frontier.size and not reached[later].all():
            fresh = np.zeros(reached.size, dtype=bool)
            fresh[table[frontier[:, None], kept]] = True
            fresh &= ~reached
            reached |= fresh
            frontier = fresh.nonzero()[0]
    return kept


def _light_associative(table: np.ndarray, generators: Sequence[int]) -> bool:
    """Light's associativity test: (ab)g = a(bg) for all a, b and the
    generator images g that `_select_generators` keeps, in O(n^2 k)
    instead of O(n^3).

    The test is exact when 0 is a two-sided identity and right
    multiplication by the generator images reaches every element from 0.
    Let S be the set of c with (ab)c = a(bc) for all a, b.  S contains 0,
    and it is closed under products: for c, d in S,
    (ab)(cd) = ((ab)c)d = (a(bc))d = a((bc)d) = a(b(cd)).  Once the kept
    images are in S, so is every element they reach, every other image
    among them; then so is every element the walk over all the images
    reaches, which is every element.
    """
    for g in _select_generators(table, generators):
        # lhs[a, b] = (ab)g, rhs[a, b] = a(bg)
        column = table[:, g]
        if not np.array_equal(column.take(table), table[:, column]):
            return False
    return True


class RealizedGroup:
    """Finite group materialized as an order x order multiplication table."""

    def __init__(self, name: str, table: np.ndarray,
                 generator_images: Sequence[int],
                 source_presentation: Presentation | None = None,
                 walk=None):
        table = np.asarray(table)
        n = table.shape[0]
        _check_order(n)
        if table.shape != (n, n):
            raise InternalInconsistency("multiplication table is not square")
        # Checked before the narrowing cast, which would wrap such entries.
        if not _in_range(table, n):
            raise InternalInconsistency("table entry out of range")
        self.name = name
        self.order = n
        self.table = table.astype(_table_dtype(n), copy=False)
        self.generator_images = tuple(int(g) for g in generator_images)
        self.source_presentation = source_presentation
        self._bfs(walk)
        self._verify()
        self.table.setflags(write=False)
        self.inverse.setflags(write=False)

    # -- construction internals -------------------------------------------

    def _bfs(self, walk):
        """Keep the breadth-first tree of the Cayley graph as `walk` and
        spread the inverses along it.  The tree must reach every element
        from 0: Light's associativity test in `_verify` rests on that.  It
        is `walk` when the table was built along one (checked edge by
        edge, not trusted), and is walked here otherwise."""
        tab = self.table
        images = self.generator_images
        levels = _walk_levels(tab, images) if walk is None else walk
        if _tree_size(levels) != self.order:
            raise InternalInconsistency(
                f"generator images do not generate {self.name!r}")
        if walk is not None and not _is_tree(tab, images, levels):
            raise InternalInconsistency(
                f"the walk given with {self.name!r} is not a tree of it")
        self.walk = tuple(levels)
        hits = tab[list(images)] == 0
        found = hits.any(axis=1)
        if not found.all():
            s = images[int(np.argmin(found))]
            raise InternalInconsistency(
                f"generator image {s} of {self.name!r} has no inverse")
        self.inverse = _spread(self.walk, tab.T, hits.argmax(axis=1)
                               ).astype(self.table.dtype)

    @functools.cached_property
    def element_words(self) -> tuple[Word, ...]:
        """Canonical word of each element along the Cayley-graph walk."""
        # A repeated image reaches nothing new, so each element's letter is
        # the first generator with that image.
        letters = [Word.gen(i) for i in range(len(self.generator_images))]
        words = [Word()] * self.order
        for v, p, s in self.walk:
            for x, y, i in zip(v.tolist(), p.tolist(), s.tolist()):
                words[x] = words[y] * letters[i]
        return tuple(words)

    def _verify(self):
        n = self.order
        tab = self.table
        ar = np.arange(n)
        if not (np.array_equal(tab[0], ar) and np.array_equal(tab[:, 0], ar)):
            raise InternalInconsistency("index 0 is not a two-sided identity")
        if not (tab[ar, self.inverse] == 0).all():
            raise InternalInconsistency("inverse array is wrong")
        if n <= _ASSOC_CHECK_MAX and not _light_associative(
                tab, self.generator_images):
            raise InternalInconsistency("associativity fails")

    # -- element arithmetic ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conj(self, x: int, by: int) -> int:
        """Right conjugation x^by = by^-1 * x * by."""
        t = self.table
        return int(t[t[self.inverse[by], x], by])

    def power(self, x: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(x), -k)
        out, base = 0, x
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def evaluate(self, w: Word) -> int:
        """Evaluate a word over the generator images."""
        out = 0
        for g, e in w.letters:
            out = self.mul(out, self.power(self.generator_images[g], e))
        return out

    def element_orders(self) -> np.ndarray:
        identity = np.zeros(self.order, dtype=bool)
        identity[0] = True
        return _orders_modulo(self, np.arange(self.order), identity)

    def exponent(self) -> int:
        return int(np.lcm.reduce(self.element_orders()))

    def is_abelian(self) -> bool:
        """Decided on the generators, which commute pairwise exactly when
        the group they generate is abelian."""
        gens = np.asarray(self.generator_images, dtype=np.int64)
        products = self.table[np.ix_(gens, gens)]
        return bool(np.array_equal(products, products.T))

    def element_str(self, x: int) -> str:
        if self.source_presentation is not None:
            return self.source_presentation.word_str(self.element_words[x])
        return f"e{x}"

    def abelianization(self) -> AbelianInvariants:
        """Invariant factors of G/G': the cokernel of the relation matrix
        when G has a presentation, else the section G/G' of the table."""
        if self.source_presentation is not None:
            return presentation_invariants(self.source_presentation)
        whole = Subgroup(self, tuple(range(self.order)))
        return section_invariants(whole, derived_subgroup(self))

    def __repr__(self):
        return f"RealizedGroup({self.name!r}, order={self.order})"


def presentation_invariants(p: Presentation) -> AbelianInvariants:
    """Invariant factors of the abelianization of a presented group: the
    cokernel of its relators' exponent rows."""
    rows = [w.exponent_row(p.ngens) for w in p.relators]
    return abelian_invariants(rows, ncols=p.ngens)


def _orders_modulo(g: RealizedGroup, xs: np.ndarray,
                   inside: np.ndarray) -> np.ndarray:
    """For each x in xs, the least k >= 1 with x^k in the set that the
    boolean mask `inside` marks: the order of x modulo that set."""
    orders = np.zeros(xs.size, dtype=np.int64)
    cur = xs.astype(np.int64)
    alive = np.ones(xs.size, dtype=bool)
    k = 1
    while True:
        done = alive & inside[cur]
        orders[done] = k
        alive &= ~done
        if not alive.any():
            return orders
        cur = g.table[cur, xs].astype(np.int64)
        k += 1


# -- subgroups --------------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a realized group, stored as its sorted members."""

    parent: RealizedGroup
    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    def members_array(self) -> np.ndarray:
        return np.fromiter(self.members, dtype=np.int64, count=self.order)

    def is_normal(self) -> bool:
        """Decided on the parent's generator images: the subgroup is
        finite, so conjugation by one maps it into itself exactly when it
        maps it onto itself, and then so does conjugation by its inverse."""
        g = self.parent
        mem = self.members_array()
        inside = np.zeros(g.order, dtype=bool)
        inside[mem] = True
        gens = np.asarray(g.generator_images, dtype=np.int64)
        return bool(inside[_conjugates(g, gens, mem)].all())

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name!r})"


def _conjugates(g: RealizedGroup, by: np.ndarray, xs: np.ndarray
                ) -> np.ndarray:
    """x^y = y^-1 x y for y in the 1-d array `by` and x in the array `xs`
    of any shape, indexed [y, *x]."""
    y = by.reshape(by.shape + (1,) * np.ndim(xs))
    return g.table[g.table[g.inverse[y], xs], y].astype(np.int64)


def _commutators(g: RealizedGroup, a: np.ndarray, b: np.ndarray
                 ) -> np.ndarray:
    """The commutators [x, y] = x^-1 y^-1 x y, indexed [x, y], for x in
    `a` and y in `b`."""
    tab, inv = g.table, g.inverse
    return tab[tab[inv[a][:, None], inv[b][None, :]],
               tab[a[:, None], b[None, :]]]


def closure(parent: RealizedGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the given element indices: the
    vertices of the walk from 0 over their distinct values."""
    gens = list(dict.fromkeys(int(g) for g in gens))
    for g in gens:
        if not 0 <= g < parent.order:
            raise InternalInconsistency(f"element index {g} out of range")
    inside = np.zeros(parent.order, dtype=bool)
    inside[0] = True
    for v, _, _ in _walk_levels(parent.table, gens):
        inside[v] = True
    return Subgroup(parent, tuple(inside.nonzero()[0].tolist()))


def derived_subgroup(g: RealizedGroup) -> Subgroup:
    """Commutator subgroup [G, G]."""
    whole = Subgroup(g, tuple(range(g.order)))
    return commutator_subgroup(whole, whole)


def commutator_subgroup(m: Subgroup, n: Subgroup) -> Subgroup:
    """Subgroup generated by commutators [x, y], x in m, y in n."""
    g = _same_parent(m, n)
    a, b = m.members_array(), n.members_array()
    hit = np.zeros(g.order, dtype=bool)
    for cut in _blocks(a.size, b.size):
        hit[_commutators(g, a[cut], b)] = True
    return closure(g, hit.nonzero()[0])


def intersection(m: Subgroup, n: Subgroup) -> Subgroup:
    g = _same_parent(m, n)
    return Subgroup(g, tuple(sorted(set(m.members) & set(n.members))))


def _same_parent(m: Subgroup, n: Subgroup) -> RealizedGroup:
    if m.parent is not n.parent:
        raise MixedParents("subgroups do not share a parent group")
    return m.parent


def subgroup_exponent(s: Subgroup) -> int:
    return int(np.lcm.reduce(s.parent.element_orders()[s.members_array()]))


def section_invariants(outer: Subgroup, inner: Subgroup) -> AbelianInvariants:
    """Invariant factors of the abelian section outer/inner, for two
    subgroups of one parent.

    inner must lie in outer and hold every commutator of two members of
    outer.  That one check proves inner normal in outer and outer/inner
    abelian; it raises InternalInconsistency when it fails.  The factors
    are then read off the counts of the cosets whose order divides p^k,
    prime by prime.
    """
    g = _same_parent(outer, inner)
    a = outer.members_array()
    in_outer = np.zeros(g.order, dtype=bool)
    in_outer[a] = True
    in_inner = np.zeros(g.order, dtype=bool)
    in_inner[inner.members_array()] = True
    if not in_outer[in_inner].all():
        raise InternalInconsistency("inner subgroup is not contained in outer")
    for cut in _blocks(a.size, a.size):
        if not in_inner[_commutators(g, a[cut], a)].all():
            raise InternalInconsistency(
                f"section of order {outer.order} over {inner.order} in "
                f"{g.name!r} is not abelian")
    n = outer.order // inner.order
    if n == 1:
        return AbelianInvariants(())
    orders = _orders_modulo(g, a, in_inner)
    primes = []
    rem, p = n, 2
    while p * p <= rem:
        if rem % p == 0:
            primes.append(p)
            while rem % p == 0:
                rem //= p
        p += 1
    if rem > 1:
        primes.append(rem)
    # ranks[p][k - 1]: the number of cyclic p-factors of order >= p^k.  The
    # members whose coset order divides p^k number |inner| * p^(r_1+...+r_k).
    ranks: dict[int, list[int]] = {}
    for p in primes:
        ranks[p] = []
        below, pk = inner.order, p
        while (count := int(np.sum(pk % orders == 0))) != below:
            r, m = 0, count // below
            while m > 1:
                m //= p
                r += 1
            ranks[p].append(r)
            below, pk = count, pk * p
    width = max(rs[0] for rs in ranks.values())
    return AbelianInvariants(tuple(sorted(
        prod(p ** sum(r > i for r in rs) for p, rs in ranks.items())
        for i in range(width))))


def subgroup_as_group(s: Subgroup) -> tuple[RealizedGroup, "Homomorphism"]:
    """Realize a subgroup as a group of its own, with the inclusion map.
    Its generators are the members that `_select_generators` keeps in
    increasing order, each one not generated by those before it."""
    mem = s.members_array()
    tab = s.parent.table[np.ix_(mem, mem)].astype(np.int64)
    local = np.searchsorted(mem, tab)
    grp = RealizedGroup(f"{s.parent.name}|sub{s.order}", local,
                        _select_generators(local, range(s.order)))
    incl = Homomorphism(grp, s.parent, mem)
    return grp, incl


# -- homomorphisms -----------------------------------------------------------


class Homomorphism:
    """Map between realized groups given per-element; verified exhaustively."""

    def __init__(self, source: RealizedGroup, target: RealizedGroup,
                 images: Sequence[int] | np.ndarray):
        self.source = source
        self.target = target
        self.images = np.asarray(images, dtype=np.int64)
        self.images.setflags(write=False)
        if self.images.shape != (source.order,):
            raise InternalInconsistency("image array has the wrong length")
        if self.images[0] != 0:
            raise InternalInconsistency("identity does not map to identity")
        if self.images.size and (self.images.min() < 0
                                 or self.images.max() >= target.order):
            raise InternalInconsistency("image out of range")
        self._verify()

    def _verify(self):
        n = self.source.order
        ts, tt = self.source.table, self.target.table
        img = self.images
        for cut in _blocks(n, n):
            # img(xy) against img(x)img(y), for the x of one block
            lhs = img[ts[cut]]
            rhs = tt[img[cut, None], img[None, :]]
            if not np.array_equal(lhs, rhs):
                raise InternalInconsistency(
                    f"map {self.source.name!r} -> {self.target.name!r} "
                    "is not a homomorphism")

    def kernel(self) -> Subgroup:
        """Kernel subgroup; its normality is re-verified."""
        sub = Subgroup(self.source,
                       tuple(np.flatnonzero(self.images == 0).tolist()))
        if not sub.is_normal():
            raise InternalInconsistency("kernel fails the normality scan")
        return sub

    def image_members(self) -> tuple[int, ...]:
        hit = np.zeros(self.target.order, dtype=bool)
        hit[self.images] = True
        return tuple(hit.nonzero()[0].tolist())

    def is_injective(self) -> bool:
        return len(self.image_members()) == self.source.order

    def __repr__(self):
        return (f"Homomorphism({self.source.name!r} -> "
                f"{self.target.name!r})")
