"""Realized finite groups: multiplication tables, subgroups, homomorphisms.

Elements are dense indices 0..order-1 with 0 the identity, so products are
O(1) table lookups and every axiom stays exhaustively checkable at desk
scale.  Associativity is certified by Light's test, on the generator images
alone, in O(n^2 k) rather than O(n^3).  Element words are read off the
Cayley-graph walk on first use; a group that is only checked never builds
them.  All values are immutable after construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .abelian import AbelianInvariants, abelian_invariants
from .errors import (CapExceeded, InternalInconsistency, MixedParents,
                     NotNormal)
from .words import Presentation, Word

GROUP_ORDER_CAP = 20_000

_ASSOC_CHECK_MAX = 256
_BLOCK = 256


def _table_dtype(order: int):
    return np.int16 if order <= np.iinfo(np.int16).max else np.int32


def _walk(table: np.ndarray, steps: Sequence[int]
          ) -> list[tuple[int, int, int]]:
    """Breadth-first spanning tree from 0 of the graph x -> table[x, s].

    Returns the tree's edges in discovery order as (vertex, parent, index
    in `steps` of the step that reached it); 0 is the root and has none.
    Each level is expanded step by step; the vertices a step reaches first
    join the next level in increasing order, and each keeps its first
    parent in frontier order, so the tree is canonical.
    """
    n = table.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    parent = np.zeros(n, dtype=np.int64)
    via = np.zeros(n, dtype=np.int64)
    frontier = np.zeros(1, dtype=np.int64)
    levels = []
    while frontier.size:
        batches = []
        for i, s in enumerate(steps):
            t = table[frontier, s].astype(np.int64)
            fresh = ~seen[t]
            if not fresh.any():
                continue
            reached, first = np.unique(t[fresh], return_index=True)
            seen[reached] = True
            parent[reached] = frontier[fresh][first]
            via[reached] = i
            batches.append(reached)
        frontier = (np.concatenate(batches) if batches
                    else np.zeros(0, dtype=np.int64))
        levels.append(frontier)
    order = np.concatenate(levels)
    return list(zip(order.tolist(), parent[order].tolist(),
                    via[order].tolist()))


def _light_associative(table: np.ndarray, generators: Sequence[int]) -> bool:
    """Light's associativity test: (ab)g = a(bg) for all a, b and every
    distinct generator image g, in O(n^2 k) instead of O(n^3).

    The test is exact when 0 is a two-sided identity and right
    multiplication by the generator images reaches every element from 0.
    Let S be the set of c with (ab)c = a(bc) for all a, b.  S contains 0,
    and it is closed under products: for c, d in S,
    (ab)(cd) = ((ab)c)d = (a(bc))d = a((bc)d) = a(b(cd)).  So once every
    generator image is in S, every element the walk reaches as p*g is in S.
    """
    for g in dict.fromkeys(generators):
        # lhs[a, b] = (ab)g, rhs[a, b] = a(bg)
        if not np.array_equal(table[table, g], table[:, table[:, g]]):
            return False
    return True


class RealizedGroup:
    """Finite group materialized as an order x order multiplication table."""

    def __init__(self, name: str, table: np.ndarray,
                 generator_images: Sequence[int],
                 source_presentation: Presentation | None = None):
        table = np.asarray(table)
        n = table.shape[0]
        if n > GROUP_ORDER_CAP:
            raise CapExceeded(
                f"group order {n} exceeds the hard cap {GROUP_ORDER_CAP}")
        if table.shape != (n, n):
            raise InternalInconsistency("multiplication table is not square")
        # Checked before the narrowing cast, which would wrap such entries.
        if n and (table.min() < 0 or table.max() >= n):
            raise InternalInconsistency("table entry out of range")
        self.name = name
        self.order = n
        self.table = table.astype(_table_dtype(n), copy=False)
        self.generator_images = tuple(int(g) for g in generator_images)
        self.source_presentation = source_presentation
        self._bfs()
        self._verify()
        self.table.setflags(write=False)
        self.inverse.setflags(write=False)

    # -- construction internals -------------------------------------------

    def _bfs(self):
        """Inverses along the Cayley-graph walk, which must reach every
        element from 0: Light's associativity test in `_verify` rests on
        that.  The words along the same walk are built on first use, by
        `element_words`."""
        tab = self.table
        tree = _walk(tab, self.generator_images)
        if len(tree) + 1 != self.order:
            raise InternalInconsistency(
                f"generator images do not generate {self.name!r}")
        inv_step = []
        for s in self.generator_images:
            hits = np.nonzero(tab[s] == 0)[0]
            if not hits.size:
                raise InternalInconsistency(
                    f"generator image {s} of {self.name!r} has no inverse")
            inv_step.append(int(hits[0]))
        inv = np.zeros(self.order, dtype=np.int64)
        for x, p, i in tree:
            inv[x] = tab[inv_step[i], inv[p]]
        self.inverse = inv.astype(self.table.dtype)

    @functools.cached_property
    def element_words(self) -> tuple[Word, ...]:
        """Canonical word of each element along the Cayley-graph walk."""
        # A repeated image reaches nothing new, so each element's letter is
        # the first generator with that image.
        words = [Word()] * self.order
        for x, p, i in _walk(self.table, self.generator_images):
            words[x] = words[p] * Word.gen(i)
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

    def comm(self, a: int, b: int) -> int:
        """Commutator [a, b] = a^-1 b^-1 a b."""
        t = self.table
        return int(t[t[self.inverse[a], self.inverse[b]], t[a, b]])

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

    def evaluate(self, w: Word, images: Sequence[int] | None = None) -> int:
        """Evaluate a word over the generators (or over explicit images)."""
        imgs = self.generator_images if images is None else images
        out = 0
        for g, e in w.letters:
            out = self.mul(out, self.power(imgs[g], e))
        return out

    def element_orders(self) -> np.ndarray:
        n = self.order
        orders = np.zeros(n, dtype=np.int64)
        ar = np.arange(n)
        cur = ar.copy()
        k = 1
        alive = np.ones(n, dtype=bool)
        while alive.any():
            done = alive & (cur == 0)
            orders[done] = k
            alive &= ~done
            if not alive.any():
                break
            cur = self.table[cur, ar].astype(np.int64)
            k += 1
        return orders

    def exponent(self) -> int:
        return int(lcm(*map(int, np.unique(self.element_orders()))))

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
        """Invariant factors of G/G'."""
        p = self.source_presentation
        if p is not None:
            rows = [w.exponent_row(p.ngens) for w in p.relators]
            return abelian_invariants(rows, ncols=p.ngens)
        if self.is_abelian():
            return abelian_structure(self)
        q, _ = quotient(self, derived_subgroup(self))
        return abelian_structure(q)

    def __repr__(self):
        return f"RealizedGroup({self.name!r}, order={self.order})"


def trivial_group(name: str = "1") -> RealizedGroup:
    return RealizedGroup(name, np.zeros((1, 1), dtype=np.int16), ())


def abelian_structure(g: RealizedGroup) -> AbelianInvariants:
    """Invariant factors of a finite abelian realized group, read off the
    counts of solutions of x^(p^k) = 1 prime by prime."""
    if not g.is_abelian():
        raise InternalInconsistency(f"{g.name!r} is not abelian")
    n = g.order
    if n == 1:
        return AbelianInvariants(())
    orders = g.element_orders()
    exps_by_prime: dict[int, list[int]] = {}
    rem = n
    p = 2
    primes = []
    while p * p <= rem:
        if rem % p == 0:
            primes.append(p)
            while rem % p == 0:
                rem //= p
        p += 1
    if rem > 1:
        primes.append(rem)
    for p in primes:
        counts = [1]
        pk = p
        while True:
            c = int(np.sum(pk % orders == 0))
            counts.append(c)
            if c == counts[-2]:
                counts.pop()
                break
            pk *= p
        ranks = []
        for k in range(1, len(counts)):
            m = counts[k] // counts[k - 1]
            r = 0
            while m > 1:
                m //= p
                r += 1
            ranks.append(r)  # number of cyclic p-factors of order >= p^k
        exps = []
        for k, r in enumerate(ranks, start=1):
            nxt = ranks[k] if k < len(ranks) else 0
            exps.extend([k] * (r - nxt))
        exps_by_prime[p] = sorted(exps, reverse=True)
    width = max(len(v) for v in exps_by_prime.values())
    factors = []
    for i in range(width):
        f = 1
        for p, exps in exps_by_prime.items():
            if i < len(exps):
                f *= p ** exps[i]
        factors.append(f)
    return AbelianInvariants(tuple(sorted(factors)))


# -- subgroups --------------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a realized group, stored as its sorted members."""

    parent: RealizedGroup
    members: tuple[int, ...]
    generators: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    def members_array(self) -> np.ndarray:
        return np.fromiter(self.members, dtype=np.int64, count=self.order)

    def is_normal(self) -> bool:
        g = self.parent
        n = g.order
        tab = g.table
        mem = self.members_array()
        inner = tab[g.inverse.astype(np.int64)[:, None], mem[None, :]]
        conj = tab[inner, np.arange(n)[:, None]]
        return bool(np.isin(conj, mem).all())

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name!r})"


def _closure_set(parent: RealizedGroup, gens: Iterable[int]) -> list[int]:
    return sorted([0] + [x for x, _, _ in _walk(parent.table, list(gens))])


def _greedy_generators(parent: RealizedGroup,
                       members: Sequence[int]) -> tuple[int, ...]:
    """Small deterministic generating sequence for a known subgroup."""
    gens: list[int] = []
    have = {0}
    for x in members:
        if x not in have:
            gens.append(int(x))
            have = set(_closure_set(parent, gens))
            if len(have) == len(members):
                break
    return tuple(gens)


def closure(parent: RealizedGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the given element indices."""
    gens = [int(g) for g in gens]
    for g in gens:
        if not 0 <= g < parent.order:
            raise InternalInconsistency(f"element index {g} out of range")
    members = _closure_set(parent, gens)
    return Subgroup(parent, tuple(members),
                    _greedy_generators(parent, members))


def subgroup_from_members(parent: RealizedGroup,
                          members: Iterable[int]) -> Subgroup:
    """Wrap an already-closed member set (closedness is re-verified)."""
    mem = sorted({int(x) for x in members} | {0})
    arr = np.fromiter(mem, dtype=np.int64, count=len(mem))
    prods = parent.table[np.ix_(arr, arr)]
    if not np.isin(prods, arr).all():
        raise InternalInconsistency("member set is not product-closed")
    return Subgroup(parent, tuple(mem), _greedy_generators(parent, mem))


def derived_subgroup(g: RealizedGroup) -> Subgroup:
    """Commutator subgroup, from the closure of all pairwise commutators."""
    n = g.order
    tab = g.table
    inv = g.inverse.astype(np.int64)
    ar = np.arange(n)
    comms: set[int] = set()
    for lo in range(0, n, _BLOCK):
        blk = ar[lo:lo + _BLOCK]
        t1 = tab[inv[blk][:, None], inv[None, :]]
        t2 = tab[blk[:, None], ar[None, :]]
        comms.update(np.unique(tab[t1, t2]).tolist())
    members = _closure_set(g, comms)
    return Subgroup(g, tuple(members), _greedy_generators(g, members))


def commutator_subgroup(m: Subgroup, n: Subgroup) -> Subgroup:
    """Subgroup generated by commutators [x, y], x in m, y in n."""
    g = _same_parent(m, n)
    a = m.members_array()
    b = n.members_array()
    inv = g.inverse.astype(np.int64)
    t1 = g.table[inv[a][:, None], inv[b][None, :]]
    t2 = g.table[a[:, None], b[None, :]]
    comms = np.unique(g.table[t1, t2]).tolist()
    members = _closure_set(g, comms)
    return Subgroup(g, tuple(members), _greedy_generators(g, members))


def intersection(m: Subgroup, n: Subgroup) -> Subgroup:
    g = _same_parent(m, n)
    members = sorted(set(m.members) & set(n.members))
    return Subgroup(g, tuple(members), _greedy_generators(g, members))


def _same_parent(m: Subgroup, n: Subgroup) -> RealizedGroup:
    if m.parent is not n.parent:
        raise MixedParents("subgroups do not share a parent group")
    return m.parent


def subgroup_exponent(s: Subgroup) -> int:
    orders = s.parent.element_orders()[s.members_array()]
    return int(lcm(*map(int, np.unique(orders))))


def kernel(h: "Homomorphism") -> Subgroup:
    """Kernel subgroup; normality is re-verified exhaustively."""
    members = np.nonzero(h.images == 0)[0].tolist()
    sub = Subgroup(h.source, tuple(int(x) for x in members),
                   _greedy_generators(h.source, members))
    if not sub.is_normal():
        raise InternalInconsistency("kernel fails the normality scan")
    return sub


def quotient(parent: RealizedGroup,
             n: Subgroup) -> tuple[RealizedGroup, "Homomorphism"]:
    """Quotient by a normal subgroup, with the projection map."""
    if n.parent is not parent:
        raise MixedParents("subgroup belongs to a different parent")
    if not n.is_normal():
        raise NotNormal(
            f"subgroup of order {n.order} is not normal in {parent.name!r}")
    tab = parent.table
    mem = n.members_array()
    labels = tab[:, mem].min(axis=1).astype(np.int64)
    reps = np.unique(labels)
    label_idx = np.searchsorted(reps, labels)
    sub = tab[np.ix_(reps, reps)].astype(np.int64)
    qtab = np.searchsorted(reps, labels[sub])
    qname = f"{parent.name}/{n.order}"
    q = RealizedGroup(qname, qtab,
                      [int(label_idx[g]) for g in parent.generator_images])
    if q.order * n.order != parent.order:
        raise InternalInconsistency("coset count times subgroup order "
                                    "does not match the parent order")
    proj = Homomorphism(parent, q, label_idx)
    return q, proj


def subgroup_as_group(s: Subgroup) -> tuple[RealizedGroup, "Homomorphism"]:
    """Realize a subgroup as a group of its own, with the inclusion map."""
    mem = s.members_array()
    tab = s.parent.table[np.ix_(mem, mem)].astype(np.int64)
    local = np.searchsorted(mem, tab)
    gens = np.searchsorted(mem, np.fromiter(s.generators, dtype=np.int64,
                                            count=len(s.generators)))
    grp = RealizedGroup(f"{s.parent.name}|sub{s.order}", local,
                        [int(g) for g in gens])
    incl = Homomorphism(grp, s.parent, mem)
    return grp, incl


def subgroup_quotient(outer: Subgroup, inner: Subgroup
                      ) -> tuple[RealizedGroup, "Homomorphism", RealizedGroup]:
    """Realize outer/inner for inner <= outer <= parent.

    Returns (quotient, projection from the realized outer, realized outer).
    """
    g = _same_parent(outer, inner)
    if not set(inner.members) <= set(outer.members):
        raise InternalInconsistency("inner subgroup is not contained in outer")
    outer_grp, _ = subgroup_as_group(outer)
    mem = outer.members_array()
    inner_local = np.searchsorted(mem, inner.members_array()).tolist()
    inner_sub = Subgroup(outer_grp, tuple(int(x) for x in inner_local),
                         _greedy_generators(outer_grp, inner_local))
    q, proj = quotient(outer_grp, inner_sub)
    return q, proj, outer_grp


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
        for lo in range(0, n, _BLOCK):
            blk = np.arange(lo, min(lo + _BLOCK, n))
            lhs = img[ts[blk].astype(np.int64)]
            rhs = tt[img[blk][:, None], img[None, :]]
            if not np.array_equal(lhs, rhs):
                raise InternalInconsistency(
                    f"map {self.source.name!r} -> {self.target.name!r} "
                    "is not a homomorphism")

    def __call__(self, x: int) -> int:
        return int(self.images[x])

    def kernel(self) -> Subgroup:
        return kernel(self)

    def image_members(self) -> tuple[int, ...]:
        return tuple(int(x) for x in np.unique(self.images))

    def is_injective(self) -> bool:
        return len(np.unique(self.images)) == self.source.order

    def __repr__(self):
        return (f"Homomorphism({self.source.name!r} -> "
                f"{self.target.name!r})")
