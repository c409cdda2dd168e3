"""Todd-Coxeter coset enumeration and the regular representation.

The strategy is HLT with row filling, in-place coincidence processing on a
union-find over cosets, and a vectorized lookahead pass that traces every
relator at every live coset.  A presentation may mark a leading block of
relators as "defining"; the defining block drives coset definitions and the
lookahead pass enforces the full relator list, merging any cosets a
non-defining relator identifies.  The returned table is therefore always
closed under *all* relators at *all* cosets, independent of the hint.

Definitions use the first undefined entry in row-major order, so identical
inputs give identical tables and stats.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExceeded, CapExceeded, IncompleteTable,
                     InternalInconsistency)
from .groups import GROUP_ORDER_CAP, RealizedGroup, _table_dtype, _walk
from .words import Presentation, Word

DEFAULT_MAX_COSETS = 2_000_000


@dataclass(frozen=True)
class EnumerationBudget:
    max_cosets: int = DEFAULT_MAX_COSETS
    max_time_ms: int | None = None

    def __post_init__(self):
        if self.max_cosets <= 0:
            raise ValueError("max_cosets must be positive")
        if self.max_time_ms is not None and self.max_time_ms <= 0:
            raise ValueError("max_time_ms must be positive")

    def cosets_exhausted(self, stats: "EnumerationStats") -> BudgetExceeded:
        """The error for an enumeration that defined more than
        `max_cosets` cosets."""
        return BudgetExceeded(
            f"coset budget {self.max_cosets} exhausted "
            "(possible infinite group or undersized budget)", stats=stats)


def default_budget() -> EnumerationBudget:
    """Budget from the environment; NTL_MAX_COSETS overrides the default."""
    env = os.environ.get("NTL_MAX_COSETS")
    if env:
        return EnumerationBudget(max_cosets=int(env))
    return EnumerationBudget()


@dataclass
class EnumerationStats:
    cosets_defined: int = 0
    cosets_final: int = 0
    coincidences: int = 0
    elapsed_ms: int = 0


@dataclass(frozen=True)
class CosetTable:
    """Complete coset table; row 0 is the subgroup coset, columns alternate
    generator and inverse-generator images."""

    rows: np.ndarray
    coset_count: int
    complete: bool
    presentation: Presentation

    def __post_init__(self):
        self.rows.setflags(write=False)


def word_letters(w: Word) -> tuple[int, ...]:
    """Flatten a word into column letters: 2g for g, 2g+1 for g^-1."""
    out: list[int] = []
    for g, e in w.letters:
        if e > 0:
            out.extend([2 * g] * e)
        else:
            out.extend([2 * g + 1] * (-e))
    return tuple(out)


def _dedup(seqs) -> list[tuple[int, ...]]:
    seen = set()
    out = []
    for s in seqs:
        if s and s not in seen:
            seen.add(s)
            out.append(s)
    return out


class _Enumerator:
    def __init__(self, p: Presentation, subgroup_words, budget, defining):
        self.width = 2 * p.ngens
        all_letters = [word_letters(w) for w in p.relators]
        if defining is None:
            defining = len(all_letters)
        self.defining = _dedup(all_letters[:defining])
        rest = [s for s in _dedup(all_letters[defining:])
                if s not in set(self.defining)]
        self.all_relators = self.defining + rest
        self.subgroup_letters = _dedup([word_letters(w)
                                        for w in subgroup_words])
        self.budget = budget
        self.t0 = time.monotonic()
        self.tab: list[list[int]] = [[-1] * self.width]
        self.uf: list[int] = [0]
        self.n_defined = 1
        self.n_alive = 1
        self.n_coincidences = 0

    # -- low-level ----------------------------------------------------------

    def _find(self, c: int) -> int:
        uf = self.uf
        r = c
        while uf[r] != r:
            r = uf[r]
        while uf[c] != r:
            uf[c], c = r, uf[c]
        return r

    def _check_budget(self):
        if self.n_defined > self.budget.max_cosets:
            raise self.budget.cosets_exhausted(self._stats())
        limit = self.budget.max_time_ms
        if limit is not None and self.n_defined % 1024 == 0:
            if (time.monotonic() - self.t0) * 1000 > limit:
                raise BudgetExceeded(
                    f"time budget {limit} ms exhausted", stats=self._stats())

    def _define(self, alpha: int, x: int) -> int:
        beta = len(self.tab)
        row = [-1] * self.width
        row[x ^ 1] = alpha
        self.tab.append(row)
        self.uf.append(beta)
        self.tab[alpha][x] = beta
        self.n_defined += 1
        self.n_alive += 1
        self._check_budget()
        return beta

    def _merge(self, a: int, b: int, queue: list[int]):
        fa, fb = self._find(a), self._find(b)
        if fa == fb:
            return
        if fa > fb:
            fa, fb = fb, fa
        self.uf[fb] = fa
        queue.append(fb)
        self.n_alive -= 1
        self.n_coincidences += 1

    def _coincidence(self, a: int, b: int):
        queue: list[int] = []
        self._merge(a, b, queue)
        tab = self.tab
        qi = 0
        while qi < len(queue):
            gamma = queue[qi]
            qi += 1
            row = tab[gamma]
            for x in range(self.width):
                delta = row[x]
                if delta < 0:
                    continue
                tab[delta][x ^ 1] = -1
                mu = self._find(gamma)
                nu = self._find(delta)
                if tab[mu][x] >= 0:
                    self._merge(nu, tab[mu][x], queue)
                elif tab[nu][x ^ 1] >= 0:
                    self._merge(mu, tab[nu][x ^ 1], queue)
                else:
                    tab[mu][x] = nu
                    tab[nu][x ^ 1] = mu

    def _scan_and_fill(self, alpha: int, w: tuple[int, ...]):
        tab = self.tab
        i, j = 0, len(w) - 1
        f = b = alpha
        while True:
            while i <= j:
                d = tab[f][w[i]]
                if d < 0:
                    break
                f = d
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i:
                d = tab[b][w[j] ^ 1]
                if d < 0:
                    break
                b = d
                j -= 1
            if j < i:
                self._coincidence(f, b)
                return
            if j == i:
                tab[f][w[i]] = b
                tab[b][w[i] ^ 1] = f
                return
            self._define(f, w[i])

    # -- phases --------------------------------------------------------------

    def _hlt_pass(self):
        uf = self.uf
        alpha = 0
        while alpha < len(self.tab):
            if uf[alpha] != alpha:
                alpha += 1
                continue
            for w in self.defining:
                self._scan_and_fill(alpha, w)
                if uf[alpha] != alpha:
                    break
            if uf[alpha] == alpha:
                row = self.tab[alpha]
                for x in range(self.width):
                    if row[x] < 0:
                        self._define(alpha, x)
            alpha += 1

    def _compress(self):
        total = len(self.tab)
        uf = self.uf
        live = np.fromiter((c for c in range(total) if uf[c] == c),
                           dtype=np.int64)
        n = live.size
        renum = np.full(total, -1, dtype=np.int64)
        renum[live] = np.arange(n)
        raw = np.array([self.tab[int(c)] for c in live], dtype=np.int64)
        if raw.size and raw.min() < 0:
            raise InternalInconsistency("incomplete row after HLT pass")
        cols = renum[raw].T.copy() if raw.size else np.zeros(
            (self.width, n), dtype=np.int64)
        if cols.size and cols.min() < 0:
            raise InternalInconsistency("live row references a dead coset")
        return live, cols

    def _find_violation(self, cols, n):
        for w in self.subgroup_letters:
            c = 0
            for letter in w:
                c = int(cols[letter][c])
            if c != 0:
                return np.array([0]), np.array([c])
        ar = np.arange(n)
        for w in self.all_relators:
            v = ar
            for letter in w:
                v = cols[letter][v]
            bad = np.nonzero(v != ar)[0]
            if bad.size:
                return bad, v[bad]
        return None

    def run(self):
        for w in self.subgroup_letters:
            self._scan_and_fill(0, w)
        while True:
            self._hlt_pass()
            live, cols = self._compress()
            hit = self._find_violation(cols, live.size)
            if hit is None:
                break
            src, dst = hit
            for a, b in zip(src.tolist(), dst.tolist()):
                self._coincidence(self._find(int(live[a])),
                                  self._find(int(live[b])))
        n = live.size
        rows = cols.T.astype(np.int32).copy()
        return rows, n, self._stats(final=n)

    def _stats(self, final: int | None = None) -> EnumerationStats:
        return EnumerationStats(
            cosets_defined=self.n_defined,
            cosets_final=self.n_alive if final is None else final,
            coincidences=self.n_coincidences,
            elapsed_ms=int((time.monotonic() - self.t0) * 1000))


def _both_attempts(first: EnumerationStats,
                   last: EnumerationStats) -> EnumerationStats:
    return EnumerationStats(
        cosets_defined=first.cosets_defined + last.cosets_defined,
        cosets_final=last.cosets_final,
        coincidences=first.coincidences + last.coincidences,
        elapsed_ms=first.elapsed_ms + last.elapsed_ms)


def enumerate_cosets(p: Presentation,
                     subgroup_words: tuple[Word, ...] = (),
                     budget: EnumerationBudget | None = None,
                     defining_count: int | None = None,
                     ) -> tuple[CosetTable, EnumerationStats]:
    """Enumerate cosets of <subgroup_words> in the presented group.

    `defining_count` marks how many leading relators drive definitions; all
    relators are enforced regardless.  Raises BudgetExceeded rather than
    ever returning a truncated table.
    """
    if budget is None:
        budget = default_budget()
    for w in subgroup_words:
        if w.max_generator() >= p.ngens:
            raise InternalInconsistency("subgroup word out of range")
    try:
        rows, n, stats = _Enumerator(p, subgroup_words, budget,
                                     defining_count).run()
    except BudgetExceeded as first:
        if defining_count is None or defining_count >= len(p.relators):
            raise
        # The defining hint may present a larger (even infinite) group;
        # retry once with every relator driving definitions.  The stats,
        # returned or raised, count the work of both attempts.
        try:
            rows, n, stats = _Enumerator(p, subgroup_words, budget,
                                         None).run()
        except BudgetExceeded as exc:
            exc.stats = exc.details["stats"] = _both_attempts(first.stats,
                                                              exc.stats)
            raise
        stats = _both_attempts(first.stats, stats)
    table = CosetTable(rows=rows, coset_count=n, complete=True,
                       presentation=p)
    return table, stats


def regular_representation(t: CosetTable, p: Presentation) -> RealizedGroup:
    """Turn the coset table of the trivial subgroup into a realized group."""
    if not t.complete:
        raise IncompleteTable("cannot realize a partial coset table")
    n = t.coset_count
    if n > GROUP_ORDER_CAP:
        raise CapExceeded(f"group order {n} exceeds cap {GROUP_ORDER_CAP}")
    ngens = p.ngens
    cols = t.rows
    for w in p.relators:
        c = 0
        for letter in word_letters(w):
            c = int(cols[c, letter])
        if c != 0:
            raise InternalInconsistency("relator open at the identity coset")
    # Breadth-first spanning tree over the positive generator columns.
    tree = _walk(cols, range(0, 2 * ngens, 2))
    if len(tree) + 1 != n:
        raise InternalInconsistency("coset table is not transitive")
    # left[d, g] = g.d for every generator g, spread along the tree edges
    # d = c.h as g.d = (g.c).h; then a = c.h multiplies as a.x = c.(h.x).
    images = cols[0, 0::2].astype(np.int64)
    left = np.empty((n, ngens), dtype=np.int64)
    left[0] = images
    for d, c, h in tree:
        left[d] = cols[left[c], 2 * h]
    table = np.empty((n, n), dtype=_table_dtype(n))
    table[0] = np.arange(n)
    for a, c, h in tree:
        table[a] = table[c][left[:, h]]
    return RealizedGroup(p.name, table, images.tolist(),
                         source_presentation=p)


def realize_presentation(p: Presentation,
                         budget: EnumerationBudget | None = None,
                         defining_count: int | None = None,
                         ) -> tuple[RealizedGroup, EnumerationStats]:
    """Enumerate the trivial-subgroup table and realize the group."""
    table, stats = enumerate_cosets(p, (), budget, defining_count)
    return regular_representation(table, p), stats
