"""Todd-Coxeter coset enumeration of the trivial subgroup and the regular
representation.

Every presentation the engine realizes (eta(G,H), nu(G), the biadditivity
presentation of a tensor product, a catalog or file group) needs the coset
table of the trivial subgroup and nothing else, so that is the only table
the enumerator builds.

The strategy is HLT with row filling and in-place coincidence processing
on a union-find over cosets.  Every relator is scanned at every live coset,
so the finished table is closed under all of them; a vectorized closing
check traces every relator at every coset once more (relators of one length
together, one gather per letter) and reports an open one as an engine bug,
never as a reason to go on enumerating.  Each relator is flattened into
column letters once per run.

Definitions use the first undefined entry in row-major order, so identical
inputs give identical tables and stats.  Every run adds its cosets to the
innermost open `CosetTally`, which is how a command counts its work, and
runs under the innermost open `budget_scope`, which is how a command bounds
it.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, CapExceeded, InternalInconsistency
from .groups import GROUP_ORDER_CAP, RealizedGroup, _table_dtype, _walk
from .words import Presentation, Word

DEFAULT_MAX_COSETS = 2_000_000
_TRACE_CELLS = 1 << 16  # (relator, coset) cells per closing-check gather


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


class CosetTally:
    """The cosets defined by every enumeration run while the tally is
    open, those that raise BudgetExceeded included.  Tallies nest: a run
    counts towards the innermost open tally only."""

    def __init__(self):
        self.cosets_defined = 0

    def __enter__(self) -> "CosetTally":
        self._token = _OPEN_TALLY.set(self)
        return self

    def __exit__(self, *exc_info) -> None:
        _OPEN_TALLY.reset(self._token)


# Runs outside every tally go to a process-wide one that nothing reads.
_OPEN_TALLY: ContextVar[CosetTally] = ContextVar("ntl_coset_tally",
                                                 default=CosetTally())


@dataclass(frozen=True)
class _Scope:
    budget: EnumerationBudget | None
    deadline: float | None  # time.monotonic() value; None is no time limit


_OPEN_SCOPE: ContextVar[_Scope] = ContextVar("ntl_budget_scope",
                                             default=_Scope(None, None))


@contextmanager
def budget_scope(budget: EnumerationBudget | None):
    """Bound every enumeration run inside the block by `budget`; the
    innermost scope applies, and None defers to `default_budget()`.  Its
    `max_time_ms` is one deadline for the whole block, fixed here."""
    deadline = None
    if budget is not None and budget.max_time_ms is not None:
        deadline = time.monotonic() + budget.max_time_ms / 1000
    token = _OPEN_SCOPE.set(_Scope(budget, deadline))
    try:
        yield
    finally:
        _OPEN_SCOPE.reset(token)


def current_tally() -> CosetTally:
    """The innermost open tally, which every enumeration run adds to."""
    return _OPEN_TALLY.get()


def current_budget() -> EnumerationBudget:
    """The budget in force: the innermost scope's, else the default."""
    return _OPEN_SCOPE.get().budget or default_budget()


@dataclass(frozen=True)
class CosetTable:
    """Complete coset table of the trivial subgroup; row 0 is the identity
    coset, columns alternate generator and inverse-generator images.
    `closed` says that every relator was traced closed at every coset, as
    `enumerate_cosets` does before it returns a table; a table built by
    hand leaves it False."""

    rows: np.ndarray
    presentation: Presentation
    closed: bool = False

    def __post_init__(self):
        self.rows.setflags(write=False)

    @property
    def coset_count(self) -> int:
        return self.rows.shape[0]


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
    def __init__(self, p: Presentation):
        self.width = 2 * p.ngens
        self.relators = _dedup([word_letters(w) for w in p.relators])
        self.budget = current_budget()
        self.deadline = _OPEN_SCOPE.get().deadline
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
        if self.n_defined % 1024 == 0:
            self._check_deadline()

    def _check_deadline(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded(
                f"time budget {self.budget.max_time_ms} ms exhausted",
                stats=self._stats())

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
            for w in self.relators:
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
        return cols

    def _find_violation(self, cols) -> str | None:
        """Name the lowest-index relator open at some coset, and the first
        coset where it is open, or None.  Relators of one length are traced
        together, one gather per letter, in blocks of `_TRACE_CELLS`
        (relator, coset) cells or of one relator, whichever is larger."""
        n = cols.shape[1]
        flat = cols.ravel()
        ar = np.arange(n)
        by_length: dict[int, list[int]] = {}
        for k, w in enumerate(self.relators):
            by_length.setdefault(len(w), []).append(k)
        step = max(1, _TRACE_CELLS // max(n, 1))
        open_at = []
        for ks in by_length.values():
            letters = np.array([self.relators[k] for k in ks],
                               dtype=np.int64) * n
            for lo in range(0, len(ks), step):
                block = letters[lo:lo + step]
                v = np.broadcast_to(ar, (block.shape[0], n))
                for column in block.T:
                    v = flat[column[:, None] + v]
                bad = v != ar
                rows = np.flatnonzero(bad.any(axis=1))
                if rows.size:
                    r = int(rows[0])
                    open_at.append((ks[lo + r], int(np.argmax(bad[r]))))
                    break
        if not open_at:
            return None
        k, coset = min(open_at)
        return f"relator {k} is open at coset {coset}"

    def run(self):
        self._hlt_pass()
        self._check_deadline()  # a short run may never reach a 1024th coset
        cols = self._compress()
        violation = self._find_violation(cols)
        if violation is not None:
            raise InternalInconsistency(f"{violation} after the HLT pass")
        return (cols.T.astype(np.int32).copy(),
                self._stats(final=cols.shape[1]))

    def _stats(self, final: int | None = None) -> EnumerationStats:
        return EnumerationStats(
            cosets_defined=self.n_defined,
            cosets_final=self.n_alive if final is None else final,
            coincidences=self.n_coincidences,
            elapsed_ms=int((time.monotonic() - self.t0) * 1000))


def enumerate_cosets(p: Presentation) -> tuple[CosetTable, EnumerationStats]:
    """Enumerate the cosets of the trivial subgroup in the presented group
    within `current_budget()`.

    Raises BudgetExceeded rather than ever returning a truncated table.
    Either way the run's cosets are added to the open `CosetTally`.
    """
    tally = current_tally()
    try:
        rows, stats = _Enumerator(p).run()
    except BudgetExceeded as exc:
        tally.cosets_defined += exc.stats.cosets_defined
        raise
    tally.cosets_defined += stats.cosets_defined
    return CosetTable(rows=rows, presentation=p, closed=True), stats


def regular_representation(t: CosetTable) -> RealizedGroup:
    """Turn the coset table of the trivial subgroup into a realized group.
    Each relator of a table not known to be closed is traced from the
    identity coset first."""
    p = t.presentation
    n = t.coset_count
    if n > GROUP_ORDER_CAP:
        raise CapExceeded(f"group order {n} exceeds cap {GROUP_ORDER_CAP}")
    ngens = p.ngens
    cols = t.rows
    if not t.closed:
        for w in p.relators:
            c = 0
            for letter in word_letters(w):
                c = int(cols[c, letter])
            if c != 0:
                raise InternalInconsistency(
                    "relator open at the identity coset")
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


def realize_presentation(p: Presentation
                         ) -> tuple[RealizedGroup, EnumerationStats]:
    """Enumerate the trivial-subgroup table and realize the group."""
    table, stats = enumerate_cosets(p)
    return regular_representation(table), stats
