"""Todd-Coxeter coset enumeration of the trivial subgroup and the regular
representation.

Every presentation the engine realizes (eta(G,H), nu(G), the biadditivity
presentation of a tensor product, a catalog or file group) needs the coset
table of the trivial subgroup and nothing else, so that is the only table
the enumerator builds.

The strategy is HLT with row filling and in-place coincidence processing
on a union-find over cosets.  The pass runs in a small C kernel,
`_hlt.c`, compiled once with the C compiler Python was built with into the
`__pycache__` beside it and called through ctypes.  Between cosets the
pass drops dead rows once they outnumber the live ones, renumbering the
live rows 0.. in index order; every choice of the pass reads only that
order, so the tables and stats are what they would be without it, and
the table holds about the live cosets rather than every coset defined.
The kernel also compresses the finished table the same way: it writes
the live rows straight into the array numpy allocated.  The same kernel
fills the regular representation's table, copying rows along the coset
table's walk by the left multiplications by the generators, which
`groups._spread` spreads along that walk as it spreads every map; every
other step stays in numpy.  Every relator is scanned at every live coset,
so the finished table is closed under all of them; after a range check
of every entry, a vectorized closing check, independent of the kernel,
traces every relator at every coset once more (relators of one length
together, one gather per letter) and reports an open one as an engine
bug, never as a reason to go on enumerating.  The
enumerator reads one form of relators, `Relators`: the column letters of
every distinct relator in one array.  A `Presentation` is flattened into
it once, when its run starts; the biadditivity presentation of a tensor
product is built in it directly.

A finished table also multiplies without a multiplication table:
`certify_regular` checks that it is its group's regular representation,
and then the trace of a word from a coset (`trace`) is a product.  Right
multiplication by the elements of some words (`_WordSteps`) reads like a
table's columns: a walk of it gives the subgroup they generate as its
cosets (`subgroup_cosets`), and a map spread along another group's walk
reads it as it would read a target's table, traced only at the cosets it
reaches.

Definitions use the first undefined entry in row-major order, so identical
inputs give identical tables and stats.  Every run adds its cosets to the
innermost open `CosetTally`, which is how a command counts its work, and
runs under the innermost open `budget_scope`, which is how a command bounds
it.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import re
import sysconfig
import tempfile
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path
from typing import Sequence

import numpy as np

try:  # the builtin SHA-256; hashlib loads OpenSSL, about 5 ms a process
    from _sha256 import sha256
except ImportError:  # no builtin module of that name (Python 3.12 on)
    from hashlib import sha256

from .errors import BudgetExceeded, InternalInconsistency
from .groups import (_ASSOC_CHECK_MAX, RealizedGroup, _blocks, _check_order,
                     _in_range, _spread, _table_dtype, _tree_size,
                     _walk_levels)
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


@dataclass
class EnumerationStats:
    cosets_defined: int = 0
    cosets_final: int = 0
    coincidences: int = 0


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
    innermost scope applies, and None defers to the default budget.  Its
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
    return _OPEN_SCOPE.get().budget or EnumerationBudget()


@dataclass(frozen=True, eq=False)
class Relators:
    """A presentation in the form the kernel reads: `ngens` generators and
    the distinct nonempty relators in column letters (2g for g, 2g+1 for
    g^-1), relator k being letters[ends[k-1]:ends[k]] (from 0 for k = 0).
    It holds no words, so a group realized from it has no source
    presentation.  Every letter and end is checked here, before the kernel
    reads one."""

    name: str
    ngens: int
    letters: np.ndarray
    ends: np.ndarray

    def __post_init__(self):
        # Checked before the casts, which would wrap such entries.
        if not _in_range(self.letters, 2 * self.ngens):
            raise InternalInconsistency(
                f"relator letter out of range for the {self.ngens} "
                f"generators of {self.name!r}")
        lengths = np.diff(self.ends, prepend=0)
        if lengths.min(initial=1) < 1 or lengths.sum() != np.size(
                self.letters):
            raise InternalInconsistency(
                f"relator ends of {self.name!r} do not cut its letters "
                "into nonempty relators")
        for attr, dtype in (("letters", np.int32), ("ends", np.int64)):
            a = np.ascontiguousarray(getattr(self, attr), dtype=dtype)
            a.setflags(write=False)
            object.__setattr__(self, attr, a)

    @classmethod
    def of(cls, p: Presentation) -> "Relators":
        """`p`'s relators flattened (`word_letters`), the empty and
        repeated ones dropped in first-occurrence order (`_dedup`)."""
        words = _dedup([word_letters(w) for w in p.relators])
        lengths = [len(w) for w in words]
        return cls(p.name, p.ngens,
                   np.fromiter(chain.from_iterable(words), dtype=np.int32,
                               count=sum(lengths)),
                   np.fromiter(accumulate(lengths), dtype=np.int64,
                               count=len(lengths)))


@dataclass(frozen=True)
class CosetTable:
    """Complete coset table of the trivial subgroup; row 0 is the identity
    coset, columns alternate generator and inverse-generator images.
    `enumerate_cosets` returns one only after every relator was traced
    closed at every coset.  `presentation` is what was enumerated: a
    `Presentation`, or a `Relators` that has no words."""

    rows: np.ndarray
    presentation: Presentation | Relators

    def __post_init__(self):
        self.rows.setflags(write=False)

    @property
    def coset_count(self) -> int:
        return self.rows.shape[0]

    @functools.cached_property
    def walk(self):
        """The breadth-first tree from coset 0 over the generator columns
        0, 2, 4, ... (`groups._walk_levels`), walked once: the regular
        representation and `certify_regular` both read it.  Walk it only
        after a range check of every entry."""
        return _walk_levels(self.rows, range(0, self.rows.shape[1], 2))


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


class _State(ctypes.Structure):
    """`struct hlt` of `_hlt.c`: one run's inputs, counts and buffers.
    `peak`, the most rows the table held at once, is for the tests: no
    stats or report reads it."""

    _fields_ = [("width", ctypes.c_int64), ("max_cosets", ctypes.c_int64),
                ("deadline", ctypes.c_double),
                ("rows", ctypes.c_int64), ("cap", ctypes.c_int64),
                ("defined", ctypes.c_int64), ("alive", ctypes.c_int64),
                ("coincidences", ctypes.c_int64), ("queued", ctypes.c_int64),
                ("peak", ctypes.c_int64), ("tab", ctypes.c_void_p), ("uf", ctypes.c_void_p),
                ("queue", ctypes.c_void_p)]


_SOURCE = Path(__file__).with_name("_hlt.c")
_COSETS_EXHAUSTED, _TIME_EXHAUSTED, _OUT_OF_MEMORY = 1, 2, 3


def _cache_dir() -> Path:
    """`__pycache__` next to the kernel's source, or, where that is not
    writable, a directory of this user's under the temporary directory."""
    cache = _SOURCE.parent / "__pycache__"
    try:
        cache.mkdir(exist_ok=True)
    except OSError:
        pass
    if os.access(cache, os.W_OK):
        return cache
    cache = Path(tempfile.gettempdir()) / f"ntl-{os.getuid()}"
    cache.mkdir(mode=0o700, exist_ok=True)
    if cache.stat().st_uid != os.getuid():
        raise RuntimeError(f"{cache} belongs to another user")
    return cache


def _build(cache: Path) -> Path:
    """The kernel library in `cache`, named by the SHA-256 of its source
    and of the compile command; compiled first if it is not there.  The
    compiler writes a temporary file that is then renamed into place, so a
    concurrent process never loads a half-written library.  A compile
    removes every other library of that name pattern from `cache`: one
    built from an older source or command."""
    command = [*(sysconfig.get_config_var("CC") or "cc").split(),
               "-O2", "-shared", "-fPIC"]
    digest = sha256(_SOURCE.read_bytes()
                    + " ".join(command).encode()).hexdigest()
    lib = cache / f"_hlt.{digest[:16]}.so"
    if lib.exists():
        return lib
    import subprocess  # only to compile, which a process does at most once

    fd, tmp = tempfile.mkstemp(prefix="_hlt.", suffix=".tmp", dir=cache)
    os.close(fd)
    argv = [*command, "-o", tmp, str(_SOURCE)]
    try:
        try:
            done = subprocess.run(argv, capture_output=True, text=True)
        except OSError as exc:
            raise RuntimeError(f"cannot compile the HLT kernel: "
                               f"`{' '.join(argv)}` failed: {exc}") from exc
        if done.returncode:
            raise RuntimeError(
                f"cannot compile the HLT kernel: `{' '.join(argv)}` exited "
                f"with status {done.returncode}:\n{done.stderr}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for stale in cache.glob("_hlt.*.so"):
        if stale != lib and re.fullmatch(r"_hlt\.[0-9a-f]{16}\.so",
                                         stale.name):
            stale.unlink(missing_ok=True)
    return lib


@functools.cache
def _kernel() -> ctypes.CDLL:
    """The compiled kernel, loaded once per process.  An OSError here is
    no usage error, which is what the CLI would call one."""
    try:
        kernel = ctypes.CDLL(str(_build(_cache_dir())))
    except OSError as exc:
        raise RuntimeError(f"cannot build or load the HLT kernel: {exc}"
                           ) from exc
    state = ctypes.POINTER(_State)
    kernel.ntl_hlt_run.argtypes = [state, ctypes.c_void_p, ctypes.c_void_p,
                                   ctypes.c_int64]
    kernel.ntl_hlt_run.restype = ctypes.c_int32
    kernel.ntl_hlt_take.argtypes = [state, ctypes.c_void_p, ctypes.c_int64]
    kernel.ntl_hlt_take.restype = ctypes.c_int64
    kernel.ntl_regular_fill.argtypes = [ctypes.c_int64] + [
        ctypes.c_void_p] * 5
    kernel.ntl_regular_fill.restype = None
    return kernel


def _hlt_pass(relators: Relators, budget: EnumerationBudget,
              deadline: float | None):
    """Run the HLT pass in the kernel.  Returns the live rows as the
    kernel compressed them, renumbered 0.. in index order, and the run's
    stats; raises BudgetExceeded as the budget runs out."""
    kernel = _kernel()
    width = 2 * relators.ngens
    state = _State(width=width,
                   # ctypes would wrap a larger budget silently
                   max_cosets=min(budget.max_cosets, 2 ** 63 - 1),
                   deadline=math.inf if deadline is None else deadline)
    try:
        status = kernel.ntl_hlt_run(state, relators.letters.ctypes.data,
                                    relators.ends.ctypes.data,
                                    relators.ends.size)
        stats = EnumerationStats(cosets_defined=state.defined,
                                 cosets_final=state.alive,
                                 coincidences=state.coincidences)
        if status == _COSETS_EXHAUSTED:
            raise budget.cosets_exhausted(stats)
        if status == _TIME_EXHAUSTED:
            raise BudgetExceeded(
                f"time budget {budget.max_time_ms} ms exhausted", stats=stats)
        if status == _OUT_OF_MEMORY:
            raise MemoryError(f"no memory for a coset table of "
                              f"{state.cap} rows and {width} columns")
        n = state.alive
        rows = np.empty((n, width), dtype=np.int32)
        found = kernel.ntl_hlt_take(state, rows.ctypes.data, n)
    finally:
        if state.tab:  # not yet unmapped by a take
            kernel.ntl_hlt_take(state, None, 0)
    if found != n:
        raise InternalInconsistency(
            f"the HLT pass counted {n} live cosets but left {found}")
    return rows, stats


class _Enumerator:
    def __init__(self, p: Presentation | Relators):
        self.relators = p if isinstance(p, Relators) else Relators.of(p)
        self.budget = current_budget()
        self.deadline = _OPEN_SCOPE.get().deadline

    def _find_violation(self, rows) -> str | None:
        """Name the lowest-index relator open at some coset of the table
        `rows`, and the first coset where it is open, or None.  Relators of
        one length are traced together, one gather per letter, in bounded
        blocks (`groups._blocks`) of (relator, coset) cells, on one
        column-major copy of the table."""
        n = rows.shape[0]
        flat = rows.T.ravel()
        ar = np.arange(n)
        ends = self.relators.ends
        lengths = np.diff(ends, prepend=0)
        open_at = []
        for length in set(lengths.tolist()):
            ks = np.flatnonzero(lengths == length)
            at = (ends[ks] - length)[:, None] + np.arange(length)
            letters = self.relators.letters[at].astype(np.int64) * n
            for cut in _blocks(len(ks), n):
                block = letters[cut]
                v = np.broadcast_to(ar, (block.shape[0], n))
                for column in block.T:
                    v = flat[column[:, None] + v]
                bad = v != ar
                rows = np.flatnonzero(bad.any(axis=1))
                if rows.size:
                    r = int(rows[0])
                    open_at.append((int(ks[cut.start + r]),
                                    int(np.argmax(bad[r]))))
                    break
        if not open_at:
            return None
        k, coset = min(open_at)
        return f"relator {k} is open at coset {coset}"

    def run(self):
        rows, stats = _hlt_pass(self.relators, self.budget, self.deadline)
        # Before the closing check, whose gathers read -1 as the last coset.
        if not _in_range(rows, rows.shape[0]):
            raise InternalInconsistency(
                "the HLT pass left an entry outside the live cosets")
        violation = self._find_violation(rows)
        if violation is not None:
            raise InternalInconsistency(f"{violation} after the HLT pass")
        return rows, stats


def enumerate_cosets(p: Presentation | Relators
                     ) -> tuple[CosetTable, EnumerationStats]:
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
    return CosetTable(rows=rows, presentation=p), stats


def regular_representation(t: CosetTable) -> RealizedGroup:
    """Turn the coset table of the trivial subgroup into a realized group,
    which keeps the table's walk as its own and the enumerated
    `Presentation`, if it was one, as its source.  The left multiplication
    by each generator is spread along the walk (`groups._spread`, from the
    generators' images in row 0), and the kernel copies rows by it along
    the walk's edges, into the int16 entries that every order under the cap
    fits."""
    p = t.presentation
    n = t.coset_count
    _check_order(n)
    dtype = _table_dtype(n)
    if dtype != np.int16:
        raise InternalInconsistency(
            f"the kernel fills int16 tables, not {np.dtype(dtype).name}")
    rows = t.rows
    # The kernel reads every left multiplication as an index, unchecked.
    if not _in_range(rows, n):
        raise InternalInconsistency("coset table entry out of range")
    levels = t.walk
    if _tree_size(levels) != n:
        raise InternalInconsistency("coset table is not transitive")
    # The tree's edges (vertex, parent, step) in discovery order.
    edges = np.empty((3, n - 1), dtype=np.int64)
    for e, arrays in zip(edges, zip(*levels)):
        np.concatenate(arrays, out=e)
    images = rows[0, 0::2]
    # left[h, d] = h.d, since d = c.g gives h.d = (h.c).g
    left = np.ascontiguousarray(
        _spread(levels, rows, range(0, rows.shape[1], 2), start=images).T,
        dtype=np.int32)
    table = np.empty((n, n), dtype=dtype)
    _kernel().ntl_regular_fill(n, *(e.ctypes.data for e in edges),
                               left.ctypes.data, table.ctypes.data)
    # The image rows[0, 2h] of generator h acts on the table as column 2h
    # acts on rows, so the walk of rows is a walk of the group too.
    source = p if isinstance(p, Presentation) else None
    return RealizedGroup(p.name, table, images.tolist(),
                         source_presentation=source, walk=levels)


def realize_presentation(p: Presentation | Relators
                         ) -> tuple[RealizedGroup, EnumerationStats]:
    """Enumerate the trivial-subgroup table and realize the group."""
    table, stats = enumerate_cosets(p)
    return regular_representation(table), stats


def certify_regular(t: CosetTable, generators: Sequence[int]) -> None:
    """Check that the table is the right regular representation of the
    group its columns generate, so that `trace` multiplies without a
    multiplication table: raises InternalInconsistency otherwise.
    `generators` must generate the presented group, as its relators show;
    all of its generators do.

    Every entry is in range and column 2g+1 undoes column 2g, so the
    columns are permutations and their inverses, and a word acts on the
    cosets as its letters' columns do, one after another.  The table's
    walk reaches every coset from 0: the action is transitive; that walk
    is `_walk_levels`' own, a tree by construction.  A permutation group
    is a group, so the two-sided identity, the inverses and the
    associativity that `RealizedGroup` checks on a table hold here with
    nothing to check.  What is left is regularity, that no element other
    than 1 fixes coset 0, so that the trace of w from 0 names w.  For
    n <= `_ASSOC_CHECK_MAX`, as Light's test is bounded, the left
    multiplication by the element k = 0.k of each of `generators`, spread
    along the walk from row 0 as k.(p.s) = (k.p).s (`groups._spread`),
    must commute with their columns.
    The relators close at every coset, so the presented group acts and
    `generators` generate the permutation group P it acts as: each map
    commutes with P.  Words in `generators` then reach every coset, so
    the centralizer of P, which holds a map taking 0 to 0.k for each of
    them, is transitive; an element of P fixing 0 fixes every coset
    c(0) = c(0.x) = c(0).x, so it is 1.  Above that bound regularity rests
    on the enumeration: the table of the trivial subgroup is its group's
    regular representation (Holt-Eick-O'Brien, Handbook of Computational
    Group Theory, 2005, ch. 5).
    """
    rows = t.rows
    n, width = rows.shape
    ar = np.arange(n)
    if not _in_range(rows, n):
        raise InternalInconsistency("coset table entry out of range")
    if not (rows[rows[:, 0::2], np.arange(1, width, 2)] == ar[:, None]).all():
        raise InternalInconsistency(
            "an inverse column does not undo its generator column")
    if _tree_size(t.walk) != n:
        raise InternalInconsistency("coset table is not transitive")
    if n > _ASSOC_CHECK_MAX:
        return
    columns = rows[:, 2 * np.fromiter(generators, dtype=np.int64)]
    left = _spread(t.walk, rows, range(0, width, 2), start=columns[0]).T
    if not np.array_equal(columns[left], left[:, columns]):
        raise InternalInconsistency(
            "coset table is not a regular representation")


def trace(t: CosetTable, cosets, letters) -> np.ndarray:
    """The cosets that the column `letters` reach from `cosets`, read left
    to right, one gather per letter; each letter is a column or an array
    of columns, broadcast against the cosets reached so far.  In a table
    that passed `certify_regular`, the trace of w from x is the element
    x.w, and the trace from 0 names w."""
    rows = t.rows
    for letter in letters:
        cosets = rows[cosets, letter]
    return cosets


class _WordSteps:
    """Right multiplication by the elements that the rows of `words`
    (column letters) trace from 0, read as a table's columns are read:
    `shape[0]` cosets, and [xs, steps] the trace of each step's word from
    each x, broadcast as a table's gather is.  A walk (`groups._walk_levels`)
    or a spread along one (`groups._spread`) then traces a word only at the
    cosets it reaches."""

    def __init__(self, t: CosetTable, words: np.ndarray):
        self.t, self.words = t, words
        self.shape = (t.coset_count, len(words))

    def __getitem__(self, index):
        xs, steps = index
        return trace(self.t, xs, np.moveaxis(self.words[steps], -1, 0))


def subgroup_cosets(t: CosetTable, words: np.ndarray) -> np.ndarray:
    """The cosets of the subgroup generated by the elements that the rows
    of `words` trace from 0, in increasing order: 0 and the vertices of the
    walk from 0 of right multiplication by those elements."""
    levels = _walk_levels(_WordSteps(t, words), range(len(words)))
    return np.sort(np.concatenate([[0], *(v for v, _, _ in levels)]))
