"""Finitely generated abelian groups as invariant-factor lists.

Invariant factors are kept as a divisibility chain d1 | d2 | ... with every
entry > 1 and trailing zeros for infinite cyclic summands (n | 0 for all n,
so the chain convention extends to the free part).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Sequence


def smith_diagonal(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returned entries are nonnegative and chained by divisibility; the list
    has min(nrows, ncols) entries (zeros included).  Exact integer
    arithmetic throughout; intermediate growth is why this stays on python
    ints rather than fixed-width arrays.  The ±1 pivots are eliminated
    sparsely first, and only the block without unit entries is reduced
    densely.
    """
    nr = len(matrix)
    nc = len(matrix[0]) if nr else 0
    units, rest = _unit_pivots(matrix, nc)
    diag = [1] * units + _dense_diagonal(rest)
    return diag + [0] * (min(nr, nc) - len(diag))


def _unit_pivots(matrix: Sequence[Sequence[int]],
                 ncols: int) -> tuple[int, list[list[int]]]:
    """Sparse elimination of the ±1 pivots (Havas, Holt and Rees,
    "Recognizing badly presented Z-modules", 1993).

    Each pivot is a unimodular row-and-column operation that puts a 1 on
    the diagonal and deletes its row and column.  The pivot is the unit
    entry of least Markowitz cost (row nonzeros - 1) * (column nonzeros - 1),
    the first in row-then-column order among equals, which keeps fill-in
    low.  Returns the number of pivots and the nonzero rows left, dense over
    the columns left; none of them has a ±1 entry.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {j: set() for j in range(ncols)}
    for i, r in enumerate(matrix):
        row = {j: int(a) for j, a in enumerate(r) if a}
        if row:
            rows[i] = row
            for j in row:
                cols[j].add(i)
    units = 0
    while True:
        best = None
        for i, row in rows.items():
            n = len(row) - 1
            for j, a in row.items():
                if a == 1 or a == -1:
                    key = (n * (len(cols[j]) - 1), i, j)
                    if best is None or key < best:
                        best = key
            # No later row can beat a zero-cost pivot found in this one.
            if best is not None and best[0] == 0 and best[1] == i:
                break
        if best is None:
            break
        _, r, c = best
        prow = rows.pop(r)
        u = prow[c]
        for j in prow:
            cols[j].discard(r)
        for i in cols.pop(c):
            row = rows[i]
            f = row.pop(c) * u
            for j, a in prow.items():
                if j == c:
                    continue
                v = row.get(j, 0) - f * a
                if v:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = v
                else:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                del rows[i]
        units += 1
    live = sorted(cols)
    return units, [[row.get(j, 0) for j in live] for row in rows.values()]


def _dense_diagonal(m: list[list[int]]) -> list[int]:
    """Nonzero Smith diagonal entries of a dense matrix, by repeated
    smallest-pivot elimination that reduces `m` in place."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    diag: list[int] = []
    t = 0
    while t < nr and t < nc:
        # Pick the nonzero entry of smallest magnitude as pivot.  Every
        # round below that leaves a remainder restarts here with a strictly
        # smaller pivot, so the elimination terminates.
        pr = pc = -1
        best = None
        for i in range(t, nr):
            row = m[i]
            for j in range(t, nc):
                a = row[j]
                if a and (best is None or abs(a) < best):
                    best = abs(a)
                    pr, pc = i, j
        if best is None:
            break
        m[t], m[pr] = m[pr], m[t]
        if pc != t:
            for row in m:
                row[t], row[pc] = row[pc], row[t]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
        pivot = m[t][t]
        dirty = False
        for i in range(t + 1, nr):
            a = m[i][t]
            if a:
                q, r = divmod(a, pivot)
                if r:
                    dirty = True
                if q:
                    mi, mt = m[i], m[t]
                    for j in range(t, nc):
                        mi[j] -= q * mt[j]
        for j in range(t + 1, nc):
            a = m[t][j]
            if a:
                q, r = divmod(a, pivot)
                if r:
                    dirty = True
                if q:
                    for i in range(t, nr):
                        m[i][j] -= q * m[i][t]
        if dirty:
            continue
        # Row and column t are clear; force pivot | remaining block by
        # folding an offending row into row t (the next round then reduces).
        fixed = False
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if m[i][j] % pivot:
                    mt, mi = m[t], m[i]
                    for k in range(t, nc):
                        mt[k] += mi[k]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        diag.append(pivot)
        t += 1
    return diag


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant factors d1 | d2 | ...; 0 encodes an infinite cyclic factor."""

    factors: tuple[int, ...] = ()

    def __post_init__(self):
        fs = self.factors
        if any(f < 0 or f == 1 for f in fs):
            raise ValueError(f"invalid invariant factors {fs}")
        nonzero = [f for f in fs if f]
        zeros = [f for f in fs if not f]
        if list(fs) != nonzero + zeros:
            raise ValueError(f"zeros must trail in {fs}")
        for a, b in zip(nonzero, nonzero[1:]):
            if b % a:
                raise ValueError(f"{fs} is not a divisibility chain")

    @staticmethod
    def from_cyclic_orders(orders: Sequence[int]) -> "AbelianInvariants":
        """Normalize a direct sum of cyclic groups (0 meaning Z) into
        invariant factors via the Smith form of the diagonal relation matrix."""
        orders = [abs(int(d)) for d in orders if abs(int(d)) != 1]
        n = len(orders)
        matrix = [[orders[i] if i == j else 0 for j in range(n)]
                  for i in range(n)]
        return abelian_invariants(matrix, ncols=n)

    @property
    def free_rank(self) -> int:
        return sum(1 for f in self.factors if f == 0)

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if not self.is_finite():
            return None
        return prod(self.factors) if self.factors else 1

    def exponent(self) -> int | None:
        if not self.is_finite():
            return None
        return lcm(*self.factors) if self.factors else 1

    def torsion(self) -> "AbelianInvariants":
        return AbelianInvariants(tuple(f for f in self.factors if f))

    def tensor(self, other: "AbelianInvariants") -> "AbelianInvariants":
        """Tensor product over the integers: pairwise gcd's, renormalized."""
        orders = [gcd(a, b) for a in self.factors for b in other.factors]
        return AbelianInvariants.from_cyclic_orders(orders)

    def exterior_square(self) -> "AbelianInvariants":
        """Second exterior power: gcd over unordered pairs of factors."""
        fs = self.factors
        orders = [gcd(fs[i], fs[j]) for i in range(len(fs))
                  for j in range(i + 1, len(fs))]
        return AbelianInvariants.from_cyclic_orders(orders)

    def divides_into(self, other: "AbelianInvariants") -> bool:
        """Right-aligned componentwise divisibility, witnessing that each
        cyclic factor embeds into the corresponding factor of `other`."""
        a, b = self.factors, other.factors
        if len(a) > len(b):
            return False
        off = len(b) - len(a)
        for i, f in enumerate(a):
            g = b[off + i]
            if g == 0:
                continue
            if f == 0 or g % f:
                return False
        return True

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " x ".join("Z" if f == 0 else f"C{f}" for f in self.factors)


def abelian_invariants(matrix: Sequence[Sequence[int]],
                       ncols: int | None = None) -> AbelianInvariants:
    """Invariant factors of the cokernel of an integer relation matrix.

    Rows are relations, columns are generators; an empty matrix leaves all
    generators free.
    """
    if ncols is None:
        if not len(matrix):
            raise ValueError("ncols required for a matrix with no rows")
        ncols = len(matrix[0])
    for r in matrix:
        if len(r) != ncols:
            raise ValueError("ragged relation matrix")
    diag = smith_diagonal(matrix) if len(matrix) and ncols else []
    torsion = [d for d in diag if d > 1]
    rank = sum(1 for d in diag if d)
    free = ncols - rank
    return AbelianInvariants(tuple(torsion) + (0,) * free)
