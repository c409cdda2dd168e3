"""Finitely generated abelian groups as invariant-factor lists.

Invariant factors are kept as a divisibility chain d1 | d2 | ... with every
entry > 1 and trailing zeros for infinite cyclic summands (n | 0 for all n,
so the chain convention extends to the free part).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, inf, lcm, prod
from typing import Sequence


def smith_diagonal(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returned entries are nonnegative and chained by divisibility; the list
    has min(nrows, ncols) entries (zeros included).  Exact integer
    arithmetic throughout; intermediate growth is why this stays on python
    ints rather than fixed-width arrays.

    One sparse elimination: the pivot is the nonzero entry of least
    magnitude, then of least Markowitz cost (row nonzeros - 1) * (column
    nonzeros - 1), then the first in row-then-column order.  Among ±1
    entries this is the unit-pivot order of Havas, Holt and Rees
    ("Recognizing badly presented Z-modules", 1993), which keeps fill-in
    low on presentation matrices.  Row operations clear the pivot's
    column, then column operations, which touch only the pivot row, clear
    its row.  A pivot that divides both is split off; otherwise a smaller
    remainder is left, so the least magnitude drops and the next round
    pivots on it.
    """
    nr = len(matrix)
    nc = len(matrix[0]) if nr else 0
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {j: set() for j in range(nc)}
    for i, r in enumerate(matrix):
        row = {j: int(a) for j, a in enumerate(r) if a}
        if row:
            rows[i] = row
            for j in row:
                cols[j].add(i)
    pivots: list[int] = []
    while rows:
        # Magnitudes compare as squares, which is cheaper than abs().
        best = (inf,)
        lim = inf
        for i, row in rows.items():
            n = len(row) - 1
            for j, a in row.items():
                sq = a * a
                if sq <= lim:
                    key = (sq, n * (len(cols[j]) - 1), i, j)
                    if key < best:
                        best = key
                        lim = sq
            # No later row can beat a zero-cost unit pivot found in this one.
            if lim == 1 and best[1] == 0 and best[2] == i:
                break
        _, _, r, c = best
        prow = rows[r]
        p = prow[c]
        for i in cols[c] - {r}:
            row = rows[i]
            q = row[c] // p
            for j, a in prow.items():
                v = row.get(j, 0) - q * a
                if v:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = v
                else:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                del rows[i]
        if len(cols[c]) > 1:
            continue
        # The column is clear, so column operations change only the pivot
        # row: each of its entries becomes its remainder mod p.
        for j in prow:
            cols[j].discard(r)
        rest = {j: a % p for j, a in prow.items() if a % p}
        if rest:
            rest[c] = p
            rows[r] = rest
            for j in rest:
                cols[j].add(r)
            continue
        del rows[r], cols[c]
        pivots.append(abs(p))
    # Ones lead any chain; leaving them out keeps the quadratic step short.
    diag =[1] * pivots.count(1) + _chain([d for d in pivots if d != 1])
    return diag + [0] * (min(nr, nc) - len(diag))


def _chain(orders: list[int]) -> list[int]:
    """Invariant factors, ones included, of the direct sum of cyclic groups
    of the given orders (0 meaning Z), computed in place.  Each step uses
    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b); the steps leave each entry the
    gcd of itself and all later ones, a divisibility chain with its zeros
    last."""
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            a, b = orders[i], orders[j]
            orders[i], orders[j] = gcd(a, b), lcm(a, b)
    return orders


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
        invariant factors."""
        chain = _chain([abs(int(d)) for d in orders])
        return AbelianInvariants(tuple(d for d in chain if d != 1))

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
