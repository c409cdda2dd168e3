"""Built-in group catalog: fixed presentations for the test corpus."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import factorial, prod

from .coset import (EnumerationBudget, EnumerationStats, default_budget,
                    realize_presentation)
from .errors import BudgetExceeded, UnknownCatalogName
from .groups import RealizedGroup
from .words import Presentation, Word, commutator

_CYCLIC = re.compile(r"C(\d+)$")
_PRODUCT = re.compile(r"C(\d+)(?:x(?:C)?(\d+))+$")
_DIHEDRAL = re.compile(r"D(\d+)$")
_SYMMETRIC = re.compile(r"S(\d+)$")
_FREE = re.compile(r"F(\d+)$")

_GEN_NAMES = "abcdefghij"


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    presentation: Presentation
    known_facts: dict = field(default_factory=dict)

    @property
    def infinite(self) -> bool:
        return bool(self.known_facts.get("infinite"))

    @property
    def abelian(self) -> bool | None:
        return self.known_facts.get("abelian")


def _cyclic(n: int) -> Presentation:
    a = Word.gen(0)
    return Presentation(f"C{n}", ("a",), (a ** n,))


def _product(orders: list[int], name: str) -> Presentation:
    gens = tuple(_GEN_NAMES[i] for i in range(len(orders)))
    rels = [Word.gen(i) ** d for i, d in enumerate(orders)]
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            rels.append(commutator(Word.gen(i), Word.gen(j)))
    return Presentation(name, gens, tuple(rels))


def _dihedral(n: int) -> Presentation:
    a, b = Word.gen(0), Word.gen(1)
    return Presentation(f"D{n}", ("a", "b"), (a ** n, b ** 2, (a * b) ** 2))


def _symmetric(n: int) -> Presentation:
    # a = transposition, b = n-cycle.
    if n == 1:
        return Presentation("S1", ("a",), (Word.gen(0),))
    if n == 2:
        return Presentation("S2", ("a",), (Word.gen(0) ** 2,))
    a, b = Word.gen(0), Word.gen(1)
    rels = [a ** 2, b ** n, (a * b) ** (n - 1), commutator(a, b) ** 3]
    for k in range(2, n // 2 + 1):
        rels.append(commutator(a, b ** k) ** 2)
    return Presentation(f"S{n}", ("a", "b"), tuple(rels))


def _quaternion() -> Presentation:
    a, b = Word.gen(0), Word.gen(1)
    return Presentation("Q8", ("a", "b"),
                        (a ** 4, a ** 2 * b ** -2, ~b * a * b * a))


def _alternating4() -> Presentation:
    a, b = Word.gen(0), Word.gen(1)
    return Presentation("A4", ("a", "b"), (a ** 3, b ** 2, (a * b) ** 3))


def _free(r: int, name: str) -> Presentation:
    gens = tuple(_GEN_NAMES[i] for i in range(r)) if r <= len(_GEN_NAMES) \
        else tuple(f"a{i}" for i in range(r))
    return Presentation(name, gens, ())


def catalog_lookup(name: str) -> CatalogEntry:
    """Resolve a catalog name: C<n>, C<a>xC<b>..., D<n>, S<n> (n <= 5),
    Q8, A4, F<r>, Z."""
    if name == "Z":
        return CatalogEntry("Z", _free(1, "Z"),
                            {"infinite": True, "abelian": True})
    if name == "Q8":
        return CatalogEntry("Q8", _quaternion(),
                            {"order": 8, "abelian": False})
    if name == "A4":
        return CatalogEntry("A4", _alternating4(),
                            {"order": 12, "abelian": False})
    m = _CYCLIC.match(name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise UnknownCatalogName(f"bad cyclic order in {name!r}")
        return CatalogEntry(name, _cyclic(n), {"order": n, "abelian": True})
    if _PRODUCT.match(name):
        orders = [int(s.lstrip("C")) for s in name.split("x")]
        if any(d < 1 for d in orders):
            raise UnknownCatalogName(f"bad factor order in {name!r}")
        return CatalogEntry(name, _product(orders, name),
                            {"order": prod(orders), "abelian": True})
    m = _DIHEDRAL.match(name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise UnknownCatalogName(f"bad dihedral index in {name!r}")
        return CatalogEntry(name, _dihedral(n),
                            {"order": 2 * n, "abelian": n <= 2})
    m = _SYMMETRIC.match(name)
    if m:
        n = int(m.group(1))
        if not 1 <= n <= 5:
            raise UnknownCatalogName(
                f"symmetric groups are cataloged only up to S5, got {name!r}")
        return CatalogEntry(name, _symmetric(n),
                            {"order": factorial(n), "abelian": n <= 2})
    m = _FREE.match(name)
    if m:
        r = int(m.group(1))
        if r < 1:
            raise UnknownCatalogName(f"bad free rank in {name!r}")
        return CatalogEntry(name, _free(r, name),
                            {"infinite": True, "abelian": r == 1})
    raise UnknownCatalogName(f"no catalog entry named {name!r}")


# Canonical corpus driven by the verification suite.  Finite entries are
# kept small enough that every commutator-pairing build stays inside the
# group-order cap (the elementary-abelian cube already pairs to order
# 32768); the lookup grammar still accepts larger names on demand.
CATALOG_CORPUS: tuple[str, ...] = (
    "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12",
    "C2xC2", "C2xC4", "C2xC6", "C3xC3",
    "D3", "D4", "D5", "D6",
    "S3", "A4", "Q8",
    "Z", "F2",
)


def catalog_entries() -> tuple[CatalogEntry, ...]:
    return tuple(catalog_lookup(name) for name in CATALOG_CORPUS)


def finite_corpus() -> tuple[CatalogEntry, ...]:
    return tuple(e for e in catalog_entries() if not e.infinite)


_REALIZED: dict[str, tuple[RealizedGroup, EnumerationStats]] = {}


def realize_entry(entry: CatalogEntry,
                  budget: EnumerationBudget | None = None) -> RealizedGroup:
    """Realize a catalog entry, caching by name.

    Entries flagged infinite are rejected up front: no coset budget can
    complete them, and the error says so instead of spinning.  A cached
    group is returned only when its enumeration fits the budget, so a hit
    raises the BudgetExceeded a fresh enumeration would.
    """
    if entry.infinite:
        raise BudgetExceeded(
            f"catalog entry {entry.name!r} is infinite; "
            "no coset budget can realize it")
    cached = _REALIZED.get(entry.name)
    if cached is not None:
        group, stats = cached
        budget = budget or default_budget()
        if stats.cosets_defined > budget.max_cosets:
            raise budget.cosets_exhausted(stats)
        return group
    group, stats = realize_presentation(entry.presentation, budget)
    order = entry.known_facts.get("order")
    if order is not None and group.order != order:
        raise UnknownCatalogName(
            f"catalog entry {entry.name!r} realized to order {group.order}, "
            f"expected {order}")
    _REALIZED[entry.name] = group, stats
    return group


def realize_name(name: str,
                 budget: EnumerationBudget | None = None) -> RealizedGroup:
    return realize_entry(catalog_lookup(name), budget)
