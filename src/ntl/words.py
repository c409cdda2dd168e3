"""Words and finite presentations over named generator alphabets."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable

from .errors import UnknownGenerator

# A letter is (generator index, nonzero exponent).
Letter = tuple[int, int]


def _merge_letters(pairs: Iterable[Letter]) -> tuple[Letter, ...]:
    out: list[list[int]] = []
    for g, e in pairs:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            out[-1][1] += e
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([g, e])
    return tuple((g, e) for g, e in out)


@dataclass(frozen=True)
class Word:
    """Product of generator powers; the empty word is the identity."""

    letters: tuple[Letter, ...] = ()

    @staticmethod
    def of(pairs: Iterable[Letter]) -> "Word":
        """Build a word, merging adjacent equal generators and dropping
        zero exponents (no free cancellation across distinct generators)."""
        return Word(_merge_letters(pairs))

    @staticmethod
    def gen(index: int, exponent: int = 1) -> "Word":
        return Word.of([(index, exponent)])

    def __mul__(self, other: "Word") -> "Word":
        return Word.of(self.letters + other.letters)

    def __invert__(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, k: int) -> "Word":
        """By repeated squaring, so a^k costs O(log k) products."""
        if k < 0:
            return (~self) ** (-k)
        out, base = Word(), self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def length(self) -> int:
        return sum(abs(e) for _, e in self.letters)

    def exponent_row(self, ngens: int) -> list[int]:
        """Total exponent per generator (the abelianized image)."""
        row = [0] * ngens
        for g, e in self.letters:
            row[g] += e
        return row


def conjugate(w: Word, by: Word) -> Word:
    return ~by * w * by


def commutator(a: Word, b: Word) -> Word:
    return ~a * ~b * a * b


@dataclass(frozen=True)
class Presentation:
    """Finite presentation: named generators plus relator words."""

    name: str
    generators: tuple[str, ...]
    relators: tuple[Word, ...] = ()

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise UnknownGenerator(
                f"duplicate generator name in presentation {self.name!r}")
        ngens = len(self.generators)
        # One pass over every letter; the offending letter is looked up
        # only on failure.
        used = set(map(itemgetter(0), chain.from_iterable(
            w.letters for w in self.relators)))
        if not used <= set(range(ngens)):
            g = next(g for w in self.relators for g, _ in w.letters
                     if not 0 <= g < ngens)
            raise UnknownGenerator(
                f"relator references generator index {g} "
                f"but {self.name!r} has only {ngens} generators")

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def word_str(self, w: Word) -> str:
        if not w.letters:
            return "1"
        parts = []
        for g, e in w.letters:
            name = self.generators[g]
            parts.append(name if e == 1 else f"{name}^{e}")
        return " ".join(parts)

