"""Helpers the tests share: catalog groups by name, the relators of a
letter form as tuples, the commutator read off a group's table one product
at a time, eta's certificate read off its multiplication table, and the
HLT pass in pure Python as the reference for the compiled one."""

import numpy as np

from ntl.catalog import catalog_lookup, realize_entry
from ntl.coset import EnumerationBudget, EnumerationStats, Relators
from ntl.errors import InternalInconsistency
from ntl.groups import Homomorphism, _commutators, _conjugates, closure
from ntl.tensor import _conjugation_table
from ntl.words import Presentation


def realize_name(name: str):
    """The catalog group `name`, realized as every command realizes it."""
    return realize_entry(catalog_lookup(name))


def relator_letters(relators: Relators) -> list[tuple[int, ...]]:
    """The relators of a letter form, one tuple of column letters each."""
    letters, ends = relators.letters.tolist(), relators.ends.tolist()
    return [tuple(letters[a:b]) for a, b in zip([0, *ends], ends)]


def comm(g, x: int, y: int) -> int:
    """[x, y] = x^-1 y^-1 x y in the realized group g."""
    t, inv = g.table, g.inverse
    return int(t[t[inv[x], inv[y]], t[x, y]])


def eta_commutators(e):
    """The commutators [a, b~], indexed [a, b], read off eta's realized
    table `e.eta`, whose generators are the element generators of G, then
    those of H."""
    ng = e.pair.g.order
    gens = np.asarray(e.eta.generator_images, dtype=np.int64)
    return _commutators(e.eta, gens[:ng], gens[ng:])


def tensor_in_eta(e):
    """The subgroup T of `e.eta` that the commutators generate."""
    return closure(e.eta, eta_commutators(e).ravel())


def pairing_relators_hold_in_table(pair, eta) -> bool:
    """Both pairing families on every element triple, each conjugate read
    off eta's multiplication table, as the certificate read them before it
    traced them through the coset table."""
    ng = pair.g.order
    gens = np.asarray(eta.generator_images, dtype=np.int64)
    eg, eh = gens[:ng], gens[ng:]
    comms = _commutators(eta, eg, eh)
    for by, a_to, b_to in (
            (eg, _conjugation_table(pair.g)[:, :, None],
             pair.g_on_h[:, None, :]),
            (eh, pair.h_on_g[:, :, None],
             _conjugation_table(pair.h)[:, None, :])):
        if not np.array_equal(_conjugates(eta, by, comms),
                              comms[a_to, b_to]):
            return False
    return True


def same_tensor_in_table(r, e) -> bool:
    """The route comparison read off `e.eta`: each generator a(x)b of T
    goes to [a, b~] for the first (a, b) in row-major order that names
    it, and each element of T to the product of its word's images
    (`element_words`) in eta's table.  That map must be a homomorphism
    (`groups.Homomorphism`) that sends every a(x)b to [a, b~], injective
    and onto the T that `e.eta` holds."""
    want = eta_commutators(e)
    first = {}
    for (a, b), s in np.ndenumerate(r.sym):
        first.setdefault(int(s), int(want[a, b]))
    gens = [first[s] for s in r.group.generator_images]
    images = []
    for word in r.group.element_words:
        x = 0
        for g, k in word.letters:
            x = e.eta.mul(x, e.eta.power(gens[g], k))
        images.append(x)
    try:
        f = Homomorphism(r.group, e.eta, images)
    except InternalInconsistency:
        return False
    return (np.array_equal(f.images[r.sym], want) and f.is_injective()
            and f.image_members() == tensor_in_eta(e).members)


class ReferenceEnumerator:
    """The HLT pass in pure Python, statement for statement what
    `src/ntl/_hlt.c` does: the reference the kernel must match row for row
    and count for count, budget exhaustion included.  It reads the coset
    budget only, never a deadline.  It reads the letter form the kernel
    reads, which a presentation is flattened into as the enumerator
    flattens it."""

    def __init__(self, p: Presentation | Relators, max_cosets: int):
        self.width = 2 * p.ngens
        self.relators = relator_letters(
            p if isinstance(p, Relators) else Relators.of(p))
        self.budget = EnumerationBudget(max_cosets=max_cosets)
        self.tab: list[list[int]] = [[-1] * self.width]
        self.uf: list[int] = [0]
        self.n_defined = 1
        self.n_alive = 1
        self.n_coincidences = 0

    def _find(self, c: int) -> int:
        uf = self.uf
        r = c
        while uf[r] != r:
            r = uf[r]
        while uf[c] != r:
            uf[c], c = r, uf[c]
        return r

    def _define(self, alpha: int, x: int) -> int:
        beta = len(self.tab)
        row = [-1] * self.width
        row[x ^ 1] = alpha
        self.tab.append(row)
        self.uf.append(beta)
        self.tab[alpha][x] = beta
        self.n_defined += 1
        self.n_alive += 1
        if self.n_defined > self.budget.max_cosets:
            raise self.budget.cosets_exhausted(self._stats())
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

    def run(self) -> tuple[np.ndarray, EnumerationStats]:
        """The live rows renumbered 0.. in index order, and the stats."""
        self._hlt_pass()
        live = [c for c, r in enumerate(self.uf) if r == c]
        renum = {c: k for k, c in enumerate(live)}
        rows = np.array([[renum[d] for d in self.tab[c]] for c in live],
                        dtype=np.int32).reshape(len(live), self.width)
        return rows, self._stats(final=len(live))

    def _stats(self, final: int | None = None) -> EnumerationStats:
        return EnumerationStats(
            cosets_defined=self.n_defined,
            cosets_final=self.n_alive if final is None else final,
            coincidences=self.n_coincidences)
