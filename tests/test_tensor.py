import functools
import sys
from dataclasses import replace
from math import gcd

import numpy as np
import pytest

from ntl.abelian import AbelianInvariants
from ntl.catalog import catalog_lookup
from ntl.errors import (BudgetExceeded, CapExceeded, Incompatible,
                        IncompleteMap, InternalInconsistency,
                        NotActionHomomorphism, NotAutomorphism)
from ntl.coset import (EnumerationBudget, _dedup, budget_scope,
                       realize_presentation, word_letters)
from ntl.coset import CosetTable, _WordSteps
from ntl.groups import (Homomorphism, RealizedGroup, _commutators,
                        _conjugates, _walk_levels, closure, derived_subgroup,
                        section_invariants)
from ntl.parsing import parse_file
from ntl.verification import nu_corpus
from ntl import groups, tensor, verification
from ntl.tensor import (_conjugation_table, _first_non_automorphism,
                        _validate_tables, build_direct, build_eta, build_nu,
                        conjugation_pair, delta, delta_tilde, j2,
                        pairing_relators_hold, tensor_direct, tensor_set,
                        trivial_pair, validate_compatibility)
from ntl.words import Word, commutator, conjugate

from support import (comm, eta_commutators, realize_name, relator_letters,
                     same_tensor_in_table, tensor_in_eta)

SMALL = ["C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "S3", "D4", "Q8"]


def cyc(n):
    return realize_name(f"C{n}")


def _abelianization(s):
    """The invariant factors of the subgroup s, as a group of its own."""
    return section_invariants(s, closure(s.parent, ()))


def square(g):
    """T = G(x)G under conjugation, from the one producer of T."""
    return build_direct(conjugation_pair(g))


def read_action(text):
    """The one action block of `text`, its groups looked up in the
    catalog."""
    _, (spec,) = parse_file(
        text, resolver=lambda n: catalog_lookup(n).presentation)
    return spec


def _s3_a3_pair():
    """S3 and A3 acting on each other by conjugation in S3: the pair whose
    tensor product the pushout of S3 along S3 and A3 reads."""
    s3 = realize_name("S3")
    full = closure(s3, s3.generator_images)
    return tensor._conjugation_pair_between(full, derived_subgroup(s3))


ELEMENT_TRIPLE_BUILDS = {
    **{name: (lambda name=name: build_nu(realize_name(name)))
       for name in ("C4", "C2xC2", "S3", "D4", "Q8")},
    "S3xC2-trivial": lambda: build_eta(trivial_pair(realize_name("S3"),
                                                    cyc(2))),
    "S3|S3,A3-pushout": lambda: build_eta(_s3_a3_pair()),
}


class TestCompatibility:
    @pytest.mark.parametrize("a,b", [("C2", "C3"), ("C4", "C6"),
                                     ("S3", "C2"), ("Q8", "D4")])
    def test_trivial_actions_always_compatible(self, a, b):
        pair = trivial_pair(realize_name(a), realize_name(b))
        assert pair.g.order == realize_name(a).order

    @pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4"])
    def test_conjugation_compatible(self, name):
        g = realize_name(name)
        pair = conjugation_pair(g)
        x, y = 1, 2
        assert int(pair.g_on_h[x, y]) == g.conj(y, x)

    @pytest.mark.parametrize("name", ["S3", "D4", "Q8"])
    def test_conjugation_action_file_matches_conjugation_pair(self, name):
        # Each generator s sends each generator t to s^-1 t s, written out
        # in the action-file grammar.
        g = realize_name(name)
        p = catalog_lookup(name).presentation
        blocks = " ".join(
            f"{s} => ("
            + ", ".join(f"{t} -> {s}^-1 {t} {s}" for t in p.generators)
            + ");" for s in p.generators)
        spec = read_action(
            f"action conj {{ from: {name}; to: {name}; {blocks} }}")
        pair = validate_compatibility(g, g, spec, spec)
        want = conjugation_pair(g)
        assert np.array_equal(pair.g_on_h, want.g_on_h)
        assert np.array_equal(pair.h_on_g, want.h_on_g)

    def test_mutual_squaring_on_c5_incompatible(self):
        g = cyc(5)
        spec = read_action(
            "action sq { from: C5; to: C5; a => (a -> a^2); }")
        with pytest.raises(Incompatible) as err:
            validate_compatibility(g, g, spec, spec)
        # first violating triple is (a, b, a) in element indices
        assert err.value.witness == (1, 1, 1)

    def test_non_automorphism_rejected(self):
        c4 = realize_name("C4")
        c2 = realize_name("C2")
        spec = read_action(
            "action sq { from: C2; to: C4; a => (a -> a^2); }")
        back = read_action(
            "action tr { from: C4; to: C2; a => (a -> a); }")
        with pytest.raises(NotAutomorphism,
                           match="^actions 'sq'/'tr': element 'a' of 'C2' "
                                 "does not act as an automorphism on the "
                                 "right factor$"):
            validate_compatibility(c2, c4, spec, back)

    def test_action_between_other_groups_rejected(self):
        c2, c4 = realize_name("C2"), realize_name("C4")
        there = read_action(
            "action f { from: C2; to: C4; a => (a -> a^-1); }")
        with pytest.raises(IncompleteMap) as err:
            validate_compatibility(c2, c4, there, there)
        assert type(err.value) is IncompleteMap
        assert str(err.value) == ("action 'f' maps 'C2' on 'C4', "
                                  "expected 'C4' on 'C2'")

    def test_non_homomorphic_action_rejected(self):
        # squaring is an automorphism of C5 but a -> squaring is not a
        # C2-action; both compatibility identities nevertheless hold.
        c2, c5 = realize_name("C2"), cyc(5)
        spec = read_action(
            "action sq { from: C2; to: C5; a => (a -> a^2); }")
        back = read_action(
            "action tr { from: C5; to: C2; a => (a -> a); }")
        with pytest.raises(NotActionHomomorphism):
            validate_compatibility(c2, c5, spec, back)


def _loop_verdict(g, h, g_on_h, h_on_g, label):
    """Reference triple loops for the compatibility and action-law checks
    of `_validate_tables`, element by element, in the order that defines
    the reported witness.  Returns which check failed ("left", "right" or
    "action") with its error, or ("accept", None)."""
    for gi in range(g.order):
        for hi in range(h.order):
            for g1 in range(g.order):
                lhs = int(h_on_g[g_on_h[g1, hi], gi])
                rhs = g.conj(int(h_on_g[hi, g.conj(gi, g.inv(g1))]), g1)
                if lhs != rhs:
                    return "left", Incompatible(
                        f"{label}: compatibility fails at "
                        f"({g.element_str(gi)}, {h.element_str(hi)}, "
                        f"{g.element_str(g1)})",
                        witness=(gi, hi, g1))
    for hi in range(h.order):
        for gi in range(g.order):
            for h1 in range(h.order):
                lhs = int(g_on_h[h_on_g[h1, gi], hi])
                rhs = h.conj(int(g_on_h[gi, h.conj(hi, h.inv(h1))]), h1)
                if lhs != rhs:
                    return "right", Incompatible(
                        f"{label}: compatibility fails at "
                        f"({h.element_str(hi)}, {g.element_str(gi)}, "
                        f"{h.element_str(h1)})",
                        witness=(hi, gi, h1))
    for actor, table, what in ((g, g_on_h, "left"), (h, h_on_g, "right")):
        tab = actor.table
        for x in range(actor.order):
            for y in range(actor.order):
                composed = table[y][table[x]]
                if not np.array_equal(table[int(tab[x, y])], composed):
                    return "action", NotActionHomomorphism(
                        f"{label}: the {what} action is not a homomorphism "
                        f"(fails at {actor.element_str(x)}, "
                        f"{actor.element_str(y)})")
    return "accept", None


ACTION_GROUPS = ("C2", "C3", "S3", "D4", "Q8")


def _evaluate(g, w, images):
    """The word w of g with `images` in place of g's generators."""
    out = 0
    for i, e in w.letters:
        x = images[i] if e > 0 else g.inv(images[i])
        for _ in range(abs(e)):
            out = g.mul(out, x)
    return out


@functools.cache
def _automorphisms(name):
    """Every automorphism of a small catalog group, as a permutation,
    found by trying each choice of generator images."""
    g = realize_name(name)
    found = []
    for imgs in np.ndindex(*(g.order,) * len(g.generator_images)):
        perm = np.array([_evaluate(g, w, imgs) for w in g.element_words])
        if _first_non_automorphism(g, perm[None, :]) is None:
            found.append(perm)
    return found


def _perturbed_action_tables(count, seed=0):
    """Action tables of pairs from ACTION_GROUPS: conjugation for a square
    pair, trivial otherwise, with up to two rows on each side replaced by
    random automorphisms, so every row passes the automorphism check."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        gname, hname = rng.choice(ACTION_GROUPS, 2)
        g, h = realize_name(gname), realize_name(hname)
        tables = []
        for actor, target in ((g, h), (h, g)):
            if gname == hname and rng.random() < 0.5:
                table = _conjugation_table(target).copy()
            else:
                table = np.tile(np.arange(target.order), (actor.order, 1))
            auts = _automorphisms(target.name)
            for x in rng.choice(actor.order, rng.integers(0, 3)):
                table[x] = auts[rng.integers(len(auts))]
            tables.append(table)
        yield g, h, tables[0], tables[1]


def _is_automorphism(g, perm):
    """A bijection of g's elements that fixes 0 and every product."""
    return (sorted(perm) == list(range(g.order)) and perm[0] == 0
            and all(perm[g.mul(a, b)] == g.mul(perm[a], perm[b])
                    for a in range(g.order) for b in range(g.order)))


@pytest.mark.parametrize("cells", [1, 97, groups._CELLS])
def test_first_non_automorphism_matches_the_row_loop(monkeypatch, cells):
    """Stacks of automorphisms with random rows, permutations and
    non-bijections among them: the first row the scalar check rejects."""
    monkeypatch.setattr(groups, "_CELLS", cells)
    rng = np.random.default_rng(1)
    seen = set()
    for name in ACTION_GROUPS:
        g = realize_name(name)
        auts = _automorphisms(name)
        for _ in range(30):
            rows = [auts[rng.integers(len(auts))].tolist()
                    for _ in range(rng.integers(1, 7))]
            for x in rng.choice(len(rows), rng.integers(0, 3)):
                rows[x] = (rng.permutation(g.order) if rng.random() < 0.5
                           else rng.integers(0, g.order, g.order)).tolist()
            want = next((x for x, perm in enumerate(rows)
                         if not _is_automorphism(g, perm)), None)
            seen.add(want is None)
            assert _first_non_automorphism(g, np.array(rows)) == want
    assert seen == {True, False}


def test_array_action_checks_match_the_triple_loops():
    """Same verdict, message and witness as the loops, on every case; the
    cases reach each outcome."""
    seen = set()
    for g, h, g_on_h, h_on_g in _perturbed_action_tables(240):
        kind, want = _loop_verdict(g, h, g_on_h, h_on_g, "perturbed")
        seen.add(kind)
        if want is None:
            _validate_tables(g, h, g_on_h, h_on_g, "perturbed")
            continue
        with pytest.raises(type(want)) as err:
            _validate_tables(g, h, g_on_h, h_on_g, "perturbed")
        assert str(err.value) == str(want)
        assert getattr(err.value, "witness", None) == getattr(
            want, "witness", None)
    assert seen == {"accept", "left", "right", "action"}


@pytest.mark.parametrize("cells", [1, 97])
def test_array_action_checks_match_the_triple_loops_in_small_blocks(
        monkeypatch, cells):
    """As above, with one first index per block, or a few."""
    monkeypatch.setattr(groups, "_CELLS", cells)
    test_array_action_checks_match_the_triple_loops()


class TestBuildEta:
    def test_eta_of_trivial_pair(self):
        r = build_eta(trivial_pair(cyc(1), cyc(1)))
        assert r.eta.order == 1
        assert len(r.tensor_cosets) == 1

    def test_nu_c2(self):
        r = build_nu(cyc(2))
        assert r.eta.order == 8
        assert len(r.tensor_cosets) == 2

    def test_nu_c3(self):
        r = build_nu(cyc(3))
        assert r.eta.order == 27
        assert len(r.tensor_cosets) == 3

    def test_eta_c2_c3_trivial(self):
        r = build_eta(trivial_pair(cyc(2), cyc(3)))
        assert r.eta.order == 6
        assert len(r.tensor_cosets) == 1

    def test_nu_s3_decomposition_and_cross_route(self):
        s3 = realize_name("S3")
        r = build_nu(s3)
        t = tensor_in_eta(r)
        assert r.eta.order == t.order * 36
        direct = build_direct(r.pair)
        assert direct.group.order == t.order
        assert direct.group.abelianization() == _abelianization(t)
        assert tensor_direct(r.pair).order == t.order

    def test_embeddings(self):
        g, h = cyc(4), cyc(6)
        r = build_eta(trivial_pair(g, h))
        gens = r.eta.generator_images
        assert Homomorphism(g, r.eta, gens[:4]).is_injective()
        assert Homomorphism(h, r.eta, gens[4:]).is_injective()
        assert tensor_in_eta(r).is_normal()
        assert tuple(r.tensor_cosets.tolist()) == tensor_in_eta(r).members

    @pytest.mark.parametrize("name", ["C3", "S3", "Q8"])
    def test_symbols_are_the_eta_commutators(self, name):
        g = realize_name(name)
        r, t = build_nu(g), square(g)
        incl = _inclusion_in_eta(t, r)
        gens = r.eta.generator_images
        for a in range(g.order):
            for b in range(g.order):
                want = comm(r.eta, gens[a], gens[g.order + b])
                assert incl.images[t.sym[a, b]] == want
                assert r.tensor_cosets[r.commutators[a, b]] == want
        assert incl.is_injective()
        assert incl.image_members() == tensor_in_eta(r).members
        assert not t.sym.flags.writeable
        assert not r.commutators.flags.writeable

    def test_cap(self):
        with pytest.raises(CapExceeded):  # 156 > ETA_SIZE_CAP = 144
            trivial_pair(cyc(13), cyc(12))

    def test_every_pair_builder_checks_the_cap_first(self, monkeypatch):
        def never(*args):
            raise AssertionError("an oversize pair was validated")
        for name in ("_first_incompatible", "_tables_from_spec",
                     "_conjugation_table", "_validate_tables"):
            monkeypatch.setattr(tensor, name, never)
        c400, c13 = cyc(400), cyc(13)
        conj = read_action(
            "action conj { from: C13; to: C13; a => (a -> a); }")
        full = closure(c13, c13.generator_images)
        builds = [lambda: trivial_pair(c400, c400),
                  lambda: validate_compatibility(c13, c13, conj, conj),
                  lambda: conjugation_pair(c13),
                  lambda: tensor._conjugation_pair_between(full, full)]
        for build in builds:
            with pytest.raises(CapExceeded, match="exceeds the build cap"):
                build()

    def test_fault_flag_diverges(self):
        pair = trivial_pair(cyc(2), cyc(2))
        with pytest.raises(BudgetExceeded), \
                budget_scope(EnumerationBudget(max_cosets=500)):
            build_eta(pair, skip_pairing_relators=True)

    def test_fault_flag_harmless_on_trivial_factor(self):
        pair = trivial_pair(cyc(1), cyc(4))
        r = build_eta(pair, skip_pairing_relators=True)
        assert r.eta.order == 4

    def test_fault_flag_keeps_the_certificate(self, monkeypatch):
        # The faulted build is certified like any other, so a certificate
        # that rejects it must raise even where the fault is harmless.
        monkeypatch.setattr(tensor, "pairing_relators_hold",
                            lambda pair, eta: False)
        with pytest.raises(InternalInconsistency,
                           match="pairing relator fails"):
            build_eta(trivial_pair(cyc(1), cyc(4)),
                      skip_pairing_relators=True)

    @pytest.mark.parametrize("build", ELEMENT_TRIPLE_BUILDS)
    def test_element_pairing_relators_hold(self, build):
        # Word-level evaluation of every element-triple pairing relator,
        # none of which is in the enumerated presentation.
        r = ELEMENT_TRIPLE_BUILDS[build]()
        g, h = r.pair.g, r.pair.h

        def x(a):
            return Word.gen(a)

        def y(b):
            return Word.gen(g.order + b)

        for a in range(g.order):
            for b in range(h.order):
                c = commutator(x(a), y(b))
                for u in range(g.order):
                    rhs = commutator(x(g.conj(a, u)),
                                     y(int(r.pair.g_on_h[u, b])))
                    assert r.eta.evaluate(conjugate(c, x(u)) * ~rhs) == 0
                for v in range(h.order):
                    rhs = commutator(x(int(r.pair.h_on_g[v, a])),
                                     y(h.conj(b, v)))
                    assert r.eta.evaluate(conjugate(c, y(v)) * ~rhs) == 0
        assert pairing_relators_hold(r.pair, r.table)

    def test_certificate_rejects_foreign_actions(self):
        s3 = realize_name("S3")
        r = build_nu(s3)
        assert not pairing_relators_hold(trivial_pair(s3, s3), r.table)

    def test_failed_certificate_is_an_internal_inconsistency(self,
                                                             monkeypatch):
        monkeypatch.setattr("ntl.tensor.pairing_relators_hold",
                            lambda pair, eta: False)
        with pytest.raises(InternalInconsistency, match="pairing relator"):
            build_nu(cyc(2))


def _nonidentity_first_commutator(base, a, b):
    """The commutators [a, b], except that [1, 1] is a nonidentity
    element."""
    want = _commutators(base, a, b)
    want[0, 0] = 1
    return want


# Each fault replaces one function that a branch of `build_eta`'s
# certificate or of `_derived_map` reads; the build must raise that
# branch's InternalInconsistency.
CERTIFICATE_FAULTS = {
    "eta-decomposition": (
        build_nu, tensor, "subgroup_cosets",
        lambda t, words: np.zeros(1, dtype=np.int64),
        r"^nu\(S3\): order 216 breaks the semidirect decomposition 1\*6\*6$"),
    "derived-symbols": (
        square, tensor, "_commutators", _nonidentity_first_commutator,
        r"^the derived map does not send a\(x\)b to \[a, b\]$"),
    "derived-image": (
        square, tensor, "commutator_subgroup",
        lambda m, n: closure(m.parent, []),
        r"^derived-map image differs from the commutator subgroup$"),
}


@pytest.mark.parametrize("fault", CERTIFICATE_FAULTS)
def test_every_certificate_branch_can_fire(fault, monkeypatch):
    build, owner, name, replacement, message = CERTIFICATE_FAULTS[fault]
    s3 = realize_name("S3")
    monkeypatch.setattr(owner, name, replacement)
    with pytest.raises(InternalInconsistency, match=message):
        build(s3)


def _opposite_left_factor(e):
    """nu(S3)'s pair with G's table transposed: the opposite group, whose
    products the embedding of G in eta does not respect."""
    g = e.pair.g
    op = RealizedGroup(f"{g.name}op", g.table.T, g.generator_images)
    return replace(e.pair, g=op), e.table


def _action_on_cosets(e, members):
    """eta acting on the right cosets K y of the subgroup K = `members`,
    read off eta's table: coset i is the one of the i-th least
    representative, so K itself is coset 0."""
    eta = e.eta
    label = eta.table[np.asarray(members)[:, None], np.arange(eta.order)]
    reps, index = np.unique(label.min(axis=0), return_inverse=True)
    rows = index[e.table.rows[reps]].astype(np.int32)
    return CosetTable(rows, e.table.presentation)


def _cosets_of_the_left_factor(e):
    """eta acting on the 36 right cosets of its copy of S3, which is not
    normal: a transitive action that closes every relator, not regular."""
    g_images = e.eta.generator_images[:e.pair.g.order]
    k = closure(e.eta, g_images)
    assert not k.is_normal()
    return e.pair, _action_on_cosets(e, k.members)


# Each fault replaces one input that a branch of `tensor._certify` reads,
# the pair or the coset table; the branch must raise.
ETA_CERTIFICATE_FAULTS = {
    "regularity": (_cosets_of_the_left_factor,
                   r"^coset table is not a regular representation$"),
    "embedding": (_opposite_left_factor,
                  r"^nu\(S3\): factor embeddings are not injective "
                  r"homomorphisms$"),
    "pairing-relator": (
        lambda e: (trivial_pair(e.pair.g, e.pair.g), e.table),
        r"^nu\(S3\): an element-triple pairing relator fails$"),
}


@pytest.mark.parametrize("fault", ETA_CERTIFICATE_FAULTS)
def test_every_branch_of_the_eta_certificate_can_fire(fault):
    e = build_nu(realize_name("S3"))
    commutators, cosets = tensor._certify("nu(S3)", e.pair, e.table)
    assert np.array_equal(commutators, e.commutators)
    assert np.array_equal(cosets, e.tensor_cosets)
    replaced, message = ETA_CERTIFICATE_FAULTS[fault]
    with pytest.raises(InternalInconsistency, match=message):
        tensor._certify("nu(S3)", *replaced(e))


@pytest.mark.parametrize("build", ELEMENT_TRIPLE_BUILDS)
def test_the_commutator_identity_makes_t_normal(build):
    """`build_eta` checks no normality of T, by the identity
    [gx, h] = [g, h]^x [x, h]: conjugation by an element of G (or of H~)
    sends [g, h~] to a product of two commutators or their inverses.  Read
    off eta's table, both forms hold on every element triple, and T is
    normal."""
    e = ELEMENT_TRIPLE_BUILDS[build]()
    eta, g, h = e.eta, e.pair.g, e.pair.h
    tab, inv = eta.table, eta.inverse
    gens = np.asarray(eta.generator_images, dtype=np.int64)
    eg, eh = gens[:g.order], gens[g.order:]
    c = eta_commutators(e)
    a = np.arange(g.order)[None, :, None]
    b = np.arange(h.order)[None, None, :]
    x = np.arange(g.order)[:, None, None]
    y = np.arange(h.order)[:, None, None]
    # [a, b~]^x = [ax, b~] [x, b~]^-1, indexed [x, a, b]
    assert np.array_equal(_conjugates(eta, eg, c),
                          tab[c[g.table[a, x], b], inv[c[x, b]]])
    # [a, b~]^(y~) = [a, y~]^-1 [a, (by)~], indexed [y, a, b]
    assert np.array_equal(_conjugates(eta, eh, c),
                          tab[inv[c[a, y]], c[a, h.table[b, y]]])
    assert tensor_in_eta(e).is_normal()


ROUTE_PAIRS = {
    **{name: (lambda name=name: conjugation_pair(realize_name(name)))
       for name in ("S3", "Q8", "D4", "A4", "C2xC4")},
    "C4xC6-trivial": lambda: trivial_pair(cyc(4), cyc(6)),
    "S3|S3,A3-pushout": _s3_a3_pair,
}


@pytest.mark.parametrize("pair", ROUTE_PAIRS)
def test_the_routes_give_one_object(pair):
    pair = ROUTE_PAIRS[pair]()
    e, direct = build_eta(pair), build_direct(pair)
    assert tensor.same_tensor(direct, e)
    assert e.tensor_count_m == len(tensor_set(direct))


def _swap_first_commutator(e):
    """[1, 1~] and the first commutator that is not the identity
    exchanged: the identity symbol 1(x)1 must go elsewhere."""
    c = e.commutators.copy().ravel()
    k = int(np.flatnonzero(c)[0])
    c[0], c[k] = c[k], c[0]
    return replace(e, commutators=c.reshape(e.commutators.shape))


def _swap_two_elements_of_g(e):
    """The columns of G's elements 1 and 2 exchanged in eta's coset table:
    each [a, b~] is traced as the commutator of the other element, and no
    homomorphism out of T gives those images."""
    rows = e.table.rows.copy()
    rows[:, [2, 3, 4, 5]] = rows[:, [4, 5, 2, 3]]
    return replace(e, table=CosetTable(rows, e.table.presentation))


# Trivial-action pairs whose eta the oracle below realizes, and two pairs
# whose T differ, where both routes must say no.
ORACLE_PAIRS = {
    **{f"{a}x{b}": (lambda a=a, b=b: trivial_pair(realize_name(a),
                                                  realize_name(b)))
       for a, b in (("C2", "C2"), ("C4", "C6"), ("S3", "C2"), ("Q8", "C2"),
                    ("C3", "C3"), ("C1", "C5"), ("D4", "C3"))},
    "S3|S3,A3-pushout": _s3_a3_pair,
}
MISMATCHED = {"S3-trivial-vs-nu": ("S3", lambda g: trivial_pair(g, g)),
              "D4-trivial-vs-nu": ("D4", lambda g: trivial_pair(g, g))}


def _assert_the_coset_route_matches_the_table(e, r):
    """The commutators, T's members and the `same_tensor` verdict read off
    eta's coset table equal those read off its realized table."""
    assert np.array_equal(e.tensor_cosets[e.commutators], eta_commutators(e))
    assert tuple(e.tensor_cosets.tolist()) == tensor_in_eta(e).members
    verdict = tensor.same_tensor(r, e)
    assert verdict == same_tensor_in_table(r, e)
    return verdict


@pytest.mark.parametrize("name", [e.name for e in nu_corpus()])
def test_the_coset_route_matches_the_table_on_every_nu_group(name):
    e = build_nu(realize_name(name))
    assert _assert_the_coset_route_matches_the_table(e, build_direct(e.pair))


@pytest.mark.parametrize("pair", ORACLE_PAIRS)
def test_the_coset_route_matches_the_table_on_named_pairs(pair):
    pair = ORACLE_PAIRS[pair]()
    e = build_eta(pair)
    assert _assert_the_coset_route_matches_the_table(e, build_direct(pair))


@pytest.mark.parametrize("case", MISMATCHED)
def test_the_routes_say_no_alike_where_t_differs(case):
    name, other = MISMATCHED[case]
    g = realize_name(name)
    e = build_nu(g)
    assert not _assert_the_coset_route_matches_the_table(
        e, build_direct(other(g)))


def _one_more_tensor_coset(e):
    """A coset outside T added to T's cosets, the commutators renumbered
    so that each keeps its coset: every symbol goes where it went, but the
    images are not all of those cosets."""
    cosets = e.tensor_cosets
    outside = np.setdiff1d(np.arange(e.table.coset_count), cosets)
    more = np.union1d(cosets, outside[:1])
    return replace(e, tensor_cosets=more,
                   commutators=np.searchsorted(more, cosets[e.commutators]))


# Each fault breaks one conjunct of `same_tensor`: the map out of T is a
# homomorphism, it sends each a(x)b to [a, b~], it is injective (eta of
# the trivial actions, whose T is a proper quotient of nu(S3)'s) and it is
# onto T's cosets.
SAME_TENSOR_FAULTS = {
    "homomorphism": _swap_two_elements_of_g,
    "symbol-images": _swap_first_commutator,
    "injectivity": lambda e: build_eta(trivial_pair(e.pair.g, e.pair.h)),
    "image": _one_more_tensor_coset,
}


@pytest.mark.parametrize("fault", SAME_TENSOR_FAULTS)
def test_every_conjunct_of_same_tensor_can_fail(fault):
    e = build_nu(realize_name("S3"))
    r = build_direct(e.pair)
    assert tensor.same_tensor(r, e)
    assert tensor.same_tensor(r, SAME_TENSOR_FAULTS[fault](e)) is False


def _loop_relators(pair):
    """The biadditivity relators written out one symbol triple at a time,
    in the order `tensor._direct_relators` gives them."""
    g, h = pair.g, pair.h
    nh = h.order

    def t(a, b):
        return a * nh + b

    out = []
    for a in range(g.order):
        for a2 in range(g.order):
            for b in range(nh):
                out.append(Word.of(((t(g.mul(a, a2), b), -1),
                                    (t(g.conj(a, a2),
                                       int(pair.g_on_h[a2, b])), 1),
                                    (t(a2, b), 1))))
    for a in range(g.order):
        for b in range(nh):
            for b2 in range(nh):
                out.append(Word.of(((t(a, h.mul(b, b2)), -1),
                                    (t(a, b2), 1),
                                    (t(int(pair.h_on_g[b2, a]),
                                       h.conj(b, b2)), 1))))
    return tuple(out)


def _inversion_pair():
    """C4 and C6 acting on each other by inversion, from action files."""
    c4, c6 = cyc(4), cyc(6)
    there = read_action("action f { from: C4; to: C6; a => (a -> a^-1); }")
    back = read_action("action b { from: C6; to: C4; a => (a -> a^-1); }")
    return validate_compatibility(c4, c6, there, back)


def test_built_groups_are_not_walked_again(monkeypatch):
    """Element words, the action tables of an action file, the derived
    map and the route comparison read the walk each group kept when it
    was built: none of these groups' tables is walked again.  (The derived
    map's image check walks the commutator subgroup in the ambient group,
    a closure.)  The route comparison realizes no group either: it reads
    T's walk and traces through eta's coset table.  `build_direct` walks
    only T's coset table, and keeps that walk, and one profile of the
    acceptance battery walks eta's coset table by the commutators once,
    for T's cosets."""
    s3 = realize_presentation(catalog_lookup("S3").presentation)[0]
    c4, c6 = cyc(4), cyc(6)
    there = read_action("action f { from: C4; to: C6; a => (a -> a^-1); }")
    back = read_action("action b { from: C6; to: C4; a => (a -> a^-1); }")
    r = square(realize_name("S3"))
    e = build_nu(r.pair.g)
    walk, walked = groups._walk_levels, []
    init, built = RealizedGroup.__init__, []

    def counted_init(self, name, *args, **kwargs):
        built.append(name)
        init(self, name, *args, **kwargs)

    monkeypatch.setattr(RealizedGroup, "__init__", counted_init)

    def counted(table, steps):
        walked.append(table)
        return walk(table, steps)

    for name, module in list(sys.modules.items()):
        if name.startswith("ntl.") and hasattr(module, "_walk_levels"):
            monkeypatch.setattr(module, "_walk_levels", counted)
    assert len(s3.element_words) == 6
    validate_compatibility(c4, c6, there, back)
    assert tensor._derived_map(r.pair, r.group, r.sym) is not None
    assert walked  # the closures
    assert not any(table is g.table for table in walked
                   for g in (s3, c4, c6, r.group))
    walked.clear()
    built.clear()
    assert tensor.same_tensor(r, e)
    assert (walked, built) == ([], [])
    for pair in (trivial_pair(c4, c6), r.pair):
        direct = build_direct(pair)
        ng, nh = pair.g.order, pair.h.order
        # the coset table, one column per generator and inverse
        assert walked[0].shape == (direct.group.order, 2 * ng * nh)
        if pair.ambient is None:
            assert len(walked) == 1
        else:  # the derived map's image check: closures in the ambient
            assert all(table is pair.ambient[0].table
                       for table in walked[1:])
        walked.clear()
    assert verification._profile("S3", r.pair).routes_agree
    assert sum(isinstance(table, _WordSteps) for table in walked) == 1


def _assert_direct_relators_match_the_triple_loops(pair):
    """`_direct_relators` gives the triple loops' words as the enumerator
    flattens a presentation: letters, and first occurrences in order."""
    built = tensor._direct_relators(pair)
    assert built.ngens == pair.g.order * pair.h.order
    assert relator_letters(built) == _dedup(
        [word_letters(w) for w in _loop_relators(pair)])
    return built


@pytest.mark.parametrize("pair", [
    lambda: conjugation_pair(realize_name("S3")),
    lambda: trivial_pair(cyc(4), cyc(6)),
    _inversion_pair], ids=["S3-conjugation", "C4xC6-trivial", "C4xC6-file"])
def test_direct_relators_match_the_triple_loops(pair):
    pair = pair()
    built = _assert_direct_relators_match_the_triple_loops(pair)
    # the relators in which X = Y merge are built, and repeats dropped
    assert 1 in np.diff(built.ends, prepend=0)
    ng, nh = pair.g.order, pair.h.order
    assert built.ends.size < ng * nh * (ng + nh)


def test_direct_relators_match_the_triple_loops_on_every_corpus_pair():
    """Every nu-corpus group under conjugation and every trivial-action
    pair Cm, Cn with m, n <= 12: the pairs `ntl verify` builds T of."""
    for entry in nu_corpus():
        _assert_direct_relators_match_the_triple_loops(
            conjugation_pair(realize_name(entry.name)))
    for m in range(1, 13):
        for n in range(1, 13):
            _assert_direct_relators_match_the_triple_loops(
                trivial_pair(cyc(m), cyc(n)))


@pytest.mark.parametrize("pair", [
    lambda: conjugation_pair(realize_name("S3")),
    lambda: trivial_pair(cyc(4), cyc(6))], ids=["nu-S3", "C4xC6-trivial"])
def test_build_direct_makes_no_word_and_realizes_t_once(pair, monkeypatch):
    """The biadditivity relators go to the enumerator as letters, never as
    words, and the group the enumeration realizes is T itself."""
    pair = pair()
    made = {Word: 0, groups.RealizedGroup: 0}
    for cls in made:
        def counted(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            made[_cls] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    r = build_direct(pair)
    assert made == {Word: 0, groups.RealizedGroup: 1}
    assert r.group.name == f"tensor({pair.g.name},{pair.h.name})"
    assert r.group.source_presentation is None


class TestTensorDirect:
    def test_c2_c2(self):
        assert tensor_direct(trivial_pair(cyc(2), cyc(2))).order == 2

    def test_c6_c4(self):
        assert tensor_direct(trivial_pair(cyc(6), cyc(4))).order == 2

    def test_trivial_factor(self):
        assert tensor_direct(trivial_pair(cyc(1), realize_name("S3"))).order \
            == 1

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_abelian_reduction_both_routes(self, m, n):
        pair = trivial_pair(cyc(m), cyc(n))
        r = build_eta(pair)
        direct = tensor_direct(pair)
        want = AbelianInvariants.from_cyclic_orders([m]).tensor(
            AbelianInvariants.from_cyclic_orders([n]))
        assert len(r.tensor_cosets) == (want.order() or 0)
        assert direct.order == (want.order() or 0)
        assert _abelianization(tensor_in_eta(r)) == want
        assert direct.abelianization() == want

    def test_nonabelian_pair_reduces_to_abelianizations(self):
        s3 = realize_name("S3")
        pair = trivial_pair(s3, s3)
        r = build_direct(pair)
        want = s3.abelianization().tensor(s3.abelianization())
        assert r.group.abelianization() == want


class TestTensorSet:
    def test_trivial_pair_single_tensor(self):
        r = build_direct(trivial_pair(cyc(1), cyc(1)))
        assert len(tensor_set(r)) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cyclic_count_matches_bilinear_image(self, n):
        r = square(cyc(n))
        oracle = len({(i * j) % n for i in range(n) for j in range(n)})
        assert len(tensor_set(r)) == oracle == n

    @pytest.mark.parametrize("name", SMALL)
    def test_subset_bound_and_generation(self, name):
        g = realize_name(name)
        r, e = square(g), build_nu(g)
        ts = tensor_set(r)
        assert len(ts) <= r.group.order
        regen = closure(r.group, r.sym.ravel())
        assert regen.order == r.group.order
        incl = _inclusion_in_eta(r, e)
        assert closure(e.eta, incl.images[list(ts)]).members == \
            tensor_in_eta(e).members

    def test_witnesses_evaluate_back(self):
        s3 = realize_name("S3")
        r, e = square(s3), build_nu(s3)
        ts = tensor_set(r)
        incl = _inclusion_in_eta(r, e)
        gens = e.eta.generator_images
        for elt, (a, b) in ts.items():
            assert int(r.sym[a, b]) == elt
            got = comm(e.eta, gens[a], gens[6 + b])
            assert got == incl.images[elt]
        # in row-major order of first witness, from 1(x)1 = 1
        assert list(ts.values()) == sorted(ts.values())
        assert next(iter(ts)) == 0
        for a in range(6):
            for b in range(6):
                assert ts[int(r.sym[a, b])] <= (a, b)


class TestDerivedMap:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_cyclic_kernel_is_everything(self, n):
        r = square(cyc(n))
        sub = j2(r)
        assert sub.order == r.group.order == n

    def test_s3_kernel_index(self):
        r = square(realize_name("S3"))
        assert r.group.order == j2(r).order * 3

    def test_trivial_group(self):
        r = square(cyc(1))
        assert j2(r).order == 1

    def test_kappa_image_is_derived_subgroup(self):
        s3 = realize_name("S3")
        r = square(s3)
        assert sorted(r.derived.image_members()) == \
            list(derived_subgroup(s3).members)
        for a in range(s3.order):
            for b in range(s3.order):
                assert r.derived.images[r.sym[a, b]] == comm(s3, a, b)

    def test_direct_route_derived_map_matches(self):
        s3 = realize_name("S3")
        r = build_direct(conjugation_pair(s3))
        assert r.derived.image_members() == derived_subgroup(s3).members
        assert j2(r).order == len(build_nu(s3).tensor_cosets) // 3

    def test_kappa_needs_based_build(self):
        r = build_direct(trivial_pair(cyc(2), cyc(3)))
        assert r.derived is None
        with pytest.raises(InternalInconsistency):
            j2(r)


class TestDiagonals:
    def test_delta_c2_is_c2(self):
        r = square(cyc(2))
        assert delta(r).order == 2

    def test_delta_tilde_c2_trivial(self):
        r = square(cyc(2))
        assert delta_tilde(r).order == 1

    def test_delta_trivial_group(self):
        r = square(cyc(1))
        assert delta(r).order == 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_cyclic_diagonals_match_bilinear_values(self, n):
        r = square(cyc(n))
        # [i, j~] has bilinear value i*j; the diagonal is generated by the
        # squares, the symmetrized diagonal by the doubled products.
        sq = {(i * i) % n for i in range(n)}
        dbl = {(2 * i * j) % n for i in range(n) for j in range(n)}
        want_delta = len({(k * s) % n for s in _span(sq, n) for k in [1]})
        assert delta(r).order == len(_span(sq, n))
        assert delta_tilde(r).order == len(_span(dbl, n))
        assert want_delta == delta(r).order

    @pytest.mark.parametrize("name", SMALL)
    def test_normal_and_nested(self, name):
        r = square(realize_name(name))
        jsub, dsub, dtsub = j2(r), delta(r), delta_tilde(r)
        assert set(dtsub.members) <= set(jsub.members)
        assert set(dsub.members) <= set(range(r.group.order))
        assert jsub.is_normal()
        assert dsub.is_normal()
        assert dtsub.is_normal()


def _walk(table, steps):
    """`_walk_levels`' tree as a flat edge list in discovery order: (vertex,
    parent, index in `steps` of the step that reached it)."""
    return [(x, p, s) for level in _walk_levels(table, steps)
            for v, ps, s in level for x, p in zip(v.tolist(), ps.tolist())]


def _inclusion_in_eta(r, e):
    """The inclusion of T, as `build_direct` gives it, into eta,
    a(x)b |-> [a, b~]: spread from the symbols along T's walk, as the
    derived map is, and verified as a homomorphism."""
    gens = e.eta.generator_images
    ng, nh = r.sym.shape
    want = {}
    for a in range(ng):
        for b in range(nh):
            want.setdefault(int(r.sym[a, b]),
                            comm(e.eta, gens[a], gens[ng + b]))
    steps = list(want)
    images = np.zeros(r.group.order, dtype=np.int64)
    for x, p, i in _walk(r.group.table, steps):
        images[x] = e.eta.mul(int(images[p]), want[steps[i]])
    return Homomorphism(r.group, e.eta, images)


def _span(values, n):
    """Additive subgroup of Z/n generated by a set of residues."""
    from math import gcd
    g = n
    for v in values:
        g = gcd(g, v)
    if g == 0:
        return {0}
    return {x for x in range(n) if x % g == 0}


class TestOracle:
    def test_known_values(self):
        c = AbelianInvariants.from_cyclic_orders
        assert c([4]).tensor(c([6])) == c([2])
        assert c([2, 2]).tensor(c([2, 2])).factors == (2, 2, 2, 2)
        assert c([0]).tensor(c([7])) == c([7])
