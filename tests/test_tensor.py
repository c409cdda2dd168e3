import functools
from math import gcd

import numpy as np
import pytest

from ntl.abelian import AbelianInvariants
from ntl.catalog import catalog_lookup, realize_name
from ntl.errors import (BudgetExceeded, CapExceeded, Incompatible,
                        InternalInconsistency, NotActionHomomorphism,
                        NotAutomorphism)
from ntl.coset import EnumerationBudget, budget_scope
from ntl.groups import Homomorphism, _walk, closure, derived_subgroup
from ntl.parsing import parse_file
from ntl import tensor
from ntl.tensor import (_conjugation_table, _first_non_automorphism,
                        _validate_tables, build_direct, build_eta, build_nu,
                        conjugation_pair, delta, delta_tilde, j2,
                        pairing_relators_hold, tensor_direct, tensor_set,
                        trivial_pair, validate_compatibility)
from ntl.words import Word, commutator, conjugate

SMALL = ["C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "S3", "D4", "Q8"]


def cyc(n):
    return realize_name(f"C{n}")


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


@functools.cache
def _automorphisms(name):
    """Every automorphism of a small catalog group, as a permutation,
    found by trying each choice of generator images."""
    g = realize_name(name)
    found = []
    for imgs in np.ndindex(*(g.order,) * len(g.generator_images)):
        perm = np.array([g.evaluate(w, imgs) for w in g.element_words])
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


class TestBuildEta:
    def test_eta_of_trivial_pair(self):
        r = build_eta(trivial_pair(cyc(1), cyc(1)))
        assert r.eta.order == 1
        assert r.group.order == 1

    def test_nu_c2(self):
        r = build_nu(cyc(2))
        assert r.eta.order == 8
        assert r.group.order == 2

    def test_nu_c3(self):
        r = build_nu(cyc(3))
        assert r.eta.order == 27
        assert r.group.order == 3

    def test_eta_c2_c3_trivial(self):
        r = build_eta(trivial_pair(cyc(2), cyc(3)))
        assert r.eta.order == 6
        assert r.group.order == 1

    def test_nu_s3_decomposition_and_cross_route(self):
        s3 = realize_name("S3")
        r = build_nu(s3)
        assert r.eta.order == r.group.order * 36
        direct = build_direct(r.pair)
        assert direct.eta is None
        assert direct.group.order == r.group.order
        assert direct.group.abelianization() == r.group.abelianization()
        assert tensor_direct(r.pair).order == r.group.order

    def test_embeddings(self):
        g, h = cyc(4), cyc(6)
        r = build_eta(trivial_pair(g, h))
        gens = r.eta.generator_images
        assert Homomorphism(g, r.eta, gens[:4]).is_injective()
        assert Homomorphism(h, r.eta, gens[4:]).is_injective()
        assert _tensor_in_eta(r).is_normal()

    @pytest.mark.parametrize("name", ["C3", "S3", "Q8"])
    def test_symbols_are_the_eta_commutators(self, name):
        g = realize_name(name)
        r = build_nu(g)
        incl = _inclusion_in_eta(r)
        gens = r.eta.generator_images
        for a in range(g.order):
            for b in range(g.order):
                want = r.eta.comm(gens[a], gens[g.order + b])
                assert incl(int(r.sym[a, b])) == want
        assert incl.is_injective()
        assert incl.image_members() == _tensor_in_eta(r).members
        assert not r.sym.flags.writeable

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
        assert pairing_relators_hold(r.pair, r.eta)

    def test_certificate_rejects_foreign_actions(self):
        s3 = realize_name("S3")
        r = build_nu(s3)
        assert not pairing_relators_hold(trivial_pair(s3, s3), r.eta)

    def test_failed_certificate_is_an_internal_inconsistency(self,
                                                             monkeypatch):
        monkeypatch.setattr("ntl.tensor.pairing_relators_hold",
                            lambda pair, eta: False)
        with pytest.raises(InternalInconsistency, match="pairing relator"):
            build_nu(cyc(2))


ROUTE_PAIRS = {
    **{name: (lambda name=name: conjugation_pair(realize_name(name)))
       for name in ("S3", "Q8", "D4", "A4", "C2xC4")},
    "C4xC6-trivial": lambda: trivial_pair(cyc(4), cyc(6)),
    "S3|S3,A3-pushout": _s3_a3_pair,
}


@pytest.mark.parametrize("pair", ROUTE_PAIRS)
def test_the_routes_give_one_object(pair):
    pair = ROUTE_PAIRS[pair]()
    r, direct = build_eta(pair), build_direct(pair)
    assert np.array_equal(r.group.table, direct.group.table)
    assert r.group.generator_images == direct.group.generator_images
    assert np.array_equal(r.sym, direct.sym)
    if pair.ambient is None:
        assert r.derived is None and direct.derived is None
    else:
        assert np.array_equal(r.derived.images, direct.derived.images)
    assert tensor_set(r).witness == tensor_set(direct).witness


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


@pytest.mark.parametrize("pair", [
    lambda: conjugation_pair(realize_name("S3")),
    lambda: trivial_pair(cyc(4), cyc(6)),
    _inversion_pair], ids=["S3-conjugation", "C4xC6-trivial", "C4xC6-file"])
def test_direct_relators_match_the_triple_loops(pair):
    pair = pair()
    built = tensor._direct_relators(pair)
    assert built == _loop_relators(pair)
    # the relators in which letters merge are built too
    assert any(len(w.letters) < 3 for w in built)


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
        assert r.group.order == (want.order() or 0)
        assert direct.order == (want.order() or 0)
        assert r.group.abelianization() == want
        assert direct.abelianization() == want

    def test_nonabelian_pair_reduces_to_abelianizations(self):
        s3 = realize_name("S3")
        pair = trivial_pair(s3, s3)
        r = build_eta(pair)
        want = s3.abelianization().tensor(s3.abelianization())
        assert r.group.abelianization() == want


class TestTensorSet:
    def test_trivial_pair_single_tensor(self):
        r = build_eta(trivial_pair(cyc(1), cyc(1)))
        assert tensor_set(r).m == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cyclic_count_matches_bilinear_image(self, n):
        r = build_nu(cyc(n))
        ts = tensor_set(r)
        oracle = len({(i * j) % n for i in range(n) for j in range(n)})
        assert ts.m == oracle == n

    @pytest.mark.parametrize("name", SMALL)
    def test_subset_bound_and_generation(self, name):
        r = build_nu(realize_name(name))
        ts = tensor_set(r)
        assert ts.m <= r.group.order
        regen = closure(r.group, r.sym.ravel())
        assert regen.order == r.group.order
        incl = _inclusion_in_eta(r)
        assert closure(r.eta, incl.images[list(ts.elements)]).members == \
            _tensor_in_eta(r).members

    def test_witnesses_evaluate_back(self):
        r = build_nu(realize_name("S3"))
        ts = tensor_set(r)
        incl = _inclusion_in_eta(r)
        gens = r.eta.generator_images
        for elt, (a, b) in ts.witness.items():
            assert int(r.sym[a, b]) == elt
            got = r.eta.comm(gens[a], gens[6 + b])
            assert got == incl(elt)
        assert 0 in ts.elements


class TestDerivedMap:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_cyclic_kernel_is_everything(self, n):
        r = build_nu(cyc(n))
        sub = j2(r)
        assert sub.order == r.group.order == n

    def test_s3_kernel_index(self):
        r = build_nu(realize_name("S3"))
        assert r.group.order == j2(r).order * 3

    def test_trivial_group(self):
        r = build_nu(cyc(1))
        assert j2(r).order == 1

    def test_kappa_image_is_derived_subgroup(self):
        s3 = realize_name("S3")
        r = build_nu(s3)
        assert sorted(r.derived.image_members()) == \
            list(derived_subgroup(s3).members)
        for a in range(s3.order):
            for b in range(s3.order):
                assert r.derived(int(r.sym[a, b])) == s3.comm(a, b)

    def test_direct_route_derived_map_matches(self):
        s3 = realize_name("S3")
        r = build_direct(conjugation_pair(s3))
        assert r.derived.image_members() == derived_subgroup(s3).members
        assert j2(r).order == build_nu(s3).group.order // 3

    def test_kappa_needs_based_build(self):
        r = build_eta(trivial_pair(cyc(2), cyc(3)))
        assert r.derived is None
        with pytest.raises(InternalInconsistency):
            j2(r)


class TestDiagonals:
    def test_delta_c2_is_c2(self):
        r = build_nu(cyc(2))
        assert delta(r).order == 2

    def test_delta_tilde_c2_trivial(self):
        r = build_nu(cyc(2))
        assert delta_tilde(r).order == 1

    def test_delta_trivial_group(self):
        r = build_nu(cyc(1))
        assert delta(r).order == 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_cyclic_diagonals_match_bilinear_values(self, n):
        r = build_nu(cyc(n))
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
        r = build_nu(realize_name(name))
        jsub, dsub, dtsub = j2(r), delta(r), delta_tilde(r)
        assert set(dtsub.members) <= set(jsub.members)
        assert set(dsub.members) <= set(range(r.group.order))
        assert jsub.is_normal()
        assert dsub.is_normal()
        assert dtsub.is_normal()


def _tensor_in_eta(r):
    """The subgroup of eta generated by the commutators [a, b~]."""
    gens = r.eta.generator_images
    ng = r.pair.g.order
    return closure(r.eta, [r.eta.comm(gens[a], gens[ng + b])
                           for a in range(ng)
                           for b in range(r.pair.h.order)])


def _inclusion_in_eta(r):
    """The inclusion T -> eta, a(x)b |-> [a, b~]: spread from the symbols
    along T's walk, as the derived map is, and verified as a
    homomorphism."""
    gens = r.eta.generator_images
    ng, nh = r.sym.shape
    want = {}
    for a in range(ng):
        for b in range(nh):
            want.setdefault(int(r.sym[a, b]),
                            r.eta.comm(gens[a], gens[ng + b]))
    steps = list(want)
    images = np.zeros(r.group.order, dtype=np.int64)
    for x, p, i in _walk(r.group.table, steps):
        images[x] = r.eta.mul(int(images[p]), want[steps[i]])
    return Homomorphism(r.group, r.eta, images)


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
