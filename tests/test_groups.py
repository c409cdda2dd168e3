import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntl.catalog import realize_name
from ntl.errors import InternalInconsistency, MixedParents, NotNormal
from ntl.groups import (Homomorphism, RealizedGroup,
                        abelian_structure, closure, commutator_subgroup,
                        derived_subgroup, intersection, kernel, quotient,
                        subgroup_as_group, subgroup_exponent,
                        subgroup_from_members, subgroup_quotient,
                        trivial_group)


def naive_closure(g, gens):
    """Fixpoint closure oracle: grow by all pairwise products."""
    members = {0} | set(gens) | {g.inv(x) for x in gens}
    while True:
        grown = set(members)
        for x in members:
            for y in members:
                grown.add(g.mul(x, y))
        if grown == members:
            return sorted(members)
        members = grown


def naive_derived(g):
    comms = {g.comm(x, y) for x in range(g.order) for y in range(g.order)}
    return naive_closure(g, comms)


class TestClosure:
    def test_empty_gens(self):
        c6 = realize_name("C6")
        assert closure(c6, []).members == (0,)

    def test_square_in_c6(self):
        c6 = realize_name("C6")
        a = c6.generator_images[0]
        sub = closure(c6, [c6.mul(a, a)])
        assert sub.order == 3

    def test_transpositions_generate_s3(self):
        s3 = realize_name("S3")
        transpositions = [x for x in range(6) if s3.element_orders()[x] == 2]
        assert closure(s3, transpositions).order == 6

    @pytest.mark.parametrize("name", ["D4", "Q8", "A4"])
    def test_against_naive_oracle(self, name):
        g = realize_name(name)
        for gens in ([1], [1, 2], [g.order - 1], [2, 3]):
            assert list(closure(g, gens).members) == naive_closure(g, gens)

    def test_generators_regenerate(self):
        d4 = realize_name("D4")
        sub = closure(d4, [1, 2])
        regen = closure(d4, sub.generators)
        assert regen.members == sub.members

    def test_subgroup_from_members_rejects_non_closed(self):
        c6 = realize_name("C6")
        with pytest.raises(InternalInconsistency):
            subgroup_from_members(c6, [0, 1])


WALK_GROUPS = ("C6", "S3", "D4", "Q8", "A4", "D5", "D6", "C2xC6")


def elements(g, max_size):
    return st.lists(st.integers(0, g.order - 1), max_size=max_size)


class TestClosureAgainstBruteForce:
    """closure, derived_subgroup and commutator_subgroup read the reached
    set of a Cayley-graph walk; naive_closure multiplies until the set is
    stable."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(WALK_GROUPS), st.data())
    def test_closure(self, name, data):
        g = realize_name(name)
        gens = data.draw(elements(g, 3))
        sub = closure(g, gens)
        assert list(sub.members) == naive_closure(g, gens)
        assert closure(g, sub.generators).members == sub.members

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(WALK_GROUPS), st.data())
    def test_derived_subgroup(self, name, data):
        # A subgroup realized as a group of its own gives a fresh table.
        parent = realize_name(name)
        g, _ = subgroup_as_group(closure(parent,
                                         data.draw(elements(parent, 2))))
        assert list(derived_subgroup(g).members) == naive_derived(g)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(WALK_GROUPS), st.data())
    def test_commutator_subgroup(self, name, data):
        g = realize_name(name)
        m = closure(g, data.draw(elements(g, 2)))
        n = closure(g, data.draw(elements(g, 2)))
        comms = {g.comm(x, y) for x in m.members for y in n.members}
        assert list(commutator_subgroup(m, n).members) == \
            naive_closure(g, comms)


class TestKernelQuotient:
    def test_identity_map_kernel(self):
        s3 = realize_name("S3")
        h = Homomorphism(s3, s3, np.arange(6))
        assert kernel(h).order == 1

    def test_c6_onto_c3(self):
        c6, c3 = realize_name("C6"), realize_name("C3")
        exps = [w.exponent_row(1)[0] for w in c6.element_words]
        images = [c3.power(c3.generator_images[0], e) for e in exps]
        h = Homomorphism(c6, c3, images)
        assert kernel(h).order == 2

    def test_sign_map_kernel(self):
        s3, c2 = realize_name("S3"), realize_name("C2")
        # generator a is the transposition (odd), b the 3-cycle (even)
        parity = [w.exponent_row(2)[0] % 2 for w in s3.element_words]
        h = Homomorphism(s3, c2, parity)
        k = kernel(h)
        assert k.order == 3
        assert k.is_normal()

    def test_quotient_c6_by_c3(self):
        c6 = realize_name("C6")
        sub = closure(c6, [c6.power(c6.generator_images[0], 2)])
        q, proj = quotient(c6, sub)
        assert q.order == 2
        assert proj.images[0] == 0

    def test_quotient_by_trivial_is_isomorphic_copy(self):
        d4 = realize_name("D4")
        q, proj = quotient(d4, closure(d4, []))
        assert q.order == d4.order
        assert proj.is_injective()
        assert sorted(q.element_orders()) == sorted(d4.element_orders())

    def test_s3_mod_a3(self):
        s3 = realize_name("S3")
        a3 = derived_subgroup(s3)
        q, _ = quotient(s3, a3)
        assert q.order == 2

    def test_not_normal(self):
        s3 = realize_name("S3")
        t = next(x for x in range(6) if s3.element_orders()[x] == 2)
        with pytest.raises(NotNormal):
            quotient(s3, closure(s3, [t]))

    @pytest.mark.parametrize("name", ["C6", "D4", "Q8", "A4"])
    def test_order_arithmetic(self, name):
        g = realize_name(name)
        for seed in range(g.order):
            sub = closure(g, [seed])
            if not sub.is_normal():
                continue
            q, _ = quotient(g, sub)
            assert q.order * sub.order == g.order


class TestDerivedAndFriends:
    def test_abelian_derived_trivial(self):
        assert derived_subgroup(realize_name("C6")).order == 1

    @pytest.mark.parametrize("name,order", [("S3", 3), ("D4", 2),
                                            ("Q8", 2), ("A4", 4)])
    def test_known_derived_orders(self, name, order):
        g = realize_name(name)
        sub = derived_subgroup(g)
        assert sub.order == order
        assert list(sub.members) == naive_derived(g)

    def test_commutator_subgroup_of_whole(self):
        s3 = realize_name("S3")
        whole = closure(s3, s3.generator_images)
        assert commutator_subgroup(whole, whole).members == \
            derived_subgroup(s3).members

    def test_intersection(self):
        c6 = realize_name("C6")
        a = c6.generator_images[0]
        m = closure(c6, [c6.power(a, 2)])
        n = closure(c6, [c6.power(a, 3)])
        assert intersection(m, n).order == 1
        assert intersection(m, m).members == m.members

    def test_mixed_parents(self):
        m = closure(realize_name("C6"), [1])
        n = closure(realize_name("S3"), [1])
        with pytest.raises(MixedParents):
            intersection(m, n)
        with pytest.raises(MixedParents):
            commutator_subgroup(m, n)

    def test_exponents(self):
        assert realize_name("C2xC4").exponent() == 4
        assert realize_name("S3").exponent() == 6
        s3 = realize_name("S3")
        assert subgroup_exponent(derived_subgroup(s3)) == 3

    def test_element_order(self):
        q8 = realize_name("Q8")
        orders = sorted(q8.element_orders()[x] for x in range(8))
        assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


class TestStructure:
    def test_abelian_structure_values(self):
        assert abelian_structure(realize_name("C2xC4")).factors == (2, 4)
        assert abelian_structure(realize_name("C6")).factors == (6,)
        assert abelian_structure(realize_name("C2xC6")).factors == (2, 6)
        assert abelian_structure(realize_name("C3xC3")).factors == (3, 3)
        assert abelian_structure(trivial_group()).factors == ()

    def test_abelianization_matches_structure_on_abelian(self):
        for name in ("C8", "C2xC6", "C3xC3"):
            g = realize_name(name)
            assert g.abelianization() == abelian_structure(g)

    @pytest.mark.parametrize("name,inv", [("S3", (2,)), ("Q8", (2, 2)),
                                          ("A4", (3,)), ("D4", (2, 2)),
                                          ("D5", (2,))])
    def test_abelianization_nonabelian(self, name, inv):
        assert realize_name(name).abelianization().factors == inv

    def test_as_group_roundtrip(self):
        s3 = realize_name("S3")
        sub = derived_subgroup(s3)
        grp, incl = subgroup_as_group(sub)
        assert grp.order == 3
        assert grp.is_abelian()
        assert sorted(int(incl.images[x]) for x in range(3)) == \
            list(sub.members)

    def test_subgroup_quotient(self):
        c6 = realize_name("C6")
        whole = closure(c6, c6.generator_images)
        inner = closure(c6, [c6.power(c6.generator_images[0], 3)])
        q, proj, outer = subgroup_quotient(whole, inner)
        assert q.order == 3
        assert outer.order == 6
        assert len(proj.kernel().members) == 2

    def test_associativity_guard(self):
        # A loop of order 5: a Latin square with identity 0 and two-sided
        # inverses that 1 generates, so only associativity fails.
        bad = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1],
                        [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]], dtype=np.int16)
        with pytest.raises(InternalInconsistency, match="associativity fails"):
            RealizedGroup("bad", bad, [1, 2, 3, 4])

    def test_non_generating_images_rejected(self):
        c6 = realize_name("C6")
        square = c6.power(c6.generator_images[0], 2)
        with pytest.raises(InternalInconsistency, match="do not generate"):
            RealizedGroup("C6", c6.table, [square])

    def test_homomorphism_guard(self):
        c4 = realize_name("C4")
        c2 = realize_name("C2")
        with pytest.raises(InternalInconsistency):
            Homomorphism(c4, c2, [0, 1, 1, 0])

    def test_immutability(self):
        g = realize_name("C4")
        with pytest.raises(ValueError):
            g.table[0, 0] = 1
