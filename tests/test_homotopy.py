import pytest

from ntl import catalog, coset, groups
from ntl.abelian import AbelianInvariants
from ntl.catalog import catalog_lookup
from ntl.coset import EnumerationBudget, budget_scope
from ntl.errors import (BudgetExceeded, CapExceeded, MixedParents,
                        NotGeneratingPair, NotNormal)
from ntl.groups import (Homomorphism, RealizedGroup, closure,
                        derived_subgroup)
from ntl.homotopy import (bound_pushout_pi3, bound_theorem_A,
                          bound_theorem_B, burnside_exponent_check,
                          finiteness_report, pi3_suspension_K, pushout_EM,
                          resolve_subject, schur_multiplier, stable_pi2_K,
                          theoremC_report, three_connected_check, wedge_pi3)
from ntl.parsing import parse_file
from ntl.tensor import (_conjugation_pair_between, build_direct,
                        conjugation_pair)

from support import realize_name


def square(g):
    """The tensor square of g, from the one producer of T."""
    return build_direct(conjugation_pair(g))


def cyc(n):
    return realize_name(f"C{n}")


def inv(*factors):
    return AbelianInvariants.from_cyclic_orders(list(factors))


class TestBounds:
    def test_theorem_a_values(self):
        assert bound_theorem_A(1, 1, 1, 7).bound == 7
        rep = bound_theorem_A(2, 3, 4, 5)
        assert rep.bound == 120
        assert rep.exact_orders == {"a": 2, "b": 3, "c": 4, "t": 5}
        assert len(rep.chain) == 3
        assert bound_theorem_A(3, 5, 7, 1).bound == 105

    def test_theorem_b_values(self):
        assert bound_theorem_B(1, 9).bound == 9
        assert bound_theorem_B(2, 2).bound == 4
        assert bound_theorem_B(11, 1).bound == 11

    def test_pushout_values(self):
        assert bound_pushout_pi3(1, 1, 5).bound == 5
        assert bound_pushout_pi3(2, 3, 4).bound == 24
        assert bound_pushout_pi3(7, 11, 1).bound == 77

    def test_positivity(self):
        with pytest.raises(ValueError):
            bound_theorem_A(0, 1, 1, 1)
        with pytest.raises(ValueError):
            bound_theorem_B(1, -2)
        with pytest.raises(ValueError):
            bound_pushout_pi3(1, 0, 1)


class TestWedge:
    def test_c4_c6(self):
        assert wedge_pi3(inv(4), inv(6)) == inv(2)

    def test_coprime(self):
        assert wedge_pi3(inv(2), inv(3)).factors == ()

    @pytest.mark.parametrize("k", range(1, 4))
    @pytest.mark.parametrize("j", range(1, 4))
    def test_prime_power_analog(self, k, j):
        assert wedge_pi3(inv(2 ** k), inv(3 ** j)).factors == ()


class TestSuspension:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_cyclic(self, n):
        got = pi3_suspension_K(square(cyc(n)))
        assert got.order() == n
        if n > 1:
            assert got.factors == (n,)

    def test_s3_kernel_index(self):
        s3 = realize_name("S3")
        r = square(s3)
        assert pi3_suspension_K(r).order() * 3 == r.group.order

    @pytest.mark.parametrize("name,want", [("C2xC2", (2,)),
                                           ("C2xC4", (2,)), ("C9", ())])
    def test_schur_values(self, name, want):
        assert schur_multiplier(square(realize_name(name))).factors == want

    @pytest.mark.parametrize("name", ["A4", "C2xC4"])
    def test_invariants_realize_no_group(self, name, monkeypatch):
        r = square(realize_name(name))

        def refuse(*args, **kwargs):
            raise AssertionError("a group or a map was realized")

        monkeypatch.setattr(RealizedGroup, "__init__", refuse)
        monkeypatch.setattr(Homomorphism, "__init__", refuse)
        j2, h2 = pi3_suspension_K(r), schur_multiplier(r)
        assert j2.order() == h2.order() * finiteness_report(r) \
            .delta_invariants.order()
        assert stable_pi2_K(r).order() >= 1

    def test_stable_pi2(self):
        assert stable_pi2_K(square(cyc(2))).factors == (2,)
        assert stable_pi2_K(square(cyc(3))).order() == 1
        assert stable_pi2_K(square(cyc(1))).order() == 1


class TestPushout:
    def test_c6_coprime_parts(self):
        c6 = cyc(6)
        a = c6.generator_images[0]
        m = closure(c6, [c6.power(a, 3)])
        n = closure(c6, [c6.power(a, 2)])
        res = pushout_EM(m, n)
        assert res.pi2.order() == 1
        assert res.pi3.order() == 1
        rep = three_connected_check(m, n)
        assert rep.verdict == "3-connected"

    def test_klein_full_parts(self):
        v4 = realize_name("C2xC2")
        full = closure(v4, v4.generator_images)
        res = pushout_EM(full, full)
        assert res.pi2.order() == 4
        assert res.pi2.factors == (2, 2)
        assert res.pi3.order() == 16
        rep = three_connected_check(full, full)
        assert rep.verdict == "not 3-connected"

    def test_trivial_m(self):
        c6 = cyc(6)
        m = closure(c6, [])
        n = closure(c6, c6.generator_images)
        res = pushout_EM(m, n)
        assert res.pi2.order() == 1
        assert res.pi3.order() == 1

    def test_not_normal_rejected(self):
        s3 = realize_name("S3")
        t = next(x for x in range(6) if s3.element_orders()[x] == 2)
        bad = closure(s3, [t])
        ok = closure(s3, s3.generator_images)
        with pytest.raises(NotNormal):
            pushout_EM(bad, ok)

    def test_mixed_parents_rejected(self):
        c6, s3 = cyc(6), realize_name("S3")
        m = closure(c6, c6.generator_images)
        n = closure(s3, s3.generator_images)
        with pytest.raises(MixedParents):
            pushout_EM(m, n)
        with pytest.raises(MixedParents):
            three_connected_check(m, n)

    def test_not_generating_pair(self):
        c6 = cyc(6)
        a = c6.generator_images[0]
        m = closure(c6, [c6.power(a, 2)])
        with pytest.raises(NotGeneratingPair):
            three_connected_check(m, m)

    def test_trivial_everything(self):
        c1 = cyc(1)
        m = closure(c1, [])
        rep = three_connected_check(m, m)
        assert rep.verdict == "3-connected"

    def test_nonabelian_parent(self):
        s3 = realize_name("S3")
        a3 = derived_subgroup(s3)
        whole = closure(s3, s3.generator_images)
        res = pushout_EM(a3, whole)
        # M cap N = A3, [M,N] = A3, so pi2 dies; pi3 = ker([A3,S3~] -> S3)
        assert res.pi2.order() == 1
        t = build_direct(_conjugation_pair_between(a3, whole))
        assert t.group.order % res.pi3.order() == 0


def _pushout_subgroups():
    s3, v4, d4 = realize_name("S3"), realize_name("C2xC2"), realize_name("D4")
    a, b = d4.generator_images
    v4_full = closure(v4, v4.generator_images)
    return {
        "S3,S3,A3": (s3, closure(s3, s3.generator_images),
                     derived_subgroup(s3)),
        "C2xC2,full,full": (v4, v4_full, v4_full),
        "D4,<a>,<a^2,b>": (d4, closure(d4, [a]),
                           closure(d4, [d4.power(a, 2), b])),
    }


@pytest.mark.parametrize("case", ["S3,S3,A3", "C2xC2,full,full",
                                  "D4,<a>,<a^2,b>"])
def test_conjugation_pair_between_matches_conj(case):
    g, m, n = _pushout_subgroups()[case]
    assert m.is_normal() and n.is_normal()
    pair = _conjugation_pair_between(m, n)
    m_mem, n_mem = m.members, n.members
    for i, x in enumerate(m_mem):
        for j, y in enumerate(n_mem):
            assert n_mem[pair.g_on_h[i, j]] == g.conj(y, x)
            assert m_mem[pair.h_on_g[j, i]] == g.conj(x, y)
    assert pair.ambient[0] is g
    assert tuple(pair.ambient[1]) == m_mem
    assert tuple(pair.ambient[2]) == n_mem


def square_of(name):
    return square(realize_name(name))


class TestFiniteness:
    def test_s3(self):
        rep = finiteness_report(square_of("S3"))
        assert rep.gab_invariants == inv(2)
        assert rep.gprime_order == 3
        assert rep.tensor_count_m == 6
        assert rep.tensor_order == 6
        assert rep.embedding_holds

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cyclic_embedding(self, n):
        rep = finiteness_report(square_of(f"C{n}"))
        assert rep.gab_invariants.order() == n
        assert rep.embedding_holds

    def test_trivial(self):
        rep = finiteness_report(square_of("C1"))
        assert rep.gab_invariants.order() == 1
        assert rep.gprime_order == 1
        assert rep.tensor_count_m == 1
        assert rep.tensor_order == 1

    def test_realization_subject_reuses_the_build(self):
        r = square_of("S3")
        rep = finiteness_report(r)
        assert rep.tensor_order == r.group.order
        fresh = finiteness_report(square_of("S3"))
        assert rep.delta_invariants == fresh.delta_invariants == inv(2)

    def test_infinite_fast_path(self):
        s = resolve_subject(catalog_lookup("Z"))
        assert s.group is None
        assert s.invariants.factors == (0,)

    def test_undetermined(self):
        s = resolve_subject(catalog_lookup("F2"))
        assert s.group is None and s.invariants is None
        with pytest.raises(BudgetExceeded, match="'F2' is infinite"):
            s.realized()


class TestResolveSubject:
    def test_catalog_entry_comes_from_the_cache(self):
        s = resolve_subject(catalog_lookup("S3"))
        assert s.realized() is realize_name("S3")

    def test_infinite_cyclic_presentation_is_never_enumerated(self):
        p = catalog_lookup("Z").presentation
        with budget_scope(EnumerationBudget(max_cosets=1)):
            s = resolve_subject(p)
        assert s.invariants.factors == (0,)
        assert s.unrealized.stats.cosets_defined == 0
        assert "a(x)a has infinite order" in s.witness

    @pytest.mark.parametrize("cached", [True, False])
    def test_a_catalog_order_over_the_cap_is_refused(self, monkeypatch,
                                                     cached):
        realize_name("C7")
        if not cached:
            monkeypatch.setattr(catalog, "_REALIZED", {})
        monkeypatch.setattr(groups, "GROUP_ORDER_CAP", 5)
        monkeypatch.setattr(coset, "enumerate_cosets", _no_enumeration)
        with pytest.raises(CapExceeded, match="^group order 7 exceeds cap 5$"):
            resolve_subject(catalog_lookup("C7"))

    def test_a_cyclic_order_over_the_cap_is_refused(self, monkeypatch):
        groups_in, _ = parse_file("group K { gens: a; rels: a^7; }")
        monkeypatch.setattr(groups, "GROUP_ORDER_CAP", 5)
        monkeypatch.setattr(coset, "enumerate_cosets", _no_enumeration)
        with pytest.raises(CapExceeded, match="^group order 7 exceeds cap 5$"):
            resolve_subject(groups_in["K"])

    def test_exhausted_budget_is_recorded(self):
        with budget_scope(EnumerationBudget(max_cosets=5)):
            s = resolve_subject(catalog_lookup("D6").presentation)
        assert s.group is None and s.invariants is None
        assert isinstance(s.unrealized, BudgetExceeded)


def _no_enumeration(p):
    raise AssertionError(f"{p.name} was enumerated")


class TestTheoremC:
    def test_s3_all_true(self):
        rep = theoremC_report(square_of("S3"))
        assert rep.unanimous
        assert all(rep.properties.values())
        assert set(rep.properties) == set("abcdefg")

    def test_c2_all_true(self):
        rep = theoremC_report(square_of("C2"))
        assert rep.unanimous
        assert all(rep.properties.values())
        assert rep.evidence["tensor_order"] == 2

    def test_z_all_false_with_witness(self):
        s = resolve_subject(catalog_lookup("Z"))
        assert s.group is None
        rep = s.theoremC
        assert rep.unanimous
        assert rep.properties == dict.fromkeys("abcdefg", False)
        assert "a(x)a" in s.witness
        assert "infinite order" in s.witness

    def test_realization_subject_reuses_the_build(self):
        r = square_of("S3")
        rep = theoremC_report(r)
        assert rep.evidence["tensor_order"] == r.group.order
        fresh = theoremC_report(square_of("S3"))
        assert rep.properties == fresh.properties
        assert rep.evidence == fresh.evidence

    def test_free_rank_two_undecided(self):
        s = resolve_subject(catalog_lookup("F2"))
        assert s.group is None and s.invariants is None
        assert isinstance(s.unrealized, BudgetExceeded)


class TestBurnsideExponent:
    def test_c2_applies(self):
        rep = burnside_exponent_check(square(cyc(2)))
        assert rep.tensor_exponent == 2
        assert rep.applicable

    def test_c5_does_not_apply(self):
        rep = burnside_exponent_check(square(cyc(5)))
        assert rep.tensor_exponent == 5
        assert not rep.applicable

    def test_trivial_group(self):
        rep = burnside_exponent_check(square(cyc(1)))
        assert rep.tensor_exponent == 1
        assert not rep.applicable

    @pytest.mark.parametrize("name,expo", [("C4", 4), ("C6", 6),
                                           ("C2xC2", 2), ("S3", 6)])
    def test_small_exponents(self, name, expo):
        rep = burnside_exponent_check(square(realize_name(name)))
        assert rep.tensor_exponent == expo
        assert rep.applicable == (expo in (2, 3, 4, 6))
