import pytest

from ntl.abelian import AbelianInvariants
from ntl.catalog import catalog_lookup, realize_name
from ntl.errors import NotGeneratingPair, NotNormal, Undecided
from ntl.groups import abelian_structure, closure, derived_subgroup
from ntl.homotopy import (PushoutInput, TriadInput, bound_pushout_pi3,
                          bound_theorem_A, bound_theorem_B,
                          burnside_exponent_check, finiteness_report,
                          pi3_suspension_K, pushout_EM, schur_multiplier,
                          stable_pi2_K,
                          theoremC_report, three_connected_check,
                          triad_group, wedge_pi3)
from ntl.tensor import build_nu, trivial_pair


def cyc(n):
    return realize_name(f"C{n}")


def inv(*factors):
    return AbelianInvariants.from_cyclic_orders(list(factors))


class TestTriad:
    def test_klein_case(self):
        g = cyc(2)
        grp, dim = triad_group(TriadInput(g, g, trivial_pair(g, g), 1, 1))
        assert grp.order == 2
        assert dim == 3

    def test_coprime_vanishes(self):
        grp, _ = triad_group(
            TriadInput(cyc(2), cyc(3), trivial_pair(cyc(2), cyc(3))))
        assert grp.order == 1

    def test_dimension_arithmetic(self):
        _, dim = triad_group(
            TriadInput(cyc(2), cyc(2), trivial_pair(cyc(2), cyc(2)), 2, 1))
        assert dim == 4

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            TriadInput(cyc(2), cyc(2), trivial_pair(cyc(2), cyc(2)), 0, 1)


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
        grp = pi3_suspension_K(build_nu(cyc(n)))
        assert grp.order == n
        if n > 1:
            assert abelian_structure(grp).factors == (n,)

    def test_s3_kernel_index(self):
        s3 = realize_name("S3")
        r = build_nu(s3)
        grp = pi3_suspension_K(r)
        assert grp.order * 3 == r.group.order

    @pytest.mark.parametrize("name,want", [("C2xC2", (2,)),
                                           ("C2xC4", (2,)), ("C9", ())])
    def test_schur_values(self, name, want):
        grp = schur_multiplier(build_nu(realize_name(name)))
        assert abelian_structure(grp).factors == want

    def test_stable_pi2(self):
        assert abelian_structure(
            stable_pi2_K(build_nu(cyc(2)))).factors == (2,)
        assert stable_pi2_K(build_nu(cyc(3))).order == 1
        assert stable_pi2_K(build_nu(cyc(1))).order == 1


class TestPushout:
    def test_c6_coprime_parts(self):
        c6 = cyc(6)
        a = c6.generator_images[0]
        m = closure(c6, [c6.power(a, 3)])
        n = closure(c6, [c6.power(a, 2)])
        res = pushout_EM(PushoutInput(c6, m, n))
        assert res.pi2.order == 1
        assert res.pi3.order == 1
        rep = three_connected_check(PushoutInput(c6, m, n))
        assert rep.verdict == "3-connected"

    def test_klein_full_parts(self):
        v4 = realize_name("C2xC2")
        full = closure(v4, v4.generator_images)
        res = pushout_EM(PushoutInput(v4, full, full))
        assert res.pi2.order == 4
        assert abelian_structure(res.pi2).factors == (2, 2)
        assert res.pi3.order == 16
        rep = three_connected_check(PushoutInput(v4, full, full))
        assert rep.verdict == "not 3-connected"

    def test_trivial_m(self):
        c6 = cyc(6)
        m = closure(c6, [])
        n = closure(c6, c6.generator_images)
        res = pushout_EM(PushoutInput(c6, m, n))
        assert res.pi2.order == 1
        assert res.pi3.order == 1

    def test_not_normal_rejected(self):
        s3 = realize_name("S3")
        t = next(x for x in range(6) if s3.element_orders()[x] == 2)
        bad = closure(s3, [t])
        ok = closure(s3, s3.generator_images)
        with pytest.raises(NotNormal):
            pushout_EM(PushoutInput(s3, bad, ok))

    def test_not_generating_pair(self):
        c6 = cyc(6)
        a = c6.generator_images[0]
        m = closure(c6, [c6.power(a, 2)])
        with pytest.raises(NotGeneratingPair):
            three_connected_check(PushoutInput(c6, m, m))

    def test_trivial_everything(self):
        c1 = cyc(1)
        m = closure(c1, [])
        rep = three_connected_check(PushoutInput(c1, m, m))
        assert rep.verdict == "3-connected"

    def test_nonabelian_parent(self):
        s3 = realize_name("S3")
        a3 = derived_subgroup(s3)
        whole = closure(s3, s3.generator_images)
        res = pushout_EM(PushoutInput(s3, a3, whole))
        # M cap N = A3, [M,N] = A3, so pi2 dies; pi3 = ker([A3,S3~] -> S3)
        assert res.pi2.order == 1
        assert res.build.group.order % res.pi3.order == 0


class TestFiniteness:
    def test_s3(self):
        rep = finiteness_report(realize_name("S3"))
        assert rep.finite
        assert rep.gab_order == 2
        assert rep.gprime_order == 3
        assert rep.tensor_count_m == 6
        assert rep.tensor_order == 6
        assert rep.embedding_holds

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cyclic_embedding(self, n):
        rep = finiteness_report(cyc(n))
        assert rep.gab_order == n
        assert rep.embedding_holds

    def test_trivial(self):
        rep = finiteness_report(cyc(1))
        assert rep.gab_order == 1
        assert rep.gprime_order == 1
        assert rep.tensor_count_m == 1
        assert rep.tensor_order == 1

    def test_realization_subject_reuses_the_build(self):
        r = build_nu(realize_name("S3"))
        rep = finiteness_report(r)
        assert rep.stats is r.stats
        assert rep.tensor_order == r.group.order
        fresh = finiteness_report(realize_name("S3"))
        assert rep.delta_invariants == fresh.delta_invariants == inv(2)

    def test_infinite_fast_path(self):
        rep = finiteness_report(catalog_lookup("Z"))
        assert rep.determined
        assert rep.finite is False
        assert rep.gab_invariants.factors == (0,)

    def test_undetermined(self):
        rep = finiteness_report(catalog_lookup("F2"))
        assert not rep.determined
        assert "undetermined" in rep.note


class TestTheoremC:
    def test_s3_all_true(self):
        rep = theoremC_report(realize_name("S3"))
        assert rep.unanimous
        assert all(rep.properties.values())
        assert set(rep.properties) == set("abcdefg")

    def test_c2_all_true(self):
        rep = theoremC_report(cyc(2))
        assert rep.unanimous
        assert all(rep.properties.values())
        assert rep.evidence["tensor_order"] == 2

    def test_z_all_false_with_witness(self):
        rep = theoremC_report(catalog_lookup("Z"))
        assert rep.unanimous
        assert not any(rep.properties.values())
        assert "a(x)a" in rep.witness
        assert "infinite order" in rep.witness

    def test_realization_subject_reuses_the_build(self):
        s3 = realize_name("S3")
        r = build_nu(s3)
        rep = theoremC_report(r)
        assert rep.stats is r.stats
        fresh = theoremC_report(s3)
        assert rep.properties == fresh.properties
        assert rep.evidence == fresh.evidence
        assert rep.stats.cosets_defined == fresh.stats.cosets_defined

    def test_free_rank_two_undecided(self):
        with pytest.raises(Undecided):
            theoremC_report(catalog_lookup("F2"))


class TestBurnsideExponent:
    def test_c2_applies(self):
        rep = burnside_exponent_check(build_nu(cyc(2)))
        assert rep.tensor_exponent == 2
        assert rep.applicable
        assert rep.consistent

    def test_c5_does_not_apply(self):
        rep = burnside_exponent_check(build_nu(cyc(5)))
        assert rep.tensor_exponent == 5
        assert not rep.applicable

    def test_trivial_group(self):
        rep = burnside_exponent_check(build_nu(cyc(1)))
        assert rep.tensor_exponent == 1
        assert not rep.applicable

    @pytest.mark.parametrize("name,expo", [("C4", 4), ("C6", 6),
                                           ("C2xC2", 2), ("S3", 6)])
    def test_small_exponents(self, name, expo):
        rep = burnside_exponent_check(build_nu(realize_name(name)))
        assert rep.tensor_exponent == expo
        assert rep.applicable == (expo in (2, 3, 4, 6))
