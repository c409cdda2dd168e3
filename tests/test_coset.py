from itertools import permutations

import numpy as np
import pytest

from ntl.catalog import catalog_lookup
from ntl.coset import (CosetTable, EnumerationBudget, enumerate_cosets,
                       realize_presentation, regular_representation)
from ntl.errors import (BudgetExceeded, IncompleteTable,
                        InternalInconsistency)
from ntl.groups import abelian_structure, derived_subgroup
from ntl.parsing import parse_group
from ntl.words import Presentation, Word


def sympy_felsch_index(p: Presentation, subgroup_words=()) -> int:
    """Index of <subgroup_words> by sympy's own coset enumerator, run with
    its coset-table-based (Felsch) strategy: an independent implementation
    with a different definition order."""
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    free, *gens = free_group(" ".join(f"x{i}" for i in range(p.ngens)))

    def word(w: Word):
        out = free.identity
        for g, e in w.letters:
            out = out * gens[g] ** e
        return out

    group = FpGroup(free, [word(w) for w in p.relators])
    table = group.coset_enumeration([word(w) for w in subgroup_words],
                                    strategy="coset_table_based")
    table.compress()
    return len(table.table)


def s3_permutation_oracle():
    """Symmetric-group multiplication oracle built from raw permutations."""
    elems = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}
    compose = {}
    for p in elems:
        for q in elems:
            pq = tuple(q[p[i]] for i in range(3))
            compose[(index[p], index[q])] = index[pq]
    orders = []
    for p in elems:
        k, cur = 1, p
        while cur != (0, 1, 2):
            cur = tuple(p[cur[i]] for i in range(3))
            k += 1
        orders.append(k)
    return len(elems), sorted(orders)


class TestEnumerate:
    def test_c6_trivial_subgroup(self):
        p = catalog_lookup("C6").presentation
        table, stats = enumerate_cosets(p)
        assert table.coset_count == 6
        assert table.complete
        assert stats.cosets_final == 6
        assert stats.cosets_defined >= 6

    def test_s3_against_permutation_oracle(self):
        p = parse_group("group S3 { gens: a b; rels: a^3, b^2, (a b)^2; }")
        table, _ = enumerate_cosets(p)
        assert table.coset_count == 6
        g = regular_representation(table, p)
        n, order_multiset = s3_permutation_oracle()
        assert g.order == n
        assert sorted(int(v) for v in g.element_orders()) == order_multiset
        assert derived_subgroup(g).order == 3

    def test_infinite_cyclic_budget(self):
        p = catalog_lookup("Z").presentation
        with pytest.raises(BudgetExceeded) as err:
            enumerate_cosets(p, (), EnumerationBudget(max_cosets=400))
        assert err.value.stats is not None
        assert err.value.stats.cosets_defined >= 400

    def test_subgroup_index(self):
        p = catalog_lookup("C6").presentation
        a = Word.gen(0)
        table, _ = enumerate_cosets(p, (a ** 2,))
        assert table.coset_count == 2
        table, _ = enumerate_cosets(p, (a ** 3,))
        assert table.coset_count == 3
        table, _ = enumerate_cosets(p, (a,))
        assert table.coset_count == 1

    @pytest.mark.parametrize("name", ["S3", "Q8", "D4", "A4"])
    def test_relator_order_invariance(self, name):
        p = catalog_lookup(name).presentation
        base, _ = enumerate_cosets(p)
        for perm in list(permutations(range(len(p.relators))))[:6]:
            q = Presentation(p.name, p.generators,
                             tuple(p.relators[i] for i in perm))
            table, _ = enumerate_cosets(q)
            assert table.coset_count == base.coset_count

    def test_defining_hint_with_retry(self):
        # The first relator alone presents an infinite group, forcing the
        # fallback to the full relator list.
        p = catalog_lookup("S3").presentation
        table, stats = enumerate_cosets(
            p, (), EnumerationBudget(max_cosets=3000), defining_count=1)
        assert table.coset_count == 6
        assert stats.cosets_defined > 3000

    def test_failed_retry_reports_both_attempts(self):
        # <a, b | a^2, b^2> is infinite with or without the hint.
        a, b = Word.gen(0), Word.gen(1)
        p = Presentation("Dinf", ("a", "b"), (a ** 2, b ** 2))
        with pytest.raises(BudgetExceeded) as info:
            enumerate_cosets(p, (), EnumerationBudget(max_cosets=100),
                             defining_count=1)
        assert info.value.stats.cosets_defined == 2 * 101
        assert info.value.details["stats"] is info.value.stats

    def test_lookahead_merges_on_deferred_relator(self):
        a = Word.gen(0)
        p = Presentation("G", ("a",), (a ** 6, a ** 4))
        table, stats = enumerate_cosets(p, (), defining_count=1)
        assert table.coset_count == 2
        assert stats.coincidences > 0

    def test_every_relator_closes_at_every_coset(self):
        from ntl.coset import word_letters
        p = catalog_lookup("Q8").presentation
        table, _ = enumerate_cosets(p)
        rows = table.rows
        for w in p.relators:
            v = np.arange(table.coset_count)
            for letter in word_letters(w):
                v = rows[v, letter]
            assert (v == np.arange(table.coset_count)).all()

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            EnumerationBudget(max_cosets=0)
        with pytest.raises(ValueError):
            EnumerationBudget(max_time_ms=0)

    @pytest.mark.parametrize("name", ["C12", "S3", "Q8", "D4", "C2xC6",
                                      "A4", "S4"])
    def test_felsch_strategy_cross_checks_hlt(self, name):
        p = catalog_lookup(name).presentation
        hlt, stats = enumerate_cosets(p)
        assert sympy_felsch_index(p) == hlt.coset_count
        assert stats.cosets_final == hlt.coset_count

    def test_felsch_with_subgroup_and_merges(self):
        a = Word.gen(0)
        p = Presentation("G", ("a",), (a ** 6, a ** 4))
        table, _ = enumerate_cosets(p, defining_count=1)
        assert sympy_felsch_index(p) == table.coset_count == 2
        c6 = catalog_lookup("C6").presentation
        table, _ = enumerate_cosets(c6, (a ** 2,))
        assert sympy_felsch_index(c6, (a ** 2,)) == table.coset_count == 2


class TestRegularRepresentation:
    def test_c6_structure(self):
        g, stats = realize_presentation(catalog_lookup("C6").presentation)
        assert g.order == 6
        assert abelian_structure(g).factors == (6,)
        assert stats.cosets_final == 6

    def test_trivial_group(self):
        g, _ = realize_presentation(catalog_lookup("C1").presentation)
        assert g.order == 1
        assert g.element_words == (Word(),)

    def test_incomplete_table_rejected(self):
        p = catalog_lookup("C2").presentation
        table, _ = enumerate_cosets(p)
        broken = CosetTable(rows=table.rows, coset_count=table.coset_count,
                            complete=False, presentation=p)
        with pytest.raises(IncompleteTable):
            regular_representation(broken, p)

    def test_intransitive_table_rejected(self):
        # Two copies of the C2 table side by side: every relator closes at
        # coset 0, but cosets 2 and 3 are out of its reach.
        p = catalog_lookup("C2").presentation
        rows = np.array([[1, 1], [0, 0], [3, 3], [2, 2]], dtype=np.int32)
        split = CosetTable(rows=rows, coset_count=4, complete=True,
                           presentation=p)
        with pytest.raises(InternalInconsistency, match="not transitive"):
            regular_representation(split, p)

    def test_identity_is_index_zero(self):
        g, _ = realize_presentation(catalog_lookup("D4").presentation)
        assert g.mul(0, 3) == 3
        assert g.mul(3, 0) == 3
        assert g.inv(0) == 0

    def test_words_evaluate_back(self):
        g, _ = realize_presentation(catalog_lookup("S3").presentation)
        for x in range(g.order):
            assert g.evaluate(g.element_words[x]) == x

    @pytest.mark.parametrize("name", ["C1", "C7", "C12", "C2xC4", "C2xC6",
                                      "C3xC3"])
    def test_order_matches_abelian_cokernel_route(self, name):
        from ntl.abelian import abelian_invariants
        p = catalog_lookup(name).presentation
        g, _ = realize_presentation(p)
        rows = [w.exponent_row(p.ngens) for w in p.relators]
        assert g.order == abelian_invariants(rows, ncols=p.ngens).order()
