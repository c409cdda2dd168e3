import time
from itertools import permutations

import numpy as np
import pytest

from ntl.catalog import catalog_lookup, realize_name
from ntl.coset import (CosetTable, EnumerationBudget, _Enumerator,
                       budget_scope, current_budget, enumerate_cosets,
                       realize_presentation, regular_representation,
                       word_letters)
from ntl.errors import BudgetExceeded, CapExceeded, InternalInconsistency
from ntl.groups import (GROUP_ORDER_CAP, closure, derived_subgroup,
                        section_invariants)
from ntl.parsing import parse_file
from ntl.tensor import build_nu
from ntl.words import Presentation, Word


def sympy_felsch_index(p: Presentation) -> int:
    """Order of the presented group by sympy's own coset enumerator, run
    with its coset-table-based (Felsch) strategy: an independent
    implementation with a different definition order."""
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    free, *gens = free_group(" ".join(f"x{i}" for i in range(p.ngens)))

    def word(w: Word):
        out = free.identity
        for g, e in w.letters:
            out = out * gens[g] ** e
        return out

    group = FpGroup(free, [word(w) for w in p.relators])
    table = group.coset_enumeration([], strategy="coset_table_based")
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
        assert stats.cosets_final == 6
        assert stats.cosets_defined >= 6

    def test_s3_against_permutation_oracle(self):
        groups, _ = parse_file(
            "group S3 { gens: a b; rels: a^3, b^2, (a b)^2; }")
        p = groups["S3"]
        table, _ = enumerate_cosets(p)
        assert table.coset_count == 6
        g = regular_representation(table)
        n, order_multiset = s3_permutation_oracle()
        assert g.order == n
        assert sorted(int(v) for v in g.element_orders()) == order_multiset
        assert derived_subgroup(g).order == 3

    def test_infinite_cyclic_budget(self):
        p = catalog_lookup("Z").presentation
        with pytest.raises(BudgetExceeded) as err, \
                budget_scope(EnumerationBudget(max_cosets=400)):
            enumerate_cosets(p)
        assert err.value.stats is not None
        assert err.value.stats.cosets_defined >= 400

    def test_innermost_budget_scope_applies(self, monkeypatch):
        monkeypatch.setenv("NTL_MAX_COSETS", "40")
        outer = EnumerationBudget(max_cosets=7)
        inner = EnumerationBudget(max_cosets=9)
        assert current_budget() == EnumerationBudget(max_cosets=40)
        with budget_scope(outer):
            with budget_scope(inner):
                assert current_budget() is inner
            assert current_budget() is outer
            with budget_scope(None):
                assert current_budget() == EnumerationBudget(max_cosets=40)
        assert current_budget() == EnumerationBudget(max_cosets=40)

    def test_time_budget_is_one_deadline_for_the_scope(self):
        # The deadline is fixed when the scope opens, so a run that starts
        # after it has passed stops at its first time check, the 1024th
        # coset, however fast the run itself is; its stats time the run.
        p = catalog_lookup("Z").presentation
        with budget_scope(EnumerationBudget(max_time_ms=50)):
            time.sleep(0.25)
            with pytest.raises(BudgetExceeded) as err:
                enumerate_cosets(p)
        assert str(err.value) == "time budget 50 ms exhausted"
        assert err.value.stats.cosets_defined == 1024
        assert err.value.stats.elapsed_ms < 250

    def test_a_run_too_short_for_a_time_check_ends_on_the_deadline(self):
        # nu(C3) ends its HLT pass before a 1024th coset; the deadline is
        # read once more when the pass ends.
        c3 = realize_name("C3")
        with budget_scope(EnumerationBudget(max_time_ms=1)):
            time.sleep(0.01)
            with pytest.raises(BudgetExceeded,
                               match=r"^time budget 1 ms exhausted$") as err:
                build_nu(c3)
        assert err.value.stats.cosets_defined < 1024

    def test_inner_scope_without_time_limit_has_no_deadline(self):
        p = catalog_lookup("Z").presentation
        with budget_scope(EnumerationBudget(max_time_ms=50)):
            time.sleep(0.06)
            with pytest.raises(BudgetExceeded, match="coset budget 2000"), \
                    budget_scope(EnumerationBudget(max_cosets=2000)):
                enumerate_cosets(p)

    @pytest.mark.parametrize("name", ["S3", "Q8", "D4", "A4"])
    def test_relator_order_invariance(self, name):
        p = catalog_lookup(name).presentation
        base, _ = enumerate_cosets(p)
        for perm in list(permutations(range(len(p.relators))))[:6]:
            q = Presentation(p.name, p.generators,
                             tuple(p.relators[i] for i in perm))
            table, _ = enumerate_cosets(q)
            assert table.coset_count == base.coset_count

    def test_open_relator_after_hlt_is_an_engine_bug(self, monkeypatch):
        # Skipping one relator's scan leaves it open in a complete table,
        # which only the closing check can see.
        a = Word.gen(0)
        p = Presentation("G", ("a",), (a ** 6, a ** 4))
        skipped = word_letters(a ** 4)
        scan = _Enumerator._scan_and_fill
        monkeypatch.setattr(
            _Enumerator, "_scan_and_fill",
            lambda self, alpha, w: None if w == skipped
            else scan(self, alpha, w))
        with pytest.raises(InternalInconsistency,
                           match="relator 1 is open"):
            enumerate_cosets(p)

    def test_the_closing_check_names_the_lowest_open_relator(self):
        # Both generators step +1 in the cyclic table of order 7.  Relator
        # 3 (length 7) is traced in the first length group and relator 2
        # (length 3) in a later one; relators 0 and 1 are closed.
        a, b = Word.gen(0), Word.gen(1)
        p = Presentation("G", ("a", "b"),
                         (a ** 7, a ** 2 * b ** -2, a ** 3, a ** 6 * ~b))
        i = np.arange(7)
        step = np.stack([(i + 1) % 7, (i - 1) % 7] * 2)
        enumerator = _Enumerator(p)
        assert [len(w) for w in enumerator.relators] == [7, 4, 3, 7]
        assert enumerator._find_violation(step) == \
            "relator 2 is open at coset 0"
        closed = _Enumerator(Presentation("G", ("a", "b"),
                                          (a ** 7, a ** 2 * b ** -2)))
        assert closed._find_violation(step) is None

    def test_the_closing_check_names_the_first_open_coset(self):
        # a swaps cosets 1 and 2 and fixes 0 and 3, so a^2 closes
        # everywhere and a closes at 0 and 3 only.
        a = Word.gen(0)
        cols = np.array([[0, 2, 1, 3], [0, 2, 1, 3]])
        enumerator = _Enumerator(Presentation("G", ("a",), (a ** 2, a)))
        assert enumerator._find_violation(cols) == \
            "relator 1 is open at coset 1"

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
        table, _ = enumerate_cosets(p)
        assert sympy_felsch_index(p) == table.coset_count == 2


class TestRegularRepresentation:
    def test_c6_structure(self):
        g, stats = realize_presentation(catalog_lookup("C6").presentation)
        assert g.order == 6
        table_invariants = section_invariants(
            closure(g, g.generator_images), closure(g, []))
        assert table_invariants.factors == (6,)
        assert stats.cosets_final == 6

    def test_trivial_group(self):
        g, _ = realize_presentation(catalog_lookup("C1").presentation)
        assert g.order == 1
        assert g.element_words == (Word(),)

    def test_enumerated_tables_are_closed(self):
        table, _ = enumerate_cosets(catalog_lookup("S3").presentation)
        assert table.closed

    def test_a_hand_built_table_is_traced_at_the_identity_coset(self):
        # the table of C3 under the presentation of C2: a^2 sends the
        # identity coset to coset 2
        p = catalog_lookup("C2").presentation
        rows = np.array([[1, 2], [2, 0], [0, 1]], dtype=np.int32)
        table = CosetTable(rows=rows, presentation=p)
        assert not table.closed
        with pytest.raises(InternalInconsistency,
                           match="^relator open at the identity coset$"):
            regular_representation(table)

    def test_intransitive_table_rejected(self):
        # Two copies of the C2 table side by side: every relator closes at
        # coset 0, but cosets 2 and 3 are out of its reach.
        p = catalog_lookup("C2").presentation
        rows = np.array([[1, 1], [0, 0], [3, 3], [2, 2]], dtype=np.int32)
        split = CosetTable(rows=rows, presentation=p)
        with pytest.raises(InternalInconsistency, match="not transitive"):
            regular_representation(split)

    def test_order_cap(self):
        # The complete table of a cyclic group one past the cap.
        n = GROUP_ORDER_CAP + 1
        p = Presentation(f"C{n}", ("a",), (Word.gen(0) ** n,))
        i = np.arange(n, dtype=np.int32)
        rows = np.stack([(i + 1) % n, (i - 1) % n], axis=1)
        with pytest.raises(CapExceeded, match=f"group order {n} exceeds"):
            regular_representation(CosetTable(rows=rows, presentation=p))

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
