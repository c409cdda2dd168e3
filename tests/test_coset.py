import ctypes
import hashlib
import re
import subprocess
import sysconfig
import time
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from ntl import coset, groups
from ntl.catalog import catalog_lookup, finite_corpus
from ntl.coset import (CosetTable, EnumerationBudget, Relators, _Enumerator,
                       budget_scope, current_budget, enumerate_cosets,
                       realize_presentation, regular_representation)
from ntl.errors import BudgetExceeded, CapExceeded, InternalInconsistency
from ntl.groups import (GROUP_ORDER_CAP, RealizedGroup, _walk_levels,
                        closure, derived_subgroup, section_invariants)
from ntl.parsing import parse_file
from ntl.tensor import (_commutator_words, _direct_relators, build_eta,
                        build_nu, conjugation_pair, trivial_pair)
from ntl.words import Presentation, Word

from support import ReferenceEnumerator, realize_name, relator_letters


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

    def test_innermost_budget_scope_applies(self):
        outer = EnumerationBudget(max_cosets=7)
        inner = EnumerationBudget(max_cosets=9)
        assert current_budget() == EnumerationBudget()
        with budget_scope(outer):
            with budget_scope(inner):
                assert current_budget() is inner
            assert current_budget() is outer
            with budget_scope(None):
                assert current_budget() == EnumerationBudget()
        assert current_budget() == EnumerationBudget()

    def test_time_budget_is_one_deadline_for_the_scope(self):
        # The deadline is fixed when the scope opens, so a run that starts
        # after it has passed stops at its first time check, the 1024th
        # coset, however fast the run itself is.
        p = catalog_lookup("Z").presentation
        with budget_scope(EnumerationBudget(max_time_ms=50)):
            time.sleep(0.25)
            t0 = time.monotonic()
            with pytest.raises(BudgetExceeded) as err:
                enumerate_cosets(p)
            elapsed = time.monotonic() - t0
        assert str(err.value) == "time budget 50 ms exhausted"
        assert err.value.stats.cosets_defined == 1024
        assert elapsed < 0.25

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
        # The kernel is handed every relator but a^4, so a^4 stays open in
        # a complete table; only the closing check, which traces all of
        # them, can see it.
        a = Word.gen(0)
        p = Presentation("G", ("a",), (a ** 6, a ** 4))
        hlt_pass = coset._hlt_pass

        def without_a4(relators, *rest):
            assert relator_letters(relators) == [(0,) * 6, (0,) * 4]
            return hlt_pass(Relators(p.name, p.ngens, relators.letters[:6],
                                     relators.ends[:1]), *rest)

        monkeypatch.setattr(coset, "_hlt_pass", without_a4)
        with pytest.raises(InternalInconsistency,
                           match="relator 1 is open"):
            enumerate_cosets(p)

    @pytest.mark.parametrize("entry", [-1, 6], ids=["undefined", "past-n"])
    def test_an_entry_outside_the_live_cosets_is_an_engine_bug(
            self, monkeypatch, entry):
        # C6's table with one entry undefined, or naming a coset past the
        # six live ones, is refused before the closing check traces it.
        p = catalog_lookup("C6").presentation
        hlt_pass = coset._hlt_pass

        def with_a_bad_entry(*args):
            rows, stats = hlt_pass(*args)
            assert rows.shape[0] == 6
            rows[3, 1] = entry
            return rows, stats

        def unreachable(self, rows):
            raise AssertionError("the closing check was called")

        monkeypatch.setattr(coset, "_hlt_pass", with_a_bad_entry)
        monkeypatch.setattr(_Enumerator, "_find_violation", unreachable)
        with pytest.raises(InternalInconsistency, match="^the HLT pass left "
                           "an entry outside the live cosets$"):
            enumerate_cosets(p)

    def test_the_closing_check_names_the_lowest_open_relator(self):
        # Both generators step +1 in the cyclic table of order 7.  Relator
        # 3 (length 7) is traced in the first length group and relator 2
        # (length 3) in a later one; relators 0 and 1 are closed.
        a, b = Word.gen(0), Word.gen(1)
        p = Presentation("G", ("a", "b"),
                         (a ** 7, a ** 2 * b ** -2, a ** 3, a ** 6 * ~b))
        i = np.arange(7)
        step = np.stack([(i + 1) % 7, (i - 1) % 7] * 2, axis=1)
        enumerator = _Enumerator(p)
        lengths = np.diff(enumerator.relators.ends, prepend=0)
        assert lengths.tolist() == [7, 4, 3, 7]
        assert enumerator._find_violation(step) == \
            "relator 2 is open at coset 0"
        closed = _Enumerator(Presentation("G", ("a", "b"),
                                          (a ** 7, a ** 2 * b ** -2)))
        assert closed._find_violation(step) is None

    def test_the_closing_check_names_the_first_open_coset(self):
        # a swaps cosets 1 and 2 and fixes 0 and 3, so a^2 closes
        # everywhere and a closes at 0 and 3 only.
        a = Word.gen(0)
        rows = np.array([[0, 0], [2, 2], [1, 1], [3, 3]])
        enumerator = _Enumerator(Presentation("G", ("a",), (a ** 2, a)))
        assert enumerator._find_violation(rows) == \
            "relator 1 is open at coset 1"

    @pytest.mark.parametrize("letters, ends, message", [
        ([0, -1, 2], [1, 3], "relator letter out of range"),
        ([0, 4, 2], [1, 3], "relator letter out of range"),
        # int32 would wrap 2^32 to letter 0
        ([0, 2 ** 32, 2], [1, 3], "relator letter out of range"),
        ([0, 1, 2], [1, 1, 3], "do not cut its letters"),
        ([0, 1, 2], [1, 4], "do not cut its letters"),
        ([0, 1, 2], [2, 1], "do not cut its letters"),
    ], ids=["minus-one", "two-ngens", "wraps-in-int32", "empty-relator",
            "past-the-letters", "decreasing"])
    def test_the_letter_form_is_checked_before_the_kernel_reads_it(
            self, monkeypatch, letters, ends, message):
        def unreachable():
            raise AssertionError("the kernel was called")

        monkeypatch.setattr(coset, "_kernel", unreachable)
        with pytest.raises(InternalInconsistency, match=message):
            enumerate_cosets(Relators("G", 2, np.array(letters),
                                      np.array(ends)))

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

    @pytest.mark.parametrize("entry", [-1, 2, 2 ** 32])
    def test_out_of_range_coset_entry_rejected(self, entry):
        # The kernel reads entries as indices, and int32 would wrap 2^32.
        p = catalog_lookup("C2").presentation
        rows = np.array([[1, 1], [0, entry]])
        with pytest.raises(InternalInconsistency,
                           match="^coset table entry out of range$"):
            regular_representation(CosetTable(rows=rows, presentation=p))

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

    def test_one_order_cap_for_every_table(self, monkeypatch):
        # A cap below C6's order, so no table of the cap's size is built.
        t, _ = enumerate_cosets(catalog_lookup("C6").presentation)
        g = regular_representation(t)
        monkeypatch.setattr(groups, "GROUP_ORDER_CAP", 5)
        with pytest.raises(CapExceeded, match="^group order 6 exceeds cap 5$"):
            RealizedGroup("C6", g.table, g.generator_images)
        with pytest.raises(CapExceeded, match="^group order 6 exceeds cap 5$"):
            regular_representation(t)

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


def _walk(table, steps):
    """`_walk_levels`' tree as a flat edge list in discovery order: (vertex,
    parent, index in `steps` of the step that reached it)."""
    return [(x, p, s) for level in _walk_levels(table, steps)
            for v, ps, s in level for x, p in zip(v.tolist(), ps.tolist())]


def _regular_table_per_row(t: CosetTable) -> np.ndarray:
    """The regular representation's table spread one tree edge at a time
    in numpy, one row of `left` and one table row per edge: the oracle for
    the kernel's fill.  int32, so that no narrowing is shared with it."""
    cols = t.rows
    n, ngens = t.coset_count, t.presentation.ngens
    tree = _walk(cols, range(0, 2 * ngens, 2))
    left = np.empty((n, ngens), dtype=np.int64)
    left[0] = cols[0, 0::2]
    for d, c, h in tree:
        left[d] = cols[left[c], 2 * h]
    table = np.empty((n, n), dtype=np.int32)
    table[0] = np.arange(n)
    for a, c, h in tree:
        table[a] = table[c][left[:, h]]
    return table


def _nu_coset_table(name) -> CosetTable:
    """The coset table that `build_nu` enumerates for a catalog group."""
    return build_nu(realize_name(name)).table


@pytest.mark.parametrize("name", [
    *(e.name for e in finite_corpus() if e.known_facts["order"] <= 8),
    "C3xC3", "C2xC6", "A4", "D6"])
def test_regular_representation_matches_the_per_row_spread(name,
                                                           monkeypatch):
    """Same table on nu(G) for the corpus groups of order <= 8 (Q8 among
    them) and for four of order 9 and 12 whose nu the benchmark's counts
    rest on, nu(D6)'s 6912 x 6912 table the largest; with the walk
    gathered in blocks of one step and of the engine's size.  The kernel
    fills int16 tables only, the one width an order under the cap needs
    (see `test_regular_representation_refuses_a_wider_table`)."""
    t = _nu_coset_table(name)
    want = _regular_table_per_row(t)
    for block in (1, groups._CELLS):
        monkeypatch.setattr(groups, "_CELLS", block)
        got = regular_representation(t).table
        assert got.dtype == np.int16
        assert np.array_equal(got, want)


def test_regular_representation_refuses_a_wider_table(monkeypatch):
    t, _ = enumerate_cosets(catalog_lookup("S3").presentation)
    monkeypatch.setattr(coset, "_table_dtype", lambda n: np.int32)
    with pytest.raises(InternalInconsistency,
                       match="^the kernel fills int16 tables, not int32$"):
        regular_representation(t)


def _s3_on_three_points():
    """S3 = <a, b | a^3, b^2, (a b)^2> on the cosets of <b>: a = (0 1 2),
    b = (1 2).  Transitive, closed under every relator, not regular."""
    return CosetTable(np.array([[1, 2, 0, 0], [2, 0, 2, 2], [0, 1, 1, 1]],
                               dtype=np.int32),
                      catalog_lookup("S3").presentation)


def _table(name, rows):
    return CosetTable(np.array(rows, dtype=np.int32),
                      catalog_lookup(name).presentation)


# Each table breaks one branch of `certify_regular`.
IRREGULAR_TABLES = {
    # C3 with the inverse column a copy of the generator's
    "inverse-column": (lambda: _table("C3", [[1, 1], [2, 2], [0, 0]]),
                       "^an inverse column does not undo its generator "
                       "column$"),
    # two copies of C2's table
    "transitivity": (lambda: _table("C2", [[1, 1], [0, 0], [3, 3], [2, 2]]),
                     "^coset table is not transitive$"),
    "regularity": (_s3_on_three_points,
                   "^coset table is not a regular representation$"),
}


@pytest.mark.parametrize("fault", IRREGULAR_TABLES)
def test_every_branch_of_certify_regular_can_fire(fault):
    table, message = IRREGULAR_TABLES[fault]
    t = table()
    with pytest.raises(InternalInconsistency, match=message):
        coset.certify_regular(t, range(t.presentation.ngens))


@pytest.mark.parametrize("name", ["S3", "Q8", "A4", "C2xC4"])
def test_certify_regular_passes_every_enumerated_table(name):
    t, _ = enumerate_cosets(catalog_lookup(name).presentation)
    coset.certify_regular(t, range(t.presentation.ngens))
    e = build_nu(realize_name(name))
    coset.certify_regular(e.table, range(e.presentation.ngens))


def test_regularity_is_checked_only_up_to_the_light_bound(monkeypatch):
    """Above `_ASSOC_CHECK_MAX` cosets only the columns and the walk are
    checked, as Light's test is bounded."""
    t = _s3_on_three_points()
    monkeypatch.setattr(coset, "_ASSOC_CHECK_MAX", 2)
    coset.certify_regular(t, [0, 1])


def test_traces_multiply_as_the_regular_representation():
    """In nu(S3)'s coset table, the trace of a word from x is x times the
    word's element in eta's table, and `_WordSteps` reads the commutators'
    words as the columns of eta's table that the commutators name."""
    e = build_nu(realize_name("S3"))
    eta = e.eta
    x = np.arange(eta.order)
    for g, image in enumerate(eta.generator_images):
        assert np.array_equal(coset.trace(e.table, x, [2 * g]),
                              eta.table[x, image])
        assert np.array_equal(coset.trace(e.table, x, [2 * g + 1]),
                              eta.table[x, eta.inverse[image]])
    comms = e.tensor_cosets[e.commutators].ravel()
    steps = coset._WordSteps(e.table, _commutator_words(e.pair,
                                                       range(comms.size)))
    assert np.array_equal(steps[x[:, None], np.arange(comms.size)],
                          eta.table[x[:, None], comms])


@pytest.mark.parametrize("cells", [1, 97])
def test_small_blocks_enumerate_the_same_tables(monkeypatch, cells):
    """Same rows and stats on every finite corpus presentation and on
    eta(S3)'s, and the same open relator and coset named on the
    hand-built tables, with blocks of one relator or row, or a few."""
    presentations = [e.presentation for e in finite_corpus()]
    presentations.append(build_nu(realize_name("S3")).presentation)
    want = [enumerate_cosets(p) for p in presentations]
    monkeypatch.setattr(groups, "_CELLS", cells)
    for p, (table, stats) in zip(presentations, want):
        got, got_stats = enumerate_cosets(p)
        assert np.array_equal(got.rows, table.rows), p.name
        assert got_stats == stats, p.name
    TestEnumerate().test_the_closing_check_names_the_lowest_open_relator()
    TestEnumerate().test_the_closing_check_names_the_first_open_coset()


def test_regular_representation_peaks_below_the_table_plus_one_block(
        monkeypatch):
    """eta(D4) = nu(D4) has 2048 elements, so its table is 8 MiB, which
    the kernel fills in place.  Above the table sit `left` (16 generators
    x 2048 int32 entries, 128 KiB), the tree's edge arrays (3 x 2047 int64
    entries, 48 KiB) and the walk, with the temporaries of its blocks and
    of the realized group's checks: about 0.3 MiB in all.  A second table
    or any whole-level temporary of the fill would exceed the bound."""
    t = _nu_coset_table("D4")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = regular_representation(t)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.table.nbytes == 2048 * 2048 * 2
    assert peak < g.table.nbytes + (1 << 20)


def _outcome(run):
    """What a run gives: its rows and stats, or its BudgetExceeded message
    and stats."""
    try:
        return run()
    except BudgetExceeded as exc:
        return str(exc), exc.stats


def _kernel_and_reference(p: Presentation | Relators, max_cosets: int):
    with budget_scope(EnumerationBudget(max_cosets=max_cosets)):
        table = _outcome(lambda: enumerate_cosets(p))
    if isinstance(table[0], CosetTable):
        table = (table[0].rows, table[1])
    return table, _outcome(ReferenceEnumerator(p, max_cosets).run)


def _assert_same(got, want, name):
    assert type(got[0]) is type(want[0]), (name, got, want)
    if isinstance(got[0], np.ndarray):
        assert got[0].dtype == np.int32, name
        assert np.array_equal(got[0], want[0]), name
    else:
        assert got[0] == want[0], name
    assert got[1] == want[1], name


def test_the_kernel_matches_the_python_reference():
    """Same rows and stats as the pure-Python pass on the finite corpus,
    nu(S3), nu(Q8), a trivial-action eta and the letter form of the direct
    presentation of D6(x)D6, which both read as `build_direct` gives it."""
    d6 = realize_name("D6")
    presentations = [e.presentation for e in finite_corpus()] + [
        build_nu(realize_name("S3")).presentation,
        build_nu(realize_name("Q8")).presentation,
        build_eta(trivial_pair(realize_name("C2"),
                               realize_name("C3"))).presentation,
        _direct_relators(conjugation_pair(d6))]
    for p in presentations:
        got, want = _kernel_and_reference(p, 2_000_000)
        assert isinstance(got[0], np.ndarray), p.name
        _assert_same(got, want, p.name)


def test_the_kernel_exhausts_a_budget_as_the_reference_does():
    p = build_nu(realize_name("S3")).presentation
    got, want = _kernel_and_reference(p, 500)
    assert got[0] == ("coset budget 500 exhausted (possible infinite group "
                      "or undersized budget)")
    assert got[1].cosets_defined == 501
    _assert_same(got, want, p.name)


@st.composite
def small_presentations(draw):
    ngens = draw(st.integers(1, 3))
    letter = st.tuples(st.integers(0, ngens - 1),
                       st.sampled_from((-3, -2, -1, 1, 2, 3)))
    relators = draw(st.lists(st.lists(letter, min_size=1, max_size=4),
                             max_size=4))
    gens = tuple("abc"[:ngens])
    return Presentation("G", gens, tuple(Word.of(w) for w in relators))


@given(small_presentations(), st.integers(1, 300))
@settings(max_examples=300, deadline=None)
def test_the_kernel_matches_the_reference_on_small_presentations(p,
                                                                 max_cosets):
    """Finished runs give the same rows and stats, and exhausted ones the
    same message and stats."""
    got, want = _kernel_and_reference(p, max_cosets)
    _assert_same(got, want, p)


class TestKernelBuild:
    def test_a_cache_holds_one_library_named_by_the_source_digest(
            self, tmp_path, monkeypatch):
        first = coset._build(tmp_path)

        def compile_again(*args, **kwargs):
            raise AssertionError("compiled twice")
        monkeypatch.setattr(subprocess, "run", compile_again)
        assert coset._build(tmp_path) == first
        assert [f.name for f in tmp_path.iterdir()] == [first.name]
        command = " ".join([*sysconfig.get_config_var("CC").split(),
                            "-O2", "-shared", "-fPIC"])
        digest = hashlib.sha256(coset._SOURCE.read_bytes()
                                + command.encode()).hexdigest()
        assert first.name == f"_hlt.{digest[:16]}.so"
        kernel = ctypes.CDLL(str(first))
        assert (kernel.ntl_hlt_run and kernel.ntl_hlt_take
                and kernel.ntl_regular_fill)

    def test_a_compile_removes_only_stale_libraries(self, tmp_path):
        stale = tmp_path / "_hlt.0123456789abcdef.so"
        others = ["_hlt.0123.so", "_hlt.c", "_hlt.0123456789abcdef.so.tmp",
                  "notes.txt"]
        for name in [stale.name, *others]:
            (tmp_path / name).write_bytes(b"")
        lib = coset._build(tmp_path)
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
            [lib.name, *others])
        # A library already built is loaded as it is, and nothing pruned.
        stale.write_bytes(b"")
        assert coset._build(tmp_path) == lib
        assert stale.exists()

    def test_a_stale_library_that_vanished_is_ignored(self, tmp_path,
                                                      monkeypatch):
        gone = tmp_path / "_hlt.fedcba9876543210.so"
        monkeypatch.setattr(type(tmp_path), "glob",
                            lambda self, pattern: iter([gone]))
        lib = coset._build(tmp_path)
        assert [f.name for f in tmp_path.iterdir()] == [lib.name]

    def test_the_kernel_compiles_without_warnings(self, tmp_path):
        """-Wall -Wextra -Wconversion -Werror, in a test so that the
        runtime command and the library's digest stay as they are.
        -Wconversion sees every int64 index narrowed into an int32 entry."""
        argv = [*sysconfig.get_config_var("CC").split(), "-Wall", "-Wextra",
                "-Wconversion", "-Werror", "-O2", "-shared", "-fPIC",
                "-o", str(tmp_path / "_hlt.so"), str(coset._SOURCE)]
        done = subprocess.run(argv, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("cc,failure", [
        ("false", "exited with status 1:\n"),
        (f"{sysconfig.get_config_var('CC')} -fno-such-ntl-flag",
         "exited with status 1:\n.*-fno-such-ntl-flag"),
        ("ntl-no-such-compiler", "failed: .*No such file")],
        ids=["false", "bad-flag", "missing"])
    def test_a_failed_compile_names_the_command_and_nothing_replaces_it(
            self, tmp_path, monkeypatch, cc, failure):
        config = sysconfig.get_config_var
        monkeypatch.setattr(sysconfig, "get_config_var",
                            lambda name: cc if name == "CC" else config(name))
        monkeypatch.setattr(coset, "_cache_dir", lambda: tmp_path)
        coset._kernel.cache_clear()
        try:
            with pytest.raises(RuntimeError) as err:
                enumerate_cosets(catalog_lookup("C2").presentation)
        finally:
            coset._kernel.cache_clear()
        command = f"{cc} -O2 -shared -fPIC -o {tmp_path}/_hlt."
        assert str(err.value).startswith(
            f"cannot compile the HLT kernel: `{command}")
        assert re.search(f"{re.escape(str(coset._SOURCE))}` {failure}",
                         str(err.value), re.DOTALL)
        assert list(tmp_path.iterdir()) == []
