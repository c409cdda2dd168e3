import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntl import groups
from ntl.catalog import finite_corpus, realize_entry
from ntl.coset import enumerate_cosets
from ntl.errors import InternalInconsistency, MixedParents
from ntl.groups import (Homomorphism, RealizedGroup, Subgroup, _commutators,
                        _conjugates, _light_associative, _walk_levels,
                        closure, commutator_subgroup, derived_subgroup,
                        intersection, presentation_invariants,
                        section_invariants, subgroup_as_group,
                        subgroup_exponent)
from ntl.tensor import build_nu

from support import comm, realize_name, walk_edges


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
    comms = {comm(g, x, y) for x in range(g.order) for y in range(g.order)}
    return naive_closure(g, comms)


def whole(g):
    return closure(g, g.generator_images)


def table_invariants(g):
    """Invariant factors of an abelian group read off its table."""
    return section_invariants(whole(g), closure(g, []))


def generators_as_members(sub):
    """The parent's elements that generate `sub` once it is realized."""
    grp, incl = subgroup_as_group(sub)
    return [incl.images[x] for x in grp.generator_images]


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
        regen = closure(d4, generators_as_members(sub))
        assert regen.members == sub.members


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
        assert closure(g, generators_as_members(sub)).members == sub.members

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
        comms = {comm(g, x, y) for x in m.members for y in n.members}
        assert list(commutator_subgroup(m, n).members) == \
            naive_closure(g, comms)


class TestKernelQuotient:
    def test_identity_map_kernel(self):
        s3 = realize_name("S3")
        h = Homomorphism(s3, s3, np.arange(6))
        assert h.kernel().order == 1

    def test_c6_onto_c3(self):
        c6, c3 = realize_name("C6"), realize_name("C3")
        exps = [w.exponent_row(1)[0] for w in c6.element_words]
        images = [c3.power(c3.generator_images[0], e) for e in exps]
        h = Homomorphism(c6, c3, images)
        assert h.kernel().order == 2

    def test_sign_map_kernel(self):
        s3, c2 = realize_name("S3"), realize_name("C2")
        # generator a is the transposition (odd), b the 3-cycle (even)
        parity = [w.exponent_row(2)[0] % 2 for w in s3.element_words]
        h = Homomorphism(s3, c2, parity)
        k = h.kernel()
        assert k.order == 3
        assert k.is_normal()

    def test_quotient_c6_by_c3(self):
        c6 = realize_name("C6")
        sub = closure(c6, [c6.power(c6.generator_images[0], 2)])
        assert section_invariants(whole(c6), sub).factors == (2,)

    def test_quotient_by_trivial_is_isomorphic_copy(self):
        for name in ("C2xC4", "C2xC6", "C3xC3", "C12"):
            g = realize_name(name)
            inv = table_invariants(g)
            assert inv == g.abelianization()
            assert inv.order() == g.order
            assert inv.exponent() == g.exponent()

    def test_s3_mod_a3(self):
        s3 = realize_name("S3")
        a3 = derived_subgroup(s3)
        assert section_invariants(whole(s3), a3).factors == (2,)

    def test_not_normal(self):
        s3 = realize_name("S3")
        t = next(x for x in range(6) if s3.element_orders()[x] == 2)
        with pytest.raises(InternalInconsistency, match="not abelian"):
            section_invariants(whole(s3), closure(s3, [t]))

    @pytest.mark.parametrize("name", ["C6", "D4", "Q8", "A4"])
    def test_order_arithmetic(self, name):
        # outer/inner is abelian exactly when inner holds G'
        g = realize_name(name)
        gprime = set(derived_subgroup(g).members)
        for seed in range(g.order):
            sub = closure(g, [seed])
            if gprime <= set(sub.members):
                inv = section_invariants(whole(g), sub)
                assert inv.order() * sub.order == g.order
            else:
                with pytest.raises(InternalInconsistency):
                    section_invariants(whole(g), sub)


@pytest.mark.parametrize("entry", finite_corpus(), ids=lambda e: e.name)
class TestTableRoutinesAgainstScalars:
    """The array routines every group fact goes through, checked against
    the scalar commutator of the tests and `RealizedGroup.conj`."""

    def test_commutators(self, entry):
        g = realize_entry(entry)
        ar = np.arange(g.order)
        want = [[comm(g, x, y) for y in ar] for x in ar]
        assert np.array_equal(_commutators(g, ar, ar), want)

    def test_conjugates(self, entry):
        g = realize_entry(entry)
        ar = np.arange(g.order)
        table = _conjugates(g, ar, ar)
        assert np.array_equal(table, [[g.conj(x, y) for x in ar]
                                      for y in ar])
        # any shape of conjugated array: indexed [y, *x]
        grid = _commutators(g, ar, ar)
        assert np.array_equal(_conjugates(g, ar[::-1], grid),
                              table[ar[::-1, None, None], grid[None]])

    def test_is_normal_on_every_cyclic_subgroup(self, entry):
        g = realize_entry(entry)
        for x in range(g.order):
            sub = closure(g, [x])
            normal = all(g.conj(m, y) in sub.members
                         for m in sub.members for y in range(g.order))
            assert sub.is_normal() == normal, (entry.name, x)

    def test_derived_subgroup(self, entry):
        g = realize_entry(entry)
        sub = derived_subgroup(g)
        assert list(sub.members) == naive_derived(g)
        assert sub.is_normal()
        assert Subgroup(g, tuple(range(g.order))).is_normal()


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


class TestSections:
    @pytest.mark.parametrize("entry", finite_corpus(), ids=lambda e: e.name)
    def test_abelianization_agrees_with_the_presentation(self, entry):
        g = realize_entry(entry)
        assert (section_invariants(whole(g), derived_subgroup(g))
                == presentation_invariants(entry.presentation))

    def test_a_group_without_presentation_reads_its_table(self):
        copy, _ = subgroup_as_group(whole(realize_name("S3")))
        assert copy.source_presentation is None
        assert copy.abelianization().factors == (2,)

    def test_non_abelian_section_rejected(self):
        s3 = realize_name("S3")
        with pytest.raises(InternalInconsistency, match="not abelian"):
            section_invariants(whole(s3), closure(s3, []))

    def test_inner_outside_outer_rejected(self):
        c6 = realize_name("C6")
        a = c6.generator_images[0]
        outer = closure(c6, [c6.power(a, 2)])
        inner = closure(c6, [c6.power(a, 3)])
        with pytest.raises(InternalInconsistency, match="not contained"):
            section_invariants(outer, inner)

    def test_mixed_parents_rejected(self):
        c6, s3 = realize_name("C6"), realize_name("S3")
        with pytest.raises(MixedParents):
            section_invariants(whole(c6), closure(s3, []))

    def test_proper_section(self):
        # D4 = <r, s>: <r> over its square <r^2> is C2
        d4 = realize_name("D4")
        r = next(x for x in range(8) if d4.element_orders()[x] == 4)
        outer = closure(d4, [r])
        inner = closure(d4, [d4.mul(r, r)])
        assert section_invariants(outer, inner).factors == (2,)


class TestStructure:
    def test_abelian_structure_values(self):
        assert table_invariants(realize_name("C2xC4")).factors == (2, 4)
        assert table_invariants(realize_name("C6")).factors == (6,)
        assert table_invariants(realize_name("C2xC6")).factors == (2, 6)
        assert table_invariants(realize_name("C3xC3")).factors == (3, 3)
        trivial = RealizedGroup("1", np.zeros((1, 1), dtype=int), ())
        assert table_invariants(trivial).factors == ()

    def test_abelianization_matches_structure_on_abelian(self):
        for name in ("C8", "C2xC6", "C3xC3"):
            g = realize_name(name)
            assert g.abelianization() == table_invariants(g)

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
        inner = closure(c6, [c6.power(c6.generator_images[0], 3)])
        assert section_invariants(whole(c6), inner).factors == (3,)

    def test_associativity_guard(self):
        # A loop of order 5: a Latin square with identity 0 and two-sided
        # inverses that 1 generates, so only associativity fails.
        bad = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1],
                        [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]], dtype=np.int16)
        with pytest.raises(InternalInconsistency, match="associativity fails"):
            RealizedGroup("bad", bad, [1, 2, 3, 4])

    @pytest.mark.parametrize("entry,dtype", [
        (65536, None), (-65536, None), (2, None), (-1, None),
        (2, np.int16), (-1, np.int16), (-32768, np.int16)],
        ids=["65536", "-65536", "2", "-1",
             "int16-2", "int16--1", "int16--32768"])
    def test_out_of_range_entry_rejected_before_narrowing(self, entry, dtype):
        # +-65536 wrap to 0 under the int16 cast, which would make this C2;
        # a negative int16 entry reads as at least 2^15 in the range check.
        table = np.array([[0, 1], [1, entry]], dtype=dtype)
        with pytest.raises(InternalInconsistency,
                           match="table entry out of range"):
            RealizedGroup("x", table, [1])

    def test_generator_without_inverse_rejected(self):
        # 1 generates ({0, 1}, and 1*1 = 1), but its row has no identity.
        table = np.array([[0, 1], [1, 1]])
        with pytest.raises(InternalInconsistency,
                           match="generator image 1 of 'x' has no inverse"):
            RealizedGroup("x", table, [1])

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


def _random_loop(n: int, rng) -> np.ndarray:
    """A randomly shuffled backtracking fill of a Latin square whose first
    row and column are the identity: a loop with identity 0."""
    t = np.zeros((n, n), dtype=np.int64)
    t[0] = t[:, 0] = np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        free = sorted(set(range(n)) - set(t[i, :j]) - set(t[:i, j]))
        rng.shuffle(free)
        for v in free:
            t[i, j] = v
            if fill(k + 1):
                return True
        return False

    assert fill(0)
    return t


@st.composite
def tables_with_generators(draw):
    """A table with identity 0 and generator images whose right
    multiplications reach every element from 0: a loop of order <= 6, a
    small group times a loop of order 4 or 5 (associative in the group's
    coordinate alone, unless the loop is a group) with the group's
    generators first, a catalog group, a catalog group with one product
    changed, or a random magma with identity."""
    kind = draw(st.sampled_from(["loop", "product", "group", "perturbed",
                                 "magma"]))
    if kind == "loop":
        t = _random_loop(draw(st.integers(1, 6)),
                         draw(st.randoms(use_true_random=False)))
    elif kind == "product":
        a = realize_name(draw(st.sampled_from(("C2", "C3", "S3"))))
        b = _random_loop(draw(st.integers(4, 5)),
                         draw(st.randoms(use_true_random=False)))
        # (x, l) is x * |b| + l
        m = b.shape[0]
        t = (a.table.astype(np.int64)[:, None, :, None] * m
             + b[None, :, None, :]).reshape(a.order * m, -1)
        first = [x * m for x in a.generator_images]
    elif kind == "magma":
        n = draw(st.integers(1, 6))
        t = np.zeros((n, n), dtype=np.int64)
        t[0] = t[:, 0] = np.arange(n)
        for i in range(1, n):
            for j in range(1, n):
                t[i, j] = draw(st.integers(0, n - 1))
    else:
        t = realize_name(draw(st.sampled_from(WALK_GROUPS))).table.astype(
            np.int64)
        if kind == "perturbed":
            n = t.shape[0]
            i, j = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
            t[i, j] = draw(st.integers(0, n - 1))
    n = t.shape[0]
    gens = (first if kind == "product" else []) + draw(
        st.lists(st.integers(0, n - 1), max_size=4))
    while len(walk_edges(t, gens)) + 1 < n:
        reached = {0} | {x for x, _, _ in walk_edges(t, gens)}
        gens.append(min(set(range(n)) - reached))
    return t, gens


def _s3_walk_with(fault):
    """The walk of S3 = <1, 2> (levels (1 by 0, 2 by 1) and
    (5 = 2.1 by 0, 3 = 2.2 and 4 = 1.2 by 1), each as its edge arrays) with
    one fault; a vertex twice keeps every edge a product in the table."""
    first, second = _walk_levels(realize_name("S3").table, (1, 2))
    if fault == "wrong step":
        first = (first[0], first[1], np.array([1, 1]))
    elif fault == "vertex twice":
        second = tuple(a[[2, 1, 2]] for a in second)
    elif fault == "parent below":
        return [second, first]
    return [first, second]


@pytest.mark.parametrize("fault",
                         ["none", "wrong step", "vertex twice", "parent below"])
def test_a_given_walk_is_checked_against_the_table(fault):
    s3 = realize_name("S3")
    walk = _s3_walk_with(fault)
    if fault == "none":
        g = RealizedGroup("S3", s3.table, (1, 2), walk=walk)
        assert np.array_equal(g.inverse, s3.inverse)
        return
    with pytest.raises(InternalInconsistency, match="is not a tree of it"):
        RealizedGroup("S3", s3.table, (1, 2), walk=walk)


@settings(max_examples=300, deadline=None)
@given(tables_with_generators())
def test_light_test_agrees_with_brute_force(case):
    """Light's test, on the generator images it keeps, accepts exactly the
    associative tables, by the full n^3 comparison."""
    t, gens = case
    assert _light_associative(t, gens) == np.array_equal(t[t], t[:, t])


def _walk_per_step(table, steps):
    """The walk expanded one step at a time, with one gather and one
    `np.unique` per step: the oracle for `_walk`'s step-major blocks."""
    n = table.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    parent = np.zeros(n, dtype=np.int64)
    via = np.zeros(n, dtype=np.int64)
    frontier = np.zeros(1, dtype=np.int64)
    levels = []
    while frontier.size:
        batches = []
        for i, s in enumerate(steps):
            t = table[frontier, s].astype(np.int64)
            fresh = ~seen[t]
            if not fresh.any():
                continue
            reached, first = np.unique(t[fresh], return_index=True)
            seen[reached] = True
            parent[reached] = frontier[fresh][first]
            via[reached] = i
            batches.append(reached)
        frontier = (np.concatenate(batches) if batches
                    else np.zeros(0, dtype=np.int64))
        levels.append(frontier)
    order = np.concatenate(levels)
    return list(zip(order.tolist(), parent[order].tolist(),
                    via[order].tolist()))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 300), st.integers(0, 40), st.integers(1, 100))
def test_blocks_cut_the_range_in_order(n, per_item, cells):
    """The slices cover range(n) exactly and in order, none empty and
    none longer than max(1, cells // per_item); no items, no slices."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_CELLS", cells)
        cuts = list(groups._blocks(n, per_item))
    assert [i for cut in cuts for i in range(n)[cut]] == list(range(n))
    assert all(0 < cut.stop - cut.start <= max(1, cells // max(per_item, 1))
               for cut in cuts)


def test_blocks_read_the_cell_bound_when_called(monkeypatch):
    monkeypatch.setattr(groups, "_CELLS", 6)
    assert list(groups._blocks(7, 2)) == [slice(0, 3), slice(3, 6),
                                          slice(6, 7)]
    assert list(groups._blocks(0, 0)) == []
    assert list(groups._blocks(2, 0)) == [slice(0, 2)]


# One step per gather, a few steps per gather, many, and the engine's bound.
WALK_CELLS = (1, 5, 1 << 13, groups._CELLS)


@pytest.mark.parametrize("cells", WALK_CELLS)
def test_walk_matches_the_per_step_walk_on_the_corpus(monkeypatch, cells):
    """Same tree on the table and on the coset table of every finite
    corpus group; every array of every level is read-only, since every
    spread along the group's walk shares it."""
    monkeypatch.setattr(groups, "_CELLS", cells)
    for entry in finite_corpus():
        g = realize_entry(entry)
        assert walk_edges(g.table, g.generator_images) == _walk_per_step(
            g.table, g.generator_images)
        rows = enumerate_cosets(entry.presentation)[0].rows
        columns = range(0, rows.shape[1], 2)
        assert walk_edges(rows, columns) == _walk_per_step(rows, columns)
        for levels in (g.walk, _walk_levels(rows, columns)):
            assert not any(a.flags.writeable
                           for level in levels for a in level), entry.name


@settings(max_examples=200, deadline=None)
@given(tables_with_generators(), st.sampled_from(WALK_CELLS))
def test_walk_matches_the_per_step_walk(case, cells):
    t, gens = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_CELLS", cells)
        assert walk_edges(t, gens) == _walk_per_step(t, gens)


def test_spread_gives_the_identity_and_the_inverses(monkeypatch):
    """Spread along each finite corpus group's walk, its own generator
    images give the identity map and their inverses in the transposed
    table give the inverse of every element (x^-1 = s^-1.p^-1 for x = p.s),
    by the inverses read off the table.  From every element at once (an
    array `start`, f(x) a row), they give the table's columns: the row of
    x is y.x for each y.  Under each cell bound, so that levels are
    gathered in blocks."""
    realized = [realize_entry(entry) for entry in finite_corpus()]
    for cells in WALK_CELLS:
        monkeypatch.setattr(groups, "_CELLS", cells)
        for g in realized:
            inverse = (g.table == 0).argmax(axis=1)
            assert np.array_equal(
                groups._spread(g.walk, g.table, g.generator_images),
                np.arange(g.order)), (g.name, cells)
            assert np.array_equal(
                groups._spread(g.walk, g.table.T,
                               inverse[list(g.generator_images)]),
                inverse), (g.name, cells)
            assert np.array_equal(
                groups._spread(g.walk, g.table, g.generator_images,
                               start=np.arange(g.order)),
                g.table.T), (g.name, cells)


def _greedy_generators(g, members):
    """The greedy rule, as oracle: each member, in increasing order, that
    the members picked before it do not generate."""
    gens, have = [], {0}
    for x in members:
        if x not in have:
            gens.append(x)
            have = set(naive_closure(g, gens))
            if len(have) == len(members):
                break
    return gens


def test_subgroup_generators_are_the_greedy_ones():
    """On every subgroup generated by at most two elements of each finite
    corpus group."""
    for entry in finite_corpus():
        g = realize_entry(entry)
        for members in {closure(g, [x, y]).members for x in range(g.order)
                        for y in range(x, g.order)}:
            grp, incl = subgroup_as_group(Subgroup(g, members))
            assert incl.images.tolist() == list(members)
            assert [incl.images[x] for x in grp.generator_images] == (
                _greedy_generators(g, members))


@pytest.fixture(scope="module")
def eta_d4():
    """nu(D4): 2048 elements, so its table is 8 MiB."""
    return build_nu(realize_name("D4")).eta


def _with_peak(fn):
    """fn's result and its tracemalloc peak above what was allocated
    before it ran."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_identity_map_and_derived_subgroup_gather_in_bounded_blocks(
        eta_d4, monkeypatch):
    """Each block gathers at most `_CELLS` entries; blocks of 256 rows
    peaked at 13.0 and 4.2 MiB on this group.  Blocks of one entry give the
    same results."""
    ident = np.arange(eta_d4.order)
    hom, peak = _with_peak(lambda: Homomorphism(eta_d4, eta_d4, ident))
    assert peak < 2 << 20
    derived, peak = _with_peak(lambda: derived_subgroup(eta_d4))
    assert peak < 2 << 20
    monkeypatch.setattr(groups, "_CELLS", 1)
    assert np.array_equal(Homomorphism(eta_d4, eta_d4, ident).images,
                          hom.images)
    assert derived_subgroup(eta_d4) == derived
