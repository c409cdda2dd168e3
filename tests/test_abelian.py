import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors as sympy_invf

from ntl.abelian import AbelianInvariants, abelian_invariants, smith_diagonal
from ntl.tensor import (_direct_relators, build_direct, build_nu,
                        conjugation_pair)

from support import realize_name


def sympy_oracle(rows, ncols):
    """Cokernel invariants via sympy's Smith machinery (independent path)."""
    if not rows:
        return AbelianInvariants((0,) * ncols)
    diag = [abs(int(d)) for d in sympy_invf(Matrix(rows), domain=ZZ)]
    torsion = tuple(d for d in diag if d > 1)
    rank = sum(1 for d in diag if d)
    return AbelianInvariants(torsion + (0,) * (ncols - rank))


def test_diagonal_already_normal():
    assert abelian_invariants([[2, 0], [0, 4]]).factors == (2, 4)


def test_non_diagonal_reduces_to_2_4():
    got = abelian_invariants([[4, 2], [0, 2]])
    assert got.factors == (2, 4)
    assert got == sympy_oracle([[4, 2], [0, 2]], 2)


def test_empty_matrix_is_free():
    assert abelian_invariants([], ncols=1).factors == (0,)
    assert abelian_invariants([], ncols=3).factors == (0, 0, 0)


def test_unit_factors_dropped():
    assert abelian_invariants([[1, 0], [0, 6]]).factors == (6,)


def test_zero_rows_ignored():
    assert abelian_invariants([[0, 0], [2, 2], [0, 0]]).factors == (2, 0)


def test_smith_diagonal_chain():
    diag = smith_diagonal([[2, 0], [0, 3], [2, 2]])
    nonzero = [d for d in diag if d]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


@st.composite
def matrices(draw):
    nr = draw(st.integers(1, 4))
    nc = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.lists(st.integers(-9, 9), min_size=nc, max_size=nc),
        min_size=nr, max_size=nr))
    return rows, nc


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_matches_sympy(data):
    rows, nc = data
    assert abelian_invariants(rows, ncols=nc) == sympy_oracle(rows, nc)


@given(matrices(), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_invariant_under_row_and_column_permutation(data, rng):
    rows, nc = data
    base = abelian_invariants(rows, ncols=nc)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    cols = list(range(nc))
    rng.shuffle(cols)
    permuted = [[row[j] for j in cols] for row in shuffled]
    assert abelian_invariants(permuted, ncols=nc) == base


def sympy_diagonal(rows):
    return [abs(int(d)) for d in sympy_invf(Matrix(rows), domain=ZZ)]


@st.composite
def sparse_matrices(draw):
    """Relation matrices shaped like presentations: mostly zeros and ±1,
    with zero rows and repeated rows mixed in."""
    nc = draw(st.integers(1, 8))
    entry = st.sampled_from((0, 0, 0, 0, 1, 1, -1, -1, 2, -3))
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                         min_size=1, max_size=8))
    extra = draw(st.lists(st.integers(-1, len(rows) - 1), max_size=2))
    rows += [[0] * nc if k < 0 else list(rows[k]) for k in extra]
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order]


@given(sparse_matrices())
@settings(max_examples=300, deadline=None)
def test_sparse_diagonal_matches_sympy(rows):
    assert smith_diagonal(rows) == sympy_diagonal(rows)


@st.composite
def entry_matrices(draw, entries, nrows=st.integers(1, 6),
                   ncols=st.integers(1, 6)):
    nr, nc = draw(nrows), draw(ncols)
    return draw(st.lists(st.lists(entries, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))


@pytest.mark.parametrize("shape", [
    # No ±1 entry, so the first pivot is never a unit.
    entry_matrices(st.sampled_from((0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9))),
    entry_matrices(st.integers(-10**6, 10**6)),
    entry_matrices(st.just(0)),
    entry_matrices(st.integers(-9, 9), nrows=st.just(1),
                   ncols=st.integers(1, 8)),
    entry_matrices(st.integers(-9, 9), nrows=st.integers(1, 8),
                   ncols=st.just(1)),
], ids=["no-unit", "large", "zero", "one-row", "one-column"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_diagonal_matches_sympy(shape, data):
    rows = data.draw(shape)
    assert smith_diagonal(rows) == sympy_diagonal(rows)


@given(st.lists(st.integers(0, 60) | st.sampled_from((0, 1)), max_size=6))
@settings(max_examples=200, deadline=None)
def test_from_cyclic_orders_matches_sympy(orders):
    n = len(orders)
    rows = [[orders[i] if i == j else 0 for j in range(n)] for i in range(n)]
    assert AbelianInvariants.from_cyclic_orders(orders) == \
        sympy_oracle(rows, n)


@pytest.mark.parametrize("route, name, shape", [
    ("direct", "S3", (371, 36)),
    ("eta", "S3", (40, 12)),
    ("eta", "Q8", (48, 16)),
    ("direct", "Q8", (911, 64)),
])
def test_relation_matrices_match_sympy(route, name, shape):
    g = realize_name(name)
    if route == "direct":
        rows = _biadditivity_rows(conjugation_pair(g))
    else:
        p = build_nu(g).presentation
        rows = [w.exponent_row(p.ngens) for w in p.relators]
    assert (len(rows), len(rows[0])) == shape
    assert smith_diagonal(rows) == sympy_diagonal(rows)


def _biadditivity_rows(pair):
    """The relation matrix of the letter form that `build_direct`
    enumerates (`_direct_relators`): one column per symbol a(x)b, one row
    of exponent sums per distinct relator.  Of the |G|^2|H| + |G||H|^2
    biadditivity relators the repeats are dropped; a repeated row leaves
    the cokernel, so the invariants, unchanged."""
    relators = _direct_relators(pair)
    letters = relators.letters.tolist()
    rows = []
    for start, end in zip([0, *relators.ends.tolist()], relators.ends):
        row = [0] * relators.ngens
        for letter in letters[start:end]:
            row[letter // 2] += -1 if letter % 2 else 1
        rows.append(row)
    return rows


@pytest.mark.parametrize("name, shape", [
    ("D6", (3191, 144)),
    ("A4", (3191, 144)),
    ("C2xC6", (3191, 144)),
    ("Q8", (911, 64)),
])
def test_direct_presentation_smith_matches_the_table(name, shape):
    # Smith form of the biadditivity presentation against the
    # abelianization read off T's multiplication table.
    pair = conjugation_pair(realize_name(name))
    r = build_direct(pair)
    rows = _biadditivity_rows(pair)
    assert (len(rows), len(rows[0])) == shape
    assert r.group.source_presentation is None
    assert abelian_invariants(rows, ncols=shape[1]) == \
        r.group.abelianization()


class TestInvariants:
    def test_validation(self):
        with pytest.raises(ValueError):
            AbelianInvariants((1,))
        with pytest.raises(ValueError):
            AbelianInvariants((4, 2))
        with pytest.raises(ValueError):
            AbelianInvariants((0, 2))
        with pytest.raises(ValueError):
            AbelianInvariants((2, 3))

    @pytest.mark.parametrize("matrix, message", [
        ([], "ncols required for a matrix with no rows"),
        ([[1, 2], [3]], "ragged relation matrix"),
    ], ids=["no-rows", "ragged"])
    def test_relation_matrix_validation(self, matrix, message):
        with pytest.raises(ValueError) as err:
            abelian_invariants(matrix)
        assert type(err.value) is ValueError
        assert str(err.value) == message

    def test_order_exponent(self):
        inv = AbelianInvariants((2, 4))
        assert inv.order() == 8
        assert inv.exponent() == 4
        assert AbelianInvariants(()).order() == 1
        assert AbelianInvariants((0,)).order() is None

    def test_from_cyclic_orders(self):
        assert AbelianInvariants.from_cyclic_orders([2, 3]).factors == (6,)
        assert AbelianInvariants.from_cyclic_orders([6, 4]).factors == (2, 12)
        assert AbelianInvariants.from_cyclic_orders([0, 2]).factors == (2, 0)
        assert AbelianInvariants.from_cyclic_orders([1, 1]).factors == ()


class TestTensorOracle:
    @pytest.mark.parametrize("m", range(1, 13))
    @pytest.mark.parametrize("n", range(1, 13))
    def test_cyclic_pairs_are_gcd(self, m, n):
        from math import gcd
        got = AbelianInvariants.from_cyclic_orders([m]).tensor(
            AbelianInvariants.from_cyclic_orders([n]))
        assert got == AbelianInvariants.from_cyclic_orders([gcd(m, n)])

    def test_klein_square(self):
        v = AbelianInvariants((2, 2))
        assert v.tensor(v).factors == (2, 2, 2, 2)

    def test_free_factor(self):
        z = AbelianInvariants((0,))
        assert z.tensor(AbelianInvariants((5,))).factors == (5,)
        assert z.tensor(z).factors == (0,)

    def test_symmetric(self):
        a = AbelianInvariants((2, 12))
        b = AbelianInvariants((3, 0))
        assert a.tensor(b) == b.tensor(a)


class TestExteriorSquare:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_cyclic_is_trivial(self, n):
        inv = AbelianInvariants.from_cyclic_orders([n])
        assert inv.exterior_square().factors == ()

    def test_klein(self):
        assert AbelianInvariants((2, 2)).exterior_square().factors == (2,)

    def test_c2_c4(self):
        assert AbelianInvariants((2, 4)).exterior_square().factors == (2,)

    def test_free_rank_two(self):
        assert AbelianInvariants((0, 0)).exterior_square().factors == (0,)


class TestDividesInto:
    def test_basic(self):
        small = AbelianInvariants((2,))
        assert small.divides_into(AbelianInvariants((4,)))
        assert small.divides_into(AbelianInvariants((2, 2)))
        assert not AbelianInvariants((4,)).divides_into(AbelianInvariants((2,)))
        assert not AbelianInvariants((2, 2)).divides_into(
            AbelianInvariants((4,)))

    def test_free_targets(self):
        assert AbelianInvariants((2,)).divides_into(AbelianInvariants((0,)))
        assert not AbelianInvariants((0,)).divides_into(
            AbelianInvariants((6,)))
