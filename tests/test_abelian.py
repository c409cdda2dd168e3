import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors as sympy_invf

from ntl.abelian import AbelianInvariants, abelian_invariants, smith_diagonal
from ntl.catalog import realize_name
from ntl.tensor import build_direct, build_nu, conjugation_pair


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


@pytest.mark.parametrize("route, name, shape", [
    ("direct", "S3", (432, 36)),
    ("eta", "S3", (504, 12)),
    ("eta", "Q8", (1152, 16)),
])
def test_relation_matrices_match_sympy(route, name, shape):
    g = realize_name(name)
    r = (build_direct(conjugation_pair(g)) if route == "direct"
         else build_nu(g))
    p = r.presentation
    rows = [w.exponent_row(p.ngens) for w in p.relators]
    assert (len(rows), p.ngens) == shape
    assert smith_diagonal(rows) == sympy_diagonal(rows)


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
