"""Lie algebra core: parsing, brackets, Jacobi, lower central series."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import adapted_basis_echelon, dense_bracket, jacobi_violations_dense

from nilgrade import catalog
from nilgrade.derivability import e_invariant
from nilgrade.lie import (
    AlgebraFormatError,
    LieAlgebra,
    NotNilpotentError,
    adapted_basis,
    bracket,
    change_of_basis,
    check_jacobi,
    iterated_bracket,
    lower_central_series,
    parse_algebra,
    scaled_bracket,
    serialize_algebra,
)
from nilgrade.linalg import Echelon, mat_mul, subspace_contains, unit_vec, vec

coords = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def test_parse_heisenberg():
    g = parse_algebra("dim 3\nbracket e1 e2 = e3\n")
    assert g.dim == 3
    assert g.brackets == {(0, 1): (F(0), F(0), F(1))}


def test_parse_table_line_g6_11():
    g = catalog.get("g6_11").algebra
    assert g.dim == 6
    assert set(g.brackets) == {(0, 1), (0, 3), (0, 4), (1, 2)}
    assert g.brackets[(0, 1)][3] == 1
    assert g.brackets[(1, 2)][5] == 1


def test_parse_rejects_duplicate_unordered_pair():
    text = "dim 3\nbracket e1 e2 = e3\nbracket e2 e1 = e3\n"
    with pytest.raises(AlgebraFormatError):
        parse_algebra(text)


def test_parse_rejects_unknown_label():
    with pytest.raises(AlgebraFormatError):
        parse_algebra("dim 2\nbracket e1 e9 = e2\n")


def test_parse_rejects_malformed_rational():
    with pytest.raises(AlgebraFormatError):
        parse_algebra("dim 2\nbracket e1 e2 = 1/0 e2\n")


def test_parse_reversed_pair_gets_sign():
    g = parse_algebra("dim 3\nbracket e2 e1 = e3\n")
    assert g.brackets[(0, 1)] == (F(0), F(0), F(-1))


def test_parse_coefficients_and_comments():
    g = parse_algebra(
        """
        # comment line
        dim 3
        basis a b c
        bracket a b = 1/2 c   # trailing comment
        """
    )
    assert g.labels == ("a", "b", "c")
    assert g.brackets[(0, 1)] == (F(0), F(0), F(1, 2))


def test_parse_sign_forms():
    g = parse_algebra("dim 3\nbracket e1 e2 = - e3\n")
    assert g.brackets[(0, 1)] == (F(0), F(0), F(-1))
    g = parse_algebra("dim 4\nbracket e1 e2 = -1/2 e3 + e4\n")
    assert g.brackets[(0, 1)] == (F(0), F(0), F(-1, 2), F(1))
    g = parse_algebra("dim 4\nbracket e1 e2 = e3 - 3/4 e4\n")
    assert g.brackets[(0, 1)] == (F(0), F(0), F(1), F(-3, 4))
    g = parse_algebra("dim 3\nbracket e1 e2 = 2 e3 + e3\n")
    assert g.brackets[(0, 1)] == (F(0), F(0), F(3))


def test_parse_rejects_self_bracket_and_missing_sign():
    with pytest.raises(AlgebraFormatError):
        parse_algebra("dim 3\nbracket e1 e1 = e3\n")
    with pytest.raises(AlgebraFormatError):
        parse_algebra("dim 4\nbracket e1 e2 = e3 e4\n")


def test_serialize_round_trip():
    for name in ("g6_13", "counterexample11", "g6_2"):
        g = catalog.get(name).algebra
        again = parse_algebra(serialize_algebra(g))
        assert again == g
        assert again.labels == g.labels


def test_bracket_heisenberg():
    g = catalog.get("heisenberg").algebra
    assert bracket(g, unit_vec(3, 0), unit_vec(3, 1)) == unit_vec(3, 2)


def test_bracket_alternating_on_random():
    g = catalog.get("g6_12").algebra
    x = vec([1, -2, F(1, 2), 3, 0, 5])
    assert bracket(g, x, x) == [F(0)] * 6


def test_bracket_g6_2_example():
    g = catalog.get("g6_2").algebra
    assert bracket(g, unit_vec(6, 2), unit_vec(6, 3)) == unit_vec(6, 5)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(coords, min_size=6, max_size=6),
    st.lists(coords, min_size=6, max_size=6),
    st.lists(coords, min_size=6, max_size=6),
    coords,
)
def test_bracket_bilinear(x, xp, y, lam):
    g = catalog.get("g6_19").algebra
    lhs = bracket(g, [a + lam * b for a, b in zip(x, xp)], y)
    rhs = [
        a + lam * b
        for a, b in zip(bracket(g, x, y), bracket(g, xp, y))
    ]
    assert lhs == rhs


SMALL_ENTRIES = [e.name for e in catalog.entries() if e.algebra.dim <= 7]


@st.composite
def invertible_matrices(draw, n: int):
    """L @ U with L unit lower triangular and U upper triangular, diagonal nonzero."""
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    lower = [[F(1) if i == j else draw(entry) if i > j else F(0) for j in range(n)] for i in range(n)]
    upper = [
        [draw(entry.filter(bool)) if i == j else draw(entry) if i < j else F(0) for j in range(n)]
        for i in range(n)
    ]
    return mat_mul(lower, upper)


@st.composite
def matrix_lie_algebras(draw, min_class: int = 1):
    """The Lie algebra of dim <= 8 generated by 2-3 random strictly upper
    triangular integer matrices of size <= 5, moved by a random change of
    basis.  The span of the generators is closed under commutators and the
    structure constants are read at the pivots of its RREF basis, so
    Jacobi and nilpotency hold by construction."""
    m = draw(st.integers(3, 5))
    slots = [(r, c) for r in range(m) for c in range(r + 1, m)]
    generator = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=len(slots), max_size=len(slots))

    def commutator(u, v):
        a, b = ([[0] * m for _ in range(m)] for _ in range(2))
        for (r, c), x, y in zip(slots, u, v):
            a[r][c], b[r][c] = x, y
        return [sum(a[r][k] * b[k][c] - b[r][k] * a[k][c] for k in range(m)) for r, c in slots]

    span = Echelon(len(slots))
    new = [v for v in draw(st.lists(generator, min_size=2, max_size=3)) if span.add(v)]
    spanning = list(new)
    while new:
        new = [w for u in new for v in spanning if span.add(w := commutator(u, v))]
        spanning += new
    basis, pivots = span.basis, span.pivots
    n = len(basis)
    assume(1 <= n <= 8)
    brackets = {
        (i, j): [w[p] for p in pivots]
        for i in range(n)
        for j in range(i + 1, n)
        for w in [commutator(basis[i], basis[j])]
    }
    g = LieAlgebra(n, brackets)
    assume(lower_central_series(g).nilpotency_class >= min_class)
    p = draw(invertible_matrices(n))
    return change_of_basis(g, [[p[i][k] for i in range(n)] for k in range(n)])


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_ENTRIES), st.data())
def test_bracket_matches_dense_oracle_under_change_of_basis(name, data):
    g = catalog.get(name).algebra
    n = g.dim
    p = data.draw(invertible_matrices(n))
    moved = change_of_basis(g, [[p[i][k] for i in range(n)] for k in range(n)])
    x = data.draw(st.lists(coords, min_size=n, max_size=n))
    y = data.draw(st.lists(coords, min_size=n, max_size=n))
    assert bracket(moved, x, y) == dense_bracket(moved, x, y)
    f, f_moved = lower_central_series(g), lower_central_series(moved)
    assert f_moved.nilpotency_class == f.nilpotency_class
    assert f_moved.quotient_dims == f.quotient_dims
    assert e_invariant(moved).e == e_invariant(g).e


def test_iterated_bracket_single():
    g = catalog.get("heisenberg").algebra
    x = vec([1, 2, 3])
    assert iterated_bracket(g, [x]) == x


def test_iterated_bracket_heisenberg_depth():
    g = catalog.get("heisenberg").algebra
    e1, e2 = unit_vec(3, 0), unit_vec(3, 1)
    assert iterated_bracket(g, [e1, e1, e2]) == [F(0)] * 3


def test_iterated_bracket_filiform():
    g = catalog.get("filiform(5)").algebra
    e1, e2 = unit_vec(5, 0), unit_vec(5, 1)
    assert iterated_bracket(g, [e1, e1, e1, e2]) == unit_vec(5, 4)


def test_jacobi_heisenberg_and_counterexample():
    assert check_jacobi(catalog.get("heisenberg").algebra) == []
    assert check_jacobi(catalog.get("counterexample11").algebra) == []


def test_jacobi_detects_violation():
    g = parse_algebra("dim 3\nbracket e1 e2 = e1\nbracket e1 e3 = e2\nbracket e2 e3 = 0\n")
    bad = check_jacobi(g)
    assert bad and bad[0][:3] == (0, 1, 2)


@st.composite
def random_tables(draw):
    """An algebra of dim 3 to 6 with random rational structure constants
    on a random set of at least two pairs; most violate Jacobi."""
    n = draw(st.integers(3, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=2, unique=True))
    entries = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-2, 3)])
    value = st.lists(entries, min_size=n, max_size=n)
    return LieAlgebra(n, {pair: draw(value) for pair in chosen})


@settings(max_examples=100, deadline=None)
@given(random_tables())
def test_check_jacobi_matches_dense_oracle_on_random_tables(g):
    # the same violating triples, in the same order, with the same sums,
    # whether the triple has a nonzero bracket among its pairs or not
    assert check_jacobi(g) == jacobi_violations_dense(g)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_ENTRIES), st.data())
def test_ad_matches_scaled_bracket_under_change_of_basis(name, data):
    # a random basis makes sigma > 1, so the signed integer rows carry
    # scaled constants of both signs
    g = catalog.get(name).algebra
    n = g.dim
    p = data.draw(invertible_matrices(n))
    moved = change_of_basis(g, [[p[i][k] for i in range(n)] for k in range(n)])
    i = data.draw(st.integers(0, n - 1))
    v = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(-9, 9).filter(bool)))
    out = moved.ad(i, v)
    assert all(out.values())
    unit = [int(k == i) for k in range(n)]
    assert [out.get(k, 0) for k in range(n)] == scaled_bracket(moved, unit, [v.get(k, 0) for k in range(n)])


def test_jacobi_invariant_under_basis_permutation():
    # same algebra presented with the basis listed in another order
    original = catalog.get("g6_17").algebra
    permuted = parse_algebra(
        """
        dim 6
        basis e6 e5 e4 e3 e2 e1
        bracket e1 e2 = e3
        bracket e1 e3 = e4
        bracket e1 e4 = e5
        bracket e1 e5 = e6
        bracket e2 e3 = e6
        """
    )
    assert check_jacobi(original) == []
    assert check_jacobi(permuted) == []


def test_lcs_abelian():
    f = lower_central_series(catalog.get("abelian(4)").algebra)
    assert f.nilpotency_class == 1
    assert f.quotient_dims == (4,)


def test_lcs_g6_11():
    f = lower_central_series(catalog.get("g6_11").algebra)
    assert f.nilpotency_class == 4
    assert f.quotient_dims == (3, 1, 1, 1)


def test_lcs_g6_17():
    f = lower_central_series(catalog.get("g6_17").algebra)
    assert f.nilpotency_class == 5
    assert f.quotient_dims == (2, 1, 1, 1, 1)


def test_lcs_not_nilpotent():
    g = parse_algebra("dim 2\nbracket e1 e2 = e2\n")
    with pytest.raises(NotNilpotentError):
        lower_central_series(g)


def test_lcs_equals_bracket_span():
    for entry in catalog.entries():
        g = entry.algebra
        f = lower_central_series(g)
        for k in range(1, f.nilpotency_class + 1):
            ech = Echelon(g.dim)
            for i in range(g.dim):
                for v in f.basis(k):
                    ech.add(bracket(g, unit_vec(g.dim, i), v))
            assert ech.basis == f.basis(k + 1), entry.name


def test_adapted_basis_examples():
    h = catalog.get("heisenberg").algebra
    ab = adapted_basis(h, lower_central_series(h))
    assert ab.degrees == (1, 1, 2)
    assert [list(v) for v in ab.vectors] == [unit_vec(3, i) for i in range(3)]

    g = catalog.get("g6_11").algebra
    ab = adapted_basis(g, lower_central_series(g))
    assert ab.degrees == (1, 1, 1, 2, 3, 4)
    assert [list(v) for v in ab.vectors] == [unit_vec(6, i) for i in range(6)]

    fil = catalog.get("filiform(5)").algebra
    ab = adapted_basis(fil, lower_central_series(fil))
    assert ab.degrees == (1, 1, 2, 3, 4)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_ENTRIES), st.data())
def test_adapted_basis_matches_echelon_oracle_under_change_of_basis(name, data):
    g = catalog.get(name).algebra
    n = g.dim
    p = data.draw(invertible_matrices(n))
    moved = change_of_basis(g, [[p[i][k] for i in range(n)] for k in range(n)])
    # a shear e_b -> e_b + x e_a keeps most unit vectors in each F_k, so
    # their preference over the rest of F_k's basis is exercised too
    a, b = data.draw(st.permutations(range(n)))[:2]
    shear = [unit_vec(n, k) for k in range(n)]
    shear[b][a] = data.draw(coords.filter(bool))
    for h in (g, moved, change_of_basis(g, shear), data.draw(matrix_lie_algebras())):
        f = lower_central_series(h)
        assert adapted_basis(h, f) == adapted_basis_echelon(h, f)


def test_adapted_basis_spans_filtration():
    for name in ("g5_5", "g6_19", "counterexample11", "g7_0_8"):
        g = catalog.get(name).algebra
        f = lower_central_series(g)
        ab = adapted_basis(g, f)
        assert ab.degrees == tuple(sorted(ab.degrees))
        for level in range(1, f.nilpotency_class + 1):
            chosen = [list(v) for v, d in zip(ab.vectors, ab.degrees) if d >= level]
            assert len(chosen) == len(f.basis(level))
            for v in chosen:
                assert subspace_contains(f.basis(level), v)


def test_change_of_basis_round_trip():
    g = catalog.get("g6_12").algebra
    p = [unit_vec(6, i) for i in range(6)]
    p[0] = vec([1, 1, 0, 0, 0, 0])
    moved = change_of_basis(g, p)
    back = change_of_basis(moved, [vec([1, -1, 0, 0, 0, 0])] + p[1:])
    assert back == g
