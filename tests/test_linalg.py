"""Exact linear algebra: echelon forms, affine systems, filtration depth."""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lcs_rref, naive_mat_mul, rref_mat_inv, rref_reduce, rref_solve_affine, rref_span
from test_lie import matrix_lie_algebras

from nilgrade import catalog
from nilgrade.lie import lower_central_series
from nilgrade.linalg import (
    AffineSystem,
    Echelon,
    filtration_depth,
    identity,
    mat_inv,
    mat_mul,
    mat_vec,
    matrix,
    nullspace,
    rref,
    solve_affine,
    subspace_contains,
    vec,
)

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def small_matrix(max_dim=4):
    return st.integers(2, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda m: st.lists(
                st.lists(small_fracs, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


def test_rref_identity():
    red, pivots, rank = rref(identity(2))
    assert red == identity(2)
    assert pivots == [0, 1]
    assert rank == 2


def test_rref_dependent_rows():
    red, pivots, rank = rref(matrix([[1, 2], [2, 4]]))
    assert red == matrix([[1, 2], [0, 0]])
    assert pivots == [0]
    assert rank == 1


def test_rref_swap():
    # hand elimination: swap rows, pivots in both columns
    red, pivots, rank = rref(matrix([[0, 1], [1, 0]]))
    assert red == identity(2)
    assert rank == 2


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rref_idempotent(rows):
    m = matrix(rows)
    red, _, _ = rref(m)
    again, _, _ = rref(red)
    assert again == red


def test_solve_identity():
    sol = solve_affine(identity(3), vec([1, 2, 3]))
    assert sol.particular == vec([1, 2, 3])
    assert sol.nullspace_basis == []


def test_solve_one_free_variable():
    sol = solve_affine(matrix([[1, 1]]), vec([0]))
    assert sol.particular == vec([0, 0])
    assert sol.nullspace_basis == [vec([-1, 1])]


def test_solve_infeasible():
    assert solve_affine(matrix([[1], [1]]), vec([0, 1])) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_affine(matrix([[1, 2]]), vec([1, 2]))


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.data())
def test_solve_verifies(rows, data):
    m = matrix(rows)
    b = vec(data.draw(st.lists(small_fracs, min_size=len(m), max_size=len(m))))
    sol = solve_affine(m, b)
    if sol is None:
        # infeasible iff the rhs is outside the column span
        cols = [[row[j] for row in m] for j in range(len(m[0]))]
        assert not subspace_contains(cols, b)
        return
    assert mat_vec(m, sol.particular) == b
    for n in sol.nullspace_basis:
        assert mat_vec(m, n) == [F(0)] * len(m)


def test_subspace_contains_examples():
    assert subspace_contains([vec([1, 0])], vec([3, 0]))
    assert not subspace_contains([vec([1, 0])], vec([0, 1]))
    assert subspace_contains([], vec([0, 0]))


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.data())
def test_subspace_contains_matches_solver(rows, data):
    basis = matrix(rows)
    dim = len(basis[0])
    v = vec(data.draw(st.lists(small_fracs, min_size=dim, max_size=dim)))
    cols = [[row[j] for row in basis] for j in range(dim)]
    assert subspace_contains(basis, v) == (solve_affine(cols, v) is not None)


def test_filtration_depth():
    chain = [[vec([1, 0]), vec([0, 1])], [vec([0, 1])], []]
    assert filtration_depth(chain, vec([0, 0])) == math.inf
    assert filtration_depth(chain, vec([0, 5])) == 2
    assert filtration_depth(chain, vec([1, 1])) == 1


# --- sparse kernels against dense oracles

# mostly zeros, with both int and Fraction entries
sparse_entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), small_fracs)


def sparse_vectors(dim: int, max_count: int = 6):
    return st.lists(st.lists(sparse_entries, min_size=dim, max_size=dim), max_size=max_count)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.data())
def test_echelon_matches_dense_rref(dim, data):
    vectors = data.draw(sparse_vectors(dim))
    order = data.draw(st.permutations(range(len(vectors))))
    as_dict = data.draw(st.lists(st.booleans(), min_size=len(vectors), max_size=len(vectors)))
    ech = Echelon(dim)
    for i in order:
        v = vectors[i]
        ech.add({k: x for k, x in enumerate(v) if x} if as_dict[i] else v)
    rows, pivots = rref_span(vectors)
    assert ech.basis == rows
    assert ech.rows == rows
    assert ech.pivots == pivots
    assert ech.rank == len(rows)
    assert all(isinstance(x, F) for row in ech.basis for x in row)
    for v in data.draw(sparse_vectors(dim, 3)) + vectors:
        assert ech.reduce(v) == rref_reduce(rows, pivots, v)
        assert ech.contains(v) == (len(rref_span(vectors + [v])[0]) == len(rows))
        assert ech.contains({k: x for k, x in enumerate(v) if x}) == ech.contains(v)


def test_echelon_zero_vectors_and_dim_one():
    ech = Echelon(1)
    assert not ech.add([0])
    assert not ech.add({})
    assert ech.rank == 0 and ech.basis == [] and ech.contains([0])
    assert ech.add([F(-3, 4)])
    assert ech.basis == [[F(1)]] and ech.pivots == [0]
    assert not ech.add({0: 5})
    assert ech.reduce([7]) == [F(0)]


def matrices(rows: int, cols: int):
    return st.lists(st.lists(sparse_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(1, 4), st.data())
def test_mat_mul_matches_triple_loop(m, k, n, data):
    a = matrix(data.draw(matrices(m, k)))
    b = matrix(data.draw(matrices(k, n)))
    assert mat_mul(a, b) == naive_mat_mul(a, b)


def test_mat_mul_empty_and_mismatch():
    assert mat_mul([], identity(2)) == []
    assert mat_mul([[], []], []) == [[], []]
    assert mat_mul(matrix([[0, 0], [0, 0]]), matrix([[0], [0]])) == [[F(0)], [F(0)]]
    with pytest.raises(ValueError, match="dimension mismatch"):
        mat_mul(matrix([[1, 2]]), matrix([[1]]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        mat_mul(matrix([[1]]), [])


@pytest.mark.parametrize(
    "name", [e.name for e in catalog.entries()] + ["filiform(12)", "central_product(6,10)"]
)
def test_lower_central_series_matches_rref_oracle(name):
    g = catalog.get(name).algebra
    f = lower_central_series(g)
    assert [f.basis(k) for k in range(1, f.nilpotency_class + 2)] == lcs_rref(g)


@settings(max_examples=40, deadline=None)
@given(matrix_lie_algebras())
def test_lower_central_series_matches_rref_oracle_on_matrix_algebras(g):
    f = lower_central_series(g)
    assert [f.basis(k) for k in range(1, f.nilpotency_class + 2)] == lcs_rref(g)


# --- elimination on Echelon against the dense bodies it replaced


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def linear_systems(draw, max_dim: int = 5):
    """(a, b) with 0..max_dim rows and columns (so empty, wide and tall),
    int and Fraction entries, sometimes a zero row or a row that is a
    combination of two others, and a rhs that is random or a·x."""
    nrows = draw(st.integers(0, max_dim))
    ncols = draw(st.integers(0, max_dim))
    a = [draw(st.lists(sparse_entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    extra = draw(st.sampled_from(["none", "zero row", "combination"]))
    if extra == "zero row":
        a.insert(draw(st.integers(0, nrows)), [0] * ncols)
    elif extra == "combination" and a:
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        s, t = draw(small_fracs), draw(small_fracs)
        a.append([s * x + t * y for x, y in zip(a[i], a[j])])
    if draw(st.booleans()):
        b = draw(st.lists(sparse_entries, min_size=len(a), max_size=len(a)))
    else:
        x = draw(st.lists(sparse_entries, min_size=ncols, max_size=ncols))
        b = [sum((F(r) * F(y) for r, y in zip(row, x)), F(0)) for row in a]
    return a, b


@settings(max_examples=200, deadline=None)
@given(linear_systems(), st.data())
def test_solve_affine_and_nullspace_match_dense_oracle(system, data):
    a, b = system
    sol = solve_affine(a, b)
    oracle = rref_solve_affine(a, b)
    assert sol == oracle
    if sol is not None:
        assert all(isinstance(x, F) for v in [sol.particular, *sol.nullspace_basis] for x in v)
    assert nullspace(a) == rref_solve_affine(a, [0] * len(a)).nullspace_basis
    # the same equations as sparse dicts, added in a shuffled order
    shuffled = AffineSystem(len(a[0]) if a else 0)
    for r in data.draw(st.permutations(range(len(a)))):
        shuffled.add({c: x for c, x in enumerate(a[r]) if x}, b[r])
    assert shuffled.infeasible == (oracle is None)
    assert shuffled.particular() == (None if oracle is None else oracle.particular)


@st.composite
def near_square_matrices(draw, max_dim: int = 5):
    """Square matrices, singular ones (a row a multiple of another or
    zero), and wide or tall ones, with int and Fraction entries."""
    n = draw(st.integers(0, max_dim))
    shape = draw(st.sampled_from(["square", "singular", "wide", "tall"]))
    cols = n + 1 if shape == "wide" else n
    m = [draw(st.lists(sparse_entries, min_size=cols, max_size=cols)) for _ in range(n)]
    if shape == "singular" and n:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i] = [draw(small_fracs) * x for x in m[j]] if i != j else [0] * n
    if shape == "tall":
        m.append(draw(st.lists(sparse_entries, min_size=n, max_size=n)))
    return m


@settings(max_examples=200, deadline=None)
@given(near_square_matrices())
def test_mat_inv_matches_dense_oracle(m):
    inv = _outcome(mat_inv, m)
    assert inv == _outcome(rref_mat_inv, m)
    if isinstance(inv, list):
        assert mat_mul(matrix(m), inv) == identity(len(m))
