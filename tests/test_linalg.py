"""Exact linear algebra: echelon forms, affine systems, inverses and products."""

from __future__ import annotations

import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    AffineSolution,
    echelon_contains,
    echelon_of,
    echelon_rows,
    integer_row,
    lcs_rref,
    naive_mat_mul,
    rref,
    rref_contains,
    rref_mat_inv,
    rref_solve_affine,
    rref_span,
)
from test_lie import matrix_lie_algebras

from nilgrade import catalog
from nilgrade.derivability import e_invariant
from nilgrade.lie import LieAlgebra, lower_central_series
from nilgrade.linalg import (
    AffineSystem,
    Echelon,
    identity,
    integer_inverse,
    integer_rows,
    mat_vec,
    matrix,
    sparse_mul,
    transpose,
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


def affine_solution(a, b) -> AffineSolution | None:
    """a·x = b through one `AffineSystem` of its equations, each cleared
    together with its rhs: None if infeasible, else the particular solution
    with every free variable 0 and the nullspace of the system's canonical
    rows (`kernel_of`)."""
    ncols = len(a[0]) if a else 0
    system = AffineSystem(ncols)
    for coeffs, rhs in zip(a, b, strict=True):
        system.add(*integer_equation(coeffs, rhs))
    particular = system.particular()
    return None if particular is None else AffineSolution(particular, kernel_of(system, ncols))


def kernel_of(ech: Echelon, ncols: int) -> list:
    """The dense oracle's nullspace of the canonical rows of `ech`, read
    through `pivot_row`, with a right-hand side at column ncols dropped."""
    rows = [row[:ncols] for row in echelon_rows(ech, ncols + 1)]
    return rref_solve_affine(rows, [0] * len(rows)).nullspace_basis if rows else identity(ncols)


def test_solve_identity():
    sol = affine_solution(identity(3), vec([1, 2, 3]))
    assert sol.particular == vec([1, 2, 3])
    assert sol.nullspace_basis == []


def test_solve_one_free_variable():
    sol = affine_solution(matrix([[1, 1]]), vec([0]))
    assert sol.particular == vec([0, 0])
    assert sol.nullspace_basis == [vec([-1, 1])]


def test_solve_infeasible():
    assert affine_solution(matrix([[1], [1]]), vec([0, 1])) is None


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.data())
def test_solve_verifies(rows, data):
    m = matrix(rows)
    b = vec(data.draw(st.lists(small_fracs, min_size=len(m), max_size=len(m))))
    sol = affine_solution(m, b)
    if sol is None:
        # infeasible iff the rhs is outside the column span
        cols = [[row[j] for row in m] for j in range(len(m[0]))]
        assert not rref_contains(cols, b)
        return
    assert mat_vec(m, sol.particular) == b
    for n in sol.nullspace_basis:
        assert mat_vec(m, n) == [F(0)] * len(m)


def test_subspace_contains_examples():
    # a sparse integer row lies in a span iff adding it to a copy of the
    # span's `Echelon` leaves the rank as it was; the empty span contains
    # only 0, and the copies leave the span as it is
    span = echelon_of([vec([1, 0])])
    assert echelon_contains(span, {0: 3})
    assert not echelon_contains(span, {1: 1})
    assert echelon_contains(Echelon(), {}) and not echelon_contains(Echelon(), {0: 1})
    assert span.int_rows == {0: {0: 1}}


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.data())
def test_subspace_contains_matches_solver(rows, data):
    basis = matrix(rows)
    dim = len(basis[0])
    v = vec(data.draw(st.lists(small_fracs, min_size=dim, max_size=dim)))
    cols = [[row[j] for row in basis] for j in range(dim)]
    assert echelon_contains(echelon_of(basis), integer_row(v)) == (affine_solution(cols, v) is not None)


def test_integer_rows_clears_a_matrix_with_its_least_denominator():
    assert integer_rows([[F(1, 2), 0], [F(1, 3), 2]]) == (6, [{0: 3}, {0: 2, 1: 12}])
    assert integer_rows([[0, 0], []]) == (1, [{}, {}])
    assert integer_rows([]) == (1, [])


# --- sparse kernels against dense oracles

# mostly zeros, with both int and Fraction entries
sparse_entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), small_fracs)


def sparse_vectors(dim: int, max_count: int = 6):
    return st.lists(st.lists(sparse_entries, min_size=dim, max_size=dim), max_size=max_count)


@st.composite
def echelon_cases(draw):
    """(dim, vectors, order, split, others, probes, affine): the vectors go in
    in `order`, the span is copied after the first `split` of them and
    `others` go into the copy; with `affine` every row goes into an
    `AffineSystem` over dim - 1 unknowns, its last entry the right-hand side."""
    dim = draw(st.integers(1, 7))
    vectors = draw(sparse_vectors(dim))
    order = draw(st.permutations(range(len(vectors))))
    split = draw(st.integers(0, len(vectors)))
    others, probes = draw(sparse_vectors(dim, 3)), draw(sparse_vectors(dim, 3))
    return dim, vectors, order, split, others, probes, dim > 1 and draw(st.booleans())


def _add_vector(span: Echelon, v, affine: bool) -> None:
    row = integer_row(v)
    if affine:
        span.add(row, row.pop(len(v) - 1, 0))
    else:
        span.add(row)


@settings(max_examples=150, deadline=None)
@given(echelon_cases())
# the second row meets no stored pivot, so it is stored with no elimination
@example((4, [[1, 2, 0, 0], [0, 0, 3, 6]], [0, 1], 2, [], [[0, 0, 1, 2]], False))
# a one-entry row with a negative value other than -1, {3: -4}, is stored as {3: 1}
@example((4, [[1, 1, 0, 0], [0, 0, 0, -4]], [0, 1], 2, [], [[0, 0, 0, 1], [1, 1, 0, 1]], False))
# a copied affine system and its copy take different rows: x1 = 1 in one, x1 = 3 in the other
@example((3, [[1, 0, 2], [0, 1, 1]], [0, 1], 1, [[0, 1, 3]], [[0, 1, 1], [0, 1, 3]], True))
def test_echelon_matches_dense_rref(case):
    dim, vectors, order, split, others, probes, affine = case
    ech = AffineSystem(dim - 1) if affine else Echelon()
    added = [vectors[i] for i in order]
    for v in added[:split]:
        _add_vector(ech, v, affine)
    copied = ech.copy()
    for v in added[split:]:
        _add_vector(ech, v, affine)
    for v in others:
        _add_vector(copied, v, affine)
    for span, spanned in ((ech, vectors), (copied, added[:split] + others)):
        rows, pivots = rref_span(spanned)
        assert type(span) is type(ech)
        assert echelon_rows(span, dim) == rows
        assert_canonical_int_rows(span, rows, pivots)
        assert span.pivots == pivots
        assert span.rank == len(rows)
        assert all(isinstance(x, F) for row in echelon_rows(span, dim) for x in row)
        if affine:
            assert span.infeasible == (dim - 1 in pivots)
        for v in probes + spanned:
            grown = span.copy()
            _add_vector(grown, v, affine)
            assert (grown.rank == span.rank) == rref_contains(spanned, v)


def integer_equation(coeffs, rhs) -> tuple[dict[int, int], int]:
    """coeffs·x = rhs cleared together, as `AffineSystem.add` takes it."""
    row = integer_row([*coeffs, rhs])
    rhs = row.pop(len(coeffs), 0)
    return row, rhs


def test_echelon_zero_vectors_and_dim_one():
    ech = Echelon()
    assert not ech.add({})
    assert ech.rank == 0 and ech.int_rows == {} and echelon_contains(ech, {})
    assert ech.add({0: -3})
    assert echelon_rows(ech, 1) == [[F(1)]] and ech.pivots == [0]
    assert not ech.add({0: 5})
    assert echelon_contains(ech, {0: 7}) and ech.int_rows == {0: {0: 1}}


@pytest.mark.parametrize(
    "row, error",
    [
        ({0: 1, 1: 0}, ValueError),  # a zero entry
        ({0: F(1, 2)}, TypeError),  # a Fraction entry off the pivots
        ({1: F(1, 2)}, TypeError),  # a Fraction entry at a pivot
        ([1, 2], TypeError),  # a dense list
    ],
)
def test_echelon_and_affine_system_take_only_sparse_integer_rows(row, error):
    # anything else fails loudly and leaves the rows as they were
    ech = Echelon()
    ech.add({1: 3})
    with pytest.raises(error):
        ech.add(row)
    assert ech.int_rows == {1: {1: 1}}
    system = AffineSystem(2)
    system.add({1: 3}, 1)
    with pytest.raises(error):
        system.add(row, 1)
    assert system.int_rows == {1: {1: 3, 2: 1}}


def matrices(rows: int, cols: int):
    return st.lists(st.lists(sparse_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@pytest.mark.parametrize(
    "name", [e.name for e in catalog.entries()] + ["filiform(12)", "central_product(6,10)"]
)
def test_lower_central_series_matches_rref_oracle(name):
    # F_k for every k up to c + 2, one past the zero space F_{c+1}
    g = catalog.get(name).algebra
    f = lower_central_series(g)
    assert [f.basis(k) for k in range(1, f.nilpotency_class + 3)] == lcs_rref(g) + [[]]


@settings(max_examples=40, deadline=None)
@given(matrix_lie_algebras())
def test_lower_central_series_matches_rref_oracle_on_matrix_algebras(g):
    f = lower_central_series(g)
    assert [f.basis(k) for k in range(1, f.nilpotency_class + 3)] == lcs_rref(g) + [[]]


# --- elimination on Echelon against the dense bodies it replaced


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def inverse_through_integers(m: list) -> list:
    """m^-1 as Fractions through `integer_inverse`: m = M/d for the integer M,
    so m^-1 = d M^-1.  ValueError, as `rref_mat_inv` words it, unless m is
    square."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("not square")
    d = math.lcm(1, *(F(x).denominator for row in m for x in row))
    cols = [{i: x for i in range(n) if (x := int(F(m[i][j]) * d))} for j in range(n)]
    den, rows = integer_inverse(cols)
    return [[F(d * row.get(j, 0), den) for j in range(n)] for row in rows]


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
def test_affine_system_and_kernel_match_dense_oracle(system, data):
    a, b = system
    sol = affine_solution(a, b)
    oracle = rref_solve_affine(a, b)
    assert sol == oracle
    if sol is not None:
        assert all(isinstance(x, F) for v in [sol.particular, *sol.nullspace_basis] for x in v)
    ncols = len(a[0]) if a else 0
    assert kernel_of(echelon_of(a), ncols) == rref_solve_affine(a, [0] * len(a)).nullspace_basis
    # the same equations as sparse dicts, added in a shuffled order
    shuffled = AffineSystem(ncols)
    for r in data.draw(st.permutations(range(len(a)))):
        shuffled.add(*integer_equation(a[r], b[r]))
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
def test_integer_inverse_matches_dense_oracle(m):
    inv = _outcome(inverse_through_integers, m)
    assert inv == _outcome(rref_mat_inv, m)
    if isinstance(inv, list):
        assert naive_mat_mul(matrix(m), inv) == identity(len(m))


# --- the fraction-free elimination against the dense oracles, at large sizes

# mostly zeros, with ints up to 10^12 and Fractions with denominators up to 10^6
large_entries = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-(10**12), 10**12),
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**6),
)


def sparse(v) -> dict:
    return {k: x for k, x in enumerate(v) if x}


def assert_canonical_int_rows(ech: Echelon, rows, pivots) -> None:
    """Each integer row is primitive, has a positive pivot, is zero at every
    other pivot and is its RREF row times that pivot."""
    assert sorted(ech.int_rows) == pivots
    for p, rref_row in zip(pivots, rows):
        row = ech.int_rows[p]
        assert all(type(x) is int and x for x in row.values())
        assert row[p] > 0 and math.gcd(*row.values()) == 1
        assert not any(k in row for k in pivots if k != p)
        assert [F(row.get(k, 0), row[p]) for k in range(len(rref_row))] == rref_row


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_fraction_free_echelon_matches_dense_rref_at_large_entries(dim, data):
    vectors = data.draw(st.lists(st.lists(large_entries, min_size=dim, max_size=dim), max_size=6))
    ech = Echelon()
    for v in vectors:
        ech.add(integer_row(v))
    rows, pivots = rref_span(vectors)
    assert echelon_rows(ech, dim) == rows
    kernel = rref_solve_affine(vectors, [0] * len(vectors)).nullspace_basis if vectors else identity(dim)
    assert kernel_of(ech, dim) == kernel
    assert_canonical_int_rows(ech, rows, pivots)
    for v in data.draw(st.lists(st.lists(large_entries, min_size=dim, max_size=dim), max_size=3)) + vectors:
        assert echelon_contains(ech, integer_row(v)) == rref_contains(vectors, v)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.data())
def test_forward_insertion_and_back_substitution_on_read_give_the_rref_rows(dim, data):
    # `add` reduces only the new row and stores it, and `int_rows`
    # back-substitutes on read; reads at any point between insertions see the
    # canonical rows of the span so far, and no later `add` replaces or
    # changes a stored row or a row that a read handed out
    vectors = data.draw(st.lists(st.lists(sparse_entries, min_size=dim, max_size=dim), max_size=8))
    ech = Echelon()
    added: list = []
    seen: list = []  # (row dict, a copy of it when it was seen)
    for v in data.draw(st.permutations(vectors)):
        stored = dict(ech._rows)
        ech.add(integer_row(v))
        added.append(v)
        assert all(ech._rows[p] is row for p, row in stored.items())
        seen += [(row, dict(row)) for row in ech._rows.values()]
        if data.draw(st.booleans()):
            canonical = ech.int_rows
            assert_canonical_int_rows(ech, *rref_span(added))
            seen += [(row, dict(row)) for row in canonical.values()]
        assert all(row == copy for row, copy in seen)
    rows, pivots = rref_span(vectors)
    assert_canonical_int_rows(ech, rows, pivots)
    assert echelon_rows(ech, dim) == rows and ech.pivots == pivots and ech.rank == len(rows)
    for v in data.draw(sparse_vectors(dim, 3)) + vectors:
        assert echelon_contains(ech, integer_row(v)) == rref_contains(vectors, v)
    assert all(row == copy for row, copy in seen)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.data())
def test_a_copied_affine_system_keeps_the_rows_it_had(nvars, data):
    # a copy shares the stored rows, none of which ever changes, so rows
    # added to the original or to the copy afterwards leave the other as it
    # was: each answers like the dense oracle on its own equations
    equation = st.lists(st.integers(-3, 3), min_size=nvars + 1, max_size=nvars + 1)
    before, after, extra = (data.draw(st.lists(equation, max_size=4)) for _ in range(3))
    system = AffineSystem(nvars)
    for eq in before:
        system.add(*integer_equation(eq[:-1], eq[-1]))
    copied = system.copy()
    for eq in after:
        system.add(*integer_equation(eq[:-1], eq[-1]))
    for eq in extra:
        copied.add(*integer_equation(eq[:-1], eq[-1]))
    for built, eqs in ((system, before + after), (copied, before + extra)):
        oracle = rref_solve_affine([eq[:-1] for eq in eqs], [eq[-1] for eq in eqs]) if eqs else None
        expected = [F(0)] * nvars if not eqs else None if oracle is None else oracle.particular
        assert built.particular() == expected and built.infeasible == (expected is None)


def direct_sum(algebras: list[LieAlgebra]) -> LieAlgebra:
    dim = sum(g.dim for g in algebras)
    brackets, offset = {}, 0
    for g in algebras:
        for (i, j), v in g.brackets.items():
            w = [0] * dim
            w[offset : offset + g.dim] = v
            brackets[(offset + i, offset + j)] = w
        offset += g.dim
    return LieAlgebra(dim, brackets)


def test_elimination_scales_to_the_dimension_cap():
    # an insertion reduces only the new row, so a span of rank r costs no
    # O(r) scan per row: on a 2-vCPU x86 host the lower central series of
    # filiform(1000) takes 1.7-2.3 s (10-14 s when each insertion rewrote the
    # stored rows) and the e-scan of 16 copies of g7_0_8 + g6_11 (dim 208)
    # 0.12-0.14 s (0.8-1.0 s); each bound leaves 3x headroom
    g = catalog.filiform(1000)
    start = time.perf_counter()
    f = lower_central_series(g)
    elapsed = time.perf_counter() - start
    assert f.nilpotency_class == 999 and f.quotient_dims == (2,) + (1,) * 998
    assert elapsed < 7.0, elapsed
    g = direct_sum([catalog.get("g7_0_8").algebra, catalog.get("g6_11").algebra] * 16)
    start = time.perf_counter()
    e = e_invariant(g).e
    elapsed = time.perf_counter() - start
    assert g.dim == 208 and e == F(4, 5)
    assert elapsed < 0.45, elapsed


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.data())
def test_reduce_against_rows_whose_integer_pivot_is_not_one(dim, data):
    # each row's entries are coprime to its pivot entry, so the RREF rows have
    # denominators and the stored integer pivots exceed 1
    nrows = data.draw(st.integers(1, dim - 1))
    pivots = sorted(data.draw(st.lists(st.integers(0, dim - 2), min_size=nrows, max_size=nrows, unique=True)))
    vectors = []
    for p in pivots:
        d = data.draw(st.integers(2, 10**6))
        tail = [data.draw(large_entries) for _ in range(dim - p - 2)]
        last = d * data.draw(st.integers(-(10**6), 10**6)) + 1
        vectors.append([0] * p + [d] + tail + [last])
    ech = Echelon()
    for v in vectors:
        assert ech.add(integer_row(v))
    rows, found = rref_span(vectors)
    assert found == pivots
    assert_canonical_int_rows(ech, rows, pivots)
    # the last column is never a pivot and no pivot follows the last row's, so
    # that RREF row is the row over d, with a last entry of denominator d > 1
    assert any(row[p] != 1 for p, row in ech.int_rows.items())
    # a row added to a copy is reduced against these rows before it is stored
    for v in data.draw(st.lists(st.lists(large_entries, min_size=dim, max_size=dim), min_size=1, max_size=4)):
        grown = ech.copy()
        grown.add(integer_row(v))
        assert echelon_rows(grown, dim) == rref_span(vectors + [v])[0]


def test_reduce_against_a_row_with_pivot_two():
    ech = Echelon()
    assert ech.add({0: 2, 1: 3})
    assert ech.int_rows == {0: {0: 2, 1: 3}}
    assert echelon_rows(ech, 3) == [[F(1), F(3, 2), F(0)]]
    # (1, 0, 5) reduces to (0, -3/2, 5), stored primitive with a positive pivot
    grown = ech.copy()
    assert grown.add({0: 1, 2: 5})
    assert grown.int_rows == {0: {0: 1, 2: 5}, 1: {1: 3, 2: -10}}
    assert not echelon_contains(ech, {0: 1, 1: 1}) and echelon_contains(ech, integer_row([F(2, 7), F(3, 7), 0]))
    assert ech.add({1: 4, 2: 6})
    assert ech.int_rows == {0: {0: 4, 2: -9}, 1: {1: 2, 2: 3}}


@st.composite
def large_linear_systems(draw, max_dim: int = 5):
    """(a, b) with large int and Fraction entries, rhs random or a·x."""
    nrows = draw(st.integers(0, max_dim))
    ncols = draw(st.integers(0, max_dim))
    a = [draw(st.lists(large_entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if a and draw(st.booleans()):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        s, t = draw(large_entries), draw(large_entries)
        a.append([F(s) * x + F(t) * y for x, y in zip(a[i], a[j])])
    if draw(st.booleans()):
        b = draw(st.lists(large_entries, min_size=len(a), max_size=len(a)))
    else:
        x = draw(st.lists(large_entries, min_size=ncols, max_size=ncols))
        b = [sum((F(r) * F(y) for r, y in zip(row, x)), F(0)) for row in a]
    return a, b


@settings(max_examples=150, deadline=None)
@given(large_linear_systems(), st.data())
def test_fraction_free_affine_system_matches_dense_oracle_at_large_entries(system, data):
    a, b = system
    oracle = rref_solve_affine(a, b)
    assert affine_solution(a, b) == oracle
    built = AffineSystem(len(a[0]) if a else 0)
    for r in data.draw(st.permutations(range(len(a)))):
        built.add(*integer_equation(a[r], b[r]))
    assert built.infeasible == (oracle is None)
    particular = built.particular()
    assert particular == (None if oracle is None else oracle.particular)
    assert particular is None or all(isinstance(x, F) for x in particular)


@st.composite
def large_invertible_or_singular(draw, max_dim: int = 5):
    """A square matrix of large entries, often singular, or an invertible L U
    with L unit lower triangular and U upper triangular with nonzero diagonal."""
    n = draw(st.integers(0, max_dim))
    m = [draw(st.lists(large_entries, min_size=n, max_size=n)) for _ in range(n)]
    if n and draw(st.booleans()):
        upper = [[F(x) if i <= j else F(0) for j, x in enumerate(row)] for i, row in enumerate(m)]
        for i in range(n):
            upper[i][i] = upper[i][i] or F(draw(st.integers(1, 10**12)))
        lower = [[F(1) if i == j else F(draw(st.integers(-3, 3))) if i > j else F(0) for j in range(n)]
                 for i in range(n)]
        m = naive_mat_mul(lower, upper)
    return m


@settings(max_examples=150, deadline=None)
@given(large_invertible_or_singular())
def test_integer_inverse_matches_dense_oracle_at_large_entries(m):
    inv = _outcome(inverse_through_integers, m)
    assert inv == _outcome(rref_mat_inv, m)
    if isinstance(inv, list) and all(F(x).denominator == 1 for row in m for x in row):
        # for an integer m, den is the least common denominator of m^-1
        cols = [{i: int(m[i][j]) for i in range(len(m)) if m[i][j]} for j in range(len(m))]
        assert integer_inverse(cols)[0] == math.lcm(*(x.denominator for row in inv for x in row))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.permutations(range(n))), st.data())
def test_integer_inverse_of_a_permutation_is_its_transpose(perm, data):
    # columns e_perm[b] invert to den 1 and m's own columns as rows; one
    # entry -1 or 2 makes a signed or scaled permutation, which takes the
    # elimination, and both match the dense oracle
    n = len(perm)
    cols = [{perm[b]: 1} for b in range(n)]
    m = [[F(int(perm[b] == i)) for b in range(n)] for i in range(n)]
    assert integer_inverse(cols) == (1, cols)
    assert inverse_through_integers(m) == rref_mat_inv(m)
    if n:
        b = data.draw(st.integers(0, n - 1))
        m[perm[b]][b] = F(data.draw(st.sampled_from([-1, 2])))
        assert inverse_through_integers(m) == rref_mat_inv(m)


def test_integer_inverse_of_a_singular_matrix_raises():
    with pytest.raises(ValueError, match="singular"):
        integer_inverse([{0: 2, 1: 4}, {0: 1, 1: 2}])
    assert integer_inverse([]) == (1, [])
    assert integer_inverse([{0: 2}]) == (2, [{0: 1}])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_sparse_mul_matches_triple_loop(m, k, n, data):
    # k >= 1: the triple loop reads the column count off b's first row
    a = data.draw(matrices(m, k))
    b = data.draw(matrices(k, n))
    product = sparse_mul([sparse(row) for row in a], [sparse(row) for row in b])
    assert [[row.get(j, 0) for j in range(n)] for row in product] == naive_mat_mul(matrix(a), matrix(b))
    assert all(x for row in product for x in row.values())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3), st.data())
def test_transpose_matches_the_dense_transpose_and_round_trips(m, n, extra, data):
    # n + extra output rows for m input rows over n columns, m = 0 and
    # all-zero rows included: the extra rows, and every row of a zero
    # column, are empty
    a = [sparse(row) for row in data.draw(matrices(m, n))]
    t = transpose(a, n + extra)
    assert len(t) == n + extra and all(not row for row in t[n:])
    assert [[row.get(i, 0) for i in range(m)] for row in t[:n]] == [[r.get(k, 0) for r in a] for k in range(n)]
    assert transpose(t, m) == a
