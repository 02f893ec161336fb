"""Lie algebra core: parsing, brackets, Jacobi, lower central series."""

from __future__ import annotations

import dataclasses
import re
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    adapted_basis_echelon,
    algebra_in_basis_dense,
    dense_bracket,
    echelon_rows,
    integer_row,
    jacobi_violations_dense,
    lcs_rref,
    naive_mat_mul,
    rref_contains,
    rref_mat_inv,
)

from nilgrade import catalog
from nilgrade.derivability import _setup, e_invariant
from nilgrade.lie import (
    AdaptedBasis,
    AlgebraFormatError,
    LieAlgebra,
    NotNilpotentError,
    adapted_basis,
    algebra_in_integer_basis,
    bracket,
    change_of_basis,
    check_jacobi,
    iterated_bracket,
    lower_central_series,
    parse_algebra,
    scaled_bracket,
    serialize_algebra,
)
from nilgrade.linalg import Echelon, unit_vec, vec

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


@pytest.mark.parametrize("label", ["3c", "c.d", "x-1", "2"])
def test_parse_rejects_label_the_bracket_grammar_cannot_name(label):
    # "3c" in a bracket would read as 3 times c, so reject it where it is declared
    text = f"dim 3\nbasis a b {label}\nbracket a b = {label}\n"
    with pytest.raises(AlgebraFormatError, match=rf"basis label '{re.escape(label)}' .*\(line 2\)"):
        parse_algebra(text)


@pytest.mark.parametrize("label", ["e1", "X", "v1_1", "_a"])
def test_parse_accepts_named_labels(label):
    g = parse_algebra(f"dim 3\nbasis a b {label}\nbracket a b = 2 {label}\n")
    assert g.labels == ("a", "b", label)
    assert g.brackets[(0, 1)] == (F(0), F(0), F(2))


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


@pytest.mark.parametrize(
    "rhs, message",
    [
        ("e3 + * e2", "malformed term in line 2: '+ * e2'"),
        ("e3 +", "malformed term in line 2: '+'"),
        ("2/ e3", "malformed term in line 2: '2/ e3'"),
        ("e3 + 1/0", "malformed term in line 2: '+ 1/0'"),
        (" -e3 ++e4", "malformed term in line 2: '++e4'"),
        ("e3 e4", "missing +/- between terms in line 2"),
        ("1/0 e3", "malformed rational '1/0' in line 2"),
        ("e3 - 01/00 e4", "malformed rational '01/00' in line 2"),
        ("e9", "unknown basis label 'e9' in line 2"),
        ("e3 - 2 e9", "unknown basis label 'e9' in line 2"),
        # the first faulty term is reported, and within a term the rational before the label
        ("e9 e3", "unknown basis label 'e9' in line 2"),
        ("1/0 e9", "malformed rational '1/0' in line 2"),
    ],
)
def test_parse_names_the_faulty_term(rhs, message):
    with pytest.raises(AlgebraFormatError) as exc:
        parse_algebra(f"dim 4\nbracket e1 e2 = {rhs}\n")
    assert str(exc.value) == message


def test_serialize_round_trip():
    for name in ("g6_13", "counterexample11", "g6_2"):
        g = catalog.get(name).algebra
        again = parse_algebra(serialize_algebra(g))
        assert again == g
        assert again.labels == g.labels


@st.composite
def declarations(draw):
    """Algebra text with random rational coefficients, written with or
    without a denominator or a '*', zero coefficients (`0 e3`, `0/5 e3`),
    labels repeated in one right-hand side, cancelling terms (`e3 - e3`)
    and reversed pairs (`e2 e1`); with its dim, dense brackets and labels."""
    n = draw(st.integers(2, 6))
    labels = draw(st.sampled_from([[f"e{k}" for k in range(1, n + 1)], [f"x_{k}" for k in range(n)]]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    forms = st.sampled_from(["", "/", "*"])
    term = st.tuples(st.integers(0, n - 1), st.integers(-4, 4), st.integers(1, 5), forms, st.booleans())
    lines = [f"dim {n}", "basis " + " ".join(labels)]
    dense = {}
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True)):
        value = [F(0)] * n
        terms = []
        for k, num, den, form, cancel in draw(st.lists(term, max_size=5)):
            for x in (num, -num) if cancel else (num,):
                value[k] += F(x, den)
                if form == "/" or den > 1:
                    coeff = f"{abs(x)}/{den} "
                else:
                    coeff = "" if abs(x) == 1 else f"{abs(x)} "
                star = "* " if form == "*" and coeff else ""
                terms.append(("-" if x < 0 else "+", f"{coeff}{star}{labels[k]}"))
        rhs = " ".join(f"{sign} {term}" if t else f"{sign}{term}" for t, (sign, term) in enumerate(terms)) or "0"
        reverse = draw(st.booleans())
        a, b = (j, i) if reverse else (i, j)
        lines.append(f"bracket {labels[a]} {labels[b]} = {rhs}")
        dense[(i, j)] = [-x for x in value] if reverse else value
    return "\n".join(lines) + "\n", n, dense, labels


@settings(max_examples=200, deadline=None)
@given(declarations())
def test_parse_equals_the_dense_constructor_and_round_trips(declared):
    text, n, dense, labels = declared
    g = parse_algebra(text)
    expected = LieAlgebra(n, dense, labels)
    assert (g.sigma, g.table, g.labels) == (expected.sigma, expected.table, expected.labels)
    again = parse_algebra(serialize_algebra(g))
    assert (again.sigma, again.table, again.labels) == (g.sigma, g.table, g.labels)


def test_parse_and_lcs_of_a_large_sparse_algebra_are_fast():
    # parsing and the lower central series visit only the declared brackets,
    # not the dim^2 index pairs: about 1.5 ms at the dimension cap on a 2-vCPU
    # x86 host, where bracketing every index with every spanning vector took
    # 1.2 s at twice the dimension, so about 0.3 s here
    text = "dim 1000\nbracket e1 e2 = e3\nbracket e1 e3 = e4\nbracket e4 e5 = 1/2 e1000\n"
    start = time.perf_counter()
    f = lower_central_series(parse_algebra(text))
    elapsed = time.perf_counter() - start
    assert f.nilpotency_class == 4 and f.quotient_dims == (997, 1, 1, 1)
    assert elapsed < 0.1, elapsed


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


def test_bracket_on_an_empty_table_is_zero():
    # the one group of the whole table makes row 0 even when the table is empty
    g = catalog.abelian(3)
    assert g.table == ()
    assert bracket(g, vec([1, 2, F(1, 2)]), vec([F(-3, 4), 0, 5])) == [F(0)] * 3


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([e.name for e in catalog.entries()]), st.data())
def test_bracket_matches_the_dense_oracle_on_the_catalog(name, data):
    g = catalog.get(name).algebra
    x, y = (data.draw(st.lists(coords, min_size=g.dim, max_size=g.dim), label=label) for label in "xy")
    assert bracket(g, x, y) == dense_bracket(g, x, y)


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
    return naive_mat_mul(lower, upper)


@st.composite
def matrix_lie_algebras_with_matrices(draw, min_class: int = 1):
    """The Lie algebra of dim <= 8 generated by 2-3 random strictly upper
    triangular integer matrices of size <= 5, moved by a random change of
    basis, and the matrix of each of its basis vectors.  The span of the
    generators is closed under commutators and the structure constants are
    read at the pivots of its RREF basis, so Jacobi and nilpotency hold by
    construction, and the bracket of two basis vectors is the commutator
    of their matrices."""
    m = draw(st.integers(3, 5))
    slots = [(r, c) for r in range(m) for c in range(r + 1, m)]
    generator = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=len(slots), max_size=len(slots))

    def commutator(u, v):
        a, b = ([[0] * m for _ in range(m)] for _ in range(2))
        for (r, c), x, y in zip(slots, u, v):
            a[r][c], b[r][c] = x, y
        return [sum(a[r][k] * b[k][c] - b[r][k] * a[k][c] for k in range(m)) for r, c in slots]

    span = Echelon()
    new = [v for v in draw(st.lists(generator, min_size=2, max_size=3)) if span.add(integer_row(v))]
    spanning = list(new)
    while new:
        new = [w for u in new for v in spanning if span.add(integer_row(w := commutator(u, v)))]
        spanning += new
    basis, pivots = echelon_rows(span, len(slots)), span.pivots
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
    matrices = []
    for k in range(n):
        entries = [sum(p[i][k] * basis[i][s] for i in range(n)) for s in range(len(slots))]
        matrix = [[F(0)] * m for _ in range(m)]
        for (r, c), x in zip(slots, entries):
            matrix[r][c] = x
        matrices.append(matrix)
    return change_of_basis(g, [[p[i][k] for i in range(n)] for k in range(n)]), matrices


def matrix_lie_algebras(min_class: int = 1):
    """The algebras of `matrix_lie_algebras_with_matrices`, without the matrices."""
    return matrix_lie_algebras_with_matrices(min_class).map(lambda pair: pair[0])


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
    plain = scaled_bracket(moved, unit, [v.get(k, 0) for k in range(n)], ((0, moved.table, ()),), 0, 1, {})
    assert plain == {0: [out.get(k, 0) for k in range(n)]}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_ENTRIES), st.data())
def test_ad_ignores_explicit_zero_entries(name, data):
    # the zero entries come first, where no term of the result is set yet
    g = catalog.get(name).algebra
    n = g.dim
    i = data.draw(st.integers(0, n - 1))
    v = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(-9, 9).filter(bool)))
    zeros = data.draw(st.sets(st.integers(0, n - 1)))
    assert g.ad(i, {**dict.fromkeys(zeros, 0), **v}) == g.ad(i, v)


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
    # stalls at once; stalls at F_2 = F_3 = span(e3) after one strict step
    for text in ("dim 2\nbracket e1 e2 = e2\n", "dim 3\nbracket e1 e2 = e3\nbracket e1 e3 = e3\n"):
        with pytest.raises(NotNilpotentError):
            lower_central_series(parse_algebra(text))


SL2_PLUS_LINE = "dim 4\nbasis h e f z\nbracket h e = 2 e\nbracket h f = -2 f\nbracket e f = h\n"


def test_lcs_of_sl2_plus_a_line_raises():
    # sl2 ⊕ ℝ is a Lie algebra with F_2 = F_3 = sl2.  Bracketing F_2 only with
    # the basis vectors that span g/F_2 (here z, which is central) would
    # give F_3 = 0 and class 2: that shortcut needs g nilpotent to begin with
    g = parse_algebra(SL2_PLUS_LINE)
    assert check_jacobi(g) == []
    with pytest.raises(NotNilpotentError):
        lower_central_series(g)


@st.composite
def rational_tables(draw):
    """An algebra of dim 2 to 6 with random structure constants x/d, |x| <= 2
    and d <= 3, so sigma may exceed 1; Jacobi not required; half of them
    bracket only into later basis vectors, which makes them nilpotent."""
    n = draw(st.integers(2, 6))
    upper = draw(st.booleans())
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    constants = st.builds(F, st.integers(-2, 2), st.integers(1, 3))
    brackets = {}
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True)):
        v = draw(st.lists(constants, min_size=n, max_size=n))
        brackets[(i, j)] = [x if k > j or not upper else F(0) for k, x in enumerate(v)]
    return LieAlgebra(n, brackets)


@settings(max_examples=150, deadline=None)
@given(rational_tables())
def test_lcs_raises_or_shrinks_strictly_to_zero(g):
    # [g, F_k] ⊆ [g, F_{k-1}] needs bilinearity only, so the chain stalls
    # (and raises) or strictly shrinks to 0 within dim + 1 terms; the dense
    # oracle stops after dim + 1 terms either way
    chain = lcs_rref(g)
    if chain[-1]:
        with pytest.raises(NotNilpotentError):
            lower_central_series(g)
        return
    f = lower_central_series(g)
    dims = [len(f.basis(k)) for k in range(1, f.nilpotency_class + 2)]
    assert [f.basis(k) for k in range(1, f.nilpotency_class + 2)] == chain
    assert dims[0] == g.dim and dims[-1] == 0 and len(dims) <= g.dim + 1
    assert all(a > b for a, b in zip(dims, dims[1:]))


def test_lcs_equals_bracket_span():
    for entry in catalog.entries():
        g = entry.algebra
        f = lower_central_series(g)
        for k in range(1, f.nilpotency_class + 1):
            ech = Echelon()
            for i in range(g.dim):
                for v in f.basis(k):
                    ech.add(integer_row(bracket(g, unit_vec(g.dim, i), v)))
            assert echelon_rows(ech, g.dim) == f.basis(k + 1), entry.name


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
        ab, oracle = adapted_basis(h, f), adapted_basis_echelon(h, f)
        assert ab == oracle and hash(ab) == hash(oracle)
        # each vector is its integer row over its pivot value, a leading 1
        for v, row in zip(ab.vectors, oracle.int_rows):
            assert integer_row(v) == row and next(x for x in v if x) == 1
        reordered = AdaptedBasis(tuple(dict(reversed(row.items())) for row in ab.int_rows), ab.degrees)
        assert reordered == ab and hash(reordered) == hash(ab)


def test_adapted_basis_holds_only_integer_rows_and_degrees():
    # the basis is stored once, as the integer rows the derivability setup
    # reads; its Fraction vectors are made on read
    assert [field.name for field in dataclasses.fields(AdaptedBasis)] == ["int_rows", "degrees"]
    g = catalog.get("filiform(1000)").algebra
    ab = adapted_basis(g, lower_central_series(g))
    assert len(ab.int_rows) == len(ab.degrees) == 1000
    assert all(type(k) is int and type(x) is int for row in ab.int_rows for k, x in row.items())
    assert all(type(d) is int for d in ab.degrees)


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
                assert rref_contains(f.basis(level), v)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_ENTRIES).map(lambda name: catalog.get(name).algebra) | matrix_lie_algebras(), st.data())
def test_change_of_basis_matches_dense_oracle(g, data):
    # p's entries have denominators up to 3, and so in general do p^-1's, so
    # both enter the scale change_of_basis clears; mapped back through p, each
    # new constant must be the dense Fraction bracket of the new basis vectors
    n = g.dim
    p = data.draw(invertible_matrices(n))
    cols = [[p[k][i] for k in range(n)] for i in range(n)]
    moved = change_of_basis(g, cols)
    for i in range(n):
        for j in range(i + 1, n):
            v = moved.brackets.get((i, j), [F(0)] * n)
            assert [sum(p[k][m] * v[m] for m in range(n)) for k in range(n)] == dense_bracket(g, cols[i], cols[j])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_ENTRIES).map(lambda name: catalog.get(name).algebra) | matrix_lie_algebras(), st.data())
def test_permutation_basis_change_matches_dense_oracle(g, data):
    # p e_b = e_perm[b] is relabeled, not multiplied out: through the public
    # Fraction route and through the integer kernel with P a permutation, Q
    # its transpose and scale 1, it must give the dense oracle's algebra,
    # sigma included; the identity keeps g's own table
    n = g.dim
    perm = data.draw(st.permutations(range(n)) | st.just(list(range(n))))
    p = [[F(int(perm[b] == i)) for b in range(n)] for i in range(n)]
    expected = algebra_in_basis_dense(g, p, rref_mat_inv(p))
    assert change_of_basis(g, [list(col) for col in zip(*p)]) == expected
    cols = [{perm[b]: 1} for b in range(n)]
    assert algebra_in_integer_basis(g, cols, [dict(col) for col in cols], 1) == expected
    identity = [{b: 1} for b in range(n)]
    assert algebra_in_integer_basis(g, identity, identity, 1).table is g.table


def test_change_of_basis_round_trip():
    g = catalog.get("g6_12").algebra
    p = [unit_vec(6, i) for i in range(6)]
    p[0] = vec([1, 1, 0, 0, 0, 0])
    moved = change_of_basis(g, p)
    back = change_of_basis(moved, [vec([1, -1, 0, 0, 0, 0])] + p[1:])
    assert back == g


def test_change_of_basis_needs_dim_vectors_of_length_dim():
    # a vector too long or too short is refused, not truncated or misread
    g = catalog.get("heisenberg").algebra
    for vectors in (
        [[1, 0, 0], [0, 1, 0, 5], [0, 0, 1]],
        [[1, 0, 0], [0, 1], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
    ):
        with pytest.raises(ValueError, match="need dim basis vectors, each of length dim"):
            change_of_basis(g, vectors)
    with pytest.raises(ValueError, match="singular"):
        change_of_basis(g, [[1, 0, 0], [2, 0, 0], [0, 0, 1]])
    assert change_of_basis(g, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == g


def test_filtration_basis_needs_a_positive_index():
    f = lower_central_series(catalog.get("g6_17").algebra)
    for k in (0, -1, -f.nilpotency_class - 1):
        with pytest.raises(ValueError, match="at least 1"):
            f.basis(k)
    assert f.basis(1) == [unit_vec(6, i) for i in range(6)]
    assert f.basis(f.nilpotency_class + 1) == f.basis(f.nilpotency_class + 2) == []


@pytest.mark.parametrize("name", [e.name for e in catalog.entries()])
def test_filtration_equality_and_hash_follow_the_spans(name):
    # two separately parsed copies give equal filtrations with equal hashes,
    # whatever order their integer rows' entries were stored in; the basis
    # e_b + e_{b-1} gives rows with several entries
    g = catalog.get(name).algebra
    n = g.dim
    moved = change_of_basis(g, [[int(i in (b - 1, b)) for i in range(n)] for b in range(n)])
    for h in (g, moved):
        f = lower_central_series(h)
        copy = lower_central_series(parse_algebra(serialize_algebra(h)))
        assert copy is not f and copy == f and hash(copy) == hash(f)
        assert len({f, copy}) == 1
        reordered = type(f)(
            tuple(tuple(dict(reversed(row.items())) for row in level) for level in f.int_rows),
            f.nilpotency_class,
            f.dim,
        )
        assert reordered == f and hash(reordered) == hash(f)
    assert any(len(row) > 1 for level in lower_central_series(moved).int_rows for row in level)


def test_filtrations_of_different_spans_differ():
    # each pair has the same dimension, class and quotient dims, but
    # different spans
    pairs = [
        ("dim 3\nbracket e1 e2 = e3\n", "dim 3\nbracket e1 e3 = e2\n"),
        ("dim 4\nbracket e1 e2 = e3\n", "dim 4\nbracket e1 e2 = e3 + e4\n"),
    ]
    for text_a, text_b in pairs:
        f_a = lower_central_series(parse_algebra(text_a))
        f_b = lower_central_series(parse_algebra(text_b))
        assert f_a.nilpotency_class == f_b.nilpotency_class and f_a.quotient_dims == f_b.quotient_dims
        assert f_a != f_b
        assert f_a.basis(2) != f_b.basis(2)


# the 25 algebras of perfbench's decide workload
DECIDE_ALGEBRAS = (
    [e.name for e in catalog.entries()]
    + [f"filiform({n})" for n in range(6, 13)]
    + [f"central_product({i},{j})" for i, j in ((2, 3), (3, 5), (4, 7), (5, 8), (6, 10))]
)


FIXTURES = [n for n in catalog.names() if "(" not in n]


def rescaled_and_sheared(n: int):
    """A diagonal rescaling, a lower triangular shear with it on the diagonal
    and that shear's transpose, as matrices whose columns are the new basis
    vectors; all three have denominators.  The lower shear keeps each F_k
    spanned by unit vectors, the upper one does not, so the adapted basis
    of an algebra moved by it is no permutation."""
    scales = [F(i + 1, 2 if i % 2 else 3) for i in range(n)]
    diag = [[scales[i] if i == j else F(0) for j in range(n)] for i in range(n)]
    shear = [[F(1, i - j + 1) * scales[j] if i >= j else F(0) for j in range(n)] for i in range(n)]
    return diag, shear, [list(row) for row in zip(*shear)]


def record_ad_calls(monkeypatch) -> tuple[list[tuple[str, bool]], list[str]]:
    """Patch `LieAlgebra.ad` to record, per call, the stage in `stage[0]` and
    whether e_i brackets nontrivially with some e_j in v's support."""
    calls: list[tuple[str, bool]] = []
    stage = [""]
    ad = LieAlgebra.ad

    def recording(self, i, v):
        calls.append((stage[0], not self._signed_rows[i].keys().isdisjoint(v)))
        return ad(self, i, v)

    monkeypatch.setattr(LieAlgebra, "ad", recording)
    return calls, stage


def test_setup_brackets_only_index_pairs_that_meet(monkeypatch):
    # a cold setup of each decide algebra brackets, in the lower central
    # series, only e_i with a v whose support meets e_i's nonzero brackets,
    # and only past F_2, which is read off the table (343 calls); each
    # adapted basis is a permutation, so the basis change relabels the
    # table with no bracket.  The setup of a catalog fixture moved by the
    # upper shear, whose adapted basis is no permutation, brackets in its
    # basis change only pairs that meet (279 calls).
    calls, stage = record_ad_calls(monkeypatch)
    for name in DECIDE_ALGEBRAS:
        g = parse_algebra(catalog.get(name).definition)
        stage[0] = "lcs"
        lower_central_series(g)
        stage[0] = "basis"
        _setup(g)
        stage[0] = ""
    for name in FIXTURES:
        upper = rescaled_and_sheared(catalog.get(name).algebra.dim)[2]
        moved = change_of_basis(catalog.get(name).algebra, [list(col) for col in zip(*upper)])
        lower_central_series(moved)
        stage[0] = "sheared"
        _setup(moved)
        stage[0] = ""
    made = {where: [meets for s, meets in calls if s == where] for where in ("lcs", "basis", "sheared")}
    assert made["basis"] == []
    for where, bound in (("lcs", 343), ("sheared", 279)):
        assert 0 < len(made[where]) <= bound, (where, len(made[where]))
        assert all(made[where]), where


def test_check_jacobi_brackets_only_index_pairs_that_meet(monkeypatch):
    calls, _ = record_ad_calls(monkeypatch)
    bad = parse_algebra("dim 3\nbracket e1 e2 = e1\nbracket e1 e3 = e2\n")
    assert check_jacobi(bad)
    for name in DECIDE_ALGEBRAS:
        assert check_jacobi(catalog.get(name).algebra) == []
    assert calls and all(meets for _, meets in calls)
