"""Derivability conditions, the affine solver and the e-invariant."""

from __future__ import annotations

import gc
import math
import random
import sys
import time
import weakref
from contextlib import contextmanager
from fractions import Fraction as F
from typing import Iterator

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    algebra_in_basis_dense,
    antichain,
    antichain_by_pruning,
    columns_matrix,
    compositions_recursive,
    condition_rows_unbounded,
    delta_depth,
    e_invariant_by_candidates,
    e_invariant_by_paths,
    e_of_operator_by_candidates,
    e_of_operator_by_paths,
    e_of_operator_dense,
    e_of_operator_tuples,
    enumerate_S_per_level,
    is_A_derivable_by_paths,
    is_grading_operator_echelon,
    mat_add,
    naive_mat_mul,
    normalized_tuples_recursive,
    ratio_rows_by_paths,
    rref_contains,
    rref_mat_inv,
    walked,
)
from test_linalg import direct_sum
from test_lie import (
    DECIDE_ALGEBRAS,
    FIXTURES,
    SMALL_ENTRIES,
    invertible_matrices,
    matrix_lie_algebras,
    rescaled_and_sheared,
)

from nilgrade import catalog, derivability, linalg
from nilgrade.carnot import carnot_algebra, carnot_pair, grading_from_operator
from nilgrade.derivability import (
    DerivCondition,
    GradingOperator,
    OperatorNotInDError,
    candidate_values,
    delta_n,
    e_invariant,
    e_of_operator,
    enumerate_S,
    enumerate_T,
    grading_operator_space,
    normalized_tuples,
    is_A_derivable,
    is_grading_operator,
    parse_condition_set,
    r_condition_set,
    _adapted_operator,
    _compositions,
    _condition_rows,
    _setup,
    _Setup,
)
from nilgrade.lie import (
    adapted_basis,
    algebra_in_integer_basis,
    change_of_basis,
    iterated_bracket,
    lower_central_series,
    parse_algebra,
    serialize_algebra,
)
from nilgrade.linalg import AffineSystem, Echelon, mat_vec, unit_vec

coords = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def diag_operator(degrees) -> GradingOperator:
    n = len(degrees)
    return GradingOperator.from_rows(
        [[F(degrees[i]) if i == j else F(0) for j in range(n)] for i in range(n)]
    )


# --- enumerations


def test_enumerate_T_quoted_values():
    assert enumerate_T(3, 5) == [(1, 1)]
    assert enumerate_T(4, 5) == [(1, 1), (1, 2), (1, 1, 1)]
    assert enumerate_T(5, 5) == [
        (1, 1),
        (1, 2),
        (1, 1, 1),
        (1, 3),
        (2, 2),
        (1, 1, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_enumerate_T_requires_range():
    with pytest.raises(ValueError):
        enumerate_T(2, 5)
    with pytest.raises(ValueError):
        enumerate_T(6, 5)


def test_enumerate_S():
    assert enumerate_S(2) == frozenset()
    assert enumerate_S(3) == parse_condition_set("(1,1|3)")
    assert enumerate_S(4) == parse_condition_set("(1,1|3),(1,1|4),(1,2|4),(1,1,1|4)")


def test_compositions_and_normalized_tuples_match_the_recursive_oracle():
    # compositions read off lexicographic cut points come lexicographically
    for total in range(1, 12):
        for parts in range(1, total + 1):
            assert list(_compositions(total, parts)) == list(compositions_recursive(total, parts))
    for max_sum in range(2, 12):
        assert normalized_tuples(max_sum) == normalized_tuples_recursive(max_sum)


def test_enumerate_S_matches_the_per_level_oracle_in_iteration_order():
    for c in range(2, 13):
        assert list(enumerate_S(c)) == list(enumerate_S_per_level(c))


def test_conditions_hash_and_sort_as_their_field_tuples():
    # a condition set's hash and iteration order follow these, so pin them
    for c in (3, 6, 9):
        universe = enumerate_S(c)
        assert all(hash(cond) == hash((cond.wp, cond.level)) for cond in universe)
        ordered = sorted(universe)
        assert ordered == sorted(universe, key=lambda cond: (cond.wp, cond.level))
        assert all(a < b for a, b in zip(ordered, ordered[1:]))


@pytest.mark.parametrize(
    "wp, level, message",
    [
        ((1,), 3, "tuple must have length at least 2"),
        ((0, 1), 3, "tuple entries must be positive"),
        ((2, 1), 4, "last two tuple entries must be nondecreasing"),
        ((1, 2), 3, "level must exceed the tuple sum"),
    ],
)
def test_condition_checks_its_fields(wp, level, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        DerivCondition(wp, level)
    with pytest.raises(ValueError, match=f"^{message}$"):
        DerivCondition(wp=wp, level=level)
    with pytest.raises(ValueError, match=f"^{message}$"):
        DerivCondition((1, 1, 1), 9)._replace(wp=wp, level=level)


def test_condition_is_immutable_and_reads_as_written():
    cond = DerivCondition((1, 2), 4)
    with pytest.raises(AttributeError):
        cond.level = 5
    assert (cond.wp, cond.level) == ((1, 2), 4)
    assert str(cond) == "(1,2|4)" and repr(cond) == "DerivCondition(wp=(1, 2), level=4)"


def test_candidate_values():
    assert candidate_values(2) == [F(0)]
    assert candidate_values(4) == [F(0), F(1, 2), F(2, 3), F(3, 4)]
    assert candidate_values(5) == [
        F(0),
        F(2, 5),
        F(1, 2),
        F(3, 5),
        F(2, 3),
        F(3, 4),
        F(4, 5),
    ]


def test_r_condition_set_examples():
    assert r_condition_set(4, F(0)) == parse_condition_set("(1,1|4),(1,2|4),(1,1,1|4)")
    assert r_condition_set(4, F(1, 2)) == parse_condition_set("(1,1|3),(1,2|4),(1,1,1|4)")
    assert r_condition_set(4, F(3, 4)) == frozenset()


def test_condition_parsing():
    cs = parse_condition_set(" (1, 1 | 3) , (1,2|4) ")
    assert cs == frozenset({DerivCondition((1, 1), 3), DerivCondition((1, 2), 4)})
    # last two entries normalized by alternation
    assert parse_condition_set("(2,1|4)") == parse_condition_set("(1,2|4)")
    with pytest.raises(ValueError):
        parse_condition_set("(1|3)")
    with pytest.raises(ValueError):
        parse_condition_set("(1,2|4) junk")
    # whitespace may surround the punctuation but never joins two numbers
    assert parse_condition_set("( 1 , 1 | 3 )") == frozenset({DerivCondition((1, 1), 3)})
    for text in ("(1,1 1|15)", "(1, 2 | 1 0)", "(1 2,3|9)"):
        with pytest.raises(ValueError, match="malformed condition set"):
            parse_condition_set(text)


def test_condition_validation():
    with pytest.raises(ValueError):
        DerivCondition((1, 2), 3)  # sum not below level
    with pytest.raises(ValueError):
        DerivCondition((2, 1), 4)  # not normalized
    with pytest.raises(ValueError):
        DerivCondition((1,), 3)


# --- delta_n


def test_delta_n_vanishes_for_derivation():
    h = catalog.get("heisenberg").algebra
    d = diag_operator([1, 1, 2])
    for i in range(3):
        for j in range(3):
            value = delta_n(h, d, [unit_vec(3, i), unit_vec(3, j)])
            assert value == [F(0)] * 3


def test_delta_n_g6_11_example():
    g = catalog.get("g6_11").algebra
    d = diag_operator([1, 1, 1, 2, 3, 4])
    value = delta_n(g, d, [unit_vec(6, 1), unit_vec(6, 2)])
    assert value == [c * 2 for c in unit_vec(6, 5)]


def test_delta_n_degenerate_zero_bracket():
    g = catalog.get("g6_11").algebra
    d = diag_operator([1, 1, 1, 2, 3, 4])
    # [e4, e5] = 0 and both are scaled by the same factor under lambda*id
    lam = GradingOperator.from_rows([[F(3) if i == j else F(0) for j in range(6)] for i in range(6)])
    assert delta_n(g, lam, [unit_vec(6, 3), unit_vec(6, 3)]) == [F(0)] * 6
    assert iterated_bracket(g, [unit_vec(6, 4), unit_vec(6, 5)]) == [F(0)] * 6


@settings(max_examples=25, deadline=None)
@given(st.lists(coords, min_size=6, max_size=6), st.lists(coords, min_size=6, max_size=6))
def test_delta_n_linear_in_operator(x, y):
    g = catalog.get("g6_13").algebra
    f = lower_central_series(g)
    ab = adapted_basis(g, f)
    base, dirs = grading_operator_space(g, f, ab)
    d1 = base
    d2 = GradingOperator.from_rows(mat_add(base.rows, dirs[0]))
    summed = GradingOperator.from_rows(mat_add(d1.rows, d2.rows))
    lhs = delta_n(g, summed, [x, y])
    rhs = [a + b for a, b in zip(delta_n(g, d1, [x, y]), delta_n(g, d2, [x, y]))]
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(
    st.lists(coords, min_size=6, max_size=6),
    st.lists(coords, min_size=6, max_size=6),
    st.lists(coords, min_size=6, max_size=6),
)
def test_delta_n_alternating_last_two(x, y, z):
    g = catalog.get("g6_19").algebra
    d = diag_operator([1, 1, 2, 3, 4, 5])
    lhs = delta_n(g, d, [x, y, z])
    rhs = delta_n(g, d, [x, z, y])
    assert lhs == [-c for c in rhs]
    assert delta_n(g, d, [x, y, y]) == [F(0)] * 6


# --- grading operator space


def test_grading_operator_space_abelian():
    g = catalog.get("abelian(2)").algebra
    f = lower_central_series(g)
    base, dirs = grading_operator_space(g, f, adapted_basis(g, f))
    assert base.rows == [[F(1), F(0)], [F(0), F(1)]]
    assert dirs == []


def test_grading_operator_space_heisenberg():
    g = catalog.get("heisenberg").algebra
    f = lower_central_series(g)
    base, dirs = grading_operator_space(g, f, adapted_basis(g, f))
    assert base.rows == diag_operator([1, 1, 2]).rows
    assert len(dirs) == 2
    images = set()
    for m in dirs:
        assert mat_vec(m, unit_vec(3, 2)) == [F(0)] * 3
        for b in range(2):
            img = mat_vec(m, unit_vec(3, b))
            if any(c != 0 for c in img):
                assert img == unit_vec(3, 2)
                images.add(b)
    assert images == {0, 1}


def test_grading_operator_space_count_g6_11():
    g = catalog.get("g6_11").algebra
    f = lower_central_series(g)
    ab = adapted_basis(g, f)
    base, dirs = grading_operator_space(g, f, ab)
    degs = ab.degrees
    expected = sum(
        1 for a in range(6) for b in range(6) if degs[a] >= degs[b] + 1
    )
    assert len(dirs) == expected == 12
    for m in dirs:
        assert is_grading_operator(g, f, GradingOperator.from_rows(mat_add(base.rows, m)))


@st.composite
def grading_operator_samples(draw, algebras=st.sampled_from(SMALL_ENTRIES).map(lambda n: catalog.get(n).algebra)):
    """(g, its lower central series, base + sum of t * direction) on an
    algebra drawn from `algebras` (a catalog entry of dim <= 7 by default),
    with a random rational t per direction."""
    g = draw(algebras)
    f = lower_central_series(g)
    base, dirs = grading_operator_space(g, f, adapted_basis(g, f))
    rows = base.rows
    for m in dirs:
        t = draw(coords)
        rows = mat_add(rows, [[t * x for x in row] for row in m])
    return g, f, rows


def moved_by(g, p):
    """g in the basis given by the columns of p."""
    n = g.dim
    return change_of_basis(g, [[p[i][k] for i in range(n)] for k in range(n)])


@settings(max_examples=40, deadline=None)
@given(grading_operator_samples(), st.data())
def test_is_grading_operator_matches_echelon_oracle(sample, data):
    # a point of the affine space is a grading operator; one perturbed
    # entry may or may not leave it one; and neither answer depends on
    # the basis the algebra is written in
    g, f, rows = sample
    n = g.dim
    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    perturbed = [list(row) for row in rows]
    perturbed[a][b] = data.draw(coords)
    p = data.draw(invertible_matrices(n))
    moved = moved_by(g, p)
    f_moved = lower_central_series(moved)
    cases = []
    for m in (rows, perturbed):
        m_moved = naive_mat_mul(naive_mat_mul(rref_mat_inv(p), m), p)
        cases.append((g, f, GradingOperator.from_rows(m)))
        cases.append((moved, f_moved, GradingOperator.from_rows(m_moved)))
    verdicts = [is_grading_operator(*case) for case in cases]
    assert verdicts == [is_grading_operator_echelon(*case) for case in cases]
    assert verdicts[:2] == [True, True]
    assert verdicts[2] == verdicts[3]


@pytest.mark.parametrize("shape", ["7x7", "5x6", "6x7", "0x0", "ragged"])
def test_wrong_shape_is_not_a_grading_operator(shape):
    g = catalog.get("g6_11").algebra
    rows = diag_operator([1, 1, 1, 2, 3, 4]).rows
    rows = {
        "7x7": diag_operator([1, 1, 1, 2, 3, 4, 5]).rows,
        "5x6": rows[:5],
        "6x7": [row + [F(0)] for row in rows],
        "0x0": [],
        "ragged": rows[:5] + [rows[5] + [F(0)]],
    }[shape]
    d = GradingOperator.from_rows(rows)
    assert not is_grading_operator(g, lower_central_series(g), d)
    with pytest.raises(OperatorNotInDError):
        e_of_operator(g, d)


# --- the integer form of a grading operator


@st.composite
def rational_matrices(draw):
    """Rational matrices of every shape a caller may pass: square, 5x6, 6x7,
    ragged, 0x0 and square with all-zero rows, their entries mostly 0, ints,
    Fractions or strings."""
    shape = draw(st.sampled_from(["square", "5x6", "6x7", "ragged", "0x0", "zero rows"]))
    n = draw(st.integers(1, 6))
    lengths = {"square": [n] * n, "zero rows": [n] * n, "5x6": [6] * 5, "6x7": [7] * 6, "0x0": []}.get(shape)
    if lengths is None:
        lengths = draw(st.lists(st.integers(0, 6), min_size=2, max_size=6).filter(lambda ks: len(set(ks)) > 1))
    entry = st.one_of(st.just(0), st.integers(-3, 3), coords, coords.map(str))
    m = [draw(st.lists(entry, min_size=k, max_size=k)) for k in lengths]
    if shape == "zero rows":
        for a in draw(st.lists(st.integers(0, n - 1), min_size=1)):
            m[a] = [0] * n
    return m


def dense(m) -> list[list[F]]:
    return [[F(x) for x in row] for row in m]


def assert_canonical(d: GradingOperator, m) -> None:
    """d holds the rational matrix m in canonical integer form: its dense
    view is m entry by entry, `den` is the least common denominator, each
    integer row holds nonzero ints inside its row's length, and the operator
    made from d's own rows is d, with d's hash."""
    assert d.matrix == tuple(tuple(row) for row in dense(m))
    assert d.rows == dense(m)
    assert all(type(x) is F for row in d.matrix for x in row)
    assert d.shape == tuple(len(row) for row in m)
    assert d.den == math.lcm(1, *(x.denominator for row in dense(m) for x in row))
    assert all(type(x) is int and x and 0 <= j < k for row, k in zip(d.int_rows, d.shape) for j, x in row.items())
    again = GradingOperator.from_rows(d.rows)
    assert again == d and hash(again) == hash(d)


@settings(max_examples=200, deadline=None)
@given(rational_matrices(), st.data())
def test_apply_matches_the_dense_product(m, data):
    # D v from the integer rows is the dense product, entry for entry, on
    # vectors of Fractions, ints and zeros; a vector of the wrong length,
    # or any vector for a ragged operator, is a dimension mismatch
    d = GradingOperator.from_rows(m)
    width = len(m[0]) if m else data.draw(st.integers(0, 6))
    v = data.draw(st.lists(st.one_of(st.just(0), st.integers(-3, 3), coords), min_size=width, max_size=width))
    if len(set(d.shape)) > 1:
        with pytest.raises(ValueError, match="dimension mismatch"):
            d.apply(v)
    else:
        out = d.apply(v)
        assert out == mat_vec(d.matrix, v)
        assert all(type(x) is F for x in out)
    if m:
        with pytest.raises(ValueError, match="dimension mismatch"):
            d.apply(v + [F(1)])


def test_delta_on_the_sparse_file_reads_no_dense_view(monkeypatch):
    # one delta_2 of the e witness of the sparse dim-1000 file multiplies by
    # the integer rows: with the dense view patched to raise, it is the
    # value the dense product gives (0, D being a derivation there), and D
    # of a vector with no zero entry is the dense product too
    g = parse_algebra(SPARSE_1000)
    d = e_invariant(g).witness
    x, y = unit_vec(1000, 0), unit_vec(1000, 1)
    v = [F(k % 7 - 3 or 5, k % 5 + 1) for k in range(1000)]
    m = d.matrix
    dense_v = mat_vec(m, v)
    expected = [
        a - b - c
        for a, b, c in zip(
            mat_vec(m, iterated_bracket(g, [x, y])),
            iterated_bracket(g, [mat_vec(m, x), y]),
            iterated_bracket(g, [x, mat_vec(m, y)]),
        )
    ]

    def dense_view(self):
        raise AssertionError("the dense view of a grading operator was read")

    monkeypatch.setattr(GradingOperator, "matrix", property(dense_view))
    monkeypatch.setattr(GradingOperator, "rows", property(dense_view))
    assert delta_n(g, d, [x, y]) == expected
    assert d.apply(v) == dense_v


@settings(max_examples=200, deadline=None)
@given(rational_matrices(), st.data())
def test_grading_operator_form_is_canonical(m, data):
    # two operators are equal, and then hash equal, iff their dense matrices
    # are: the other matrix is m written with string entries, m with one
    # entry moved (perhaps by 0), or another matrix altogether
    d = GradingOperator.from_rows(m)
    assert_canonical(d, m)
    kind = data.draw(st.sampled_from(["strings", "one entry", "other"]))
    other = [[str(F(x)) for x in row] for row in m]
    if kind == "other":
        other = data.draw(rational_matrices())
    elif kind == "one entry" and any(m):
        a = data.draw(st.sampled_from([a for a, row in enumerate(m) if row]))
        b = data.draw(st.integers(0, len(m[a]) - 1))
        other[a][b] = F(other[a][b]) + data.draw(coords)
    d_other = GradingOperator.from_rows(other)
    assert (d == d_other) == (dense(m) == dense(other))
    if d == d_other:
        assert hash(d) == hash(d_other)


@pytest.mark.parametrize("name", FIXTURES)
def test_solver_operators_are_in_canonical_form(name):
    # the witness and the base point of each catalog fixture, and of the
    # fixture moved by its lower and upper shears: the setup divides
    # P M Q / (dx L) by the gcd of dx L and every entry, which exceeds 1 under
    # the upper shear (297 at D0 of g6_11); the dense view reduces each entry
    # anyway, so only `den` and `int_rows` show a skipped division
    g = catalog.get(name).algebra
    _, lower, upper = rescaled_and_sheared(g.dim)
    for alg in (g, moved_by(g, lower), moved_by(g, upper)):
        f = lower_central_series(alg)
        base, _ = grading_operator_space(alg, f, adapted_basis(alg, f))
        for d in (e_invariant(alg).witness, base):
            assert_canonical(d, d.matrix)


# --- derivability decisions


def test_carnot_algebra_is_S_derivable():
    for name in ("heisenberg", "filiform(6)", "abelian(3)"):
        g = catalog.get(name).algebra
        c = lower_central_series(g).nilpotency_class
        conditions = enumerate_S(max(c, 2))
        witness = is_A_derivable(g, conditions)
        assert witness is not None
        # the witness is a derivation: all delta_2 values vanish
        for i in range(g.dim):
            for j in range(g.dim):
                assert delta_n(g, witness, [unit_vec(g.dim, i), unit_vec(g.dim, j)]) == [
                    F(0)
                ] * g.dim


def test_witness_is_grading_operator():
    for name in ("g6_11", "g5_5", "g6_17"):
        g = catalog.get(name).algebra
        f = lower_central_series(g)
        res = e_invariant(g)
        assert is_grading_operator(g, f, res.witness)


def test_counterexample11_decisions():
    g = catalog.get("counterexample11").algebra
    assert is_A_derivable(g, parse_condition_set("(1,1|3)")) is not None
    assert is_A_derivable(g, parse_condition_set("(1,2|4)")) is not None
    assert is_A_derivable(g, parse_condition_set("(1,1|3),(1,2|4)")) is None
    assert is_A_derivable(g, parse_condition_set("(1,1,1|4)")) is None


def test_g7_1_2i1_decisions():
    g = catalog.get("g7_1_2i1").algebra
    assert is_A_derivable(g, parse_condition_set("(1,2|4)")) is not None
    assert is_A_derivable(g, parse_condition_set("(1,1,1|4)")) is None
    assert e_invariant(g).e == F(3, 4)


def test_level_clamping():
    # a level above the class is projected down; dropped when trivial
    g = catalog.get("g6_11").algebra  # class 4
    assert is_A_derivable(g, parse_condition_set("(1,1|9)")) is None  # clamps to (1,1|4)
    assert is_A_derivable(g, parse_condition_set("(1,3|9)")) is not None  # clamps away


def test_witness_verification_against_delta():
    # solver witnesses satisfy their conditions through the public dense path
    g = catalog.get("counterexample11").algebra
    f = lower_central_series(g)
    witness = is_A_derivable(g, parse_condition_set("(1,2|4)"))
    f3_basis = f.basis(3)
    f5_basis = f.basis(5)
    for i in range(g.dim):
        for z in f.basis(2):
            value = delta_n(g, witness, [unit_vec(g.dim, i), z])
            assert rref_contains(f5_basis, value)


# --- e-invariant and e_of_operator


def test_e_invariant_table_values():
    expected = {
        "g5_5": F(3, 4),
        "g6_11": F(1, 2),
        "g6_12": F(3, 4),
        "g6_13": F(3, 4),
        "g6_17": F(3, 5),
        "g6_19": F(4, 5),
        "g6_20": F(4, 5),
        "g6_2": F(2, 3),
        "heisenberg": F(0),
        "filiform(5)": F(0),
    }
    for name, value in expected.items():
        assert e_invariant(catalog.get(name).algebra).e == value, name


def test_e_of_operator_examples():
    g = catalog.get("g6_11").algebra
    d = diag_operator([1, 1, 1, 2, 3, 4])
    assert e_of_operator(g, d) == F(1, 2)

    h = catalog.get("heisenberg").algebra
    assert e_of_operator(h, e_invariant(h).witness) == F(0)


def test_e_of_operator_g7_0_8_published_operator():
    # the diagonal operator with degrees (1,1,1,2,3,4,5); its defect
    # Delta_3(e2,e2,e4) = e7 lands at ratio 4/5, not the published 3/4
    g = catalog.get("g7_0_8").algebra
    d = diag_operator([1, 1, 1, 2, 3, 4, 5])
    assert is_grading_operator(g, lower_central_series(g), d)
    value = delta_n(g, d, [unit_vec(7, 1), unit_vec(7, 1), unit_vec(7, 3)])
    assert value == unit_vec(7, 6)
    assert e_of_operator(g, d) == F(4, 5)


def test_e_of_operator_rejects_non_operator():
    g = catalog.get("g6_11").algebra
    bad = diag_operator([7, 7, 7, 7, 7, 7])
    with pytest.raises(OperatorNotInDError):
        e_of_operator(g, bad)


def test_witness_achieves_e():
    for name in ("g5_5", "g6_11", "g6_17", "g6_19", "g6_2"):
        g = catalog.get(name).algebra
        res = e_invariant(g)
        assert e_of_operator(g, res.witness) == res.e


def test_e_of_operator_bounded_below_by_e_invariant():
    g = catalog.get("g6_11").algebra
    f = lower_central_series(g)
    ab = adapted_basis(g, f)
    base, dirs = grading_operator_space(g, f, ab)
    e_g = e_invariant(g).e
    for m in dirs[:4]:
        d = GradingOperator.from_rows(mat_add(base.rows, m))
        assert e_of_operator(g, d) >= e_g


def test_feasibility_monotone_in_r():
    for name in ("g6_17", "g5_5", "counterexample11"):
        g = catalog.get(name).algebra
        c = lower_central_series(g).nilpotency_class
        feasible = [
            is_A_derivable(g, r_condition_set(c, r)) is not None
            for r in candidate_values(c)
        ]
        # once feasible, stays feasible
        assert feasible == sorted(feasible)


def test_witness_is_rational_by_construction():
    res = e_invariant(catalog.get("g6_13").algebra)
    for row in res.witness.rows:
        for entry in row:
            assert isinstance(entry, F)


def test_abelian_direct_factor_preserves_e():
    # tacking on an abelian factor changes tau but not the invariant
    g = catalog.get("g5_5").algebra
    padded_brackets = {}
    for (i, j), v in g.brackets.items():
        padded_brackets[(i, j)] = list(v) + [F(0)]
    from nilgrade.lie import LieAlgebra, lower_central_series as lcs

    padded = LieAlgebra(6, padded_brackets)
    assert lcs(padded).quotient_dims == (3, 1, 1, 1)
    assert e_invariant(padded).e == F(3, 4) == e_invariant(g).e


def test_carnot_characterizations_agree():
    # e = 0, S_c-derivability and {(1,1|c)}-derivability coincide
    from nilgrade.lie import lower_central_series as lcs

    for entry_name in ("heisenberg", "g5_5", "g6_2", "g6_11", "g6_17", "filiform(6)", "counterexample11"):
        g = catalog.get(entry_name).algebra
        c = lcs(g).nilpotency_class
        via_e = e_invariant(g).e == 0
        via_s = is_A_derivable(g, enumerate_S(max(c, 2))) is not None
        via_top = is_A_derivable(g, frozenset({DerivCondition((1, 1), max(c, 3))})) is not None
        assert via_e == via_s == via_top, entry_name


def test_delta_lands_one_step_deeper():
    # for a grading operator, Delta_n on arguments of filtration depths
    # >= wp always lands in the next filtration term after |wp|
    from itertools import product

    for name in ("g6_11", "g6_20", "g7_0_8"):
        g = catalog.get(name).algebra
        f = lower_central_series(g)
        ab = adapted_basis(g, f)
        base, dirs = grading_operator_space(g, f, ab)
        d = GradingOperator.from_rows(mat_add(base.rows, dirs[0]))
        vectors = [list(v) for v in ab.vectors]
        degrees = ab.degrees
        for wp in ((1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2)):
            target = f.basis(sum(wp) + 1)
            slots = [
                [v for v, deg in zip(vectors, degrees) if deg >= p] for p in wp
            ]
            for combo in product(*slots):
                value = delta_n(g, d, list(combo))
                assert rref_contains(target, value)


# --- dominated conditions and the sparse solver against dense oracles


def dominates(strong: DerivCondition, weak: DerivCondition) -> bool:
    return (
        len(strong.wp) == len(weak.wp)
        and all(a <= b for a, b in zip(strong.wp, weak.wp))
        and weak.level <= strong.level
    )


def test_clamp_keeps_only_all_ones_at_r_zero():
    for c in range(3, 12):
        kept = antichain(c, F(0))
        assert sorted(kept) == [DerivCondition((1,) * n, c) for n in range(2, c)]


def test_clamp_keeps_exactly_the_antichain():
    c = 8
    for r in candidate_values(c):
        conditions = r_condition_set(c, r)
        kept = antichain(c, r)
        assert set(kept) <= conditions
        for a in kept:
            assert not any(dominates(b, a) for b in kept if b != a), (r, a)
        for dropped in conditions - set(kept):
            assert any(dominates(k, dropped) for k in kept), (r, dropped)


def test_antichain_matches_pruning_oracle():
    # the closed form against the pairwise domination pass over the whole
    # condition set, condition by condition and in the same order
    for c in range(2, 12):
        for r in candidate_values(c):
            assert antichain(c, r) == antichain_by_pruning(c, r), (c, r)


GRADED_ENTRIES = [
    e.name
    for e in catalog.entries()
    if e.algebra.dim <= 7 and lower_central_series(e.algebra).nilpotency_class >= 3
]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(GRADED_ENTRIES), st.data())
def test_sparse_solver_against_dominated_conditions_and_dense_delta(name, data):
    g = catalog.get(name).algebra
    universe = sorted(enumerate_S(lower_central_series(g).nilpotency_class))
    # half the draws take conditions that each hold alone, so that most of
    # those sets have a witness to check
    feasible_alone = [d for d in universe if is_A_derivable(g, {d}) is not None]
    pool = data.draw(st.sampled_from([universe, feasible_alone or universe]))
    chosen = frozenset(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)))
    dominated = {d for d in universe if any(dominates(s, d) for s in chosen)}
    witness = is_A_derivable(g, chosen)
    assert is_A_derivable(g, chosen | dominated) == witness
    if witness is not None:
        for cond in chosen | dominated:
            depth = delta_depth(g, witness, cond.wp)
            assert depth is None or depth > cond.level, cond


@pytest.mark.parametrize("name", [e.name for e in catalog.entries() if e.algebra.dim <= 6])
def test_e_of_operator_matches_dense_oracle(name):
    g = catalog.get(name).algebra
    f = lower_central_series(g)
    base, dirs = grading_operator_space(g, f, adapted_basis(g, f))
    # a third of a free direction leaves a denominator in D's adapted columns
    third = GradingOperator.from_rows(mat_add(base.rows, [[x / 3 for x in row] for row in dirs[-1]]))
    for d in (e_invariant(g).witness, base, third):
        assert e_of_operator(g, d) == e_of_operator_dense(g, d)


DECIDE_ALGEBRAS = (
    [e.name for e in catalog.entries()]
    + [f"filiform({n})" for n in range(6, 13)]
    + [f"central_product({i},{j})" for i, j in ((2, 3), (3, 5), (4, 7), (5, 8), (6, 10))]
)


@pytest.mark.parametrize("name", DECIDE_ALGEBRAS)
def test_e_of_operator_matches_per_tuple_oracle(name):
    # the antichain scan through the row stream against the max of
    # |wp| / depth over every normalized tuple
    g = catalog.get(name).algebra
    f = lower_central_series(g)
    base, dirs = grading_operator_space(g, f, adapted_basis(g, f))
    witness = e_invariant(g).witness
    spread = dirs[:: max(1, len(dirs) // 3)][:3]
    operators = [witness, base] + [
        GradingOperator.from_rows(mat_add(witness.rows, [[t * x for x in row] for row in m]))
        for m in spread
        for t in (F(1, 3), F(-7, 2))
    ]
    for d in operators:
        assert e_of_operator(g, d) == e_of_operator_tuples(g, d)


_PUBLIC_CALLS = {
    "e_invariant": e_invariant,
    "e_of_operator": e_of_operator,
    "is_A_derivable": is_A_derivable,
    "is_grading_operator": lambda g, d: is_grading_operator(g, lower_central_series(g), d),
    "carnot_pair": carnot_pair,
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GRADED_ENTRIES), matrix_lie_algebras(min_class=3), st.data())
def test_shared_setup_answers_like_a_fresh_one(name, extra, data):
    # one algebra instance, and with it one cached setup, answers a random
    # sequence of public calls exactly as a freshly parsed instance answers
    # each call: nothing a call leaves on the setup or in the states' bracket
    # caches, whether the solver or an operator's point check filled it,
    # changes the next
    for text in (catalog.get(name).definition, serialize_algebra(extra)):
        shared = parse_algebra(text)
        f = lower_central_series(parse_algebra(text))
        base, dirs = grading_operator_space(parse_algebra(text), f, adapted_basis(parse_algebra(text), f))
        witness = e_invariant(parse_algebra(text)).witness
        universe = sorted(enumerate_S(f.nilpotency_class))
        for _ in range(data.draw(st.integers(min_value=2, max_value=6))):
            kind = data.draw(st.sampled_from(sorted(_PUBLIC_CALLS)))
            if kind == "e_invariant":
                args = ()
            elif kind == "is_A_derivable":
                args = (frozenset(data.draw(st.lists(st.sampled_from(universe), min_size=1, max_size=3))),)
            else:
                d = data.draw(st.sampled_from([witness, base, None]))
                if d is None:
                    m, t = data.draw(st.sampled_from(dirs)), data.draw(coords)
                    d = GradingOperator.from_rows(mat_add(witness.rows, [[t * x for x in row] for row in m]))
                args = (d,)
            call = _PUBLIC_CALLS[kind]
            assert call(shared, *args) == call(parse_algebra(text), *args), (kind, args)


def test_dropped_algebra_is_freed_by_refcounting():
    # the setup cached on an algebra holds no reference back to it, and
    # neither the e-scan's walk nor a condition's leaves a reference cycle
    # through the setup, so an
    # algebra parsed for one request is freed, setup and trie with it, as
    # soon as it is dropped, without waiting for the cycle collector
    witness = e_invariant(catalog.get("g6_11").algebra).witness
    g = catalog.get("g6_11").algebra
    solved = catalog.get("g7_0_8").algebra
    gc.disable()
    try:
        e_invariant(g)
        e_of_operator(g, witness)
        is_A_derivable(solved, parse_condition_set("(1,1|3),(1,2|4)"))
        refs = [weakref.ref(h) for h in (g, _setup(g), solved, _setup(solved))]
        del g, solved
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()


def test_setup_in_the_identity_basis_shares_the_signed_rows():
    # where the adapted basis is the identity, the adapted algebra has g's
    # own table, and the setup reads g's signed rows instead of a second
    # list of them (the list is shared, not g: see the test above); that is
    # 21 of the 25 catalog, filiform and central-product algebras here
    names = [e.name for e in catalog.entries()]
    names += [f"filiform({n})" for n in range(6, 13)]
    names += [f"central_product({i},{j})" for i, j in ((2, 3), (3, 5), (4, 7), (5, 8), (6, 10))]
    shared = []
    for name in names:
        g = catalog.get(name).algebra
        setup = _setup(g)
        identity = setup.ab.int_rows == tuple({b: 1} for b in range(g.dim))
        assert (setup.rows is g._signed_rows) == identity, name
        if identity:
            shared.append(name)
    assert len(shared) == 21, shared


def test_setup_builds_the_adapted_algebra_once(monkeypatch):
    # a fresh instance builds its algebra in the adapted basis once, with
    # the rest of its setup, and every later call on it reuses that one;
    # `algebra_in_integer_basis` is the one kernel under every basis change,
    # `change_of_basis` included
    built = []
    monkeypatch.setattr(
        "nilgrade.lie.algebra_in_integer_basis", lambda *args: built.append(args) or algebra_in_integer_basis(*args)
    )
    for name in ("heisenberg", "g6_11", "filiform(7)"):
        witness = e_invariant(catalog.get(name).algebra).witness
        g = catalog.get(name).algebra
        f = lower_central_series(g)
        built.clear()
        assert is_grading_operator(g, f, witness)
        assert len(built) == 1, name
        grading_operator_space(g, f, adapted_basis(g, f))
        e_of_operator(g, witness)
        is_A_derivable(g, enumerate_S(f.nilpotency_class))
        e_invariant(g)
        assert len(built) == 1, name


def test_setup_and_its_adapted_algebra_invert_p_once(monkeypatch):
    # the setup inverts its change of basis once, on integers, and builds its
    # adapted algebra, its operators and the free directions from that one
    # inverse; `integer_inverse` is the package's one inverse, so a fresh
    # class >= 3 instance runs it once however many calls read p^-1
    inverted = []
    invert = linalg.integer_inverse
    for module in ("nilgrade.linalg", "nilgrade.lie", "nilgrade.derivability"):
        monkeypatch.setattr(f"{module}.integer_inverse", lambda *args: inverted.append(args) or invert(*args))
    g = catalog.get("g6_11").algebra
    f = lower_central_series(g)
    assert f.nilpotency_class >= 3
    witness = e_invariant(g).witness
    assert is_grading_operator(g, f, witness)
    assert e_of_operator(g, witness) == e_invariant(g).e
    grading_operator_space(g, f, adapted_basis(g, f))
    assert len(inverted) == 1


def test_setup_of_a_permutation_basis_eliminates_nothing(monkeypatch):
    # every decide algebra's adapted basis is a permutation of the unit
    # vectors, so its cold setup inverts it with no elimination; a basis
    # change by a fixture's lower or upper shear takes one, and so does the
    # setup of the upper-sheared algebra, whose adapted basis is no
    # permutation (the lower shear keeps each F_k spanned by unit vectors)
    eliminations = []

    class Recording(linalg.Echelon):
        def __init__(self):
            if sys._getframe(1).f_code.co_name == "integer_inverse":
                eliminations.append(1)
            super().__init__()

    monkeypatch.setattr(linalg, "Echelon", Recording)
    for name in DECIDE_ALGEBRAS:
        _setup(parse_algebra(catalog.get(name).definition))
    assert eliminations == []
    g = catalog.get("g6_11").algebra
    _, lower, upper = rescaled_and_sheared(g.dim)
    for p, setup_eliminates in ((lower, False), (upper, True)):
        moved = moved_by(g, p)
        assert len(eliminations) == 1
        _setup(moved)
        assert len(eliminations) == 1 + setup_eliminates
        eliminations.clear()


def test_foreign_filtration_or_adapted_basis_is_rejected():
    # the setup holds g's own lower central series and adapted basis, so a
    # filtration or basis of another algebra is refused, not ignored; equal
    # values computed on another instance of g are accepted
    g, other = catalog.get("g6_11").algebra, catalog.get("filiform(6)").algebra
    f, f_other = lower_central_series(g), lower_central_series(other)
    witness = e_invariant(g).witness
    with pytest.raises(ValueError, match="lower central series"):
        is_grading_operator(g, f_other, witness)
    with pytest.raises(ValueError, match="adapted basis"):
        grading_operator_space(g, f, adapted_basis(other, f_other))
    with pytest.raises(ValueError, match="adapted basis"):
        grading_operator_space(g, f_other, adapted_basis(g, f))
    fresh = catalog.get("g6_11").algebra
    f_fresh = lower_central_series(fresh)
    assert is_grading_operator(g, f_fresh, witness)
    assert grading_operator_space(g, f_fresh, adapted_basis(fresh, f_fresh)) == grading_operator_space(
        fresh, f_fresh, adapted_basis(fresh, f_fresh)
    )


@pytest.mark.parametrize("name", FIXTURES)
def test_solver_on_rescaled_and_sheared_bases(name):
    # every catalog table is integral; the bases below make sigma > 1.
    # Under each, the e-value and the witness's own e_of_operator are
    # unchanged, and under the scaling the witness moves as P^-1 W P.
    g = catalog.get(name).algebra
    result = e_invariant(g)
    diag, *shears = rescaled_and_sheared(g.dim)
    for p in (diag, *shears):
        moved_g = change_of_basis(g, [list(col) for col in zip(*p)])
        assert moved_g.sigma > 1
        moved = e_invariant(moved_g)
        assert moved.e == result.e
        assert e_of_operator(moved_g, moved.witness) == result.e
        if p is diag:
            assert moved.witness.rows == naive_mat_mul(naive_mat_mul(rref_mat_inv(p), result.witness.rows), p)


@pytest.mark.parametrize("name", FIXTURES)
def test_sparse_basis_change_matches_dense_oracle_on_sheared_fixtures(name):
    # both shears, and the adapted basis that the setup of the algebra moved
    # by the upper one changes to: no permutation, so the sparse columns of
    # p and p^-1 carry several entries each
    g = catalog.get(name).algebra
    _, lower, upper = rescaled_and_sheared(g.dim)
    for p in (lower, upper):
        assert moved_by(g, p) == algebra_in_basis_dense(g, p, rref_mat_inv(p))
    moved = moved_by(g, upper)
    p = columns_matrix(adapted_basis(moved, lower_central_series(moved)).vectors)
    assert any(sum(1 for x in col if x) > 1 for col in zip(*p))
    assert moved_by(moved, p) == algebra_in_basis_dense(moved, p, rref_mat_inv(p))


# --- the setup's integer frame against the public Fraction route


def assert_frame_matches_fraction_route(g, xs) -> None:
    """The setup's integer P and Q, adapted algebra, operators and free
    directions against the public Fraction route, `adapted_basis` and
    `change_of_basis`, and the dense oracles `rref_mat_inv`, `naive_mat_mul`
    and `algebra_in_basis_dense`; xs are values of the free entries to build
    operators from.  P's columns are the adapted basis's integer rows as
    stored; the base point and the free directions are those of its
    pivot-normalized `vectors`."""
    setup = _setup(g)
    f = lower_central_series(g)
    ab = adapted_basis(g, f)
    assert setup.degrees == ab.degrees
    assert setup.ab == ab
    n = g.dim
    stored = [[F(row.get(j, 0)) for j in range(n)] for row in ab.int_rows]
    big_p = columns_matrix(stored)
    big_p_inv = rref_mat_inv(big_p)
    # P is the stored rows as columns, with no common scale, and P Q = L I
    big_q = [[row.get(j, 0) for j in range(n)] for row in setup.q_rows]
    assert [[row.get(b, 0) for b in range(n)] for row in setup.p_rows] == big_p
    assert naive_mat_mul(big_p, big_q) == [[setup.q_den if i == j else 0 for j in range(n)] for i in range(n)]
    public = change_of_basis(g, stored)
    assert setup.adapted == public == algebra_in_basis_dense(g, big_p, big_p_inv)
    assert setup.adapted.brackets == public.brackets == algebra_in_basis_dense(g, big_p, big_p_inv).brackets
    diag = [[F(setup.degrees[i]) if i == j else F(0) for j in range(n)] for i in range(n)]
    for x in xs:
        d_ad = [list(row) for row in diag]
        for (a, b), value in zip(setup.positions, x):
            d_ad[a][b] += value
        d = setup.operator(x)
        assert d.rows == naive_mat_mul(naive_mat_mul(big_p, d_ad), big_p_inv)
        den, rows = _adapted_operator(d, setup)
        assert [[F(row.get(j, 0), den) for j in range(n)] for row in rows] == d_ad
    p = columns_matrix(ab.vectors)
    p_inv = rref_mat_inv(p)
    base, directions = grading_operator_space(g, f, ab)
    assert base.rows == naive_mat_mul(naive_mat_mul(p, diag), p_inv)
    assert len(directions) == len(setup.positions)
    for (a, b), direction in zip(setup.positions, directions):
        e_ab = [[F(1) if (i, j) == (a, b) else F(0) for j in range(n)] for i in range(n)]
        assert direction == naive_mat_mul(naive_mat_mul(p, e_ab), p_inv)


def random_free_values(setup, seed: str, count: int = 3) -> list[list[F]]:
    rng = random.Random(seed)
    return [
        [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in setup.positions] for _ in range(count)
    ]


@pytest.mark.parametrize("name", DECIDE_ALGEBRAS)
def test_integer_frame_matches_fraction_route(name):
    g = catalog.get(name).algebra
    assert_frame_matches_fraction_route(g, random_free_values(_setup(g), name) + [[]])


@pytest.mark.parametrize("name", FIXTURES)
def test_integer_frame_matches_fraction_route_on_sheared_fixtures(name):
    # the upper shear's adapted basis is no permutation: P has columns with
    # several entries and P^-1 has denominators
    g = catalog.get(name).algebra
    _, lower, upper = rescaled_and_sheared(g.dim)
    for shear in (lower, upper):
        moved = change_of_basis(g, [list(col) for col in zip(*shear)])
        setup = _setup(moved)
        if shear is upper:
            assert any(len(row) > 1 for row in setup.ab.int_rows) and setup.q_den > 1
        assert_frame_matches_fraction_route(moved, random_free_values(setup, name))


@settings(max_examples=30, deadline=None)
@given(matrix_lie_algebras(), st.data())
def test_integer_frame_matches_fraction_route_on_random_algebras(g, data):
    n_free = len(_setup(g).positions)
    xs = data.draw(st.lists(st.lists(coords, min_size=n_free, max_size=n_free), min_size=1, max_size=3))
    assert_frame_matches_fraction_route(g, xs)


# --- the span walk: level-bounded condition rows, one bracket per state and index

ROW_STREAM_ALGEBRAS = FIXTURES + [f"filiform({n})" for n in range(6, 13)] + ["central_product(4,7)"]


def row_space(rows, nvars: int) -> dict[int, dict[int, int]]:
    """The canonical `Echelon.int_rows` of affine rows (coeffs, rhs), with
    the right-hand side as column nvars."""
    ech = Echelon()
    for coeffs, rhs in rows:
        ech.add({**coeffs, nvars: rhs} if rhs else coeffs)
    return ech.int_rows


def assert_same_row_space(g, conditions) -> int:
    setup = _setup(g)
    nvars = len(setup.positions)
    emitted = 0
    for cond in conditions:
        rows = list(_condition_rows(setup, cond, {}))
        assert row_space(rows, nvars) == row_space(condition_rows_unbounded(setup, cond), nvars), cond
        emitted += len(rows)
    return emitted


@pytest.mark.parametrize("name", ROW_STREAM_ALGEBRAS)
def test_level_bounded_walk_emits_the_unbounded_rows(name):
    # every condition any candidate's antichain asks for: the rows of its
    # span bases, bounded by the level, span the same space as the rows of
    # every path of degrees >= wp, whatever its degree sum
    g = catalog.get(name).algebra
    c = max(lower_central_series(g).nilpotency_class, 2)
    conditions = dict.fromkeys(cond for r in candidate_values(c) for cond in antichain(c, r))
    assert assert_same_row_space(g, conditions) > 0 or c < 3


@settings(max_examples=30, deadline=None)
@given(matrix_lie_algebras(min_class=3), st.data())
def test_level_bounded_walk_on_random_algebras_and_conditions(g, data):
    universe = sorted(enumerate_S(lower_central_series(g).nilpotency_class))
    assert_same_row_space(g, data.draw(st.lists(st.sampled_from(universe), min_size=1, max_size=5)))


def drain_ratio_rows_twice(setup) -> None:
    # the whole row stream twice, as an e = 0 scan and the e_of_operator of
    # its witness read it: the second pass reads the spans the first one
    # finished growing; the entry points answer filiform(12) from its
    # grading, so the stream is pulled here
    for _ in range(2):
        for _ in derivability._ratio_rows(setup):
            pass


@pytest.mark.parametrize("name", ["filiform(12)", "central_product(6,10)"])
def test_each_state_brackets_its_suffix_once_per_index(name):
    # two passes of the row stream never bracket the same vector with the
    # same index twice: each state brackets its suffix once per index, on
    # its first child, and each replacement vector once per child; each
    # bracketed vector is kept, so its id is not reused by a later one
    g = catalog.get(name).algebra
    setup = _setup(g)
    ad = setup.ad
    seen: dict[tuple[int, int], dict] = {}

    def once(i, v):
        assert (i, id(v)) not in seen, (i, v)
        seen[(i, id(v))] = v
        return ad(i, v)

    setup.ad = once
    drain_ratio_rows_twice(setup)
    assert seen


@pytest.mark.parametrize("name, bound", [("central_product(6,10)", 400), ("filiform(12)", 235)])
def test_states_bracket_only_indices_meeting_them(name, bound):
    # two passes of the row stream bracket each vector only with indices
    # whose signed row meets its support, and nothing else: 378 and 222
    # calls, all in the first pass (360 and 210 when the path trie, kept on
    # the setup, bracketed each node's suffix)
    g = catalog.get(name).algebra
    setup = _setup(g)
    ad, rows = setup.ad, setup.rows
    meets = []

    def counted(i, v):
        meets.append(not rows[i].keys().isdisjoint(v))
        return ad(i, v)

    setup.ad = counted
    drain_ratio_rows_twice(setup)
    assert 0 < len(meets) <= bound and all(meets), len(meets)


@contextmanager
def counting_spans() -> Iterator[list[tuple]]:
    """Record the key (mins, total) of each span `_Setup.span` builds while
    the block runs."""
    span = _Setup.span
    built: list[tuple] = []

    def recording(self, spans, mins, total):
        if (mins, total) not in spans:
            built.append((mins, total))
        return span(self, spans, mins, total)

    _Setup.span = recording
    try:
        yield built
    finally:
        _Setup.span = span


def keeping_states(monkeypatch) -> list:
    """A list that gets each state `_Setup.grow` keeps while the test runs."""
    grow = _Setup.grow
    kept: list = []

    def recording(self, pairs, inner):
        for state in grow(self, pairs, inner):
            kept.append(state)
            yield state

    monkeypatch.setattr(_Setup, "grow", recording)
    return kept


def test_cold_e_of_operator_extends_few_nodes(monkeypatch):
    # the row stream that e_of_operator reads builds, on a fresh instance of
    # filiform(12), the span bases of degree sums 2..10 only, and keeps 45
    # states with 222 `ad` calls (the path trie extended 185 nodes);
    # e_of_operator itself answers filiform(12) from its grading, so the
    # stream is pulled here
    setup = _setup(catalog.get("filiform(12)").algebra)
    kept = keeping_states(monkeypatch)
    ad = setup.ad
    calls = []
    setup.ad = lambda i, v: calls.append(i) or ad(i, v)
    with counting_spans() as built:
        for _ in derivability._ratio_rows(setup):
            pass
    assert sorted(total for _, total in built) == list(range(2, 11))
    assert 0 < len(kept) <= 50 and 0 < len(calls) <= 240, (len(kept), len(calls))


SPARSE_1000 = "dim 1000\nbracket e1 e2 = e3\nbracket e1 e3 = e1000\nbracket e4 e5 = 1/2 e999\n"


@pytest.mark.parametrize("name", ["filiform(12)", "filiform(150)", "heisenberg", "abelian(5)", "sparse dim-1000"])
def test_graded_inputs_are_answered_from_their_grading(name):
    # when the adapted degrees grade g, D0 is every witness and e = 0: the
    # e-scan, e_of_operator of its witness and a decision build no span
    # (the path trie walked 185, 545,676 and 496,506 nodes on filiform(12),
    # filiform(150) and the sparse file when every input took the scan)
    g = parse_algebra(SPARSE_1000) if name == "sparse dim-1000" else catalog.get(name).algebra
    with counting_spans() as built:
        setup = _setup(g)
        d0 = setup.operator([])
        assert setup.graded
        assert e_invariant(g) == derivability.EInvariantResult(F(0), d0)
        assert e_of_operator(g, d0) == 0
        assert is_A_derivable(g, parse_condition_set("(1,1|3),(1,2|4),(1,1,1|4)")) == d0
    assert built == []


@pytest.mark.parametrize("name", ["g6_11", "upper-sheared g6_11", "sparse dim-1000"])
def test_the_solver_reads_only_the_integer_form(name, monkeypatch):
    # with the dense view patched to raise, every derivability entry point,
    # and on the small inputs the grading and the Carnot pair, answers as it
    # did from `den`, `int_rows` and `shape` alone: at the witness, and on
    # the small inputs at a second point of the grading operator space
    if name == "sparse dim-1000":
        g = parse_algebra(SPARSE_1000)
    else:
        g = catalog.get("g6_11").algebra
        if name.startswith("upper"):
            g = moved_by(g, rescaled_and_sheared(g.dim)[2])
    f = lower_central_series(g)
    small = g.dim < 1000
    conditions = parse_condition_set("(1,1|3),(1,2|4),(1,1,1|4)")
    operators = [e_invariant(g).witness]
    if small:
        base, dirs = grading_operator_space(g, f, adapted_basis(g, f))
        operators.append(GradingOperator.from_rows(mat_add(base.rows, dirs[0])))

    def answers() -> list:
        out: list = [e_invariant(g), is_A_derivable(g, conditions)]
        for d in operators:
            out += [is_grading_operator(g, f, d), e_of_operator(g, d)]
            if small:
                out += [grading_from_operator(g, d), carnot_pair(g, d)]
        return out

    expected = answers()

    def dense_view(self):
        raise AssertionError("the dense view of a grading operator was read")

    monkeypatch.setattr(GradingOperator, "matrix", property(dense_view))
    monkeypatch.setattr(GradingOperator, "rows", property(dense_view))
    assert answers() == expected


def assert_answers_match_the_walk(g, data) -> None:
    # e and its witness, e_of_operator at D0 and at two random points of the
    # grading operator space, and is_A_derivable on random conditions, against
    # the candidate scans and the walked `_feasibility`
    setup, walk = _setup(g), _setup(walked(g))
    assert e_invariant(g) == e_invariant_by_candidates(g)
    entries = st.lists(st.one_of(st.just(F(0)), coords), min_size=len(setup.positions), max_size=len(setup.positions))
    for d in [setup.operator([])] + [setup.operator(data.draw(entries)) for _ in range(2)]:
        assert e_of_operator(g, d) == e_of_operator_by_candidates(g, d)
    universe = sorted(enumerate_S(setup.c))
    for _ in range(2):
        chosen = data.draw(st.lists(st.sampled_from(universe), min_size=1, max_size=4))
        walked_witness = derivability._feasibility(walk, derivability._clamp_conditions(chosen, walk.c))
        assert is_A_derivable(g, chosen) == walked_witness


def carnot_companions():
    """The Carnot companions of random matrix Lie algebras of class >= 3 at
    their e-witness, written in their layers: graded by construction."""
    return matrix_lie_algebras(min_class=3).map(lambda g: carnot_algebra(g, e_invariant(g).witness).algebra)


@settings(max_examples=30, deadline=None)
@given(carnot_companions(), st.data())
def test_graded_companions_are_answered_from_their_grading_as_the_walk_answers(a, data):
    with counting_spans() as built:
        assert _setup(a).graded
        result = e_invariant(a)
        assert result.e == e_of_operator(a, result.witness) == 0
    assert built == []
    assert_answers_match_the_walk(a, data)


@settings(max_examples=30, deadline=None)
@given(carnot_companions(), st.data())
def test_moved_companions_are_not_graded_and_still_walk(a, data):
    # the control: in a random basis the companion is still Carnot, so e = 0,
    # but its adapted degrees no longer grade it, and the scan builds spans
    moved = moved_by(a, data.draw(invertible_matrices(a.dim)))
    assume(not _setup(moved).graded)
    with counting_spans() as built:
        assert e_invariant(moved).e == 0
    assert built
    assert_answers_match_the_walk(moved, data)


def count_pulled_rows(monkeypatch) -> dict[DerivCondition, list]:
    """Wrap `_condition_rows` in a pass-through that records, per condition,
    the rows its consumer has pulled so far."""
    rows = derivability._condition_rows
    pulled: dict[DerivCondition, list] = {}

    def counting(setup, cond, spans):
        for row in rows(setup, cond, spans):
            pulled.setdefault(cond, []).append(row)
            yield row

    monkeypatch.setattr(derivability, "_condition_rows", counting)
    return pulled


@pytest.mark.parametrize("text", ["(1,1|3),(1,2|4)", "(1,1,1|4)"])
def test_solver_stops_pulling_rows_at_the_first_infeasible_one(monkeypatch, text):
    # the row stream is lazy: the solver pulls and adds rows up to the one
    # that makes its system infeasible and no further, so fewer rows reach
    # it than the conditions emit (20 of 24 on counterexample11, and 2 of 3
    # on g7_0_8; on counterexample11 the span rows of (1,1,1|4) are 10, and
    # the tenth is the one that makes it infeasible)
    g = catalog.get("counterexample11" if text == "(1,1|3),(1,2|4)" else "g7_0_8").algebra
    conditions = parse_condition_set(text)
    setup = _setup(g)
    spans: dict = {}
    emitted = sum(len(list(_condition_rows(setup, cond, spans))) for cond in conditions)
    add = AffineSystem.add
    after_add = []

    def counted(self, coeffs, rhs):
        add(self, coeffs, rhs)
        after_add.append(self.infeasible)

    monkeypatch.setattr(AffineSystem, "add", counted)
    pulled = count_pulled_rows(monkeypatch)
    assert is_A_derivable(g, conditions) is None
    assert after_add[-1] and not any(after_add[:-1])
    assert sum(len(got) for got in pulled.values()) == len(after_add) < emitted


@pytest.mark.parametrize("name", ["counterexample11", "g6_20", "central_product(4,7)"])
def test_e_of_operator_stops_pulling_rows_at_the_first_violated_one(monkeypatch, name):
    # the witness meets every row of ratio above e and fails one of ratio
    # e; the ratio-ordered stream is pulled up to the first row violated at
    # x_D and no further
    g = catalog.get(name).algebra
    witness = e_invariant(g).witness
    setup = _setup(g)
    p = columns_matrix(setup.ab.vectors)
    d_ad = naive_mat_mul(naive_mat_mul(rref_mat_inv(p), witness.rows), p)
    x = [d_ad[a][b] for a, b in setup.positions]
    everything = list(derivability._ratio_rows(setup))
    stream = derivability._ratio_rows
    pulled = []

    def counting(setup):
        for row in stream(setup):
            pulled.append(row)
            yield row

    monkeypatch.setattr(derivability, "_ratio_rows", counting)
    e = e_of_operator(g, witness)
    assert e > 0
    holds = [sum(c * x[var] for var, c in coeffs.items()) == rhs for _, coeffs, rhs in pulled]
    assert all(holds[:-1]) and not holds[-1]
    assert pulled == everything[: len(pulled)] and pulled[-1][0] == e
    assert len(pulled) < len(everything)


# --- the span walk against the per-path walk, and at scale


def assert_answers_match_the_path_walks(g, data) -> None:
    # each ratio group of the row stream spans the same space as the rows of
    # that ratio over every index path; then e and its witness, e_of_operator
    # at the witness, at D0 and at a random point of the grading operator
    # space, and is_A_derivable on random condition sets, against the
    # oracles that walk every path
    setup = _setup(g)
    nvars = len(setup.positions)
    spans, paths = {}, {}
    for table, stream in ((spans, derivability._ratio_rows(setup)), (paths, ratio_rows_by_paths(setup))):
        for ratio, coeffs, rhs in stream:
            table.setdefault(ratio, []).append((coeffs, rhs))
    assert {r: row_space(rows, nvars) for r, rows in spans.items()} == {r: row_space(rows, nvars) for r, rows in paths.items()}
    result = e_invariant(g)
    assert result == e_invariant_by_paths(g)
    entries = st.lists(st.one_of(st.just(F(0)), coords), min_size=len(setup.positions), max_size=len(setup.positions))
    for d in (result.witness, setup.operator([]), setup.operator(data.draw(entries))):
        assert e_of_operator(g, d) == e_of_operator_by_paths(g, d)
    universe = sorted(enumerate_S(setup.c)) if setup.c >= 3 else []
    for _ in range(2 if universe else 0):
        chosen = frozenset(data.draw(st.lists(st.sampled_from(universe), min_size=1, max_size=4)))
        assert is_A_derivable(g, chosen) == is_A_derivable_by_paths(g, chosen), sorted(chosen)


@pytest.mark.parametrize("name", FIXTURES + ["filiform(7)", "central_product(3,5)"])
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_span_walk_answers_as_the_per_path_walk(name, data):
    # each catalog algebra as given and moved to a random rational basis,
    # where the structure constants are dense and the paths many; a walk
    # that missed the children made only by a free position's term differs
    # from the paths first on central_product(3,5) as given
    g = catalog.get(name).algebra
    for alg in (g, moved_by(g, data.draw(invertible_matrices(g.dim)))):
        assert_answers_match_the_path_walks(alg, data)


@settings(max_examples=30, deadline=None)
@given(matrix_lie_algebras(), st.data())
def test_span_walk_answers_as_the_per_path_walk_on_random_algebras(g, data):
    for alg in (g, moved_by(g, data.draw(invertible_matrices(g.dim)))):
        assert_answers_match_the_path_walks(alg, data)


def test_growth_stops_where_the_consumer_stops(monkeypatch):
    # the spans grow only as far as the stream is pulled: on 16 copies of
    # g7_0_8 + g6_11 (dim 208) the e-scan stops at its first infeasible
    # group, 4/5, the first one, having kept 5,468 states, where a drained
    # stream keeps 13,624
    blocks = [catalog.get("g7_0_8").algebra, catalog.get("g6_11").algebra] * 16
    kept = keeping_states(monkeypatch)
    assert e_invariant(direct_sum(blocks)).e == F(4, 5)
    scan = len(kept)
    for _ in derivability._ratio_rows(_setup(direct_sum(blocks))):
        pass
    assert 0 < scan < len(kept) - scan, (scan, len(kept) - scan)


def sheared(name: str):
    """The algebra `name` in the basis v_i = sum over j <= i of
    (j+1)/(2 + j%2)/(i-j+1) e_j, the transpose of `tools/output_digest.py`'s
    `shear`: the same algebra, with the same e, with dense structure
    constants in its adapted basis."""
    g = catalog.get(name).algebra
    n = g.dim
    return change_of_basis(g, [[F(j + 1, 2 + j % 2) / (i - j + 1) if j <= i else F(0) for j in range(n)] for i in range(n)])


def test_e_scan_scales_with_the_algebra_not_its_basis():
    # the span bases hold at most 26 states per degree sum on sheared
    # central_product(8,13), where the path trie walked 545,717 paths: on a
    # 2-vCPU x86 host the cold scan and the e_of_operator of its witness,
    # which reads the bases the scan finished, take ~0.62 + 0.03 s (~1.0 +
    # 0.04 s when the setup scaled P to a common pivot, 48 + 12 s at 1.5 GiB
    # for the trie)
    g = sheared("central_product(8,13)")
    start = time.perf_counter()
    result = e_invariant(g)
    e = e_of_operator(g, result.witness)
    elapsed = time.perf_counter() - start
    assert result.e == e == F(8, 13)
    assert elapsed < 5, elapsed


def test_setup_inverts_the_stored_rows_not_a_common_pivot_frame():
    # P's columns are the adapted basis's integer rows as stored: scaling
    # each to the lcm of their pivot values, a common pivot, changes no
    # output, but on sheared central_product(8,13) it gives P^-1 a
    # denominator of 1,587 bits where the stored rows give one of 878
    g = sheared("central_product(8,13)")
    setup = _setup(g)
    rows = setup.ab.int_rows
    pivots = [row[min(row)] for row in rows]
    dp = math.lcm(*pivots)
    common_den, _ = linalg.integer_inverse([{i: x * (dp // s) for i, x in row.items()} for row, s in zip(rows, pivots)])
    assert setup.q_den.bit_length() < common_den.bit_length(), (setup.q_den.bit_length(), common_den.bit_length())


def test_condition_walk_scales_with_the_algebra_not_its_basis():
    # the conditions of one call share their span bases: on a 2-vCPU x86
    # host all of r_condition_set(15, 1/2) on sheared filiform(16), which is
    # feasible, so every condition is read, takes ~0.45 s (5.8 s when each
    # condition walked its paths in the trie)
    g = sheared("filiform(16)")
    start = time.perf_counter()
    witness = is_A_derivable(g, r_condition_set(15, F(1, 2)))
    elapsed = time.perf_counter() - start
    assert witness is not None and is_grading_operator(g, lower_central_series(g), witness)
    assert elapsed < 3, elapsed


def test_feasibility_reads_the_cheapest_conditions_first(monkeypatch):
    # `_feasibility` takes the conditions by their estimated cost, shortest
    # tuple and fewest adapted tuples first: on sheared central_product(8,13)
    # the 2,724 conditions of r_condition_set(13, 3/5) are infeasible, and it
    # finds that after 11 span states (99 in plain sorted order, ~0.02 s
    # against ~0.6 s past the setup on a 2-vCPU x86 host)
    g = sheared("central_product(8,13)")
    conditions = r_condition_set(13, F(3, 5))
    assert len(conditions) == 2724
    kept = keeping_states(monkeypatch)
    assert is_A_derivable(g, conditions) is None
    assert 0 < len(kept) <= 30, len(kept)


# --- the ratio-ordered scan against the candidate-by-candidate scan

SCAN_ALGEBRAS = (
    [e.name for e in catalog.entries()]
    + [f"filiform({n})" for n in range(3, 14)]
    + [f"central_product({i},{j})" for i, j in ((2, 3), (3, 5), (4, 7), (5, 8), (6, 10), (7, 11), (8, 13))]
)


def assert_scan_matches_candidate_scan(g, data) -> None:
    # e and its witness bit for bit, then e_of_operator at the witness, at
    # the base point of grading_operator_space and at two random points of
    # it, drawn as rational free entries, zero or not, in adapted coordinates
    result = e_invariant(g)
    assert result == e_invariant_by_candidates(g)
    f = lower_central_series(g)
    base, _ = grading_operator_space(g, f, adapted_basis(g, f))
    setup = _setup(g)
    entries = st.lists(st.one_of(st.just(F(0)), coords), min_size=len(setup.positions), max_size=len(setup.positions))
    operators = [result.witness, base] + [setup.operator(data.draw(entries)) for _ in range(2)]
    for d in operators:
        assert e_of_operator(g, d) == e_of_operator_by_candidates(g, d)


@pytest.mark.parametrize("name", SCAN_ALGEBRAS)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_ratio_ordered_scan_matches_the_candidate_scan(name, data):
    assert_scan_matches_candidate_scan(catalog.get(name).algebra, data)


@settings(max_examples=40, deadline=None)
@given(matrix_lie_algebras(min_class=2), st.data())
def test_ratio_ordered_scan_matches_the_candidate_scan_on_random_algebras(g, data):
    assert_scan_matches_candidate_scan(g, data)


def test_e_scan_scales_with_the_class():
    # one trie walk per degree sum feeds every candidate: on a 2-vCPU x86
    # host the cold scan of central_product(14,22) and the e_of_operator of
    # its witness on a fresh instance take ~0.1 + 0.08 s (4.7 s for the scan
    # alone when each candidate walked its own antichain)
    start = time.perf_counter()
    result = e_invariant(catalog.get("central_product(14,22)").algebra)
    e = e_of_operator(catalog.get("central_product(14,22)").algebra, result.witness)
    elapsed = time.perf_counter() - start
    assert result.e == e == F(7, 11)
    assert elapsed < 0.5, elapsed


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(GRADED_ENTRIES), matrix_lie_algebras(min_class=3), st.data())
def test_feasibility_invariant_under_change_of_basis(name, extra, data):
    # derivability is a property of the algebra, not of its basis: each
    # condition set is feasible in g exactly when it is feasible in g
    # written in a random rational basis, and every witness is a grading
    # operator of the algebra it was computed for that meets every
    # condition on the dense delta_n path; g is a catalog entry and then a
    # random matrix Lie algebra
    for g in (catalog.get(name).algebra, extra):
        moved = moved_by(g, data.draw(invertible_matrices(g.dim)))
        universe = sorted(enumerate_S(lower_central_series(g).nilpotency_class))
        feasible_alone = [d for d in universe if is_A_derivable(g, {d}) is not None]
        pool = data.draw(st.sampled_from([universe, feasible_alone or universe]))
        chosen = frozenset(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)))
        witnesses = [(alg, is_A_derivable(alg, chosen)) for alg in (g, moved)]
        assert (witnesses[0][1] is None) == (witnesses[1][1] is None), sorted(chosen)
        for alg, witness in witnesses:
            if witness is not None:
                assert is_grading_operator(alg, lower_central_series(alg), witness)
                for cond in chosen:
                    depth = delta_depth(alg, witness, cond.wp)
                    assert depth is None or depth > cond.level, cond


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(GRADED_ENTRIES), matrix_lie_algebras(min_class=3), st.data())
def test_e_invariant_unchanged_under_change_of_basis(name, extra, data):
    # e is a property of the algebra: in a random rational basis the scan
    # finds the same e, and the witness found in either basis has
    # e_of_operator exactly e there
    for g in (catalog.get(name).algebra, extra):
        e = e_invariant(g).e
        for alg in (g, moved_by(g, data.draw(invertible_matrices(g.dim)))):
            result = e_invariant(alg)
            assert result.e == e
            assert e_of_operator(alg, result.witness) == e
