"""Derivability conditions, the affine solver and the e-invariant."""

from __future__ import annotations

import gc
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    algebra_in_basis_dense,
    antichain_by_pruning,
    condition_rows_unbounded,
    delta_depth,
    e_of_operator_dense,
    e_of_operator_tuples,
    is_grading_operator_echelon,
    rref_mat_inv,
)
from test_lie import SMALL_ENTRIES, invertible_matrices, matrix_lie_algebras

from nilgrade import catalog, derivability
from nilgrade.carnot import carnot_pair
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
    is_A_derivable,
    is_grading_operator,
    parse_condition_set,
    r_condition_set,
    _antichain,
    _condition_rows,
    _setup,
    _Setup,
)
from nilgrade.lie import (
    adapted_basis,
    algebra_in_basis,
    change_of_basis,
    iterated_bracket,
    lower_central_series,
    parse_algebra,
    serialize_algebra,
)
from nilgrade.linalg import AffineSystem, mat_add, mat_inv, mat_mul, mat_vec, unit_vec

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
        m_moved = mat_mul(mat_mul(mat_inv(p), m), p)
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
            from nilgrade.linalg import subspace_contains

            assert subspace_contains(f5_basis, value)


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

    from nilgrade.linalg import subspace_contains

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
                assert subspace_contains(target, value)


# --- dominated conditions and the sparse solver against dense oracles


def dominates(strong: DerivCondition, weak: DerivCondition) -> bool:
    return (
        len(strong.wp) == len(weak.wp)
        and all(a <= b for a, b in zip(strong.wp, weak.wp))
        and weak.level <= strong.level
    )


def test_clamp_keeps_only_all_ones_at_r_zero():
    for c in range(3, 12):
        kept = _antichain(c, F(0))
        assert sorted(kept) == [DerivCondition((1,) * n, c) for n in range(2, c)]


def test_clamp_keeps_exactly_the_antichain():
    c = 8
    for r in candidate_values(c):
        conditions = r_condition_set(c, r)
        kept = _antichain(c, r)
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
            assert _antichain(c, r) == antichain_by_pruning(c, r), (c, r)


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
    # one algebra instance, and with it one cached setup and path trie,
    # answers a random sequence of public calls exactly as a freshly parsed
    # instance answers each call: nothing a call leaves in the trie, whether
    # the solver or an operator's point check filled it, changes the next
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
    # the setup cached on an algebra holds no reference back to it, so an
    # algebra parsed for one request is freed, setup and trie with it, as
    # soon as it is dropped, without waiting for the cycle collector
    g = catalog.get("g6_11").algebra
    e_invariant(g)
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_setup_builds_the_adapted_algebra_once(monkeypatch):
    # a fresh instance builds its algebra in the adapted basis once, with
    # the rest of its setup, and every later call on it reuses that one
    built = []
    monkeypatch.setattr("nilgrade.lie.algebra_in_basis", lambda *args: built.append(args) or algebra_in_basis(*args))
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
    # the adapted algebra is built from the p and p^-1 the setup holds, so
    # a fresh class >= 3 instance inverts its change of basis once
    inverted = []
    counting = lambda m: inverted.append(m) or mat_inv(m)  # noqa: E731
    monkeypatch.setattr("nilgrade.lie.mat_inv", counting)
    monkeypatch.setattr("nilgrade.derivability.mat_inv", counting)
    g = catalog.get("g6_11").algebra
    assert lower_central_series(g).nilpotency_class >= 3
    e_invariant(g)
    assert len(inverted) == 1


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
            assert moved.witness.rows == mat_mul(mat_mul(mat_inv(p), result.witness.rows), p)


@pytest.mark.parametrize("name", FIXTURES)
def test_sparse_basis_change_matches_dense_oracle_on_sheared_fixtures(name):
    # both shears, and the adapted basis that the setup of the algebra moved
    # by the upper one changes to: no permutation, so the sparse columns of
    # p and p^-1 carry several entries each
    g = catalog.get(name).algebra
    _, lower, upper = rescaled_and_sheared(g.dim)
    for p in (lower, upper):
        assert algebra_in_basis(g, p, mat_inv(p)) == algebra_in_basis_dense(g, p, rref_mat_inv(p))
    moved = algebra_in_basis(g, upper, mat_inv(upper))
    p = adapted_basis(moved, lower_central_series(moved)).change_of_basis
    assert any(sum(1 for x in col if x) > 1 for col in zip(*p))
    assert algebra_in_basis(moved, p, mat_inv(p)) == algebra_in_basis_dense(moved, p, rref_mat_inv(p))


# --- the path trie: level-bounded walk, one bracket per node and index

ROW_STREAM_ALGEBRAS = FIXTURES + [f"filiform({n})" for n in range(6, 13)] + ["central_product(4,7)"]


def assert_same_row_stream(g, conditions) -> int:
    setup = _setup(g)
    emitted = 0
    for cond in conditions:
        rows = list(_condition_rows(setup, cond))
        assert rows == condition_rows_unbounded(setup, cond), cond
        emitted += len(rows)
    return emitted


@pytest.mark.parametrize("name", ROW_STREAM_ALGEBRAS)
def test_level_bounded_walk_emits_the_unbounded_rows(name):
    # every condition any candidate's antichain asks for, row for row and
    # in the same order as the walk over every path of degrees >= wp
    g = catalog.get(name).algebra
    c = max(lower_central_series(g).nilpotency_class, 2)
    conditions = dict.fromkeys(cond for r in candidate_values(c) for cond in _antichain(c, r))
    assert assert_same_row_stream(g, conditions) > 0 or c < 3


@settings(max_examples=30, deadline=None)
@given(matrix_lie_algebras(min_class=3), st.data())
def test_level_bounded_walk_on_random_algebras_and_conditions(g, data):
    universe = sorted(enumerate_S(lower_central_series(g).nilpotency_class))
    assert_same_row_stream(g, data.draw(st.lists(st.sampled_from(universe), min_size=1, max_size=5)))


@pytest.mark.parametrize("name", ["filiform(12)", "central_product(6,10)"])
def test_trie_brackets_each_vector_once_per_index(name):
    # a cold e-scan and the witness's e_of_operator never bracket the same
    # vector with the same index twice; each bracketed vector is kept, so
    # its id is not reused by a later one
    g = catalog.get(name).algebra
    setup = _setup(g)
    ad = setup.ad
    seen: dict[tuple[int, int], dict] = {}

    def once(i, v):
        assert (i, id(v)) not in seen, (i, v)
        seen[(i, id(v))] = v
        return ad(i, v)

    setup.ad = once
    e_of_operator(g, e_invariant(g).witness)
    assert seen


def test_cold_e_of_operator_extends_few_nodes(monkeypatch):
    # a fresh instance checks filiform(12)'s witness on the trie paths its
    # conditions' levels admit only: 185 nodes, against 243 if paths of
    # degree sum equal to the level were walked and 690 with no bound
    witness = e_invariant(catalog.get("filiform(12)").algebra).witness
    g = catalog.get("filiform(12)").algebra
    extend = _Setup.extend
    extended = []
    monkeypatch.setattr(_Setup, "extend", lambda self, node, b: extended.append(b) or extend(self, node, b))
    e_of_operator(g, witness)
    assert 0 < len(extended) <= 200


def count_pulled_rows(monkeypatch) -> dict[DerivCondition, list]:
    """Wrap `_condition_rows` in a pass-through that records, per condition,
    the rows its consumer has pulled so far."""
    rows = derivability._condition_rows
    pulled: dict[DerivCondition, list] = {}

    def counting(setup, cond):
        for row in rows(setup, cond):
            pulled.setdefault(cond, []).append(row)
            yield row

    monkeypatch.setattr(derivability, "_condition_rows", counting)
    return pulled


@pytest.mark.parametrize("text", ["(1,1|3),(1,2|4)", "(1,1,1|4)"])
def test_solver_stops_pulling_rows_at_the_first_infeasible_one(monkeypatch, text):
    # the row stream is lazy: the solver pulls and adds rows up to the one
    # that makes its system infeasible and no further, so fewer rows reach
    # it than the conditions emit (20 of 24 and 10 of 12 on counterexample11)
    g = catalog.get("counterexample11").algebra
    conditions = parse_condition_set(text)
    setup = _setup(g)
    emitted = sum(len(list(_condition_rows(setup, cond))) for cond in conditions)
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
    # the witness fails every condition of ratio below e; each condition's
    # rows are pulled up to its first row violated at x_D and no further
    g = catalog.get(name).algebra
    witness = e_invariant(g).witness
    setup = _setup(g)
    d_ad = mat_mul(mat_mul(setup.p_inv, witness.rows), setup.p)
    x = [d_ad[a][b] for a, b in setup.positions]
    pulled = count_pulled_rows(monkeypatch)
    assert e_of_operator(g, witness) > 0
    cut_short = 0
    for cond, got in pulled.items():
        holds = [sum(c * x[var] for var, c in coeffs.items()) == rhs for coeffs, rhs in got]
        assert all(holds[:-1]), cond
        everything = list(_condition_rows(setup, cond))
        assert got == everything[: len(got)]
        if len(got) < len(everything):
            assert not holds[-1], cond
            cut_short += 1
    assert cut_short > 0


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
