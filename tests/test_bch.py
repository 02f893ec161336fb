"""BCH coefficient table and the two group laws."""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assoc_log_exp_exp,
    assoc_nested_bracket,
    dense_bracket,
    filiform5_coords,
    filiform5_matrix,
    heisenberg_coords,
    heisenberg_matrix,
    mat_exp_nilpotent,
    mat_log_unitriangular,
    matrix_group_product,
    naive_mat_mul,
    rref,
    rref_mat_inv,
)
from test_derivability import GRADED_ENTRIES, grading_operator_samples
from test_lie import matrix_lie_algebras, matrix_lie_algebras_with_matrices

from nilgrade import bch, catalog, lie
from nilgrade.bch import (
    _weighted_parts,
    bch_product,
    bch_table,
    carnot_product,
    group_inverse,
    law_difference,
    law_difference_ladder,
)
from nilgrade.carnot import carnot_pair
from nilgrade.derivability import GradingOperator, e_invariant
from nilgrade.goodman import GuivarchContext, dilate
from nilgrade.lie import bracket, lower_central_series
from nilgrade.linalg import unit_vec, vec, zero_vec

L, R = 0, 1


def rand_vec(rng, dim, denom=4, span=8):
    return [F(rng.randint(-span, span), denom) for _ in range(dim)]


# --- table


def test_table_classical_low_degree_slots():
    t = bch_table(4)
    assert t.coeffs[(L, R)] == F(1, 2)
    assert t.coeffs[(L, L, R)] == F(1, 12)
    assert t.coeffs[(R, R, L)] == F(1, 12)
    assert t.coeffs[(R, L, L, R)] == F(-1, 24)
    # every other word of degree <= 4 carries coefficient zero
    others = {w: c for w, c in t.coeffs.items() if c != 0}
    assert set(others) == {(L, R), (L, L, R), (R, R, L), (R, L, L, R)}


def test_table_contains_all_words_once():
    t = bch_table(5)
    for n in range(2, 6):
        assert sum(1 for w in t.coeffs if len(w) == n) == 2**n


def test_table_range_check():
    with pytest.raises(ValueError):
        bch_table(1)
    with pytest.raises(ValueError):
        bch_table(9)


def test_table_truncation_consistency():
    t5 = bch_table(5)
    t4 = bch_table(4)
    restricted = {w: c for w, c in t5.coeffs.items() if len(w) <= 4}
    assert restricted == t4.coeffs


def test_table_reproduces_log_series():
    # independent oracle: the nested brackets, re-expanded associatively
    # and weighted by the table, must reproduce log(exp x exp y) exactly
    for c in range(2, bch.MAX_SUPPORTED_CLASS + 1):
        t = bch_table(c)
        log = assoc_log_exp_exp(c)
        recombined: dict = {}
        for word, coeff in t.coeffs.items():
            if coeff == 0:
                continue
            for w, cc in assoc_nested_bracket(word).items():
                v = recombined.get(w, F(0)) + coeff * cc
                if v:
                    recombined[w] = v
                else:
                    recombined.pop(w, None)
        expected = {w: c_ for w, c_ in log.items() if len(w) >= 2}
        assert recombined == expected


def test_integer_series_match_the_fraction_oracles():
    # the divided-power log series and the integer bracket expansions,
    # against their Fraction re-implementations, at every degree up to the cap
    cap = bch.MAX_SUPPORTED_CLASS
    log = assoc_log_exp_exp(cap)
    components = bch._log_components()
    assert len(components) == cap + 1
    for n, component in enumerate(components):
        assert component == {w: c for w, c in log.items() if len(w) == n}
    for n in range(2, cap + 1):
        for word in bch._word_order(n):
            expansion = bch._beta_assoc(word, {})
            assert all(type(c) is int for c in expansion.values())
            assert expansion == assoc_nested_bracket(word)


@contextmanager
def counting_fractions():
    """A list that gets one entry per Fraction made while the block runs:
    through the constructor, and through `_from_coprime_ints`, which the
    arithmetic of Python 3.12 and later calls in its place."""
    made: list[int] = []
    saved = {name: F.__dict__[name] for name in ("__new__", "_from_coprime_ints") if name in F.__dict__}

    def counted(f):
        def wrapper(cls, *args, **kwargs):
            made.append(1)
            return f(cls, *args, **kwargs)

        return wrapper

    # each is a staticmethod or classmethod object in the class dict; wrap its function in the same kind
    for name, method in saved.items():
        setattr(F, name, type(method)(counted(method.__func__)))
    try:
        yield made
    finally:
        for name, method in saved.items():
            setattr(F, name, method)


def test_cold_table_is_built_on_integers():
    # the log series and the bracket expansions run on integers, so a cold
    # bch_table(8) makes one Fraction per nonzero word of the log series and
    # per nonzero coefficient: 322 + 50 (41,927 when the series ran on
    # Fractions); the caches are refilled afterwards for the other tests
    before = bch_table(8)
    for cache in (bch.bch_table, bch._degree_coeffs, bch._log_components):
        cache.cache_clear()
    try:
        with counting_fractions() as made:
            table = bch_table(8)
    finally:
        for c in range(2, bch.MAX_SUPPORTED_CLASS + 1):
            bch_table(c)
    assert table is not before and table.coeffs == before.coeffs
    assert len(made) <= 1000


def test_each_suffix_is_expanded_once_per_degree(monkeypatch):
    # a cold bch_table(c) for c = 2..8 expands each suffix once per degree:
    # 2^(n+1) - 2 expansions at degree n, 1,002 in all (3,584 when every
    # word re-expanded its suffixes); the caches are refilled afterwards
    before = {c: bch_table(c) for c in range(2, bch.MAX_SUPPORTED_CLASS + 1)}
    calls: list[tuple[int, ...]] = []
    expand = bch._beta_assoc

    def counted(word, *args):
        calls.append(word)
        return expand(word, *args)

    for cache in (bch.bch_table, bch._degree_coeffs):
        cache.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(bch, "_beta_assoc", counted)
        try:
            tables = {c: bch_table(c) for c in before}
        finally:
            for c in before:
                bch_table(c)
    assert all(tables[c] is not before[c] and tables[c].coeffs == before[c].coeffs for c in before)
    assert len(calls) <= 1100


def test_table_degree_five_reference_values():
    # right-nested degree-5 presentation used across the literature
    t = bch_table(5)
    assert t.coeffs[(R, R, R, R, L)] == F(-1, 720)
    assert t.coeffs[(L, L, L, L, R)] == F(-1, 720)
    assert t.coeffs[(L, R, R, R, L)] == F(1, 360)
    assert t.coeffs[(R, L, L, L, R)] == F(1, 360)
    assert t.coeffs[(R, L, R, L, R)] == F(1, 120)
    assert t.coeffs[(L, R, L, R, L)] == F(1, 120)


# --- products


def test_abelian_product_is_addition():
    g = catalog.get("abelian(4)").algebra
    f = lower_central_series(g)
    rng = random.Random(0)
    x, y = rand_vec(rng, 4), rand_vec(rng, 4)
    assert bch_product(g, f, x, y) == [a + b for a, b in zip(x, y)]


def test_heisenberg_product_example():
    g = catalog.get("heisenberg").algebra
    f = lower_central_series(g)
    assert bch_product(g, f, unit_vec(3, 0), unit_vec(3, 1)) == vec([1, 1, F(1, 2)])


def test_product_rejects_a_filtration_of_another_algebra():
    # the class, and with it the truncation, comes from f: heisenberg's
    # series would cut filiform(5)'s product at degree 2 and lose 1/12
    g = catalog.get("filiform(5)").algebra
    e1, e2 = unit_vec(5, 0), unit_vec(5, 1)
    with pytest.raises(ValueError, match="^f must be the lower central series of g$"):
        bch_product(g, lower_central_series(catalog.get("heisenberg").algebra), e1, e2)
    expected = vec([1, 1, F(1, 2), F(1, 12), 0])
    assert bch_product(g, lower_central_series(g), e1, e2) == expected
    # an equal series of another instance of the same algebra is accepted
    other = catalog.filiform(5)
    assert other is not g and lower_central_series(other) == lower_central_series(g)
    assert bch_product(g, lower_central_series(other), e1, e2) == expected


def test_three_step_closed_form():
    # x*y = x + y + [x,y]/2 + ([x,[x,y]] + [y,[y,x]])/12 for class <= 3
    rng = random.Random(1)
    for name in ("g6_2", "filiform(4)", "heisenberg"):
        g = catalog.get(name).algebra
        f = lower_central_series(g)
        assert f.nilpotency_class <= 3
        for _ in range(25):
            x, y = rand_vec(rng, g.dim), rand_vec(rng, g.dim)
            xy = bracket(g, x, y)
            expected = [
                a + b + F(1, 2) * c + F(1, 12) * (d + e)
                for a, b, c, d, e in zip(
                    x, y, xy, bracket(g, x, xy), bracket(g, y, bracket(g, y, x))
                )
            ]
            assert bch_product(g, f, x, y) == expected


def test_matrix_oracle_heisenberg():
    g = catalog.get("heisenberg").algebra
    f = lower_central_series(g)
    rng = random.Random(2)
    for _ in range(30):
        x, y = rand_vec(rng, 3), rand_vec(rng, 3)
        expected = matrix_group_product(heisenberg_matrix, heisenberg_coords, x, y)
        assert bch_product(g, f, x, y) == expected


def test_matrix_oracle_filiform5():
    g = catalog.get("filiform(5)").algebra
    f = lower_central_series(g)
    rng = random.Random(3)
    for _ in range(30):
        x, y = rand_vec(rng, 5), rand_vec(rng, 5)
        expected = matrix_group_product(filiform5_matrix, filiform5_coords, x, y)
        assert bch_product(g, f, x, y) == expected


@settings(max_examples=30, deadline=None)
@given(matrix_lie_algebras_with_matrices(min_class=2), st.data())
def test_product_matches_matrix_oracle_on_random_algebras(sample, data):
    # log(exp X . exp Y) of the basis matrices, read back in the randomly
    # moved basis (so sigma > 1 in general), shares no code with the BCH
    # word evaluator; the points are also drawn scaled by 2^8 and 2^16
    g, matrices = sample
    n, m = g.dim, len(matrices[0])
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    scale = F(2) ** data.draw(st.sampled_from([0, 8, 16]))
    x, y = ([scale * v for v in data.draw(st.lists(coord, min_size=n, max_size=n))] for _ in range(2))

    def matrix(v):
        return [[sum(a * mk[r][c] for a, mk in zip(v, matrices)) for c in range(m)] for r in range(m)]

    z = mat_log_unitriangular(naive_mat_mul(mat_exp_nilpotent(matrix(x)), mat_exp_nilpotent(matrix(y))))
    # the basis matrices are independent, so their entries at the pivots of
    # the dense RREF of their span form an invertible matrix
    flat = [[e for row in mk for e in row] for mk in matrices]
    _, pivots, _ = rref(flat)
    inverse = rref_mat_inv([[row[p] for row in flat] for p in pivots])
    z_flat = [e for row in z for e in row]
    expected = [sum(a * z_flat[p] for a, p in zip(inv_row, pivots)) for inv_row in inverse]
    assert matrix(expected) == z
    assert bch_product(g, lower_central_series(g), x, y) == expected


def test_group_axioms_catalog_entries():
    rng = random.Random(4)
    names = [
        "heisenberg",
        "g5_5",
        "g6_2",
        "g6_11",
        "g6_17",
        "g7_0_8",
        "counterexample11",
        "central_product(2,5)",
    ]
    for name in names:
        g = catalog.get(name).algebra
        f = lower_central_series(g)
        zero = zero_vec(g.dim)
        for _ in range(8):
            x, y, z = (rand_vec(rng, g.dim, denom=2, span=4) for _ in range(3))
            assert bch_product(g, f, bch_product(g, f, x, y), z) == bch_product(
                g, f, x, bch_product(g, f, y, z)
            )
            assert bch_product(g, f, x, zero) == x
            assert bch_product(g, f, zero, x) == x
            assert bch_product(g, f, group_inverse(x), x) == zero
            assert bch_product(g, f, x, group_inverse(x)) == zero


def test_group_inverse_examples():
    assert group_inverse(zero_vec(3)) == zero_vec(3)
    g = catalog.get("heisenberg").algebra
    f = lower_central_series(g)
    e1 = unit_vec(3, 0)
    assert bch_product(g, f, group_inverse(e1), e1) == zero_vec(3)


def test_carnot_product_matches_on_carnot_algebra():
    g = catalog.get("filiform(5)").algebra
    res = e_invariant(g)
    g_eig, ca = carnot_pair(g, res.witness)
    f = lower_central_series(g_eig)
    rng = random.Random(5)
    for _ in range(10):
        x, y = rand_vec(rng, 5), rand_vec(rng, 5)
        assert carnot_product(ca, x, y) == bch_product(g_eig, f, x, y)
        assert law_difference(g_eig, ca, x, y) == zero_vec(5)


def test_carnot_product_identity():
    g = catalog.get("g6_11").algebra
    _, ca = carnot_pair(g, e_invariant(g).witness)
    rng = random.Random(6)
    x = rand_vec(rng, 6)
    assert carnot_product(ca, x, zero_vec(6)) == x


def test_carnot_law_group_axioms():
    rng = random.Random(7)
    for name in ("g5_5", "g6_17", "g6_2"):
        g = catalog.get(name).algebra
        _, ca = carnot_pair(g, e_invariant(g).witness)
        for _ in range(6):
            x, y, z = (rand_vec(rng, g.dim, denom=2, span=4) for _ in range(3))
            assert carnot_product(ca, carnot_product(ca, x, y), z) == carnot_product(
                ca, x, carnot_product(ca, y, z)
            )
            assert carnot_product(ca, group_inverse(x), x) == zero_vec(g.dim)


def test_three_step_law_difference_closed_form():
    # difference = (component of [x1, y1] in the degree-3 layer) / 2
    g = catalog.get("g6_2").algebra
    res = e_invariant(g)
    g_eig, ca = carnot_pair(g, res.witness)
    degrees = ca.degrees
    rng = random.Random(8)
    for _ in range(20):
        x, y = rand_vec(rng, 6), rand_vec(rng, 6)
        x1 = [c if d == 1 else F(0) for c, d in zip(x, degrees)]
        y1 = [c if d == 1 else F(0) for c, d in zip(y, degrees)]
        br = bracket(g_eig, x1, y1)
        expected = [F(1, 2) * c if d == 3 else F(0) for c, d in zip(br, degrees)]
        assert law_difference(g_eig, ca, x, y) == expected


def test_g7_0_8_vs_g7_1_21_difference_formula():
    ga = catalog.get("g7_0_8").algebra
    gb = catalog.get("g7_1_21").algebra
    rng = random.Random(9)
    for _ in range(30):
        x, y = rand_vec(rng, 7, denom=16, span=16), rand_vec(rng, 7, denom=16, span=16)
        expected = zero_vec(7)
        expected[6] = F(1, 2) * (x[0] * y[2] - x[2] * y[0])
        assert law_difference(ga, gb, x, y) == expected


# --- the law difference on a Carnot pair, and off one


LAW_ENTRIES = [e.name for e in catalog.entries() if lower_central_series(e.algebra).nilpotency_class <= 8]


@lru_cache(maxsize=None)
def catalog_pair(name):
    g = catalog.get(name).algebra
    return carnot_pair(g, e_invariant(g).witness)


def two_products(g, ca, x, y):
    a = bch_product(g, lower_central_series(g), x, y)
    return [s - t for s, t in zip(a, carnot_product(ca, x, y))]


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.sampled_from(LAW_ENTRIES).map(catalog_pair),
        matrix_lie_algebras().map(lambda g: carnot_pair(g, e_invariant(g).witness)),
    ),
    st.data(),
)
def test_law_difference_on_a_carnot_pair_is_the_two_products_and_the_ladder_at_one(pair, data):
    # the one weight-split evaluation against its definition, and against
    # the ladder read at the single rung t = 1
    g_eig, ca = pair
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    scale = F(2) ** data.draw(st.sampled_from([0, 8]))
    x, y = ([scale * v for v in data.draw(st.lists(coord, min_size=g_eig.dim, max_size=g_eig.dim))] for _ in range(2))
    got = law_difference(g_eig, ca, x, y)
    assert got == two_products(g_eig, ca, x, y)
    assert [got] == law_difference_ladder(g_eig, ca, x, y, [F(1)])


def test_law_difference_on_a_carnot_pair_runs_one_weight_split_evaluation(monkeypatch):
    g_eig, ca = catalog_pair("g7_0_8")
    x = [F(k + 1, 3) for k in range(g_eig.dim)]
    y = [F(-2, k + 1) for k in range(g_eig.dim)]
    expected = two_products(g_eig, ca, x, y)
    calls = []
    for name in ("_weighted_parts", "bch_product"):
        real = getattr(bch, name)
        monkeypatch.setattr(bch, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    assert law_difference(g_eig, ca, x, y) == expected
    assert calls == ["_weighted_parts"]
    # a LieAlgebra as the other law keeps the two products
    calls.clear()
    law_difference(g_eig, ca.algebra, x, y)
    assert calls.count("bch_product") == 2


SHEARED = ["g6_11", "g7_0_8", "g6_2", "filiform(7)", "central_product(3,5)"]


def lower_shear(n):
    """Rows v_i = sum over j <= i of (j+1)/(2 + i%2)/(i-j+1) e_j: each basis
    vector picks up the ones before it, so the filtration is not adapted."""
    return [[F(j + 1, 2 + i % 2) / (i - j + 1) if j <= i else F(0) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("name", SHEARED)
def test_law_difference_off_a_carnot_pair_keeps_the_two_products_and_the_ladder_raises(name):
    # the moved algebra is not written in its own companion's eigenbasis,
    # so the weight split is not the difference: law_difference subtracts
    # the two products and the ladder refuses the pair
    g = catalog.get(name).algebra
    moved = lie.change_of_basis(g, lower_shear(g.dim))
    moved_eig, ca = carnot_pair(moved, e_invariant(moved).witness)
    assert not bch._is_companion(moved, ca) and bch._is_companion(moved_eig, ca)
    rng = random.Random(name)
    x, y = rand_vec(rng, g.dim), rand_vec(rng, g.dim)
    assert law_difference(moved, ca, x, y) == two_products(moved, ca, x, y)
    with pytest.raises(ValueError, match="not the graded companion"):
        law_difference_ladder(moved, ca, x, y, [F(1)])
    # the cached failure answers a repeated pair the same way
    assert law_difference(moved, ca, x, y) == two_products(moved, ca, x, y)
    assert law_difference_ladder(moved_eig, ca, x, y, [F(1)]) == [law_difference(moved_eig, ca, x, y)]


def test_companion_test_compares_the_graded_table():
    # a CarnotAlgebra built apart from the pair still counts as the
    # companion when its table is the graded part; other degrees do not
    g_eig, ca = catalog_pair("g6_11")
    apart = type(ca)(lie.parse_algebra(lie.serialize_algebra(ca.algebra)), ca.degrees)
    assert apart.algebra is not ca.algebra and bch._is_companion(g_eig, apart)
    assert not bch._is_companion(g_eig, type(ca)(ca.algebra, ca.degrees[:-1]))
    assert not bch._is_companion(g_eig, type(ca)(ca.algebra, tuple(d + 1 for d in ca.degrees)))
    assert not bch._is_companion(g_eig, type(ca)(catalog.abelian(g_eig.dim), ca.degrees))


# --- the integer word evaluator


@lru_cache(maxsize=None)
def eigenbasis_algebra(name):
    g = catalog.get(name).algebra
    return carnot_pair(g, e_invariant(g).witness)[0]


def naive_weighted_parts(g, c, degrees, x, y):
    """x + y + sum_word coeff * [word](x, y) split by weight, in Fractions.

    Every word of `bch_table(c)` is expanded over every choice of one part
    per letter; a bracket's weight is the sum of its parts' weights, and
    only bracket weights below c are kept.  x and y enter at their own
    weights.
    """
    parts = []
    for v in (x, y):
        split = {}
        for k, (d, s) in enumerate(zip(degrees, v)):
            split.setdefault(d, zero_vec(g.dim))[k] = s
        parts.append(split)
    out = {}

    def add(w, v):
        out[w] = [a + b for a, b in zip(out.get(w, zero_vec(g.dim)), v)]

    for side in parts:
        for w, v in side.items():
            add(w, v)
    for word, coeff in bch_table(c).nonzero:
        terms = list(parts[word[-1]].items())
        for letter in reversed(word[:-1]):
            terms = [(a + b, bracket(g, u, v)) for a, u in parts[letter].items() for b, v in terms if a + b < c]
        for w, v in terms:
            add(w, [coeff * s for s in v])
    return out


def nonzero_parts(parts):
    return {w: v for w, v in parts.items() if any(v)}


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        # dim <= 8 and matrices of size <= 5, so class <= 4
        matrix_lie_algebras(min_class=2),
        st.sampled_from(GRADED_ENTRIES).map(eigenbasis_algebra),
    ),
    st.data(),
)
def test_weighted_parts_match_a_naive_per_word_expansion(g, data):
    # the degrees need not be a grading: all zeros (as bch_product calls
    # it), any entries in 0..3, and a least degree > 0, so that the length
    # cut drops words
    n = g.dim
    degrees = data.draw(
        st.one_of(
            st.just([0] * n),
            st.lists(st.integers(0, 3), min_size=n, max_size=n),
            st.lists(st.integers(1, 3), min_size=n, max_size=n),
        )
    )
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    x, y = (data.draw(st.lists(coord, min_size=n, max_size=n)) for _ in range(2))
    c = lower_central_series(g).nilpotency_class
    weighted, common = _weighted_parts(g, c, degrees, x, y)
    got = {w: [F(s, common) for s in v] for w, v in weighted.items()}
    assert nonzero_parts(got) == nonzero_parts(naive_weighted_parts(g, c, degrees, x, y))


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        matrix_lie_algebras(min_class=2),
        st.sampled_from(GRADED_ENTRIES).map(eigenbasis_algebra),
    ),
    st.data(),
)
def test_degree_split_kernel_brackets_each_degree_part_into_its_weight(g, data):
    # the degrees need not be a grading, and may be all zeros; the kernel
    # adds sigma * [u_a, v] for u's degree-a part u_a into the row of weight
    # a + shift, below the cap only, on top of what the row already holds
    n = g.dim
    degrees = data.draw(
        st.one_of(st.just([0] * n), st.lists(st.integers(0, 4), min_size=n, max_size=n)),
        label="degrees",
    )
    ints = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    u, v, held = data.draw(ints, label="u"), data.draw(ints, label="v"), data.draw(ints, label="held")
    shift, cap = data.draw(st.integers(0, 3), label="shift"), data.draw(st.integers(0, 8), label="cap")
    into = {shift: list(held)}
    got = lie.scaled_bracket(g, u, v, lie._degree_split(g, degrees), shift, cap, into)
    assert got is into
    expected = {shift: list(held)}
    for a in set(degrees):
        if a + shift < cap:
            part = [s if d == a else 0 for s, d in zip(u, degrees)]
            row = expected.setdefault(a + shift, [0] * n)
            expected[a + shift] = [t + g.sigma * x for t, x in zip(row, dense_bracket(g, part, v))]
    assert set(got) <= set(expected)
    assert all(got.get(w, [0] * n) == row for w, row in expected.items())
    # the one group of the whole table, and one degree, give the plain bracket
    plain = [g.sigma * x for x in dense_bracket(g, u, v)]
    assert lie.scaled_bracket(g, u, v, ((0, g.table, ()),), 0, 1, {}) == {0: plain}
    d = degrees[0]
    assert lie.scaled_bracket(g, u, v, lie._degree_split(g, [d] * n), 0, d + 1, {}) == {d: plain}


def test_ladder_pair_walks_the_table_once_per_rest_weight(monkeypatch):
    # every bracket of the ladder's evaluator is [letter, rest], and one walk
    # per weight of the rest serves all of the letter's degree parts
    base = catalog.get("central_product(5,8)").algebra
    g, ca = carnot_pair(base, e_invariant(base).witness)
    x = [F(k + 1, 3) for k in range(g.dim)]
    y = [F(-2, k + 1) for k in range(g.dim)]
    expected = law_difference_ladder(g, ca, x, y, [F(1), F(3, 2)])
    calls = []
    kernel = lie.scaled_bracket
    monkeypatch.setattr(lie, "scaled_bracket", lambda *args: calls.append(args) or kernel(*args))
    assert law_difference_ladder(g, ca, x, y, [F(1), F(3, 2)]) == expected
    assert len(calls) <= 179


def test_class_eight_product_brackets_each_rest_once_and_folds_the_outer_bracket(monkeypatch):
    # one bracket per distinct proper suffix of length >= 2 of the words,
    # and one per letter for the folded outermost bracket
    g = eigenbasis_algebra("central_product(5,8)")
    f = lower_central_series(g)
    assert f.nilpotency_class == 8
    x = [F(k + 1, 3) for k in range(g.dim)]
    y = [F(-2, k + 1) for k in range(g.dim)]
    expected = bch_product(g, f, x, y)
    words = [w for w, _ in bch_table(8).nonzero]
    suffixes = {w[i:] for w in words for i in range(1, len(w) - 1)}
    calls = []
    kernel = lie.scaled_bracket
    monkeypatch.setattr(lie, "scaled_bracket", lambda *args: calls.append(args) or kernel(*args))
    assert bch_product(g, f, x, y) == expected
    assert len(calls) == 2 + len(suffixes) == 58


# --- the law difference along a dilation ladder


def per_rung(g_eig, ca, x, y, ts):
    # the two products, not `law_difference`, which runs the ladder's own evaluator on a Carnot pair
    ctx = GuivarchContext.for_carnot(ca)
    return [two_products(g_eig, ca, dilate(ctx, t, x), dilate(ctx, t, y)) for t in ts]


@settings(max_examples=30, deadline=None)
@given(
    grading_operator_samples(
        st.one_of(
            st.sampled_from(GRADED_ENTRIES).map(lambda n: catalog.get(n).algebra),
            # dim <= 8, so class <= 7: every drawn law is within bch_table's range
            matrix_lie_algebras(min_class=3),
        )
    ),
    st.data(),
)
def test_ladder_matches_per_rung_law_difference(sample, data):
    # one weighted evaluation read at every rung equals the two full BCH
    # evaluations per rung on dilated inputs, whatever grading operator
    # picks the eigenbasis; the ladder mixes powers of 2, t < 1, non-dyadic
    # t and a repeated rung
    g, _, rows = sample
    g_eig, ca = carnot_pair(g, GradingOperator.from_rows(rows))
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=12)
    x, y = (data.draw(st.lists(coord, min_size=g.dim, max_size=g.dim)) for _ in range(2))
    ts = [
        F(2) ** data.draw(st.integers(0, 8)),
        data.draw(st.fractions(min_value=F(1, 16), max_value=F(15, 16), max_denominator=16)),
        data.draw(st.sampled_from([F(3, 7), F(5, 3), F(22, 9), F(1, 5)])),
    ]
    ts = data.draw(st.permutations(ts + [data.draw(st.sampled_from(ts))]))
    assert law_difference_ladder(g_eig, ca, x, y, ts) == per_rung(g_eig, ca, x, y, ts)


def test_ladder_is_zero_on_abelian_and_class_two_algebras():
    # the Carnot law is the whole BCH law below class 3
    ts = [F(1), F(3, 7), F(8), F(3, 7)]
    for g in (catalog.abelian(4), catalog.get("heisenberg").algebra):
        g_eig, ca = carnot_pair(g, e_invariant(g).witness)
        x, y = vec([1, -2, F(1, 3), 5][: g.dim]), vec([F(-1, 2), 3, 7, 1][: g.dim])
        got = law_difference_ladder(g_eig, ca, x, y, ts)
        assert got == per_rung(g_eig, ca, x, y, ts) == [zero_vec(g.dim)] * len(ts)


def test_ladder_edge_cases_raise_as_the_per_rung_path_does():
    g = catalog.get("g6_11").algebra
    g_eig, ca = carnot_pair(g, e_invariant(g).witness)
    x, y = vec([1, 0, 2, 0, 1, 3]), vec([0, 1, 1, 1, 0, 2])
    assert law_difference_ladder(g_eig, ca, x, y, []) == []
    for bad in (F(0), F(-1, 2)):
        with pytest.raises(ValueError, match="^dilation parameter must be positive$"):
            per_rung(g_eig, ca, x, y, [F(2), bad])
        with pytest.raises(ValueError, match="^dilation parameter must be positive$"):
            law_difference_ladder(g_eig, ca, x, y, [F(2), bad])
    g9 = catalog.get("filiform(10)").algebra
    assert lower_central_series(g9).nilpotency_class == 9
    g_eig, ca = carnot_pair(g9, e_invariant(g9).witness)
    x = y = [F(1)] * g9.dim
    for call in (per_rung, law_difference_ladder):
        with pytest.raises(ValueError, match=r"^supported classes are 2\.\.8$"):
            call(g_eig, ca, x, y, [F(2)])
