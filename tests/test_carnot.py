"""Gradings from operators, the graded algebra, explicit grading checks."""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    columns_matrix,
    graded_truncation,
    grading_layers_dense,
    layer_one_generates,
    mat_add,
    naive_mat_mul,
    rref_contains,
    rref_mat_inv,
    rref_span,
    verify_grading_dense,
)
from test_bch import counting_fractions
from test_derivability import SPARSE_1000, grading_operator_samples, moved_by
from test_lie import FIXTURES, SMALL_ENTRIES, invertible_matrices, matrix_lie_algebras, rescaled_and_sheared

from nilgrade import catalog
from nilgrade.carnot import (
    carnot_algebra,
    carnot_pair,
    grading_from_operator,
    serialize_carnot,
    verify_grading,
)
from nilgrade.derivability import (
    GradingOperator,
    OperatorNotInDError,
    _setup,
    e_invariant,
    grading_operator_space,
    is_grading_operator,
)
from nilgrade.lie import (
    LieAlgebra,
    adapted_basis,
    change_of_basis,
    check_jacobi,
    graded_part,
    lower_central_series,
    parse_algebra,
)
from nilgrade.linalg import unit_vec, vec


def diag_operator(degrees) -> GradingOperator:
    n = len(degrees)
    return GradingOperator.from_rows(
        [[F(degrees[i]) if i == j else F(0) for j in range(n)] for i in range(n)]
    )


def test_grading_heisenberg():
    g = catalog.get("heisenberg").algebra
    grading = grading_from_operator(g, diag_operator([1, 1, 2]))
    e1, e2, e3 = (tuple(unit_vec(3, i)) for i in range(3))
    assert grading.layers == ((e1, e2), (e3,))


def test_grading_filiform_nondiagonal_operator():
    # operator sending e2 to e2 + x e3 + e4 (and e3 to 2 e3 + x e4); its
    # degree-1 layer is spanned by e1 and e2 - x e3 + (x^2-1)/2 e4
    fil = catalog.get("filiform(5)").algebra
    x = F(2)
    cols = {
        0: {0: F(1)},
        1: {1: F(1), 2: x, 3: F(1)},
        2: {2: F(2), 3: x},
        3: {3: F(3)},
        4: {4: F(4)},
    }
    rows = [[cols.get(b, {}).get(a, F(0)) for b in range(5)] for a in range(5)]
    grading = grading_from_operator(fil, GradingOperator.from_rows(rows))
    layer1 = grading.layers[0]
    assert len(layer1) == 2
    assert rref_contains(layer1, unit_vec(5, 0))
    e2_prime = vec([0, 1, -x, (x * x - 1) / 2, 0])
    assert rref_contains(layer1, e2_prime)


def test_grading_rejects_bad_eigenvalues():
    fil = catalog.get("filiform(5)").algebra
    with pytest.raises(OperatorNotInDError):
        grading_from_operator(fil, diag_operator([7, 7, 7, 7, 7]))


def test_grading_layer_dimensions_sum():
    for name in ("g5_5", "g6_19", "g7_0_8"):
        g = catalog.get(name).algebra
        res = e_invariant(g)
        grading = grading_from_operator(g, res.witness)
        f = lower_central_series(g)
        dims = tuple(len(layer) for layer in grading.layers)
        assert dims == f.quotient_dims
        assert sum(dims) == g.dim


@settings(max_examples=25, deadline=None)
@given(grading_operator_samples(), grading_operator_samples(matrix_lie_algebras(min_class=3)), st.data())
def test_grading_layers_fill_the_space_and_recover_the_filtration(sample, extra, data):
    # what grading_from_operator no longer checks, because it follows from
    # D being a grading operator: the layers have dim vectors in all, and
    # the layers from i on span F_i; also in a random basis, and on a
    # random matrix Lie algebra as well as a catalog entry
    for g, f, rows in (sample, extra):
        p = data.draw(invertible_matrices(g.dim))
        moved = moved_by(g, p)
        for alg, m in ((g, rows), (moved, naive_mat_mul(naive_mat_mul(rref_mat_inv(p), rows), p))):
            fil = lower_central_series(alg)
            layers = grading_from_operator(alg, GradingOperator.from_rows(m)).layers
            assert sum(len(layer) for layer in layers) == alg.dim
            for i in range(1, fil.nilpotency_class + 1):
                tail = [list(v) for layer in layers[i - 1 :] for v in layer]
                assert rref_span(tail)[0] == fil.basis(i)


def test_carnot_algebra_fixed_point_on_carnot_input():
    g = catalog.get("filiform(6)").algebra
    res = e_invariant(g)
    assert res.e == 0
    g_eig, ca = carnot_pair(g, res.witness)
    assert ca.algebra == g_eig


def test_carnot_algebra_g6_2_drops_one_bracket():
    g = catalog.get("g6_2").algebra
    res = e_invariant(g)
    g_eig, ca = carnot_pair(g, res.witness)
    removed = {
        pair for pair in g_eig.brackets if pair not in ca.algebra.brackets
    }
    assert len(removed) == 1
    (pair,) = removed
    # the lost bracket is the central-product relation [e3, e4] = e6
    assert {g_eig.labels[pair[0]], g_eig.labels[pair[1]]} == {"v1_3", "v1_4"}
    shared = {
        pair: v for pair, v in g_eig.brackets.items() if pair in ca.algebra.brackets
    }
    assert shared == {p: ca.algebra.brackets[p] for p in shared}


def test_carnot_algebra_counterexample11_drops_1_plus_2_is_4():
    g = catalog.get("counterexample11").algebra
    f = lower_central_series(g)
    ab = adapted_basis(g, f)
    base, _ = grading_operator_space(g, f, ab)
    ca = carnot_algebra(g, base)
    g_ad = change_of_basis(g, [list(v) for v in ab.vectors], ca.algebra.labels)
    differing = [
        pair
        for pair in set(g_ad.brackets) | set(ca.algebra.brackets)
        if g_ad.brackets.get(pair) != ca.algebra.brackets.get(pair)
    ]
    # only [b1, c1] = e1 (degree 1 + 2 landing in degree 4) is dropped
    assert differing == [(2, 4)]
    assert ca.algebra.brackets.get((2, 4)) is None


def test_carnot_algebra_on_eigenbasis_degrees_matches_pair():
    g = catalog.get("g6_2").algebra
    g_eig, ca = carnot_pair(g, e_invariant(g).witness)
    again = carnot_algebra(g_eig, ca.degrees)
    assert again.algebra == ca.algebra
    assert again.algebra.labels == ca.algebra.labels
    assert again.degrees == ca.degrees


@settings(max_examples=25, deadline=None)
@given(grading_operator_samples(), grading_operator_samples(matrix_lie_algebras(min_class=3)), st.data())
def test_carnot_pair_moves_with_the_basis(sample, extra, data):
    # p carries each eigenspace of D' = p^-1 D p onto that of D, so the
    # eigenbases E, E' differ by M = E^-1 p E', block-diagonal by degree,
    # and the pair of (g', D') is the pair of (g, D) moved by M
    for g, _, rows in (sample, extra):
        p = data.draw(invertible_matrices(g.dim))
        d = GradingOperator.from_rows(rows)
        moved, d_moved = moved_by(g, p), GradingOperator.from_rows(naive_mat_mul(naive_mat_mul(rref_mat_inv(p), rows), p))
        grading, grading_moved = grading_from_operator(g, d), grading_from_operator(moved, d_moved)
        e_inv = rref_mat_inv(columns_matrix(grading.eigenbasis))
        m = naive_mat_mul(naive_mat_mul(e_inv, p), columns_matrix(grading_moved.eigenbasis))
        degrees = grading.degrees
        assert grading_moved.degrees == degrees
        assert all(m[a][b] == 0 for a in range(g.dim) for b in range(g.dim) if degrees[a] != degrees[b])
        (g_eig, ca), (g_eig_moved, ca_moved) = carnot_pair(g, d), carnot_pair(moved, d_moved)
        assert ca.degrees == ca_moved.degrees == degrees
        assert moved_by(g_eig, m) == g_eig_moved
        assert moved_by(ca.algebra, m) == ca_moved.algebra
        direct = carnot_algebra(g, d)
        assert direct == ca and direct.algebra.labels == ca.algebra.labels


def test_carnot_algebra_rejects_bad_degrees():
    g = catalog.get("heisenberg").algebra
    with pytest.raises(ValueError, match="positive degree"):
        carnot_algebra(g, [1, 1])
    with pytest.raises(ValueError, match="positive degree"):
        carnot_algebra(g, [1, 0, 2])
    # [e1, e2] = e3 would be dropped, not graded, if e3 had degree 1
    with pytest.raises(ValueError, match="degree below 2"):
        carnot_algebra(g, [1, 1, 1])
    with pytest.raises(ValueError, match="does not generate"):
        carnot_algebra(catalog.get("abelian(2)").algebra, [1, 2])


@st.composite
def filtered_degrees(draw, g):
    """Degrees that pass `carnot_algebra`'s degree check: random degrees
    1..3, with each bracket component raised to at least deg a + deg b
    until nothing changes."""
    degrees = draw(st.lists(st.integers(1, 3), min_size=g.dim, max_size=g.dim))
    for _ in range(g.dim + 1):
        raised = False
        for (a, b), v in g.brackets.items():
            for k, x in enumerate(v):
                if x and degrees[k] < degrees[a] + degrees[b]:
                    degrees[k] = degrees[a] + degrees[b]
                    raised = True
        if not raised:
            return degrees
    assume(False)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_ENTRIES), st.data())
def test_generation_check_matches_closure_oracle(name, data):
    g = catalog.get(name).algebra
    degrees = data.draw(filtered_degrees(g))
    if layer_one_generates(graded_truncation(g, degrees), degrees):
        assert carnot_algebra(g, degrees).degrees == tuple(degrees)
    else:
        with pytest.raises(ValueError, match="^degree-1 layer does not generate the graded algebra$"):
            carnot_algebra(g, degrees)


CATALOG_ALGEBRAS = st.sampled_from([e.name for e in catalog.entries()]).map(lambda n: catalog.get(n).algebra)


def _sheared(name: str, which: int) -> LieAlgebra:
    g = catalog.get(name).algebra
    return moved_by(g, rescaled_and_sheared(g.dim)[which])


# the catalog fixtures of dim <= 7 moved by their lower or upper shear, whose
# grading operators have denominators and, under the upper shear, eigenbases
# that are no permutation
SHEARED_FIXTURES = st.builds(_sheared, st.sampled_from([n for n in FIXTURES if n in SMALL_ENTRIES]), st.sampled_from([1, 2]))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        grading_operator_samples(CATALOG_ALGEBRAS),
        grading_operator_samples(SHEARED_FIXTURES),
        grading_operator_samples(matrix_lie_algebras(min_class=2)),
    )
)
def test_integer_carnot_path_matches_dense_construction(sample):
    # the layers are read off forward substitution in adapted coordinates and
    # one reversed-column integer Echelon per eigenvalue, the eigenbasis
    # algebra off the integer basis change, and the graded table off
    # `lie.graded_part`; they equal the dense Fraction construction (the RREF
    # nullspaces of D - i, `change_of_basis` of the dense eigenbasis, and the
    # truncation of the dense brackets) bit for bit, for D the base point plus
    # a random rational combination of the free directions, N != 0, on
    # catalog entries, sheared fixtures and random matrix Lie algebras
    g, f, rows = sample
    base, dirs = grading_operator_space(g, f, adapted_basis(g, f))
    assume(not dirs or rows != base.rows)
    d = GradingOperator.from_rows(rows)
    grading = grading_from_operator(g, d)
    assert grading.layers == grading_layers_dense(d, f.nilpotency_class)
    g_eig, ca = carnot_pair(g, d)
    dense_eig = change_of_basis(g, grading.eigenbasis, g_eig.labels)
    assert g_eig == dense_eig and g_eig.sigma == dense_eig.sigma and g_eig.brackets == dense_eig.brackets
    dense = graded_truncation(g_eig, grading.degrees)
    assert ca.algebra == dense and ca.algebra.labels == dense.labels
    assert ca.algebra.sigma == dense.sigma and ca.algebra.brackets == dense.brackets


@contextmanager
def counting_denominator_reads():
    """A list that gets one entry per read of a Fraction's `denominator`
    property while the block runs: one per entry that a dense Fraction
    vector hands to `clear_denominators` or `integer_rows`."""
    reads: list[int] = []
    saved = F.__dict__["denominator"]

    def read(self):
        reads.append(1)
        return saved.fget(self)

    F.denominator = property(read)
    try:
        yield reads
    finally:
        F.denominator = saved


@pytest.mark.parametrize("point", ["witness", "off-diagonal"])
def test_carnot_pair_of_the_sparse_file_is_built_on_integers(point):
    # the eigenvectors, their canonical form and the basis change all run on
    # integers, so the pair of the dim-1000 algebra makes no Fraction and
    # reads no denominator, at D0 and at a point of the grading operator
    # space with three rational free entries; the dense route built 1,000
    # kernel vectors of length 1,000 and `change_of_basis` read each entry's
    # denominator twice to clear them, 2 * 10^6 reads (its zeros and ones
    # are the shared constants, so it made 0 and 3 Fractions)
    g = parse_algebra(SPARSE_1000)
    setup = _setup(g)
    if point == "witness":
        d = e_invariant(g).witness
    else:
        x = [F(0)] * len(setup.positions)
        x[0], x[len(x) // 2], x[-1] = F(1, 2), F(-2, 3), F(3)
        d = setup.operator(x)
    with counting_fractions() as made, counting_denominator_reads() as reads:
        g_eig, ca = carnot_pair(g, d)
    assert len(made) <= g.dim and len(reads) <= g.dim
    assert ca.degrees == (1,) * 997 + (2, 2, 3)
    assert g_eig == change_of_basis(g, grading_from_operator(g, d).eigenbasis)


@settings(max_examples=80, deadline=None)
@given(st.one_of(CATALOG_ALGEBRAS, matrix_lie_algebras()), st.data())
def test_graded_table_and_its_error_match_dense_construction(g, data):
    # explicit degrees, random or raised until every bracket respects them:
    # carnot_algebra names the same violating pair as the dense truncation
    # did, and otherwise the graded table is that truncation's
    random_degrees = st.lists(st.integers(1, 4), min_size=g.dim, max_size=g.dim)
    degrees = data.draw(st.one_of(random_degrees, filtered_degrees(g)))
    try:
        dense = graded_truncation(g, degrees)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            carnot_algebra(g, degrees)
        assert str(got.value) == str(exc)
        return
    graded = graded_part(g, degrees)
    assert graded == dense and graded.labels == dense.labels and graded.brackets == dense.brackets


@settings(max_examples=40, deadline=None)
@given(st.one_of(grading_operator_samples(CATALOG_ALGEBRAS), grading_operator_samples(matrix_lie_algebras())))
def test_carnot_pair_seeds_the_lower_central_series_of_the_eigenbasis_algebra(sample):
    # g_eig leaves carnot_pair with its series already cached, F_i spanned
    # by the eigenbasis vectors of degree >= i; it equals the series
    # recomputed on a fresh copy of g_eig, row for row
    g, f, rows = sample
    g_eig, ca = carnot_pair(g, GradingOperator.from_rows(rows))
    seeded = g_eig._lcs_cache
    assert seeded is not None and lower_central_series(g_eig) is seeded
    recomputed = lower_central_series(LieAlgebra(g_eig.dim, g_eig.brackets, g_eig.labels))
    assert seeded == recomputed and hash(seeded) == hash(recomputed)
    assert seeded.int_rows == recomputed.int_rows and seeded.nilpotency_class == f.nilpotency_class
    assert [seeded.basis(k) for k in range(1, f.nilpotency_class + 2)] == [
        recomputed.basis(k) for k in range(1, f.nilpotency_class + 2)
    ]


def assert_series_is_seeded_as_the_table_gives_it(a: LieAlgebra) -> None:
    seeded = a._lcs_cache
    assert seeded is not None and lower_central_series(a) is seeded
    recomputed = lower_central_series(LieAlgebra._from_table(a.dim, a.sigma, a.table, a.labels))
    assert seeded == recomputed and hash(seeded) == hash(recomputed)
    assert seeded.int_rows == recomputed.int_rows and seeded.nilpotency_class == recomputed.nilpotency_class


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        grading_operator_samples(CATALOG_ALGEBRAS),
        grading_operator_samples(SHEARED_FIXTURES),
        grading_operator_samples(matrix_lie_algebras()),
    ),
    st.sampled_from(SMALL_ENTRIES),
    st.data(),
)
def test_the_companion_leaves_with_the_series_its_table_gives(sample, name, data):
    # the companion's lower central series is seeded from its degrees once
    # the table shows that V_1 generates: it equals the series recomputed on
    # a fresh copy of its table, row for row, both for a grading operator's
    # pair and for explicit degrees that pass the generation check
    g, f, rows = sample
    _, ca = carnot_pair(g, GradingOperator.from_rows(rows))
    assert_series_is_seeded_as_the_table_gives_it(ca.algebra)
    assert lower_central_series(ca.algebra).nilpotency_class == f.nilpotency_class
    h = catalog.get(name).algebra
    degrees = data.draw(filtered_degrees(h))
    try:
        explicit = carnot_algebra(h, degrees)
    except ValueError:
        return
    assert_series_is_seeded_as_the_table_gives_it(explicit.algebra)


def test_carnot_algebra_passes_jacobi_and_is_graded():
    for name in ("g5_5", "g6_11", "g6_13", "g6_17", "g6_19", "g6_20", "g6_2"):
        g = catalog.get(name).algebra
        ca = carnot_algebra(g, e_invariant(g).witness)
        assert check_jacobi(ca.algebra) == []
        for (a, b), v in ca.algebra.brackets.items():
            target = ca.degrees[a] + ca.degrees[b]
            assert all(c == 0 or ca.degrees[k] == target for k, c in enumerate(v))


def test_two_operators_same_tau_and_carnot_e_zero():
    g = catalog.get("g6_11").algebra
    f = lower_central_series(g)
    ab = adapted_basis(g, f)
    base, dirs = grading_operator_space(g, f, ab)
    d1 = e_invariant(g).witness
    d2 = GradingOperator.from_rows(mat_add(base.rows, dirs[0]))
    assert is_grading_operator(g, f, d2)
    ca1 = carnot_algebra(g, d1)
    ca2 = carnot_algebra(g, d2)
    tau1 = lower_central_series(ca1.algebra).quotient_dims
    tau2 = lower_central_series(ca2.algebra).quotient_dims
    assert tau1 == tau2 == f.quotient_dims
    assert e_invariant(ca1.algebra).e == 0
    assert e_invariant(ca2.algebra).e == 0


def test_verify_grading_examples():
    g21 = catalog.get("g7_1_21").algebra
    # as published (degree 6 for e7) the two brackets into e7 fail ...
    ok, violations = verify_grading(g21, [1, 2, 3, 3, 4, 5, 6])
    assert not ok
    assert violations == [(1, 5), (3, 4)]
    # ... and assigning degree 7 to e7 yields a genuine positive grading
    ok, violations = verify_grading(g21, [1, 2, 3, 3, 4, 5, 7])
    assert ok and violations == []

    g8 = catalog.get("g7_0_8").algebra
    ok, violations = verify_grading(g8, [1, 2, 3, 3, 4, 5, 6])
    assert not ok
    assert (0, 2) in violations  # [e1, e3] = e7 has degree sum 4

    abelian = catalog.get("abelian(5)").algebra
    ok, violations = verify_grading(abelian, [3, 1, 4, 1, 5])
    assert ok and violations == []


def test_verify_grading_validates_input():
    g = catalog.get("heisenberg").algebra
    with pytest.raises(ValueError):
        verify_grading(g, [1, 2])
    with pytest.raises(ValueError):
        verify_grading(g, [1, 0, 2])


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.sampled_from(SMALL_ENTRIES).map(lambda name: catalog.get(name).algebra), matrix_lie_algebras()),
    st.data(),
)
def test_verify_grading_matches_the_dense_oracle(g, data):
    # the table pass and the dense pass name the same pairs, in order, under
    # random degrees, and on the Carnot companion under its own degrees,
    # which grade it
    degrees = data.draw(st.lists(st.integers(1, 4), min_size=g.dim, max_size=g.dim))
    assert verify_grading(g, degrees) == verify_grading_dense(g, degrees)
    ca = carnot_algebra(g, e_invariant(g).witness)
    assert verify_grading(ca.algebra, ca.degrees) == verify_grading_dense(ca.algebra, ca.degrees) == (True, [])


def test_serialize_carnot_round_trip():
    g = catalog.get("g6_2").algebra
    ca = carnot_algebra(g, e_invariant(g).witness)
    text = serialize_carnot(ca)
    assert text.startswith("# degrees: ")
    again = parse_algebra(text)
    assert again == ca.algebra
    assert again.labels == ca.algebra.labels
