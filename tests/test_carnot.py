"""Gradings from operators, the graded algebra, explicit grading checks."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import graded_truncation, layer_one_generates, rref_span
from test_derivability import grading_operator_samples, moved_by
from test_lie import SMALL_ENTRIES, invertible_matrices, matrix_lie_algebras

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
    e_invariant,
    grading_operator_space,
    is_grading_operator,
)
from nilgrade.lie import (
    adapted_basis,
    change_of_basis,
    check_jacobi,
    lower_central_series,
    parse_algebra,
)
from nilgrade.linalg import columns_matrix, mat_add, mat_inv, mat_mul, subspace_contains, unit_vec, vec


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
    assert subspace_contains(layer1, unit_vec(5, 0))
    e2_prime = vec([0, 1, -x, (x * x - 1) / 2, 0])
    assert subspace_contains(layer1, e2_prime)


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
        for alg, m in ((g, rows), (moved, mat_mul(mat_mul(mat_inv(p), rows), p))):
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
        moved, d_moved = moved_by(g, p), GradingOperator.from_rows(mat_mul(mat_mul(mat_inv(p), rows), p))
        grading, grading_moved = grading_from_operator(g, d), grading_from_operator(moved, d_moved)
        e_inv = mat_inv(columns_matrix(grading.eigenbasis))
        m = mat_mul(mat_mul(e_inv, p), columns_matrix(grading_moved.eigenbasis))
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


def test_serialize_carnot_round_trip():
    g = catalog.get("g6_2").algebra
    ca = carnot_algebra(g, e_invariant(g).witness)
    text = serialize_carnot(ca)
    assert text.startswith("# degrees: ")
    again = parse_algebra(text)
    assert again == ca.algebra
    assert again.labels == ca.algebra.labels
