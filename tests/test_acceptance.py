"""Acceptance suite: one test per criterion clause, one PASS/FAIL line each.

Run with `pytest -v tests/test_acceptance.py` to see the per-criterion
lines (or `-s` for the explicit ACCEPTANCE prints).

Three clauses assert published values that are not mathematically
attainable; they are kept as stated and fail with the analysis in the
assertion message rather than being weakened:

* criterion 2 for g6_20: the published failing set {(1,3|5)} is in fact
  satisfiable (the diagonal operator satisfies it);
* criterion 6a: e(g7_0_8) is 4/5, not the published 3/4, because the
  condition (1,1,2|5) is infeasible for every grading operator;
* criterion 6b: the degree list (1,2,3,3,4,5,6) is not a grading of
  g7_1_21 (the brackets into e7 need degree 7).
"""

from __future__ import annotations

import time
from fractions import Fraction as F

import pytest

from oracles import (
    filiform5_coords,
    filiform5_matrix,
    heisenberg_coords,
    heisenberg_matrix,
    mat_add,
    matrix_group_product,
)

from nilgrade import catalog
from nilgrade.bch import bch_product, group_inverse, law_difference
from nilgrade.carnot import carnot_algebra, verify_grading
from nilgrade.derivability import (
    GradingOperator,
    candidate_values,
    delta_n,
    e_invariant,
    enumerate_T,
    is_A_derivable,
    parse_condition_set,
    r_condition_set,
)
from nilgrade.goodman import GridSampler, goodman_check, segment_constants
from nilgrade.lie import bracket, check_jacobi, lower_central_series
from nilgrade.linalg import zero_vec

GOODMAN_SEED = 20260811
TABLE_E_VALUES = {
    "g5_5": F(3, 4),
    "g6_11": F(1, 2),
    "g6_12": F(3, 4),
    "g6_13": F(3, 4),
    "g6_17": F(3, 5),
    "g6_19": F(4, 5),
    "g6_20": F(4, 5),
    "heisenberg": F(0),
    "filiform(5)": F(0),
    "filiform(6)": F(0),
}
PUBLISHED_FAILURE_SETS = {
    "g5_5": "(1,2|4)",
    "g6_11": "(1,1|4)",
    "g6_12": "(1,2|4)",
    "g6_13": "(1,2|4)",
    "g6_17": "(1,2|5)",
    "g6_19": "(1,3|5)",
    "g6_20": "(1,3|5)",
}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{tail}")


# --- criterion 1: table reproduction, exact, each under 10 s


@pytest.mark.parametrize("name", sorted(TABLE_E_VALUES))
def test_criterion_01_table_e_values(name):
    expected = TABLE_E_VALUES[name]
    start = time.monotonic()
    got = e_invariant(catalog.get(name).algebra).e
    elapsed = time.monotonic() - start
    ok = got == expected and elapsed < 10.0
    report("1", ok, f"{name}: e = {got} in {elapsed:.2f}s")
    assert got == expected
    assert elapsed < 10.0


# --- criterion 2: published failure sets are infeasible


@pytest.mark.parametrize("name", sorted(PUBLISHED_FAILURE_SETS))
def test_criterion_02_failure_sets(name):
    conditions = parse_condition_set(PUBLISHED_FAILURE_SETS[name])
    witness = is_A_derivable(catalog.get(name).algebra, conditions)
    ok = witness is None
    report("2", ok, f"{name}: {PUBLISHED_FAILURE_SETS[name]}")
    assert witness is None, (
        f"{name} is {PUBLISHED_FAILURE_SETS[name]}-derivable. For g6_20 the "
        "published failing set is satisfiable: every bracket against the "
        "third filtration term respects the diagonal grading (degrees "
        "1,1,2,3,4,5), so the diagonal operator is already a witness; the "
        "infeasible certificates for this algebra are (1,1,2|5) and "
        "(1,1,1,1|5), and the e-value 4/5 is unaffected."
    )


# --- criterion 3: the 11-dimensional counterexample


def test_criterion_03_counterexample():
    g = catalog.get("counterexample11").algebra
    results = (
        is_A_derivable(g, parse_condition_set("(1,1|3)")) is not None,
        is_A_derivable(g, parse_condition_set("(1,2|4)")) is not None,
        is_A_derivable(g, parse_condition_set("(1,1|3),(1,2|4)")) is None,
        is_A_derivable(g, parse_condition_set("(1,1,1|4)")) is None,
    )
    ok = all(results)
    report("3", ok, f"decisions = {results}")
    assert ok


# --- criterion 4: the 7-dimensional remark example


def test_criterion_04_remark_example():
    g = catalog.get("g7_1_2i1").algebra
    derivable = is_A_derivable(g, parse_condition_set("(1,2|4)")) is not None
    not_derivable = is_A_derivable(g, parse_condition_set("(1,1,1|4)")) is None
    e_value = e_invariant(g).e
    ok = derivable and not_derivable and e_value == F(3, 4)
    report("4", ok, f"e = {e_value}")
    assert derivable and not_derivable
    assert e_value == F(3, 4)


# --- criterion 5: central products achieve i/j


@pytest.mark.parametrize("i,j", [(i, j) for i in range(2, 6) for j in range(i + 1, 7)])
def test_criterion_05_central_products(i, j):
    got = e_invariant(catalog.central_product_filiform(i, j)).e
    ok = got == F(i, j)
    report("5", ok, f"cp({i},{j}): e = {got}")
    assert got == F(i, j)


# --- criterion 6: the g7_0_8 suite


def test_criterion_06a_e_invariant_g7_0_8():
    got = e_invariant(catalog.get("g7_0_8").algebra).e
    ok = got == F(3, 4)
    report("6a", ok, f"e = {got}")
    assert got == F(3, 4), (
        "published value 3/4 is not attainable: for every grading operator "
        "D the value Delta_3 D(e2, e2, e4) equals e7 exactly (writing "
        "D e2 = e2 + n2 and D e4 = 2 e4 + n4 with n2, n4 in the filtration, "
        "all correction terms die against the bracket table), so the "
        "condition (1,1,2|5) of ratio 4/5 always fails and the invariant "
        f"is {got}. The published argument only checked length-4 tuples."
    )


def test_criterion_06b_grading_g7_1_21():
    ok, violations = verify_grading(
        catalog.get("g7_1_21").algebra, [1, 2, 3, 3, 4, 5, 6]
    )
    report("6b", ok, f"violations = {[(i + 1, j + 1) for i, j in violations]}")
    assert ok, (
        "(1,2,3,3,4,5,6) is not a grading of g7_1_21: [e2,e6] = e7 and "
        "[e5,e4] = e7 have degree sums 7 while e7 is assigned degree 6; "
        "assigning degree 7 to e7, i.e. (1,2,3,3,4,5,7), does verify."
    )


def test_criterion_06c_law_difference_formula():
    ga = catalog.get("g7_0_8").algebra
    gb = catalog.get("g7_1_21").algebra
    sampler = GridSampler(6_0800)
    ok = True
    for _ in range(100):
        x, y = sampler.vector(7), sampler.vector(7)
        expected = zero_vec(7)
        expected[6] = F(1, 2) * (x[0] * y[2] - x[2] * y[0])
        if law_difference(ga, gb, x, y) != expected:
            ok = False
            break
    report("6c", ok, "100 pairs, exact")
    assert ok


# --- criterion 7: BCH correctness


def _bch_axiom_names():
    names = [e.name for e in catalog.entries()]
    names += ["filiform(5)", "abelian(3)", "central_product(2,3)", "central_product(5,6)"]
    return names


@pytest.mark.parametrize("name", _bch_axiom_names())
def test_criterion_07_group_axioms(name):
    g = catalog.get(name).algebra
    f = lower_central_series(g)
    assert f.nilpotency_class <= 6
    sampler = GridSampler(707)
    zero = zero_vec(g.dim)
    ok = True
    for _ in range(50):
        x, y, z = sampler.vector(g.dim), sampler.vector(g.dim), sampler.vector(g.dim)
        assoc = bch_product(g, f, bch_product(g, f, x, y), z) == bch_product(
            g, f, x, bch_product(g, f, y, z)
        )
        ident = bch_product(g, f, x, zero) == x and bch_product(g, f, zero, x) == x
        inv = bch_product(g, f, group_inverse(x), x) == zero
        if not (assoc and ident and inv):
            ok = False
            break
    report("7", ok, f"{name}: 50 seeded triples")
    assert ok


def test_criterion_07_three_step_closed_form():
    sampler = GridSampler(737)
    ok = True
    for name in ("g6_2", "heisenberg", "filiform(4)"):
        g = catalog.get(name).algebra
        f = lower_central_series(g)
        for _ in range(30):
            x, y = sampler.vector(g.dim), sampler.vector(g.dim)
            xy = bracket(g, x, y)
            closed = [
                a + b + F(1, 2) * c + F(1, 12) * (d + e)
                for a, b, c, d, e in zip(
                    x, y, xy, bracket(g, x, xy), bracket(g, y, bracket(g, y, x))
                )
            ]
            if bch_product(g, f, x, y) != closed:
                ok = False
    report("7", ok, "3-step closed form")
    assert ok


def test_criterion_07_matrix_oracle():
    sampler = GridSampler(747)
    heis = catalog.get("heisenberg").algebra
    f_h = lower_central_series(heis)
    fil = catalog.get("filiform(5)").algebra
    f_f = lower_central_series(fil)
    ok = True
    for _ in range(25):
        x, y = sampler.vector(3), sampler.vector(3)
        if bch_product(heis, f_h, x, y) != matrix_group_product(
            heisenberg_matrix, heisenberg_coords, x, y
        ):
            ok = False
        x, y = sampler.vector(5), sampler.vector(5)
        if bch_product(fil, f_f, x, y) != matrix_group_product(
            filiform5_matrix, filiform5_coords, x, y
        ):
            ok = False
    report("7", ok, "unitriangular exp/log oracle")
    assert ok


# --- criterion 8: enumerations verbatim


def test_criterion_08_enumerations():
    t3 = enumerate_T(3, 5)
    t4 = enumerate_T(4, 5)
    t5 = enumerate_T(5, 5)
    j2 = candidate_values(2)
    j4 = candidate_values(4)
    j5 = candidate_values(5)
    ok = (
        t3 == [(1, 1)]
        and t4 == [(1, 1), (1, 2), (1, 1, 1)]
        and t5 == t4 + [(1, 3), (2, 2), (1, 1, 2), (2, 1, 1), (1, 1, 1, 1)]
        and j2 == [F(0)]
        and j4 == [F(0), F(1, 2), F(2, 3), F(3, 4)]
        and j5 == [F(0), F(2, 5), F(1, 2), F(3, 5), F(2, 3), F(3, 4), F(4, 5)]
    )
    report("8", ok)
    assert ok


# --- criterion 9: difference-law property suite


@pytest.mark.parametrize(
    "name", ["g5_5", "g6_2", "g6_11", "g6_12", "g6_13", "g6_17", "g6_19", "g6_20"]
)
def test_criterion_09_goodman_bounds(name):
    g = catalog.get(name).algebra
    res = e_invariant(g)
    ladder = [F(2) ** k for k in range(21)]
    rep = goodman_check(g, res.witness, 200, ladder, seed=GOODMAN_SEED)
    segs = segment_constants(rep)
    ratio = segs[-1] / segs[0] if segs[0] > 0 else float("inf")
    ok = (
        not rep.identically_zero
        and rep.fitted_slope <= float(rep.e_d) + 0.1
        and ratio <= 2.0
    )
    report("9", ok, f"{name}: slope = {rep.fitted_slope:.3f}, e_D = {rep.e_d}, ratio = {ratio:.3f}")
    assert rep.fitted_slope <= float(rep.e_d) + 0.1
    assert ratio <= 2.0


@pytest.mark.parametrize("name", ["heisenberg", "filiform(5)"])
def test_criterion_09_carnot_entries_zero(name):
    g = catalog.get(name).algebra
    res = e_invariant(g)
    ladder = [F(2) ** k for k in range(21)]
    rep = goodman_check(g, res.witness, 200, ladder, seed=GOODMAN_SEED)
    report("9", rep.identically_zero, f"{name}: identically zero")
    assert rep.identically_zero


# --- criterion 10: invariant suites


def test_criterion_10_jacobi_all_entries():
    ok = all(check_jacobi(e.algebra) == [] for e in catalog.entries())
    report("10", ok, "Jacobi emptiness")
    assert ok


def test_criterion_10_delta_properties():
    from nilgrade.lie import adapted_basis
    from nilgrade.derivability import grading_operator_space

    g = catalog.get("g6_12").algebra
    f = lower_central_series(g)
    ab = adapted_basis(g, f)
    base, dirs = grading_operator_space(g, f, ab)
    sampler = GridSampler(1010)
    ok = True
    for _ in range(15):
        x, y, z = sampler.vector(6), sampler.vector(6), sampler.vector(6)
        d2 = GradingOperator.from_rows(mat_add(base.rows, dirs[2]))
        summed = GradingOperator.from_rows(mat_add(base.rows, d2.rows))
        linear = delta_n(g, summed, [x, y]) == [
            a + b for a, b in zip(delta_n(g, base, [x, y]), delta_n(g, d2, [x, y]))
        ]
        alternating = delta_n(g, base, [x, y, z]) == [
            -c for c in delta_n(g, base, [x, z, y])
        ]
        if not (linear and alternating):
            ok = False
    report("10", ok, "delta linear in D, alternating in last two slots")
    assert ok


@pytest.mark.parametrize(
    "name",
    [e.name for e in catalog.entries()] + ["filiform(5)", "central_product(2,4)"],
)
def test_criterion_10_monotonicity(name):
    g = catalog.get(name).algebra
    c = lower_central_series(g).nilpotency_class
    if c < 2:
        pytest.skip("no candidate values below class 2")
    feasible = [
        is_A_derivable(g, r_condition_set(c, r)) is not None for r in candidate_values(c)
    ]
    ok = feasible == sorted(feasible) and feasible[-1]
    report("10", ok, f"{name}: feasibility profile {feasible}")
    assert ok


@pytest.mark.parametrize(
    "name", ["g5_5", "g6_11", "g6_12", "g6_13", "g6_17", "g6_19", "g6_20", "g6_2"]
)
def test_criterion_10_carnot_e_zero(name):
    g = catalog.get(name).algebra
    ca = carnot_algebra(g, e_invariant(g).witness)
    got = e_invariant(ca.algebra).e
    report("10", got == 0, f"{name}: e of graded companion = {got}")
    assert got == 0
