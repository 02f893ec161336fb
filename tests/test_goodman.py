"""Guivarch norms, dilations, exponent fitting, difference-law sampling."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import four_step_components, grid_vectors, layer_component
from test_bch import counting_fractions, two_products

from nilgrade import bch, catalog, goodman
from nilgrade.bch import law_difference
from nilgrade.carnot import carnot_pair
from nilgrade.derivability import e_invariant
from nilgrade.goodman import (
    GoodmanSample,
    GridSampler,
    GuivarchContext,
    _root_float,
    _one_float,
    _root_ratio,
    dilate,
    fit_exponent,
    goodman_check,
    guivarch_norm,
    segment_constants,
)
from nilgrade.linalg import q, vec, zero_vec

coords = st.fractions(min_value=-4, max_value=4, max_denominator=16)

CTX = GuivarchContext((1, 1, 2, 3, 4))


def test_norm_examples():
    ctx = GuivarchContext((1, 1, 2, 3, 4, 4))
    assert guivarch_norm(ctx, vec([2, 0, 0, 0, 0, 0])) == 2.0
    assert guivarch_norm(ctx, vec([0, 0, 9, 0, 0, 0])) == 3.0
    # max(2, 8^(1/4)) = 2
    assert guivarch_norm(ctx, vec([2, 0, 0, 0, 0, 8])) == 2.0
    assert guivarch_norm(ctx, zero_vec(6)) == 0.0


def test_norm_zero_iff_zero():
    assert guivarch_norm(CTX, zero_vec(5)) == 0.0
    assert guivarch_norm(CTX, vec([0, 0, 0, 0, F(1, 1000)])) > 0.0


def test_norm_handles_huge_entries():
    big = F(2) ** 400
    value = guivarch_norm(GuivarchContext((4,)), [big])
    assert math.isclose(value, 2.0**100, rel_tol=1e-9)


@pytest.mark.parametrize(
    "num, den, scale, i", [(70446, 298427, 1035, 5), (123647, 519502, 7366, 8), (683245, 398056, 3441, 2)]
)
def test_integer_root_reduces_its_ratio_first(num, den, scale, i):
    # the float root of num/den in lowest terms differs in its last bits from
    # the same formula run on scale*num over scale*den, so the integer root
    # must reduce to give the Fraction's float
    assert _root_ratio(scale * num, scale * den, i) == _root_float(F(num, den), i) == _root_float(F(-num, den), i)


def test_dilate_examples():
    x = vec([1, 2, 3, 4, 5])
    assert dilate(CTX, F(1), x) == x
    assert dilate(CTX, F(2), x) == vec([2, 4, 12, 32, 80])
    heis = GuivarchContext((1, 1, 2))
    assert dilate(heis, F(2), vec([0, 0, 1])) == vec([0, 0, 4])
    with pytest.raises(ValueError):
        dilate(CTX, F(0), x)


@settings(max_examples=40, deadline=None)
@given(st.lists(coords, min_size=5, max_size=5), st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8))
def test_norm_homogeneity(x, t):
    lhs = guivarch_norm(CTX, dilate(CTX, t, x))
    rhs = float(t) * guivarch_norm(CTX, x)
    assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(coords, min_size=5, max_size=5), st.lists(coords, min_size=5, max_size=5))
def test_norm_subadditive(x, y):
    s = guivarch_norm(CTX, [a + b for a, b in zip(x, y)])
    assert s <= guivarch_norm(CTX, x) + guivarch_norm(CTX, y) + 1e-9


def test_fit_exponent_examples():
    points = [(r, r**0.5) for r in (2.0, 4.0, 8.0, 16.0)]
    assert math.isclose(fit_exponent(points), 0.5, rel_tol=1e-9)
    points = [(r, 3 * r ** (2 / 3)) for r in (2.0, 4.0, 8.0)]
    assert math.isclose(fit_exponent(points), 2 / 3, rel_tol=1e-9)
    with pytest.raises(ValueError):
        fit_exponent([(2.0, 1.0)])
    with pytest.raises(ValueError):
        fit_exponent([(0.5, 1.0), (2.0, 1.0)])


def test_sampler_is_reproducible_and_on_grid():
    a = GridSampler(123)
    b = GridSampler(123)
    va, vb = a.vector(20), b.vector(20)
    assert va == vb
    assert all(-1 <= c <= 1 and c.denominator in (1, 2, 4, 8, 16) for c in va)
    assert grid_vectors(123, 20, 1)[0] == va


dilation_inputs = st.one_of(coords, st.integers(-40, 40), coords.map(str), st.just(0), st.just(F(0)))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=8).flatmap(
        lambda ds: st.tuples(st.just(tuple(ds)), st.lists(dilation_inputs, min_size=len(ds), max_size=len(ds)))
    ),
    st.one_of(
        st.fractions(min_value=F(1, 50), max_value=50, max_denominator=50),
        st.integers(1, 9),
        st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9).map(str),
    ),
)
def test_dilate_matches_the_fraction_power(case, t):
    # on integer, string, zero and negative coordinates and any positive t,
    # the integer form gives the Fractions of q(c) * q(t)**d, each a Fraction
    degrees, x = case
    ctx = GuivarchContext(degrees)
    out = dilate(ctx, t, x)
    assert out == [q(c) * q(t) ** d for d, c in zip(degrees, x)]
    assert all(type(c) is F for c in out)


@pytest.mark.parametrize(
    "t, x, message",
    [(t, vec([1, 2, 3, 4, 5]), "dilation parameter must be positive") for t in (F(0), 0, "0", F(-1, 3), -2, "-5/4")]
    + [(F(3, 2), x, "dimension mismatch") for x in (vec([1, 2, 3, 4]), vec([1, 2, 3, 4, 5, 6]), [])],
)
def test_dilate_rejects_a_parameter_that_is_not_positive_or_a_length_mismatch(t, x, message):
    with pytest.raises(ValueError, match=message):
        dilate(CTX, t, x)


@pytest.mark.parametrize("seed", [0, 1, 123, 2**32 + 7, 2**64 - 1, 2**70 + 5])
def test_sampler_matches_the_grid_oracle_across_draws_and_vectors(seed):
    # draw() and vector() step one state: interleaved, they read the
    # oracle's stream in order, whatever the lengths
    stream = [c for v in grid_vectors(seed, 1, 120) for c in v]
    sampler = GridSampler(seed)
    drawn = []
    for length in (3, 0, 1, 7, 2, 13, 5):
        drawn.append(sampler.draw())
        drawn += sampler.vector(length)
    assert drawn == stream[: len(drawn)]
    assert all(type(c) is F for c in drawn)


def test_dilate_and_vector_make_few_fractions():
    # dilate makes one Fraction per coordinate (two with a power and a
    # product each) and vector none, its grid values being made once
    ctx = GuivarchContext((1, 1, 1, 2, 3, 3, 4, 5, 6, 8))
    x = GridSampler(5).vector(10)
    for t in (F(2), F(2) ** 16, F(3, 7), F(1)):
        with counting_fractions() as made:
            dilate(ctx, t, x)
        assert len(made) <= len(x), t
    sampler = GridSampler(9)
    with counting_fractions() as made:
        sampler.vector(50)
        sampler.draw()
    assert made == []


def test_goodman_roots_only_the_layers_near_the_largest(monkeypatch):
    # each pair roots every layer once at t = 1, and each rung only the
    # layers within 1e-9 of the largest of those roots: 8 pairs on 9 rungs
    # of central_product(5,8)'s 8 layers took 648 roots when every rung
    # rooted every nonempty layer
    g = catalog.get("central_product(5,8)").algebra
    d = e_invariant(g).witness
    calls = []
    root = goodman._root_ratio

    def counted(num, den, i):
        calls.append(i)
        return root(num, den, i)

    monkeypatch.setattr(goodman, "_root_ratio", counted)
    goodman_check(g, d, 8, [F(2) ** k for k in range(9)], seed=1)
    assert 0 < len(calls) <= 300


@pytest.mark.parametrize("n_samples, ladder", [(0, [F(1), F(2)]), (-3, [F(1)]), (2, [])])
def test_goodman_check_rejects_empty_sample_set(n_samples, ladder):
    g = catalog.get("g6_2").algebra
    with pytest.raises(ValueError, match="at least one sample pair"):
        goodman_check(g, e_invariant(g).witness, n_samples, ladder, seed=1)


def test_goodman_check_identically_zero_for_carnot():
    g = catalog.get("filiform(5)").algebra
    res = e_invariant(g)
    report = goodman_check(g, res.witness, 20, [F(2) ** k for k in range(5)], seed=5)
    assert report.identically_zero
    assert report.fitted_slope == 0.0
    assert report.constant_estimate == 0.0
    assert all(s.diff_norm == 0.0 for s in report.samples)


def test_goodman_check_g6_11_slope():
    g = catalog.get("g6_11").algebra
    res = e_invariant(g)
    ladder = [F(2) ** k for k in range(11)]
    report = goodman_check(g, res.witness, 60, ladder, seed=2026)
    assert report.e_d == F(1, 2)
    assert not report.identically_zero
    assert report.fitted_slope <= 0.5 + 0.1
    assert report.constant_estimate > 0


def test_goodman_check_deterministic():
    g = catalog.get("g6_2").algebra
    res = e_invariant(g)
    ladder = [F(2) ** k for k in range(6)]
    r1 = goodman_check(g, res.witness, 10, ladder, seed=99)
    r2 = goodman_check(g, res.witness, 10, ladder, seed=99)
    assert r1 == r2
    assert r1.to_json() == r2.to_json()


def test_goodman_report_json_fields():
    g = catalog.get("g6_2").algebra
    res = e_invariant(g)
    report = goodman_check(g, res.witness, 5, [F(1), F(2)], seed=7)
    doc = json.loads(report.to_json())
    assert doc["e_D"] == "2/3"
    assert doc["seed"] == "7"
    assert len(doc["samples"]) == 10
    sample = doc["samples"][0]
    assert set(sample) == {"pair", "t", "r", "diff_norm"}
    # numbers are serialized as strings; every r > 1 here is 2, so no
    # slope can be fitted and fitted_slope is null
    assert isinstance(sample["r"], str) and doc["fitted_slope"] is None


def test_one_radius_reached_through_two_layers_is_one_fit_radius():
    # g6_2's two pairs reach the radius 5/3 through layer 1 (80/48) and
    # through layer 3 (2000/432); the floats differ in the last place, and
    # a fit through them would give a slope of order 1e15
    g = catalog.get("g6_2").algebra
    report = goodman_check(g, e_invariant(g).witness, 2, [F(5, 3)], seed=2)
    radii = [s.r for s in report.samples]
    assert radii == [1.6666666666666665, 1.6666666666666667]
    assert all(s.diff_norm > 0 for s in report.samples)
    assert report.fitted_slope is None and not report.identically_zero


def test_one_float_compares_radii_exactly():
    seen = []
    five_thirds = _root_ratio(80, 48, 1)
    assert _one_float(seen, five_thirds, 80, 48, 1) == five_thirds
    # (2000/432)^(1/3) = 5/3 exactly, whatever its float
    assert _one_float(seen, math.nextafter(five_thirds, 2), 2000, 432, 3) == five_thirds
    # a different radius within an ulp keeps its own float
    other = math.nextafter(five_thirds, 2)
    assert _one_float(seen, other, 5 * 2**60 + 1, 3 * 2**60, 1) == other
    assert len(seen) == 2


def test_sample_ordering():
    g = catalog.get("g6_2").algebra
    res = e_invariant(g)
    ladder = [F(1), F(2), F(4)]
    report = goodman_check(g, res.witness, 3, ladder, seed=1)
    keys = [(s.pair_index, s.t) for s in report.samples]
    assert keys == [(p, t) for p in range(3) for t in ladder]


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize(
    "name", [e.name for e in catalog.entries()] + ["filiform(8)", "central_product(4,7)"]
)
def test_goodman_samples_match_per_rung_law_difference(monkeypatch, name, seed):
    # each pair's law difference is evaluated once for its whole ladder,
    # never rung by rung, and no rung dilates a vector: its radius takes one
    # root per layer; every sample is still the norm of the per-rung
    # difference of the dilated pair, at the larger of the two dilated norms
    g = catalog.get(name).algebra
    d = e_invariant(g).witness
    ladder = [F(1), F(3, 7), F(2), F(5, 2), F(2), F(64)]
    monkeypatch.setattr(bch, "law_difference", None)
    monkeypatch.setattr(goodman, "dilate", None)
    report = goodman_check(g, d, 6, ladder, seed=seed)
    monkeypatch.undo()
    g_eig, ca = carnot_pair(g, d)
    ctx = GuivarchContext.for_carnot(ca)
    sampler = GridSampler(seed)
    expected = []
    for index in range(6):
        z1, z2 = sampler.vector(g.dim), sampler.vector(g.dim)
        for t in ladder:
            z1t, z2t = dilate(ctx, t, z1), dilate(ctx, t, z2)
            r = max(guivarch_norm(ctx, z1t), guivarch_norm(ctx, z2t))
            diff = two_products(g_eig, ca, z1t, z2t)
            expected.append(GoodmanSample(index, t, r, guivarch_norm(ctx, diff)))
    assert list(report.samples) == expected


RADIUS_ALGEBRAS = ["heisenberg", "g6_2", "g6_11", "g7_0_8", "filiform(8)", "central_product(4,7)"]
rungs = st.fractions(min_value=F(1, 1000), max_value=70000, max_denominator=1000)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(RADIUS_ALGEBRAS),
    st.integers(0, 2**64 - 1),
    st.lists(rungs, max_size=4).flatmap(lambda ts: st.permutations(ts + [F(3, 7), F(5, 2)])),
    st.integers(1, 3),
)
# g6_2's first pair at seed 8 peaks at magnitude 1 in layers 1 and 2, whose
# roots are then the same float at every one of these rungs
@example("g6_2", 8, [F(3, 7), F(5, 2), F(1), F(2) ** 16, F(5, 3), F(1, 3)], 1)
def test_goodman_radius_is_the_larger_dilated_norm_bit_for_bit(name, seed, ladder, n_samples):
    # on random grid pairs (any seed) and rational ladders, the radius taken
    # from one root per layer is the float the dilated vectors' norms give
    g = catalog.get(name).algebra
    d = e_invariant(g).witness
    report = goodman_check(g, d, n_samples, ladder, seed=seed)
    ctx = GuivarchContext.for_carnot(carnot_pair(g, d)[1])
    sampler = GridSampler(seed)
    radii = []
    for _ in range(n_samples):
        z1, z2 = sampler.vector(g.dim), sampler.vector(g.dim)
        radii += [max(guivarch_norm(ctx, dilate(ctx, t, z1)), guivarch_norm(ctx, dilate(ctx, t, z2))) for t in ladder]
    assert [s.r for s in report.samples] == radii


@pytest.mark.parametrize("ladder", [[F(1), F(0)], [F(-1, 2)], [F(2), F(-3)]])
def test_goodman_check_rejects_a_rung_that_is_not_positive(ladder):
    g = catalog.get("g6_11").algebra
    with pytest.raises(ValueError, match="dilation parameter must be positive"):
        goodman_check(g, e_invariant(g).witness, 2, ladder, seed=1)


def test_three_step_diff_norm_matches_closed_form():
    # before norming, the difference equals [x1, y1]_3 / 2 exactly
    g = catalog.get("g6_2").algebra
    res = e_invariant(g)
    g_eig, ca = carnot_pair(g, res.witness)
    ctx = GuivarchContext.for_carnot(ca)
    sampler = GridSampler(31)
    from nilgrade.lie import bracket

    for _ in range(15):
        x, y = sampler.vector(6), sampler.vector(6)
        diff = law_difference(g_eig, ca, x, y)
        x1 = layer_component(ctx, x, 1)
        y1 = layer_component(ctx, y, 1)
        closed = [F(1, 2) * c for c in layer_component(ctx, bracket(g_eig, x1, y1), 3)]
        assert diff == closed


def test_four_step_decomposition_and_bounds():
    # the four pieces sum to the law difference exactly and obey the
    # stated growth bounds with one uniform constant
    rng = random.Random(17)
    for name in ("g5_5", "g6_11", "g6_12"):
        g = catalog.get(name).algebra
        res = e_invariant(g)
        g_eig, ca = carnot_pair(g, res.witness)
        ctx = GuivarchContext.for_carnot(ca)
        sampler = GridSampler(101)
        for _ in range(10):
            x0, y0 = sampler.vector(g.dim), sampler.vector(g.dim)
            t = F(2) ** rng.randint(0, 8)
            x, y = dilate(ctx, t, x0), dilate(ctx, t, y0)
            m1, m2, m3, m4 = four_step_components(g_eig, ctx, x, y)
            total = [a + b + c + d for a, b, c, d in zip(m1, m2, m3, m4)]
            assert total == law_difference(g_eig, ca, x, y)
            r = max(guivarch_norm(ctx, x), guivarch_norm(ctx, y), 1e-9)
            c_uniform = 4.0
            assert guivarch_norm(ctx, m1) <= c_uniform * r ** (2 / 3)
            assert guivarch_norm(ctx, m2) <= c_uniform * r ** (1 / 2)
            assert guivarch_norm(ctx, m3) <= c_uniform * r ** (3 / 4)
            assert guivarch_norm(ctx, m4) <= c_uniform * r ** (3 / 4)


def test_segment_constants_bounded():
    g = catalog.get("g5_5").algebra
    res = e_invariant(g)
    ladder = [F(2) ** k for k in range(13)]
    report = goodman_check(g, res.witness, 40, ladder, seed=404)
    segs = segment_constants(report)
    assert len(segs) == 13
    assert segs[0] > 0
    assert segs[-1] / segs[0] <= 2.0
