"""Guivarch norms, dilations, and the empirical difference-law exponent check.

All law differences are computed exactly; floating point enters only
through the norms and the fitted slope.  Sampling uses a fixed 64-bit
linear congruential generator so reports are bit-reproducible from the
seed alone.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import bch, carnot
from .carnot import CarnotAlgebra
from .derivability import GradingOperator, e_of_operator
from .lie import LieAlgebra
from .linalg import Vec, clear_denominators, q

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1
_GRID = tuple(Fraction(k, 16) for k in range(-16, 17))  # the 33 coordinates k/16, made once


class GridSampler:
    """Seeded LCG drawing grid coordinates k/16, one state step per draw."""

    def __init__(self, seed: int):
        self.state = seed & _LCG_MASK

    def draw(self) -> Fraction:
        self.state = (_LCG_A * self.state + _LCG_C) & _LCG_MASK
        return _GRID[(self.state >> 32) % len(_GRID)]

    def vector(self, dim: int) -> Vec:
        return [self.draw() for _ in range(dim)]


@dataclass(frozen=True)
class GuivarchContext:
    """Layer degree of each eigenbasis coordinate; the layer norm is the
    maximum absolute value of the coordinates in that layer."""

    degrees: tuple[int, ...]

    @staticmethod
    def for_carnot(ca: CarnotAlgebra) -> "GuivarchContext":
        return GuivarchContext(tuple(ca.degrees))


def _root_float(value: Fraction, i: int) -> float:
    """|value|**(1/i) as float, robust to very large numerators."""
    return _root_ratio(abs(value.numerator), value.denominator, i)


def _root_ratio(num: int, den: int, i: int) -> float:
    """(num / den)**(1/i) as float for integers num >= 0 and den > 0.

    The fraction is reduced first, so equal fractions give the same float
    however they are written.
    """
    if num == 0:
        return 0.0
    common = math.gcd(num, den)
    num, den = num // common, den // common
    log2 = (num.bit_length() - 1) + math.log2(num / (1 << (num.bit_length() - 1)))
    log2 -= (den.bit_length() - 1) + math.log2(den / (1 << (den.bit_length() - 1)))
    return 2.0 ** (log2 / i)


def _one_float(seen: list[tuple[float, int, int, int]], r: float, num: int, den: int, i: int) -> float:
    """r, the float of the exact radius (num / den)^(1/i), or that of an equal radius in seen.

    One radius reached through different layers, as 5/3 through 80/48 at
    layer 1 and 2000/432 at layer 3, can round to floats an ulp apart.
    Radii are equal iff (num / den)^j = (num' / den')^i, which is checked
    against the radii in seen (sorted by float) within a relative 1e-9 of
    r only, far above the roots' rounding error.  A new radius is recorded.
    """
    start = bisect.bisect_left(seen, (r * (1 - 1e-9),))
    for f, num2, den2, j in seen[start:]:
        if f > r * (1 + 1e-9):
            break
        if num**j * den2**i == num2**i * den**j:
            return f
    bisect.insort(seen, (r, num, den, i))
    return r


def guivarch_norm(ctx: GuivarchContext, x: Sequence[Fraction]) -> float:
    """max over layers i of (max |coordinate| in layer i)^(1/i)."""
    if len(x) != len(ctx.degrees):
        raise ValueError("dimension mismatch")
    best = 0.0
    for deg, coord in zip(ctx.degrees, x):
        if coord:
            best = max(best, _root_float(q(coord), deg))
    return best


def dilate(ctx: GuivarchContext, t: Fraction, x: Sequence[Fraction]) -> Vec:
    """Multiply the layer-i component by t^i, exactly.

    On integers: x = X / xden and t = num / tden from `clear_denominators`,
    (num^i, xden tden^i) formed once per layer degree i, and each coordinate
    one Fraction(X_k num^i, xden tden^i): one normalisation, no Fraction
    power or product.
    """
    t = q(t)
    if t <= 0:
        raise ValueError("dilation parameter must be positive")
    if len(x) != len(ctx.degrees):
        raise ValueError("dimension mismatch")
    tden, (num,) = clear_denominators([t])
    xden, ints = clear_denominators([q(coord) for coord in x])
    powers = {deg: (num**deg, xden * tden**deg) for deg in set(ctx.degrees)}
    out: Vec = []
    for deg, a in zip(ctx.degrees, ints):
        tn, td = powers[deg]
        out.append(Fraction(a * tn, td))
    return out


def fit_exponent(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log v against log r; needs >= 2 points, r > 1."""
    if len(points) < 2:
        raise ValueError("need at least two points")
    if any(r <= 1 for r, _ in points):
        raise ValueError("all r must exceed 1")
    if any(v <= 0 for _, v in points):
        raise ValueError("all values must be positive")
    xs = [math.log(r) for r, _ in points]
    ys = [math.log(v) for _, v in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("need at least two distinct r values")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


@dataclass(frozen=True)
class GoodmanSample:
    pair_index: int
    t: Fraction
    r: float
    diff_norm: float


@dataclass(frozen=True)
class GoodmanReport:
    e_d: Fraction
    samples: tuple[GoodmanSample, ...]
    fitted_slope: float | None
    constant_estimate: float
    seed: int
    identically_zero: bool

    def to_json_dict(self) -> dict:
        return {
            "e_D": str(self.e_d),
            "seed": str(self.seed),
            "identically_zero": self.identically_zero,
            "fitted_slope": None if self.fitted_slope is None else f"{self.fitted_slope:.12g}",
            "constant_estimate": f"{self.constant_estimate:.12g}",
            "samples": [
                {
                    "pair": str(s.pair_index),
                    "t": str(s.t),
                    "r": f"{s.r:.12g}",
                    "diff_norm": f"{s.diff_norm:.12g}",
                }
                for s in self.samples
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def goodman_check(
    g: LieAlgebra,
    d: GradingOperator,
    n_samples: int,
    t_ladder: Sequence[Fraction],
    seed: int,
) -> GoodmanReport:
    """Sample the inequality between the two laws attached to (g, D).

    Base pairs are drawn on the grid in [-1, 1], dilated through the
    ladder; the law difference is exact.  Its weight-w part P_{k,w} has
    P_{k,w}(δ_t x, δ_t y) = t^w P_{k,w}(x, y) and the Carnot law is the
    top-weight part, so the ladder (`bch.law_difference_ladder`, here its
    integer form) evaluates each pair once for the whole ladder.  The
    radius max(|δ_t x|, |δ_t y|) takes one root per nonempty layer i: that
    of t^i times the largest magnitude of a layer-i coordinate of x or y,
    exactly.  δ_t scales the whole layer by the same t^i > 0, and distinct
    grid magnitudes differ by a factor >= 16/15, which the float roots keep
    in order, so this is the larger norm of the two dilated vectors, bit
    for bit.  δ_t multiplies every layer's root by the same t, so a layer
    whose root at t = 1 lies below the largest by more than a relative 1e-9
    (the window `_one_float` reads, far above the roots' rounding error)
    never gives a rung's radius: each pair takes every layer's root once at
    t = 1, and each rung only those of the layers within that window, in
    the same order.  Both the radius and the difference's norm run on
    integers: the pair's and each rung's from `clear_denominators`, t^i as
    num^i / tden^i once per rung and layer, and each difference coordinate
    as an integer over its degree's denominator.  Every root reduces its
    integer ratio by the gcd first (`_root_ratio`), which gives the reduced
    fraction that a Fraction would hold, and so the same float, whatever the
    ladder: a rung's denominator may be any positive integer.  The report
    carries the fitted exponent
    plus the best constant for diff <= C * max(1, r)^(e_D).  The fit gives
    each exact radius one float (`_one_float`): a radius reached through
    two layers may round to two floats an ulp apart, which a fit would
    read as two radii.  The exponent is 0 when the difference is
    identically zero and None when it is not but fewer than two distinct
    exact radii r > 1 carry a nonzero difference.  Raises
    ValueError when there is no pair or no ladder value to sample.
    """
    if n_samples < 1 or not t_ladder:
        raise ValueError("need at least one sample pair and one ladder value")
    g_eig, ca = carnot.carnot_pair(g, d)
    degrees = ca.degrees
    layers = sorted(set(degrees))
    e_d = e_of_operator(g, d)
    e_float = float(e_d)
    ts = [q(t) for t in t_ladder]
    rungs = [clear_denominators([t]) for t in ts]
    # t^i = num^i / tden^i for each rung and layer i
    scales = [{i: (num**i, tden**i) for i in layers} for tden, (num,) in rungs]
    sampler = GridSampler(seed)
    samples: list[GoodmanSample] = []
    constant = 0.0
    fit_points: list[tuple[float, float]] = []
    all_zero = True
    radii: list[tuple[float, int, int, int]] = []  # each exact fit radius and its one float
    for index in range(n_samples):
        z1, z2 = sampler.vector(g.dim), sampler.vector(g.dim)
        ladder = bch._ladder_integers(g_eig, degrees, z1, z2, rungs)
        den, ints = clear_denominators([*z1, *z2])
        peaks: dict[int, int] = {}  # layer -> den * largest coordinate magnitude, if nonzero
        for deg, a, b in zip(degrees, ints, ints[g.dim :]):
            m = max(abs(a), abs(b))
            if m > peaks.get(deg, 0):
                peaks[deg] = m
        # every layer's root scales by t, so only the layers near the largest root at t = 1 can win a rung
        roots = {k: _root_ratio(m, den, k) for k, m in peaks.items()}
        floor = max(roots.values(), default=0.0) * (1 - 1e-9)
        near = [(k, m) for k, m in peaks.items() if roots[k] >= floor]
        for t, scale, (totals, dens) in zip(ts, scales, ladder):
            r, num, rden, i = 0.0, 0, 1, 1  # the radius as a float and exactly, as (num / rden)^(1/i)
            for k, m in near:
                a, b = m * scale[k][0], den * scale[k][1]
                root = _root_ratio(a, b, k)
                if root > r:
                    r, num, rden, i = root, a, b, k
            dn = max((_root_ratio(abs(s), dens[deg], deg) for s, deg in zip(totals, degrees) if s), default=0.0)
            samples.append(GoodmanSample(index, t, r, dn))
            if dn > 0:
                all_zero = False
                constant = max(constant, dn / max(1.0, r) ** e_float)
                if r > 1:
                    fit_points.append((_one_float(radii, r, num, rden, i), dn))
    estimable = len({r for r, _ in fit_points}) >= 2
    if estimable:
        slope = fit_exponent(fit_points)
    else:
        slope = 0.0 if all_zero else None
    return GoodmanReport(
        e_d=e_d,
        samples=tuple(samples),
        fitted_slope=slope,
        constant_estimate=constant,
        seed=seed,
        identically_zero=all_zero,
    )


def segment_constants(report: GoodmanReport) -> list[float]:
    """Best constant per ladder position, ordered as the ladder was run."""
    by_t: dict[Fraction, float] = {}
    order: list[Fraction] = []
    e_float = float(report.e_d)
    for s in report.samples:
        if s.t not in by_t:
            by_t[s.t] = 0.0
            order.append(s.t)
        if s.diff_norm > 0:
            by_t[s.t] = max(by_t[s.t], s.diff_norm / max(1.0, s.r) ** e_float)
    return [by_t[t] for t in order]

