"""Truncated Baker-Campbell-Hausdorff group laws and their difference.

Coefficients are not hard-coded: log(exp x . exp y) is computed in the
free associative algebra on two generators, truncated at the nilpotency
class, and the homogeneous components are re-expressed exactly over
left-nested bracket words by solving the corresponding linear system.
A fixed preference order on words puts the textbook low-degree terms
(1/2 [x,y], 1/12 of the degree-3 pair, -1/24 at degree 4) in their
classical slots; any other choice would evaluate identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Sequence

from . import lie
from .carnot import CarnotAlgebra
from .lie import Filtration, LieAlgebra
from .linalg import AffineSystem, Vec, ZERO, q

LEFT, RIGHT = 0, 1
Word = tuple[int, ...]
_Parts = dict[int, list[int]]

MAX_SUPPORTED_CLASS = 8

# Preferred slots for the nonzero coefficients, lowest degrees first the
# classical ones; longer lists follow the right-nested presentations in
# common use.  Correctness never depends on these: they only select which
# spanning words carry the weight.
_PREFERRED: dict[int, tuple[Word, ...]] = {
    2: ((LEFT, RIGHT),),
    3: ((LEFT, LEFT, RIGHT), (RIGHT, RIGHT, LEFT)),
    4: ((RIGHT, LEFT, LEFT, RIGHT),),
    5: (
        (RIGHT, RIGHT, RIGHT, RIGHT, LEFT),
        (LEFT, LEFT, LEFT, LEFT, RIGHT),
        (LEFT, RIGHT, RIGHT, RIGHT, LEFT),
        (RIGHT, LEFT, LEFT, LEFT, RIGHT),
        (RIGHT, LEFT, RIGHT, LEFT, RIGHT),
        (LEFT, RIGHT, LEFT, RIGHT, LEFT),
    ),
    6: (
        (RIGHT, LEFT, LEFT, LEFT, RIGHT, LEFT),
        (RIGHT, RIGHT, LEFT, LEFT, RIGHT, LEFT),
        (RIGHT, LEFT, RIGHT, LEFT, RIGHT, LEFT),
        (RIGHT, RIGHT, RIGHT, LEFT, RIGHT, LEFT),
        (RIGHT, LEFT, RIGHT, RIGHT, RIGHT, LEFT),
    ),
}


@dataclass(frozen=True)
class BCHTermTable:
    """Coefficient of the left-nested bracket of every word of length 2..c."""

    coeffs: dict[Word, Fraction]

    @cached_property
    def nonzero(self) -> list[tuple[Word, Fraction]]:
        return [(w, c) for w, c in sorted(self.coeffs.items()) if c != 0]


def _series_mul(a: list[dict[Word, Fraction]], b: list[dict[Word, Fraction]], cap: int):
    out: list[dict[Word, Fraction]] = [dict() for _ in range(cap + 1)]
    for da, ta in enumerate(a):
        if not ta:
            continue
        for db in range(0, cap - da + 1):
            tb = b[db]
            if not tb:
                continue
            dest = out[da + db]
            for wa, ca in ta.items():
                for wb, cb in tb.items():
                    w = wa + wb
                    v = dest.get(w, ZERO) + ca * cb
                    if v:
                        dest[w] = v
                    else:
                        dest.pop(w, None)
    return out


@lru_cache(maxsize=None)
def _log_components() -> tuple[dict[Word, Fraction], ...]:
    """Homogeneous components of log(exp x . exp y) up to degree
    MAX_SUPPORTED_CLASS, each exact, so the one series serves every degree."""
    cap = MAX_SUPPORTED_CLASS
    fact = [1]
    for k in range(1, cap + 1):
        fact.append(fact[-1] * k)
    u: list[dict[Word, Fraction]] = [dict() for _ in range(cap + 1)]
    for i in range(cap + 1):
        for j in range(cap - i + 1):
            if i == j == 0:
                continue
            word = (LEFT,) * i + (RIGHT,) * j
            u[i + j][word] = Fraction(1, fact[i] * fact[j])
    log: list[dict[Word, Fraction]] = [dict() for _ in range(cap + 1)]
    power = [dict() for _ in range(cap + 1)]
    power[0][()] = Fraction(1)
    for k in range(1, cap + 1):
        power = _series_mul(power, u, cap)
        sign = Fraction((-1) ** (k + 1), k)
        for deg in range(cap + 1):
            for w, cval in power[deg].items():
                v = log[deg].get(w, ZERO) + sign * cval
                if v:
                    log[deg][w] = v
                else:
                    log[deg].pop(w, None)
    return tuple(log)


def _beta_assoc(word: Word) -> dict[Word, Fraction]:
    """Left-nested bracket of a word expanded in the associative algebra."""
    if len(word) == 1:
        return {word: Fraction(1)}
    inner = _beta_assoc(word[1:])
    head = (word[0],)
    out: dict[Word, Fraction] = {}
    for w, c in inner.items():
        for ww, cc in ((head + w, c), (w + head, -c)):
            v = out.get(ww, ZERO) + cc
            if v:
                out[ww] = v
            else:
                out.pop(ww, None)
    return out


def _word_order(n: int) -> list[Word]:
    preferred = list(_PREFERRED.get(n, ()))
    all_words = [tuple((w >> k) & 1 for k in range(n - 1, -1, -1)) for w in range(2**n)]

    def run_length(w: Word) -> int:
        r = 1
        while r < len(w) and w[r] == w[0]:
            r += 1
        return r

    rest = [w for w in all_words if w not in preferred]
    rest.sort(key=lambda w: (-run_length(w), w))
    return preferred + rest


@lru_cache(maxsize=None)
def _degree_coeffs(n: int) -> tuple[tuple[Word, Fraction], ...]:
    """Word coefficients b_{n,q} with sum_q b_{n,q} [q_1,...,q_n] = BCH_n."""
    target = _log_components()[n]
    order = _word_order(n)
    # one equation per associative word w: sum_q b_q * beta(q)[w] = BCH_n[w]
    equations: dict[Word, dict[int, Fraction]] = {w: {} for w in target}
    for col, cand in enumerate(order):
        for w, c in _beta_assoc(cand).items():
            equations.setdefault(w, {})[col] = c
    system = AffineSystem(len(order))
    for w in sorted(equations):
        system.add(equations[w], target.get(w, ZERO))
    x = system.particular()
    if x is None:
        raise AssertionError("BCH component is not a combination of nested brackets")
    return tuple(zip(order, x))


@lru_cache(maxsize=None)
def bch_table(c: int) -> BCHTermTable:
    """Coefficients of the BCH series truncated at degree c (2 <= c <= 8), built once per c."""
    if not 2 <= c <= MAX_SUPPORTED_CLASS:
        raise ValueError(f"supported classes are 2..{MAX_SUPPORTED_CLASS}")
    coeffs: dict[Word, Fraction] = {}
    for n in range(2, c + 1):
        coeffs.update(dict(_degree_coeffs(n)))
    return BCHTermTable(coeffs)


@lru_cache(maxsize=None)
def _plan(c: int, cut: int) -> tuple[int, tuple[Word, ...], tuple[tuple[int, Word, int, int], ...]]:
    """(lcd, suffixes, words) for `_weighted_parts` at class c and least degree cut.

    words are those of `bch_table(c)` with len(word) * cut < c, each as
    (first letter, rest, lcd * coeff as an integer, c - len(word)); lcd is
    the least common denominator of their coefficients.  suffixes are the
    distinct proper suffixes of length >= 2 of the words, shortest first,
    so that each comes after its own rest.
    """
    kept = [(w, coeff) for w, coeff in bch_table(c).nonzero if len(w) * cut < c]
    lcd = lcm(1, *(coeff.denominator for _, coeff in kept))
    suffixes = {w[i:] for w, _ in kept for i in range(1, len(w) - 1)}
    words = tuple(
        (w[0], w[1:], coeff.numerator * (lcd // coeff.denominator), c - len(w)) for w, coeff in kept
    )
    return lcd, tuple(sorted(suffixes, key=lambda s: (len(s), s))), words


def _weighted_parts(g: LieAlgebra, c: int, degrees: Sequence[int], x: Vec, y: Vec) -> tuple[_Parts, int]:
    """x + y plus every word of `bch_table(c)`, run once over integers, split by weight.

    x and y are split into parts by `degrees` and enter at their own
    weights; a bracket of weight-a and weight-b parts has weight a + b,
    and only bracket weights below c are kept, so a word is kept iff
    len(word) * min(degrees) < c.  Returns (weighted, common):
    weighted[w][k] / common, with common = lcd * den^c * sigma^(c-1), is
    the weight-w part of coordinate k of x + y + sum_word coeff * [word](x, y).

    Each proper suffix of the words is bracketed once, and the outermost
    bracket is folded: sum_word s_word [word_0, rest] is
    [x, sum_{word_0 = x} s_word rest] + [y, sum_{word_0 = y} s_word rest],
    so each letter's scaled rests are summed per weight and bracketed once
    against that letter's parts.  On nonzero x and y at one weight (as
    `bch_product` calls it) that is 2 + len(suffixes) brackets.
    """
    lcd, suffixes, words = _plan(c, min(degrees))
    den, ints = lie.clear_denominators([*x, *y])
    dim = g.dim
    dens = den * g.sigma
    powers = [1]  # powers[e] = dens^e
    for _ in range(c - 1):
        powers.append(powers[-1] * dens)
    top = lcd * powers[c - 1]
    parts: tuple[_Parts, _Parts] = ({}, {})
    weighted: _Parts = {}
    for side, vec in enumerate((ints[:dim], ints[dim:])):
        for k, s in enumerate(vec):
            if s:
                parts[side].setdefault(degrees[k], [0] * dim)[k] = s
                weighted.setdefault(degrees[k], [0] * dim)[k] += top * s

    def bracket_into(dest: _Parts, letter: int, split: _Parts) -> _Parts:
        # dest += [letter's parts, split], weights below c only
        for b, v in split.items():
            for a, u in parts[letter].items():
                if a + b < c:
                    vec = lie.scaled_bracket(g, u, v)
                    acc = dest.get(a + b)
                    dest[a + b] = vec if acc is None else [t + s for t, s in zip(acc, vec)]
        return dest

    memo: dict[Word, _Parts] = {(LEFT,): parts[LEFT], (RIGHT,): parts[RIGHT]}
    for word in suffixes:
        memo[word] = bracket_into({}, word[0], memo[word[1:]])
    folded: tuple[_Parts, _Parts] = ({}, {})
    for first, rest, num, e in words:
        scale = num * powers[e]
        sums = folded[first]
        for b, v in memo[rest].items():
            acc = sums.get(b)
            sums[b] = [scale * s for s in v] if acc is None else [t + scale * s for t, s in zip(acc, v)]
    for letter, sums in enumerate(folded):
        bracket_into(weighted, letter, sums)
    return weighted, lcd * den**c * g.sigma ** (c - 1)


def bch_product(g: LieAlgebra, f: Filtration, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vec:
    """x * y = log(exp x . exp y), exact, truncated by the nilpotency class.

    f must be `lower_central_series(g)`, else ValueError.  x, y and every
    word run once over integers as a single weight-0 part
    (`_weighted_parts`), so rationals reappear only in one division per
    coordinate.
    """
    if len(x) != g.dim or len(y) != g.dim:
        raise ValueError("dimension mismatch")
    if f is not lie.lower_central_series(g) and f != lie.lower_central_series(g):
        raise ValueError("f must be the lower central series of g")
    c = f.nilpotency_class
    xs = [q(v) for v in x]
    ys = [q(v) for v in y]
    if c < 2:
        return [a + b for a, b in zip(xs, ys)]
    weighted, common = _weighted_parts(g, c, [0] * g.dim, xs, ys)
    return [Fraction(s, common) if s else ZERO for s in weighted.get(0, [0] * g.dim)]


def carnot_product(ca: CarnotAlgebra, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vec:
    """The group law of the Carnot-graded algebra, eigenbasis coordinates."""
    f = lie.lower_central_series(ca.algebra)
    return bch_product(ca.algebra, f, x, y)


def group_inverse(x: Sequence[Fraction]) -> Vec:
    """Inverse for any BCH law: -x."""
    return [-q(v) for v in x]


def law_difference(
    g: LieAlgebra,
    other: CarnotAlgebra | LieAlgebra,
    x: Sequence[Fraction],
    y: Sequence[Fraction],
) -> Vec:
    """bch_product under g minus the product under `other`, exact.

    Both laws must be expressed in one common coordinate system (for a
    CarnotAlgebra companion this is the grading eigenbasis).
    """
    other_alg = other.algebra if isinstance(other, CarnotAlgebra) else other
    a = bch_product(g, lie.lower_central_series(g), x, y)
    b = bch_product(other_alg, lie.lower_central_series(other_alg), x, y)
    return [s - t for s, t in zip(a, b)]


def law_difference_ladder(
    g: LieAlgebra,
    ca: CarnotAlgebra,
    x: Sequence[Fraction],
    y: Sequence[Fraction],
    ts: Sequence[Fraction],
) -> list[Vec]:
    """`law_difference(g, ca, δ_t x, δ_t y)` for every t in ts, from one evaluation.

    g is written in the grading eigenbasis of its Carnot companion ca, and
    δ_t multiplies each degree-i coordinate by t^i.  A bracket of weight-a
    and weight-b parts lands in degrees >= a + b, so the weight-W part
    P_{k,W} (`_weighted_parts` on ca.degrees) scales as t^W.  In a degree-d
    coordinate the top-weight part W = d is the Carnot law and parts W > d
    vanish, so the difference there is sum_{W<d} t^W P_{k,W}: one Fraction
    per coordinate and rung.  Raises ValueError on t <= 0, as `dilate`
    does, and on a class above 8, as `bch_table` does.
    """
    degrees = ca.degrees
    if len(x) != g.dim or len(y) != g.dim or len(degrees) != g.dim:
        raise ValueError("dimension mismatch")
    ts = [q(t) for t in ts]
    if any(t <= 0 for t in ts):
        raise ValueError("dilation parameter must be positive")
    c = lie.lower_central_series(g).nilpotency_class
    if c < 2:
        return [[ZERO] * g.dim for _ in ts]
    # weighted[w][k] * t^w / common is coordinate k's weight-w part
    weighted, common = _weighted_parts(g, c, degrees, [q(v) for v in x], [q(v) for v in y])
    out: list[Vec] = []
    for t in ts:
        num, tden = t.numerator, t.denominator
        row: Vec = []
        for k, d in enumerate(degrees):
            total = sum(
                vec[k] * num**w * tden ** (d - 1 - w) for w, vec in weighted.items() if w < d
            )
            row.append(Fraction(total, common * tden ** (d - 1)) if total else ZERO)
        out.append(row)
    return out
