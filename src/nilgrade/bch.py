"""Truncated Baker-Campbell-Hausdorff group laws and their difference.

Coefficients are not hard-coded: log(exp x . exp y) is computed in the
free associative algebra on two generators, truncated at the nilpotency
class, and the homogeneous components are re-expressed exactly over
left-nested bracket words by solving the corresponding linear system.
The series runs on integers, in divided powers: each degree-n
coefficient is held times n!, so exp x . exp y - 1 has the binomial
C(i + j, i) at x^i y^j, a product of two series multiplies by C(n, n1),
and the logarithm's 1/k becomes lcm(1..cap)/k, cap = MAX_SUPPORTED_CLASS.
Each word of the logarithm becomes one Fraction at the end, and the
nested brackets expand with integer coefficients, so each linear system
is built on integers too.
A fixed preference order on words puts the textbook low-degree terms
(1/2 [x,y], 1/12 of the degree-3 pair, -1/24 at degree 4) in their
classical slots; any other choice would evaluate identically.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from . import lie
from .carnot import CarnotAlgebra
from .lie import Filtration, LieAlgebra
from .linalg import AffineSystem, Vec, ZERO, clear_denominators, q

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


class BCHTermTable(NamedTuple):
    """Coefficient of the left-nested bracket of every word of length 2..c."""

    coeffs: dict[Word, Fraction]

    @property
    def nonzero(self) -> list[tuple[Word, Fraction]]:
        return [(w, c) for w, c in sorted(self.coeffs.items()) if c != 0]


def _series_mul(a: list[dict[Word, int]], b: list[dict[Word, int]], cap: int) -> list[dict[Word, int]]:
    """a·b truncated at degree cap, on series in divided powers.

    Each degree-n coefficient is held times n!, so the coefficient of
    w = wa wb picks up the binomial C(n, len(wa)) and stays an integer.
    """
    out: list[dict[Word, int]] = [dict() for _ in range(cap + 1)]
    for da, ta in enumerate(a):
        if not ta:
            continue
        for db in range(0, cap - da + 1):
            tb = b[db]
            if not tb:
                continue
            dest = out[da + db]
            binom = math.comb(da + db, da)
            for wa, ca in ta.items():
                cab = binom * ca
                for wb, cb in tb.items():
                    w = wa + wb
                    v = dest.get(w, 0) + cab * cb
                    if v:
                        dest[w] = v
                    else:
                        dest.pop(w, None)
    return out


@lru_cache(maxsize=None)
def _log_components() -> tuple[dict[Word, Fraction], ...]:
    """Homogeneous components of log(exp x . exp y) up to degree
    MAX_SUPPORTED_CLASS, each exact, so the one series serves every degree.

    The series runs on integers in divided powers: with every degree-n
    coefficient held times n!, exp x . exp y - 1 has the coefficient
    C(i + j, i) at x^i y^j, `_series_mul` multiplies on integers, and
    log(1 + u) = sum_k (-1)^(k+1) u^k / k is summed times lcm(1..cap).
    Each nonzero word then becomes one Fraction, over lcm(1..cap) * n!.
    """
    cap = MAX_SUPPORTED_CLASS
    u: list[dict[Word, int]] = [dict() for _ in range(cap + 1)]
    for i in range(cap + 1):
        for j in range(cap - i + 1):
            if i == j == 0:
                continue
            u[i + j][(LEFT,) * i + (RIGHT,) * j] = math.comb(i + j, i)
    scale = math.lcm(*range(1, cap + 1))
    log: list[dict[Word, int]] = [dict() for _ in range(cap + 1)]
    power: list[dict[Word, int]] = [dict() for _ in range(cap + 1)]
    power[0][()] = 1
    for k in range(1, cap + 1):
        power = _series_mul(power, u, cap)
        sign = (-1) ** (k + 1) * (scale // k)
        for deg in range(cap + 1):
            for w, cval in power[deg].items():
                v = log[deg].get(w, 0) + sign * cval
                if v:
                    log[deg][w] = v
                else:
                    log[deg].pop(w, None)
    return tuple(
        {w: Fraction(v, scale * math.factorial(deg)) for w, v in comp.items()} for deg, comp in enumerate(log)
    )


def _beta_assoc(word: Word, expanded: dict[Word, dict[Word, int]]) -> dict[Word, int]:
    """Left-nested bracket of a word expanded in the associative algebra.

    `expanded` holds the expansions of the suffixes made so far, shared by
    the caller's words: a suffix found there is not expanded again.
    """
    if len(word) == 1:
        return {word: 1}
    suffix = word[1:]
    inner = expanded.get(suffix)
    if inner is None:
        inner = expanded[suffix] = _beta_assoc(suffix, expanded)
    head = (word[0],)
    out: dict[Word, int] = {}
    for w, c in inner.items():
        for ww, cc in ((head + w, c), (w + head, -c)):
            v = out.get(ww, 0) + cc
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
    # one equation per associative word w: sum_q b_q * beta(q)[w] = BCH_n[w], with integer
    # beta(q)[w], cleared with its rhs.  Only the words whose last two letters differ are
    # kept: by Dynkin-Specht-Wever a Lie polynomial P of degree n is 1/n times the sum of
    # P[w] beta(w), and beta(w) = 0 when w ends in two equal letters, so a Lie polynomial
    # is 0 if it is 0 at the kept words; the kept equations then have the solutions of all
    # of them, and so the same canonical rows and particular solution (Reutenauer, Free Lie
    # Algebras, ch. 1)
    equations: dict[Word, dict[int, int]] = {w: {} for w in target}
    expanded: dict[Word, dict[Word, int]] = {}  # each suffix expanded once for this degree
    for col, cand in enumerate(order):
        for w, c in _beta_assoc(cand, expanded).items():
            equations.setdefault(w, {})[col] = c
    system = AffineSystem(len(order))
    for w in sorted(w for w in equations if w[-2] != w[-1]):
        cols = equations[w]
        ints = clear_denominators([*cols.values(), target.get(w, ZERO)])[1]
        system.add(dict(zip(cols, ints)), ints[-1])
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


def _fold_split(words: Sequence[Word], depth: int) -> tuple[set[Word], set[Word]]:
    """(prefixes, suffixes) that `words` need at fold depth `depth`.

    A word's first m = min(depth, len(word) - 1) letters are folded through
    the prefix trie, one bracket per distinct prefix word[:i], 1 <= i <= m;
    its rest word[m:] is bracketed through the shared suffixes, one bracket
    per distinct suffix word[i:], m <= i <= len(word) - 2.
    """
    prefixes: set[Word] = set()
    suffixes: set[Word] = set()
    for w in words:
        m = min(depth, len(w) - 1)
        prefixes.update(w[:i] for i in range(1, m + 1))
        suffixes.update(w[i:] for i in range(m, len(w) - 1))
    return prefixes, suffixes


@lru_cache(maxsize=None)
def _plan(
    c: int, cut: int, one_weight: bool
) -> tuple[int, tuple[Word, ...], tuple[tuple[int, int, tuple[tuple[Word, int, int], ...]], ...]]:
    """(lcd, suffixes, edges) for `_weighted_parts` at class c and least degree cut.

    The words are those of `bch_table(c)` with len(word) * cut < c; lcd is
    the least common denominator of their coefficients.  At one weight the
    fold depth is the one with the fewest brackets (`_fold_split`, the
    least depth on a tie); across weights it is 1, the outermost letter.
    suffixes are the shared suffixes, shortest first, so that each comes
    after its own rest.  edges are the trie's prefixes, deepest first, so
    that each comes after its children, each as (last letter, index of the
    edge of the prefix without it or -1 at the root, terms); terms hold
    (rest, lcd * coeff as an integer, c - len(word)) of each word folded
    at that prefix.
    """
    kept = [(w, coeff) for w, coeff in bch_table(c).nonzero if len(w) * cut < c]
    lcd, ints = clear_denominators([coeff for _, coeff in kept])
    words = [w for w, _ in kept]
    depth = min(range(1, c) if one_weight else (1,), key=lambda d: sum(map(len, _fold_split(words, d))))
    prefixes, suffixes = _fold_split(words, depth)
    order = sorted(prefixes, key=lambda p: (-len(p), p))
    index = {p: i for i, p in enumerate(order)}
    terms: dict[Word, list[tuple[Word, int, int]]] = {p: [] for p in order}
    for w, s in zip(words, ints):
        m = min(depth, len(w) - 1)
        terms[w[:m]].append((w[m:], s, c - len(w)))
    edges = tuple((p[-1], index.get(p[:-1], -1), tuple(terms[p])) for p in order)
    return lcd, tuple(sorted(suffixes, key=lambda s: (len(s), s))), edges


def _weighted_parts(g: LieAlgebra, c: int, degrees: Sequence[int], x: Vec, y: Vec) -> tuple[_Parts, int]:
    """x + y plus every word of `bch_table(c)`, run once over integers, split by weight.

    x and y are split into parts by `degrees` and enter at their own
    weights; a bracket of weight-a and weight-b parts has weight a + b,
    and only bracket weights below c are kept, so a word is kept iff
    len(word) * min(degrees) < c.  Returns (weighted, common):
    weighted[w][k] / common, with common = lcd * den^c * sigma^(c-1), is
    the weight-w part of coordinate k of x + y + sum_word coeff * [word](x, y).

    The words are folded through a prefix trie (`_plan`): sum_word s_word
    [word_0, rest] is [x, sum_{word_0 = x} s_word rest] + [y, sum_{word_0 =
    y} s_word rest], and the same holds again inside each sum, so the scaled
    sum at each trie prefix is bracketed once against its last letter and
    added into its parent's sum.  Below the fold depth each shared suffix
    of the words is bracketed once.  Every bracket is [letter, rest], so one
    table walk per weight b of the rest (`lie.scaled_bracket` on the
    letter's degree groups) adds the bracket of each of the letter's parts
    into the row of its own weight.  On nonzero x and y at one weight (as
    `bch_product` calls it) that is 1, 4, 5, 12, 15, 25 and 31 brackets at
    classes 2..8, where folding the outermost letter alone takes 2 +
    len(suffixes): 18, 41 and 58 at classes 6..8.  Across weights (the
    ladder) a trie prefix carries up to c - 1 weights, one table walk each,
    so there only the outermost letter is folded.
    """
    lcd, suffixes, edges = _plan(c, min(degrees), min(degrees) == max(degrees))
    den, ints = clear_denominators([*x, *y])
    dim = g.dim
    dens = den * g.sigma
    powers = [1]  # powers[e] = dens^e
    for _ in range(c - 1):
        powers.append(powers[-1] * dens)
    top = lcd * powers[c - 1]
    letters = (ints[:dim], ints[dim:])
    parts: tuple[_Parts, _Parts] = ({}, {})
    weighted: _Parts = {}
    for side, vec in enumerate(letters):
        for k, s in enumerate(vec):
            if s:
                parts[side].setdefault(degrees[k], [0] * dim)[k] = s
                weighted.setdefault(degrees[k], [0] * dim)[k] += top * s
    # each letter's degree groups, only those where the letter is nonzero
    split = lie._degree_split(g, degrees)
    splits = tuple(tuple(group for group in split if group[0] in side) for side in parts)

    def bracket_into(dest: _Parts, letter: int, rest: _Parts) -> _Parts:
        # dest += [letter, rest], weights below c only
        groups = splits[letter]
        if groups:
            u, least = letters[letter], c - groups[0][0]
            for b, v in rest.items():
                if b < least:
                    lie.scaled_bracket(g, u, v, groups, b, c, dest)
        return dest

    memo: dict[Word, _Parts] = {(LEFT,): parts[LEFT], (RIGHT,): parts[RIGHT]}
    for word in suffixes:
        memo[word] = bracket_into({}, word[0], memo[word[1:]])
    # each edge's sum already holds its children's brackets when it is reached
    sums: list[_Parts] = [{} for _ in edges]
    for (letter, parent, terms), acc in zip(edges, sums):
        for rest, num, e in terms:
            scale = num * powers[e]
            for b, v in memo[rest].items():
                row = acc.get(b)
                if row is None:
                    row = acc[b] = [0] * dim
                for k, s in enumerate(v):
                    if s:
                        row[k] += scale * s
        bracket_into(sums[parent] if parent >= 0 else weighted, letter, acc)
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


def _is_companion(g: LieAlgebra, ca: CarnotAlgebra) -> bool:
    """Whether ca is g's graded companion, so that g is written in its grading eigenbasis.

    That is: one degree per basis vector, none above g's nilpotency class
    c (so the weights below c that `_weighted_parts` keeps cover every
    w < d), and `lie.graded_part(g, ca.degrees)` equal to ca.algebra,
    which fails when a bracket has a component of lower degree.
    `lie.graded_part` caches the part on g per degree tuple, so a repeated
    pair costs one table comparison, and a pair from `carnot_pair` one
    identity check.
    """
    degrees = tuple(ca.degrees)
    if len(degrees) != g.dim or max(degrees, default=0) > lie.lower_central_series(g).nilpotency_class:
        return False
    try:
        part = lie.graded_part(g, degrees)
    except ValueError:
        return False
    return part is ca.algebra or part == ca.algebra


def law_difference(
    g: LieAlgebra,
    other: CarnotAlgebra | LieAlgebra,
    x: Sequence[Fraction],
    y: Sequence[Fraction],
) -> Vec:
    """bch_product under g minus the product under `other`, exact.

    Both laws must be expressed in one common coordinate system (for a
    CarnotAlgebra companion this is the grading eigenbasis).  When other
    is a CarnotAlgebra that is g's graded companion (`_is_companion`),
    the difference is one weight-split evaluation: the ladder's integer
    core at the single rung t = 1 (see `law_difference_ladder`), where
    each degree-d coordinate sums its weight-w parts with w < d.  For a
    LieAlgebra, or a CarnotAlgebra that is not g's companion, it is the
    two products subtracted.
    """
    if isinstance(other, CarnotAlgebra) and _is_companion(g, other):
        return _ladder(g, other.degrees, x, y, [(1, [1])])[0]
    other_alg = other.algebra if isinstance(other, CarnotAlgebra) else other
    a = bch_product(g, lie.lower_central_series(g), x, y)
    b = bch_product(other_alg, lie.lower_central_series(other_alg), x, y)
    return [s - t for s, t in zip(a, b)]


def _ladder_integers(
    g: LieAlgebra,
    degrees: Sequence[int],
    x: Sequence[Fraction],
    y: Sequence[Fraction],
    rungs: Sequence[tuple[int, int]],
) -> list[tuple[list[int], dict[int, int]]]:
    """The integer form of `law_difference_ladder`, whose arguments it checks.

    rungs are the ladder's t = num / tden, each as (tden, [num]), which is
    how `clear_denominators([t])` gives it.  Returns (totals, dens) per
    rung: coordinate k of the difference is totals[k] / dens[degrees[k]],
    where dens[d] = common * tden^(d-1).  Each coordinate's nonzero parts
    of weight w < d are gathered once per pair, and each rung sums only
    those, each times num^w * tden^(d-1-w).
    """
    if len(x) != g.dim or len(y) != g.dim or len(degrees) != g.dim:
        raise ValueError("dimension mismatch")
    if any(num <= 0 for _, (num,) in rungs):
        raise ValueError("dilation parameter must be positive")
    c = lie.lower_central_series(g).nilpotency_class
    if c < 2:
        return [([0] * g.dim, dict.fromkeys(degrees, 1)) for _ in rungs]
    # weighted[w][k] * t^w / common is coordinate k's weight-w part
    weighted, common = _weighted_parts(g, c, degrees, [q(v) for v in x], [q(v) for v in y])
    rows = sorted(weighted.items())
    # coordinate k's nonzero weight-w parts (w, d - 1 - w, a) with w < d = degrees[k]
    parts = [[(w, d - 1 - w, vec[k]) for w, vec in rows if w < d and vec[k]] for k, d in enumerate(degrees)]
    layers = set(degrees)
    top = max(degrees)
    out = []
    for tden, (num,) in rungs:
        npow, dpow = [1], [1]  # num^e and tden^e for e < top
        for _ in range(top - 1):
            npow.append(npow[-1] * num)
            dpow.append(dpow[-1] * tden)
        totals = [sum(a * npow[w] * dpow[e] for w, e, a in terms) for terms in parts]
        out.append((totals, {d: common * dpow[d - 1] for d in layers}))
    return out


def _ladder(
    g: LieAlgebra,
    degrees: Sequence[int],
    x: Sequence[Fraction],
    y: Sequence[Fraction],
    rungs: Sequence[tuple[int, list[int]]],
) -> list[Vec]:
    """`_ladder_integers` as one Fraction vector per rung."""
    return [
        [Fraction(s, dens[d]) if s else ZERO for s, d in zip(totals, degrees)]
        for totals, dens in _ladder_integers(g, degrees, x, y, rungs)
    ]


def law_difference_ladder(
    g: LieAlgebra,
    ca: CarnotAlgebra,
    x: Sequence[Fraction],
    y: Sequence[Fraction],
    ts: Sequence[Fraction],
) -> list[Vec]:
    """`law_difference(g, ca, δ_t x, δ_t y)` for every t in ts, from one evaluation.

    g must be written in the grading eigenbasis of its Carnot companion ca
    (`_is_companion`, the test `law_difference` reads), else ValueError:
    on any other pair the weight split below is not the difference of the
    two laws, and `law_difference` falls back to its two products there.
    δ_t multiplies each degree-i coordinate by t^i.  A bracket of weight-a
    and weight-b parts lands in degrees >= a + b, so the weight-W part
    P_{k,W} (`_weighted_parts` on ca.degrees) scales as t^W.  In a degree-d
    coordinate the top-weight part W = d is the Carnot law and parts W > d
    vanish, so the difference there is sum_{W<d} t^W P_{k,W}: one integer
    per coordinate and rung (`_ladder_integers`), over one denominator per
    degree and rung.  Raises ValueError on t <= 0, as `dilate` does, and on
    a class above 8, as `bch_table` does.
    """
    if not _is_companion(g, ca):
        raise ValueError("ca is not the graded companion of g in its grading eigenbasis")
    return _ladder(g, ca.degrees, x, y, [clear_denominators([q(t)]) for t in ts])
