"""Higher-derivation conditions, derivability decisions and the e-invariant.

A grading operator D is parametrized as D = D0 + N in the coordinates of
an adapted basis, where D0 multiplies degree-i vectors by i and N sends
each filtration term into the next one.  Every derivability condition
then becomes an affine linear system over the free entries of N, decided
exactly over the rationals.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import chain, combinations
from operator import sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import lie
from .lie import AdaptedBasis, Filtration, LieAlgebra
from .linalg import AffineSystem, Echelon, Matrix, Vec, ZERO, clear_denominators, integer_inverse, integer_rows, q, sparse_mul, transpose

SparseVec = dict[int, int]


class OperatorNotInDError(ValueError):
    """Raised when a matrix is not a grading operator of the algebra."""


class _Condition(NamedTuple):
    wp: tuple[int, ...]
    level: int


class DerivCondition(_Condition):
    """A containment constraint: Delta_n D(F_p1, ..., F_pn) inside F_{level+1}."""

    __slots__ = ()

    def __new__(cls, wp: tuple[int, ...], level: int) -> "DerivCondition":
        if len(wp) < 2:
            raise ValueError("tuple must have length at least 2")
        if any(p < 1 for p in wp):
            raise ValueError("tuple entries must be positive")
        if wp[-2] > wp[-1]:
            raise ValueError("last two tuple entries must be nondecreasing")
        if sum(wp) >= level:
            raise ValueError("level must exceed the tuple sum")
        return tuple.__new__(cls, (wp, level))

    @classmethod
    def _make(cls, iterable: Iterable) -> "DerivCondition":
        return cls(*iterable)  # so that `_replace`, which calls it, checks too

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.wp) + f"|{self.level})"


ConditionSet = frozenset  # of DerivCondition


class GradingOperator(NamedTuple):
    """A grading operator, a rational matrix in original coordinates, as
    `int_rows` / `den`: `den` is the least common denominator of its entries,
    `int_rows[a]` row a times den as a sparse {column: nonzero int} dict,
    read-only, and `shape[a]` the length of row a (a matrix of the wrong
    shape, or with ragged rows, is held as it is and fails
    `is_grading_operator`).  The form is canonical, so two operators are
    equal, and hash equal, iff their matrices are; `matrix` and `rows` make
    the dense Fraction rows from it on read."""

    den: int
    int_rows: tuple[SparseVec, ...]
    shape: tuple[int, ...]

    def __hash__(self) -> int:
        return hash((self.den, tuple(tuple(sorted(row.items())) for row in self.int_rows), self.shape))

    @staticmethod
    def from_rows(rows: Matrix) -> "GradingOperator":
        rows = [[q(x) for x in row] for row in rows]
        den, int_rows = integer_rows(rows)
        return GradingOperator(den, tuple(int_rows), tuple(len(row) for row in rows))

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self.den
        return tuple(
            tuple(Fraction(row[j], den) if j in row else ZERO for j in range(n))
            for row, n in zip(self.int_rows, self.shape)
        )

    @property
    def rows(self) -> Matrix:
        return [list(r) for r in self.matrix]

    def apply(self, v: Sequence[Fraction]) -> Vec:
        """D v from the integer rows: each entry is one integer sum over den
        times the common denominator of v."""
        if any(n != len(v) for n in self.shape):
            raise ValueError("dimension mismatch")
        vden, ints = clear_denominators(v)
        den = self.den * vden
        out: Vec = []
        for row in self.int_rows:
            s = sum(c * ints[j] for j, c in row.items())
            out.append(Fraction(s, den) if s else ZERO)
        return out


_COND_RE = re.compile(r"\((\d+(?:,\d+)+)\|(\d+)\)")


def parse_condition_set(text: str) -> ConditionSet:
    """Parse condition-set syntax like "(1,1|3),(1,2|4)".

    Whitespace may surround the punctuation but not split a number.  A
    tuple whose last two entries are decreasing is normalized by swapping
    them (the constraint is alternating in those slots).  An invalid
    condition raises ValueError naming it as written.
    """
    compact = re.sub(r"\s*([(),|])\s*", r"\1", text.strip())
    if not compact:
        return frozenset()
    matched = _COND_RE.findall(compact)
    if ",".join(f"({tup}|{lev})" for tup, lev in matched) != compact:
        raise ValueError(f"malformed condition set: {text!r}")
    conditions = set()
    for tup_text, level_text in matched:
        wp = tuple(int(p) for p in tup_text.split(","))
        if len(wp) >= 2 and wp[-2] > wp[-1]:
            wp = wp[:-2] + (wp[-1], wp[-2])
        try:
            conditions.add(DerivCondition(wp, int(level_text)))
        except ValueError as exc:
            raise ValueError(f"condition ({tup_text}|{level_text}): {exc}") from exc
    return frozenset(conditions)


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """The compositions of total into parts positive entries, lexicographically:
    the parts between cut points 0 < k_1 < ... < k_{parts-1} < total, whose
    lexicographic order is that of the compositions."""
    for cuts in combinations(range(1, total), parts - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


def normalized_tuples(max_sum: int) -> list[tuple[int, ...]]:
    """All tuples with n >= 2, entries >= 1, sum <= max_sum and the last
    two entries nondecreasing, ordered by (sum, length, lexicographic)."""
    return [wp for total in range(2, max_sum + 1) for n in range(2, total + 1) for wp in _normalized(total, n)]


def _normalized(total: int, n: int) -> list[tuple[int, ...]]:
    """The normalized tuples of length n and sum total, lexicographically."""
    return [wp for wp in _compositions(total, n) if wp[-2] <= wp[-1]]


def enumerate_T(j: int, c: int) -> list[tuple[int, ...]]:
    """The normalized tuples with sum < j, for 3 <= j <= c."""
    if not 3 <= j <= c:
        raise ValueError("need 3 <= j <= c")
    return normalized_tuples(j - 1)


def enumerate_S(c: int) -> ConditionSet:
    """All conditions (wp | j) with 3 <= j <= c and wp in T_j; empty for c = 2."""
    if c < 2:
        raise ValueError("need c >= 2")
    tuples = normalized_tuples(c - 1)  # by increasing sum, so those of sum < j lead
    sums = [sum(wp) for wp in tuples]
    # a set, then its frozenset copy: a frozenset built directly would iterate in another order
    return frozenset({DerivCondition(wp, j) for j in range(3, c + 1) for wp in tuples[:bisect_left(sums, j)]})


@lru_cache(maxsize=None)
def _ratio_groups(c: int) -> tuple[tuple[Fraction, tuple[tuple[int, int], ...]], ...]:
    """The positive candidates i/j, 2 <= i < j <= c, by decreasing value, each
    with every (S, d) pair, 2 <= S < d <= c, of ratio S/d equal to it, by
    increasing S.  The one definition of the candidate set at class c."""
    groups: dict[Fraction, list[tuple[int, int]]] = {}
    for d in range(3, c + 1):
        for s in range(2, d):
            groups.setdefault(Fraction(s, d), []).append((s, d))
    return tuple((r, tuple(sorted(groups[r]))) for r in sorted(groups, reverse=True))


def candidate_values(c: int) -> list[Fraction]:
    """{0} with all ratios i/j for 2 <= i < j <= c, sorted increasing."""
    if c < 2:
        raise ValueError("need c >= 2")
    return [Fraction(0)] + [r for r, _ in reversed(_ratio_groups(c))]


def r_condition_set(c: int, r: Fraction) -> ConditionSet:
    """Effective finite projection of {(wp|j) : |wp|/j > r} onto level <= c.

    For each normalized tuple only the strongest admissible level is
    kept: the largest j with j < |wp|/r, clamped at c; tuples for which
    no level exceeds |wp| are omitted.  r = 0 yields every tuple at
    level c.
    """
    if c < 2:
        raise ValueError("need c >= 2")
    r = q(r)
    if not 0 <= r < 1:
        raise ValueError("need 0 <= r < 1")
    conditions = set()
    for wp in normalized_tuples(c - 1):
        level = _level(sum(wp), c, r)
        if level > sum(wp):
            conditions.add(DerivCondition(wp, level))
    return frozenset(conditions)


def _level(total: int, c: int, r: Fraction) -> int:
    """The level of each sum-total tuple in `r_condition_set(c, r)`, admissible
    iff above total; it never decreases as total grows."""
    return c if r == 0 else min(c, math.ceil(total / r) - 1)


def delta_n(g: LieAlgebra, d: GradingOperator, xs: Sequence[Sequence[Fraction]]) -> Vec:
    """D[x1,...,xn] - sum_k [x1,...,D xk,...,xn] with left-nested brackets."""
    if len(xs) < 2:
        raise ValueError("need at least two vectors")
    if any(len(x) != g.dim for x in xs):
        raise ValueError("dimension mismatch")
    value = d.apply(lie.iterated_bracket(g, xs))
    for k in range(len(xs)):
        subst = [list(x) for x in xs]
        subst[k] = d.apply(xs[k])
        term = lie.iterated_bracket(g, subst)
        value = [a - b for a, b in zip(value, term)]
    return value


def _adapted_operator(d: GradingOperator, setup: _Setup) -> tuple[int, list[SparseVec]] | None:
    """P^-1 D P as (den, rows), the matrix being rows / den for its sparse
    integer rows, if D is a grading operator (see `is_grading_operator`), else
    None: with D = M/dd, M its `int_rows` and dd its `den`, it is Q M P / (L dd).
    """
    n, degrees = setup.dim, setup.degrees
    if d.shape != (n,) * n:
        return None
    rows = sparse_mul(sparse_mul(setup.q_rows, d.int_rows), setup.p_rows)
    den = setup.q_den * d.den
    for a, row in enumerate(rows):
        if row.get(a, 0) != degrees[a] * den:
            return None
        if any(b != a and a not in setup.var_at[b] for b in row):
            return None
    return den, rows


def _eigenvectors(d: GradingOperator, setup: _Setup) -> list[SparseVec] | None:
    """For each adapted index b, an integer eigenvector of D of eigenvalue
    deg(b), in original coordinates, if D is a grading operator, else None.

    P^-1 D P is diag(degrees) plus N/den, N nonzero only at free positions
    (a, b), deg a > deg b (`_adapted_operator`).  So ker(P^-1 D P - i) holds,
    for each b of degree i, one y with y_b = 1 and y zero at every other
    index of degree <= i: row a of (P^-1 D P - i) y = 0 gives
    y_a = -(N y)_a / ((deg a - i) den), whose right side reads only the
    entries y_a' with deg a' < deg a, so forward substitution by increasing
    index finds it, and (deg a - i) den > 0.  These k_i vectors are
    independent, and k_i = dim F_i/F_{i+1} = dim ker(D - i) (see
    `carnot.grading_from_operator`), so they are a basis of it.  Each y is
    held as s y on integers for a growing s > 0, and returned as P s y.
    """
    adapted = _adapted_operator(d, setup)
    if adapted is None:
        return None
    den, rows = adapted
    n, degrees = setup.dim, setup.degrees
    # cols[a'] is N's column a': its entries sit at rows a > a', of higher degree
    cols = transpose([{b: x for b, x in row.items() if b != a} for a, row in enumerate(rows)], n)
    out = []
    for b, i in enumerate(degrees):
        y: SparseVec = {b: 1}
        acc = dict(cols[b])  # acc[a] = (N s y)_a over the entries of y found so far
        heap = list(acc)
        heapify(heap)
        while heap:
            a = heappop(heap)
            num = -acc.pop(a)
            if not num:
                continue
            div = (degrees[a] - i) * den
            common = math.gcd(num, div)
            if (m := div // common) != 1:
                y = {k: v * m for k, v in y.items()}
                acc = {k: v * m for k, v in acc.items()}
            ya = y[a] = num // common
            for a2, x in cols[a].items():
                if a2 in acc:
                    acc[a2] += x * ya
                else:
                    acc[a2] = x * ya
                    heappush(heap, a2)
        v: SparseVec = {}
        for a, ya in y.items():
            for k, x in setup.ab.int_rows[a].items():
                v[k] = v.get(k, 0) + ya * x
        out.append({k: x for k, x in v.items() if x})
    return out


def is_grading_operator(g: LieAlgebra, f: Filtration, d: GradingOperator) -> bool:
    """D stabilizes every F_i and induces multiplication by i on F_i/F_{i+1}.

    f must be `lower_central_series(g)`, else ValueError.  With p the
    change of basis of `adapted_basis(g, f)`, F_i is spanned by the
    adapted vectors e_b of degree >= i, so this holds iff D e_b - deg(b) e_b
    lies in F_{deg(b)+1} for every b, that is, iff p^-1 D p equals
    diag(degrees) at every position outside `_Setup.positions`.  That one
    comparison is the test; a matrix of the wrong shape fails it.
    """
    setup = _setup(g)
    if f != setup.f:
        raise ValueError("f must be the lower central series of g")
    return _adapted_operator(d, setup) is not None


def grading_operator_space(
    g: LieAlgebra, f: Filtration, ab: AdaptedBasis
) -> tuple[GradingOperator, list[Matrix]]:
    """Affine parametrization of all grading operators of g.

    ab must be `adapted_basis(g, f)` for f the lower central series of g,
    else ValueError.  Returns the diagonal base point (multiplication by
    the adapted degree) and the free directions p E_ab p^-1 for (a, b) in
    `_Setup.positions` and p the matrix of `ab.vectors`, all in original
    coordinates.
    """
    setup = _setup(g)
    if f != setup.f or ab != setup.ab:
        raise ValueError("ab must be the adapted basis of the lower central series of g")
    n, pivots = setup.dim, [row[min(row)] for row in ab.int_rows]
    directions = []
    for a, b in setup.positions:
        # p = P / diag(pivots), so p E_ab p^-1 = (P column a)(Q row b) pivots[b] / (L pivots[a])
        q_row = [setup.q_rows[b].get(j, 0) * pivots[b] for j in range(n)]
        den = setup.q_den * pivots[a]
        directions.append([[Fraction(row.get(a, 0) * y, den) for y in q_row] for row in setup.p_rows])
    return setup.operator([]), directions


class _State:
    """The state of an index path (b_last, ..., b_k): its suffix bracket
    sigma^depth * [e_bk, [..., e_blast]], its replacement brackets per free
    variable and its degree sum; the path's rows and its children's states
    are linear in it.  `_Setup.grow` fills the rest on the first child:
    `brackets`, the nonzero `ad`(i, suffix) for each i whose row meets the
    suffix's support, gives the child at b its suffix and the free variable
    (a, b) its new term; `partners` lists the indices whose row meets the
    state's support; every index below `reach` has a lower degree than some
    a in `brackets`."""

    __slots__ = ("suffix", "repl", "degsum", "brackets", "partners", "reach")

    def __init__(self, suffix: SparseVec, repl: dict[int, SparseVec], degsum: int):
        self.suffix, self.repl, self.degsum, self.brackets = suffix, repl, degsum, None


def _grown(states: list[_State], grow: Iterator[_State]) -> Iterator[_State]:
    """Yield a span basis's states: those found so far, then, each time this
    reader has read them all, one more from `grow` into the shared list, so
    a consumer that stops pulling stops the growth."""
    i = 0
    while i < len(states) or (state := next(grow, None)) is not None:
        if i == len(states):
            states.append(state)
        yield states[i]
        i += 1


class _Setup:
    """An algebra's adapted coordinates, built once per instance by `_setup`.

    The change of basis runs on integers: P's columns are the adapted
    basis's `int_rows` as stored, Q/L = P^-1 from `linalg.integer_inverse`
    (no elimination when the adapted basis is a permutation of the unit
    vectors, whose adapted algebra `lie.algebra_in_integer_basis` then
    relabels), both held by their sparse rows (`p_rows`, `q_rows`).  P's
    column b is `ab.vectors[b]` times its pivot value s_b > 0, which scales
    each free entry x_ab by s_b/s_a and keeps every system's pivot columns,
    so e, each answer and each witness are those of `ab.vectors`.

    `graded` holds iff the adapted degrees grade the adapted algebra
    (`lie.grading_violations`), that is, iff D0 is a derivation.  Then a
    path suffix of degree sum S lies in degree S, so every path row
    (`_path_rows`) has right-hand side 0: every condition system is
    homogeneous, hence feasible, with particular solution 0, and the
    entry points answer from D0 without building a span.

    Every path row is linear in its path's state (`_State`), so the rows of
    the paths of one degree sum span what the rows of a basis of their
    states span.  `span` builds such bases lazily, in a table local to one
    public call; the setup keeps only the e-scan's fully grown ones
    (`finished`), which hold no suspended growth, so no reference cycle
    runs through it, and threads may share it, as they may a `LieAlgebra`.
    """

    def __init__(self, g: LieAlgebra):
        self.dim = n = g.dim
        self.f = lie.lower_central_series(g)
        self.c = self.f.nilpotency_class
        self.ab = lie.adapted_basis(g, self.f)
        self.degrees = degrees = self.ab.degrees
        self.p_rows: list[SparseVec] = transpose(self.ab.int_rows, n)
        self.q_den, self.q_rows = integer_inverse(self.ab.int_rows)  # P^-1 = Q/L, L being q_den
        # sigma * [e_i, v] in adapted coordinates, P^-1 [P e_i, P e_j] being Q [P e_i, P e_j] / L;
        # bound to the adapted algebra, not to g
        self.adapted = lie.algebra_in_integer_basis(g, self.ab.int_rows, self.q_rows, self.q_den)
        self.graded = not lie.grading_violations(self.adapted, degrees)
        self.ad = self.adapted.ad
        self.rows = self.adapted._signed_rows  # [e_i, w] = 0 when rows[i] misses w's support
        # first adapted index of each degree (degrees are nondecreasing)
        self.first_at_least = [bisect_left(degrees, d) for d in range(self.c + 2)]
        # free positions (a, b), column-major: degree(a) > degree(b), so a grading operator
        # may differ from diag(degrees) there; N e_b = e_a; var_at[b] maps a to the variable
        self.positions = [(a, b) for b in range(n) for a in range(self.first_at_least[degrees[b] + 1], n)]
        self.var_at: list[dict[int, int]] = [{} for _ in range(n)]
        for var, (a, b) in enumerate(self.positions):
            self.var_at[b][a] = var
        self.finished: dict[tuple[None, int], tuple] = {}  # the e-scan's fully grown spans

    def span(self, spans: dict, mins: tuple[int, ...] | None, total: int) -> Iterator[_State]:
        """The basis of the states of the paths of degree sum `total` whose
        slots have degrees >= `mins`, outermost slot first (`None`: paths of
        any length >= 2), from the call's table `spans`: it holds, made on
        first use, each span's states found so far with their `grow`, and
        each root's state (suffix e_r) keyed by its index r.

        A child is linear in its parent's state, so these are spanned by the
        children, at each index b of the outermost slot, of the basis for
        the inner slots at sum total - deg b; the innermost pair is each
        root's children at smaller indices, since Delta alternates there.
        Degrees are nondecreasing, so each index window is of one degree.
        """
        key = (mins, total)
        if key not in spans:
            first, degrees = self.first_at_least, self.degrees
            least = 1 if mins is None else mins[0]
            pairs, inner = [], []
            if mins is None or len(mins) == 2:
                for r in range(first[1 if mins is None else mins[1]], first[total - least + 1]):
                    lo, hi = first[total - degrees[r]], min(r, first[total - degrees[r] + 1])
                    if lo < hi:
                        if r not in spans:  # the root at r, made once per table
                            spans[r] = _State({r: 1}, {var: {a: 1} for a, var in self.var_at[r].items()}, degrees[r])
                        pairs.append((spans[r], lo, hi))
            if mins is None or len(mins) > 2:
                rest = None if mins is None else mins[1:]
                for t in range(2 if rest is None else sum(rest), total - least + 1):
                    inner.append((self.span(spans, rest, t), first[total - t], first[total - t + 1]))
            spans[key] = ([], self.grow(pairs, inner))
        return _grown(*spans[key])

    def grow(self, pairs: list[tuple[_State, int, int]], inner: list[tuple[Iterator[_State], int, int]]) -> Iterator[_State]:
        """Yield each child, at lo <= b < hi, of each state of span for (span,
        lo, hi) in inner and of each root for (root, lo, hi) in pairs, that
        raises the rank of one `Echelon` over the flattened states, divided
        by the gcd of its entries.

        The child at b can be nonzero only if b's row meets the support of
        the suffix or of a replacement bracket (`partners`), or if the a of a
        free position (a, b), deg a > deg b, brackets the suffix (b below
        `reach`); no other b is tried.  A state flattens to its (variable,
        coordinate) pairs, then its suffix: with the suffix first, pivots
        fell on its entries and the elimination took several times longer.
        """
        n = self.dim
        last = n * len(self.positions)
        echelon = Echelon()
        ad, rows, degrees, var_at = self.ad, self.rows, self.degrees, self.var_at
        for state, lo, hi in chain(((state, lo, hi) for span, lo, hi in inner for state in span), pairs):
            suffix, repl = state.suffix, state.repl
            if state.brackets is None:
                brackets = {i: w for i in {i for j in suffix for i in rows[j]} if (w := ad(i, suffix))}
                state.partners = sorted({i for j in chain(suffix, *repl.values()) for i in rows[j]})
                state.reach = self.first_at_least[max((degrees[a] for a in brackets), default=0)]
                state.brackets = brackets  # last, so that a thread that sees it sees the rest
            brackets, partners = state.brackets, state.partners
            live = range(lo, hi) if lo < state.reach else partners[bisect_left(partners, lo) : bisect_left(partners, hi)]
            for b in live:
                row_b = rows[b].keys()
                new_repl = {var: bw for var, w in repl.items() if not row_b.isdisjoint(w) and (bw := ad(b, w))}
                free = var_at[b]
                for a, w in brackets.items():
                    if (var := free.get(a)) is not None:
                        merged = new_repl.pop(var, {})
                        for k, x in w.items():
                            merged[k] = merged.get(k, 0) + x
                        if merged := {k: x for k, x in merged.items() if x}:
                            new_repl[var] = merged
                new_suffix = brackets.get(b, {})
                if not (new_suffix or new_repl):
                    continue
                flat = {n * var + k: x for var, w in new_repl.items() for k, x in w.items()}
                flat.update((last + k, x) for k, x in new_suffix.items())
                if echelon.add(flat):
                    if (c := math.gcd(*flat.values())) > 1:
                        new_repl = {var: {k: x // c for k, x in w.items()} for var, w in new_repl.items()}
                        new_suffix = {k: x // c for k, x in new_suffix.items()}
                    yield _State(new_suffix, new_repl, state.degsum + degrees[b])

    def operator(self, x: Sequence[Fraction]) -> GradingOperator:
        """diag(degrees) plus x[var] at each free position, in original coordinates.

        That is P (M/dx) P^-1 = P M Q / (dx L) for M = dx diag(degrees) + dx x, on
        integers, divided once by the gcd of dx L and every entry, which leaves
        the least common denominator.
        """
        dx, (xs,) = integer_rows([x])
        m_rows = [{i: dx * d} for i, d in enumerate(self.degrees)]
        for var, value in xs.items():
            a, b = self.positions[var]
            m_rows[a][b] = value
        den = dx * self.q_den
        rows = sparse_mul(sparse_mul(self.p_rows, m_rows), self.q_rows)
        common = math.gcd(den, *(y for row in rows for y in row.values()))
        if common != 1:
            den //= common
            rows = [{j: y // common for j, y in row.items()} for row in rows]
        return GradingOperator(den, tuple(rows), (self.dim,) * self.dim)


def _setup(g: LieAlgebra) -> _Setup:
    """g's `_Setup`, built on first use and kept on the instance."""
    if g._setup_cache is None:
        g._setup_cache = _Setup(g)
    return g._setup_cache


def _clamp_conditions(conditions: Iterable[DerivCondition], c: int) -> set[DerivCondition]:
    """Project conditions to nilpotency class c and drop trivial ones.

    Dominated conditions stay.  (wp'|j') dominates (wp|j) if the tuples have
    the same length, wp' <= wp entrywise and j <= j'; then every row of
    (wp|j) is among its dominator's, so the row space, and with it the
    canonical RREF and the witness, is the same with or without them.
    """
    clamped = set()
    for cond in conditions:
        level = min(cond.level, c)
        if level > sum(cond.wp):
            clamped.add(DerivCondition(cond.wp, level))
    return clamped


def _path_rows(setup: _Setup, node: _State, lo: int, hi: int) -> Iterator[tuple[int, SparseVec, int]]:
    """Yield the affine rows (coord, coeffs, rhs) of the path state `node`,
    one per adapted coordinate lo <= coord < hi at which its value is nonzero.

    With v the path's suffix and S its degree sum, the value is
    (D0 - S) v + sum_m x_m (v_{col(m)} e_{row(m)}) - repl, which lies in
    F_{S+1}: v lies in F_S, where D0 acts as S, and the free entries of N
    and the replacement brackets reach only F_{S+1}.  So every coord has
    degree above S.
    """
    degrees = setup.degrees
    var_at = setup.var_at
    degsum = node.degsum
    rows: dict[int, SparseVec] = {}
    rhs: SparseVec = {}
    for coord, val in node.suffix.items():
        if lo <= coord < hi:
            diff = (degrees[coord] - degsum) * val
            if diff:
                rhs[coord] = -diff
        for a, var in var_at[coord].items():
            if lo <= a < hi:
                entry = rows.setdefault(a, {})
                entry[var] = entry.get(var, 0) + val
    for var, w in node.repl.items():
        for coord, val in w.items():
            if lo <= coord < hi and val:
                entry = rows.setdefault(coord, {})
                t = entry.get(var, 0) - val
                if t:
                    entry[var] = t
                else:
                    entry.pop(var, None)
    for coord in set(rows) | set(rhs):
        coeffs = rows.get(coord, {})
        b = rhs.get(coord, 0)
        if coeffs or b:
            yield coord, coeffs, b


def _condition_rows(setup: _Setup, cond: DerivCondition, spans: dict) -> Iterator[tuple[SparseVec, int]]:
    """Yield the affine rows (coeffs, rhs) of one condition, lazily: a
    consumer that stops pulling stops the growth of the spans.

    In adapted coordinates D0 is diagonal and each free direction is an
    elementary matrix.  The condition asks of each path whose slots have
    degrees >= wp its rows at the coordinates of degree <= level; a path of
    degree sum T has its rows at degrees above T, so only T below the level
    and the class emits any, and for each the rows of the basis for
    (wp, T) (`_Setup.span`, in the table `spans` of the call) span the
    same space, which is all a consumer reads.  The brackets run on
    integers, so each row is a true row times a positive integer.
    """
    max_coord = setup.first_at_least[min(cond.level + 1, setup.c + 1)]
    for total in range(sum(cond.wp), min(cond.level, setup.c)):
        for state in setup.span(spans, cond.wp, total):
            for _, coeffs, rhs in _path_rows(setup, state, 0, max_coord):
                yield coeffs, rhs


def _ratio_rows(setup: _Setup) -> Iterator[tuple[Fraction, SparseVec, int]]:
    """Yield the path rows as (ratio, coeffs, rhs), by decreasing ratio, as
    the rows of span bases, lazily.

    A path of degree sum S has its rows at coordinates of degree d > S
    (`_path_rows`), of ratio S/d, a candidate of `_ratio_groups`.  The
    conditions of ratio above r ask of it exactly the coordinates with
    S/d > r, so the candidate-r system of `e_invariant` is the rows of
    ratio above r, a prefix of the stream.  At each pair (S, d) it yields
    the degree-d rows of the basis for (None, S), the paths of any length
    and sum S (`_Setup.span`), so every prefix has the row space of all the
    paths' rows.  The first pair of each S, (S, S + 1), grows that span in
    the stream's own table, and the setup then keeps it (`finished`).
    """
    first = setup.first_at_least
    spans = dict(setup.finished)
    for ratio, pairs in _ratio_groups(max(setup.c, 2)):
        for s, d in pairs:
            for state in setup.span(spans, None, s):
                for _, coeffs, rhs in _path_rows(setup, state, first[d], first[d + 1]):
                    yield ratio, coeffs, rhs
            setup.finished[(None, s)] = spans[(None, s)]  # its growth has returned


def _feasibility(setup: _Setup, clamped: Iterable[DerivCondition]) -> GradingOperator | None:
    """Witness for an antichain of conditions clamped to the class, or None."""
    if setup.graded:  # every row reads 0 = 0 at D0
        return setup.operator([])

    def cost(cond: DerivCondition) -> tuple:
        est = 1
        for p in cond.wp:
            est *= setup.dim - setup.first_at_least[p]
        return (len(cond.wp), est, cond)

    system = AffineSystem(len(setup.positions))
    spans: dict = {}  # the state bases of this call, shared by its conditions
    for cond in sorted(clamped, key=cost):
        for coeffs, rhs in _condition_rows(setup, cond, spans):
            system.add(coeffs, rhs)
            if system.infeasible:
                return None
    return setup.operator(system.particular())


def is_A_derivable(g: LieAlgebra, conditions: Iterable[DerivCondition]) -> GradingOperator | None:
    """Witness grading operator satisfying every condition, or None.

    Conditions are clamped to the nilpotency class first; the witness is
    the deterministic particular solution with all free coefficients
    zero.  When the adapted degrees grade g (`_Setup.graded`), a path
    suffix of degree sum S lies in degree S, so every row has right-hand
    side 0; the system is homogeneous, its particular solution is 0, and
    the witness is D0, with no span built.
    """
    setup = _setup(g)
    return _feasibility(setup, _clamp_conditions(conditions, setup.c))


def e_of_operator(g: LieAlgebra, d: GradingOperator) -> Fraction:
    """Least r for which d satisfies every condition of ratio above r.

    Equals the maximum of |wp| / depth(wp) over normalized tuples, where
    depth(wp) is the filtration depth of the span of all Delta values on
    adapted tuples of degrees >= wp (tuples with zero span are skipped).
    The conditions of ratio above r hold at d iff every row of
    `_ratio_rows` of ratio above r holds at x_D, the free entries of d in
    adapted coordinates; so e_D is the ratio of the first row of that
    stream violated at x_D, or 0 if none is.  The same p^-1 d p first runs
    the `is_grading_operator` test, raising OperatorNotInDError if d fails.
    When the adapted degrees grade g (`_Setup.graded`), every row has
    right-hand side 0 (see `is_A_derivable`), so x_D = 0, that is d = D0,
    meets them all and has e_D = 0 with no span built.
    """
    setup = _setup(g)
    d_ad = _adapted_operator(d, setup)
    if d_ad is None:
        raise OperatorNotInDError("matrix is not a grading operator of the lower central series")
    scale, rows = d_ad
    point = [rows[a].get(b, 0) for a, b in setup.positions]
    if setup.graded and not any(point):
        return Fraction(0)
    for ratio, coeffs, rhs in _ratio_rows(setup):
        if sum(c * point[var] for var, c in coeffs.items()) != rhs * scale:
            return ratio
    return Fraction(0)


class EInvariantResult(NamedTuple):
    e: Fraction
    witness: GradingOperator


def e_invariant(g: LieAlgebra) -> EInvariantResult:
    """Smallest r in the candidate set whose condition set is feasible.

    The candidate-r system is the rows of `_ratio_rows` of ratio above r,
    so one `AffineSystem` takes the stream's ratio groups in decreasing
    order, with a copy of it (`Echelon.copy`) before each group.  The first
    group that makes it infeasible has ratio e, and the copy before it is
    the candidate-e system; if none does, e = 0 and the system is the full
    one.  The witness is that system's deterministic particular solution,
    which depends on its row space only.  When the adapted degrees grade g
    (`_Setup.graded`), every row has right-hand side 0 (see
    `is_A_derivable`): the full system is homogeneous, so e = 0 and the
    witness is D0, read off the grading with no span built.  That is the
    paper's e = 0 for Carnot groups, certified by one pass over the table.
    """
    setup = _setup(g)
    if setup.graded:
        return EInvariantResult(Fraction(0), setup.operator([]))
    system = before = AffineSystem(len(setup.positions))
    ratio = None
    for r, coeffs, rhs in _ratio_rows(setup):
        if r is not ratio:  # a group's rows share one ratio object
            ratio, before = r, system.copy()
        system.add(coeffs, rhs)
        if system.infeasible:
            return EInvariantResult(r, setup.operator(before.particular()))
    return EInvariantResult(Fraction(0), setup.operator(system.particular()))
