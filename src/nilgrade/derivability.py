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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import lie
from .lie import AdaptedBasis, Filtration, LieAlgebra
from .linalg import AffineSystem, Matrix, Vec, ZERO, mat_inv, mat_mul, mat_vec, q

SparseVec = dict[int, int]


class OperatorNotInDError(ValueError):
    """Raised when a matrix is not a grading operator of the algebra."""


@dataclass(frozen=True, order=True)
class DerivCondition:
    """A containment constraint: Delta_n D(F_p1, ..., F_pn) inside F_{level+1}."""

    wp: tuple[int, ...]
    level: int

    def __post_init__(self):
        if len(self.wp) < 2:
            raise ValueError("tuple must have length at least 2")
        if any(p < 1 for p in self.wp):
            raise ValueError("tuple entries must be positive")
        if self.wp[-2] > self.wp[-1]:
            raise ValueError("last two tuple entries must be nondecreasing")
        if sum(self.wp) >= self.level:
            raise ValueError("level must exceed the tuple sum")

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.wp) + f"|{self.level})"


ConditionSet = frozenset  # of DerivCondition


@dataclass(frozen=True)
class GradingOperator:
    """A grading operator as a dim x dim rational matrix, original coordinates."""

    matrix: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Matrix) -> "GradingOperator":
        return GradingOperator(tuple(tuple(q(x) for x in row) for row in rows))

    @property
    def rows(self) -> Matrix:
        return [list(r) for r in self.matrix]

    def apply(self, v: Sequence[Fraction]) -> Vec:
        return mat_vec(self.rows, v)


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
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


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
    conditions = set()
    for j in range(3, c + 1):
        for wp in enumerate_T(j, c):
            conditions.add(DerivCondition(wp, j))
    return frozenset(conditions)


def candidate_values(c: int) -> list[Fraction]:
    """{0} with all ratios i/j for 2 <= i < j <= c, sorted increasing."""
    if c < 2:
        raise ValueError("need c >= 2")
    values = {Fraction(0)}
    for j in range(3, c + 1):
        for i in range(2, j):
            values.add(Fraction(i, j))
    return sorted(values)


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


def _adapted_operator(d: GradingOperator, setup: _Setup) -> Matrix | None:
    """p^-1 D p if D is a grading operator (see `is_grading_operator`), else None."""
    n, degrees = setup.dim, setup.degrees
    if [len(row) for row in d.matrix] != [n] * n:
        return None
    d_ad = mat_mul(mat_mul(setup.p_inv, d.rows), setup.p)
    free = set(setup.positions)
    for a, row in enumerate(d_ad):
        if any(x != (degrees[a] if a == b else 0) for b, x in enumerate(row) if (a, b) not in free):
            return None
    return d_ad


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
    the adapted degree) and the elementary free directions at
    `_Setup.positions`, all in original coordinates.
    """
    setup = _setup(g)
    if f != setup.f or ab != setup.ab:
        raise ValueError("ab must be the adapted basis of the lower central series of g")
    p, p_inv, n = setup.p, setup.p_inv, setup.dim
    directions = [
        [[p[i][a] * p_inv[b][j] for j in range(n)] for i in range(n)] for a, b in setup.positions
    ]
    return setup.operator([]), directions


class _Node(NamedTuple):
    """Index path (b_last, ..., b_k): its suffix bracket sigma^depth *
    [e_bk, [..., e_blast]], the replacement brackets per free variable and
    the degree sum, none of which depends on a condition.  The next index
    stays below `limit` (b_last at a root: Delta alternates in the last two
    slots); `children` maps it to the extended node, or to None if empty.
    `brackets` maps an index i to `ad`(i, suffix), filled on first use: its
    entry at b is the suffix of the child at b, and its entry at a is the new
    term of each free variable (a, b) in that child, so the node brackets its
    suffix once per index."""

    suffix: SparseVec
    repl: dict[int, SparseVec]
    degsum: int
    limit: int
    children: dict[int, "_Node | None"]
    brackets: dict[int, SparseVec]


class _Setup:
    """An algebra's adapted coordinates, built once per instance by `_setup`.

    `roots[b]` is the path trie rooted at index b (see `_Node`), filled in
    on first visit and kept as long as the algebra instance, so every call,
    condition and candidate reuses it.  Threads may share it, as they may
    share a `LieAlgebra`: each fill is idempotent.
    """

    def __init__(self, g: LieAlgebra):
        self.dim = n = g.dim
        self.f = lie.lower_central_series(g)
        self.c = self.f.nilpotency_class
        self.ab = lie.adapted_basis(g, self.f)
        self.degrees = degrees = self.ab.degrees
        self.p = self.ab.change_of_basis
        self.p_inv = mat_inv(self.p)
        # sigma * [e_i, v] in adapted coordinates; bound to the adapted algebra, not to g
        self.ad = lie.algebra_in_basis(g, self.p, self.p_inv).ad
        # free positions (a, b), column-major: degree(a) > degree(b), so a grading operator
        # may differ from diag(degrees) there; N e_b = e_a; col_vars[b] lists (var, a)
        self.positions = [(a, b) for b in range(n) for a in range(n) if degrees[a] > degrees[b]]
        self.col_vars: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for var, (a, b) in enumerate(self.positions):
            self.col_vars[b].append((var, a))
        # first adapted index of each degree (degrees are nondecreasing)
        self.first_at_least = [
            next((i for i in range(n) if self.degrees[i] >= d), n) for d in range(self.c + 2)
        ]
        self.roots = [
            _Node({b: 1}, {var: {a: 1} for var, a in self.col_vars[b]}, self.degrees[b], b, {}, {})
            for b in range(n)
        ]

    def extend(self, node: _Node, b: int) -> _Node | None:
        """Compute and store the child of `node` at index b (see `_Node`)."""
        ad = self.ad
        suffix = node.suffix
        new_repl = {var: bw for var, w in node.repl.items() if (bw := ad(b, w))}
        new_suffix: SparseVec = {}
        if suffix:
            brackets = node.brackets
            for i in (b, *(a for _, a in self.col_vars[b])):
                if i not in brackets:
                    brackets[i] = ad(i, suffix)
            new_suffix = brackets[b]
            for var, a in self.col_vars[b]:
                merged = new_repl.setdefault(var, {})
                for k, x in brackets[a].items():
                    t = merged.get(k, 0) + x
                    if t:
                        merged[k] = t
                    else:
                        merged.pop(k, None)
                if not merged:
                    del new_repl[var]
        kid = None
        if new_suffix or new_repl:
            kid = _Node(new_suffix, new_repl, node.degsum + self.degrees[b], self.dim, {}, {})
        node.children[b] = kid
        return kid

    def operator(self, x: Sequence[Fraction]) -> GradingOperator:
        """diag(degrees) plus x[var] at each free position, in original coordinates."""
        n = self.dim
        d_ad = [[Fraction(self.degrees[i]) if i == j else ZERO for j in range(n)] for i in range(n)]
        for (a, b), value in zip(self.positions, x):
            d_ad[a][b] += value
        return GradingOperator.from_rows(mat_mul(mat_mul(self.p, d_ad), self.p_inv))


def _setup(g: LieAlgebra) -> _Setup:
    """g's `_Setup`, built on first use and kept on the instance."""
    if g._setup_cache is None:
        g._setup_cache = _Setup(g)
    return g._setup_cache


def _clamp_conditions(conditions: Iterable[DerivCondition], c: int) -> set[DerivCondition]:
    """Project conditions to nilpotency class c and drop trivial ones.

    Dominated conditions stay (see `_antichain`): their rows are among
    their dominator's, so the row space, and with it the canonical RREF
    and the witness, is the same with or without them.
    """
    clamped = set()
    for cond in conditions:
        level = min(cond.level, c)
        if level > sum(cond.wp):
            clamped.add(DerivCondition(cond.wp, level))
    return clamped


@lru_cache(maxsize=None)
def _antichain(c: int, r: Fraction) -> tuple[DerivCondition, ...]:
    """The conditions of `r_condition_set(c, r)` that no other one dominates.

    (wp'|j') dominates (wp|j) if the tuples have the same length, wp' <= wp
    entrywise and j <= j'.  A dominator has the same level (`_level` grows
    with the sum), and within one (length, level) lowering entries takes a
    tuple to a dominator of the least admissible sum.  So the antichain is
    the normalized tuples of that sum per (length, level), by length, sum,
    then lexicographically.  It depends on no algebra, like `bch_table(c)`.
    """
    out: list[DerivCondition] = []
    for n in range(2, c):
        least: dict[int, int] = {}  # level -> least sum; admissible iff any sum is
        for total in range(n, c):
            least.setdefault(_level(total, c, r), total)
        out += (DerivCondition(wp, j) for j, s in least.items() if j > s for wp in _normalized(s, n))
    return tuple(out)


def _condition_rows(setup: _Setup, cond: DerivCondition) -> Iterator[tuple[SparseVec, int]]:
    """Yield the affine rows (coeffs, rhs) of one condition, lazily: a
    consumer that stops pulling stops the walk.

    Works in adapted coordinates where D0 is diagonal and each free
    direction is an elementary matrix, walking the setup's path trie over
    tuple slots from the right: the condition only picks the children
    (degrees >= wp) and the depth, so each bracket is computed once per
    `_Setup`, while the rows are emitted per condition.  The walk enters
    only paths whose degree sum, plus wp's entries for the slots still to
    fill, stays below the level; since degrees are nondecreasing that is an
    upper index bound per slot.  It is exact: on a path of degree sum
    s >= level the suffix lies in F_s, where D0 acts as s, and the free
    entries of N and the replacement brackets reach only F_{s+1}, beyond
    `max_coord`; so the path emits no row, and the stream is the unbounded
    walk's, row for row.  The brackets run
    on integers: a vector at trie depth k carries the scale sigma^k, so
    each row is the true row times sigma^(n-1), which leaves the echelon
    form, with its unit pivots, unchanged.
    """
    n = len(cond.wp)
    degrees = setup.degrees
    col_vars = setup.col_vars
    extend = setup.extend
    first_at_least = setup.first_at_least
    top = setup.c + 1
    max_coord = first_at_least[min(cond.level + 1, top)]
    starts = [first_at_least[p] for p in cond.wp]
    rest = [sum(cond.wp[:slot]) for slot in range(n)]  # least degree sum of slots 0..slot-1

    def end(degsum: int, slot: int) -> int:
        # first index whose degree takes the path's least sum, slots below `slot` included, to the level
        return first_at_least[max(0, min(cond.level - degsum - rest[slot], top))]

    def recurse(slot: int, node: _Node):
        if slot == 0:
            yield from _emit_rows(node.suffix, node.repl, node.degsum)
            return
        children = node.children
        for b in range(starts[slot - 1], min(node.limit, end(node.degsum, slot - 1))):
            kid = children[b] if b in children else extend(node, b)
            if kid is not None:
                yield from recurse(slot - 1, kid)

    def _emit_rows(value: SparseVec, repl: dict[int, SparseVec], degsum: int):
        # affine value: (D0 - degsum) v + sum_m x_m (v_{col(m)} e_{row(m)}) - repl
        rows: dict[int, SparseVec] = {}
        rhs: SparseVec = {}
        for coord, val in value.items():
            if coord < max_coord:
                diff = (degrees[coord] - degsum) * val
                if diff:
                    rhs[coord] = -diff
            for var, a in col_vars[coord]:
                if a < max_coord:
                    entry = rows.setdefault(a, {})
                    entry[var] = entry.get(var, 0) + val
        for var, w in repl.items():
            for coord, val in w.items():
                if coord < max_coord and val:
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
                yield coeffs, b

    # outermost slot is the last one so suffixes can be built right-to-left;
    # substituting into that slot replaces it by a single basis vector
    for root in setup.roots[starts[n - 1] : end(0, n - 1)]:
        yield from recurse(n - 1, root)


def _feasibility(setup: _Setup, clamped: Iterable[DerivCondition]) -> GradingOperator | None:
    """Witness for an antichain of conditions clamped to the class, or None."""

    def cost(cond: DerivCondition) -> tuple:
        est = 1
        for p in cond.wp:
            est *= setup.dim - setup.first_at_least[p]
        return (len(cond.wp), est, cond)

    system = AffineSystem(len(setup.positions))
    for cond in sorted(clamped, key=cost):
        for coeffs, rhs in _condition_rows(setup, cond):
            system.add(coeffs, rhs)
            if system.infeasible:
                return None
    return setup.operator(system.particular())


def is_A_derivable(g: LieAlgebra, conditions: Iterable[DerivCondition]) -> GradingOperator | None:
    """Witness grading operator satisfying every condition, or None.

    Conditions are clamped to the nilpotency class first; the witness is
    the deterministic particular solution with all free coefficients
    zero.
    """
    setup = _setup(g)
    return _feasibility(setup, _clamp_conditions(conditions, setup.c))


def e_of_operator(g: LieAlgebra, d: GradingOperator) -> Fraction:
    """Least r for which d satisfies every condition of ratio above r.

    Equals the maximum of |wp| / depth(wp) over normalized tuples, where
    depth(wp) is the filtration depth of the span of all Delta values on
    adapted tuples of degrees >= wp (tuples with zero span are skipped).
    It is computed as the least candidate r such that d meets every
    condition of the antichain `_antichain(c, r)`, which rests on three
    facts: |wp| / depth is always a candidate i/j; d meets (wp|j) iff
    depth(wp) >= j + 1; and for a fixed d, meeting a condition implies
    meeting every condition it dominates.  d meets a condition iff every
    row `_condition_rows` emits for it holds at x_D, the free entries of d
    in adapted coordinates.  The same p^-1 d p first runs the
    `is_grading_operator` test, raising OperatorNotInDError if d fails.
    """
    setup = _setup(g)
    d_ad = _adapted_operator(d, setup)
    if d_ad is None:
        raise OperatorNotInDError("matrix is not a grading operator of the lower central series")
    c = max(setup.c, 2)  # at class <= 2 every antichain is empty: e is 0 and no row is streamed
    scale, point = lie.clear_denominators([d_ad[a][b] for a, b in setup.positions])
    met: dict[DerivCondition, bool] = {}

    def meets(cond: DerivCondition) -> bool:
        if cond not in met:
            met[cond] = all(
                sum(c * point[var] for var, c in coeffs.items()) == rhs * scale
                for coeffs, rhs in _condition_rows(setup, cond)
            )
        return met[cond]

    for r in candidate_values(c):
        if all(meets(cond) for cond in _antichain(c, r)):
            return r
    raise AssertionError("the top candidate has no conditions")


@dataclass(frozen=True)
class EInvariantResult:
    e: Fraction
    witness: GradingOperator


def e_invariant(g: LieAlgebra) -> EInvariantResult:
    """Smallest r in the candidate set whose condition set is feasible.

    Feasibility is monotone in r, so the scan stops at the first
    success; the witness is the deterministic particular solution.
    """
    setup = _setup(g)
    c = max(setup.c, 2)  # below class 2, as at class 2, there are no conditions
    for r in candidate_values(c):
        witness = _feasibility(setup, _antichain(c, r))
        if witness is not None:
            return EInvariantResult(r, witness)
    raise AssertionError("empty condition set at the top candidate must be feasible")
