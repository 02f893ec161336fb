"""Lie algebras from rational structure constants.

An algebra is given by the brackets of basis pairs [e_i, e_j] for i < j;
antisymmetry fills in the rest and unlisted pairs are zero.  The Jacobi
identity is checked explicitly (`check_jacobi`), never assumed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import NamedTuple, Sequence

from .linalg import (
    ZERO, Echelon, Vec, clear_denominators, integer_inverse, integer_rows, permutation_of, pivot_row, q, sparse_mul,
    transpose,
)


class AlgebraFormatError(ValueError):
    """Raised on malformed or inconsistent algebra definition text."""


class NotNilpotentError(ValueError):
    """Raised when the lower central series does not reach zero."""


def _labels(dim: int, labels: Sequence[str] | None) -> tuple[str, ...]:
    """The given labels, or e1..e_dim; ValueError unless there are dim of them."""
    if labels is None:
        return tuple(f"e{k}" for k in range(1, dim + 1))
    if len(labels) != dim:
        raise ValueError("label count must equal dim")
    return tuple(labels)


def _sparse_table(brackets: dict[tuple[int, int], dict[int, Fraction]]) -> tuple[int, tuple]:
    """(sigma, table) of the sparse brackets {(i, j): {k: nonzero rational}}, i < j; ints
    may stand for integral rationals, and empty brackets are dropped.  See `LieAlgebra`."""
    pairs = [(i, j, sorted(v)) for (i, j), v in sorted(brackets.items()) if v]
    sigma, ints = clear_denominators([brackets[i, j][k] for i, j, ks in pairs for k in ks])
    it = iter(ints)  # zip stops at the end of ks before it draws from it
    return sigma, tuple((i, j, tuple(zip(ks, it))) for i, j, ks in pairs)


class LieAlgebra:
    """Finite-dimensional Lie algebra with rational structure constants.

    Brackets are stored only for i < j; values are immutable after
    construction and instances are safe to share between threads.

    `table` is the one structure table every bracket runs on: the pairs
    (i, j, ((k, s), ...)) with nonzero [e_i, e_j], sorted, where the s are
    the integers sigma * [e_i, e_j]_k for the least common denominator
    `sigma` of all structure constants.  `scaled_bracket` is the dense
    kernel over it and `ad` the sparse one.  `brackets` is read off the
    table on first use.
    """

    def __init__(
        self,
        dim: int,
        brackets: dict[tuple[int, int], Sequence[Fraction]],
        labels: Sequence[str] | None = None,
    ):
        labels = _labels(dim, labels)
        sparse: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), value in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket pair ({i},{j}) must satisfy 0 <= i < j < dim")
            v = [q(x) for x in value]
            if len(v) != dim:
                raise ValueError("bracket value has wrong length")
            sparse[(i, j)] = {k: x for k, x in enumerate(v) if x}
        self._set(dim, *_sparse_table(sparse), labels)

    @classmethod
    def _from_table(cls, dim: int, sigma: int, table: tuple, labels: Sequence[str] | None) -> "LieAlgebra":
        """The algebra of a canonical `table` and its `sigma`; `brackets` follows on first read."""
        g = cls.__new__(cls)
        g._set(dim, sigma, table, _labels(dim, labels))
        return g

    def _set(self, dim: int, sigma: int, table: tuple, labels: tuple[str, ...]) -> None:
        self.dim = dim
        self.labels = labels
        self.sigma = sigma
        self.table = table
        self._lcs_cache: Filtration | None = None
        self._setup_cache = None  # derivability._setup fills it, idempotently
        self._splits: dict[tuple[int, ...], tuple] = {}  # `_degree_split` fills it
        # `graded_part` per degree tuple, None where it raised: `bch._is_companion` fills it
        self._graded_parts: dict[tuple[int, ...], LieAlgebra | None] = {}

    @cached_property
    def brackets(self) -> dict[tuple[int, int], tuple[Fraction, ...]]:
        """The nonzero [e_i, e_j], i < j, as dense tuples of Fractions: `table` over sigma."""
        out = {}
        for i, j, entries in self.table:
            v = [ZERO] * self.dim
            for k, s in entries:
                v[k] = Fraction(s, self.sigma)
            out[(i, j)] = tuple(v)
        return out

    @cached_property
    def _signed_rows(self) -> list[dict[int, dict[int, int]]]:
        # rows[i][j] = sigma * [e_i, e_j] as {k: int}, for i < j and i > j
        rows: list[dict[int, dict[int, int]]] = [{} for _ in range(self.dim)]
        for i, j, entries in self.table:
            rows[i][j] = dict(entries)
            rows[j][i] = {k: -s for k, s in entries}
        return rows

    def ad(self, i: int, v: dict[int, int]) -> dict[int, int]:
        """sigma * [e_i, v] over `table`, for a sparse {index: int} v; the result has no zero entry."""
        out: dict[int, int] = {}
        row = self._signed_rows[i]
        for j, coeff in v.items():
            bv = row.get(j)
            if bv is None:
                continue
            for k, s in bv.items():
                t = out.get(k, 0) + coeff * s
                if t:
                    out[k] = t
                else:
                    out.pop(k, None)
        return out

    def __eq__(self, other) -> bool:
        # the table and sigma determine the brackets and are determined by them
        return (
            isinstance(other, LieAlgebra)
            and self.dim == other.dim
            and self.sigma == other.sigma
            and self.table == other.table
        )

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, nonzero_brackets={len(self.table)})"


class Filtration(NamedTuple):
    """Lower central series F_1 ⊇ F_2 ⊇ ... ⊇ F_{c+1} = 0 of a dim-dimensional
    algebra.  `int_rows[k-1]` holds F_k's `Echelon.int_rows`: primitive integer
    rows in pivot order, read-only.  They are canonical for the span, so two
    filtrations are equal, and hash equal, iff their spans are; `basis` makes
    the RREF rows from them on read."""

    int_rows: tuple[tuple[dict[int, int], ...], ...]
    nilpotency_class: int
    dim: int

    def __hash__(self) -> int:
        return hash(tuple(tuple(tuple(sorted(row.items())) for row in level) for level in self.int_rows))

    def basis(self, k: int) -> list[Vec]:
        """RREF basis of F_k (1-indexed); empty list for k > c."""
        if k < 1:
            raise ValueError("filtration index must be at least 1")
        if k > len(self.int_rows):
            return []
        return [pivot_row(row, self.dim) for row in self.int_rows[k - 1]]

    @property
    def quotient_dims(self) -> tuple[int, ...]:
        dims = [len(level) for level in self.int_rows]
        return tuple(dims[k] - dims[k + 1] for k in range(self.nilpotency_class))


class AdaptedBasis(NamedTuple):
    """Basis adapted to a filtration: degree-≥i vectors span F_i.

    `int_rows[b]` is the basis vector b times the least positive integer that
    clears it, as a sparse {index: int} dict: the `Filtration.int_rows` row it
    was picked from, read-only.  Two bases are equal, and hash equal, iff
    their rows and degrees are; `vectors` makes the Fraction vectors from the
    rows on read.
    """

    int_rows: tuple[dict[int, int], ...]
    degrees: tuple[int, ...]

    def __hash__(self) -> int:
        return hash((tuple(tuple(sorted(row.items())) for row in self.int_rows), self.degrees))

    @property
    def vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        """Each basis vector as a dense Fraction tuple: its row over its pivot value."""
        n = len(self.int_rows)
        return tuple(tuple(pivot_row(row, n)) for row in self.int_rows)


def graded_part(g: LieAlgebra, degrees: Sequence[int]) -> LieAlgebra:
    """g with each [e_a, e_b] cut to its components of degree deg(a) + deg(b).

    The kept table entries are divided once by their gcd with sigma, so the
    new sigma is the least common denominator, as `LieAlgebra` would find
    it.  ValueError names the first pair, in table order, with a component
    of lower degree.
    """
    kept = []
    common = g.sigma
    for a, b, entries in g.table:
        target = degrees[a] + degrees[b]
        if any(degrees[k] < target for k, _ in entries):
            raise ValueError(f"[{g.labels[a]}, {g.labels[b]}] has a component of degree below {target}")
        top = [(k, s) for k, s in entries if degrees[k] == target]
        if top:
            kept.append((a, b, top))
            common = gcd(common, *(s for _, s in top))
    table = tuple((a, b, tuple((k, s // common) for k, s in top)) for a, b, top in kept)
    return LieAlgebra._from_table(g.dim, g.sigma // common, table, g.labels)


def grading_violations(g: LieAlgebra, degrees: Sequence[int]) -> list[tuple[int, int]]:
    """The pairs (a, b), a < b, in table order, whose [e_a, e_b] has a component
    outside degree deg(a) + deg(b): none iff the degrees grade g."""
    return [
        (a, b)
        for a, b, entries in g.table
        if any(degrees[k] != degrees[a] + degrees[b] for k, _ in entries)
    ]


def degree_one_generates(g: LieAlgebra, degrees: Sequence[int]) -> bool:
    """Whether the basis vectors of degree 1 generate g, for degrees that
    grade g (`grading_violations` is empty) and a table that satisfies Jacobi.

    Write V_k for the span of the degree-k basis vectors.  By Jacobi the
    subalgebra that V_1 generates is spanned by left-nested brackets of V_1,
    so its degree-k part is W_k = [V_1, W_{k-1}], with W_1 = V_1; by
    induction on k it is g iff [V_1, V_{k-1}] = V_k for every k >= 2.
    [V_1, V_{k-1}] is spanned by the table entries that pair a degree-1
    index with a degree-(k-1) index, which lie in V_k, so one `Echelon` per
    k compares their rank with #{deg = k}.
    """
    spans = {k: Echelon() for k in range(2, max(degrees, default=1) + 1)}
    for a, b, entries in g.table:
        if degrees[a] == 1 or degrees[b] == 1:
            spans[degrees[a] + degrees[b]].add(dict(entries))
    return all(ech.rank == sum(d == k for d in degrees) for k, ech in spans.items())


def _degree_split(g: LieAlgebra, degrees: Sequence[int]) -> tuple:
    """`g.table` grouped for `scaled_bracket` by the degree of u's index in each term.

    Returns ((a, same, cross), ...) by increasing a.  same holds the
    entries (i, j, entries) with degrees[i] == degrees[j] == a, whose term
    u_i v_j - u_j v_i has u at degree a; cross holds (i, j, entries) with
    degrees[i] == a != degrees[j], whose term is u_i v_j alone: each entry of
    unequal degrees is listed once as (i, j, entries) and once as
    (j, i, -entries).  Built once per algebra and degree list.
    """
    key = tuple(degrees)
    split = g._splits.get(key)
    if split is None:
        groups: dict[int, tuple[list, list]] = {}
        for i, j, entries in g.table:
            a, b = key[i], key[j]
            if a == b:
                groups.setdefault(a, ([], []))[0].append((i, j, entries))
            else:
                groups.setdefault(a, ([], []))[1].append((i, j, entries))
                groups.setdefault(b, ([], []))[1].append((j, i, tuple((k, -s) for k, s in entries)))
        split = tuple((a, tuple(same), tuple(cross)) for a, (same, cross) in sorted(groups.items()))
        g._splits[key] = split
    return split


def scaled_bracket(g: LieAlgebra, u: Sequence, v: Sequence, split: tuple, shift: int, cap: int, into: dict) -> dict:
    """Add sigma * [u_a, v] over `g.table` into into[a + shift] for each degree
    part u_a of u: integer vectors give integer rows.

    The only dense bracket kernel; callers with rational inputs clear
    denominators first (see `bracket`).  `split` is `_degree_split(g,
    degrees)` or a subset of its groups, so one walk of the table serves
    every degree part of u: sigma * [u_a, v], for the part u_a of u at the
    coordinates of degree a, is added into the row into[a + shift] (made if
    missing) for each group a with a + shift < cap, and `into` is returned.
    A term whose indices share a degree is the one product u_i v_j - u_j v_i,
    so the one group ((0, g.table, ()),) of the whole table at degree 0 is
    the plain bracket.
    """
    for a, same, cross in split:
        w = a + shift
        if w >= cap:
            break
        out = into.get(w)
        if out is None:
            out = into[w] = [0] * g.dim
        for i, j, entries in same:
            c = u[i] * v[j] - u[j] * v[i]
            if c:
                for k, s in entries:
                    out[k] += c * s
        for i, j, entries in cross:
            c = u[i] * v[j]
            if c:
                for k, s in entries:
                    out[k] += c * s
    return into


def _divide(v: list[int], den: int) -> Vec:
    return [Fraction(s, den) if s else ZERO for s in v]


def bracket(g: LieAlgebra, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vec:
    """Bilinear antisymmetric extension of the basis brackets."""
    if len(x) != g.dim or len(y) != g.dim:
        raise ValueError("dimension mismatch")
    dx, ix = clear_denominators(x)
    dy, iy = clear_denominators(y)
    return _divide(scaled_bracket(g, ix, iy, ((0, g.table, ()),), 0, 1, {})[0], g.sigma * dx * dy)


def iterated_bracket(g: LieAlgebra, xs: Sequence[Sequence[Fraction]]) -> Vec:
    """Left-nested bracket [x_1, [x_2, ..., [x_{n-1}, x_n]...]]."""
    if not xs:
        raise ValueError("need at least one vector")
    acc = list(xs[-1])
    for x in reversed(xs[:-1]):
        acc = bracket(g, x, acc)
    return acc


def check_jacobi(g: LieAlgebra) -> list[tuple[int, int, int, Vec]]:
    """All basis triples i<j<k violating the Jacobi identity, with values.

    A triple's Jacobi sum is [e_a, [e_b, e_c]] summed over its cyclic
    rotations (a, b, c).  So it is summed from the table: each nonzero
    [e_b, e_c] = v, b < c, meets each a outside {b, c} that brackets
    nontrivially with v's support, with sign - when (a, b, c) is not a
    rotation of the sorted triple, that is when b < a < c; every other term
    is zero.  The violations are reported in increasing order.
    """
    rows = g._signed_rows
    totals: dict[tuple[int, int, int], dict[int, int]] = {}
    for b, c, _ in g.table:
        v = rows[b][c]
        for a in {a for k in v for a in rows[k]} - {b, c}:
            sign = -1 if b < a < c else 1
            total = totals.setdefault(tuple(sorted((a, b, c))), {})
            for m, x in g.ad(a, v).items():
                total[m] = total.get(m, 0) + sign * x
    violations = []
    for (i, j, k), total in sorted(totals.items()):
        if any(total.values()):
            violations.append((i, j, k, _divide([total.get(m, 0) for m in range(g.dim)], g.sigma**2)))
    return violations


def lower_central_series(g: LieAlgebra) -> Filtration:
    """F_1 = g, F_{k+1} = span[g, F_k]; raises NotNilpotentError if it stalls.

    F_2 is the span of the table's entries, sigma [e_i, e_j] for i < j, each
    read once with no bracket; every later level brackets the rows that
    spanned the one before.
    """
    if g._lcs_cache is not None:
        return g._lcs_cache
    # the integer images sigma * [e_i, v] that raised the rank of a level's
    # echelon span that level, so the next level brackets them; [e_i, v] is
    # zero unless e_i brackets nontrivially with some e_j in v's support
    rows = g._signed_rows
    chain: list[tuple[dict[int, int], ...]] = [tuple({i: 1} for i in range(g.dim))]
    spanning = list(chain[0])
    while spanning:
        ech = Echelon()
        if len(chain) == 1:
            images = [w for _, _, entries in g.table if ech.add(w := dict(entries))]
        else:
            images = []
            for v in spanning:
                # the order of the partners reaches no canonical row
                for i in {i for j in v for i in rows[j]}:
                    w = g.ad(i, v)
                    if w and ech.add(w):
                        images.append(w)
        # [g, F_k] ⊆ [g, F_{k-1}] by bilinearity, so equal dims mean a stall
        if len(images) == len(spanning):
            raise NotNilpotentError("lower central series does not reach zero")
        chain.append(tuple(ech.int_rows.values()))
        spanning = images
    filtration = Filtration(tuple(chain), len(chain) - 1, g.dim)
    g._lcs_cache = filtration
    return filtration


def _seed_graded_series(g: LieAlgebra, degrees: Sequence[int]) -> None:
    """Cache on g the lower central series F_i = span{e_b : degrees[b] >= i}.

    Only for a basis where that is the series: g written in the eigenbasis
    of a grading operator's layers, with `degrees` its layer degrees (see
    `carnot.carnot_pair`), whose layers from i on span F_i, or a graded
    algebra that its degree-1 layer generates (see `carnot.carnot_algebra`
    and `degree_one_generates`).  The rows are
    what `lower_central_series` computes: the unit rows, by increasing pivot.
    """
    c = max(degrees, default=0)
    levels = tuple(tuple({b: 1} for b, d in enumerate(degrees) if d >= i) for i in range(1, c + 2))
    g._lcs_cache = Filtration(levels, c, g.dim)


def adapted_basis(g: LieAlgebra, f: Filtration) -> AdaptedBasis:
    """Deterministic adapted basis, preferring original basis vectors.

    Extends the basis of F_c upward to F_1; at each level the original
    basis vectors lying in F_i are tried first, in index order, before
    falling back to the basis of F_i.  F_i's basis is its canonical RREF
    (see `Filtration`), and a unit vector lies in an RREF span iff it is
    one of the rows, so those vectors are the rows with a single nonzero
    entry.  The choice runs on F_i's integer rows, which span what the RREF
    rows span, one by one.
    """
    c = f.nilpotency_class
    ech = Echelon()
    rank = 0
    picked: list[tuple[int, list[dict[int, int]]]] = []  # by decreasing level
    for level in range(c, 0, -1):
        level_rows = f.int_rows[level - 1]
        target = len(level_rows)
        got: list[dict[int, int]] = []
        # each row is tried once, the unit vectors first, until F_i is spanned
        if rank < target:
            for v in level_rows:
                if len(v) == 1 and ech.add(v):
                    got.append(v)
                    rank += 1
                    if rank == target:
                        break
            else:
                for v in level_rows:
                    if len(v) > 1 and ech.add(v):
                        got.append(v)
                        rank += 1
                        if rank == target:
                            break
        if rank != target:
            raise RuntimeError("failed to complete adapted basis (internal error)")
        picked.append((level, got))
    rows: list[dict[int, int]] = []
    degrees: list[int] = []
    for level, got in reversed(picked):
        rows += got
        degrees += [level] * len(got)
    return AdaptedBasis(tuple(rows), tuple(degrees))


def change_of_basis(
    g: LieAlgebra, new_vectors: Sequence[Sequence[Fraction]], labels: Sequence[str] | None = None
) -> LieAlgebra:
    """Structure constants of g in the basis given by `new_vectors`.

    With p the matrix of those columns, p = P/dp for the integer P and
    P^-1 = Q/dq from `integer_inverse`, so p^-1 [p e_i, p e_j] is
    Q [P e_i, P e_j] / (dp dq): `algebra_in_integer_basis` at scale dp dq.
    """
    n = g.dim
    if len(new_vectors) != n or any(len(v) != n for v in new_vectors):
        raise ValueError("need dim basis vectors, each of length dim")
    dp, p_cols = integer_rows([[q(x) for x in v] for v in new_vectors])
    dq, q_rows = integer_inverse(p_cols)
    return algebra_in_integer_basis(g, p_cols, q_rows, dp * dq, labels)


def algebra_in_integer_basis(
    g: LieAlgebra,
    p_cols: Sequence[dict[int, int]],
    q_rows: Sequence[dict[int, int]],
    scale: int,
    labels: Sequence[str] | None = None,
) -> LieAlgebra:
    """g in the basis of p's columns, given on integers: P's sparse columns and
    Q's sparse rows with p^-1 [p e_i, p e_j] = Q [P e_i, P e_j] / scale.

    So for p = P/dp and P^-1 = Q/dq, scale is dp dq.  The new constants
    are Q sigma[P e_i, P e_j] / (sigma scale).  Both products run on sparse
    integer columns: sigma[P e_i, P e_j] is the sum of P_ai * `ad`(a, P e_j)
    over the support of P e_i, each `ad` image computed once, and Q is
    applied to all of those brackets by one `sparse_mul` with Q's
    `transpose`.  Only the pairs (i, j) where some a in the support of P e_i
    brackets nontrivially with some b in that of P e_j are visited, in
    (i, j) order, and only such a meet `ad`: every other bracket is zero.
    The new table is those integer vectors divided once by the gcd of all
    their entries and sigma * scale, and the new sigma is sigma * scale over
    that gcd: the least common denominator of the constants, as
    `LieAlgebra` would find it.

    A permutation P, each column one entry 1, at scale 1 skips both
    products: then Q is P's transpose and p e_b = e_pi(b), so the new
    table is g's relabeled by pi^-1, each pair put in increasing order with
    its sign and the whole sorted, and sigma is g's own (a relabeling keeps
    the table's entries, whose gcd with sigma is already 1).  The identity
    keeps g's table as it is and shares g's signed rows (`ad`'s), not g.
    """
    n = g.dim
    pi = permutation_of(p_cols) if scale == 1 else None
    if pi is not None:
        if pi == list(range(n)):
            same = LieAlgebra._from_table(n, g.sigma, g.table, labels)
            same._signed_rows = g._signed_rows  # the same table: one list of signed rows serves both
            return same
        new = [0] * n  # e_a = p e_new[a]
        for b, a in enumerate(pi):
            new[a] = b
        table = []
        for a, b, entries in g.table:
            i, j = new[a], new[b]
            moved = tuple(sorted((new[k], s) for k, s in entries))
            table.append((i, j, moved) if i < j else (j, i, tuple((k, -s) for k, s in moved)))
        return LieAlgebra._from_table(n, g.sigma, tuple(sorted(table)), labels)
    rows = g._signed_rows
    holders = transpose(p_cols, n)  # holders[b]: the j with b in the support of P e_j
    images: dict[tuple[int, int], dict[int, int]] = {}  # (a, j) -> sigma [e_a, P e_j]
    pairs: list[tuple[int, int]] = []
    brackets: list[dict[int, int]] = []  # sigma [P e_i, P e_j] for each pair
    for i in range(n):
        for j in sorted({j for a in p_cols[i] for b in rows[a] for j in holders[b] if j > i}):
            w: dict[int, int] = {}
            for a, x in p_cols[i].items():
                if rows[a].keys().isdisjoint(p_cols[j]):
                    continue
                image = images.get((a, j))
                if image is None:
                    image = images[(a, j)] = g.ad(a, p_cols[j])
                for m, s in image.items():
                    w[m] = w.get(m, 0) + x * s
            pairs.append((i, j))
            brackets.append(w)
    # Q w, as a row, is w's row times Q's transpose
    products = [(i, j, out) for (i, j), out in zip(pairs, sparse_mul(brackets, transpose(q_rows, n))) if out]
    den = g.sigma * scale
    common = gcd(den, *(x for _, _, out in products for x in out.values()))
    table = tuple((i, j, tuple((k, out[k] // common) for k in sorted(out))) for i, j, out in products)
    return LieAlgebra._from_table(n, den // common, table, labels)


_LABEL = r"[A-Za-z_]\w*"  # a basis label: anything else misreads in a bracket's terms
_MAX_DIM = 1000  # an algebra is built in memory, so its dimension is capped
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+(?:/\d+)?)\s*\*?\s*)?(?P<label>" + _LABEL + r")\s*"
)
_LABEL_RE = re.compile(_LABEL)
_BRACKET_RE = re.compile(r"(\S+)\s+(\S+)\s*=\s*(.+)$")


def _parse_terms(rhs: str, label_index: dict[str, int], where: str) -> dict[int, Fraction]:
    """The right-hand side as a sparse {index: nonzero rational}; ints stand for integers."""
    rhs = rhs.strip()
    out: dict[int, Fraction] = {}
    if rhs == "0":
        return out
    pos = 0
    # a term matches at pos iff the next match starts there: a label is never empty
    for m in _TERM_RE.finditer(rhs):
        if m.start() != pos:
            break
        sign, coeff, label = m.groups()
        if pos and sign is None:
            raise AlgebraFormatError(f"missing +/- between terms in {where}")
        if coeff is None:
            c = 1
        else:
            num, _, den = coeff.partition("/")
            try:
                c = Fraction(int(num), int(den)) if den else int(num)
            except (ValueError, ZeroDivisionError) as exc:
                raise AlgebraFormatError(f"malformed rational {coeff!r} in {where}") from exc
        if sign == "-":
            c = -c
        k = label_index.get(label)
        if k is None:
            raise AlgebraFormatError(f"unknown basis label {label!r} in {where}")
        out[k] = out.get(k, 0) + c
        pos = m.end()
    if pos < len(rhs):
        raise AlgebraFormatError(f"malformed term in {where}: {rhs[pos:]!r}")
    return {k: x for k, x in out.items() if x}


def parse_algebra(text: str) -> LieAlgebra:
    """Parse the line-oriented algebra definition format.

    Grammar (one declaration per line, '#' starts a comment)::

        dim N
        basis e1 e2 ... eN          # optional, defaults to e1..eN
        bracket ei ej = c1 ek [+ c2 el ...]

    A label is a letter or _ followed by letters, digits or _.  Coefficients
    are rational literals (1, -1, 1/2, -3/4); a coefficient of 1 may be
    omitted.  Unlisted brackets are zero and exactly one declaration per
    unordered pair is allowed.
    """
    dim: int | None = None
    labels: list[str] | None = None
    label_index: dict[str, int] = {}
    pending: list[tuple[str, str, str, str]] = []
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        parts = line.split(None, 1)
        keyword = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if keyword == "dim":
            if dim is not None:
                raise AlgebraFormatError(f"duplicate dim declaration ({where})")
            try:
                dim = int(rest.strip())
            except ValueError as exc:
                raise AlgebraFormatError(f"malformed dim ({where})") from exc
            if dim <= 0:
                raise AlgebraFormatError(f"dim must be positive ({where})")
            if dim > _MAX_DIM:
                raise AlgebraFormatError(f"dim must be at most {_MAX_DIM} ({where})")
        elif keyword == "basis":
            if dim is None:
                raise AlgebraFormatError(f"basis before dim ({where})")
            if labels is not None:
                raise AlgebraFormatError(f"duplicate basis declaration ({where})")
            labels = rest.split()
            if len(labels) != dim:
                raise AlgebraFormatError(f"basis must list exactly {dim} labels ({where})")
            if len(set(labels)) != dim:
                raise AlgebraFormatError(f"duplicate basis label ({where})")
            bad = [label for label in labels if not _LABEL_RE.fullmatch(label)]
            if bad:
                raise AlgebraFormatError(f"basis label {bad[0]!r} must match {_LABEL} ({where})")
        elif keyword == "bracket":
            if dim is None:
                raise AlgebraFormatError(f"bracket before dim ({where})")
            m = _BRACKET_RE.match(rest)
            if not m:
                raise AlgebraFormatError(f"malformed bracket declaration ({where})")
            pending.append((*m.groups(), where))
        else:
            raise AlgebraFormatError(f"unknown keyword {keyword!r} ({where})")

    if dim is None:
        raise AlgebraFormatError("missing dim declaration")
    if labels is None:
        labels = [f"e{k}" for k in range(1, dim + 1)]
    label_index = {lab: i for i, lab in enumerate(labels)}

    for lab_i, lab_j, rhs, where in pending:
        if lab_i not in label_index or lab_j not in label_index:
            unknown = lab_i if lab_i not in label_index else lab_j
            raise AlgebraFormatError(f"unknown basis label {unknown!r} ({where})")
        i, j = label_index[lab_i], label_index[lab_j]
        if i == j:
            raise AlgebraFormatError(f"bracket of {lab_i!r} with itself ({where})")
        key = (i, j) if i < j else (j, i)
        if key in brackets:
            raise AlgebraFormatError(
                f"duplicate declaration for pair ({lab_i}, {lab_j}) ({where}); "
                "each unordered pair may be declared once"
            )
        value = _parse_terms(rhs, label_index, where)
        if i > j:
            value = {k: -x for k, x in value.items()}
        brackets[key] = value

    return LieAlgebra._from_table(dim, *_sparse_table(brackets), labels)


def serialize_algebra(g: LieAlgebra, degrees: Sequence[int] | None = None) -> str:
    """Algebra definition text that parse_algebra maps back to g."""
    lines = []
    if degrees is not None:
        lines.append("# degrees: " + " ".join(str(d) for d in degrees))
    lines.append(f"dim {g.dim}")
    lines.append("basis " + " ".join(g.labels))
    for i, j, entries in g.table:
        terms = []
        for k, s in entries:
            c = Fraction(s, g.sigma)
            mag = f"{abs(c)} " if abs(c) != 1 else ""
            if not terms:
                sign = "-" if c < 0 else ""
            else:
                sign = "- " if c < 0 else "+ "
            terms.append(f"{sign}{mag}{g.labels[k]}")
        lines.append(f"bracket {g.labels[i]} {g.labels[j]} = " + " ".join(terms))
    return "\n".join(lines) + "\n"
