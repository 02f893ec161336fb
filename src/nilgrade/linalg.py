"""Exact rational vectors, echelon forms, affine systems and integer matrices.

Inputs and results are exact: ints and `fractions.Fraction`, never floats.
Everything is deterministic: pivots are always the first nonzero entry in
column order, so canonical rows and particular solutions are
reproducible.

Rationals become integers here only: `clear_denominators` for a vector,
`integer_rows` for a matrix.  Every solve, inverse and span runs on
`Echelon`, a fraction-free elimination of sparse integer rows (`SparseRow`)
that makes no Fraction: a canonical row becomes one through `pivot_row`,
and every affine system is an `AffineSystem`, built row by row from such
rows, whose `particular` solution is the elimination's one Fraction
result.  No routine here solves a dense matrix.
`integer_inverse`, the one inverse, `sparse_mul`, the one matrix product,
and `transpose`, the one transpose, stay on integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

Vec = list[Fraction]
Matrix = list[list[Fraction]]
SparseRow = dict[int, int]  # {column: nonzero int}

ZERO = Fraction(0)
ONE = Fraction(1)


def q(x) -> Fraction:
    """Coerce ints, strings like '-3/4' or Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vec:
    return [q(x) for x in entries]


def zero_vec(n: int) -> Vec:
    return [ZERO] * n


def unit_vec(n: int, i: int) -> Vec:
    v = [ZERO] * n
    v[i] = ONE
    return v


def matrix(rows: Iterable[Iterable]) -> Matrix:
    m = [[q(x) for x in row] for row in rows]
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged rows")
    return m


def identity(n: int) -> Matrix:
    return [unit_vec(n, i) for i in range(n)]


def mat_vec(m: Matrix, v: Sequence[Fraction]) -> Vec:
    if m and len(m[0]) != len(v):
        raise ValueError("dimension mismatch")
    support = [(j, x) for j, x in enumerate(v) if x]
    return [sum((r[j] * x for j, x in support), ZERO) for r in m]


def clear_denominators(x: Sequence) -> tuple[int, list[int]]:
    """(den, den * x) for the least den that makes every entry an integer."""
    den = math.lcm(1, *(a.denominator for a in x))
    return den, [a.numerator * (den // a.denominator) for a in x]


def integer_rows(rows: Sequence[Sequence]) -> tuple[int, list[SparseRow]]:
    """(den, den * rows) for the least den that makes every entry of the rational
    matrix given by its rows an integer, each row a sparse {column: nonzero int}."""
    den, ints = clear_denominators([x for row in rows for x in row])
    it = iter(ints)
    return den, [{j: x for j in range(len(row)) if (x := next(it))} for row in rows]


def sparse_mul(a: Sequence[dict], b: Sequence[dict]) -> list[dict]:
    """a·b for matrices given by their sparse rows {column: nonzero value}."""
    out = []
    for row in a:
        acc: dict = {}
        for m, x in row.items():
            for k, y in b[m].items():
                acc[k] = acc.get(k, 0) + x * y
        out.append({k: v for k, v in acc.items() if v})
    return out


def transpose(rows: Sequence[dict], n: int) -> list[dict]:
    """The n sparse rows of the transpose of the matrix given by its sparse
    rows {column: nonzero value}, every column below n."""
    out: list[dict] = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for k, x in row.items():
            out[k][i] = x
    return out


def permutation_of(cols: Sequence[dict[int, int]]) -> list[int] | None:
    """The pi with cols[b] == {pi[b]: 1} for every b if the sparse columns
    `cols` are those of a permutation matrix, else None."""
    pi = [i for col in cols if len(col) == 1 for i, x in col.items() if x == 1]
    return pi if len(pi) == len(cols) and sorted(pi) == list(range(len(pi))) else None


def integer_inverse(cols: Sequence[dict[int, int]]) -> tuple[int, list[dict[int, int]]]:
    """(den, inv) with inv / den the inverse of the integer matrix m whose
    columns are the sparse {row: value} dicts `cols`; inv's rows are sparse too.

    The inverse of a permutation matrix, each column one entry 1, is its
    transpose, so m^-1 row b is column b of m and den is 1, with no
    elimination.  Every other m, a signed or scaled permutation included,
    takes one elimination of [m | I]: its integer row i is c_i (e_i | m^-1 row i)
    for the least c_i > 0 that makes it integral, so den, the lcm of the c_i,
    is the least common denominator of the inverse.  ValueError if singular.
    """
    n = len(cols)
    if permutation_of(cols) is not None:
        return 1, [dict(col) for col in cols]
    rows = transpose(cols, n)
    ech = Echelon()
    for i, row in enumerate(rows):
        row[n + i] = 1
        ech.add(row)
    if ech.pivots != list(range(n)):
        raise ValueError("matrix is singular")
    rows = list(ech.int_rows.values())
    den = math.lcm(*(row[i] for i, row in enumerate(rows)))
    return den, [{k - n: x * (den // row[i]) for k, x in row.items() if k >= n} for i, row in enumerate(rows)]


def _copy(v: SparseRow) -> SparseRow:
    """A copy of the sparse integer row v; ValueError if it holds a zero entry."""
    if 0 in (w := dict(v)).values():
        raise ValueError("a sparse row holds no zero entry")
    return w


def _primitive(w: dict[int, int], pivot: int) -> dict[int, int]:
    """w divided by the gcd of its entries, with the sign that makes w[pivot] > 0."""
    g = math.gcd(*w.values())
    if w[pivot] < 0:
        g = -g
    if g != 1:
        for k in w:
            w[k] //= g
    return w


def pivot_row(row: SparseRow, dim: int) -> Vec:
    """The dense Fraction row of a primitive integer echelon row (an
    `Echelon.int_rows` row): row over its pivot value, its first entry."""
    out = zero_vec(dim)
    d = row[min(row)]
    for k, x in row.items():
        out[k] = ONE if x == d else Fraction(x, d)
    return out


class Echelon:
    """Incrementally built echelon basis of a subspace.

    The elimination is fraction-free, with one loop, `_reduce`.  `add`
    reduces the new row against the stored rows, if it meets a pivot of
    theirs, and stores it, keyed by its pivot column, as a sparse
    {column: int} dict over its nonzero entries, primitive (its entries
    have gcd 1, so a one-entry row is stored as {p: 1}) and with a positive
    pivot; no stored row changes afterwards.  `int_rows` back-substitutes on
    read: its row p is the canonical RREF row of pivot p times the least
    positive integer that clears it, the same rows whatever the insertion
    order.

    `add` takes a `SparseRow` and copies it: a zero entry raises ValueError
    and a dense list TypeError, and a Fraction entry raises TypeError at its
    first gcd, or as the one entry of its row, so no Fraction is ever
    stored, and none is made here: a caller reads a row as Fractions
    through `pivot_row`.
    """

    def __init__(self):
        self._rows: dict[int, dict[int, int]] = {}

    @staticmethod
    def _reduce(w: dict[int, int], rows: dict[int, dict[int, int]]) -> None:
        """Clear every column of the integer w that is a pivot of `rows` in
        place; w is then a positive multiple of the reduced vector."""
        # a row is zero left of its pivot, so clearing w's pivot columns in
        # increasing order, from a heap, adds entries only at later columns
        heap = [p for p in w if p in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            if p not in w:  # cancelled, or pushed twice
                continue
            row = rows[p]
            f, d = w[p], row[p]
            g = math.gcd(f, d)
            f, d = f // g, d // g
            if d != 1:
                for k in w:
                    w[k] *= d
            for k, y in row.items():
                t = w.get(k)
                if t is None:
                    w[k] = -f * y
                    if k in rows:
                        heappush(heap, k)
                elif t := t - f * y:
                    w[k] = t
                else:
                    del w[k]

    def add(self, v: SparseRow) -> bool:
        return self._insert(_copy(v))

    def _insert(self, w: dict[int, int]) -> bool:
        rows = self._rows
        if not rows.keys().isdisjoint(w):  # else w meets no pivot and is reduced already
            self._reduce(w, rows)
        if not w:
            return False
        p = min(w)
        if len(w) > 1:
            _primitive(w, p)
        elif isinstance(w[p], int):  # a one-entry row's primitive form, with no gcd
            w[p] = 1
        else:
            raise TypeError("a sparse row holds int entries only")
        rows[p] = w
        return True

    def copy(self):
        """The span as it stands, sharing the stored rows, none of which ever
        changes: later rows added to either one leave the other as it was."""
        other = object.__new__(type(self))
        other.__dict__.update(self.__dict__)
        other._rows = dict(self._rows)
        return other

    @property
    def int_rows(self) -> dict[int, dict[int, int]]:
        """The canonical rows by increasing pivot, read-only: from the last
        pivot up, a stored row with an entry at a later pivot is reduced
        against the later canonical rows and made primitive."""
        rows, out = self._rows, {}
        for p in sorted(rows, reverse=True):
            row = rows[p]
            if not out.keys().isdisjoint(row):  # out holds the later pivots only
                self._reduce(row := dict(row), out)
                _primitive(row, p)
            out[p] = row
        return dict(reversed(out.items()))

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)


class AffineSystem(Echelon):
    """An affine system coeffs·x = rhs over `nvars` unknowns, built row by row.

    It is an `Echelon` of the augmented rows, with the right-hand side
    stored as column `nvars`, so the system is infeasible iff that column
    is a pivot; `infeasible` is set as soon as it becomes one.
    """

    def __init__(self, nvars: int):
        super().__init__()
        self.nvars = nvars
        self.infeasible = False

    def add(self, coeffs: SparseRow, rhs: int) -> None:
        """Add coeffs·x = rhs, coeffs a sparse {variable: nonzero int} row."""
        row = _copy(coeffs)
        if rhs:
            row[self.nvars] = rhs
        self._insert(row)
        self.infeasible = self.nvars in self._rows

    def particular(self) -> Vec | None:
        """The solution with every free variable 0, or None if infeasible."""
        if self.infeasible:
            return None
        x = zero_vec(self.nvars)
        for p, row in self.int_rows.items():
            if self.nvars in row:
                x[p] = Fraction(row[self.nvars], row[p])
        return x
