"""Exact rational vectors, matrices, echelon forms and affine solving.

Everything here works over `fractions.Fraction` and is deterministic:
pivots are always the first nonzero entry in column order, so reduced
forms, particular solutions and nullspace bases are reproducible.

Every solve, inverse and span runs on `Echelon`, which keeps reduced
sparse rows ({column: value} over the nonzero entries), and `mat_mul`
skips zero entries.  The dense `rref` is the tests' reference only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Vec = list[Fraction]
Matrix = list[list[Fraction]]

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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    cols = len(b[0]) if b else 0
    sparse_b = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [ZERO] * cols
        for x, b_row in zip(row, sparse_b):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(u, v)] for u, v in zip(a, b)]


def columns_matrix(vectors: Sequence[Sequence[Fraction]]) -> Matrix:
    """Matrix whose columns are the given vectors."""
    if not vectors:
        return []
    n = len(vectors[0])
    return [[q(v[i]) for v in vectors] for i in range(n)]


def rref(m: Matrix) -> tuple[Matrix, list[int], int]:
    """Reduced row echelon form.

    Returns (reduced, pivot_columns, rank).  The pivot in each column is
    taken from the first row with a nonzero entry, making the output the
    unique RREF of the row space of `m`.
    """
    a = [list(row) for row in m]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = ONE / a[r][c]
        if inv != 1:
            a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots, len(pivots)


@dataclass(frozen=True)
class AffineSolution:
    """Full solution set {particular + span(nullspace_basis)} of a·x = b."""

    particular: Vec
    nullspace_basis: list[Vec]


def solve_affine(a: Matrix, b: Sequence[Fraction]) -> AffineSolution | None:
    """Solve a·x = b exactly; None when the system is infeasible.

    One `AffineSystem` of the rows of a with b.  Free variables are 0 in
    the particular solution, and each free column, in increasing order,
    gives one nullspace vector with that variable 1.
    """
    if len(a) != len(b):
        raise ValueError("dimension mismatch between matrix and rhs")
    ncols = len(a[0]) if a else 0
    system = AffineSystem(ncols)
    for row, bb in zip(a, b):
        system.add(row, q(bb))
    particular = system.particular()
    if particular is None:
        return None
    rows = system.sparse_rows
    basis: list[Vec] = []
    for f in range(ncols):
        if f not in rows:
            v = unit_vec(ncols, f)
            for c, row in rows.items():
                v[c] = -row.get(f, ZERO)
            basis.append(v)
    return AffineSolution(particular, basis)


def nullspace(a: Matrix) -> list[Vec]:
    """Basis of {x : a·x = 0}, free variables set one at a time."""
    sol = solve_affine(a, zero_vec(len(a)))
    assert sol is not None
    return sol.nullspace_basis


def mat_inv(m: Matrix) -> Matrix:
    """Right half of the RREF of [m | I], which has rank n: singular iff a pivot is >= n."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("not square")
    ech = Echelon(2 * n)
    for i, row in enumerate(m):
        ech.add(list(row) + unit_vec(n, i))
    if ech.pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in ech.rows]


SparseRow = dict[int, Fraction]


def _support(v: Sequence | SparseRow) -> dict:
    """The nonzero entries of a dense sequence or a {column: value} dict, as a new dict."""
    items = v.items() if isinstance(v, dict) else enumerate(v)
    return {k: x for k, x in items if x}


class Echelon:
    """Incrementally maintained reduced echelon basis of a subspace.

    Rows are stored sparsely, as {column: Fraction} over their nonzero
    entries in `sparse_rows`, keyed by pivot column.  They are kept fully
    reduced with unit pivots, so `basis` is the canonical RREF basis of
    the span regardless of insertion order, and a reduction or an
    insertion touches only the support of the rows it meets.

    `add`, `reduce` and `contains` take a dense sequence or a sparse
    {column: value} dict; `reduce`, `rows` and `basis` return dense lists
    of Fractions, rows ordered by pivot.  `sparse_rows` is read-only.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.sparse_rows: dict[int, SparseRow] = {}

    def _reduce(self, w: dict) -> dict:
        # each row is zero on every other pivot column, so subtracting it
        # clears its own pivot in w and creates no entry at another pivot
        rows = self.sparse_rows
        for p in [p for p in w if p in rows]:
            f = w[p]
            for k, y in rows[p].items():
                t = w.get(k, 0) - f * y
                if t:
                    w[k] = t
                else:
                    del w[k]
        return w

    def reduce(self, v: Sequence | SparseRow) -> Vec:
        w = zero_vec(self.dim)
        for k, x in self._reduce(_support(v)).items():
            w[k] = q(x)
        return w

    def add(self, v: Sequence | SparseRow) -> bool:
        w = self._reduce(_support(v))
        if not w:
            return False
        p = min(w)
        inv = ONE / w[p]
        w = {k: x * inv for k, x in w.items()}
        for row in self.sparse_rows.values():
            f = row.get(p)
            if f:
                for k, y in w.items():
                    t = row.get(k, 0) - f * y
                    if t:
                        row[k] = t
                    else:
                        del row[k]
        self.sparse_rows[p] = w
        return True

    def contains(self, v: Sequence | SparseRow) -> bool:
        return not self._reduce(_support(v))

    @property
    def rank(self) -> int:
        return len(self.sparse_rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self.sparse_rows)

    @property
    def rows(self) -> list[Vec]:
        out = []
        for p in self.pivots:
            w = zero_vec(self.dim)
            for k, x in self.sparse_rows[p].items():
                w[k] = x
            out.append(w)
        return out

    @property
    def basis(self) -> list[Vec]:
        return self.rows


class AffineSystem(Echelon):
    """An affine system coeffs·x = rhs over `nvars` unknowns, built row by row.

    It is an `Echelon` of the augmented rows, with the right-hand side
    stored as column `nvars`, so the system is infeasible iff that column
    is a pivot; `infeasible` is set as soon as it becomes one.
    """

    def __init__(self, nvars: int):
        super().__init__(nvars + 1)
        self.nvars = nvars
        self.infeasible = False

    def add(self, coeffs: Sequence | SparseRow, rhs) -> None:
        """Add coeffs·x = rhs, coeffs dense or a sparse {variable: value} dict."""
        row = _support(coeffs)
        row[self.nvars] = rhs
        super().add(row)
        self.infeasible = self.nvars in self.sparse_rows

    def particular(self) -> Vec | None:
        """The solution with every free variable 0, or None if infeasible."""
        if self.infeasible:
            return None
        x = zero_vec(self.nvars)
        for p, row in self.sparse_rows.items():
            x[p] = row.get(self.nvars, ZERO)
        return x


def echelon_of(vectors: Sequence[Sequence[Fraction]], dim: int) -> Echelon:
    """Echelon form of the span of `vectors`."""
    ech = Echelon(dim)
    for v in vectors:
        ech.add(v)
    return ech


def subspace_contains(basis: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> bool:
    """True iff v lies in the span of `basis` (the empty span is {0})."""
    for b in basis:
        if len(b) != len(v):
            raise ValueError("dimension mismatch")
    return echelon_of(basis, len(v)).contains(v)


def filtration_depth(
    filtration_bases: Sequence[Sequence[Sequence[Fraction]]], v: Sequence[Fraction]
) -> int | float:
    """Largest k (1-indexed) with v in span(filtration_bases[k-1]).

    The chain must be decreasing and end with the zero space; the zero
    vector has depth +infinity.
    """
    if not any(v):
        return math.inf
    depth = 0
    for k, basis in enumerate(filtration_bases, start=1):
        if subspace_contains(basis, v):
            depth = k
        else:
            break
    return depth
