"""Independent oracles used by the tests.

Nothing here shares code paths with the package internals: matrix
exponentials are summed term by term, group laws come from honest matrix
products, and the associative-series checker re-derives log(exp x exp y)
from scratch.

`is_grading_operator_echelon` is the filtration-level membership test the
package used before it compared adapted matrix entries, on the dense RREF
of each level.  The derivability oracles evaluate Delta either through
the public dense `delta_n` or, in `e_of_operator_tuples`, through a per-tuple sparse
recursion of their own (on a signed row table of their own, not
`LieAlgebra.ad`), never through the solver's row stream they check.
`jacobi_violations_dense` sums the Jacobi identity of every basis triple
through `dense_bracket`, not through `ad` or `check_jacobi`'s choice of
triples.  The linear algebra oracles (`rref_solve_affine`, `rref_mat_inv`,
`naive_mat_mul`, `columns_matrix` and the helpers beside them) use only the dense `rref`,
defined here since the package has no use for it, and plain loops, never the sparse `Echelon` or `sparse_mul` they check;
`rref_solve_affine` and `rref_mat_inv` are the dense bodies the package's
Fraction affine solver and inverse had before every elimination in the
package ran on `Echelon`; that solver's `AffineSolution` now lives here
only.  `echelon_of`, `echelon_rows` and `echelon_contains` build and read
an `Echelon` for the tests of `Echelon` itself (its span of rational
vectors, its canonical rows through `pivot_row`, membership as an `add`
to a copy); no oracle calls them.
`adapted_basis_echelon` and `layer_one_generates` are likewise the code
`adapted_basis` and `carnot_algebra`'s generation check replaced:
a membership test of every unit vector against the dense RREF of each
F_i, and a bracket-closure loop from the degree-1 layer; `delta_depth`
reads depths off the dense RREF of each F_k too.  So is
`antichain_by_pruning`, the pairwise domination pass over all of
`r_condition_set` that the closed-form `antichain` replaced, and
`condition_rows_unbounded` and `ratio_rows_by_paths`, the per-path walks
the package made before it read span bases: the rows of every index path of
a condition, whatever its degree sum, and the e-scan's rows of every path by
decreasing ratio, with every bracket recomputed along its path.  The
package's streams emit the rows of a basis of the path states instead, so
they are compared by row space, and `e_invariant_by_paths`,
`e_of_operator_by_paths` and `is_A_derivable_by_paths` answer the entry
points' questions from these walks, with no answer read off a grading.
`compositions_recursive`, `normalized_tuples_recursive` and
`enumerate_S_per_level` are the recursive compositions and the per-level
condition universe that the cut-point compositions and the one-pass
`enumerate_S` replaced.
`antichain`, `e_invariant_by_candidates` and `e_of_operator_by_candidates`
are the candidate-by-candidate e-scan the ratio-ordered row stream
replaced: one `AffineSystem` per candidate r over the rows `_condition_rows`
emits for each condition of the closed-form antichain at r, scanned
upward from r = 0.  Unlike the oracles above they run on the package's
per-condition row stream and `_feasibility`; what they check is which rows
the ratio-ordered scan feeds to which candidate, and in what order.  On an
algebra whose adapted degrees grade it, `_feasibility` answers from D0, so
`e_invariant_by_candidates` runs on `walked`, a fresh instance whose setup
has that grading flag cleared and builds the spans.
`verify_grading_dense` is the body `carnot.verify_grading` had before it
read the structure table: a pass over the dense `g.brackets`.
`algebra_in_basis_dense` writes g in a new basis as p^-1 applied to
`dense_bracket` of p's columns in plain Fraction loops, not through
`LieAlgebra.ad` or `clear_denominators`.
`layer_component` and `four_step_components` write the 4-step law
difference as four bracket pieces of layer components, through
`lie.bracket`, not through any BCH word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator, Sequence

from nilgrade import lie
from nilgrade.derivability import (
    DerivCondition,
    EInvariantResult,
    GradingOperator,
    OperatorNotInDError,
    _adapted_operator,
    _condition_rows,
    _feasibility,
    _level,
    _normalized,
    _ratio_groups,
    _setup,
    candidate_values,
    delta_n,
    normalized_tuples,
    r_condition_set,
)
from nilgrade.goodman import GuivarchContext
from nilgrade.lie import (
    AdaptedBasis,
    LieAlgebra,
    adapted_basis,
    bracket,
    change_of_basis,
    clear_denominators,
    lower_central_series,
)
from nilgrade.linalg import (
    AffineSystem,
    Echelon,
    Matrix,
    Vec,
    identity,
    integer_rows,
    mat_vec,
    pivot_row,
    q,
    unit_vec,
    zero_vec,
)

F = Fraction


def integer_row(v) -> dict[int, int]:
    """The rational vector v times the least integer that clears it, as the
    sparse integer row `Echelon` takes."""
    return integer_rows([v])[1][0]


def echelon_of(vectors) -> Echelon:
    """An `Echelon` of the span of the rational vectors."""
    ech = Echelon()
    for row in integer_rows(vectors)[1]:
        ech.add(row)
    return ech


def echelon_rows(ech: Echelon, dim: int) -> list[Vec]:
    """The canonical rows of `ech` as dense Fraction rows, through `pivot_row`."""
    return [pivot_row(row, dim) for row in ech.int_rows.values()]


def echelon_contains(ech: Echelon, row: dict[int, int]) -> bool:
    """Whether the sparse integer row lies in the span of `ech`: adding it to
    a copy leaves the rank as it was, and `ech` as it is."""
    return not ech.copy().add(row)


@dataclass(frozen=True)
class AffineSolution:
    """Full solution set {particular + span(nullspace_basis)} of a·x = b."""

    particular: Vec
    nullspace_basis: list[Vec]


def mat_exp_nilpotent(m: Matrix) -> Matrix:
    """exp of a nilpotent matrix as the finite sum of powers over k!."""
    n = len(m)
    out = identity(n)
    term = identity(n)
    k = 1
    while any(any(c != 0 for c in row) for row in term):
        term = [[sum(term[i][l] * m[l][j] for l in range(n)) / k for j in range(n)] for i in range(n)]
        out = [[out[i][j] + term[i][j] for j in range(n)] for i in range(n)]
        k += 1
    return out


def mat_log_unitriangular(u: Matrix) -> Matrix:
    """log of a unipotent matrix as the finite alternating sum of powers."""
    n = len(u)
    nil = [[u[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    out = [[F(0)] * n for _ in range(n)]
    power = [row[:] for row in nil]
    k = 1
    while any(any(c != 0 for c in row) for row in power):
        coeff = F((-1) ** (k + 1), k)
        out = [[out[i][j] + coeff * power[i][j] for j in range(n)] for i in range(n)]
        power = naive_mat_mul(power, nil)
        k += 1
    return out


def heisenberg_matrix(v: Vec) -> Matrix:
    return [
        [F(0), F(v[0]), F(v[2])],
        [F(0), F(0), F(v[1])],
        [F(0), F(0), F(0)],
    ]


def heisenberg_coords(m: Matrix) -> Vec:
    return [m[0][1], m[1][2], m[0][2]]


def filiform5_matrix(v: Vec) -> Matrix:
    m = [[F(0)] * 5 for _ in range(5)]
    for i in range(4):
        m[i][i + 1] += F(v[0])
    m[3][4] += F(v[1])
    m[2][4] += F(v[2])
    m[1][4] += F(v[3])
    m[0][4] += F(v[4])
    return m


def filiform5_coords(m: Matrix) -> Vec:
    x1 = m[0][1]
    assert m[1][2] == x1 and m[2][3] == x1
    assert m[0][2] == 0 and m[1][3] == 0 and m[0][3] == 0
    return [x1, m[3][4] - x1, m[2][4], m[1][4], m[0][4]]


def matrix_group_product(to_matrix, from_matrix, x: Vec, y: Vec) -> Vec:
    z = mat_log_unitriangular(
        naive_mat_mul(mat_exp_nilpotent(to_matrix(x)), mat_exp_nilpotent(to_matrix(y)))
    )
    return from_matrix(z)


# --- free associative algebra on two letters, for checking the BCH table


def assoc_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            v = out.get(w, F(0)) + ca * cb
            if v:
                out[w] = v
            else:
                out.pop(w, None)
    return out


def assoc_truncate(a: dict, cap: int) -> dict:
    return {w: c for w, c in a.items() if len(w) <= cap}


def assoc_log_exp_exp(cap: int) -> dict:
    """log(exp x . exp y) truncated at total degree cap; words over {0,1}."""
    fact = [1]
    for k in range(1, cap + 1):
        fact.append(fact[-1] * k)
    u: dict = {}
    for i in range(cap + 1):
        for j in range(cap - i + 1):
            if i == j == 0:
                continue
            u[(0,) * i + (1,) * j] = F(1, fact[i] * fact[j])
    out: dict = {}
    power = {(): F(1)}
    for k in range(1, cap + 1):
        power = assoc_truncate(assoc_mul(power, u), cap)
        sign = F((-1) ** (k + 1), k)
        for w, c in power.items():
            v = out.get(w, F(0)) + sign * c
            if v:
                out[w] = v
            else:
                out.pop(w, None)
    return out


def assoc_nested_bracket(word: tuple) -> dict:
    """Left-nested bracket of a word expanded as an associative polynomial."""
    if len(word) == 1:
        return {word: F(1)}
    inner = assoc_nested_bracket(word[1:])
    head = (word[0],)
    out: dict = {}
    for w, c in inner.items():
        for ww, cc in ((head + w, c), (w + head, -c)):
            v = out.get(ww, F(0)) + cc
            if v:
                out[ww] = v
            else:
                out.pop(ww, None)
    return out


def grid_vectors(seed: int, dim: int, count: int) -> list[Vec]:
    """Reference re-implementation of the sampling grid draws."""
    a, c, mask = 6364136223846793005, 1442695040888963407, (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        v = []
        for _ in range(dim):
            state = (a * state + c) & mask
            v.append(F(((state >> 32) % 33) - 16, 16))
        out.append(v)
    return out


def dense_bracket(g, x: Vec, y: Vec) -> Vec:
    """[x, y] as the sum of x_i y_j [e_i, e_j] over all ordered basis pairs."""
    n = g.dim
    out = [F(0)] * n
    for i in range(n):
        for j in range(n):
            v = g.brackets.get((min(i, j), max(i, j)))
            if i == j or v is None:
                continue
            c = x[i] * y[j] if i < j else -x[i] * y[j]
            out = [o + c * s for o, s in zip(out, v)]
    return out


def algebra_in_basis_dense(g, p: Matrix, p_inv: Matrix) -> LieAlgebra:
    """g in the basis of p's columns: [P e_i, P e_j] through `dense_bracket`,
    then p^-1 applied entry by entry."""
    n = g.dim
    cols = [[p[k][i] for k in range(n)] for i in range(n)]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = dense_bracket(g, cols[i], cols[j])
            brackets[(i, j)] = [sum(p_inv[k][m] * w[m] for m in range(n)) for k in range(n)]
    return LieAlgebra(n, brackets)


def jacobi_violations_dense(g) -> list:
    """(i, j, k, sum) for every basis triple i < j < k whose Jacobi sum
    [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]], through
    `dense_bracket`, is nonzero."""
    e = identity(g.dim)
    out = []
    for i, j, k in combinations(range(g.dim), 3):
        total = [F(0)] * g.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            total = [t + x for t, x in zip(total, dense_bracket(g, e[a], dense_bracket(g, e[b], e[c])))]
        if any(total):
            out.append((i, j, k, total))
    return out


def is_grading_operator_echelon(g, f, d) -> bool:
    """D F_i lies in F_i and (D - i) F_i in F_{i+1}, checked on each basis
    vector of each F_i by membership in the dense RREF of the level."""
    rows = d.rows
    if len(rows) != g.dim or any(len(r) != g.dim for r in rows):
        return False
    c = f.nilpotency_class
    for i in range(1, c + 1):
        for v in f.basis(i):
            dv = mat_vec(rows, v)
            if not rref_contains(f.basis(i), dv):
                return False
            shifted = [x - i * y for x, y in zip(dv, v)]
            if not rref_contains(f.basis(i + 1), shifted):
                return False
    return True


def delta_depth(g, d, wp: tuple) -> int | None:
    """Least filtration depth of delta_n(g, d, xs) over adapted basis tuples.

    xs runs over every tuple of adapted basis vectors whose k-th entry
    has degree >= wp[k], through the dense `delta_n` path; None when every
    value vanishes.  Depth k means the value lies in F_k but not F_{k+1}.
    For a grading operator no value is shallower than |wp| + 1, so the
    search stops there.
    """
    f = lower_central_series(g)
    ab = adapted_basis(g, f)
    levels = [rref_span(f.basis(k)) for k in range(1, f.nilpotency_class + 2)]
    slots = [[list(v) for v, deg in zip(ab.vectors, ab.degrees) if deg >= p] for p in wp]
    best = None
    for xs in product(*slots):
        value = delta_n(g, d, xs)
        if any(value):
            depth = max(k for k, level in enumerate(levels, start=1) if not any(rref_reduce(*level, value)))
            best = depth if best is None else min(best, depth)
            if best == sum(wp) + 1:
                break
    return best


def e_of_operator_tuples(g, d) -> Fraction:
    """max |wp| / depth(wp) over `normalized_tuples(c - 1)`, tuple by tuple.

    depth(wp) is the least filtration depth of the Delta values on adapted
    basis tuples of degrees >= wp; tuples whose values all vanish are
    skipped.  Each tuple runs its own sparse integer bracket recursion
    over the adapted structure table, so nothing is shared with the
    solver's row stream, its span bases or the antichain of conditions.
    Only the support of each Delta value matters, so the columns of D are
    scaled to integers once.
    """
    f = lower_central_series(g)
    ab = adapted_basis(g, f)
    c = f.nilpotency_class
    dim = g.dim
    degrees = ab.degrees
    first_at_least = [next((i for i in range(dim) if degrees[i] >= k), dim) for k in range(c + 2)]
    row_table: list[dict] = [dict() for _ in range(dim)]
    for i, j, entries in change_of_basis(g, [list(v) for v in ab.vectors]).table:
        row_table[i][j] = dict(entries)
        row_table[j][i] = {k: -s for k, s in entries}

    def sbr(i: int, v: dict) -> dict:
        out: dict = {}
        table = row_table[i]
        for j, coeff in v.items():
            bv = table.get(j)
            if bv is None:
                continue
            for k, s in bv.items():
                t = out.get(k, 0) + coeff * s
                if t:
                    out[k] = t
                else:
                    out.pop(k, None)
        return out

    def sbr_vec(x: dict, v: dict) -> dict:
        out: dict = {}
        for i, ci in x.items():
            for k, s in sbr(i, v).items():
                t = out.get(k, 0) + ci * s
                if t:
                    out[k] = t
                else:
                    out.pop(k, None)
        return out

    basis = columns_matrix(ab.vectors)
    d_ad = naive_mat_mul(naive_mat_mul(rref_mat_inv(basis), d.rows), basis)
    _, scaled = clear_denominators([x for row in d_ad for x in row])
    d_cols: list[dict] = [
        {i: scaled[i * dim + b] for i in range(dim) if scaled[i * dim + b]} for b in range(dim)
    ]
    best = F(0)
    for wp in normalized_tuples(c - 1):
        n = len(wp)
        starts = [first_at_least[p] for p in wp]
        total = sum(wp)
        min_depth: int | None = None

        def recurse(slot: int, suffix: dict, dsub: dict, last_b: int):
            nonlocal min_depth
            if min_depth == total + 1:
                return
            lo = starts[slot - 1]
            for b in range(lo, dim):
                if slot == n - 1 and b >= last_b:
                    continue
                new_suffix = sbr(b, suffix) if suffix else {}
                new_dsub = sbr(b, dsub) if dsub else {}
                w = sbr_vec(d_cols[b], suffix) if suffix else {}
                for k, x in w.items():
                    t = new_dsub.get(k, 0) + x
                    if t:
                        new_dsub[k] = t
                    else:
                        new_dsub.pop(k, None)
                if not new_suffix and not new_dsub:
                    continue
                if slot == 1:
                    delta: dict = {}
                    for coord, val in new_suffix.items():
                        dv = d_cols[coord]
                        for k, x in dv.items():
                            t = delta.get(k, 0) + val * x
                            if t:
                                delta[k] = t
                            else:
                                delta.pop(k, None)
                    for k, x in new_dsub.items():
                        t = delta.get(k, 0) - x
                        if t:
                            delta[k] = t
                        else:
                            delta.pop(k, None)
                    if delta:
                        depth = min(degrees[k] for k in delta)
                        if min_depth is None or depth < min_depth:
                            min_depth = depth
                            if min_depth == total + 1:
                                return
                else:
                    recurse(slot - 1, new_suffix, new_dsub, b)

        for b_last in range(starts[n - 1], dim):
            recurse(n - 1, {b_last: 1}, dict(d_cols[b_last]), b_last)
            if min_depth == total + 1:
                break
        if min_depth is not None:
            best = max(best, F(total, min_depth))
    return best


def e_of_operator_dense(g, d) -> Fraction:
    """max |wp| / depth(wp) over all tuples wp of length >= 2 and sum < c."""
    c = lower_central_series(g).nilpotency_class
    best = F(0)
    for n in range(2, c):
        for wp in product(range(1, c), repeat=n):
            if sum(wp) < c:
                depth = delta_depth(g, d, wp)
                if depth is not None:
                    best = max(best, F(sum(wp), depth))
    return best


# --- dense linear algebra, for checking the sparse kernels


def columns_matrix(vectors: Sequence[Sequence[Fraction]]) -> Matrix:
    """The matrix whose columns are the given vectors, as Fractions; of an
    adapted basis's `vectors`, the change of basis to it."""
    if not vectors:
        return []
    return [[F(v[i]) for v in vectors] for i in range(len(vectors[0]))]


def naive_mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The textbook triple loop over every entry, zeros included."""
    cols = len(b[0]) if b else 0
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), F(0)) for j in range(cols)]
        for i in range(len(a))
    ]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    """The entrywise sum."""
    return [[x + y for x, y in zip(u, v)] for u, v in zip(a, b)]


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
        inv = Fraction(1) / a[r][c]
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


def rref_span(vectors: list[Vec]) -> tuple[list[Vec], list[int]]:
    """Nonzero rows and pivot columns of the dense RREF of `vectors`."""
    red, pivots, rank = rref([[F(x) for x in v] for v in vectors])
    return red[:rank], pivots


def rref_contains(vectors: list[Vec], v: Vec) -> bool:
    """v lies in the span of `vectors` iff adding it leaves the rank of the
    dense RREF as it was."""
    return len(rref_span([*vectors, v])[0]) == len(rref_span(vectors)[0])


def rref_reduce(rows: list[Vec], pivots: list[int], v: Vec) -> Vec:
    """v minus v[p] times the RREF row of each pivot p: the unique vector of
    v + span(rows) that vanishes on every pivot column."""
    out = [F(x) for x in v]
    for row, p in zip(rows, pivots):
        f = F(v[p])
        out = [a - f * b for a, b in zip(out, row)]
    return out


def lcs_rref(g) -> list[list[Vec]]:
    """F_1 = g and F_{k+1} = RREF span of every [e_i, v] with v in F_k,
    through `dense_bracket`, down to the zero space."""
    units = identity(g.dim)
    chain = [units]
    while chain[-1] and len(chain) <= g.dim:
        chain.append(rref_span([dense_bracket(g, e, v) for e in units for v in chain[-1]])[0])
    return chain


def rref_solve_affine(a: Matrix, b: Vec) -> AffineSolution | None:
    """a·x = b through the dense RREF of [a | b]: free variables 0 in the
    particular solution, one nullspace vector per free column in order."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch between matrix and rhs")
    ncols = len(a[0]) if a else 0
    red, pivots, _ = rref([list(row) + [F(bb)] for row, bb in zip(a, b)])
    if ncols in pivots:
        return None
    particular = zero_vec(ncols)
    for row, c in enumerate(pivots):
        particular[c] = red[row][ncols]
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = unit_vec(ncols, f)
        for row, c in enumerate(pivots):
            v[c] = -red[row][f]
        basis.append(v)
    return AffineSolution(particular, basis)


def rref_mat_inv(m: Matrix) -> Matrix:
    """The right half of the dense RREF of [m | I]."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("not square")
    red, pivots, _ = rref([list(row) + unit_vec(n, i) for i, row in enumerate(m)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


# --- adapted bases and graded algebras, as the package built them before


def adapted_basis_echelon(g, f) -> AdaptedBasis:
    """Extend F_c's basis up to F_1, at each level trying first every unit
    vector that the dense RREF of F_i contains, in index order, then F_i's
    basis, each kept if it raises the rank of the dense RREF of those kept."""
    chosen = []
    for level in range(f.nilpotency_class, 0, -1):
        level_basis = f.basis(level)
        units = [unit_vec(g.dim, i) for i in range(g.dim) if rref_contains(level_basis, unit_vec(g.dim, i))]
        for v in units + level_basis:
            if len(chosen) == len(level_basis):
                break
            if not rref_contains([w for _, w in chosen], v):
                chosen.append((level, v))
    chosen.sort(key=lambda t: t[0])
    return AdaptedBasis(tuple(integer_row(v) for _, v in chosen), tuple(d for d, _ in chosen))


def verify_grading_dense(g, degrees) -> tuple[bool, list[tuple[int, int]]]:
    """(ok, pairs): the pairs (i, j), i < j, in order, whose dense [e_i, e_j]
    has a nonzero component of degree other than degrees[i] + degrees[j]."""
    violations = []
    for (i, j), v in sorted(g.brackets.items()):
        target = degrees[i] + degrees[j]
        if any(c != 0 and degrees[k] != target for k, c in enumerate(v)):
            violations.append((i, j))
    return not violations, violations


def graded_truncation(g, degrees) -> LieAlgebra:
    """Keep, in each dense [e_a, e_b], only the components of degree
    deg a + deg b; ValueError, naming the first pair of `g.brackets` with a
    nonzero component of lower degree, as `carnot_algebra` words it."""
    brackets = {}
    for (a, b), v in g.brackets.items():
        target = degrees[a] + degrees[b]
        if any(x != 0 and degrees[k] < target for k, x in enumerate(v)):
            raise ValueError(f"[{g.labels[a]}, {g.labels[b]}] has a component of degree below {target}")
        brackets[(a, b)] = [x if degrees[k] == target else 0 for k, x in enumerate(v)]
    return LieAlgebra(g.dim, brackets, g.labels)


def grading_layers_dense(d, c: int) -> tuple:
    """ker(D - i) for i = 1..c, each the nullspace basis of the dense RREF of
    the Fraction matrix D - i: one vector per free column, in order."""
    n = len(d.matrix)
    layers = []
    for i in range(1, c + 1):
        shifted = [[x - i if a == b else x for b, x in enumerate(row)] for a, row in enumerate(d.matrix)]
        layers.append(tuple(tuple(v) for v in rref_solve_affine(shifted, [F(0)] * n).nullspace_basis))
    return tuple(layers)


def layer_one_generates(algebra, degrees) -> bool:
    """Close the degree-1 basis vectors under brackets with every basis
    vector and compare the rank of the closure with the dimension."""
    n = algebra.dim
    units = [unit_vec(n, i) for i in range(n)]
    frontier = [units[i] for i in range(n) if degrees[i] == 1]
    span = rref_span(frontier)
    while frontier:
        new_frontier = []
        for v in frontier:
            for base in units:
                w = bracket(algebra, base, v)
                if any(rref_reduce(*span, w)):
                    span = rref_span(span[0] + [w])
                    new_frontier.append(w)
        frontier = new_frontier
    return len(span[0]) == n


def compositions_recursive(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The compositions of total into parts positive entries, lexicographically:
    each first entry in turn, then the compositions of the rest."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions_recursive(total - first, parts - 1):
            yield (first,) + rest


def normalized_tuples_recursive(max_sum: int) -> list[tuple[int, ...]]:
    """`normalized_tuples` from `compositions_recursive`."""
    return [
        wp
        for total in range(2, max_sum + 1)
        for n in range(2, total + 1)
        for wp in compositions_recursive(total, n)
        if wp[-2] <= wp[-1]
    ]


def enumerate_S_per_level(c: int) -> frozenset:
    """`enumerate_S` one level j at a time, each from the tuples of sum < j
    made afresh, into a set and then its frozenset copy."""
    conditions = set()
    for j in range(3, c + 1):
        for wp in normalized_tuples_recursive(j - 1):
            conditions.add(DerivCondition(wp, j))
    return frozenset(conditions)


def _dominates(strong: DerivCondition, weak: DerivCondition) -> bool:
    """(wp'|j') dominates (wp|j): same length, wp' <= wp entrywise, j <= j'."""
    return (
        len(strong.wp) == len(weak.wp)
        and weak.level <= strong.level
        and all(a <= b for a, b in zip(strong.wp, weak.wp))
    )


def antichain_by_pruning(c: int, r: Fraction) -> tuple[DerivCondition, ...]:
    """The undominated conditions of `r_condition_set(c, r)`: clamp to class c,
    then keep each condition, in (length, sum, -level, tuple) order, that no
    condition kept before it dominates (a dominator sorts first)."""
    clamped = set()
    for cond in r_condition_set(c, r):
        level = min(cond.level, c)
        if level > sum(cond.wp):
            clamped.add(DerivCondition(cond.wp, level))
    kept: list[DerivCondition] = []
    for cond in sorted(clamped, key=lambda d: (len(d.wp), sum(d.wp), -d.level, d.wp)):
        if not any(_dominates(k, cond) for k in kept):
            kept.append(cond)
    return tuple(kept)


@lru_cache(maxsize=None)
def antichain(c: int, r: Fraction) -> tuple[DerivCondition, ...]:
    """The conditions of `r_condition_set(c, r)` that no other one dominates.

    (wp'|j') dominates (wp|j) if the tuples have the same length, wp' <= wp
    entrywise and j <= j'.  A dominator has the same level (`_level` grows
    with the sum), and within one (length, level) lowering entries takes a
    tuple to a dominator of the least admissible sum.  So the antichain is
    the normalized tuples of that sum per (length, level), by length, sum,
    then lexicographically.  It depends on no algebra.
    """
    out: list[DerivCondition] = []
    for n in range(2, c):
        least: dict[int, int] = {}  # level -> least sum; admissible iff any sum is
        for total in range(n, c):
            least.setdefault(_level(total, c, r), total)
        out += (DerivCondition(wp, j) for j, s in least.items() if j > s for wp in _normalized(s, n))
    return tuple(out)


def walked(g: LieAlgebra) -> LieAlgebra:
    """g, or, if its adapted degrees grade it (`_Setup.graded`), a fresh
    instance of g whose setup has that flag cleared, so that `_feasibility`
    and the entry points on it build the span bases instead of answering
    from D0."""
    if not _setup(g).graded:
        return g
    fresh = LieAlgebra._from_table(g.dim, g.sigma, g.table, g.labels)
    _setup(fresh).graded = False
    return fresh


def e_invariant_by_candidates(g: LieAlgebra) -> EInvariantResult:
    """The least candidate r whose antichain is feasible, scanned upward,
    with the particular solution of that antichain's system as witness; each
    feasibility is walked (`walked`)."""
    setup = _setup(walked(g))
    c = max(setup.c, 2)
    for r in candidate_values(c):
        witness = _feasibility(setup, antichain(c, r))
        if witness is not None:
            return EInvariantResult(r, witness)
    raise AssertionError("empty condition set at the top candidate must be feasible")


def e_of_operator_by_candidates(g: LieAlgebra, d: GradingOperator) -> Fraction:
    """The least candidate r such that d meets every condition of
    `antichain(c, r)`, each condition judged once on its own rows at x_D."""
    setup = _setup(g)
    d_ad = _adapted_operator(d, setup)
    if d_ad is None:
        raise OperatorNotInDError("matrix is not a grading operator of the lower central series")
    c = max(setup.c, 2)
    scale, rows = d_ad
    point = [rows[a].get(b, 0) for a, b in setup.positions]
    met: dict[DerivCondition, bool] = {}
    spans: dict = {}

    def meets(cond: DerivCondition) -> bool:
        if cond not in met:
            met[cond] = all(
                sum(k * point[var] for var, k in coeffs.items()) == rhs * scale
                for coeffs, rhs in _condition_rows(setup, cond, spans)
            )
        return met[cond]

    for r in candidate_values(c):
        if all(meets(cond) for cond in antichain(c, r)):
            return r
    raise AssertionError("the top candidate has no conditions")


def _column_vars(setup) -> list[list[tuple[int, int]]]:
    """col_vars[b]: the (variable, a) of each free position (a, b)."""
    col_vars: list[list[tuple[int, int]]] = [[] for _ in range(setup.dim)]
    for var, (a, b) in enumerate(setup.positions):
        col_vars[b].append((var, a))
    return col_vars


def _path_step(setup, col_vars, suffix: dict, repl: dict, b: int) -> tuple[dict, dict]:
    """The suffix and replacement brackets of a path extended by index b."""
    ad = setup.ad
    new_suffix = ad(b, suffix) if suffix else {}
    new_repl = {var: bw for var, w in repl.items() if (bw := ad(b, w))}
    if suffix:
        for var, a in col_vars[b]:
            merged = new_repl.setdefault(var, {})
            for k, x in ad(a, suffix).items():
                t = merged.get(k, 0) + x
                if t:
                    merged[k] = t
                else:
                    merged.pop(k, None)
            if not merged:
                del new_repl[var]
    return new_suffix, new_repl


def _path_emit(setup, col_vars, value: dict, repl: dict, degsum: int, max_coord: int) -> list[tuple[int, dict, int]]:
    """The rows (coord, coeffs, rhs) of one path at its coordinates below max_coord."""
    degrees = setup.degrees
    rows: dict = {}
    rhs: dict = {}
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
    out = []
    for coord in sorted(set(rows) | set(rhs)):
        coeffs = rows.get(coord, {})
        b = rhs.get(coord, 0)
        if coeffs or b:
            out.append((coord, coeffs, b))
    return out


def _root(setup, col_vars, b: int) -> tuple[dict, dict]:
    return {b: 1}, {var: {a: 1} for var, a in col_vars[b]}


def condition_rows_unbounded(setup, cond: DerivCondition) -> list[tuple[dict, int]]:
    """The rows (coeffs, rhs) of `cond` over every index path of degrees >= wp,
    whatever its degree sum, in order: the per-path walk `_condition_rows`
    made before it read span bases.

    It reads only `setup`'s adapted `ad`, degrees, free positions and
    `first_at_least`.  Each path's suffix and replacement brackets are
    recomputed along the path, as the path trie computed them.
    """
    n = len(cond.wp)
    degrees = setup.degrees
    col_vars = _column_vars(setup)
    max_coord = setup.first_at_least[min(cond.level + 1, setup.c + 1)]
    starts = [setup.first_at_least[p] for p in cond.wp]
    out: list[tuple[dict, int]] = []

    def walk(slot: int, suffix: dict, repl: dict, degsum: int, limit: int) -> None:
        if slot == 0:
            out.extend((coeffs, rhs) for _, coeffs, rhs in _path_emit(setup, col_vars, suffix, repl, degsum, max_coord))
            return
        for b in range(starts[slot - 1], limit):
            new_suffix, new_repl = _path_step(setup, col_vars, suffix, repl, b)
            if new_suffix or new_repl:
                walk(slot - 1, new_suffix, new_repl, degsum + degrees[b], setup.dim)

    for b in range(starts[n - 1], setup.dim):
        walk(n - 1, *_root(setup, col_vars, b), degrees[b], b)
    return out


def ratio_rows_by_paths(setup) -> list[tuple[Fraction, dict, int]]:
    """Every path row as (ratio, coeffs, rhs), by decreasing ratio: the rows
    of each index path of length >= 2 (the first index below the root,
    since Delta alternates there), at each coordinate of degree d above its
    degree sum S, of ratio S/d.  This is the per-path stream the e-scan read
    from its path trie before it read span bases; each path's brackets are
    recomputed along the path, and the rows are listed by the pairs (S, d)
    of `_ratio_groups`."""
    degrees = setup.degrees
    c = max(setup.c, 2)
    col_vars = _column_vars(setup)
    buckets: dict[tuple[int, int], list[tuple[dict, int]]] = {}

    def walk(suffix: dict, repl: dict, degsum: int, limit: int) -> None:
        for b in range(limit):
            if degsum + degrees[b] >= c:
                break
            new_suffix, new_repl = _path_step(setup, col_vars, suffix, repl, b)
            if new_suffix or new_repl:
                total = degsum + degrees[b]
                for coord, coeffs, rhs in _path_emit(setup, col_vars, new_suffix, new_repl, total, setup.dim):
                    buckets.setdefault((total, degrees[coord]), []).append((coeffs, rhs))
                walk(new_suffix, new_repl, total, setup.dim)

    for b in range(setup.dim):
        walk(*_root(setup, col_vars, b), degrees[b], b)
    return [(ratio, coeffs, rhs) for ratio, pairs in _ratio_groups(c) for pair in pairs for coeffs, rhs in buckets.get(pair, [])]


def e_invariant_by_paths(g: LieAlgebra) -> EInvariantResult:
    """`e_invariant` on `ratio_rows_by_paths`: the ratio groups in decreasing
    order into one `AffineSystem`, e the ratio of the first group that makes
    it infeasible and the witness the particular solution before it; no
    answer is read off a grading."""
    setup = _setup(g)
    system = before = AffineSystem(len(setup.positions))
    ratio = None
    for r, coeffs, rhs in ratio_rows_by_paths(setup):
        if r != ratio:
            ratio, before = r, system.copy()
        system.add(coeffs, rhs)
        if system.infeasible:
            return EInvariantResult(r, setup.operator(before.particular()))
    return EInvariantResult(Fraction(0), setup.operator(system.particular()))


def e_of_operator_by_paths(g: LieAlgebra, d: GradingOperator) -> Fraction:
    """The ratio of the first row of `ratio_rows_by_paths` that d's free
    entries in adapted coordinates violate, or 0."""
    setup = _setup(g)
    d_ad = _adapted_operator(d, setup)
    if d_ad is None:
        raise OperatorNotInDError("matrix is not a grading operator of the lower central series")
    scale, rows = d_ad
    point = [rows[a].get(b, 0) for a, b in setup.positions]
    for ratio, coeffs, rhs in ratio_rows_by_paths(setup):
        if sum(k * point[var] for var, k in coeffs.items()) != rhs * scale:
            return ratio
    return Fraction(0)


def is_A_derivable_by_paths(g: LieAlgebra, conditions) -> GradingOperator | None:
    """The conditions clamped to the class, each condition's rows over every
    path (`condition_rows_unbounded`) in one `AffineSystem`, and the
    particular solution as witness, or None if it is infeasible."""
    setup = _setup(g)
    system = AffineSystem(len(setup.positions))
    for cond in conditions:
        level = min(cond.level, setup.c)
        if level > sum(cond.wp):
            for coeffs, rhs in condition_rows_unbounded(setup, DerivCondition(cond.wp, level)):
                system.add(coeffs, rhs)
    return None if system.infeasible else setup.operator(system.particular())


# --- the 4-step law difference in closed form, by layer components

def layer_component(ctx: GuivarchContext, x: Sequence[Fraction], layer: int) -> Vec:
    """The layer-`layer` component of x in eigenbasis coordinates."""
    return [q(c) if deg == layer else Fraction(0) for deg, c in zip(ctx.degrees, x)]


def four_step_components(
    g_eig: LieAlgebra,
    ctx: GuivarchContext,
    x: Sequence[Fraction],
    y: Sequence[Fraction],
) -> tuple[Vec, Vec, Vec, Vec]:
    """The four metrically distinct pieces of the 4-step law difference.

    M1 = 1/2 [x1,y1]_3, M2 = 1/2 [x1,y1]_4, M3 = 1/2 ([x1,y2]_4 + [x2,y1]_4),
    M4 = 1/12 ([x1,[x1,y1]_3] + [y1,[y1,x1]_3] + [x1,[x1,y1]_2]_4
               + [y1,[y1,x1]_2]_4); their sum is the exact law difference.
    """
    half = Fraction(1, 2)
    twelfth = Fraction(1, 12)
    x1 = layer_component(ctx, x, 1)
    x2 = layer_component(ctx, x, 2)
    y1 = layer_component(ctx, y, 1)
    y2 = layer_component(ctx, y, 2)
    br = lambda a, b: lie.bracket(g_eig, a, b)
    proj = lambda v, k: layer_component(ctx, v, k)
    xy = br(x1, y1)
    yx = br(y1, x1)
    m1 = [half * c for c in proj(xy, 3)]
    m2 = [half * c for c in proj(xy, 4)]
    m3 = [
        half * (a + b)
        for a, b in zip(proj(br(x1, y2), 4), proj(br(x2, y1), 4))
    ]
    inner = [
        proj(br(x1, proj(xy, 3)), 4),
        proj(br(y1, proj(yx, 3)), 4),
        proj(br(x1, proj(xy, 2)), 4),
        proj(br(y1, proj(yx, 2)), 4),
    ]
    m4 = [twelfth * sum(vals) for vals in zip(*inner)]
    return m1, m2, m3, m4
