"""Independent oracles used by the tests.

Nothing here shares code paths with the package internals: matrix
exponentials are summed term by term, group laws come from honest matrix
products, and the associative-series checker re-derives log(exp x exp y)
from scratch.

`is_grading_operator_echelon` is the filtration-level membership test the
package used before it compared adapted matrix entries.  The derivability
oracles evaluate Delta either through the public dense
`delta_n` or, in `e_of_operator_tuples`, through a per-tuple sparse
recursion of their own (on a signed row table of their own, not
`LieAlgebra.ad`), never through the solver's row stream they check.
`jacobi_violations_dense` sums the Jacobi identity of every basis triple
through `dense_bracket`, not through `ad` or `check_jacobi`'s choice of
triples.  The linear algebra oracles (`rref_solve_affine`, `rref_mat_inv`
and the helpers beside them) use only the dense `rref` and plain loops, never the sparse
`Echelon` or `mat_mul` they check; they are the dense bodies `solve_affine`
and `mat_inv` had before every elimination in the package ran on
`Echelon`.  `adapted_basis_echelon` and `layer_one_generates` are likewise
the code `adapted_basis` and `carnot_algebra`'s generation check replaced:
a membership test of every unit vector against an echelon form of each
F_i, and a bracket-closure loop from the degree-1 layer.  So is
`antichain_by_pruning`, the pairwise domination pass over all of
`r_condition_set` that the closed-form `_antichain` replaced, and
`condition_rows_unbounded`, which returns as a list the rows of the walk
`_condition_rows` made before it was bounded by the condition's level, with
every bracket recomputed along its path instead of read from the trie.
`algebra_in_basis_dense` writes g in a new basis as p^-1 applied to
`dense_bracket` of p's columns in plain Fraction loops, not through
`LieAlgebra.ad` or `clear_denominators`.
`layer_component` and `four_step_components` write the 4-step law
difference as four bracket pieces of layer components, through
`lie.bracket`, not through any BCH word.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from nilgrade import lie
from nilgrade.derivability import DerivCondition, delta_n, normalized_tuples, r_condition_set
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
    AffineSolution,
    Echelon,
    Matrix,
    Vec,
    echelon_of,
    identity,
    mat_mul,
    mat_vec,
    q,
    rref,
    unit_vec,
    zero_vec,
)

F = Fraction


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
        power = mat_mul(power, nil)
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
        mat_mul(mat_exp_nilpotent(to_matrix(x)), mat_exp_nilpotent(to_matrix(y)))
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
    vector of each F_i by membership in an echelon form of the level."""
    rows = d.rows
    if len(rows) != g.dim or any(len(r) != g.dim for r in rows):
        return False
    c = f.nilpotency_class
    levels = [echelon_of(f.basis(i), g.dim) for i in range(1, c + 2)]
    for i in range(1, c + 1):
        for v in f.basis(i):
            dv = mat_vec(rows, v)
            if not levels[i - 1].contains(dv):
                return False
            shifted = [x - i * y for x, y in zip(dv, v)]
            if not levels[i].contains(shifted):
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
    levels = [echelon_of(f.basis(k), g.dim) for k in range(1, f.nilpotency_class + 2)]
    slots = [[list(v) for v, deg in zip(ab.vectors, ab.degrees) if deg >= p] for p in wp]
    best = None
    for xs in product(*slots):
        value = delta_n(g, d, xs)
        if any(value):
            depth = max(k for k, level in enumerate(levels, start=1) if level.contains(value))
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
    solver's row stream, its path trie or the antichain of conditions.
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

    basis = ab.change_of_basis
    d_ad = mat_mul(mat_mul(rref_mat_inv(basis), d.rows), basis)
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


def naive_mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The textbook triple loop over every entry, zeros included."""
    cols = len(b[0]) if b else 0
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), F(0)) for j in range(cols)]
        for i in range(len(a))
    ]


def rref_span(vectors: list[Vec]) -> tuple[list[Vec], list[int]]:
    """Nonzero rows and pivot columns of the dense RREF of `vectors`."""
    red, pivots, rank = rref([[F(x) for x in v] for v in vectors])
    return red[:rank], pivots


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
    vector that an echelon form of F_i contains, in index order, then
    F_i's basis."""
    ech = Echelon(g.dim)
    chosen = []
    for level in range(f.nilpotency_class, 0, -1):
        level_basis = f.basis(level)
        level_ech = echelon_of(level_basis, g.dim)
        units = [unit_vec(g.dim, i) for i in range(g.dim) if level_ech.contains(unit_vec(g.dim, i))]
        for v in units + level_basis:
            if ech.rank == len(level_basis):
                break
            if ech.add(v):
                chosen.append((level, v))
    chosen.sort(key=lambda t: t[0])
    return AdaptedBasis(tuple(tuple(v) for _, v in chosen), tuple(d for d, _ in chosen))


def graded_truncation(g, degrees) -> LieAlgebra:
    """Keep, in each [e_a, e_b], only the components of degree deg a + deg b."""
    brackets = {
        (a, b): [x if degrees[k] == degrees[a] + degrees[b] else 0 for k, x in enumerate(v)]
        for (a, b), v in g.brackets.items()
    }
    return LieAlgebra(g.dim, brackets, g.labels)


def layer_one_generates(algebra, degrees) -> bool:
    """Close the degree-1 basis vectors under brackets with every basis
    vector and compare the rank of the closure with the dimension."""
    n = algebra.dim
    units = [unit_vec(n, i) for i in range(n)]
    frontier = [units[i] for i in range(n) if degrees[i] == 1]
    ech = echelon_of(frontier, n)
    while frontier:
        new_frontier = []
        for v in frontier:
            for base in units:
                w = bracket(algebra, base, v)
                if ech.add(w):
                    new_frontier.append(w)
        frontier = new_frontier
    return ech.rank == n


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


def condition_rows_unbounded(setup, cond: DerivCondition) -> list[tuple[dict, int]]:
    """The rows (coeffs, rhs) of `cond` over every index path of degrees >= wp,
    whatever its degree sum, in order.

    It reads only `setup`'s adapted `ad`, degrees, free variables and
    `first_at_least`.  Each path's suffix and replacement brackets are
    recomputed along the path, in the order the solver computes them, so
    the sparse vectors, and with them the rows, come out in the same order.
    """
    n = len(cond.wp)
    degrees, col_vars, ad = setup.degrees, setup.col_vars, setup.ad
    max_coord = setup.first_at_least[min(cond.level + 1, setup.c + 1)]
    starts = [setup.first_at_least[p] for p in cond.wp]
    out: list[tuple[dict, int]] = []

    def step(suffix: dict, repl: dict, b: int) -> tuple[dict, dict]:
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

    def emit(value: dict, repl: dict, degsum: int) -> None:
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
        for coord in set(rows) | set(rhs):
            coeffs = rows.get(coord, {})
            b = rhs.get(coord, 0)
            if coeffs or b:
                out.append((coeffs, b))

    def walk(slot: int, suffix: dict, repl: dict, degsum: int, limit: int) -> None:
        if slot == 0:
            emit(suffix, repl, degsum)
            return
        for b in range(starts[slot - 1], limit):
            new_suffix, new_repl = step(suffix, repl, b)
            if new_suffix or new_repl:
                walk(slot - 1, new_suffix, new_repl, degsum + degrees[b], setup.dim)

    for b in range(starts[n - 1], setup.dim):
        walk(n - 1, {b: 1}, {var: {a: 1} for var, a in col_vars[b]}, degrees[b], b)
    return out


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
