"""Print one sha256 over nilgrade's canonical library outputs on the bench set.

    python3 tools/output_digest.py

The algebras are the 13 catalog fixtures, filiform(6..12) and the five
central products of the benchmark.  For each one the script records, as
exact text: the lower central series, the adapted basis and its degrees,
the algebra in the adapted basis and in a fixed rational shear of the
original basis (`change_of_basis`; the shear and its inverse both have
denominators, so both enter the scale that it clears) with the lower
central series of that sheared algebra, the e-invariant
and its witness, `e_of_operator` of the witness, of the base point of
`grading_operator_space` and of the witness plus a third of each of 3
free directions spread over that space, `is_grading_operator` on the
witness, on the base point and on the base point with 1 added to its top
left entry (never a grading operator: the free directions have trace 0),
that `e_of_operator` raises OperatorNotInDError on the latter,
`is_A_derivable` on the catalog's recorded condition sets and on
conditions drawn from `enumerate_S(c)` with a fixed seed, the Carnot
pair, `carnot_algebra` of the witness, the lower central series of the
Carnot companion, and
`check_jacobi` of the algebra with 1 added to the e_1 component of its
first nonzero bracket (most such tables violate Jacobi).  All of these
share one algebra instance, and with it the adapted setup cached on it;
`e_of_operator` of the witness and `is_A_derivable`
on the recorded sets are then run once more, each call on a freshly
parsed instance, so that an unshared setup is covered too.  One more
freshly parsed instance answers `is_grading_operator` on the witness,
the base point and the perturbed base point before any solve has run on
it, and then `e_of_operator` of the three moved operators.  Algebras
within the BCH cap also get a short goodman report as JSON, one more on
the ladder 1, 3/2, 5/3, 7, 2^16 (rungs with denominators other than 1, so
the radius and the difference carry a rung denominator), whose radii and
difference norms are recorded once more at full float precision (the
report prints 12 digits, which hides a float that moves by a few units in
the last place, as it does when a root's integer ratio keeps a common
factor such as the 16 of 80/48 at the rung 5/3), and the three
group laws on the grading eigenbasis (`bch_product`, `carnot_product` and
`law_difference`) at 2 fixed grid pairs, each dilated to the rungs 2^0,
2^8 and 2^16.  Each catalog fixture is then moved by a lower triangular
shear of rescaled basis vectors and by its transpose (`fixture_shears`),
and the moved algebra's e-invariant, witness and `e_of_operator` of the
witness are recorded: the adapted basis of the transposed shear's algebra
is no permutation, so these are the solves whose setup changes basis
through general sparse columns.  Each moved algebra's Carnot pair then
gets the three group laws at the same dilated grid pairs (the transposed
shear's pair has an eigenbasis that is no permutation), and beside them
`law_difference(moved, ca, ...)`, the moved algebra against that pair's
Carnot companion: for the transposed shear the moved algebra is not
written in the companion's eigenbasis, so this is the two-product
definition, not the one weight-split evaluation.  Last come
the nonzero BCH word coefficients of `bch_table(c)` for c = 2..8, the
largest exact solves the package makes.  Two checkouts print
the same hash exactly when all of these outputs agree, so running it on
a parent and a change checks that the change keeps them bit-identical.
Only the standard library and the checkout's own `src/` are used.
"""

from __future__ import annotations

import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nilgrade import bch, carnot, catalog, derivability, goodman, lie  # noqa: E402

ALGEBRAS = (
    [entry.name for entry in catalog.entries()]
    + [f"filiform({n})" for n in range(6, 13)]
    + [f"central_product({i},{j})" for i, j in ((2, 3), (3, 5), (4, 7), (5, 8), (6, 10))]
)
DRAWN_PER_ALGEBRA = 6
GOODMAN_SAMPLES, GOODMAN_TMAX, GOODMAN_SEED = 2, 4, 7
GOODMAN_LADDER = (Fraction(1), Fraction(3, 2), Fraction(5, 3), Fraction(7), Fraction(2**16))
PRODUCT_PAIRS, PRODUCT_RUNGS, PRODUCT_SEED = 2, (0, 8, 16), 11


def _vec(v) -> str:
    return ",".join(str(x) for x in v)


def _rows(rows) -> str:
    return "/".join(_vec(r) for r in rows)


def _chain(f) -> str:
    return " | ".join(_rows(f.basis(k)) for k in range(1, f.nilpotency_class + 2))


def _operator(d) -> str:
    return "NotDerivable" if d is None else _rows(d.matrix)


def _conditions(conds) -> str:
    return ",".join(str(c) for c in sorted(conds))


def shear(n: int) -> list[list[Fraction]]:
    """Basis vectors v_j = sum over i >= j of (j+1)/(2 + j%2)/(i-j+1) e_i."""
    return [[Fraction(j + 1, 2 + j % 2) / (i - j + 1) if i >= j else Fraction(0) for i in range(n)] for j in range(n)]


def fixture_shears(n: int) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """The lower triangular shear with entries (j+1)/(2 or 3)/(i-j+1), and its
    transpose, as matrices whose columns are the new basis vectors."""
    scales = [Fraction(i + 1, 2 if i % 2 else 3) for i in range(n)]
    lower = [[Fraction(1, i - j + 1) * scales[j] if i >= j else Fraction(0) for j in range(n)] for i in range(n)]
    return lower, [list(row) for row in zip(*lower)]


def sheared_lines(name: str) -> list[str]:
    g = catalog.get(name).algebra
    out = []
    for kind, p in zip(("lower", "upper"), fixture_shears(g.dim)):
        moved = lie.change_of_basis(g, [list(col) for col in zip(*p)])
        result = derivability.e_invariant(moved)
        out.append(
            f"sheared {kind} {name}: e {result.e} witness {_operator(result.witness)}"
            f" e_of_operator {derivability.e_of_operator(moved, result.witness)}"
        )
        out += product_lines(*carnot.carnot_pair(moved, result.witness), moved)
    return out


def perturbed(g: lie.LieAlgebra) -> lie.LieAlgebra:
    """g with 1 added to the e_1 component of its first nonzero bracket."""
    brackets = {pair: list(v) for pair, v in g.brackets.items()}
    brackets[min(brackets)][0] += 1
    return lie.LieAlgebra(g.dim, brackets, g.labels)


def algebra_lines(name: str, rng: random.Random) -> list[str]:
    entry = catalog.get(name)
    g = entry.algebra
    f = lie.lower_central_series(g)
    ab = lie.adapted_basis(g, f)
    result = derivability.e_invariant(g)
    sheared = lie.change_of_basis(g, shear(g.dim))
    out = [
        f"algebra {name}",
        "lcs " + _chain(f),
        f"adapted {_rows(ab.vectors)} degrees {_vec(ab.degrees)}",
        "change_of_basis " + lie.serialize_algebra(lie.change_of_basis(g, ab.vectors)),
        "change_of_basis shear " + lie.serialize_algebra(sheared),
        "lcs shear " + _chain(lie.lower_central_series(sheared)),
        f"e {result.e} witness {_operator(result.witness)}",
        f"e_of_operator {derivability.e_of_operator(g, result.witness)}",
    ]
    base, dirs = derivability.grading_operator_space(g, f, ab)
    out.append(f"e_of_operator base {derivability.e_of_operator(g, base)}")
    moved_operators = []
    for m in dirs[:: max(1, len(dirs) // 3)][:3]:
        moved = [[w + x / 3 for w, x in zip(wr, mr)] for wr, mr in zip(result.witness.rows, m)]
        d = derivability.GradingOperator.from_rows(moved)
        moved_operators.append(d)
        out.append(f"e_of_operator {_operator(d)}: {derivability.e_of_operator(g, d)}")
    bad_rows = base.rows
    bad_rows[0][0] += 1
    bad = derivability.GradingOperator.from_rows(bad_rows)
    verdicts = [derivability.is_grading_operator(g, f, d) for d in (result.witness, base, bad)]
    out.append("is_grading_operator witness {} base {} perturbed {}".format(*verdicts))
    try:
        raised = f"returned {derivability.e_of_operator(g, bad)}"
    except derivability.OperatorNotInDError:
        raised = "raised OperatorNotInDError"
    out.append(f"e_of_operator perturbed {raised}")
    exp = entry.expected
    recorded = []
    if exp is not None:
        recorded = ([exp.failure] if exp.failure else []) + list(exp.derivable) + list(exp.not_derivable)
    for conds in recorded:
        out.append(f"recorded {_conditions(conds)}: {_operator(derivability.is_A_derivable(g, conds))}")
    c = f.nilpotency_class
    pool = sorted(derivability.enumerate_S(c)) if c >= 3 else []
    for cond in rng.sample(pool, min(DRAWN_PER_ALGEBRA, len(pool))):
        out.append(f"drawn {cond}: {_operator(derivability.is_A_derivable(g, [cond]))}")
    fresh = [str(derivability.e_of_operator(entry.algebra, result.witness))]
    fresh += [_operator(derivability.is_A_derivable(entry.algebra, conds)) for conds in recorded]
    out.append("fresh " + " ; ".join(fresh))
    unsolved = entry.algebra
    f_unsolved = lie.lower_central_series(unsolved)
    verdicts = [derivability.is_grading_operator(unsolved, f_unsolved, d) for d in (result.witness, base, bad)]
    moved_e = [str(derivability.e_of_operator(unsolved, d)) for d in moved_operators]
    out.append("unsolved is_grading_operator witness {} base {} perturbed {}".format(*verdicts))
    out.append("unsolved e_of_operator moved " + " ; ".join(moved_e))
    g_eig, ca = carnot.carnot_pair(g, result.witness)
    out.append("eigenbasis " + lie.serialize_algebra(g_eig))
    out.append("carnot " + carnot.serialize_carnot(ca))
    out.append("carnot_algebra " + carnot.serialize_carnot(carnot.carnot_algebra(g, result.witness)))
    out.append("carnot lcs " + _chain(lie.lower_central_series(ca.algebra)))
    out.append("jacobi perturbed " + repr(lie.check_jacobi(perturbed(g))))
    if c <= bch.MAX_SUPPORTED_CLASS:
        ladder = [Fraction(2) ** k for k in range(GOODMAN_TMAX + 1)]
        report = goodman.goodman_check(g, result.witness, GOODMAN_SAMPLES, ladder, GOODMAN_SEED)
        out.append("goodman " + report.to_json())
        report = goodman.goodman_check(g, result.witness, GOODMAN_SAMPLES, GOODMAN_LADDER, GOODMAN_SEED)
        out.append("goodman ladder " + report.to_json())
        out.append("goodman ladder floats " + " ".join(f"{s.r!r}/{s.diff_norm!r}" for s in report.samples))
        out += product_lines(g_eig, ca)
    return out


def product_lines(g_eig: lie.LieAlgebra, ca: carnot.CarnotAlgebra, moved: lie.LieAlgebra | None = None) -> list[str]:
    """The three group laws on (g_eig, ca) at the dilated grid pairs, and with
    moved, `law_difference(moved, ca, ...)` at the same points."""
    f_eig = lie.lower_central_series(g_eig)
    ctx = goodman.GuivarchContext.for_carnot(ca)
    sampler = goodman.GridSampler(PRODUCT_SEED)
    out = []
    for _ in range(PRODUCT_PAIRS):
        x, y = sampler.vector(g_eig.dim), sampler.vector(g_eig.dim)
        for k in PRODUCT_RUNGS:
            u, v = (goodman.dilate(ctx, Fraction(2) ** k, w) for w in (x, y))
            line = (
                f"products {_vec(x)} ; {_vec(y)} at 2^{k}: bch {_vec(bch.bch_product(g_eig, f_eig, u, v))}"
                f" carnot {_vec(bch.carnot_product(ca, u, v))} diff {_vec(bch.law_difference(g_eig, ca, u, v))}"
            )
            if moved is not None:
                line += f" moved diff {_vec(bch.law_difference(moved, ca, u, v))}"
            out.append(line)
    return out


def bch_lines() -> list[str]:
    return [
        f"bch_table {c} " + " ".join(f"{''.join(map(str, w))}:{x}" for w, x in bch.bch_table(c).nonzero)
        for c in range(2, bch.MAX_SUPPORTED_CLASS + 1)
    ]


def main() -> int:
    rng = random.Random("output_digest")
    digest = hashlib.sha256()
    lines = [line for name in ALGEBRAS for line in algebra_lines(name, rng)]
    lines += [line for entry in catalog.entries() for line in sheared_lines(entry.name)]
    lines += bch_lines()
    for line in lines:
        digest.update(line.encode() + b"\n")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
