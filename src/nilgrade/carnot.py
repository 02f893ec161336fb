"""Linear gradings from grading operators and the associated graded algebra.

Everything runs on integers, from the adapted coordinates that the e-scan
already holds (`derivability._Setup`).  There p^-1 D p is diag(degrees) plus
entries only where the row's degree exceeds the column's, so each layer
ker(D - i) is read off by forward substitution, one eigenvector per
degree-i index, and brought to its canonical basis by one integer `Echelon`;
the eigenbasis algebra comes from `lie.algebra_in_integer_basis`.  The
graded bracket keeps, for inputs of degrees i and j, only the degree-(i+j)
component of the original bracket (`lie.graded_part`, on the structure
table), and its generation by the degree-1 layer is read off that table
(`lie.degree_one_generates`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import derivability, lie
from .derivability import GradingOperator, OperatorNotInDError
from .lie import LieAlgebra
from .linalg import ZERO, Echelon, Vec, integer_inverse


class LinearGrading(NamedTuple):
    """Layers v_1, ..., v_c in original coordinates; their direct sum is
    the whole space and the tails of the sum recover the filtration.

    `int_layers[i-1]` holds layer i as sparse integer rows {column: nonzero
    int}, read-only.  Layer i's vectors are the canonical basis of ker(D - i):
    each has last nonzero entry 1, at a column where the layer's other
    vectors are 0, and they come by increasing such column.  Each row is its
    vector times the least positive integer that clears it, so its last
    entry is that integer.  `layers` and `eigenbasis` make the dense
    Fraction vectors on read.
    """

    dim: int
    int_layers: tuple[tuple[dict[int, int], ...], ...]

    def __hash__(self) -> int:
        return hash((self.dim, tuple(tuple(tuple(sorted(row.items())) for row in layer) for layer in self.int_layers)))

    @property
    def layers(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """Each layer's vectors as dense Fraction tuples: each row over its last entry."""
        return tuple(tuple(_over_last(row, self.dim) for row in layer) for layer in self.int_layers)

    @property
    def degrees(self) -> tuple[int, ...]:
        """Layer degree of each eigenbasis vector, layer-major order."""
        return tuple(i for i, layer in enumerate(self.int_layers, start=1) for _ in layer)

    @property
    def eigenbasis(self) -> list[Vec]:
        """Concatenated layer bases (the coordinates used downstream)."""
        return [list(v) for layer in self.layers for v in layer]


def _over_last(row: dict[int, int], dim: int) -> tuple[Fraction, ...]:
    out = [ZERO] * dim
    s = row[max(row)]
    for k, x in row.items():
        out[k] = Fraction(x, s)
    return tuple(out)


class CarnotAlgebra(NamedTuple):
    """The associated Carnot-graded algebra, in the grading eigenbasis."""

    algebra: LieAlgebra
    degrees: tuple[int, ...]


def grading_from_operator(g: LieAlgebra, d: GradingOperator) -> LinearGrading:
    """Layers ker(D - i) for i = 1..c of a grading operator D.

    Raises OperatorNotInDError unless `is_grading_operator` holds.  No other
    check is needed: (D - i) maps F_i into F_{i+1}, so (D - c)...(D - 1) = 0
    and the eigenspaces ker(D - i) fill the space; and a nonzero v in
    ker(D - j) of depth k has (j - k) v in F_{k+1}, so k = j: ker(D - j)
    lies in F_j and meets F_{j+1} only in 0, and counting dimensions, the
    layers from i on span F_i.

    Both steps are exact on integers.  The eigenvectors come from the
    adapted form p^-1 D p that `is_grading_operator` tests, one per adapted
    index of degree i, by forward substitution (`derivability._eigenvectors`):
    they are a basis of ker(D - i).  The layer's canonical basis (see
    `LinearGrading`), whose vectors each end in a 1 at a column where every
    other vector is 0, is the reduced echelon basis in reversed column
    order: one `Echelon` over the layer's eigenvectors, with columns
    reversed, gives it, its rows by increasing pivot being the vectors by
    decreasing last column.
    """
    setup = derivability._setup(g)
    vectors = derivability._eigenvectors(d, setup)
    if vectors is None:
        raise OperatorNotInDError("matrix is not a grading operator (filtration invariants fail)")
    n, last = g.dim, g.dim - 1
    layers = []
    for i in range(1, setup.c + 1):
        ech = Echelon()
        for v, deg in zip(vectors, setup.degrees):
            if deg == i:
                ech.add({last - k: x for k, x in v.items()})
        layers.append(tuple({last - k: x for k, x in row.items()} for row in reversed(ech.int_rows.values())))
    return LinearGrading(n, tuple(layers))


def carnot_algebra(g: LieAlgebra, d: GradingOperator | Sequence[int]) -> CarnotAlgebra:
    """The associated Carnot algebra of (g, D), in the grading eigenbasis.

    D is a grading operator of g, for which this is `carnot_pair(g, D)[1]`,
    or the layer degree of each basis vector when g is already written in
    the eigenbasis of one (as `carnot_pair` passes it).  g must satisfy
    Jacobi, as every CLI verb checks when it loads an algebra.  The graded
    bracket, `lie.graded_part(g, degrees)`, keeps for basis vectors of
    degrees i and j the degree-(i+j) component of their bracket in g.  It is
    the associated graded algebra of the filtration by degree, so it respects
    the grading and satisfies Jacobi by construction; it is checked to be
    generated by the degree-1 layer V_1.  `lie.graded_part` caches it on g,
    and `bch.law_difference` recognises the pair as a companion by that instance.

    Given Jacobi, V_1 generates iff [V_1, V_{k-1}] = V_k for every k >= 2,
    which `lie.degree_one_generates` reads off the table.  Then the lower
    central series γ_k of the graded algebra A is ⊕_{d>=k} V_d: [V_a, V_b] ⊆
    V_{a+b} gives γ_k ⊆ ⊕_{d>=k} V_d, and V_k = [V_1, V_{k-1}] ⊆ γ_k by
    induction.  So A's series is seeded from the degrees
    (`lie._seed_graded_series`), for the group laws, not computed.
    """
    if isinstance(d, GradingOperator):
        return carnot_pair(g, d)[1]
    degrees = tuple(d)
    if len(degrees) != g.dim or any(k < 1 for k in degrees):
        raise ValueError("need one positive degree per basis vector")
    algebra = lie.graded_part(g, degrees)
    if not lie.degree_one_generates(algebra, degrees):
        raise ValueError("degree-1 layer does not generate the graded algebra")
    lie._seed_graded_series(algebra, degrees)
    return CarnotAlgebra(algebra, degrees)


def carnot_pair(g: LieAlgebra, d: GradingOperator) -> tuple[LieAlgebra, CarnotAlgebra]:
    """(g expressed in the grading eigenbasis, associated Carnot algebra).

    The k-th eigenbasis vector of layer i is labelled "v{i}_{k}".  Both
    algebras share these coordinates, so their group laws can be compared
    pointwise; the grading and the eigenbasis are computed once.  The
    eigenbasis stays on integers: the layers' rows, brought to a common
    last entry dp, are the columns of P with p = P/dp, inverted once by
    `linalg.integer_inverse` (a permutation needs no elimination) into
    `lie.algebra_in_integer_basis`, so g_eig is what `lie.change_of_basis`
    of the dense eigenbasis gives, bit for bit.  The layers from i on span
    F_i (see `grading_from_operator`), so g_eig's lower central series is
    seeded from the layer degrees, not recomputed, as the companion's is.
    """
    grading = grading_from_operator(g, d)
    layers = enumerate(grading.int_layers, start=1)
    labels = [f"v{i}_{k}" for i, layer in layers for k in range(1, len(layer) + 1)]
    rows = [row for layer in grading.int_layers for row in layer]
    scales = [row[max(row)] for row in rows]
    dp = math.lcm(*scales)
    p_cols = [{k: x * (dp // s) for k, x in row.items()} for row, s in zip(rows, scales)]
    dq, q_rows = integer_inverse(p_cols)
    g_eig = lie.algebra_in_integer_basis(g, p_cols, q_rows, dp * dq, labels)
    lie._seed_graded_series(g_eig, grading.degrees)
    return g_eig, carnot_algebra(g_eig, grading.degrees)


def verify_grading(
    g: LieAlgebra, degrees: Sequence[int]
) -> tuple[bool, list[tuple[int, int]]]:
    """Check that assigning degrees[i] to e_i defines a Lie algebra grading.

    Every nonzero bracket [e_i, e_j] must lie in the span of basis
    vectors of degree exactly degrees[i] + degrees[j]; returns the truth
    value and the offending pairs, i < j, in order (`lie.grading_violations`).
    """
    if len(degrees) != g.dim:
        raise ValueError("need one degree per basis vector")
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be positive")
    violations = lie.grading_violations(g, degrees)
    return not violations, violations


def serialize_carnot(ca: CarnotAlgebra) -> str:
    """Definition text of the graded algebra plus a degrees comment."""
    return lie.serialize_algebra(ca.algebra, degrees=ca.degrees)
