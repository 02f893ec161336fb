"""Linear gradings from grading operators and the associated graded algebra.

The layers of the grading are exact nullspaces of D - i, which for a
grading operator fill the space and recover the lower central series; the
graded bracket keeps, for inputs of degrees i and j, only the degree-(i+j)
component of the original bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import lie
from .derivability import GradingOperator, OperatorNotInDError, is_grading_operator
from .lie import LieAlgebra
from .linalg import Vec, ZERO, nullspace


@dataclass(frozen=True)
class LinearGrading:
    """Layers v_1, ..., v_c in original coordinates; their direct sum is
    the whole space and the tails of the sum recover the filtration."""

    layers: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        """Layer degree of each eigenbasis vector, layer-major order."""
        out: list[int] = []
        for i, layer in enumerate(self.layers, start=1):
            out.extend([i] * len(layer))
        return tuple(out)

    @property
    def eigenbasis(self) -> list[Vec]:
        """Concatenated layer bases (the coordinates used downstream)."""
        return [list(v) for layer in self.layers for v in layer]


@dataclass(frozen=True)
class CarnotAlgebra:
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
    """
    f = lie.lower_central_series(g)
    if not is_grading_operator(g, f, d):
        raise OperatorNotInDError("matrix is not a grading operator (filtration invariants fail)")
    layers: list[list[Vec]] = []
    for i in range(1, f.nilpotency_class + 1):
        shifted = d.rows
        for a in range(g.dim):
            shifted[a][a] -= i
        layers.append(nullspace(shifted))
    return LinearGrading(tuple(tuple(tuple(v) for v in layer) for layer in layers))


def carnot_algebra(g: LieAlgebra, d: GradingOperator | Sequence[int]) -> CarnotAlgebra:
    """The associated Carnot algebra of (g, D), in the grading eigenbasis.

    D is a grading operator of g, for which this is `carnot_pair(g, D)[1]`,
    or the layer degree of each basis vector when g is already written in
    the eigenbasis of one (as `carnot_pair` passes it).  The graded bracket
    keeps, for basis vectors of degrees i and j, the degree-(i+j) component
    of their bracket in g, so it respects the grading by construction; it
    is checked to be a Lie algebra and to be generated by the degree-1 layer V_1.

    V_1 generates iff the lower central series γ_k of the graded algebra A
    (then cached on A for the group laws) has dim γ_k = #{degrees >= k} for
    every k; k = 1 and k > max degree hold trivially.  Proof: [V_a, V_b] ⊆
    V_{a+b} gives γ_k ⊆ ⊕_{d>=k} V_d.  Equality at k = 2 gives V_1 + [A, A]
    = A, so V_1 generates the nilpotent A; conversely V_k = [V_1, V_{k-1}]
    ⊆ γ_k by induction.
    """
    if isinstance(d, GradingOperator):
        return carnot_pair(g, d)[1]
    degrees = tuple(d)
    if len(degrees) != g.dim or any(k < 1 for k in degrees):
        raise ValueError("need one positive degree per basis vector")
    brackets: dict[tuple[int, int], Vec] = {}
    for (a, b), v in g.brackets.items():
        target = degrees[a] + degrees[b]
        if any(x != 0 and degrees[k] < target for k, x in enumerate(v)):
            raise ValueError(
                f"[{g.labels[a]}, {g.labels[b]}] has a component of degree below {target}"
            )
        brackets[(a, b)] = [x if degrees[k] == target else ZERO for k, x in enumerate(v)]
    algebra = LieAlgebra(g.dim, brackets, g.labels)
    if lie.check_jacobi(algebra):
        raise AssertionError("graded bracket failed the Jacobi identity")
    f = lie.lower_central_series(algebra)
    for k in range(2, max(degrees, default=1) + 1):
        if len(f.basis(k)) != sum(deg >= k for deg in degrees):
            raise ValueError("degree-1 layer does not generate the graded algebra")
    return CarnotAlgebra(algebra, degrees)


def carnot_pair(g: LieAlgebra, d: GradingOperator) -> tuple[LieAlgebra, CarnotAlgebra]:
    """(g expressed in the grading eigenbasis, associated Carnot algebra).

    The k-th eigenbasis vector of layer i is labelled "v{i}_{k}".  Both
    algebras share these coordinates, so their group laws can be compared
    pointwise; the grading and the eigenbasis are computed once.
    """
    grading = grading_from_operator(g, d)
    layers = enumerate(grading.layers, start=1)
    labels = [f"v{i}_{k}" for i, layer in layers for k in range(1, len(layer) + 1)]
    g_eig = lie.change_of_basis(g, grading.eigenbasis, labels)
    return g_eig, carnot_algebra(g_eig, grading.degrees)


def verify_grading(
    g: LieAlgebra, degrees: Sequence[int]
) -> tuple[bool, list[tuple[int, int]]]:
    """Check that assigning degrees[i] to e_i defines a Lie algebra grading.

    Every nonzero bracket [e_i, e_j] must lie in the span of basis
    vectors of degree exactly degrees[i] + degrees[j]; returns the truth
    value and the offending pairs.
    """
    if len(degrees) != g.dim:
        raise ValueError("need one degree per basis vector")
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be positive")
    violations = []
    for (i, j), v in sorted(g.brackets.items()):
        target = degrees[i] + degrees[j]
        if any(c != 0 and degrees[k] != target for k, c in enumerate(v)):
            violations.append((i, j))
    return not violations, violations


def serialize_carnot(ca: CarnotAlgebra) -> str:
    """Definition text of the graded algebra plus a degrees comment."""
    return lie.serialize_algebra(ca.algebra, degrees=ca.degrees)
