"""Exact computations on finite-dimensional nilpotent Lie algebras.

The package decides weak derivability conditions by exact affine
feasibility, computes the associated bilipschitz-defect exponent of an
algebra together with a witness grading operator, builds the associated
Carnot-graded algebra, evaluates truncated BCH group laws, and samples
the difference-law inequality that controls the exponent.
"""

from .bch import BCHTermTable, bch_product, bch_table, carnot_product, group_inverse, law_difference, law_difference_ladder
from .carnot import (
    CarnotAlgebra,
    LinearGrading,
    carnot_algebra,
    carnot_pair,
    grading_from_operator,
    serialize_carnot,
    verify_grading,
)
from .catalog import CatalogEntry, abelian, central_product_filiform, filiform, get
from .derivability import (
    ConditionSet,
    DerivCondition,
    EInvariantResult,
    GradingOperator,
    OperatorNotInDError,
    candidate_values,
    delta_n,
    e_invariant,
    e_of_operator,
    enumerate_S,
    enumerate_T,
    grading_operator_space,
    is_A_derivable,
    is_grading_operator,
    parse_condition_set,
    r_condition_set,
)
from .goodman import (
    GoodmanReport,
    GuivarchContext,
    dilate,
    fit_exponent,
    goodman_check,
    guivarch_norm,
)
from .lie import (
    AdaptedBasis,
    AlgebraFormatError,
    Filtration,
    LieAlgebra,
    NotNilpotentError,
    adapted_basis,
    bracket,
    change_of_basis,
    check_jacobi,
    iterated_bracket,
    lower_central_series,
    parse_algebra,
    serialize_algebra,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
