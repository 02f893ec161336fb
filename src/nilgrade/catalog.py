"""Built-in algebra library: fixed entries plus parametric families.

Fixed entries are stored as definition-text fixtures; the recorded
expectations (class, layer dimensions, e-value, failing condition sets)
are validated against computed values by the test suite, never trusted.
"""

from __future__ import annotations

import re
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from .derivability import ConditionSet, parse_condition_set
from .lie import _MAX_DIM, LieAlgebra, _sparse_table, parse_algebra, serialize_algebra


class UnknownEntryError(KeyError):
    """Raised for names that match no entry, alias or parametric family."""


class Expected(NamedTuple):
    nilpotency_class: int
    tau: tuple[int, ...]
    e_value: Fraction | None = None
    failure: ConditionSet | None = None
    derivable: tuple[ConditionSet, ...] = ()
    not_derivable: tuple[ConditionSet, ...] = ()


class CatalogEntry(NamedTuple):
    name: str
    aliases: tuple[str, ...]
    definition: str
    expected: Expected | None = None
    note: str = ""

    @property
    def algebra(self) -> LieAlgebra:
        return parse_algebra(self.definition)


def _fixture(name: str) -> str:
    return resources.files(__package__).joinpath("fixtures", f"{name}.alg").read_text()


def _cs(text: str) -> ConditionSet:
    return parse_condition_set(text)


_STATIC: list[CatalogEntry] = [
    CatalogEntry(
        "heisenberg",
        ("h3",),
        _fixture("heisenberg"),
        Expected(2, (2, 1), e_value=Fraction(0)),
    ),
    CatalogEntry(
        "g5_5",
        ("g5,5", "L6,7"),
        _fixture("g5_5"),
        Expected(4, (2, 1, 1, 1), e_value=Fraction(3, 4), failure=_cs("(1,2|4)")),
        note=(
            "the published pairing with the 6-indexed label L6,7 mismatches "
            "the dimension; both labels kept as unverified aliases"
        ),
    ),
    CatalogEntry(
        "g6_2",
        ("g6,2", "L6,10"),
        _fixture("g6_2"),
        Expected(3, (4, 1, 1), e_value=Fraction(2, 3), failure=_cs("(1,1|3)")),
    ),
    CatalogEntry(
        "g6_11",
        ("g6,11", "L6,12"),
        _fixture("g6_11"),
        Expected(4, (3, 1, 1, 1), e_value=Fraction(1, 2), failure=_cs("(1,1|4)")),
    ),
    CatalogEntry(
        "g6_12",
        ("g6,12", "L6,11"),
        _fixture("g6_12"),
        Expected(4, (3, 1, 1, 1), e_value=Fraction(3, 4), failure=_cs("(1,2|4)")),
    ),
    CatalogEntry(
        "g6_13",
        ("g6,13", "L6,13"),
        _fixture("g6_13"),
        Expected(4, (3, 1, 1, 1), e_value=Fraction(3, 4), failure=_cs("(1,2|4)")),
    ),
    CatalogEntry(
        "g6_17",
        ("g6,17", "L6,17"),
        _fixture("g6_17"),
        Expected(5, (2, 1, 1, 1, 1), e_value=Fraction(3, 5), failure=_cs("(1,2|5)")),
    ),
    CatalogEntry(
        "g6_19",
        ("g6,19", "L6,15"),
        _fixture("g6_19"),
        Expected(5, (2, 1, 1, 1, 1), e_value=Fraction(4, 5), failure=_cs("(1,3|5)")),
    ),
    CatalogEntry(
        "g6_20",
        ("g6,20", "L6,14"),
        _fixture("g6_20"),
        Expected(5, (2, 1, 1, 1, 1), e_value=Fraction(4, 5), failure=_cs("(1,1,2|5)")),
        note=(
            "the published failure set {(1,3|5)} is satisfiable here (the "
            "diagonal operator works); {(1,1,2|5)} is a failing certificate "
            "and the e-value 4/5 is unaffected"
        ),
    ),
    CatalogEntry(
        "g7_1_2i1",
        ("g7,1,2(i1)", "g7_1_2i"),
        _fixture("g7_1_2i1"),
        Expected(
            4,
            (3, 1, 2, 1),
            e_value=Fraction(3, 4),
            derivable=(_cs("(1,2|4)"),),
            not_derivable=(_cs("(1,1,1|4)"),),
        ),
        note="the nomenclature parameter (i1) is part of the label only",
    ),
    CatalogEntry(
        "g7_0_8",
        ("g7,0,8",),
        _fixture("g7_0_8"),
        Expected(
            5,
            (3, 1, 1, 1, 1),
            e_value=Fraction(4, 5),
            failure=_cs("(1,1,2|5)"),
        ),
        note=(
            "published as e = 3/4, but no grading operator satisfies "
            "(1,1,2|5): composing the off-degree bracket [e2,e4] = e6 with "
            "[e2,e6] = e7 forces a defect of ratio 4/5 for every operator"
        ),
    ),
    CatalogEntry(
        "g7_1_21",
        ("g7,1,21",),
        _fixture("g7_1_21"),
        Expected(5, (3, 1, 1, 1, 1)),
        note="same bracket list as g7_0_8 with [e1,e3] = 0; admits a positive grading",
    ),
    CatalogEntry(
        "counterexample11",
        ("c11",),
        _fixture("counterexample11"),
        Expected(
            4,
            (3, 3, 3, 2),
            derivable=(_cs("(1,1|3)"), _cs("(1,2|4)")),
            not_derivable=(_cs("(1,1|3),(1,2|4)"), _cs("(1,1,1|4)")),
        ),
    ),
]

_BY_NAME: dict[str, CatalogEntry] = {}
for _entry in _STATIC:
    _BY_NAME[_entry.name.lower()] = _entry
    for _alias in _entry.aliases:
        _BY_NAME[_alias.lower()] = _entry


def _check_dim(dim: int) -> None:
    """A family member is built in memory, so its dimension is capped."""
    if dim > _MAX_DIM:
        raise ValueError(f"dimension must be at most {_MAX_DIM}")


def abelian(n: int) -> LieAlgebra:
    """The abelian algebra of dimension n."""
    if n < 1:
        raise ValueError("dimension must be positive")
    _check_dim(n)
    return LieAlgebra._from_table(n, *_sparse_table({}), None)


def filiform(n: int) -> LieAlgebra:
    """Standard filiform algebra of dimension n: [e1, ek] = e(k+1)."""
    if n < 3:
        raise ValueError("standard filiform needs dimension >= 3")
    _check_dim(n)
    return LieAlgebra._from_table(n, *_sparse_table({(0, k - 1): {k: 1} for k in range(2, n)}), None)


def central_product_filiform(i: int, j: int) -> LieAlgebra:
    """Central product of standard filiform algebras of dimensions i+1, j+1.

    Basis X, Y1..Y(i-1), U, V1..Vj with [X, Yp] = Y(p+1) for p <= i-2,
    [X, Y(i-1)] = Vj and [U, Vq] = V(q+1) for q <= j-1; dimension i+j+1.
    """
    if not 2 <= i < j:
        raise ValueError("need 2 <= i < j")
    dim = i + j + 1
    _check_dim(dim)
    labels = ["X"] + [f"Y{p}" for p in range(1, i)] + ["U"] + [f"V{q}" for q in range(1, j + 1)]
    index = {lab: k for k, lab in enumerate(labels)}
    brackets = {}
    for p in range(1, i - 1):
        brackets[(index["X"], index[f"Y{p}"])] = {index[f"Y{p+1}"]: 1}
    brackets[(index["X"], index[f"Y{i-1}"])] = {index[f"V{j}"]: 1}
    for qq in range(1, j):
        brackets[(index["U"], index[f"V{qq}"])] = {index[f"V{qq+1}"]: 1}
    return LieAlgebra._from_table(dim, *_sparse_table(brackets), labels)


# the closing parenthesis is required iff the opening one is there
_PARAM_RE = re.compile(r"^(abelian|filiform)\s*(\()?\s*(\d+)\s*(?(2)\))$")
_CP_RE = re.compile(r"^(?:cp|central_product(?:_filiform)?)\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)$")


def names() -> list[str]:
    """Canonical entry names plus the parametric family patterns."""
    return [e.name for e in _STATIC] + ["abelian(n)", "filiform(n)", "central_product(i,j)"]


def get(name: str) -> CatalogEntry:
    """Entry by canonical name or alias; parametric names are generated."""
    key = name.strip().lower()
    if key in _BY_NAME:
        return _BY_NAME[key]
    m = _PARAM_RE.match(key)
    if m:
        kind, n = m.group(1), int(m.group(3))
        if kind == "abelian":
            algebra, expected = abelian(n), Expected(1, (n,), e_value=Fraction(0))
        else:
            algebra = filiform(n)
            expected = Expected(n - 1, (2,) + (1,) * (n - 2), e_value=Fraction(0))
        return CatalogEntry(f"{kind}({n})", (), serialize_algebra(algebra), expected)
    m = _CP_RE.match(key)
    if m:
        i, j = int(m.group(1)), int(m.group(2))
        algebra = central_product_filiform(i, j)
        return CatalogEntry(
            f"central_product({i},{j})",
            (),
            serialize_algebra(algebra),
            Expected(j, _cp_tau(i, j), e_value=Fraction(i, j)),
        )
    raise UnknownEntryError(f"unknown catalog entry: {name!r}")


def _cp_tau(i: int, j: int) -> tuple[int, ...]:
    tau = []
    for level in range(1, j + 1):
        count = 0
        if level == 1:
            count = 2  # X and U
        count += 1 if 1 <= level <= i - 1 else 0  # Y_level
        count += 1 if 1 <= level <= j else 0  # V_level
        tau.append(count)
    return tuple(tau)


def entries() -> list[CatalogEntry]:
    return list(_STATIC)
