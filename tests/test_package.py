"""Package-wide guards."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nilgrade"


def test_package_imports_only_itself_and_the_standard_library():
    # nilgrade is dependency-free: every module it imports is its own or
    # part of the standard library
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "nilgrade" or top in sys.stdlib_module_names, (path.name, name)


def test_only_the_tests_use_the_dense_rref():
    # every solve, inverse and span in the package runs on `linalg.Echelon`;
    # the dense `rref` is the tests' reference (`oracles.rref`), so no module
    # of the package defines or names it
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                assert node.name != "rref", (path.name, node.lineno)
            elif isinstance(node, ast.ImportFrom):
                assert all(a.name != "rref" for a in node.names), (path.name, node.lineno)
            elif isinstance(node, ast.Name):
                assert node.id != "rref", (path.name, node.lineno)
            elif isinstance(node, ast.Attribute):
                assert node.attr != "rref", (path.name, node.lineno)


def test_one_sparse_bracket_kernel_and_one_affine_system():
    # `lie` owns the structure table: the solver brackets through
    # `LieAlgebra.ad`, and the setup's adapted table comes from
    # `lie.algebra_in_integer_basis`, so no other module reads an algebra's
    # `.table`; every affine system is a `linalg.AffineSystem` and the setup
    # inverts its change of basis through `linalg.integer_inverse`, so neither
    # the solver nor the BCH coefficient solve builds an `Echelon` for a
    # system or inverts through the Fraction `mat_inv`.  The one `Echelon` in
    # `derivability` is the span builder's (`_Setup.grow`), a rank test over
    # path states that holds no right-hand side, and the solver's systems are
    # the `AffineSystem`s of `_feasibility` and `e_invariant`
    systems: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        builder: set[int] = set()
        if path.name == "derivability.py":
            setup = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Setup")
            grow = next(n for n in setup.body if isinstance(n, ast.FunctionDef) and n.name == "grow")
            builder = {id(node) for node in ast.walk(grow)}
            assert not any(isinstance(node, ast.Attribute) and node.attr in ("infeasible", "particular") for node in ast.walk(grow))
        echelons = []
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "table":
                    assert path.name == "lie.py", (path.name, node.lineno)
                if path.name not in ("derivability.py", "bch.py"):
                    continue
                if isinstance(node, ast.ImportFrom):
                    names = {a.name for a in node.names}
                    assert "mat_inv" not in names and ("Echelon" not in names or path.name == "derivability.py"), (path.name, node.lineno)
                elif isinstance(node, ast.Name):
                    assert node.id != "mat_inv", (path.name, node.lineno)
                    if node.id == "Echelon":
                        assert id(node) in builder, (path.name, node.lineno)
                        echelons.append(node.lineno)
                    if node.id == "AffineSystem" and isinstance(top, ast.FunctionDef):
                        systems.setdefault(path.name, set()).add(top.name)
                elif isinstance(node, ast.Attribute):
                    assert node.attr not in ("Echelon", "mat_inv"), (path.name, node.lineno)
        assert len(echelons) == (path.name == "derivability.py"), (path.name, echelons)
    assert systems == {"derivability.py": {"_feasibility", "e_invariant"}, "bch.py": {"_degree_coeffs"}}, systems


def test_one_bch_word_evaluator():
    # every BCH law runs its words through one integer evaluator, so in
    # `bch` the dense bracket kernel is called from one top-level function
    path = SRC / "bch.py"
    callers = set()
    for top in ast.parse(path.read_text(), str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "scaled_bracket":
                    assert isinstance(top, ast.FunctionDef), node.lineno
                    callers.add(top.name)
    assert len(callers) == 1, sorted(callers)


def test_one_inverse_and_one_fraction_entry_to_the_integer_basis_change():
    # `linalg.integer_inverse` is the one matrix inverse, and the integer
    # basis-change kernel is entered from `lie.change_of_basis`, the one
    # Fraction entry point, from the derivability setup, which passes the
    # P and Q of its own elimination, and from `carnot.carnot_pair`, which
    # passes its integer eigenbasis and that basis's inverse
    inverses, callers = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            if path.name in ("linalg.py", "lie.py") and isinstance(top, ast.FunctionDef) and "inv" in top.name:
                inverses.add(top.name)
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name == "algebra_in_integer_basis":
                        callers.add((path.name, top.name))
    assert inverses == {"integer_inverse"}
    assert callers == {("lie.py", "change_of_basis"), ("derivability.py", "_Setup"), ("carnot.py", "carnot_pair")}


def test_one_way_from_rationals_to_integers():
    # rationals become integers in `linalg` (`clear_denominators` for a
    # vector, `integer_rows` for a matrix); elsewhere a denominator is read
    # only to split one rational under a float root: the dilation ladder
    # and goodman's radius take their integers from `clear_denominators`
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "denominator":
                    readers.add((path.name, getattr(top, "name", None)))
    assert readers == {("goodman.py", "_root_float")}


def test_no_dense_solver_and_one_reader_of_the_dense_operator():
    # `linalg` has no dense Fraction solver: every affine system is an
    # `AffineSystem` and every span an `Echelon`, so `src/` defines none of
    # the dense routes it once had; a grading operator is held as sparse
    # integer rows, and `GradingOperator` itself is the one reader of its
    # dense `.matrix` view: no other module reads it (`cli` renders
    # witnesses from the integer rows)
    removed = {"solve_affine", "AffineSolution", "echelon_of", "subspace_contains", "filtration_depth"}
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            if isinstance(top, ast.ClassDef) and top.name == "GradingOperator" and path.name == "derivability.py":
                continue
            for node in ast.walk(top):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    assert node.name not in removed, (path.name, node.lineno)
                elif isinstance(node, ast.Name):
                    assert node.id not in removed, (path.name, node.lineno)
                elif isinstance(node, ast.alias):
                    assert node.name not in removed and node.asname not in removed, (path.name, node.lineno)
                elif isinstance(node, ast.Attribute) and node.attr == "matrix":
                    readers.add(path.name)
    assert readers == set()


def test_no_module_has_an_unused_import():
    # every name a module imports is read in it, so a deletion leaves no
    # import behind; `__init__` is exempt, since its imports are the
    # package's public names
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported: dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted((imported[name], name) for name in imported.keys() - read)
        assert not unused, (path.name, unused)


def test_echelon_makes_no_fraction_and_takes_no_argument():
    # `Echelon` answers `add`, `copy`, `int_rows`, `rank` and `pivots` on
    # sparse integer rows: no method of it names `Fraction` or a helper that
    # makes one, and its constructor takes nothing but self, since no query
    # reads a dimension; a row leaves it as Fractions through `pivot_row`,
    # and `AffineSystem.particular` is the elimination's one Fraction result
    path = SRC / "linalg.py"
    tree = ast.parse(path.read_text(), str(path))
    echelon = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Echelon")
    fraction_makers = {"Fraction", "q", "vec", "zero_vec", "unit_vec", "matrix", "identity", "pivot_row", "ZERO", "ONE"}
    methods = [n for n in echelon.body if isinstance(n, ast.FunctionDef)]
    assert {m.name for m in methods} >= {"__init__", "add", "copy", "int_rows", "rank", "pivots"}
    for method in methods:
        names = {node.id for node in ast.walk(method) if isinstance(node, ast.Name)}
        assert not names & fraction_makers, (method.name, sorted(names & fraction_makers))
    init = next(m for m in methods if m.name == "__init__")
    args = init.args
    assert [a.arg for a in args.posonlyargs + args.args] == ["self"]
    assert not (args.vararg or args.kwonlyargs or args.kwarg)


def test_cli_renders_json_without_the_indenting_encoder():
    # `json.dumps(..., indent=...)` runs the pure-Python encoder; `cli` writes
    # the same text through its own writer on the C string escaper
    path = SRC / "cli.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "dumps":
                assert all(k.arg != "indent" for k in node.keywords), node.lineno
