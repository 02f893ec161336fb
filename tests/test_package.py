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
