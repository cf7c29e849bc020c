"""The package computes no result in floating point and needs no third-party library.

Every source file of src/ncquad is parsed and checked for float
literals, calls to float() or round(), and math imports other than the
exact integer functions; and for imports of anything but the standard
library, the package's own modules and gmpy2 (numpy, sympy and
hypothesis serve tests and benches only).
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ncquad").glob("*.py"))
EXACT_MATH = {"gcd", "lcm", "prod", "comb", "isqrt"}
ALLOWED_PACKAGES = {"ncquad", "gmpy2"}


def float_uses(tree: ast.AST) -> list:
    """(line, what) for each floating-point construct in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, "float literal %r" % node.value))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "round")):
            found.append((node.lineno, "call to %s()" % node.func.id))
        elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
            found.append((node.lineno, "import math"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, "math.%s" % a.name) for a in node.names
                         if a.name not in EXACT_MATH)
    return found


def test_the_guard_sees_each_construct():
    src = "import math\nfrom math import gcd, sqrt\nx = 0.5\ny = float(2)\nz = round(x)\n"
    assert sorted(float_uses(ast.parse(src))) == [
        (1, "import math"), (2, "math.sqrt"), (3, "float literal 0.5"),
        (4, "call to float()"), (5, "call to round()")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_floating_point_in_the_package(path):
    assert float_uses(ast.parse(path.read_text(), str(path))) == []


def foreign_imports(tree: ast.AST) -> list:
    """(line, module) for each import outside the standard library, ncquad and gmpy2."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue  # relative imports are the package's own modules
        found.extend((node.lineno, name) for name in names
                     if name.partition(".")[0] not in sys.stdlib_module_names | ALLOWED_PACKAGES)
    return found


def test_the_dependency_guard_sees_each_import():
    src = ("import json, numpy as np\nfrom sympy.polys import QQ\nfrom . import qalg\n"
           "from .exactlin import qq\nimport ncquad.cli\ntry:\n    from gmpy2 import mpq\n"
           "except ImportError:\n    import hypothesis\n")
    assert foreign_imports(ast.parse(src)) == [(1, "numpy"), (2, "sympy.polys"),
                                               (9, "hypothesis")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_stdlib_and_gmpy2_imports_in_the_package(path):
    assert foreign_imports(ast.parse(path.read_text(), str(path))) == []
