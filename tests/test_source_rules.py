"""The package computes no result in floating point.

Every source file of src/ncquad is parsed and checked for float
literals, calls to float() or round(), and math imports other than the
exact integer functions.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ncquad").glob("*.py"))
EXACT_MATH = {"gcd", "lcm", "prod", "comb", "isqrt"}


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
