"""Differential tests of the associativity check against a plain Fraction loop."""

import re
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ncquad.cliff import even_clifford_oracle  # noqa: E402
from ncquad.exactlin import Matrix, inverse, qq  # noqa: E402
from ncquad.findim import FinDimAlgebra  # noqa: E402


def first_nonassociative_triple(structure):
    """Reference check: the first (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), in Fractions."""
    n = len(structure)
    c = [[[Fraction(x) for x in vec] for vec in row] for row in structure]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = [Fraction(0)] * n
                right = [Fraction(0)] * n
                for v in range(n):
                    for t in range(n):
                        if c[i][j][v] and c[v][k][t]:
                            left[t] += c[i][j][v] * c[v][k][t]
                        if c[j][k][v] and c[i][v][t]:
                            right[t] += c[j][k][v] * c[i][v][t]
                if left != right:
                    return i, j, k
    return None


def matmul(a, b):
    """Dense matrix product, in plain sums."""
    return Matrix(a.rows, b.cols, [[sum(x * y for x, y in zip(row, col) if x and y)
                                    for col in b.columns()] for row in a.entries])


RATIONAL = st.builds(qq, st.integers(-3, 3), st.integers(1, 3))
NONZERO = RATIONAL.filter(bool)


@st.composite
def conjugated_even_cliffords(draw):
    """An even Clifford algebra of a random rational form in a random rational basis.

    The basis change P = U D L (unitriangular U and L, diagonal D) fixes the
    first basis vector, so the unit stays (1, 0, ..., 0) while the other
    structure constants pick up denominators.
    """
    q = [[None] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(a, 4):
            q[a][b] = q[b][a] = draw(RATIONAL)
    alg = even_clifford_oracle(q)
    n = alg.dim
    upper = Matrix(n, n, [[draw(RATIONAL) if a < b else int(a == b) for b in range(n)]
                          for a in range(n)])
    diag = Matrix(n, n, [[(1 if a == 0 else draw(NONZERO)) if a == b else 0
                          for b in range(n)] for a in range(n)])
    lower = Matrix(n, n, [[draw(RATIONAL) if a > b > 0 else int(a == b) for b in range(n)]
                          for a in range(n)])
    p = matmul(matmul(upper, diag), lower)
    p_inv = inverse(p)
    cols = p.columns()
    structure = [[matmul(p_inv, Matrix.from_columns([alg.multiply(cols[a], cols[b])])).column(0)
                  for b in range(n)] for a in range(n)]
    return alg.labels, structure


@settings(max_examples=30, deadline=None)
@given(conjugated_even_cliffords(), st.integers(1, 7), st.integers(1, 7),
       st.integers(0, 7), NONZERO)
def test_associativity_check_matches_fraction_reference(case, i, j, t, r):
    labels, structure = case
    unit = [1] + [0] * 7
    FinDimAlgebra(labels, structure, unit)
    # perturbing a product of two non-unit basis vectors keeps the unit axioms
    bad = [[list(vec) for vec in row] for row in structure]
    bad[i][j][t] += r
    want = first_nonassociative_triple(bad)
    assert want is not None
    with pytest.raises(ValueError, match=re.escape("basis triple (%d, %d, %d)" % want)):
        FinDimAlgebra(labels, bad, unit)
