"""Differential tests of the exact elimination layer against sympy over QQ."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy import QQ as SQQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from ncquad.exactlin import (QQ, Matrix, SpanBuilder, det, inverse,  # noqa: E402
                             kernel_basis, qq, rank, rref)

ENTRY = st.builds(qq, st.integers(-6, 6), st.integers(1, 4))
# entries far beyond machine words, to exercise the growth of integer rows
WIDE_ENTRY = st.builds(qq, st.integers(-2**64, 2**64), st.integers(1, 2**32))


@st.composite
def grids(draw, square=False, entry=ENTRY):
    """Entry grids of any shape and density, with zero and duplicate rows mixed in."""
    rows = draw(st.integers(1, 7) if square else st.integers(0, 8))
    cols = rows if square else draw(st.integers(1, 8))
    density = draw(st.integers(0, 4))  # each cell is drawn with odds density/4
    grid = [[draw(entry) if draw(st.integers(0, 3)) < density else qq(0)
             for _ in range(cols)] for _ in range(rows)]
    if rows:
        index = st.integers(0, rows - 1)
        for dst, src in draw(st.lists(st.tuples(index, index), max_size=3)):
            grid[dst] = list(grid[src])
        for dst in draw(st.lists(index, max_size=2)):
            grid[dst] = [qq(0)] * cols
    return rows, cols, grid


@st.composite
def wide_grids(draw, square=False):
    """Wide-entry grids with negative leading entries and integer multiples of other rows."""
    rows, cols, grid = draw(grids(square, WIDE_ENTRY))
    if rows:
        index = st.integers(0, rows - 1)
        for dst, src, k in draw(st.lists(st.tuples(index, index, st.integers(-9, 9)),
                                         max_size=3)):
            grid[dst] = [k * x for x in grid[src]]
        for dst in draw(st.lists(index, max_size=3)):
            lead = next((x for x in grid[dst] if x), 0)
            if lead > 0:
                grid[dst] = [-x for x in grid[dst]]
    return rows, cols, grid


def to_sympy(rows, cols, grid):
    return DomainMatrix([[SQQ(x.numerator, x.denominator) for x in row] for row in grid],
                        (rows, cols), SQQ)


def from_sympy(dm):
    return [[qq(int(x.numerator), int(x.denominator)) for x in row] for row in dm.to_list()]


def all_qq(m):
    return all(isinstance(x, QQ) for row in m.entries for x in row if x)


def check_rref_and_kernel(case):
    rows, cols, grid = case
    m = Matrix(rows, cols, grid)
    red, pivots = rref(m)
    want, want_pivots = to_sympy(*case).rref()
    assert pivots == list(want_pivots)
    assert red.entries == from_sympy(want)
    assert all_qq(red)
    assert all(red.entries[i][c] == 1 for i, c in enumerate(pivots))
    ker = kernel_basis(m)
    assert ker.rows == cols
    assert ker.cols == cols - len(want_pivots) == to_sympy(*case).nullspace().shape[0]
    assert all_qq(ker)
    assert not any(sum(a * b for a, b in zip(row, c)) for row in m.entries for c in ker.columns())
    assert rank(ker) == ker.cols


def check_inverse(case):
    n, _, grid = case
    dm = to_sympy(*case)
    if dm.rank() < n:
        with pytest.raises(ValueError):
            inverse(Matrix(n, n, grid))
    else:
        inv = inverse(Matrix(n, n, grid))
        assert inv.entries == from_sympy(dm.inv())
        assert all_qq(inv)


@settings(max_examples=300, deadline=None)
@given(grids())
def test_rref_and_kernel_match_sympy(case):
    check_rref_and_kernel(case)


@settings(max_examples=150, deadline=None)
@given(grids(entry=st.builds(qq, st.integers(-2**40, 2**40))))
def test_integer_rows_give_the_same_elimination(case):
    # rows of Python ints, handed over uncoerced, reduce to the same QQ entries
    rows, cols, grid = case
    ints = Matrix.of_integers([[int(x) for x in row] for row in grid], cols)
    m = Matrix(rows, cols, grid)
    assert rref(ints) == rref(m)
    ker, want = kernel_basis(ints), kernel_basis(m)
    assert (ker.rows, ker.cols, ker.entries) == (want.rows, want.cols, want.entries)
    assert all(type(x) is QQ for row in ker.entries for x in row)


@settings(max_examples=150, deadline=None)
@given(wide_grids())
def test_rref_and_kernel_match_sympy_on_wide_entries(case):
    check_rref_and_kernel(case)


@settings(max_examples=200, deadline=None)
@given(grids(square=True))
def test_inverse_matches_sympy(case):
    check_inverse(case)


@settings(max_examples=100, deadline=None)
@given(wide_grids(square=True))
def test_inverse_matches_sympy_on_wide_entries(case):
    check_inverse(case)


@settings(max_examples=200, deadline=None)
@given(grids(square=True))
def test_det_matches_sympy(case):
    n, _, grid = case
    want = to_sympy(*case).det()
    assert det(Matrix(n, n, grid)) == qq(int(want.numerator), int(want.denominator))


def check_span_builder(case, outside):
    rows, cols, grid = case
    span = SpanBuilder(cols)
    grew = [span.add(row) for row in grid]
    assert sum(grew) == span.rank == to_sympy(*case).rank()
    assert all(span.contains(row) for row in grid)
    # outside the span exactly when stacking it raises the rank
    stacked = (rows + 1, cols, grid + [outside])
    assert span.contains(outside) == (to_sympy(*stacked).rank() == span.rank)
    basis = span.basis
    red_basis, pivots_basis = rref(Matrix(len(basis), cols, basis))
    red, pivots = rref(Matrix(rows, cols, grid))
    assert pivots_basis == pivots
    assert red_basis.entries == red.entries[:len(pivots)]


@settings(max_examples=200, deadline=None)
@given(grids(), st.data())
def test_span_builder_matches_sympy(case, data):
    outside = data.draw(st.lists(ENTRY, min_size=case[1], max_size=case[1]))
    check_span_builder(case, outside)


@settings(max_examples=100, deadline=None)
@given(wide_grids(), st.data())
def test_span_builder_matches_sympy_on_wide_entries(case, data):
    outside = data.draw(st.lists(WIDE_ENTRY, min_size=case[1], max_size=case[1]))
    check_span_builder(case, outside)
