"""Differential tests of the exact elimination layer against sympy over QQ.

SpanBuilder's one-pass reduction is also checked against the per-pivot
loop it replaced, which made the row primitive after every pivot hit.
"""

from math import gcd

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


def cross_reduce(row, c, piv):
    """Primitive multiple of a*row - b*piv, zero at column c (a/b = piv[c]/row[c])."""
    p, f = piv[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    row = {j: a * x for j, x in row.items()}
    for j, x in piv.items():
        v = row.get(j, 0) - b * x
        if v:
            row[j] = v
        else:
            del row[j]
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()}


class PerPivotSpan:
    """Reference: the SpanBuilder loop that clears one pivot hit per call and
    makes the row primitive after every hit."""

    def __init__(self):
        self.pivot_rows = {}

    def reduce(self, row):
        held = self.pivot_rows
        for c in [c for c in row if c in held]:
            row = cross_reduce(row, c, held[c])
        return row

    def add_row(self, row):
        row = self.reduce(row)
        if not row:
            return False
        c = min(row)
        g = gcd(*row.values())
        if row[c] < 0:
            g = -g
        row = {j: x // g for j, x in row.items()}
        held = self.pivot_rows
        for k, other in held.items():
            if c in other:
                held[k] = cross_reduce(other, c, row)
        held[c] = row
        return True

    def contains(self, row):
        return not self.reduce(dict(row))


INTEGER = st.one_of(st.integers(-9, 9), st.integers(-2**80, 2**80)).filter(bool)


@st.composite
def row_sequences(draw):
    """(dim, ops): sparse integer rows to add or test, with repeats and dependent rows."""
    dim = draw(st.integers(1, 10))
    rows, ops = [], []
    for _ in range(draw(st.integers(1, 14))):
        how = draw(st.integers(0, 3)) if rows else 0
        if how == 0:
            row = {j: draw(INTEGER) for j in draw(st.sets(st.integers(0, dim - 1), max_size=4))}
        elif how == 1:  # a repeat, negated or scaled
            row = {j: draw(st.sampled_from([1, -1, 2, -3, 2**70])) * x
                   for j, x in draw(st.sampled_from(rows)).items()}
        else:  # an integer combination of two earlier rows
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(INTEGER), draw(INTEGER)
            row = {j: s * a.get(j, 0) + t * b.get(j, 0) for j in set(a) | set(b)}
            row = {j: x for j, x in row.items() if x}
        rows.append(row)
        ops.append((draw(st.sampled_from(["add", "add", "contains"])), row))
    return dim, ops


@settings(max_examples=200, deadline=None)
@given(row_sequences())
def test_one_pass_reduction_matches_the_per_pivot_loop(case):
    dim, ops = case
    span, ref = SpanBuilder(dim), PerPivotSpan()
    for kind, row in ops:
        if kind == "add":
            assert span.add_row(dict(row)) == ref.add_row(dict(row))
        else:
            assert span.contains([row.get(j, 0) for j in range(dim)]) == ref.contains(row)
        assert span.pivot_rows == ref.pivot_rows


class ScanSpan(SpanBuilder):
    """Reference: SpanBuilder with the back-substitution it had before the
    column index, which scans every held row for the new pivot column."""

    def add_row(self, row):
        held = self.pivot_rows
        row = self._reduce(row, [c for c in row if c in held])
        if not row:
            return False
        c = min(row)
        g = gcd(*row.values())
        if row[c] < 0:
            g = -g
        if g != 1:
            row = {j: x // g for j, x in row.items()}
        held[c] = row
        for k, other in held.items():
            if c in other and k != c:
                other = self._reduce(other, (c,))
                g = gcd(*other.values())
                held[k] = other if g == 1 else {j: x // g for j, x in other.items()}
        return True


def assert_index_covers_held_rows(span):
    """Each held row k is listed at every column of it but its pivot."""
    for k, row in span.pivot_rows.items():
        for j in row:
            assert j == k or k in span._at.get(j, ()), (k, j)


SMALL = st.integers(-3, 3).filter(bool)


@st.composite
def sparse_row_sequences(draw):
    """(dim, rows): sparse rows of small integers, with repeats and dependent rows,
    so that held rows lose columns by cancellation and fill them in again."""
    dim = draw(st.integers(2, 12))
    rows = []
    for _ in range(draw(st.integers(1, 24))):
        how = draw(st.integers(0, 4)) if rows else 0
        if how <= 1:
            row = {j: draw(SMALL) for j in draw(st.sets(st.integers(0, dim - 1),
                                                        min_size=1, max_size=5))}
        elif how == 2:  # a repeat, negated or scaled
            row = {j: draw(st.sampled_from([1, -1, 2, -3])) * x
                   for j, x in draw(st.sampled_from(rows)).items()}
        else:  # a small combination of two earlier rows, often cancelling
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(SMALL), draw(SMALL)
            row = {j: s * a.get(j, 0) + t * b.get(j, 0) for j in set(a) | set(b)}
            row = {j: x for j, x in row.items() if x}
        rows.append(row)
    return dim, rows


@settings(max_examples=300, deadline=None)
@given(sparse_row_sequences())
def test_indexed_back_substitution_matches_the_scan(case):
    dim, rows = case
    span, ref = SpanBuilder(dim), ScanSpan(dim)
    for row in rows:
        assert span.add_row(dict(row)) == ref.add_row(dict(row))
        assert span.pivot_rows == ref.pivot_rows
        assert_index_covers_held_rows(span)


def test_index_keeps_stale_and_repeated_entries():
    # row 0 loses column 3 to pivot 1's row, then fills it in again from
    # pivot 2's row: column 3 lists 0 twice, once while 0 does not meet it
    span, ref = SpanBuilder(4), ScanSpan(4)
    for row in ({0: 1, 1: 1, 2: 1, 3: 1}, {1: 1, 3: 1}, {2: 1, 3: -1}):
        assert span.add_row(dict(row)) and ref.add_row(dict(row))
    assert span.pivot_rows == ref.pivot_rows == {0: {0: 1, 3: 1}, 1: {1: 1, 3: 1},
                                                 2: {2: 1, 3: -1}}
    assert span._at[3] == [0, 1, 2, 0]
    assert span.add_row({3: 2}) and ref.add_row({3: 2})
    assert span.pivot_rows == ref.pivot_rows == {c: {c: 1} for c in range(4)}
    assert 3 not in span._at
