"""Exact rational arithmetic: matrices, sparse elimination, Laurent polynomials, series.

Everything here is over the rationals in characteristic zero.  All values
are immutable after construction and safe to share between threads.
Linear maps are lists of canonical integer sparse columns, applied by one
helper, combine; a Matrix is the dense form.  Row reduction has one
kernel, SpanBuilder, which reduces sparse integer rows fraction-free in
one pass per row and keeps them primitive, removing each row's content
once; rref feeds a matrix through it and returns the
unique reduced row echelon form over QQ, so every basis chosen
downstream is reproducible whatever order the rows arrive in.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm, prod
from operator import index

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    _mpq = Fraction

QQ = _mpq


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")


def qq(value, den=None):
    """Coerce ints, 'p/q' strings, or rationals to an exact rational.

    A string is ASCII digits with an optional sign, 'p' or 'p/q', between
    optional whitespace.  A value that is already a QQ is returned
    unchanged, as the same object.  Anything else, floats and bools
    included, raises ValueError.
    """
    if den is not None:
        return _mpq(value, den)
    if isinstance(value, QQ):
        return value
    if isinstance(value, str):
        value = value.strip()
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise ValueError("%r is not an exact rational 'p' or 'p/q'" % value)
        p, q = match.groups()
        if q is None:
            return _mpq(int(p))
        if not int(q):
            raise ValueError("zero denominator in %r" % value)
        return _mpq(int(p), int(q))
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError("%r is not an exact rational" % (value,))
    return _mpq(value)


def qq_str(value) -> str:
    """Canonical decimal-rational string, 'p' or 'p/q' with q > 0."""
    v = qq(value)
    if v.denominator == 1:
        return str(v.numerator)
    return "%d/%d" % (v.numerator, v.denominator)


ZERO = _mpq(0)
ONE = _mpq(1)


class Matrix:
    """Dense rational matrix; entries stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        # entries are coerced exactly; plain ints would hit float division
        entries = [[qq(x) for x in row] for row in entries]
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match %dx%d" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def _of(cls, rows: int, cols: int, entries) -> "Matrix":
        """Wrap an entry grid this module built from exact rationals, uncoerced."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def of_integers(cls, rows: list, cols: int) -> "Matrix":
        """Wrap rows of Python ints uncoerced, for elimination (rref, kernel_basis,
        det), which reads each entry's numerator and denominator as they are."""
        return cls._of(len(rows), cols, rows)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._of(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(n, n, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "Matrix":
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0])
        elif cols is None:
            raise ValueError("empty row list needs an explicit column count")
        return cls(len(rows), cols, rows)

    @classmethod
    def from_columns(cls, columns, rows: int | None = None) -> "Matrix":
        return cls.from_rows(columns, cols=rows).transpose()

    def column(self, j: int) -> list:
        return [row[j] for row in self.entries]

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        return Matrix._of(self.cols, self.rows, [self.column(j) for j in range(self.cols)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(a == b for ra, rb in zip(self.entries, other.entries)
                   for a, b in zip(ra, rb))

    def __repr__(self) -> str:
        return "Matrix(%d, %d, %r)" % (self.rows, self.cols,
                                       [[qq_str(x) for x in row] for row in self.entries])


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns.

    The rows are fed into one SpanBuilder, whose integer kernel is
    described there; the reduced row echelon form of a row space is
    unique, so the result does not depend on the order rows are reduced
    in.  Idempotent on its own output.
    """
    span = SpanBuilder(m.cols)
    for row in m.entries:
        span.add(row)
    entries = span.basis
    entries.extend([ZERO] * m.cols for _ in range(m.rows - len(entries)))
    return Matrix._of(m.rows, m.cols, entries), sorted(span.pivot_rows)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> Matrix:
    """Columns spanning the null space of m; column count = cols - rank."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    entries = [[ZERO] * len(free) for _ in range(m.cols)]
    for k, f in enumerate(free):
        entries[f][k] = ONE
        for r_idx, pc in enumerate(pivots):
            entries[pc][k] = -red.entries[r_idx][f]
    return Matrix._of(m.cols, len(free), entries)


def det(m: Matrix):
    """Exact determinant: fraction-free (Bareiss) elimination with row swaps
    on the rows scaled to integers, divided by the row scales at the end."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    scaled = [to_column(row) for row in m.entries]
    a = [[nums.get(j, 0) for j in range(n)] for _, nums in scaled]
    sign, prev = 1, 1
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c]), None)
        if pr is None:
            return ZERO
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return _mpq(sign * prev, prod(d for d, _ in scaled))


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises ValueError on a singular matrix."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    return column_matrix(inverse_columns([to_column(c) for c in m.columns()], m.rows), m.rows)


def inverse_columns(cols: list, n: int) -> list:
    """Integer columns of the inverse of the n x n map with the given columns.

    Row j of [M^T | I] is column j of M beside e_j, scaled to integers by
    the column's denominator.  Reduced to [I | (M^-1)^T], held row c is
    a primitive integer multiple p of row c, with pivot p > 0 at column
    c: (p, its entries past n) is column c of M^-1, canonical as built.
    Raises ValueError when M is singular (a pivot lands past column n).
    """
    span = SpanBuilder(2 * n)
    for j, (den, nums) in enumerate(cols):
        span.add_row({**nums, n + j: den})
    held = span.pivot_rows
    if any(c >= n for c in held):
        raise ValueError("matrix is singular")
    return [(held[c][c], {k - n: x for k, x in held[c].items() if k >= n}) for c in range(n)]


class SpanBuilder:
    """Incremental row-space container for rank and membership queries.

    Rows are kept as {column: int} dicts and reduced by fraction-free
    incremental Gauss-Jordan through one elimination step, ``_reduce``,
    which clears a row at the pivot columns it is given by
    cross-multiplication with the held pivot rows, in one pass.  An
    incoming row is cleared at every pivot column it hits.  A row that
    reduces to zero lies in the span; otherwise its leftmost entry
    becomes a new pivot, and each held row that meets it is cleared at
    that column alone.  Those rows are found through a column index,
    ``_at``, which lists for each non-pivot column the pivots of held
    rows that may meet it: a superset, so no row that meets the column
    is missed, while rows that no longer meet it (after a cancellation)
    or appear twice are skipped when the list is read.  A row is indexed
    at its columns when it is stored, and at each column it fills in
    while it is reduced.  Each reduced row's content is removed once.
    Every held row (``pivot_rows``, by pivot) is kept primitive
    with a positive pivot entry, a multiple of a row of a partial RREF,
    so entry sizes stay bounded.  A rational vector enters through
    ``add``, scaled once by the lcm of its denominators.  Only ``basis``
    divides the rows by their pivot entries, so every nonzero entry it
    returns is a QQ on either backend.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.pivot_rows: dict[int, dict] = {}  # read only outside this class
        # non-pivot column -> pivots of held rows that may meet it
        self._at: dict[int, list] = defaultdict(list)

    def _reduce(self, row: dict, cols: list, k: int | None = None) -> dict:
        """A positive multiple of row minus multiples of the pivot rows at
        cols, zero at every column in cols; its content is left for the caller.

        Pivot rows are zero at every other pivot column, so clearing one
        column of cols changes row at no other pivot column.  When row is
        the held row of pivot k, each column it fills in is indexed to k.
        """
        held, at = self.pivot_rows, self._at
        for c in cols:
            piv = held[c]
            p, f = piv[c], row[c]
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                row = {j: a * x for j, x in row.items()}
            for j, x in piv.items():
                v = row.get(j)
                if v is None:
                    row[j] = -b * x
                    if k is not None:
                        at[j].append(k)
                elif v := v - b * x:
                    row[j] = v
                else:
                    del row[j]
        return row

    def add_row(self, row: dict) -> bool:
        """Add (and consume) an integer row {column: nonzero int}; True if the span grew."""
        held = self.pivot_rows
        row = self._reduce(row, [c for c in row if c in held])
        if not row:
            return False
        c = min(row)
        g = gcd(*row.values())  # the content, removed once
        if row[c] < 0:
            g = -g
        if g != 1:
            row = {j: x // g for j, x in row.items()}
        held[c] = row
        at = self._at
        for j in row:
            if j != c:
                at[j].append(c)
        # back-substitution over the indexed rows, skipping those that no
        # longer meet c; row's pivot entry is positive, so each held row
        # keeps the sign of its own
        for k in at.pop(c, ()):
            other = held[k]
            if c in other:
                other = self._reduce(other, (c,), k)
                g = gcd(*other.values())
                held[k] = other if g == 1 else {j: x // g for j, x in other.items()}
        return True

    def add(self, vec: list) -> bool:
        """Add a rational vector; returns True if it enlarged the span."""
        return self.add_row(to_column(vec)[1])

    def contains(self, vec: list) -> bool:
        row = to_column(vec)[1]
        return not self._reduce(row, [c for c in row if c in self.pivot_rows])

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    @property
    def basis(self) -> list:
        """The reduced row echelon rows of the span, in pivot order."""
        return [to_dense((row[c], row), self.dim) for c, row in sorted(self.pivot_rows.items())]


# -- integer sparse columns --
#
# A rational vector is held as a column (den, {row: num}): the entry at
# row is num/den, zero entries are absent, den > 0 and gcd(den, nums) = 1,
# so equal vectors are equal columns.  A linear map is the list of its
# columns, the images of the basis vectors of its source.

def to_column(vec) -> tuple[int, dict]:
    """Column of a dense rational vector (ints allowed)."""
    # most zeros here are the shared ZERO; the identity test skips Fraction.__bool__
    nz = [(j, x) for j, x in enumerate(vec) if x is not ZERO and x]
    # canonical as built: no prime of the lcm divides every numerator
    d = lcm(*[x.denominator for _, x in nz])
    return d, {j: x.numerator * (d // x.denominator) for j, x in nz}


def to_dense(col: tuple, dim: int) -> list:
    """Dense rational vector of length dim of a column."""
    out = [ZERO] * dim
    for t, x in col[1].items():
        out[t] = _mpq(x, col[0])
    return out


def column_matrix(cols: list, rows: int) -> Matrix:
    """Dense Matrix with the given columns and row count."""
    dense = [to_dense(c, rows) for c in cols]
    return Matrix._of(rows, len(cols), [[c[i] for c in dense] for i in range(rows)])


def combine(cols, vec: tuple) -> tuple[int, dict]:
    """Column of sum(vec[r] * cols[r]), the map with columns cols applied to vec.

    The sum runs in integers over the lcm of the denominators and is reduced once.
    """
    den, nums = vec
    terms = [(c, cols[r]) for r, c in nums.items()]
    d = lcm(*[col[0] for _, col in terms])
    acc: dict = {}
    get = acc.get
    for c, (e, col) in terms:
        if e != d:
            c *= d // e
        for t, x in col.items():
            acc[t] = get(t, 0) + c * x
    if 0 in acc.values():
        acc = {t: x for t, x in acc.items() if x}
    d *= den
    g = gcd(d, *acc.values())
    return (d, acc) if g == 1 else (d // g, {t: x // g for t, x in acc.items()})


def _laurent_operand(op):
    """op with an int operand taken as a constant and any other non-LaurentPoly refused."""
    def checked(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return op(self, other)
    return checked


class LaurentPoly:
    """Laurent polynomial with integer coefficients, sparse on exponents."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        clean = {}
        for e, c in dict(coeffs).items():
            c = index(c)
            if c:
                clean[index(e)] = c
        self.coeffs = clean

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __getitem__(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    @_laurent_operand
    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    @_laurent_operand
    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    @_laurent_operand
    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    @property
    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no lowest term")
        return min(self.coeffs)

    @property
    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no highest term")
        return max(self.coeffs)

    def value_at_one(self) -> int:
        return sum(self.coeffs.values())

    def div_one_minus_t(self) -> "LaurentPoly | None":
        """Exact quotient by (1 - t), or None if (1 - t) does not divide."""
        if not self.coeffs:
            return LaurentPoly({})
        if self.value_at_one() != 0:
            return None
        lo, hi = self.min_exp, self.max_exp
        out = {}
        acc = 0
        for e in range(lo, hi):
            acc += self.coeffs.get(e, 0)
            if acc:
                out[e] = acc
        return LaurentPoly(out)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                terms.append("%d" % c)
            elif e == 1:
                terms.append("%d*t" % c)
            else:
                terms.append("%d*t^%d" % (c, e))
        return " + ".join(terms).replace("+ -", "- ")


ONE_MINUS_T = LaurentPoly({0: 1, 1: -1})


class RationalSeries:
    """Ratio of Laurent polynomials, viewed as a formal Laurent series."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: LaurentPoly, denominator: LaurentPoly):
        if not denominator:
            raise ValueError("zero denominator")
        self.numerator = numerator
        self.denominator = denominator

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __hash__(self):
        raise TypeError("unhashable (non-canonical representation)")

    def __repr__(self) -> str:
        return "(%r) / (%r)" % (self.numerator, self.denominator)


def expand(series: RationalSeries, n: int) -> list:
    """Coefficients c_0..c_n of the formal expansion, as exact rationals."""
    f, h = series.numerator, series.denominator
    v = h.min_exp
    h0 = qq(h[v])
    coeffs: dict[int, QQ] = {}
    if not f:
        return [qq(0)] * (n + 1)
    lo = f.min_exp - v
    hspan = h.max_exp - v
    for k in range(lo, n + 1):
        s = qq(f[k + v])
        for j in range(1, hspan + 1):
            cj = h[v + j]
            if cj and (k - j) in coeffs:
                s -= cj * coeffs[k - j]
        coeffs[k] = s / h0
    return [coeffs.get(k, qq(0)) for k in range(n + 1)]


def _one_minus_t_order(p: LaurentPoly) -> tuple[int, LaurentPoly]:
    """(k, p / (1 - t)^k) for the largest such k; p is nonzero."""
    k = 0
    while (q := p.div_one_minus_t()) is not None:
        p, k = q, k + 1
    return k, p


def pole_data(series: RationalSeries) -> tuple[int, QQ]:
    """Order of the pole at t = 1 and the leading value there.

    The order is max(0, ...): a series regular at t = 1 reports order 0.
    For order 1 the leading value is the eventual constant coefficient of
    the expansion.
    """
    f, h = series.numerator, series.denominator
    if not f:
        return 0, qq(0)
    a, f = _one_minus_t_order(f)
    b, h = _one_minus_t_order(h)
    order = max(b - a, 0)
    leading = qq(f.value_at_one()) / qq(h.value_at_one())
    return order, leading


# -- dense univariate polynomials over the rationals (index = degree) --

def poly_trim(p: list) -> list:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def poly_degree(p: list) -> int:
    p = poly_trim(p)
    return len(p) - 1 if p else -1


def poly_eval(p: list, x):
    acc = qq(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [qq(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return out


def poly_sub(p: list, q: list) -> list:
    n = max(len(p), len(q))
    return poly_trim([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0)
                      for i in range(n)])


def poly_deriv(p: list) -> list:
    return poly_trim([i * c for i, c in enumerate(p)][1:])


def poly_monic(p: list) -> list:
    p = poly_trim(p)
    if not p:
        return p
    lead = p[-1]
    return [qq(c) / lead for c in p]


def poly_gcd(p: list, q: list) -> list:
    """Monic greatest common divisor over the rationals."""
    a, b = poly_trim(p), poly_trim(q)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


def poly_divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by a nonzero b over the rationals."""
    a = [qq(c) for c in poly_trim(a)]
    b = poly_trim(b)
    db = len(b) - 1
    lead = b[-1]
    quo = [qq(0)] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        f = a[-1] / lead
        shift = len(a) - 1 - db
        quo[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = poly_trim(a)
    return poly_trim(quo), a


def poly_squarefree_degree(p: list) -> int:
    """Number of distinct roots over the algebraic closure."""
    p = poly_trim(p)
    if len(p) <= 1:
        return 0
    g = poly_gcd(p, poly_deriv(p))
    return poly_degree(p) - poly_degree(g)


def poly_interpolate(xs: list, ys: list) -> list:
    """Unique polynomial of degree < len(xs) through the given points.

    Newton's divided differences, exact; the xs must be distinct.
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError("mismatched point lists")
    xs = [qq(x) for x in xs]
    dd = [qq(y) for y in ys]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    out: list = []
    basis = [qq(1)]
    for k in range(n):
        if dd[k]:
            if len(basis) > len(out):
                out.extend([qq(0)] * (len(basis) - len(out)))
            for i, b in enumerate(basis):
                out[i] += dd[k] * b
        basis = poly_mul(basis, [-xs[k], qq(1)])
    return poly_trim(out)
