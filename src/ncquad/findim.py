"""Finite-dimensional associative algebras and their structure analysis.

Every step runs on the integer table the constructor validates; spans
and kernels ignore scaling, so integer rows go straight to SpanBuilder.
The constructor checks associativity on the triples whose first factor
lies in a generating set, which is exact (see FinDimAlgebra._validate).

Radical computation uses the trace-form criterion, valid over fields of
characteristic zero: x lies in the radical exactly when trace(L_{x y})
vanishes for every y.  Every radical returned here is cross-verified to
be a nilpotent two-sided ideal with semisimple quotient, so a failure
of that suite indicates an arithmetic bug rather than a mathematical
edge case.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import gcd, lcm

from .exactlin import (Matrix, SpanBuilder, combine, det, inverse_columns, kernel_basis,
                       qq, to_column, to_dense)

_INTEGERS = {int, type(qq(1).numerator)}  # with gmpy2, its mpz too; never bool


class FinDimAlgebra:
    """Structure constants of a finite-dimensional unital algebra.

    ``columns[i][j]`` is the integer column (den, {k: num}) of basis_i *
    basis_j and ``unit`` that of the identity; ``ints[i][j]`` is the
    {k: num} of the product over ``den``, the lcm of their denominators.
    The constructor checks on ``ints`` that the identity is a two-sided
    unit and that associativity holds (on the basis triples whose first
    factor lies in a generating set, enough for all); every later
    step reads only ``ints``.  ``structure`` and ``unit`` are dense views.
    """

    __slots__ = ("labels", "den", "ints", "unit_col", "_structure")

    def __init__(self, labels, columns, unit):
        self.labels = tuple(str(x) for x in labels)
        n = len(self.labels)
        cols = [unit] + [c for row in columns for c in row]
        rows = set(range(n))
        if len(columns) != n or any(len(row) != n for row in columns) or not all(
                type(c) is tuple and len(c) == 2 and type(c[1]) is dict and c[1].keys() <= rows
                for c in cols):
            raise ValueError("structure constant shape mismatch")
        if not {type(x) for e, nums in cols for x in (e, *nums, *nums.values())} <= _INTEGERS \
                or min(e for e, _ in cols) <= 0:
            raise ValueError("structure constants must be integer columns with den > 0")
        d = self.den = lcm(*{e for e, _ in cols[1:]})
        self.ints = [[{k: x * (d // e) for k, x in nums.items() if x} for e, nums in row]
                     for row in columns]
        self.unit_col, self._structure = unit, None
        self._validate()

    @property
    def structure(self) -> list:
        """Dense coordinates of basis_i * basis_j, built on first read."""
        if self._structure is None:
            n, d = self.dim, self.den
            self._structure = [[to_dense((d, vec), n) for vec in row] for row in self.ints]
        return self._structure

    @property
    def unit(self) -> list:
        return to_dense(self.unit_col, self.dim)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def basis_vector(self, i: int) -> list:
        return [qq(1) if k == i else qq(0) for k in range(self.dim)]

    def product(self, x: dict, y: dict) -> dict:
        """Integer row of den * x * y, for integer rows x and y ({index: nonzero int})."""
        ints = self.ints
        out: dict = {}
        get = out.get
        for i, a in x.items():
            row = ints[i]
            for j, b in y.items():
                c = a * b
                for k, s in row[j].items():
                    out[k] = get(k, 0) + c * s
        return {k: v for k, v in out.items() if v}

    def multiply(self, x: list, y: list) -> list:
        (dx, nx), (dy, ny) = to_column(x), to_column(y)
        return to_dense((dx * dy * self.den, self.product(nx, ny)), self.dim)

    def _validate(self):
        """Check the unit, then associativity on a generating set G.

        G is built greedily: a basis element joins G when it is not yet in
        the span, which is then closed under left multiplication by G
        (from span{1}), until the span is everything.  Checking (g x) y =
        g (x y) for g in G and all basis x, y is exact: the set B of a with
        (a x) y = a (x y) for all x, y is a subspace containing 1, and for
        a in B, g in G, ((g a) x) y = (g (a x)) y = g ((a x) y) =
        g (a (x y)) = (g a)(x y), so B contains the closure, the algebra.
        A failure names the first failing basis triple (g, x, y).
        """
        n = self.dim
        du, u = self.unit_col
        for i in range(n):
            e, want = {i: 1}, {i: du * self.den}
            if self.product(u, e) != want or self.product(e, u) != want:
                raise ValueError("identity vector is not a two-sided unit")
        # the span is that of 1 and the rows in found; g 1 = e_g is in found for g in G
        span, gens, found, todo = SpanBuilder(n), [], [], []
        span.add_row(dict(u))
        for i in range(n):
            if not span.add_row({i: 1}):  # e_i is in the span already
                continue
            gens.append(i)  # e_i = e_i 1 has joined the span
            found.append({i: 1})
            todo += [(i, v) for v in found] + [(h, {i: 1}) for h in gens[:-1]]
            while todo and span.rank < n:
                h, v = todo.pop()
                w = self.product({h: 1}, v)
                if span.add_row(dict(w)):
                    found.append(w)
                    todo += [(k, w) for k in gens]
        # Associativity is homogeneous of degree 2 in the constants, so
        # scaling every constant by a common denominator d scales both sides
        # of each triple by d^2: the integer identity is the rational one.
        st = [[list(vec.items()) for vec in row] for row in self.ints]
        for i in gens:
            sti = st[i]
            for j in range(n):
                cij, stj = sti[j], st[j]
                for k in range(n):
                    left = [0] * n
                    for v, c in cij:
                        for t, s in st[v][k]:
                            left[t] += c * s
                    right = [0] * n
                    for v, c in stj[k]:
                        for t, s in sti[v]:
                            right[t] += c * s
                    if left != right:
                        raise ValueError(
                            "associativity fails on basis triple (%d, %d, %d)" % (i, j, k))

    def __repr__(self) -> str:
        return "FinDimAlgebra(dim=%d, labels=%r)" % (self.dim, list(self.labels))


def trace_gram(alg: FinDimAlgebra) -> Matrix:
    """Integer Gram matrix den^2 T, T[i][j] the trace of L_{basis_i basis_j}.

    Its kernel is that of T, and det(T) is its determinant over den^(2 dim).
    """
    n, ints = alg.dim, alg.ints
    # den * trace of L_{b_v} for each v; traces extend linearly to products
    tr = [sum(ints[v][j].get(j, 0) for j in range(n)) for v in range(n)]
    return Matrix.of_integers([[sum(c * tr[v] for v, c in ints[i][j].items())
                                for j in range(n)] for i in range(n)], n)


def radical(alg: FinDimAlgebra) -> Matrix:
    """Columns spanning the Jacobson radical (char-0 trace criterion).

    Cross-verified: the subspace is a two-sided ideal, some power of it
    vanishes, and the quotient trace form is nondegenerate.
    """
    return _cross_verify_radical(alg)[0]


def _cross_verify_radical(alg: FinDimAlgebra) -> tuple:
    """(rad, quo): the trace form's kernel, cross-verified, and the quotient.

    The checks: the two-sided ideal the kernel's rows generate has their
    rank, some power of it vanishes, and the quotient's trace form has a
    nonzero determinant.  A zero kernel leaves the algebra as its own
    quotient, whose Gram matrix is the one the kernel was taken of.
    """
    gram = trace_gram(alg)
    rad = kernel_basis(gram)
    rad_rows = [to_column(c)[1] for c in rad.columns()]
    if _ideal_span(alg, rad_rows).rank > len(rad_rows):
        raise RuntimeError("radical cross-check failed: not a two-sided ideal")
    power = rad_rows
    while power:
        nxt = SpanBuilder(alg.dim)
        for u in power:
            for r in rad_rows:
                nxt.add_row(alg.product(u, r))
        if nxt.rank >= len(power):
            raise RuntimeError("radical cross-check failed: ideal is not nilpotent")
        power = list(nxt.pivot_rows.values())
    quo, _ = quotient_by_subspace(alg, rad)
    if quo.dim and det(gram if quo is alg else trace_gram(quo)) == 0:
        raise RuntimeError("radical cross-check failed: quotient trace form degenerate")
    return rad, quo


def quotient_by_subspace(alg: FinDimAlgebra, ideal: Matrix):
    """Quotient algebra by a two-sided ideal given as columns.

    Returns (quotient, project) where project maps coordinate vectors of
    the original algebra onto quotient coordinates.  The complement basis
    is chosen deterministically from the standard basis, so the quotient by
    the zero ideal is the algebra itself.
    """
    if ideal.cols == 0:
        return alg, list
    n = alg.dim
    span = SpanBuilder(n)
    p_cols = [to_column(c) for c in ideal.columns()]
    for _, nums in p_cols:
        span.add_row(dict(nums))
    complement = [j for j in range(n) if span.add_row({j: 1})]
    if not complement:
        raise RuntimeError("quotient collapsed to zero; unital algebra expected")
    inv = inverse_columns(p_cols + [(1, {j: 1}) for j in complement], n)
    r = ideal.cols

    def coords(col: tuple) -> tuple:
        # the quotient coordinates of col in the new basis, kept canonical
        d, nums = combine(inv, col)
        tail = {k - r: x for k, x in nums.items() if k >= r}
        g = gcd(d, *tail.values())
        return d // g, {k: x // g for k, x in tail.items()}

    labels = [alg.labels[j] for j in complement]
    columns = [[coords((alg.den, alg.ints[i][j])) for j in complement] for i in complement]
    quo = FinDimAlgebra(labels, columns, coords(alg.unit_col))
    return quo, lambda vec: to_dense(coords(to_column(vec)), n - r)


def center_basis(alg: FinDimAlgebra) -> Matrix:
    """Columns spanning {x : xb = bx for all basis b}."""
    n, ints = alg.dim, alg.ints
    # row block i, row k: column u holds den * (b_u b_i - b_i b_u)_k
    rows = [[ints[u][i].get(k, 0) - ints[i][u].get(k, 0) for u in range(n)]
            for i in range(n) for k in range(n)]
    return kernel_basis(Matrix.of_integers(rows, n))


def _ideal_span(alg: FinDimAlgebra, rows: list) -> SpanBuilder:
    """Span of the two-sided ideal generated by integer rows.

    The span of rows is closed under left and right multiplication by
    the basis, one frontier of new rows at a time, and returned as soon
    as it is everything.
    """
    n = alg.dim
    span = SpanBuilder(n)
    frontier = [r for r in rows if span.add_row(dict(r))]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                for w in (alg.product({i: 1}, v), alg.product(v, {i: 1})):
                    if span.add_row(dict(w)):
                        if span.rank == n:
                            return span
                        nxt.append(w)
        frontier = nxt
    return span


def commutator_ideal(alg: FinDimAlgebra) -> SpanBuilder:
    """Span of the two-sided ideal generated by all commutators of basis elements."""
    n, ints = alg.dim, alg.ints
    return _ideal_span(alg, [
        {k: x for k in range(n) if (x := ints[i][j].get(k, 0) - ints[j][i].get(k, 0))}
        for i in range(n) for j in range(i + 1, n)])


def one_dim_reps_absent(alg: FinDimAlgebra, rad: Matrix | None = None) -> bool:
    """True when rad + (ideal generated by commutators) is everything.

    Equivalent to the absence of one-dimensional representations over
    any field extension.
    """
    if rad is None:
        rad = radical(alg)
    span = commutator_ideal(alg)
    for c in rad.columns():
        span.add(c)
    return span.rank == alg.dim


@dataclass
class AnalysisReport:
    """Summary invariants of a finite-dimensional algebra."""

    dim: int
    radical_dim: int
    center_dim: int
    ss_center_dim: int
    one_dim_reps_absent: bool
    ruling_count: int | None
    smooth: bool

    def invariants(self) -> tuple:
        return (self.dim, self.radical_dim, self.center_dim, self.ss_center_dim)

    def to_dict(self) -> dict:
        ruling = "n/a" if self.ruling_count is None else self.ruling_count
        return dict(asdict(self), ruling_count=ruling)


def analyze(alg: FinDimAlgebra) -> AnalysisReport:
    """Radical, center, semisimplicity, ruling count, smoothness verdict.

    The ruling count equals the center dimension of the semisimple
    quotient when the algebra is 8-dimensional (C(A) of a quadric
    surface, n = 4) with no one-dimensional representations: every
    geometric simple block is then a 2x2 matrix block over the closure
    and contributes exactly one central line.  It is None otherwise.
    One-dimensional representations are decided on the semisimple
    quotient: each kills the radical, so rad + [A, A]-ideal = A exactly
    when the quotient's commutator ideal is the whole quotient.
    """
    rad, quo = _cross_verify_radical(alg)
    center_dim = center_basis(alg).cols
    ss_center_dim = center_dim if quo is alg else center_basis(quo).cols
    absent = commutator_ideal(quo).rank == quo.dim
    ruling = None
    if alg.dim == 8 and absent and ss_center_dim in (1, 2):
        ruling = ss_center_dim
    return AnalysisReport(
        dim=alg.dim,
        radical_dim=rad.cols,
        center_dim=center_dim,
        ss_center_dim=ss_center_dim,
        one_dim_reps_absent=absent,
        ruling_count=ruling,
        smooth=(rad.cols == 0),
    )
