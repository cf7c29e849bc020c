"""Degreewise construction of quadratic algebras T(V)/(R).

An algebra is presented by generators and a subspace of quadratic
relations.  Graded components are built by the exact recurrence

    A_{n+1} = (V (x) A_n) / image(R (x) A_{n-1}),

which is correct for quadratic algebras.  The left generator maps are
integer sparse columns from the elimination (SpanBuilder, fed integer
image rows written straight from them) to their consumers; the right
maps are derived from them on first read.  Normal-word bases are picked by deglex
pivoting with a fixed generator order, so identical inputs always
produce identical tables.  Words are tuples of generator indices; the
degree-2 word space indexes the pair (i, j) at position i*g + j.

The dual of a quadric S/(z) reaches a period-2 fixed point, as
multiplication by its central regular w identifies degree n with degree
n + 2.  Once a step's inputs repeat those of two steps back, the table
shares maps instead of eliminating, and the regularity check reuses
the shared degrees; its one z-map per degree serves both sides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from math import lcm

from .exactlin import (Matrix, SpanBuilder, column_matrix, combine, kernel_basis, qq,
                       qq_str, rank, rref, to_column, to_dense)


class DegreeOverflowError(ValueError):
    """Requested product lands beyond the table's degree bound."""


class QuadraticPresentation:
    """Generators plus a rational relation subspace R inside V (x) V."""

    __slots__ = ("generator_names", "relations", "_rows")

    def __init__(self, generator_names, relations):
        names = tuple(str(n) for n in generator_names)
        if not names:
            raise ValueError("need at least one generator")
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        g = len(names)
        rels = tuple(tuple(qq(c) for c in r) for r in relations)
        for r in rels:
            if len(r) != g * g:
                raise ValueError("relation vector length %d, expected %d" % (len(r), g * g))
        if rels and rank(Matrix.from_rows(rels)) != len(rels):
            raise ValueError("relation vectors are linearly dependent")
        self.generator_names = names
        self.relations = rels
        self._rows = None

    @classmethod
    def _of(cls, names: tuple, relations: tuple) -> "QuadraticPresentation":
        """Wrap validated names and independent relations, uncoerced and unranked."""
        p = cls.__new__(cls)
        p.generator_names, p.relations, p._rows = names, relations, None
        return p

    def integer_rows(self) -> tuple[list, list]:
        """The relations and a basis of their annihilator R_perp, as dense integer rows.

        Each relation is scaled by the lcm of its denominators; the
        annihilator rows are koszul_dual's relations scaled the same way,
        primitive because each has an entry 1 before scaling.  Both are
        computed once per relations tuple: rebinding ``relations``
        recomputes them and drops every cached comparison_kernel.
        """
        if self._rows is None or self._rows[0] is not self.relations:
            n = self.num_generators ** 2

            def dense(vecs):
                return [tuple(nums.get(k, 0) for k in range(n))
                        for _, nums in map(to_column, vecs)]
            ann = kernel_basis(Matrix.from_rows(self.relations, cols=n)).columns()
            self._rows = (self.relations, dense(self.relations), dense(ann), {})
        return self._rows[1], self._rows[2]

    def comparison_kernel(self, words) -> list:
        """A null-space basis, as tuples, of word (i, j) -> [r[i*g + j] for r in R].

        This is the degree-2 comparison map of a quadric's dual onto the
        dual of S (cliff.dual_central_element), on the given degree-2
        words.  It is cached per word tuple beside integer_rows, so every
        member of a pencil with the same words reuses it.
        """
        rows = self.integer_rows()[0]
        kernels, words = self._rows[3], tuple(words)
        if words not in kernels:
            g = self.num_generators
            ker = kernel_basis(Matrix.of_integers(
                [[r[i * g + j] for i, j in words] for r in rows], len(words)))
            kernels[words] = [tuple(c) for c in ker.columns()]
        return kernels[words]

    @property
    def num_generators(self) -> int:
        return len(self.generator_names)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadraticPresentation):
            return NotImplemented
        return (self.generator_names == other.generator_names
                and self.relations == other.relations)

    def __repr__(self) -> str:
        return "QuadraticPresentation(%r, <%d relations>)" % (
            list(self.generator_names), len(self.relations))

    def relation_span_equals(self, other: "QuadraticPresentation") -> bool:
        """True when both relation lists span the same subspace."""
        if self.generator_names != other.generator_names:
            return False
        if len(self.relations) != len(other.relations):
            return False
        if not self.relations:
            return True
        a = rref(Matrix.from_rows(self.relations))
        b = rref(Matrix.from_rows(other.relations))
        return a == b

    def to_json_dict(self) -> dict:
        g = self.num_generators
        rels = []
        for r in self.relations:
            terms = []
            for k, c in enumerate(r):
                if c:
                    i, j = divmod(k, g)
                    terms.append({"coef": qq_str(c),
                                  "word": [self.generator_names[i],
                                           self.generator_names[j]]})
            rels.append(terms)
        return {"generators": list(self.generator_names), "relations": rels}

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuadraticPresentation":
        """Parse the JSON presentation format; malformed input raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("presentation is not a JSON object")
        for key in ("generators", "relations"):
            if key not in data:
                raise ValueError("presentation has no %r key" % key)
        try:
            names = data["generators"]
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise ValueError("generators %r are not a list of strings" % (names,))
            index = {n: i for i, n in enumerate(names)}
            g = len(names)
            rels = []
            for terms in data["relations"]:
                vec = [qq(0)] * (g * g)
                for term in terms:
                    word = term["word"]
                    if not isinstance(word, list) or len(word) != 2:
                        raise ValueError("relation word %r is not a list of two names" % (word,))
                    unknown = [w for w in word if w not in index]
                    if unknown:
                        raise ValueError("relation word %r uses unknown generator %r"
                                         % (word, unknown[0]))
                    i, j = index[word[0]], index[word[1]]
                    vec[i * g + j] += qq(term["coef"])
                rels.append(vec)
        except (KeyError, TypeError) as exc:
            raise ValueError("malformed presentation: %s %s"
                             % (type(exc).__name__, exc)) from None
        return cls(names, rels)

    def dump(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def load(cls, text: str) -> "QuadraticPresentation":
        return cls.from_json_dict(json.loads(text))


def koszul_dual(p: QuadraticPresentation) -> QuadraticPresentation:
    """Quadratic dual: relations are a basis of the annihilator of R.

    The pairing is <x_i (x) x_j, x_k* (x) x_l*> = delta_ik delta_jl with
    no sign twist; dim R + dim R_perp = g^2 always holds.
    """
    g = p.num_generators
    cols = kernel_basis(Matrix.from_rows(p.relations, cols=g * g)).columns()
    return QuadraticPresentation(p.generator_names, cols)


@dataclass
class GradedTable:
    """Bases, dimensions and generator multiplication maps up to a bound.

    ``words[n][b]`` is the representative word of basis element b in
    degree n; every representative evaluates to its own basis vector.
    ``left_cols[n][i]`` is multiplication by generator i on the left, a
    map from degree n to degree n+1, as its list of integer columns (see
    exactlin), and ``right_cols[n][i]`` the same on the right, derived
    from the left maps on first read; ``left`` and ``right`` are their
    Matrix views, built on first access.  From degree ``period_start`` on
    (None when it never happens) the maps repeat with period 2:
    ``left_cols[n] is left_cols[n - 2]``, and so on.
    """

    presentation: QuadraticPresentation
    max_degree: int
    dims: list[int]
    words: list[list[tuple[int, ...]]]
    left_cols: list[list[list]]
    period_start: int | None = None

    left = cached_property(lambda self: _views(self.left_cols, lambda n, by_gen: [
        column_matrix(cols, self.dims[n + 1]) for cols in by_gen]))
    right = cached_property(lambda self: _views(self.right_cols, lambda n, by_gen: [
        column_matrix(cols, self.dims[n + 1]) for cols in by_gen]))

    @cached_property
    def right_cols(self) -> list:
        """Right generator maps, recursively: (x_j t) x_i = x_j (t x_i).

        A degree whose left maps are shared with two degrees back, and
        whose inputs (the right maps one degree down) repeat too, shares
        that degree's right maps.
        """
        g, left, out = self.presentation.num_generators, self.left_cols, []
        for n, lmaps in enumerate(left):
            if n >= 3 and lmaps is left[n - 2] and out[n - 1] == out[n - 3]:
                out.append(out[n - 2])
            elif n == 0:
                out.append([[(1, {i: 1})] for i in range(g)])
            else:
                tails = {w: t for t, w in enumerate(self.words[n - 1])}
                prev = out[n - 1]
                out.append([[combine(lmaps[w[0]], prev[i][tails[w[1:]]]) for w in self.words[n]]
                            for i in range(g)])
        return out


def _views(maps: list, view) -> list:
    """[view(n, maps[n])], one view shared wherever maps[n] is maps[n - 2]."""
    out = []
    for n, m in enumerate(maps):
        out.append(out[n - 2] if n >= 2 and m is maps[n - 2] else view(n, m))
    return out


def build_table(p: QuadraticPresentation, max_degree: int) -> GradedTable:
    """Construct the graded table of T(V)/(R) through the given degree.

    Step n builds degree n + 1 from exact index-level inputs: the two
    previous dimensions, the (first letter, tail index) shape of the
    degree-n words and the left generator maps out of degree n - 1.
    When these equal the inputs of step n - 2 (columns are canonical, so
    equal maps are equal lists), so do the outputs; the step then shares
    step n - 2's maps instead of eliminating, and so does every later
    step, since its inputs are then shared too.  Only the words are
    extended.
    """
    if max_degree < 2:
        raise ValueError("degree bound must be at least 2")
    g = p.num_generators
    dims = [1, g]
    words: list[list[tuple[int, ...]]] = [[()], [(i,) for i in range(g)]]
    # word b of degree n is (i,) + words[n - 1][t] for shapes[n][b] == (i, t)
    shapes: list[list[tuple[int, int]]] = [[], [(i, 0) for i in range(g)]]
    # generator maps of the last degree
    lcols = [[(1, {i: 1})] for i in range(g)]
    left = [lcols]
    # each relation as the integer terms (i, j, coef) of its pairs x_i x_j
    rels = [[(*divmod(k, g), c) for k, c in to_column(rel)[1].items()]
            for rel in p.relations]
    keys = [None, None]  # inputs of steps n - 2 and n - 1
    period_start = None

    for n in range(1, max_degree):
        d_prev, d_n = dims[n - 1], dims[n]
        m = g * d_n
        key = (d_prev, d_n, shapes[n], lcols)
        if key == keys[0]:
            if period_start is None:
                period_start = n
            # the inputs of step n - 1 are the outputs of step n - 2
            lcols = keys[1][3]
            left.append(left[n - 2])
            dims.append(dims[n - 1])
            shapes.append(shapes[n - 1])
            words.append([(i,) + words[n][t] for i, t in shapes[n - 1]])
            keys = [keys[1], key]
            continue

        # words[n] ascends, so the word x_i words[n][t] of coordinate
        # o = i * d_n + t ascends in o; deglex pivoting eliminates lex-largest
        # words first, so pivoting column k holds coordinate m - 1 - k.
        # The image of R (x) A_{n-1} inside V (x) A_n: per basis word b of
        # degree n - 1, each relation applied to the x_i x_j b it uses, the
        # columns x_j b scaled to their common denominator.
        span = SpanBuilder(m)
        for b in range(d_prev):
            cols = [lcols[j][b] for j in range(g)]
            d = lcm(*[e for e, _ in cols])
            cols = [(d // e, nums) for e, nums in cols]
            for terms in rels:
                row: dict = {}
                get = row.get
                for i, j, c in terms:
                    s, nums = cols[j]
                    s *= c
                    base = m - 1 - i * d_n
                    for t, x in nums.items():
                        row[base - t] = get(base - t, 0) + s * x
                if 0 in row.values():
                    row = {k: x for k, x in row.items() if x}
                span.add_row(row)
        held = span.pivot_rows
        # free positions, right to left: words[n + 1] ascends as well
        basis_positions = [k for k in range(m - 1, -1, -1) if k not in held]
        d_next = len(basis_positions)
        pos_to_basis = {k: idx for idx, k in enumerate(basis_positions)}
        new_shape = [divmod(m - 1 - k, d_n) for k in basis_positions]

        def reduced(k):  # coordinate k if free, else -sum(r[j] e_j) / r[k] by its pivot row r
            row = held.get(k)
            if row is None:
                return 1, {pos_to_basis[k]: 1}
            return row[k], {pos_to_basis[j]: -x for j, x in row.items() if j != k}

        # step n + 2 can match this step only if d_next == d_prev; otherwise
        # the maps out of degree n - 1 are freed here, as without the keys
        keys = [keys[1], key if d_next == d_prev else None]
        del key
        # left maps: x_i times basis word b of degree n is coordinate i * d_n + b
        lcols = [[reduced(m - 1 - i * d_n - b) for b in range(d_n)] for i in range(g)]
        left.append(lcols)
        dims.append(d_next)
        shapes.append(new_shape)
        words.append([(i,) + words[n][t] for i, t in new_shape])

    return GradedTable(p, max_degree, dims, words, left, period_start)


def hilbert(table: GradedTable) -> list[int]:
    """Dimension list [d_0 .. d_N]."""
    return list(table.dims)


def multiply(table: GradedTable, a: list, deg_a: int, b: list, deg_b: int) -> list:
    """Product of homogeneous elements, degree deg_a + deg_b.

    b is decomposed into representative words; each word acts through
    the right-multiplication maps one letter at a time.
    """
    total = deg_a + deg_b
    if total > table.max_degree:
        raise DegreeOverflowError("degree %d exceeds table bound %d"
                                  % (total, table.max_degree))
    if len(a) != table.dims[deg_a] or len(b) != table.dims[deg_b]:
        raise ValueError("element length does not match its degree")
    a, b = to_column(a), to_column(b)
    prods = {}
    for idx in b[1]:
        v = a
        for d, letter in enumerate(table.words[deg_b][idx], deg_a):
            v = combine(table.right_cols[d][letter], v)
        prods[idx] = v
    return to_dense(combine(prods, b), table.dims[total])


def evaluate_word(table: GradedTable, word) -> list:
    """Class of a generator word in its graded component."""
    word = tuple(word)
    if len(word) > table.max_degree:
        raise DegreeOverflowError("word of length %d exceeds table bound %d"
                                  % (len(word), table.max_degree))
    v = (1, {0: 1})
    for d, letter in enumerate(reversed(word)):
        v = combine(table.left_cols[d][letter], v)
    return to_dense(v, table.dims[len(word)])


def element_word_lift(table: GradedTable, vec: list, degree: int) -> list:
    """Lift an element of A_n to the degree-n word space via representatives."""
    g = table.presentation.num_generators
    out = [qq(0)] * (g ** degree)
    for b, c in enumerate(vec):
        if c:
            k = 0
            for letter in table.words[degree][b]:
                k = k * g + letter
            out[k] += c
    return out


def central_quadratic_space(table: GradedTable) -> Matrix:
    """Basis of {z in A_2 : z x = x z for all x in A_1}, as columns.

    Commuting with the generators forces commuting with everything in
    degree-one-generated algebras, so the degree-3 linear system is a
    full centrality certificate for degree-2 elements.
    """
    if table.max_degree < 3:
        raise ValueError("need a table through degree 3")
    g = table.presentation.num_generators
    d2 = table.dims[2]
    rows = []
    for i in range(g):
        rows.extend([a - b for a, b in zip(ra, la)]
                    for ra, la in zip(table.right[2][i].entries, table.left[2][i].entries))
    return kernel_basis(Matrix.from_rows(rows, cols=d2))


@dataclass
class RegularityCertificate:
    """Outcome of a centrality-plus-regularity check up to a degree.

    ``repeated`` lists the degrees n >= max(2, period_start - 1), whose
    check was skipped: multiplication by z out of degree n is then the
    map of degree n - 2, already proved injective.  ``z_maps[n]`` holds the
    integer columns of b -> z b = b z from degree n to n + 2, for every
    checked n, the same list as n - 2 at a repeated degree.
    """

    central: bool
    regular: bool
    checked_degree: int
    failure_degree: int | None = None
    witness: list | None = None
    side: str | None = None
    repeated: list[int] = field(default_factory=list)
    z_maps: list[list] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.central and self.regular

    def describe(self) -> str:
        if self.ok:
            return "central and regular through degree %d" % self.checked_degree
        if not self.central:
            return "not central: witness generator index %s" % self.side
        return "not regular: %s kernel at degree %d" % (self.side, self.failure_degree)


def noncentral_generator(table: GradedTable, z: list) -> int | None:
    """First generator index i with z x_i != x_i z for z in A_2, or None.

    None certifies that z is central, for the reason given in
    central_quadratic_space; the table must reach degree 3.
    """
    z, left, words = to_column(z), table.left_cols, table.words[2]
    for i in range(table.presentation.num_generators):
        # z x_i word by word, through the left maps: (x_k x_l) x_i = x_k (x_l x_i)
        zx = {b: combine(left[2][words[b][0]], left[1][words[b][1]][i]) for b in z[1]}
        if combine(zx, z) != combine(left[2][i], z):
            return i
    return None


def is_regular_central(table: GradedTable, z: list, bound: int) -> RegularityCertificate:
    """Check z in A_2 is central and multiplication by z is injective.

    Centrality is checked on the generators; A being generated in degree
    one, a central z has z*(-) = (-)*z, so one map A_n -> A_{n+2} is
    checked per degree n <= bound - 2, injective when each column
    enlarges the span of the ones before it.  Each basis word x_i t of
    degree n >= 1 has a basis word t of degree n - 1 as its tail, so its
    column is left multiplication by x_i applied to column t of the map
    out of degree n - 1: z x_i t = x_i (z t).  Degrees from max(2,
    period_start - 1) on share their generator maps with n - 2 and reuse
    its map and verdict; they are listed in ``repeated``.
    """
    if bound > table.max_degree:
        raise ValueError("bound exceeds table degree")
    i = noncentral_generator(table, z)
    if i is not None:
        return RegularityCertificate(False, False, bound, side=str(i))
    p = table.period_start
    first_repeat = bound if p is None else max(2, p - 1)
    z_maps = []
    for n in range(0, bound - 1):
        if n >= first_repeat:
            z_maps.append(z_maps[n - 2])
            continue
        if n == 0:
            cols = [to_column(z)]
        else:
            prev, left = z_maps[n - 1], table.left_cols[n + 1]
            tails = {w: b for b, w in enumerate(table.words[n - 1])}
            cols = [combine(left[w[0]], prev[tails[w[1:]]]) for w in table.words[n]]
        span = SpanBuilder(table.dims[n + 2])
        if not all(span.add_row(dict(nums)) for _, nums in cols):
            ker = kernel_basis(column_matrix(cols, table.dims[n + 2]))
            return RegularityCertificate(True, False, bound, failure_degree=n,
                                         witness=ker.column(0), side="left")
        z_maps.append(cols)
    return RegularityCertificate(True, True, bound, z_maps=z_maps,
                                 repeated=list(range(first_repeat, bound - 1)))


def koszul_identity_check(p: QuadraticPresentation, bound: int) -> list:
    """Coefficients of H_dual(t) * H(-t) - 1 through the given degree.

    An all-zero residual is a necessary numerical condition for the
    presentation to be Koszul.
    """
    dims = build_table(p, bound).dims
    dual_dims = build_table(koszul_dual(p), bound).dims
    residual = []
    for n in range(bound + 1):
        s = sum(dual_dims[k] * ((-1) ** (n - k)) * dims[n - k] for k in range(n + 1))
        residual.append(s - (1 if n == 0 else 0))
    return residual
