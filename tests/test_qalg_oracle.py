"""Differential and metamorphic tests of build_table's integer-column step.

The reference is the dense Fraction step that build_table used before it
kept its maps as integer columns: every image row is a dense row of
rationals, rref reduces them all at once and the maps are read back off
the reduced grid, at every degree, with no step shared.
"""

from pathlib import Path

import pytest

import ncquad.qalg as qalg

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ncquad.cliff import HypersurfaceData, dual_central_element  # noqa: E402
from ncquad.exactlin import (Matrix, combine, kernel_basis, qq, rref,  # noqa: E402
                             to_column, to_dense)
from ncquad.families import (commutative_presentation,  # noqa: E402
                             symmetric_form_to_element, word_vector)
from ncquad.qalg import (QuadraticPresentation, build_table,  # noqa: E402
                         central_quadratic_space, element_word_lift, koszul_dual,
                         noncentral_generator)
from test_exactlin_oracle import ScanSpan  # noqa: E402


def mat_vec(m, vec):
    return [sum((a * b for a, b in zip(row, vec)), qq(0)) for row in m.entries]


def dense_table(p, max_degree):
    """(dims, words, left, right, period_start) by dense elimination at every degree.

    Step n lists the image of R (x) A_{n-1} in V (x) A_n as dense rows
    over the pivoting columns k = m - 1 - (i * d_n + t), so that rref's
    leftmost pivots are the lex-largest words.  The free columns, right
    to left, are the basis of degree n + 1; a pivot coordinate reduces
    to minus its reduced row on the free columns.  period_start is, as
    build_table documents it, the first step whose inputs (dimensions,
    word shapes and the left maps out of degree n - 1) equal those of
    step n - 2; the right maps are not among them.
    """
    g = p.num_generators
    dims = [1, g]
    words = [[()], [(i,) for i in range(g)]]
    unit_maps = [Matrix.from_columns([[qq(int(t == i)) for t in range(g)]]) for i in range(g)]
    left, right = [unit_maps], [list(unit_maps)]
    for n in range(1, max_degree):
        d_prev, d_n = dims[n - 1], dims[n]
        m = g * d_n
        rows = []
        for rel in p.relations:
            for b in range(d_prev):
                row = [qq(0)] * m
                for ij, c in enumerate(rel):
                    if c:
                        i, j = divmod(ij, g)
                        for t, x in enumerate(left[n - 1][j].column(b)):
                            row[m - 1 - i * d_n - t] += c * x
                rows.append(row)
        red, pivots = rref(Matrix.from_rows(rows, cols=m))
        pivot_rows = dict(zip(pivots, red.entries))
        free = [k for k in range(m - 1, -1, -1) if k not in pivot_rows]
        position = {k: idx for idx, k in enumerate(free)}
        words.append([(i,) + words[n][t] for i, t in (divmod(m - 1 - k, d_n) for k in free)])
        dims.append(len(free))
        maps = []
        for i in range(g):
            cols = []
            for b in range(d_n):
                k = m - 1 - i * d_n - b
                col = [qq(0)] * len(free)
                if k in position:
                    col[position[k]] = qq(1)
                else:
                    for j in free:
                        col[position[j]] = -pivot_rows[k][j]
                cols.append(col)
            maps.append(Matrix.from_columns(cols, rows=len(free)))
        left.append(maps)
        tails = {w: b for b, w in enumerate(words[n - 1])}
        right.append([Matrix.from_columns(
            [mat_vec(left[n][w[0]], right[n - 1][i].column(tails[w[1:]])) for w in words[n]],
            rows=len(free)) for i in range(g)])

    def inputs(n):
        tails = {w: b for b, w in enumerate(words[n - 1])}
        shape = [(w[0], tails[w[1:]]) for w in words[n]]
        return dims[n - 1], dims[n], shape, left[n - 1]

    period_start = next((n for n in range(3, max_degree) if inputs(n) == inputs(n - 2)), None)
    return dims, words, left, right, period_start


def assert_matches_dense(p, degree):
    table = build_table(p, degree)
    dims, words, left, right, period_start = dense_table(p, degree)
    assert table.dims == dims
    assert table.words == words
    assert table.left == left
    assert table.right == right
    assert table.period_start == period_start


NONZERO = st.builds(qq, st.integers(-5, 5).filter(bool), st.integers(1, 4))


@st.composite
def presentations(draw):
    """3 or 4 generators, sparse relations with rational coefficients, a degree <= 5."""
    g = draw(st.integers(3, 4))
    count = draw(st.integers(2, g * g - 2))
    relations = []
    for _ in range(count):
        pairs = draw(st.lists(st.integers(0, g * g - 1), min_size=1, max_size=3, unique=True))
        rel = [qq(0)] * (g * g)
        for k in pairs:
            rel[k] = draw(NONZERO)
        relations.append(rel)
    try:
        p = QuadraticPresentation(["x%d" % i for i in range(g)], relations)
    except ValueError:
        hypothesis.assume(False)
    # keep the dense reference small: stop at the first component past 24
    degree = 3
    while degree < 5 and build_table(p, degree).dims[degree] <= 24:
        degree += 1
    return p, degree


def sparse_presentation(g, relations):
    """Generators x0 .. x{g-1} and relations given as {(i, j): coefficient}."""
    return QuadraticPresentation(["x%d" % i for i in range(g)],
                                 [word_vector(g, rel) for rel in relations])


# the left maps repeat from degree 4 (left_cols[4] is left_cols[2]) while the
# right maps out of degree 3 differ from those out of degree 1
LEFT_PERIOD_ONLY = sparse_presentation(3, [
    {(1, 0): 1}, {(0, 2): -1, (1, 2): 2}, {(0, 0): 1, (2, 2): -1},
    {(0, 0): 1, (0, 2): 2}, {(0, 0): -2}, {(2, 1): -1}])


@settings(max_examples=25, deadline=None)
@given(presentations())
@example((LEFT_PERIOD_ONLY, 5))
def test_build_table_matches_dense_elimination(case):
    assert_matches_dense(*case)


COMM = commutative_presentation()
HYPERBOLIC = word_vector(4, {(0, 3): 1, (1, 2): -1})
FORM = symmetric_form_to_element(
    [[0, 12, -48, 28], [12, 21, -3, 6], [-48, -3, -12, 5], [28, 6, 5, -1]])


def quadric_dual(lift):
    return koszul_dual(QuadraticPresentation(COMM.generator_names,
                                             list(COMM.relations) + [lift]))


# duals of quadrics, whose maps repeat from degree 6 (hyperbolic) and 7 (form)
@pytest.mark.parametrize("lift", [HYPERBOLIC, FORM], ids=["hyperbolic", "form"])
def test_periodic_dual_table_matches_dense_elimination(lift):
    assert_matches_dense(quadric_dual(lift), 8)


SKLYANIN = QuadraticPresentation.load(
    (Path(__file__).resolve().parents[1] / "presentations" / "sklyanin_a.json").read_text())


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["comm4", "sklyanin_a", "comm4_dual", "hyperbolic_dual", "form_dual"]),
       st.data())
def test_relation_scale_and_order_do_not_change_the_table(name, data):
    p, degree = {
        "comm4": (COMM, 5),
        "sklyanin_a": (SKLYANIN, 5),
        "comm4_dual": (koszul_dual(COMM), 5),
        "hyperbolic_dual": (quadric_dual(HYPERBOLIC), 8),
        "form_dual": (quadric_dual(FORM), 8),
    }[name]
    order = data.draw(st.permutations(range(len(p.relations))))
    scales = data.draw(st.lists(NONZERO, min_size=len(p.relations),
                                max_size=len(p.relations)))
    q = QuadraticPresentation(p.generator_names,
                              [[s * c for c in p.relations[k]] for k, s in zip(order, scales)])
    a, b = build_table(p, degree), build_table(q, degree)
    # canonical columns: equal maps are equal integer columns
    assert (a.dims, a.words, a.left_cols, a.right_cols, a.period_start) == \
        (b.dims, b.words, b.left_cols, b.right_cols, b.period_start)


def eager_right_cols(table):
    """Reference: the right maps as build_table used to build them, one degree
    per step, with no map shared: (x_j t) x_i = x_j (t x_i)."""
    g = table.presentation.num_generators
    right = [[[(1, {i: 1})] for i in range(g)]]
    for n in range(1, len(table.left_cols)):
        tails = {w: t for t, w in enumerate(table.words[n - 1])}
        shape = [(w[0], tails[w[1:]]) for w in table.words[n]]
        right.append([[combine(table.left_cols[n][j], right[n - 1][i][t]) for j, t in shape]
                      for i in range(g)])
    return right


def right_map_noncentral(table, z):
    """Reference centrality check: the first i with z x_i != x_i z, by the right maps."""
    z = to_column(z)
    right = eager_right_cols(table)
    return next((i for i in range(table.presentation.num_generators)
                 if combine(right[2][i], z) != combine(table.left_cols[2][i], z)), None)


def sklyanin_member(lam):
    t = build_table(SKLYANIN, 3)
    centre = central_quadratic_space(t)
    w1, w2 = (element_word_lift(t, centre.column(k), 2) for k in (0, 1))
    return QuadraticPresentation(SKLYANIN.generator_names, list(SKLYANIN.relations)
                                 + [[a + qq(lam) * b for a, b in zip(w1, w2)]])


RIGHT_TABLES = {
    "comm4": lambda: build_table(COMM, 6),
    "sklyanin_a": lambda: build_table(SKLYANIN, 6),
    "sklyanin_a_dual": lambda: build_table(koszul_dual(SKLYANIN), 6),
    "member:1": lambda: build_table(koszul_dual(sklyanin_member("1")), 8),
    "member:3": lambda: build_table(koszul_dual(sklyanin_member("3")), 8),
    "member:5/9": lambda: build_table(koszul_dual(sklyanin_member("5/9")), 8),
}


@pytest.mark.parametrize("name", list(RIGHT_TABLES))
def test_derived_right_maps_match_the_eager_recursion(name):
    table = RIGHT_TABLES[name]()
    assert table.right_cols == eager_right_cols(table)
    # a shared right map sits exactly where the left maps repeat
    shared = [n for n in range(2, len(table.left_cols))
              if table.right_cols[n] is table.right_cols[n - 2]]
    assert shared == list(range(table.period_start or len(table.left_cols),
                                len(table.left_cols)))


def dense_central_space(table):
    """Reference: the kernel of the dense Fraction rows of right[2][i] - left[2][i],
    read off the Matrix views, one row block per generator."""
    rows = []
    for i in range(table.presentation.num_generators):
        rows.extend([a - b for a, b in zip(ra, la)]
                    for ra, la in zip(table.right[2][i].entries, table.left[2][i].entries))
    return kernel_basis(Matrix.from_rows(rows, cols=table.dims[2]))


def gl_changed_comm4():
    """comm4 after the change of generators x = M y: the commutators as 2x2 minors of M."""
    m = [[1, 2, -1, 0], [3, 7, -2, 1], [0, 1, 1, -2], [2, 4, -1, 1]]
    return QuadraticPresentation(COMM.generator_names, [
        [m[i][k] * m[j][l] - m[i][l] * m[j][k] for k in range(4) for l in range(4)]
        for i in range(4) for j in range(i + 1, 4)])


CENTRE_CASES = {
    "comm4": lambda: COMM,
    "sklyanin_a": lambda: SKLYANIN,
    "sklyanin_b": lambda: QuadraticPresentation.load(
        (Path(__file__).resolve().parents[1] / "presentations" / "sklyanin_b.json").read_text()),
    "comm2": lambda: commutative_presentation(2),
    "comm3": lambda: commutative_presentation(3),
    "comm5": lambda: commutative_presentation(5),
    "comm4_gl": gl_changed_comm4,
}


@pytest.mark.parametrize("name", list(CENTRE_CASES))
def test_central_space_matches_the_dense_commutator_rows(name):
    table = build_table(CENTRE_CASES[name](), 3)
    centre = central_quadratic_space(table)
    assert centre == dense_central_space(table)
    assert centre.cols == {"sklyanin_a": 2, "sklyanin_b": 2, "comm2": 3, "comm3": 6,
                           "comm5": 15}.get(name, 10)


def commuting_space(table, k):
    """Columns spanning the z in A_2 that commute with x_0 .. x_{k-1}, by the reference right maps."""
    right, d2, d3 = eager_right_cols(table), table.dims[2], table.dims[3]
    rows = [[0] * d2]
    for i in range(k):
        diff = [[a - b for a, b in zip(to_dense(r, d3), to_dense(l, d3))]
                for r, l in zip(right[2][i], table.left_cols[2][i])]
        rows += [[col[t] for col in diff] for t in range(d3)]
    return kernel_basis(Matrix.from_rows(rows)).columns()


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["sklyanin_a", "member:1", "member:3", "member:5/9"]), st.data())
def test_left_map_centrality_check_matches_the_right_maps(name, data):
    table = RIGHT_TABLES[name]()
    if name == "sklyanin_a":
        central = central_quadratic_space(table).columns()
    else:
        central = [dual_central_element(HypersurfaceData(
            SKLYANIN, sklyanin_member(name[7:]).relations[-1]))[0]]
    for z in central:
        assert noncentral_generator(table, z) is None
    # a random z commuting with the first k generators, so that each index
    # can be the first that fails
    basis = commuting_space(table, data.draw(st.integers(0, 4)))
    coefs = data.draw(st.lists(st.builds(qq, st.integers(-4, 4), st.integers(1, 3)),
                               min_size=len(basis), max_size=len(basis)))
    z = [sum((c * v[r] for c, v in zip(coefs, basis)), qq(0)) for r in range(table.dims[2])]
    assert noncentral_generator(table, z) == right_map_noncentral(table, z)


SCAN_TABLES = {
    "comm4:9": lambda: (COMM, 9),
    "comm4_gl:7": lambda: (gl_changed_comm4(), 7),
    "sklyanin_a:6": lambda: (SKLYANIN, 6),
    "member:1": lambda: (koszul_dual(sklyanin_member("1")), 8),
    "member:3": lambda: (koszul_dual(sklyanin_member("3")), 8),
    "member:5/9": lambda: (koszul_dual(sklyanin_member("5/9")), 8),
}


@pytest.mark.parametrize("name", list(SCAN_TABLES))
def test_indexed_back_substitution_gives_the_scanned_table(name, monkeypatch):
    p, degree = SCAN_TABLES[name]()
    table = build_table(p, degree)
    monkeypatch.setattr(qalg, "SpanBuilder", ScanSpan)
    scanned = build_table(p, degree)
    assert (table.left_cols, table.dims, table.shapes, table.period_start) == \
        (scanned.left_cols, scanned.dims, scanned.shapes, scanned.period_start)
