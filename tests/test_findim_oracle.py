"""Differential tests of findim's integer-table steps against plain Fraction loops.

The reference functions below are the Fraction versions that read the
rational structure constants directly, among them the full associativity
check on every basis triple that the constructor's check on a generating
set replaced; the ±1-skew test checks the center against a closed formula.
"""

import functools
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ncquad.cliff import HypersurfaceData, clifford_algebra, even_clifford_oracle  # noqa: E402
from ncquad.exactlin import (Matrix, SpanBuilder, inverse, kernel_basis, qq,  # noqa: E402
                             to_column)
from ncquad.families import (commutative_presentation,  # noqa: E402
                             symmetric_form_to_element, word_vector)
from ncquad.findim import (FinDimAlgebra, analyze, center_basis, commutator_ideal,  # noqa: E402
                           one_dim_reps_absent, radical, trace_gram)
from ncquad.qalg import (QuadraticPresentation, build_table,  # noqa: E402
                         central_quadratic_space, element_word_lift)


def nonassociative(c, i, j, k):
    """Reference check: (b_i b_j) b_k != b_i (b_j b_k), for Fraction structure constants c."""
    n = len(c)
    left = [Fraction(0)] * n
    right = [Fraction(0)] * n
    for v in range(n):
        for t in range(n):
            if c[i][j][v] and c[v][k][t]:
                left[t] += c[i][j][v] * c[v][k][t]
            if c[j][k][v] and c[i][v][t]:
                right[t] += c[j][k][v] * c[i][v][t]
    return left != right


def fractions(structure):
    return [[[Fraction(x) for x in vec] for vec in row] for row in structure]


def first_nonassociative_triple(structure):
    """Reference check: the first failing basis triple (i, j, k), or None."""
    c = fractions(structure)
    return next((t for t in itertools.product(range(len(c)), repeat=3)
                 if nonassociative(c, *t)), None)


def dense_algebra(labels, structure, unit):
    """FinDimAlgebra of a dense grid of structure constants and a dense unit."""
    return FinDimAlgebra(labels, [[to_column(vec) for vec in row] for row in structure],
                         to_column(unit))


def matmul(a, b):
    """Dense matrix product, in plain sums."""
    return Matrix(a.rows, b.cols, [[sum(x * y for x, y in zip(row, col) if x and y)
                                    for col in b.columns()] for row in a.entries])


RATIONAL = st.builds(qq, st.integers(-3, 3), st.integers(1, 3))
NONZERO = RATIONAL.filter(bool)


@st.composite
def conjugated_even_cliffords(draw, forms=None):
    """An even Clifford algebra of a random rational form in a random rational basis.

    The form is drawn from forms when given.  The basis change P = U D L
    (unitriangular U and L, diagonal D) fixes the first basis vector, so the
    unit stays (1, 0, ..., 0) while the other structure constants pick up
    denominators.
    """
    if forms is not None:
        q = draw(st.sampled_from(forms))
    else:
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
    dense_algebra(labels, structure, unit)
    # perturbing a product of two non-unit basis vectors keeps the unit axioms
    bad = [[list(vec) for vec in row] for row in structure]
    bad[i][j][t] += r
    assert first_nonassociative_triple(bad) is not None
    # the constructor checks only triples whose first factor lies in its
    # generating set, so it names a failing triple, not always the first
    with pytest.raises(ValueError, match="associativity fails") as exc:
        dense_algebra(labels, bad, unit)
    named = re.search(r"basis triple \((\d+), (\d+), (\d+)\)", str(exc.value))
    assert nonassociative(fractions(bad), *map(int, named.groups()))


def ref_multiply(structure, x, y):
    """Coordinates of x * y, summed term by term in Fractions."""
    out = [Fraction(0)] * len(structure)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if yj:
                c = xi * yj
                for k, s in enumerate(structure[i][j]):
                    if s:
                        out[k] += c * s
    return out


def ref_trace_gram(structure):
    n = len(structure)
    tr = [sum(structure[v][j][j] for j in range(n)) for v in range(n)]
    return Matrix(n, n, [[sum(c * tr[v] for v, c in enumerate(structure[i][j]) if c)
                          for j in range(n)] for i in range(n)])


def ref_center_basis(structure):
    n = len(structure)
    rows = [[structure[u][i][k] - structure[i][u][k] for u in range(n)]
            for i in range(n) for k in range(n)]
    return kernel_basis(Matrix.from_rows(rows, cols=n))


def unit_vectors(n):
    return [[Fraction(int(k == j)) for k in range(n)] for j in range(n)]


def ref_commutator_span(structure):
    """Span of the commutators, closed under multiplication by the basis on both sides."""
    n = len(structure)
    span = SpanBuilder(n)
    frontier = [c for i in range(n) for j in range(i + 1, n)
                if span.add(c := [a - b for a, b in zip(structure[i][j], structure[j][i])])]
    while frontier and span.rank < n:
        frontier = [w for v in frontier for e in unit_vectors(n)
                    for w in (ref_multiply(structure, e, v), ref_multiply(structure, v, e))
                    if span.add(w)]
    return span


def ref_quotient_structure(structure, ideal):
    """Structure constants of the quotient on the standard-basis complement of ideal."""
    n = len(structure)
    span = SpanBuilder(n)
    for c in ideal.columns():
        span.add(c)
    complement = [e for e in unit_vectors(n) if span.add(e)]
    inv = inverse(Matrix.from_columns(ideal.columns() + complement, rows=n))

    def project(v):
        return [sum(a * b for a, b in zip(row, v)) for row in inv.entries][ideal.cols:]
    return [[project(ref_multiply(structure, a, b)) for b in complement] for a in complement]


def assert_matches_reference(alg, x, y):
    """Each findim step on alg against the references; analyze against a report built from them."""
    s, n = alg.structure, alg.dim
    assert alg.multiply(x, y) == ref_multiply(s, x, y)
    gram, center, span = ref_trace_gram(s), ref_center_basis(s), ref_commutator_span(s)
    rad = kernel_basis(gram)
    # trace_gram is the integer matrix den^2 T
    assert trace_gram(alg) == Matrix(n, n, [[alg.den ** 2 * x for x in row]
                                            for row in gram.entries])
    assert center_basis(alg) == center
    assert commutator_ideal(alg).rank == span.rank
    assert radical(alg) == rad
    ss_center = center.cols
    if rad.cols:
        ss_center = ref_center_basis(ref_quotient_structure(s, rad)).cols
    for c in rad.columns():
        span.add(c)
    absent = span.rank == n
    assert analyze(alg).to_dict() == {
        "dim": n, "radical_dim": rad.cols, "center_dim": center.cols,
        "ss_center_dim": ss_center, "one_dim_reps_absent": absent,
        "ruling_count": ss_center if n == 8 and absent and ss_center in (1, 2) else "n/a",
        "smooth": rad.cols == 0}


DEGENERATE_FORMS = [
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    [[0] * 4 for _ in range(4)],
]
VECTOR = st.lists(RATIONAL, min_size=8, max_size=8)


@settings(max_examples=15, deadline=None)
@given(conjugated_even_cliffords(), VECTOR, VECTOR)
def test_analysis_matches_fraction_reference(case, x, y):
    labels, structure = case
    assert_matches_reference(dense_algebra(labels, structure, [1] + [0] * 7), x, y)


@settings(max_examples=15, deadline=None)
@given(conjugated_even_cliffords(DEGENERATE_FORMS), VECTOR, VECTOR)
def test_analysis_matches_fraction_reference_on_degenerate_forms(case, x, y):
    labels, structure = case
    assert_matches_reference(dense_algebra(labels, structure, [1] + [0] * 7), x, y)


def analyze_against_the_oracle(alg):
    """analyze, checked against one_dim_reps_absent, which closes the
    radical plus the commutator ideal in the whole algebra, where analyze
    reads the commutator ideal of the semisimple quotient alone."""
    report = analyze(alg)
    absent = one_dim_reps_absent(alg)
    ss = report.ss_center_dim
    ruling = ss if alg.dim == 8 and absent and ss in (1, 2) else "n/a"
    assert report.to_dict() == dict(report.to_dict(), one_dim_reps_absent=absent,
                                    ruling_count=ruling)
    return report


def _skew_patterns(n):
    """All sign patterns of the generator pairs for n <= 4, else a seeded sample."""
    pairs = list(itertools.combinations(range(n), 2))
    if n <= 4:
        return pairs, list(itertools.product((1, -1), repeat=len(pairs)))
    rng = random.Random(n)
    return pairs, [tuple(rng.choice((1, -1)) for _ in pairs) for _ in range(32 if n == 5 else 12)]


def _check_skew_centers(n):
    # x_i x_j = e_ij x_j x_i with z = sum x_i^2: C(A) is semisimple, and its
    # center dimension counts the even subsets S of the generators with
    # B S in {0, (1, ..., 1)} over F_2, where B_ij = [e_ij = +1], B_ii = 0
    pairs, patterns = _skew_patterns(n)
    names = ["x%d" % i for i in range(n)]
    z = word_vector(n, {(i, i): 1 for i in range(n)})
    split = {}
    for signs in patterns:
        eps = dict(zip(pairs, signs))
        S = QuadraticPresentation(names, [word_vector(n, {(i, j): 1, (j, i): -e})
                                          for (i, j), e in eps.items()])
        b = [[int(i != j and eps[min(i, j), max(i, j)] == 1) for j in range(n)]
             for i in range(n)]
        want = sum(1 for s in itertools.product((0, 1), repeat=n) if sum(s) % 2 == 0
                   and len({sum(r * t for r, t in zip(row, s)) % 2 for row in b}) == 1)
        report = analyze_against_the_oracle(clifford_algebra(HypersurfaceData(S, z)))
        assert (report.dim, report.radical_dim, report.center_dim) == (2 ** (n - 1), 0, want), signs
        key = (report.smooth, report.center_dim, report.to_dict()["ruling_count"])
        split[key] = split.get(key, 0) + 1
    return split


def test_skew_commuting_quadrics_against_center_formula():
    assert _check_skew_centers(4) == {(True, 2, 2): 56, (True, 8, "n/a"): 8}


@pytest.mark.parametrize("n", [3, 5, 6])
def test_skew_commuting_quadrics_in_n_generators(n):
    # every pattern for n = 3, seeded samples for n = 5 and 6; rulings are counted for n = 4 only
    assert {ruling for _, _, ruling in _check_skew_centers(n)} == {"n/a"}


def reference_accepts(structure, unit):
    """The full check in Fractions: a two-sided unit and associativity on all triples."""
    for e in unit_vectors(len(structure)):
        if ref_multiply(structure, unit, e) != e or ref_multiply(structure, e, unit) != e:
            return False
    return first_nonassociative_triple(structure) is None


COMM = commutative_presentation()
HYPERBOLIC = word_vector(4, {(0, 3): 1, (1, 2): -1})


def sklyanin_member_algebra(lam):
    S = QuadraticPresentation.load(
        (Path(__file__).resolve().parents[1] / "presentations" / "sklyanin_a.json").read_text())
    t = build_table(S, 3)
    centre = central_quadratic_space(t)
    w1, w2 = (element_word_lift(t, centre.column(k), 2) for k in (0, 1))
    return clifford_algebra(HypersurfaceData(S, [a + qq(lam) * b for a, b in zip(w1, w2)]))


def dense_form(rank):
    """M^T diag(1, -2, 3, 5)[:rank] M for an integer M of determinant 1: every entry nonzero."""
    m = [[1, 2, -1, 0], [3, 7, -2, 1], [0, 1, 1, -2], [2, 4, -1, 1]]
    d = [1, -2, 3, 5][:rank]
    return [[sum(d[k] * m[k][i] * m[k][j] for k in range(rank)) for j in range(4)]
            for i in range(4)]


ONE_DIM_CASES = {
    **{"comm4:diagonal:%d" % r: (lambda r=r: clifford_algebra(HypersurfaceData(
        COMM, word_vector(4, {(i, i): 1 for i in range(r)})))) for r in range(1, 5)},
    **{"comm4:dense:%d" % r: (lambda r=r: clifford_algebra(HypersurfaceData(
        COMM, symmetric_form_to_element(dense_form(r))))) for r in range(1, 5)},
    "comm4:hyperbolic": lambda: clifford_algebra(HypersurfaceData(COMM, HYPERBOLIC)),
    **{"sklyanin_a:%s" % lam: (lambda lam=lam: sklyanin_member_algebra(lam))
       for lam in ("1", "5", "-1/3", "-5/3")},
}


# (radical_dim, center_dim, ss_center_dim, one_dim_reps_absent, ruling_count)
# by the rank of the form; every singular sklyanin_a member reads like rank 3
ONE_DIM_REPORTS = {4: (0, 2, 2, True, 2), 3: (4, 2, 1, True, 1), 2: (6, 3, 2, False, "n/a"),
                   1: (7, 5, 1, False, "n/a")}


@pytest.mark.parametrize("name", list(ONE_DIM_CASES))
def test_one_dim_reps_on_the_quotient_match_the_whole_algebra(name):
    report = analyze_against_the_oracle(ONE_DIM_CASES[name]()).to_dict()
    rank = int(name[-1]) if name.startswith("comm4:d") else 4 if name.startswith("comm4") else 3
    assert tuple(report[k] for k in ("radical_dim", "center_dim", "ss_center_dim",
                                     "one_dim_reps_absent", "ruling_count")) == \
        ONE_DIM_REPORTS[rank]


VALID_ALGEBRAS = {
    "comm4-hyperbolic": lambda: clifford_algebra(HypersurfaceData(COMM, HYPERBOLIC)),
    "sklyanin_a:lambda=3": lambda: sklyanin_member_algebra("3"),
    "sklyanin_a:lambda=1": lambda: sklyanin_member_algebra("1"),
    "oracle-rank4": lambda: even_clifford_oracle([[2, 1, 0, 0], [1, -1, 0, 3], [0, 0, 5, 0],
                                                  [0, 3, 0, 1]]),
    "oracle-rank2": lambda: even_clifford_oracle(DEGENERATE_FORMS[1]),
    "oracle-hyperbolic": lambda: even_clifford_oracle([[0, 0, 0, 1], [0, 0, -1, 0],
                                                       [0, -1, 0, 0], [1, 0, 0, 0]]),
}


@functools.cache
def valid_table(name):
    alg = VALID_ALGEBRAS[name]()
    return alg.labels, alg.structure, alg.unit


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(VALID_ALGEBRAS)), st.integers(0, 7), st.integers(0, 7),
       st.integers(0, 7), RATIONAL)
def test_generating_set_check_accepts_exactly_what_the_full_check_accepts(name, i, j, t, r):
    labels, structure, unit = valid_table(name)
    bad = [[list(vec) for vec in row] for row in structure]
    bad[i][j][t] += r
    if reference_accepts(bad, unit):
        dense_algebra(labels, bad, unit)
    else:
        with pytest.raises(ValueError):
            dense_algebra(labels, bad, unit)


def test_products_of_basis_elements_outside_the_generating_set_are_checked():
    # The unit of the even Clifford oracle is e_0 and its generating set is
    # {e_1, e_2, e_3}; a broken product e_i e_j with i >= 4 and j >= 1 keeps
    # the unit axioms and must still fail associativity.
    labels, structure, unit = valid_table("oracle-hyperbolic")
    for i, j, t in itertools.product(range(4, 8), range(1, 8), range(8)):
        bad = [[list(vec) for vec in row] for row in structure]
        bad[i][j][t] += 1
        with pytest.raises(ValueError, match="associativity"):
            dense_algebra(labels, bad, unit)


def test_broken_product_outside_the_generating_set_of_a_quadric():
    # On the comm4 hyperbolic C(A) every basis element but x2.x1.x2.x1
    # (index 6) joins the generating set.  The unit is e_4 + e_6, so e_6 e_j
    # is broken together with the opposite change of e_4 e_j, which keeps
    # the unit axioms for j outside {4, 6}.
    labels, structure, unit = valid_table("comm4-hyperbolic")
    assert labels[6] == "x2.x1.x2.x1" and unit == [int(k in (4, 6)) for k in range(8)]
    for j, t in itertools.product([0, 1, 2, 3, 5, 7], range(8)):
        bad = [[list(vec) for vec in row] for row in structure]
        bad[6][j][t] += 1
        bad[4][j][t] -= 1
        with pytest.raises(ValueError, match="associativity"):
            dense_algebra(labels, bad, unit)
