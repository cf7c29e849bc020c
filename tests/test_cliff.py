import pickle
import random
import sys
from pathlib import Path

import pytest

from ncquad import exactlin, qalg
from ncquad.cliff import (HypersurfaceData, HypothesisViolation,
                          InvariantComparison, clifford_algebra, clifford_from_dual,
                          clifford_with_scale, compare_invariants,
                          congruent_diagonal, dual_central_element,
                          even_clifford_oracle, invariant_tuple, require_central,
                          stable_degree, verify_matrix_factorization, word_vector_class)
from ncquad.cli import resolve_z_spec
from ncquad.exactlin import LaurentPoly, Matrix, RationalSeries, det, kernel_basis, qq
from ncquad.families import (HYPERBOLIC_FORM, commutative_presentation,
                             sklyanin_gamma, sklyanin_presentation,
                             symmetric_form_to_element, word_vector)
from ncquad.findim import analyze, radical, trace_gram
from ncquad.qalg import (QuadraticPresentation, build_table,
                         central_quadratic_space, element_word_lift, is_regular_central,
                         koszul_dual)

ROOT = Path(__file__).resolve().parents[1]
COMM = commutative_presentation()
SKLY = sklyanin_presentation("1/2", "-1/3", sklyanin_gamma("1/2", "-1/3"))
SKLY_A = QuadraticPresentation.load((ROOT / "presentations/sklyanin_a.json").read_text())

HYPER = word_vector(4, {(0, 3): 1, (1, 2): -1})
DIAG4 = word_vector(4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1})
DIAG3 = word_vector(4, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
DIAG2 = word_vector(4, {(0, 0): 1, (1, 1): 1})

Q4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
Q3 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0))
Q2 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))


def test_hypersurface_rejects_dependent_lift():
    comm_rel = word_vector(4, {(0, 1): 1, (1, 0): -1})
    with pytest.raises(HypothesisViolation):
        HypersurfaceData(COMM, comm_rel)


# lifts inside R_S: zero, a relation, and a random rational combination of
# the relations (every coefficient nonzero, so no relation drops out)
@pytest.mark.parametrize("S", [COMM, SKLY_A], ids=["comm4", "sklyanin_a"])
@pytest.mark.parametrize("kind", ["zero", "relation", "combination"])
def test_lift_in_the_relation_span_violates_independence(S, kind):
    rng = random.Random("independence/%s" % kind)
    rels = S.relations
    if kind == "zero":
        lift = [0] * 16
    elif kind == "relation":
        lift = list(rels[rng.randrange(len(rels))])
    else:
        coefs = [qq(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in rels]
        lift = [sum(c * r[k] for c, r in zip(coefs, rels)) for k in range(16)]
    with pytest.raises(HypothesisViolation) as exc:
        HypersurfaceData(S, lift)
    assert exc.value.hypothesis == "independence"
    # one step off the span, the same lift is accepted
    off = next(k for k in range(16) if S.relations[0][k])
    HypersurfaceData(S, [c + (k == off) for k, c in enumerate(lift)])


def test_hypothesis_violation_survives_pickling():
    exc = HypothesisViolation("regularity", "w is not regular")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is HypothesisViolation
    assert (back.hypothesis, str(back)) == ("regularity", str(exc))
    assert str(back) == "regularity hypothesis failed: w is not regular"


def _direct_comparison_kernel(S, words):
    g = S.num_generators
    rows = [[r[i * g + j] for i, j in words] for r in S.integer_rows()[0]]
    return [tuple(c) for c in kernel_basis(Matrix.of_integers(rows, len(words))).columns()]


ALL_WORDS = [(i, j) for i in range(4) for j in range(4)]


def test_rebound_relations_do_not_reuse_the_cached_comparison_kernel():
    S = QuadraticPresentation(COMM.generator_names, COMM.relations)
    comm_kernel = S.comparison_kernel(ALL_WORDS)
    assert comm_kernel == _direct_comparison_kernel(COMM, ALL_WORDS)
    S.relations = SKLY_A.relations
    assert S.comparison_kernel(ALL_WORDS) == _direct_comparison_kernel(SKLY_A, ALL_WORDS)
    assert S.comparison_kernel(ALL_WORDS) != comm_kernel


def test_comparison_kernel_is_cached_per_word_set():
    S, lift = _sklyanin_member("3")
    w, dual_a, _ = dual_central_element(HypersurfaceData(S, lift))
    words = dual_a.words[2]
    assert S.comparison_kernel(words) == [tuple(w)]
    w.append(0)  # the caller's w is its own copy, not the cached column
    assert dual_central_element(HypersurfaceData(S, lift))[0] == w[:-1]
    others = [words[1:], words[::-1], ALL_WORDS]
    for other in others:
        assert S.comparison_kernel(other) == _direct_comparison_kernel(S, other)
    assert S.comparison_kernel(words) == [tuple(w[:-1])]
    assert S.comparison_kernel(words) is S.comparison_kernel(list(words))


def test_rebound_relations_do_not_reuse_the_cached_annihilator():
    S = QuadraticPresentation(COMM.generator_names, COMM.relations)
    comm_rel = word_vector(4, {(0, 1): 1, (1, 0): -1})
    with pytest.raises(HypothesisViolation):
        HypersurfaceData(S, comm_rel)  # fills the cache from comm4's relations
    S.relations = SKLY_A.relations
    assert S.integer_rows() == SKLY_A.integer_rows()
    h = HypersurfaceData(S, comm_rel)  # x0 x1 - x1 x0 is not a Sklyanin relation
    stacked = QuadraticPresentation(S.generator_names, list(S.relations) + [comm_rel])
    assert h.dual.relation_span_equals(koszul_dual(stacked))
    with pytest.raises(HypothesisViolation):
        HypersurfaceData(S, SKLY_A.relations[0])


# w and det(w^2 map) as the comparison through a basis of the dual of S gave
# them; rescaling w by u multiplies det(w^2 map) by u^16, so a change of
# scale shows there even where w itself is a unit vector
@pytest.mark.parametrize("path, spec, w_want, det_want", [
    ("comm4.json", ["x0*x3 - x1*x2"], [0, 0, 0, 1, 0, 1, 0], 1),
    ("comm4.json", ["x0*x0"], [1, 0, 0, 0, 0, 0, 0], 1),
    ("sklyanin_a.json", ["0"], [1, 0, 0, 0, 0, 0, 0], 1),
    ("sklyanin_a.json", ["0", "1"], [1, 0, 0, 0, 0, 0, 0], 1),
], ids=["comm4-hyperbolic", "comm4-rank-one", "sklyanin_a-z0", "sklyanin_a-lambda-1"])
def test_dual_central_element_hyperbolic(path, spec, w_want, det_want):
    p = QuadraticPresentation.load((ROOT / "presentations" / path).read_text())
    table = build_table(p, 3)
    # the pencil member omega1 + 1 * omega2 when two specs are given
    lifts = [resolve_z_spec(s, p, table) for s in spec]
    h = HypersurfaceData(p, [sum(c) for c in zip(*lifts)])
    w, dual_a, _ = dual_central_element(h)
    assert len(w) == dual_a.dims[2] == 7
    assert w == [qq(c) for c in w_want]
    assert clifford_with_scale(h)[1] == det_want


def test_dual_central_element_rank_one():
    z = word_vector(4, {(0, 0): 1})
    alg = clifford_algebra(HypersurfaceData(COMM, z))
    assert alg.dim == 8
    assert radical(alg).cols > 0


def test_dual_central_element_sklyanin():
    table = build_table(SKLY, 3)
    omega = central_quadratic_space(table).column(0)
    lift = element_word_lift(table, omega, 2)
    alg = clifford_algebra(HypersurfaceData(SKLY, lift))
    assert alg.dim == 8


def _sklyanin_member(lam):
    S = QuadraticPresentation.load((ROOT / "presentations/sklyanin_a.json").read_text())
    table = build_table(S, 3)
    centre = central_quadratic_space(table)
    w1, w2 = (element_word_lift(table, centre.column(k), 2) for k in (0, 1))
    return S, [a + qq(lam) * b for a, b in zip(w1, w2)]


def _count_calls(monkeypatch, homes: dict) -> dict:
    """Count calls to each named function of its home module, through every ncquad binding."""
    counts = dict.fromkeys(homes, 0)

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("ncquad")]
    for name, home in homes.items():
        original = getattr(home, name)
        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting(name, original))
    return counts


# multiply, rref and det calls for HypersurfaceData plus clifford_with_scale
# on a sklyanin_a member.  The graded tables eliminate through SpanBuilder's
# integer rows, and regularity checks each z-map by the rank of its integer
# columns; the dual's relations are integer combinations of S's annihilator
# rows, and the w^2 map is inverted on integer columns (inverse_columns).
# So rref serves only S's annihilator and w's comparison kernel, each
# computed once per presentation (the kernel once per set of degree-2 normal
# words): 2 for a presentation's first member, 0 for a later one with the
# same words.  The z-maps, the w^2 map, C(A)'s unit and its prefix products
# are integer column combinations (exactlin.combine), and Matrix has no
# product, so nothing calls multiply.
@pytest.mark.parametrize("lam, want", [
    ("3", {"multiply": 0, "rref": 2, "det": 1}),
    ("5/9", {"multiply": 0, "rref": 2, "det": 1}),
], ids=["lambda-3", "lambda-5/9"])
def test_member_work_counts(monkeypatch, lam, want):
    S, lift = _sklyanin_member(lam)
    counts = _count_calls(monkeypatch, {"multiply": qalg, "rref": exactlin, "det": exactlin})
    clifford_with_scale(HypersurfaceData(S, lift))
    assert counts == want
    clifford_with_scale(HypersurfaceData(S, lift))
    assert counts == {"multiply": 0, "rref": want["rref"], "det": 2 * want["det"]}


# Elimination calls of analyze on C(A) of a sklyanin_a member (rref counts
# the calls kernel_basis makes).  A smooth member takes the trace form's
# kernel, the center's kernel and the quotient trace form's determinant,
# the quotient by a zero radical being C(A) itself; at the singular
# lambda = 1 the quotient costs a second center, and its basis change is
# inverted on integer columns (inverse_columns), without inverse or rref.
@pytest.mark.parametrize("lam, want", [
    ("3", {"rref": 2, "kernel_basis": 2, "inverse": 0, "det": 1}),
    ("5/9", {"rref": 2, "kernel_basis": 2, "inverse": 0, "det": 1}),
    ("1", {"rref": 3, "kernel_basis": 3, "inverse": 0, "det": 1}),
], ids=["lambda-3", "lambda-5/9", "lambda-1"])
def test_analyze_work_counts(monkeypatch, lam, want):
    alg, _ = clifford_with_scale(HypersurfaceData(*_sklyanin_member(lam)))
    counts = _count_calls(monkeypatch, dict.fromkeys(want, exactlin))
    analyze(alg)
    assert counts == want


@pytest.mark.parametrize("lift", [HYPER, DIAG4, DIAG3, DIAG2])
def test_clifford_dimension_eight(lift):
    alg = clifford_algebra(HypersurfaceData(COMM, lift))
    assert alg.dim == 8


def test_clifford_unit_axiom():
    alg = clifford_algebra(HypersurfaceData(COMM, HYPER))
    for i in range(8):
        e = alg.basis_vector(i)
        assert alg.multiply(alg.unit, e) == e
        assert alg.multiply(e, alg.unit) == e


def test_even_oracle_units_and_dims():
    for q in (Q4, Q3, Q2, HYPERBOLIC_FORM):
        alg = even_clifford_oracle(q)
        assert alg.dim == 8


def test_even_oracle_degenerate_has_radical():
    assert radical(even_clifford_oracle(Q3)).cols == 4
    assert radical(even_clifford_oracle(Q4)).cols == 0
    assert radical(even_clifford_oracle(HYPERBOLIC_FORM)).cols == 0


def test_congruent_diagonal():
    diag = congruent_diagonal(HYPERBOLIC_FORM)
    nonzero = [d for d in diag if d]
    assert len(nonzero) == 4
    diag3 = congruent_diagonal(Q3)
    assert sum(1 for d in diag3 if d) == 3
    with pytest.raises(ValueError):
        congruent_diagonal(((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))


FORM_PAIRS = [
    (HYPER, HYPERBOLIC_FORM),
    (DIAG4, Q4),
    (DIAG3, Q3),
    (DIAG2, Q2),
]


@pytest.mark.parametrize("lift,q", FORM_PAIRS)
def test_oracle_equivalence(lift, q):
    ours = clifford_algebra(HypersurfaceData(COMM, lift))
    oracle = even_clifford_oracle(q)
    report = compare_invariants(ours, oracle)
    assert report.equal, report.to_dict()


def test_stable_degree_is_the_smallest_even_degree_past_n_minus_one():
    assert [stable_degree(n) for n in range(1, 8)] == [2, 2, 2, 4, 4, 6, 6]


def _random_form(rng, n, rank):
    """A random symmetric integer n x n form of the given rank: P^T D P, P unitriangular."""
    diag = [rng.choice((-2, -1, 1, 3)) if i < rank else 0 for i in range(n)]
    rng.shuffle(diag)
    p = [[int(i == j) or (rng.randint(-2, 2) if i < j else 0) for j in range(n)]
         for i in range(n)]
    return [[sum(p[k][i] * diag[k] * p[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_random_forms_of_every_rank_match_the_oracle(n):
    # C(A) of a commutative quadric is the even Clifford algebra of its form,
    # of dimension 2^(n-1), for every rank
    rng = random.Random(n)
    S = commutative_presentation(n)
    for rank in range(1, n + 1):
        q = _random_form(rng, n, rank)
        assert sum(1 for d in congruent_diagonal(q) if d) == rank
        ours = clifford_algebra(HypersurfaceData(S, [c for row in q for c in row]))
        oracle = even_clifford_oracle(q)
        assert ours.dim == oracle.dim == 2 ** (n - 1)
        report = compare_invariants(ours, oracle)
        assert report.equal, (q, report.to_dict())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_zero_form_violates_independence(n):
    with pytest.raises(HypothesisViolation) as info:
        HypersurfaceData(commutative_presentation(n), [0] * (n * n))
    assert info.value.hypothesis == "independence"


def test_even_oracle_refuses_a_form_that_is_not_square():
    for q in ([], [[1, 0], [0, 1], [0, 0]], [[1, 0, 0], [0, 1]]):
        with pytest.raises(ValueError):
            even_clifford_oracle(q)


def _square_killed(n):
    """Commutative in n generators with x0^2 = 0: its dual grows past 2^(n-1)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rels = [word_vector(n, {(i, j): 1, (j, i): -1}) for i, j in pairs]
    return QuadraticPresentation(["x%d" % i for i in range(n)],
                                 rels + [word_vector(n, {(0, 0): 1})])


@pytest.mark.parametrize("n, message", [
    (4, "dual dimensions at degrees (4, 6, 8) are (16, 24, 32), expected (8, 8, 8)"),
    (3, "dual dimensions at degrees (2, 4, 4) are (5, 9, 9), expected (4, 4, 4)"),
    (5, "dual dimensions at degrees (4, 6, 8) are (28, 44, 60), expected (16, 16, 16)"),
], ids=["n=4", "n=3", "n=5"])
def test_stabilization_failure_names_two_to_the_n_minus_one(n, message):
    # the n = 4 text is the one the construction has always given
    with pytest.raises(HypothesisViolation) as info:
        clifford_algebra(HypersurfaceData(_square_killed(n), word_vector(n, {(1, 1): 1})))
    assert (info.value.hypothesis, info.value.message) == ("stabilization", message)


def test_compare_self_and_different_ranks():
    c4 = even_clifford_oracle(Q4)
    assert compare_invariants(c4, c4).equal
    c3 = even_clifford_oracle(Q3)
    report = compare_invariants(c4, c3)
    assert not report.equal
    assert report.left[1] != report.right[1]  # radical dims differ


def test_scale_invariance_quantity():
    alg, det_w2 = clifford_with_scale(HypersurfaceData(COMM, HYPER))
    assert det_w2 != 0
    # w rescaled by u = 2/3 gives the w^2 map columns with denominators:
    # det(w^2 map) scales by u^16 and the trace form's determinant by u^-32
    w, table, _ = dual_central_element(HypersurfaceData(COMM, HYPER))

    def gram_and_w2_dets(v):
        a, d = clifford_from_dual(table, v, is_regular_central(table, v, 8))
        return det(trace_gram(a)) / a.den ** (2 * a.dim), d
    u = qq(2, 3)
    (g1, d1), (gu, du) = gram_and_w2_dets(w), gram_and_w2_dets([u * c for c in w])
    assert d1 == det_w2 and g1 != 0
    assert du == d1 * u ** 16 and gu == g1 / u ** 32


# -- matrix factorization --

PHI = [[[1, 0, 0, 0], [0, 1, 0, 0]],
       [[0, 0, 1, 0], [0, 0, 0, 1]]]    # [[x0, x1], [x2, x3]]
PSI = [[[0, 0, 0, 1], [0, -1, 0, 0]],
       [[0, 0, -1, 0], [1, 0, 0, 0]]]   # adjugate [[x3, -x1], [-x2, x0]]


def test_mf_adjugate_verifies():
    verdict = verify_matrix_factorization(COMM, PHI, PSI, HYPER)
    assert verdict.ok
    one_minus_t = LaurentPoly({0: 1, 1: -1})
    expected = RationalSeries(LaurentPoly.const(2),
                              one_minus_t * one_minus_t * one_minus_t)
    assert verdict.series == expected


def test_mf_series_is_s_ha_over_one_plus_t():
    verdict = verify_matrix_factorization(COMM, PHI, PSI, HYPER)
    one_minus_t = LaurentPoly({0: 1, 1: -1})
    one_plus_t = LaurentPoly({0: 1, 1: 1})
    h_a = RationalSeries(one_plus_t, one_minus_t * one_minus_t * one_minus_t)
    target = RationalSeries(LaurentPoly.const(2) * h_a.numerator,
                            h_a.denominator * one_plus_t)
    assert verdict.series == target


def test_mf_periodicity_shadow():
    # H_M(t) (1 - t^2) = s H_A(t) (1 - t)
    verdict = verify_matrix_factorization(COMM, PHI, PSI, HYPER)
    s = verdict.series
    one_minus_t = LaurentPoly({0: 1, 1: -1})
    one_minus_t2 = LaurentPoly({0: 1, 2: -1})
    one_plus_t = LaurentPoly({0: 1, 1: 1})
    lhs = RationalSeries(s.numerator * one_minus_t2, s.denominator)
    h_a = RationalSeries(one_plus_t, one_minus_t * one_minus_t * one_minus_t)
    rhs = RationalSeries(2 * h_a.numerator * one_minus_t, h_a.denominator)
    assert lhs == rhs


def test_mf_sign_flip_rejected_with_witness():
    bad = [[[0, 0, 0, 1], [0, 1, 0, 0]],     # +x1 instead of -x1
           [[0, 0, -1, 0], [1, 0, 0, 0]]]
    verdict = verify_matrix_factorization(COMM, PHI, bad, HYPER)
    assert not verdict.ok
    assert verdict.witness is not None
    assert verdict.witness.product in ("phi.psi", "psi.phi")
    assert "entry" in verdict.witness.describe()


def test_mf_swapped_pair_verifies():
    verdict = verify_matrix_factorization(COMM, PSI, PHI, HYPER)
    assert verdict.ok


def test_mf_is_checked_in_the_algebra_of_s():
    # in sklyanin_a, x0 x3 - x1 x2 is not the product of these factors; a
    # comm4 table would multiply them commutatively and accept them
    z = word_vector(4, {(0, 3): 1, (1, 2): -1})
    assert not verify_matrix_factorization(SKLY_A, PHI, PSI, z).ok


def test_mf_shape_validation():
    with pytest.raises(ValueError):
        verify_matrix_factorization(COMM, [[[1, 0, 0, 0]]], PSI, HYPER)


def test_word_vector_class_matches_form():
    table = build_table(COMM, 2)
    z = word_vector_class(table, symmetric_form_to_element(HYPERBOLIC_FORM))
    z2 = word_vector_class(table, HYPER)
    assert z == z2


def test_invariant_comparison_serialization():
    c = even_clifford_oracle(Q4)
    d = compare_invariants(c, c).to_dict()
    assert d["equal"] is True
    assert set(d["left"]) == set(InvariantComparison.FIELDS)


def _unimodular(rng, n):
    """A random n x n integer matrix with entries in [-2, 2] and determinant +-1."""
    while True:
        g = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if det(Matrix(n, n, g)) in (1, -1):
            return g


def _substitute(vec, g):
    """A degree-2 word vector in x rewritten in y, x = g y: the map (g (x) g)^T."""
    n = len(g)
    return [sum(vec[i * n + j] * g[i][k] * g[j][l] for i in range(n) for j in range(n))
            for k in range(n) for l in range(n)]


def _verdict(S, lift):
    require_central(build_table(S, 3), lift, "z")
    alg = clifford_algebra(HypersurfaceData(S, lift))
    return analyze(alg).to_dict(), invariant_tuple(alg)


# a change of generators x = g y, g in GL4(Z), rewrites every relation and
# z by (g (x) g)^T; the quadric is the same, and so is every verdict
@pytest.mark.parametrize("family", ["sklyanin_a", "comm4"])
def test_change_of_generators_keeps_the_verdict(family):
    rng = random.Random("change-of-generators/%s" % family)
    if family == "sklyanin_a":
        cases = [_sklyanin_member(lam) for lam in ("1", "3", "-1/2", "5/9", "0", "-7/4")]
    else:
        cases = [(COMM, [c for row in _random_form(rng, 4, rank) for c in row])
                 for rank in (1, 2, 3, 4)]
    for S, lift in cases:
        g = _unimodular(rng, 4)
        moved = QuadraticPresentation(S.generator_names,
                                      [_substitute(r, g) for r in S.relations])
        assert _verdict(moved, _substitute(lift, g)) == _verdict(S, lift), g
