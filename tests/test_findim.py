import re
from fractions import Fraction
from pathlib import Path

import pytest

from ncquad import findim, skly
from ncquad.cli import resolve_z_spec
from ncquad.cliff import (HypersurfaceData, clifford_algebra, clifford_with_scale,
                          even_clifford_oracle)
from ncquad.exactlin import Matrix, qq, to_column
from ncquad.families import HYPERBOLIC_FORM, commutative_presentation, word_vector
from ncquad.findim import (AnalysisReport, FinDimAlgebra, analyze, center_basis,
                           commutator_ideal, one_dim_reps_absent,
                           quotient_by_subspace, radical, trace_gram)
from ncquad.qalg import QuadraticPresentation, build_table

ROOT = Path(__file__).resolve().parents[1]

Q4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
Q3 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0))
Q2 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))


def dense_algebra(labels, structure, unit):
    """FinDimAlgebra of a dense grid of structure constants and a dense unit."""
    return FinDimAlgebra(labels, [[to_column(vec) for vec in row] for row in structure],
                         to_column(unit))


def upper_triangular_2x2():
    # basis e11, e22, e12 of the upper triangular 2x2 matrices
    z = [0, 0, 0]
    structure = [
        [[1, 0, 0], z, [0, 0, 1]],
        [z, [0, 1, 0], z],
        [z, [0, 0, 1], z],
    ]
    return dense_algebra(["e11", "e22", "e12"], structure, [1, 1, 0])


def split_commutative_2():
    # k x k with idempotent basis
    structure = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    return dense_algebra(["u", "v"], structure, [1, 1])


def test_oracle_rank4_semisimple():
    assert radical(even_clifford_oracle(Q4)).cols == 0


def test_oracle_rank3_radical():
    assert radical(even_clifford_oracle(Q3)).cols > 0


def test_upper_triangular_radical():
    alg = upper_triangular_2x2()
    rad = radical(alg)
    assert rad.cols == 1
    # the radical is the strictly upper triangular line
    col = rad.column(0)
    assert col[0] == 0 and col[1] == 0 and col[2] != 0


def test_associativity_validation_rejects_bad_table():
    z = [0, 0]
    bad = [[[0, 1], z], [z, z]]
    with pytest.raises(ValueError):
        dense_algebra(["a", "b"], bad, [1, 0])


def test_associativity_validation_names_first_failing_triple():
    # basis 1, a, b with a*b = 1/2 and b*b = (2/3) a: the unit axioms hold,
    # and the first failure is (a*a)*b = 0 against a*(a*b) = a/2
    z = [0, 0, 0]
    structure = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], z, [qq(1, 2), 0, 0]],
        [[0, 0, 1], z, [0, qq(2, 3), 0]],
    ]
    with pytest.raises(ValueError, match=re.escape("basis triple (1, 1, 2)")):
        dense_algebra(["1", "a", "b"], structure, [1, 0, 0])


ONE, A, ZERO = (1, {0: 1}), (1, {1: 1}), (1, {})


# a row index past the dimension is the column form of a dense vector too long
@pytest.mark.parametrize("columns, unit", [
    ([[ONE, A]], ONE),
    ([[ONE, A], [A]], ONE),
    ([[ONE, A], [A, ZERO]], (1, {2: 1})),
    ([[ONE, A], [A, (1, {2: 1})]], ONE),
    ([[ONE, A], [A, (1, {-1: 1})]], ONE),
    ([[ONE, A, ZERO], [A, ZERO]], ONE),
    ([[ONE, A], [A, [1, 0]]], ONE),
    ([[ONE, A], [A, (1, {0: 1}, 1)]], ONE),
], ids=["missing-row", "short-row", "long-unit", "long-vector", "negative-index", "long-row",
        "dense-entry", "triple"])
def test_structure_shape_mismatch(columns, unit):
    with pytest.raises(ValueError, match="structure constant shape mismatch"):
        FinDimAlgebra(["a", "b"], columns, unit)


@pytest.mark.parametrize("bad", [
    (1, {1: 1.0}), (1, {1: Fraction(1)}), (1, {1: True}), (1, {True: 1}),
    (1.0, {1: 1}), (Fraction(1), {1: 1}), (True, {1: 1}), (0, {1: 1}), (-1, {1: 1}),
], ids=["float", "fraction", "bool", "bool-index", "float-den", "fraction-den",
        "bool-den", "zero-den", "negative-den"])
def test_structure_constants_must_be_integer_columns(bad):
    with pytest.raises(ValueError, match="integer columns"):
        FinDimAlgebra(["a", "b"], [[ONE, A], [A, bad]], ONE)
    with pytest.raises(ValueError, match="integer columns"):
        FinDimAlgebra(["a", "b"], [[ONE, A], [A, ZERO]], bad)


def test_columns_over_any_denominator():
    # a column need not be canonical: (2, {1: 2}) is the vector a
    alg = FinDimAlgebra(["1", "a"], [[ONE, (2, {1: 2})], [A, (3, {})]], (5, {0: 5}))
    assert alg.structure == [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    assert alg.unit == [1, 0]
    assert radical(alg).cols == 1


def test_unit_validation():
    structure = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    with pytest.raises(ValueError):
        dense_algebra(["a", "b"], structure, [0, 1])


def test_one_dim_reps_absent_matrix_blocks():
    assert one_dim_reps_absent(even_clifford_oracle(HYPERBOLIC_FORM))


def test_one_dim_reps_present_commutative():
    assert not one_dim_reps_absent(split_commutative_2())


def test_one_dim_reps_absent_quadric_invariant():
    comm = commutative_presentation()
    diag4 = word_vector(4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1})
    alg = clifford_algebra(HypersurfaceData(comm, diag4))
    assert one_dim_reps_absent(alg)


def test_analyze_rank4():
    report = analyze(even_clifford_oracle(Q4))
    assert report.smooth and report.ruling_count == 2
    assert report.radical_dim == 0
    assert report.invariants() == (8, 0, 2, 2)


def test_analyze_rank3_cone():
    report = analyze(even_clifford_oracle(Q3))
    assert not report.smooth and report.ruling_count == 1


def test_analyze_rank2_no_ruling_count():
    report = analyze(even_clifford_oracle(Q2))
    assert not report.smooth
    assert report.ruling_count is None
    assert report.to_dict()["ruling_count"] == "n/a"


def test_analyze_agrees_with_construction_across_ranks():
    comm = commutative_presentation()
    pairs = [
        (word_vector(4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1}), Q4),
        (word_vector(4, {(0, 0): 1, (1, 1): 1, (2, 2): 1}), Q3),
        (word_vector(4, {(0, 0): 1, (1, 1): 1}), Q2),
    ]
    for lift, q in pairs:
        ours = analyze(clifford_algebra(HypersurfaceData(comm, lift)))
        oracle = analyze(even_clifford_oracle(q))
        assert ours.invariants() == oracle.invariants()
        assert ours.smooth == oracle.smooth
        assert ours.ruling_count == oracle.ruling_count


def test_center_of_quotient():
    alg = upper_triangular_2x2()
    rad = radical(alg)
    quo, project = quotient_by_subspace(alg, rad)
    assert quo.dim == 2
    assert center_basis(quo).cols == 2
    assert center_basis(alg).cols == 1


def test_quotient_by_zero_ideal_is_the_algebra():
    alg = even_clifford_oracle(Q4)
    quo, project = quotient_by_subspace(alg, radical(alg))
    assert quo is alg
    v = [qq(k, 3) for k in range(8)]
    assert project(v) == v
    with pytest.raises(RuntimeError):
        quotient_by_subspace(alg, Matrix.identity(8))


def test_commutator_ideal_full_for_blocks():
    alg = even_clifford_oracle(HYPERBOLIC_FORM)
    assert commutator_ideal(alg).rank == 8


def test_trace_gram_symmetric():
    alg = even_clifford_oracle(Q3)
    t = trace_gram(alg)
    assert t == t.transpose()


def test_report_serialization():
    report = analyze(even_clifford_oracle(Q4))
    d = report.to_dict()
    assert d["smooth"] is True and d["ruling_count"] == 2
    assert isinstance(report, AnalysisReport)


def test_radical_cross_check_runs_on_every_analysis():
    # degenerate and split algebras all pass the nilpotency and
    # quotient-nondegeneracy verification without raising
    for q in (Q4, Q3, Q2):
        analyze(even_clifford_oracle(q))
    analyze(upper_triangular_2x2())
    analyze(split_commutative_2())


def _sklyanin_member(lam):
    S = QuadraticPresentation.load((ROOT / "presentations/sklyanin_a.json").read_text())
    table = build_table(S, 3)
    w1, w2 = (resolve_z_spec(k, S, table) for k in ("0", "1"))
    return S, [a + qq(lam) * b for a, b in zip(w1, w2)]


def test_analysis_reads_only_the_integer_table(monkeypatch):
    # every step after the constructor reads the integer table, so the dense
    # structure view stays unbuilt through C(A), analyze and a pencil sample,
    # on a smooth and a singular member
    for small in (even_clifford_oracle(Q3), upper_triangular_2x2()):
        analyze(small)
        assert small._structure is None
    seen = []
    monkeypatch.setattr(skly, "trace_gram", lambda a: seen.append(a) or trace_gram(a))
    for lam in ("3", "1"):
        S, lift = _sklyanin_member(lam)
        alg, _ = clifford_with_scale(HypersurfaceData(S, lift))
        analyze(alg)
        assert alg._structure is None
        skly._scan_sample(S, lift)
        assert seen[-1]._structure is None
    # read, the view holds the products of basis vectors
    n = alg.dim
    assert alg.structure == [[alg.multiply(alg.basis_vector(i), alg.basis_vector(j))
                              for j in range(n)] for i in range(n)]
    assert alg.multiply(alg.unit, alg.unit) == alg.unit


# The cross-check's three failures, each reached by a trace-form kernel
# that is wrong in one way: a line that is not an ideal, the whole
# algebra (not nilpotent), and the zero subspace where the radical is
# not zero, so the quotient is the algebra and its Gram matrix, the one
# the kernel was taken of, is singular.
@pytest.mark.parametrize("algebra, kernel, message", [
    (upper_triangular_2x2, lambda: Matrix(3, 1, [[1], [0], [0]]), "not a two-sided ideal"),
    (upper_triangular_2x2, lambda: Matrix.identity(3), "not nilpotent"),
    (lambda: clifford_algebra(HypersurfaceData(commutative_presentation(),
                                               word_vector(4, {(0, 0): 1, (1, 1): 1,
                                                               (2, 2): 1}))),
     lambda: Matrix.zero(8, 0), "quotient trace form degenerate"),
], ids=["not-an-ideal", "not-nilpotent", "degenerate-quotient"])
def test_radical_cross_check_failures(monkeypatch, algebra, kernel, message):
    alg = algebra()
    monkeypatch.setattr(findim, "kernel_basis", lambda m: kernel())
    with pytest.raises(RuntimeError, match="radical cross-check failed: .*" + message):
        radical(alg)
