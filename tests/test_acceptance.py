"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest report.
"""

import itertools
import time

from ncquad import kzero, skly
from ncquad.cliff import (HypersurfaceData, clifford_algebra, compare_invariants,
                          even_clifford_oracle, verify_matrix_factorization)
from ncquad.exactlin import (LaurentPoly, Matrix, RationalSeries, det, expand,
                             poly_interpolate, poly_squarefree_degree, qq)
from ncquad.families import (HYPERBOLIC_FORM, commutative_presentation,
                             sklyanin_gamma, sklyanin_presentation, word_vector)
from ncquad.findim import analyze, radical
from ncquad.qalg import (QuadraticPresentation, build_table,
                         central_quadratic_space, element_word_lift, hilbert,
                         koszul_identity_check, multiply)
from ncquad.skly import Curve, SecantLine, pencil_discriminant

COMM = commutative_presentation()

FOUR_FORMS = {
    "hyperbolic": word_vector(4, {(0, 3): 1, (1, 2): -1}),
    "rank4": word_vector(4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1}),
    "rank3": word_vector(4, {(0, 0): 1, (1, 1): 1, (2, 2): 1}),
    "rank2": word_vector(4, {(0, 0): 1, (1, 1): 1}),
}

FORM_MATRICES = {
    "hyperbolic": HYPERBOLIC_FORM,
    "rank4": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    "rank3": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)),
    "rank2": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
}


def _verdict(number, description, ok, elapsed, budget=None):
    within = budget is None or elapsed < budget
    status = "PASS" if (ok and within) else "FAIL"
    extra = "" if budget is None else " [budget %ds]" % budget
    print("criterion %2d: %s (%.2fs)%s - %s" % (number, status, elapsed, extra,
                                                description))
    assert ok, "criterion %d failed: %s" % (number, description)
    assert within, "criterion %d exceeded budget: %.1fs" % (number, elapsed)


def test_criterion_01_clifford_dimension():
    ok = True
    worst = 0.0
    for name, lift in FOUR_FORMS.items():
        t0 = time.monotonic()
        alg = clifford_algebra(HypersurfaceData(COMM, lift))
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        ok = ok and alg.dim == 8 and dt < 10.0
    _verdict(1, "dim C(A) = 8 for all four commutative forms, <10s each",
             ok, worst)


def test_criterion_02_oracle_equivalence():
    t0 = time.monotonic()
    ok = True
    for name, lift in FOUR_FORMS.items():
        ours = clifford_algebra(HypersurfaceData(COMM, lift))
        oracle_alg = even_clifford_oracle(FORM_MATRICES[name])
        report = compare_invariants(ours, oracle_alg)
        ok = ok and report.equal
    _verdict(2, "invariant tuples match the even Clifford oracle on all four forms",
             ok, time.monotonic() - t0)


def test_criterion_03_smoothness_classification():
    t0 = time.monotonic()
    expect = {"hyperbolic": (True, 2), "rank4": (True, 2), "rank3": (False, 1)}
    ok = True
    for name, (smooth, rulings) in expect.items():
        report = analyze(clifford_algebra(HypersurfaceData(COMM, FOUR_FORMS[name])))
        ok = ok and report.smooth == smooth and report.ruling_count == rulings
    _verdict(3, "rank-4 forms smooth with 2 rulings, rank-3 singular with 1",
             ok, time.monotonic() - t0)


def test_criterion_04_hilbert_suite():
    t0 = time.monotonic()
    one_minus_t = LaurentPoly({0: 1, 1: -1})
    series = RationalSeries(LaurentPoly({0: 1, 1: 1}),
                            one_minus_t * one_minus_t * one_minus_t)
    ok = expand(series, 4) == [1, 4, 9, 16, 25]
    quotient = QuadraticPresentation(
        COMM.generator_names, list(COMM.relations) + [FOUR_FORMS["hyperbolic"]])
    ok = ok and hilbert(build_table(quotient, 4)) == [1, 4, 9, 16, 25]
    from ncquad.qalg import koszul_dual
    ok = ok and hilbert(build_table(koszul_dual(quotient), 7)) == \
        [1, 4, 7, 8, 8, 8, 8, 8]
    ok = ok and koszul_identity_check(quotient, 8) == [0] * 9
    _verdict(4, "quotient Hilbert series, dual dimensions, Koszul residual",
             ok, time.monotonic() - t0, budget=30)


def test_criterion_05_sklyanin_validation():
    t0 = time.monotonic()
    ok = True
    for alpha, beta in (("1/2", "-1/3"), ("1/3", "-1/7")):
        gamma = sklyanin_gamma(alpha, beta)
        pres = sklyanin_presentation(alpha, beta, gamma)
        table = build_table(pres, 5)
        ok = ok and hilbert(table) == [1, 4, 10, 20, 35, 56]
        ok = ok and central_quadratic_space(table).cols == 2
    _verdict(5, "two parameter triples: dims [1,4,10,20,35,56], center dim 2",
             ok, time.monotonic() - t0, budget=120)


def _control_oracle_count():
    m1 = HYPERBOLIC_FORM
    m2 = FORM_MATRICES["rank4"]
    xs = [qq(k) for k in range(5)]
    ys = []
    for x in xs:
        entries = [[qq(m1[i][j]) + x * qq(m2[i][j]) for j in range(4)]
                   for i in range(4)]
        ys.append(det(Matrix(4, 4, entries)))
    pencil_poly = poly_interpolate(xs, ys)
    inf_singular = det(Matrix(4, 4, [[qq(c) for c in row] for row in m2])) == 0
    return poly_squarefree_degree(pencil_poly) + (1 if inf_singular else 0)


def test_criterion_06_pencil_algebraic_route(monkeypatch):
    # the scan stops once d + e + 1 = 49 members agree with a fit of degree
    # e = 16: 49 sklyanin samples, and 50 control ones, as lambda = 0 has
    # another normal-word pattern.  Every member goes through
    # clifford_with_scale: the samples, the member at infinity and, for
    # sklyanin, its pole at 5/9.  One usable CPU keeps every build in this
    # process, where the counts can see it
    monkeypatch.setattr(skly, "_usable_cpus", lambda: 1)
    built, members = [], []
    scan_sample, with_scale = skly._scan_sample, skly.clifford_with_scale
    monkeypatch.setattr(skly, "_scan_sample",
                        lambda S, lift: built.append(S) or scan_sample(S, lift))
    monkeypatch.setattr(skly, "clifford_with_scale",
                        lambda h: members.append(h) or with_scale(h))
    t0 = time.monotonic()
    samples = list(range(74))
    control = pencil_discriminant(COMM, FOUR_FORMS["hyperbolic"],
                                  FOUR_FORMS["rank4"], samples, 32)
    ok = control.distinct_root_count == _control_oracle_count()
    ok = ok and len(built) <= 50 and len(members) <= 51

    pres = sklyanin_presentation("1/2", "-1/3", sklyanin_gamma("1/2", "-1/3"))
    table = build_table(pres, 3)
    center = central_quadratic_space(table)
    omega1 = element_word_lift(table, center.column(0), 2)
    omega2 = element_word_lift(table, center.column(1), 2)
    built.clear()
    members.clear()
    skly_report = pencil_discriminant(pres, omega1, omega2, samples, 32,
                                      table=table)
    ok = ok and skly_report.distinct_root_count == 4
    ok = ok and skly_report.certified and len(built) <= 49 and len(members) <= 51
    _verdict(6, "pencil scan: control matches 4x4 determinant oracle, "
                "elliptic pencil has 4 singular members",
             ok, time.monotonic() - t0, budget=600)


def _ruling_class_count(curve, label, points):
    lines = []
    z = label.rep
    partner = curve.partner(z)
    for p in points:
        lines.append(SecantLine.of(p, curve.add(z, curve.neg(p))))
        lines.append(SecantLine.of(p, curve.add(partner, curve.neg(p))))
    classes = []
    for line in lines:
        assert curve.line_on_quadric(line, label)
        for cls in classes:
            if curve.same_ruling(line, cls[0], label):
                cls.append(line)
                break
        else:
            classes.append([line])
    return len(classes)


def test_criterion_07_pencil_elliptic_route():
    t0 = time.monotonic()
    curve = Curve(5, -5, tau=(-4, 6))
    labels = curve.singular_labels()
    ok = len(set(labels)) == 4
    sample_points = [curve.mul(k, curve.tau) for k in (1, 2, 4)]
    for k in (1, 3, 5):
        z = curve.mul(k, curve.tau)
        if curve.is_singular(z):
            continue
        ok = ok and _ruling_class_count(curve, curve.label(z), sample_points) == 2
    for label in labels:
        ok = ok and _ruling_class_count(curve, label, sample_points) == 1
    _verdict(7, "four singular labels; 2 ruling classes on smooth members, "
                "1 on singular", ok, time.monotonic() - t0, budget=5)


def test_criterion_08_k0_identity_suite():
    t0 = time.monotonic()
    a, l, lp, p = kzero.A, kzero.L, kzero.LP, kzero.P
    basis = (a, l, lp, p)
    expected_euler = ((1, 1, 1, 1), (-1, 0, -1, 0), (-1, -1, 0, 0), (1, 0, 0, 0))
    ok = all(kzero.euler(x, y) == expected_euler[i][j]
             for i, x in enumerate(basis) for j, y in enumerate(basis))
    ok = ok and all(kzero.euler(x, y) == kzero.euler(y, kzero.act_t(x, 2))
                    and kzero.euler(kzero.act_t(x), kzero.act_t(y)) == kzero.euler(x, y)
                    for x in basis for y in basis)
    ok = ok and kzero.euler(kzero.m_class(), kzero.m_prime_class()) == 0
    omt = lambda v: v - kzero.act_t(v)
    ok = ok and omt(omt(l)).is_zero()
    ok = ok and (omt(omt(a)) - 2 * omt(l)).is_zero()
    report = kzero.relation_suite()
    ok = ok and report["ok"]
    kc = a + 4 * kzero.act_t(a) - kzero.act_t(a, 2) \
        - 2 * (kzero.m_class() + kzero.m_prime_class())
    ok = ok and kc.is_zero()
    for i in range(11):
        f = kzero.fat_class(i)
        ok = ok and f == l - lp + (i + 1) * p
        ok = ok and kzero.euler(f, f) == 2 and kzero.intersect(f, f) == -2
    h = kzero.h_class()
    zero_pairs = ((l, l), (l, p), (h, p), (p, h), (p, l), (lp, lp))
    one_pairs = ((l, lp), (l, h), (lp, h), (h, lp), (h, l), (lp, l))
    ok = ok and all(kzero.intersect(x, y) == 0 for x, y in zero_pairs)
    ok = ok and all(kzero.intersect(x, y) == 1 for x, y in one_pairs)
    _verdict(8, "full Grothendieck-lattice identity suite",
             ok, time.monotonic() - t0, budget=1)


def test_criterion_09_matrix_factorization():
    t0 = time.monotonic()
    phi = [[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]]]
    psi = [[[0, 0, 0, 1], [0, -1, 0, 0]], [[0, 0, -1, 0], [1, 0, 0, 0]]]
    z = FOUR_FORMS["hyperbolic"]
    verdict = verify_matrix_factorization(COMM, phi, psi, z)
    one_minus_t = LaurentPoly({0: 1, 1: -1})
    expected = RationalSeries(LaurentPoly.const(2),
                              one_minus_t * one_minus_t * one_minus_t)
    ok = verdict.ok and verdict.series == expected
    corrupt = [[[0, 0, 0, 1], [0, 1, 0, 0]], [[0, 0, -1, 0], [1, 0, 0, 0]]]
    bad = verify_matrix_factorization(COMM, phi, corrupt, z)
    ok = ok and not bad.ok and bad.witness is not None
    ok = ok and bad.witness.row == 0 and bad.witness.col == 1
    ok = ok and verify_matrix_factorization(COMM, psi, phi, z).ok
    _verdict(9, "adjugate factorization verified with series 2/(1-t)^3; "
                "corrupted factor rejected with witness",
             ok, time.monotonic() - t0)


def test_criterion_10_property_tests():
    t0 = time.monotonic()
    curve = Curve(5, -5, tau=(-4, 6))
    torsion = curve.two_torsion()
    points = [curve.mul(k, curve.tau) for k in range(1, 6)]
    points += [curve.add(p, torsion[1]) for p in points[:5]]
    triple_count = 0
    ok = True
    for p, q, r in itertools.product(points, repeat=3):
        lhs = curve.add(curve.add(p, q), r)
        rhs = curve.add(p, curve.add(q, r))
        ok = ok and lhs == rhs
        triple_count += 1
    ok = ok and triple_count >= 100

    skly = sklyanin_presentation("1/2", "-1/3", sklyanin_gamma("1/2", "-1/3"))
    for pres in (COMM, skly):
        table = build_table(pres, 5)
        basis_elements = [(n, b) for n in range(1, 4) for b in range(table.dims[n])]
        for (da, ia), (db, ib), (dc, ic) in itertools.product(basis_elements, repeat=3):
            if da + db + dc > 5:
                continue
            ea = [qq(1) if k == ia else qq(0) for k in range(table.dims[da])]
            eb = [qq(1) if k == ib else qq(0) for k in range(table.dims[db])]
            ec = [qq(1) if k == ic else qq(0) for k in range(table.dims[dc])]
            lhs = multiply(table, multiply(table, ea, da, eb, db), da + db, ec, dc)
            rhs = multiply(table, ea, da, multiply(table, eb, db, ec, dc), db + dc)
            ok = ok and lhs == rhs

    for name, q in FORM_MATRICES.items():
        analyze(even_clifford_oracle(q))       # radical cross-checks run inside
        analyze(clifford_algebra(HypersurfaceData(COMM, FOUR_FORMS[name])))
    _verdict(10, "group-law associativity on %d triples; table associativity "
                 "through degree 5; radical cross-verification" % triple_count,
             ok, time.monotonic() - t0)
