import os
import signal
import subprocess
import sys
import threading
from collections import Counter

import pytest

from ncquad import skly
from ncquad.cliff import HypersurfaceData, HypothesisViolation, clifford_algebra
from ncquad.exactlin import kernel_basis, poly_eval, qq
from ncquad.families import (commutative_presentation, sklyanin_gamma,
                             sklyanin_presentation, symmetric_form_to_element,
                             word_vector)
from ncquad.findim import analyze
from ncquad.qalg import (QuadraticPresentation, build_table, central_quadratic_space,
                         element_word_lift)
from ncquad.skly import (INFINITY, Curve, ECPoint, PencilError, SecantLine,
                         fat_point_h0, pencil_discriminant)

CURVE = Curve(5, -5, tau=(-4, 6))


def test_point_validation():
    with pytest.raises(ValueError):
        CURVE.point(1, 1)
    p = CURVE.point(-4, 6)
    assert CURVE.contains(p)


def test_singular_curve_rejected():
    with pytest.raises(ValueError):
        Curve(0, 3)
    with pytest.raises(ValueError):
        Curve(3, 3)


def test_identity_and_inverse():
    p = CURVE.point(-4, 6)
    assert CURVE.add(p, INFINITY) == p
    assert CURVE.add(INFINITY, p) == p
    assert CURVE.add(p, CURVE.neg(p)) == INFINITY


def test_duplication_formula_oracle():
    # duplication formula worked out by hand for y^2 = x^3 - 25x at (-4, 6):
    # slope 23/12, image ((41/12)^2, -62279/1728)
    p = CURVE.point(-4, 6)
    d = CURVE.mul(2, p)
    assert d == ECPoint(qq(1681, 144), qq(-62279, 1728))


def test_mul_matches_repeated_addition():
    p = CURVE.point(-4, 6)
    acc = INFINITY
    for n in range(8):
        assert CURVE.mul(n, p) == acc
        acc = CURVE.add(acc, p)
    assert CURVE.mul(-3, p) == CURVE.neg(CURVE.mul(3, p))


def test_mul_rejects_a_float_multiple():
    with pytest.raises(TypeError):
        CURVE.mul(2.9, CURVE.point(-4, 6))


def test_two_torsion():
    pts = CURVE.two_torsion()
    assert set(str(p) for p in pts) == {"O", "(0, 0)", "(5, 0)", "(-5, 0)"}
    for p in pts:
        assert CURVE.mul(2, p) == INFINITY
    other = Curve(1, -1)
    assert {str(p) for p in other.two_torsion()} == {"O", "(0, 0)", "(1, 0)", "(-1, 0)"}


def test_group_law_associativity_sample():
    pts = [CURVE.mul(k, CURVE.tau) for k in range(1, 5)]
    pts += [CURVE.add(p, CURVE.two_torsion()[1]) for p in pts[:2]]
    for p in pts:
        for q in pts:
            assert CURVE.add(p, q) == CURVE.add(q, p)
            for r in pts[:3]:
                assert CURVE.add(CURVE.add(p, q), r) == CURVE.add(p, CURVE.add(q, r))


def test_label_involution():
    for n in (1, 2, 3, 7):
        z = CURVE.mul(n, CURVE.tau)
        assert CURVE.label(z) == CURVE.label(CURVE.partner(z))


def test_label_singleton_orbit_for_torsion_tau():
    # with tau itself 2-torsion, z = -tau is fixed by z -> -z - 2 tau
    c = Curve(5, -5, tau=(0, 0))
    z = c.neg(c.tau)
    assert c.partner(z) == z
    assert c.label(z).rep == z


def test_line_membership_and_rulings():
    z = CURVE.mul(3, CURVE.tau)
    lab = CURVE.label(z)
    assert not CURVE.is_singular(z)
    w = CURVE.partner(z)
    pts = [CURVE.mul(k, CURVE.tau) for k in (1, 2, 4)]
    fam_z = [SecantLine.of(p, CURVE.add(z, CURVE.neg(p))) for p in pts]
    fam_w = [SecantLine.of(p, CURVE.add(w, CURVE.neg(p))) for p in pts]
    for l in fam_z + fam_w:
        assert CURVE.line_on_quadric(l, lab)
    assert CURVE.same_ruling(fam_z[0], fam_z[1], lab)
    assert CURVE.same_ruling(fam_w[0], fam_w[1], lab)
    assert not CURVE.same_ruling(fam_z[0], fam_w[0], lab)
    off = SecantLine.of(pts[1], pts[2])  # sum 6 tau, on neither family
    assert not CURVE.line_on_quadric(off, lab)
    with pytest.raises(ValueError):
        CURVE.same_ruling(off, fam_z[0], lab)


def test_singular_label_single_ruling():
    omega = CURVE.two_torsion()[1]
    z = CURVE.add(omega, CURVE.neg(CURVE.tau))
    assert CURVE.is_singular(z)
    lab = CURVE.label(z)
    pts = [CURVE.mul(k, CURVE.tau) for k in (1, 2, 4, 5)]
    lines = [SecantLine.of(p, CURVE.add(z, CURVE.neg(p))) for p in pts]
    lines += [SecantLine.of(p, CURVE.add(CURVE.partner(z), CURVE.neg(p))) for p in pts]
    for l1 in lines:
        for l2 in lines:
            assert CURVE.same_ruling(l1, l2, lab)


def test_is_singular_examples():
    assert CURVE.is_singular(CURVE.neg(CURVE.tau))
    assert not CURVE.is_singular(CURVE.mul(5, CURVE.tau))


def test_singular_labels_cardinality():
    labels = CURVE.singular_labels()
    assert len(labels) == 4
    assert len(set(labels)) == 4
    for lab in labels:
        assert CURVE.is_singular(lab.rep)


def test_coplanarity():
    p = CURVE.point(-4, 6)
    q = CURVE.mul(2, p)
    assert CURVE.coplanar(p, CURVE.neg(p), q, CURVE.neg(q))
    assert not CURVE.coplanar(p, q, CURVE.add(p, q), p)
    # secant-plane completion: s = -p - q - r closes any three points
    r = CURVE.mul(3, p)
    s = CURVE.neg(CURVE.add(CURVE.add(p, q), r))
    assert CURVE.coplanar(p, q, r, s)


def test_fat_point_incidence():
    omega = CURVE.two_torsion()[1]
    target = CURVE.add(omega, CURVE.mul(2, CURVE.tau))
    p = CURVE.point(-4, 6)
    line = SecantLine.of(p, CURVE.add(target, CURVE.neg(p)))
    assert CURVE.fat_point_lines(omega, 2, line)
    assert not CURVE.fat_point_lines(omega, 1, line)
    with pytest.raises(ValueError):
        CURVE.fat_point_lines(CURVE.point(-4, 6), 1, line)


def test_fat_point_h0():
    assert fat_point_h0(2) == 3
    assert [fat_point_h0(i) for i in range(4)] == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        fat_point_h0(-1)


def test_fat_point_sequence_lines_in_different_rulings():
    # the two lines resolving a fat point have sums omega + i tau and
    # omega - (i + 2) tau, hence lie in different rulings of the member
    omega = CURVE.two_torsion()[1]
    i = 1
    z = CURVE.add(omega, CURVE.mul(i, CURVE.tau))
    lab = CURVE.label(z)
    partner_sum = CURVE.add(omega, CURVE.mul(-(i + 2), CURVE.tau))
    assert CURVE.partner(z) == partner_sum
    p = CURVE.point(-4, 6)
    l1 = SecantLine.of(p, CURVE.add(z, CURVE.neg(p)))
    shifted = CURVE.add(p, CURVE.mul(-(i + 1), CURVE.tau))
    l2 = SecantLine.of(shifted, CURVE.add(partner_sum, CURVE.neg(shifted)))
    assert CURVE.line_on_quadric(l1, lab) and CURVE.line_on_quadric(l2, lab)
    assert not CURVE.same_ruling(l1, l2, lab)


# -- pencil scan --

@pytest.fixture
def one_cpu(monkeypatch):
    """Simulate one usable CPU: no helper forks, so this process builds every member."""
    monkeypatch.setattr(skly, "_usable_cpus", lambda: 1)


@pytest.fixture
def helper_forks(monkeypatch):
    """Simulate two usable CPUs; the list of helper pids the scans fork."""
    return _force_helper(monkeypatch)


def _force_helper(monkeypatch):
    monkeypatch.setattr(skly, "_usable_cpus", lambda: 2)
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return pids


def test_degenerate_pencil_constant(monkeypatch):
    # omega2 = omega1: every member is the same quadric, so there is no
    # count to certify; the scan refuses before building a member
    def no_member(*args):
        raise AssertionError("a member was built")
    monkeypatch.setattr(skly, "_scan_sample", no_member)
    comm = commutative_presentation()
    q1 = word_vector(4, {(0, 3): 1, (1, 2): -1})
    with pytest.raises(ValueError, match="dependent classes"):
        pencil_discriminant(comm, q1, q1, list(range(-2, 15)), 3)


def _failed_member_scan(monkeypatch):
    # v = (t + 2)^2, and the member at t = -1 (index 1) violates regularity
    def scan(S, lift):
        if lift[0] == -1:
            raise HypothesisViolation("regularity", "w is not regular")
        return (lift[0] + 2) ** 2, ()
    monkeypatch.setattr(skly, "_scan_sample", scan)
    return pencil_discriminant(*_comm_pencil(), list(range(-2, 9)), 4)


def test_failed_member_is_skipped_with_its_reason(monkeypatch):
    # a member whose construction fails is recorded with the failure and skipped
    report = _failed_member_scan(monkeypatch)
    assert report.skipped == [(-1, "regularity hypothesis failed: w is not regular")]
    assert (report.numerator, report.denominator) == ([4, 4, 1], [1])


def test_pencil_needs_enough_samples():
    comm = commutative_presentation()
    q1 = word_vector(4, {(0, 3): 1, (1, 2): -1})
    q2 = word_vector(4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1})
    with pytest.raises(ValueError, match="^need at least 13 samples at degree bound 8, have 4$"):
        pencil_discriminant(comm, q1, q2, list(range(4)), 8)


def test_pencil_short_sample_list_builds_no_member(monkeypatch):
    def no_member(*args):
        raise AssertionError("a member was built")
    monkeypatch.setattr(skly, "_scan_sample", no_member)
    comm = commutative_presentation()
    q1 = word_vector(4, {(0, 3): 1, (1, 2): -1})
    q2 = word_vector(4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1})
    with pytest.raises(ValueError, match="^need at least 21 samples at degree bound 16, have 10$"):
        pencil_discriminant(comm, q1, q2, list(range(10)), 16)


def test_pencil_refuses_one_below_min_samples(monkeypatch):
    # the fit of the square root has degrees up to (h, h), h = ceil(d / 2):
    # at d = 3 the scan refuses 8 < 2h + 5 = 9 before building a member,
    # and before it looks at omega1 and omega2, here dependent
    def no_member(*args):
        raise AssertionError("a member was built")
    monkeypatch.setattr(skly, "_scan_sample", no_member)
    comm = commutative_presentation()
    q1 = word_vector(4, {(0, 3): 1, (1, 2): -1})
    with pytest.raises(ValueError, match="^need at least 9 samples at degree bound 3, have 8$"):
        pencil_discriminant(comm, q1, q1, list(range(8)), 3)


@pytest.mark.parametrize("scale, relation", [(-3, 0), (1, 1), (0, 0)],
                         ids=["multiple", "plus-a-relation", "zero-omega2"])
def test_pencil_rejects_dependent_classes(monkeypatch, scale, relation):
    # omega2 = scale * omega1 + relation * (x0 x1 - x1 x0): the classes in S_2
    # are dependent, so every member is the same quadric and no count exists
    def no_member(*args):
        raise AssertionError("a member was built")
    monkeypatch.setattr(skly, "_scan_sample", no_member)
    comm = commutative_presentation()
    q1 = word_vector(4, {(0, 3): 1, (1, 2): -1})
    rel = word_vector(4, {(0, 1): 1, (1, 0): -1})
    q2 = [scale * a + relation * b for a, b in zip(q1, rel)]
    with pytest.raises(ValueError, match="dependent classes"):
        pencil_discriminant(comm, q1, q2, list(range(42)), 16)


def test_pencil_rejects_repeated_samples(monkeypatch):
    # 18 samples pass the count 2 ceil(d / 2) + 5 = 9, but only 6 values are
    # distinct, and a fit through repeated values is underdetermined; values
    # compare as rationals, so "12/1" repeats 12
    def no_member(*args):
        raise AssertionError("a member was built")
    monkeypatch.setattr(skly, "_scan_sample", no_member)
    comm = commutative_presentation()
    q1 = word_vector(4, {(0, 3): 1, (1, 2): -1})
    q2 = word_vector(4, {(0, 0): 1, (1, 1): 2, (2, 2): 3, (3, 3): 5})
    with pytest.raises(ValueError, match="^sample values must be distinct rationals$"):
        pencil_discriminant(comm, q1, q2, list(range(1, 7)) * 3, 4)
    with pytest.raises(ValueError, match="^sample values must be distinct rationals$"):
        pencil_discriminant(comm, q1, q2, list(range(13)) + ["12/1"], 4)


def test_pencil_rejects_noncentral():
    skly = sklyanin_presentation("1/2", "-1/3", sklyanin_gamma("1/2", "-1/3"))
    not_central = word_vector(4, {(0, 0): 1})
    table = build_table(skly, 3)
    omega = element_word_lift(table, central_quadratic_space(table).column(0), 2)
    with pytest.raises(HypothesisViolation):
        pencil_discriminant(skly, omega, not_central, list(range(10)), 3, table=table)


def _sklyanin_a_pencil():
    pres = sklyanin_presentation("1/2", "-1/3", sklyanin_gamma("1/2", "-1/3"))
    table = build_table(pres, 3)
    center = central_quadratic_space(table)
    return (pres, element_word_lift(table, center.column(0), 2),
            element_word_lift(table, center.column(1), 2), table)


def _control_pencil():
    # the commutative control pencil of the benchmark's pencil workload at
    # seed 1: the hyperbolic form plus t times a dense full-rank form
    hyperbolic = [[0, 0, 0, qq(1, 2)], [0, 0, qq(-1, 2), 0],
                  [0, qq(-1, 2), 0, 0], [qq(1, 2), 0, 0, 0]]
    form = [[3, -2, 1, -2], [-2, 3, -2, -1], [1, -2, -1, -2], [-2, -1, -2, -3]]
    return (commutative_presentation(), symmetric_form_to_element(hyperbolic),
            symmetric_form_to_element(form), None)


SEED1_SAMPLES = [0, 1, 2, 3, 4, 5, 7, 9, 10, 11, 12, 13, 14, 15, 16, 18, 19, 20,
                 21, 22, 23, 24, 26, 27, 28, 29, 30, 31, 32, 33, 34, 36, 37, 38,
                 39, 40, 41, 42, 43, 44, 45, 47]


@pytest.mark.parametrize("pencil, built", [(_sklyanin_a_pencil, 33), (_control_pencil, 34)],
                         ids=["sklyanin_a", "control"])
def test_root_fit_matches_direct_fit(monkeypatch, one_cpu, pencil, built):
    # reference: the direct fit of the values at degrees (d, d) through the
    # first 2d + 2 samples of the main pattern, from the test's own member
    # builds; the scan itself stops after d + e + 1 = 33 agreeing members
    # (the control also builds lambda = 0, whose pattern differs)
    S, omega1, omega2, table = pencil()
    lifts = [[a + qq(lam) * b for a, b in zip(omega1, omega2)] for lam in SEED1_SAMPLES]
    members = [skly._scan_sample(S, lift) for lift in lifts]
    main = Counter(p for _, p in members).most_common(1)[0][0]
    points = [(qq(lam), v) for lam, (v, p) in zip(SEED1_SAMPLES, members) if p == main]
    calls = []
    scan_sample = skly._scan_sample
    monkeypatch.setattr(skly, "_scan_sample",
                        lambda S, lift: calls.append(lift) or scan_sample(S, lift))
    report = pencil_discriminant(S, omega1, omega2, SEED1_SAMPLES, 16, table=table)
    assert len(calls) == built
    assert (report.fit_degree, report.certified, len(report.sample_values)) == (16, True, 33)
    assert report.sample_values == points[:33]
    assert report.distinct_root_count == 4
    assert skly._rational_fit(points[:34], 16, 16) == (
        report.numerator, report.denominator)


def _diagonal_pencil():
    # omega2 = diag(1, 2, 3, 0) has rank 3, so the member at infinity is singular
    return (commutative_presentation(), word_vector(4, {(0, 3): 1, (1, 2): -1}),
            word_vector(4, {(0, 0): 1, (1, 1): 2, (2, 2): 3}), None)


@pytest.mark.parametrize("pencil, singular, count", [
    (_sklyanin_a_pencil, False, 4), (lambda: (*_comm_pencil(), None), False, 2),
    (_diagonal_pencil, True, 3)], ids=["sklyanin_a", "comm4", "singular-at-infinity"])
def test_member_at_infinity_agrees_with_its_analysis(pencil, singular, count):
    # the scan reads the member at infinity off its trace-form determinant;
    # the reference is the full analysis of its C(A).  The first two are
    # criterion 6's pencils, smooth at infinity
    S, omega1, omega2, table = pencil()
    report = pencil_discriminant(S, omega1, omega2, list(range(42)), 16, table=table)
    assert analyze(clifford_algebra(HypersurfaceData(S, omega2))).smooth == (not singular)
    assert (report.infinity_singular, report.distinct_root_count) == (singular, count)


# Commutative pencils q1 + t q2 whose singular member lam0 sits where the
# normal-word pattern changes: the fit's numerator loses that member's
# factor into its denominator (lam0)^12.  det(q1 + t q2) has four distinct
# roots, lam0 among them, and det(q2) != 0, so the count is 4.
PATTERN_CHANGE_PAIRS = [
    ([[0, 0, 0, 0], [0, -2, 0, -1], [0, 0, 2, 1], [0, -1, 1, -1]],
     [[2, 2, -2, 0], [2, -2, 1, -2], [-2, 1, 1, -1], [0, -2, -1, -1]], 0),
    ([[0, 1, -1, 0], [1, 0, 1, 2], [-1, 1, 1, 1], [0, 2, 1, 1]],
     [[0, 1, -1, -1], [1, 1, 2, 0], [-1, 2, 2, 1], [-1, 0, 1, -2]], -1),
    ([[0, -2, -1, 2], [-2, 1, -2, 0], [-1, -2, 2, -1], [2, 0, -1, 2]],
     [[0, -1, -1, 1], [-1, -1, 1, 0], [-1, 1, 2, -1], [1, 0, -1, 1]], -2),
    ([[2, -1, 0, 2], [-1, 2, -1, 1], [0, -1, 2, -1], [2, 1, -1, -2]],
     [[2, 1, 1, 0], [1, 2, 2, -1], [1, 2, 1, -1], [0, -1, -1, -2]], -1),
]


@pytest.mark.parametrize("q1, q2, lam0", PATTERN_CHANGE_PAIRS,
                         ids=["sample-0", "pole--1", "pole--2", "pole--1-second"])
def test_singular_member_at_a_pattern_change_is_counted(q1, q2, lam0):
    # lam0 = 0 is a sample skipped for its pattern and read off its value;
    # -1 and -2 are no samples and are built as poles of the fit
    comm = commutative_presentation()
    z1, z2 = ([c for row in q for c in row] for q in (q1, q2))
    report = pencil_discriminant(comm, z1, z2, list(range(42)), 16)
    assert (report.distinct_root_count, report.certified) == (4, True)
    assert report.squarefree_degree == 3 and not report.infinity_singular
    assert skly._rational_roots(report.denominator) == ([lam0], True)
    member = [a + lam0 * b for a, b in zip(z1, z2)]
    assert not analyze(clifford_algebra(HypersurfaceData(comm, member))).smooth


@pytest.mark.parametrize("pencil, poles", [(_sklyanin_a_pencil, 1), (_control_pencil, 0)],
                         ids=["sklyanin_a", "control"])
def test_a_pole_is_built_once_unless_it_is_a_sample(monkeypatch, one_cpu, pencil, poles):
    # sklyanin_a's fit has its pole at 5/9, which is no sample: one more
    # member is built, and it is smooth.  The control's pole 0 is a sample
    # skipped for its pattern, read off the value already built
    S, omega1, omega2, table = pencil()
    scans, builds = [], []
    scan_sample, with_scale = skly._scan_sample, skly.clifford_with_scale
    monkeypatch.setattr(skly, "_scan_sample",
                        lambda S, lift: scans.append(lift) or scan_sample(S, lift))
    monkeypatch.setattr(skly, "clifford_with_scale",
                        lambda h: builds.append(h) or with_scale(h))
    report = pencil_discriminant(S, omega1, omega2, SEED1_SAMPLES, 16, table=table)
    assert len(builds) == len(scans) + 1 + poles     # the samples, infinity, the poles
    assert (report.distinct_root_count, report.certified) == (4, True)


def _pole_scan(monkeypatch, q, fail=None):
    """Scan _comm_pencil with v = 1 / q(t)^4 faked at the samples, t = 0..29
    off the roots of q, so the fit's poles are the roots of q; the pole
    members are built for real, and the one at fail raises a violation."""
    samples = [t for t in range(30) if poly_eval(q, qq(t))]
    _patched_scan(monkeypatch, samples, [1 / poly_eval(q, qq(t)) ** 4 for t in samples])
    hypersurface = skly.HypersurfaceData

    def data(S, lift):
        if lift[0] == fail:
            raise HypothesisViolation("regularity", "w is not regular")
        return hypersurface(S, lift)
    monkeypatch.setattr(skly, "HypersurfaceData", data)
    return pencil_discriminant(*_comm_pencil(), samples, 8)


@pytest.mark.parametrize("q, fail, count, certified", [
    ([-4, 0, 1], None, 0, True),       # poles +-2, smooth members
    ([-1, 0, 4], None, 2, True),       # poles +-1/2, the two singular members of the pencil
    ([-2, 0, 1], None, 0, False),      # poles +-sqrt(2): not checked over Q
    ([-4, 0, 1], -2, 0, False),        # the member at the pole -2 cannot be built
], ids=["rational-smooth", "rational-singular", "irrational", "unbuildable"])
def test_poles_join_the_count_or_leave_it_uncertified(monkeypatch, one_cpu, q, fail, count,
                                                      certified):
    # det(q1 + t q2) = (t^2 - 1/4)^2 on _comm_pencil: singular exactly at t = +-1/2
    report = _pole_scan(monkeypatch, [qq(c) for c in q], fail)
    assert (report.distinct_root_count, report.certified) == (count, certified)
    assert report.fit_degree == 8 and report.squarefree_degree == 0


def test_rational_roots_by_bounded_trial_division():
    roots = skly._rational_roots
    assert roots([qq(3)]) == ([], True)
    assert roots([qq(c) for c in (-2, 0, 1)]) == ([], False)
    # (t - 5/9)^8 is read through its squarefree part
    power = [qq(1)]
    for _ in range(8):
        power = skly.poly_mul(power, [qq(-5, 9), qq(1)])
    assert roots(power) == ([qq(5, 9)], True)
    # t (2t - 1)(t^2 + 1)
    assert roots([qq(c) for c in (0, -1, 2, -1, 2)]) == ([0, qq(1, 2)], False)
    # a prime past the trial bound but below its square is found; one past
    # the square cannot be told from a composite, so nothing is decided
    assert roots([qq(-1000003), qq(1)]) == ([1000003], True)
    assert roots([qq(-(2 ** 61 - 1)), qq(1)]) == ([], False)
    assert roots([qq(0), qq(-(2 ** 61 - 1)), qq(1)]) == ([0], False)
    assert sorted(skly._divisors(-12)) == [1, 2, 3, 4, 6, 12]


def _no_member(*args):
    raise AssertionError("a member was built")


def _no_fork():
    raise AssertionError("a helper was forked")


@pytest.mark.parametrize("bound", [-2, 2.5, "16", True])
def test_bad_degree_bound_is_refused_before_any_member(monkeypatch, bound):
    monkeypatch.setattr(skly, "_scan_sample", _no_member)
    monkeypatch.setattr(skly, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", _no_fork)
    with pytest.raises(ValueError, match="^degree bound must be a nonnegative integer"):
        pencil_discriminant(*_comm_pencil(), list(range(42)), bound)
    # min_samples, which sets the scan's sample count, refuses it itself
    with pytest.raises(ValueError, match="^degree bound must be a nonnegative integer"):
        skly.min_samples(bound)


def test_table_must_reach_degree_3_and_be_of_this_algebra(monkeypatch):
    monkeypatch.setattr(skly, "_scan_sample", _no_member)
    monkeypatch.setattr(skly, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", _no_fork)
    comm, q1, q2 = _comm_pencil()
    with pytest.raises(ValueError, match="^need a table through degree 3$"):
        pencil_discriminant(comm, q1, q2, list(range(42)), 8, table=build_table(comm, 2))
    # comm4's table would run sklyanin_a's centrality check in the wrong algebra
    S, omega1, omega2, _ = _sklyanin_a_pencil()
    with pytest.raises(ValueError, match="not a table of this presentation"):
        pencil_discriminant(S, omega1, omega2, list(range(42)), 16, table=build_table(comm, 3))


def test_table_of_the_same_relation_span_serves(monkeypatch, one_cpu):
    comm, q1, q2 = _comm_pencil()
    scaled = QuadraticPresentation(comm.generator_names,
                                   [[-3 * c for c in r] for r in reversed(comm.relations)])
    samples = list(range(24))
    _patched_scan(monkeypatch, samples, _degree_eight_values(samples))
    report = pencil_discriminant(comm, q1, q2, samples, 8, table=build_table(scaled, 3))
    assert report.certified


def test_no_lift_is_built_past_the_stop(monkeypatch):
    # the scan stops at t = 16; building the lift of the sample at index 41,
    # which cannot be multiplied, would raise
    class Unmultipliable(type(qq(0))):
        def __mul__(self, other):
            raise TypeError("sample %s cannot be multiplied" % self)
    samples = list(range(41)) + [Unmultipliable(41)]
    monkeypatch.setattr(skly, "_usable_cpus", lambda: 1)
    built = _patched_scan(monkeypatch, samples, _degree_eight_values(range(42)))
    report = pencil_discriminant(*_comm_pencil(), samples, 8)
    assert (len(built), report.certified, len(report.sample_values)) == (17, True, 17)
    # a helper builds nothing more than _AHEAD + 1 samples past the stop,
    # so no process builds that lift
    pids = _force_helper(monkeypatch)
    assert pencil_discriminant(*_comm_pencil(), samples, 8).to_dict() == report.to_dict()
    assert pids
    _no_child_left()


def _patched_scan(monkeypatch, samples, values, patterns=None):
    """Make the member at samples[k] read values[k], and one pattern unless
    patterns are given; returns the lifts of the members this process builds.

    The outcomes are keyed by lambda, the first lift coordinate in
    _comm_pencil, so they do not depend on which process builds a member.
    """
    outcomes = dict(zip(map(qq, samples), zip(values, patterns or [()] * len(values))))
    built = []
    monkeypatch.setattr(skly, "_scan_sample",
                        lambda S, lift: built.append(lift) or outcomes[lift[0]])
    return built


def _comm_pencil():
    # omega1 has no x0 x0 term and omega2 has x0 x0 = 1: lift[0] is lambda
    q1 = word_vector(4, {(0, 3): 1, (1, 2): -1})
    q2 = word_vector(4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1})
    return commutative_presentation(), q1, q2


def test_scan_with_zero_first_value_fits(monkeypatch):
    # v = (t + 2)^2 vanishes at the first sample; v0 is the next value
    samples = list(range(-2, 7))
    _patched_scan(monkeypatch, samples, [qq(lam + 2) ** 2 for lam in samples])
    report = pencil_discriminant(*_comm_pencil(), samples, 4)
    assert report.sample_values[0] == (-2, 0)
    assert (report.numerator, report.denominator) == ([4, 4, 1], [1])
    assert report.mode == "polynomial"
    assert report.squarefree_degree == 1


def test_fit_is_checked_at_every_fit_point(monkeypatch):
    # the fit point t = 0 reads 4 v(0), so its root is 4, not 2; t (t + 2) / t
    # solves the fit system (both sides vanish at t = 0) and reduces to t + 2,
    # which agrees with every held-out sample: only the check at the fit
    # points refuses it
    samples = list(range(-2, 7))
    values = [qq(lam + 2) ** 2 for lam in samples]
    values[2] *= 4
    _patched_scan(monkeypatch, samples, values)
    with pytest.raises(PencilError, match="inconsistent"):
        pencil_discriminant(*_comm_pencil(), samples, 4)


@pytest.mark.parametrize("values", [[qq(lam + 2) for lam in range(1, 10)],
                                    [qq(1)] + [qq(-lam * lam) for lam in range(2, 10)]],
                         ids=["not-a-square", "negative"])
def test_ratio_that_is_no_square_names_the_sample(monkeypatch, values):
    # v0 = v(1); at t = 2 the ratio v / v0 is 4/3, or -4
    _patched_scan(monkeypatch, range(1, 10), values)
    with pytest.raises(PencilError, match="at sample 2 is not"):
        pencil_discriminant(*_comm_pencil(), list(range(1, 10)), 4)


def test_square_of_degree_above_the_bound_is_refused(monkeypatch):
    # s = ((t + 2) / (t + 30))^8 fits at h = 8 for d = 15 and d = 16, but its
    # square has degree 16, inside the bound only at d = 16
    samples = list(range(21))
    values = [qq(lam + 2, lam + 30) ** 16 for lam in samples]
    _patched_scan(monkeypatch, samples, values)
    report = pencil_discriminant(*_comm_pencil(), samples, 16)
    assert len(report.numerator) == len(report.denominator) == 17
    with pytest.raises(PencilError, match="inconsistent at degree bound 15"):
        pencil_discriminant(*_comm_pencil(), samples, 15)


def test_fit_solves_the_half_degree_system(monkeypatch):
    # the only kernel_basis call of the fit has 2 ceil(d / 2) + 2 columns,
    # not the 2d + 2 of a fit of the values themselves
    samples = list(range(21))
    _patched_scan(monkeypatch, samples, [7 * qq(lam + 2, lam + 30) ** 4 for lam in samples])
    cols = []

    def counted(m):
        cols.append(m.cols)
        return kernel_basis(m)
    monkeypatch.setattr(skly, "kernel_basis", counted)
    report = pencil_discriminant(*_comm_pencil(), samples, 16)
    assert cols == [18]
    assert report.squarefree_degree == 1


def _degree_eight_values(samples):
    # v = 7 ((t + 2) / (t + 30))^8: the root fit has degrees (4, 4), e = 8, and at
    # d = 8 the scan stops at max(min_samples(8), d + e + 1) = max(13, 17) = 17
    return [7 * qq(lam + 2, lam + 30) ** 8 for lam in samples]


def test_scan_stops_once_d_plus_e_plus_one_samples_agree(monkeypatch, one_cpu):
    # the value at t = 17 is wrong, but the scan never builds that member
    samples = list(range(24))
    values = _degree_eight_values(samples)
    values[17] *= 4
    built = _patched_scan(monkeypatch, samples, values)
    report = pencil_discriminant(*_comm_pencil(), samples, 8)
    assert len(built) == 17
    assert (report.fit_degree, report.certified) == (8, True)
    assert [lam for lam, _ in report.sample_values] == list(range(17))
    assert report.to_dict()["certified"] is True
    assert report.to_dict()["fit_degree"] == 8


def test_disagreement_before_the_stop_names_the_sample(monkeypatch, one_cpu):
    # t = 15 lies past the 2h + 2 = 10 fit points and before the stop at 17;
    # its value is 4 times the fitted one, so its root is still rational
    samples = list(range(24))
    values = _degree_eight_values(samples)
    values[15] *= 4
    built = _patched_scan(monkeypatch, samples, values)
    with pytest.raises(PencilError, match="at sample 15 disagrees"):
        pencil_discriminant(*_comm_pencil(), samples, 8)
    assert len(built) == 16


def test_too_few_samples_to_certify_builds_them_all(monkeypatch, one_cpu):
    # 15 samples reach min_samples(8) = 13 but not d + e + 1 = 17
    samples = list(range(15))
    built = _patched_scan(monkeypatch, samples, _degree_eight_values(samples))
    report = pencil_discriminant(*_comm_pencil(), samples, 8)
    assert len(built) == 15
    assert (report.fit_degree, report.certified, len(report.sample_values)) == (8, False, 15)
    assert report.squarefree_degree == 1


def test_other_pattern_first_is_not_the_main_pattern(monkeypatch, one_cpu):
    # as lambda = 0 in the control pencil: the first member has another
    # pattern (and a value off the fit); it is skipped, not fitted
    samples = list(range(12))
    values = [qq(5)] + [qq(lam + 2) ** 2 for lam in samples[1:]]
    built = _patched_scan(monkeypatch, samples, values, [("other",)] + [()] * 11)
    report = pencil_discriminant(*_comm_pencil(), samples, 4)
    assert report.skipped == [(0, skly.PATTERN_SKIP)]
    assert [lam for lam, _ in report.sample_values] == list(range(1, 10))
    assert len(built) == 10
    assert (report.numerator, report.denominator) == ([4, 4, 1], [1])


# -- the helper process and its work queue --
#
# The queue guarantees the order of assignment, not who builds what: the
# caller takes the first sample, and the helper's first jobs are the
# member at infinity and then the second sample, its first sample job.

def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("pencil", [_sklyanin_a_pencil, _control_pencil,
                                    lambda: (*_comm_pencil(), None), _diagonal_pencil],
                         ids=["sklyanin_a", "control", "comm4", "singular-at-infinity"])
def test_helper_leaves_the_report_unchanged(monkeypatch, pencil):
    # sklyanin_a and comm4 are criterion 6's pencils; the last is singular at infinity
    args = pencil()
    with monkeypatch.context() as m:
        m.setattr(skly, "_usable_cpus", lambda: 1)
        alone = pencil_discriminant(*args[:3], SEED1_SAMPLES, 16, table=args[3])
    pids = _force_helper(monkeypatch)
    shared = pencil_discriminant(*args[:3], SEED1_SAMPLES, 16, table=args[3])
    assert len(pids) == 1
    assert shared.to_dict() == alone.to_dict()
    _no_child_left()


def _in_helper_only(monkeypatch, fault, at):
    """Members read _degree_eight_values, keyed by lambda, except that the
    helper's member at lambda = at runs fault(at) first.

    Callers pass the second sample, the helper's first sample job.
    """
    parent = os.getpid()
    values = dict(zip(range(-2, 24), _degree_eight_values(range(-2, 24))))

    def scan(S, lift):
        if lift[0] == at and os.getpid() != parent:
            fault(at)
        return values[lift[0]], ()
    monkeypatch.setattr(skly, "_scan_sample", scan)


def test_helper_skips_a_hypothesis_violation_with_its_reason(monkeypatch, helper_forks):
    # only the helper raises the violation, so the skip is its pickled outcome
    def violate(lam):
        raise HypothesisViolation("regularity", "w is not regular at %s" % lam)
    _in_helper_only(monkeypatch, violate, -1)
    report = pencil_discriminant(*_comm_pencil(), list(range(-2, 20)), 8)
    assert helper_forks
    assert report.skipped == [(-1, "regularity hypothesis failed: w is not regular at -1")]
    assert -1 not in [lam for lam, _ in report.sample_values]
    _no_child_left()


def _erring_scan(monkeypatch, bad):
    # v = 7 ((t + 2) / (t + 30))^8 at t = 0..23, stopping at t = 16; the
    # member at t = bad raises a ValueError, whichever process builds it
    values = dict(zip(range(24), _degree_eight_values(range(24))))

    def scan(S, lift):
        if lift[0] == bad:
            raise ValueError("no member at %s" % bad)
        return values[lift[0]], ()
    monkeypatch.setattr(skly, "_scan_sample", scan)
    return pencil_discriminant(*_comm_pencil(), list(range(24)), 8)


def test_helper_error_is_raised_at_its_sample(monkeypatch, helper_forks):
    with pytest.raises(ValueError, match="^no member at 5$"):
        _erring_scan(monkeypatch, 5)
    # only the helper raises, at its first sample job: the outcome is its pickled error
    def fail(lam):
        raise ValueError("no member at %s" % lam)
    _in_helper_only(monkeypatch, fail, 1)
    with pytest.raises(ValueError, match="^no member at 1$"):
        pencil_discriminant(*_comm_pencil(), list(range(24)), 8)
    assert len(helper_forks) == 2
    _no_child_left()


def test_helper_error_past_the_stop_is_never_raised(monkeypatch, helper_forks):
    # t = 19 lies past the stop at t = 16: it is neither read nor, with the
    # stop fixed by the fit, built
    report = _erring_scan(monkeypatch, 19)
    assert (report.certified, len(report.sample_values)) == (True, 17)
    assert helper_forks
    _no_child_left()


def test_no_helper_outlives_a_failed_scan(monkeypatch, helper_forks):
    samples = list(range(24))
    values = _degree_eight_values(samples)
    values[15] *= 4
    _patched_scan(monkeypatch, samples, values)
    with pytest.raises(PencilError, match="at sample 15 disagrees"):
        pencil_discriminant(*_comm_pencil(), samples, 8)
    assert helper_forks
    _no_child_left()


def _within_a_minute(scan):
    """scan(), or TimeoutError if it runs for a minute (waiting on a lost helper)."""
    def hung(signum, frame):
        raise TimeoutError("the scan ran for a minute")
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        return scan()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _kill_after_first_answer(monkeypatch):
    """Make the caller SIGKILL the helper once an answer of it is in; the pids killed."""
    killed = []
    receive = skly._Helper._receive

    def receive_then_kill(self, timeout_ms):
        owed = set(self.owed)
        came = receive(self, timeout_ms)
        if self.pid is not None and owed - self.owed and not killed:
            killed.append(self.pid)
            os.kill(self.pid, signal.SIGKILL)
        return came
    monkeypatch.setattr(skly._Helper, "_receive", receive_then_kill)
    return killed


@pytest.mark.parametrize("loss", ["exits", "killed"])
def test_lost_helper_leaves_the_report_unchanged(monkeypatch, helper_forks, loss):
    # the helper exits at its first sample job, t = 1, without an outcome,
    # or is killed once its first answer, the member at infinity, is in;
    # either way the caller reaps it and builds the jobs it owed
    samples = list(range(24))
    with monkeypatch.context() as m:
        m.setattr(skly, "_usable_cpus", lambda: 1)
        _patched_scan(m, samples, _degree_eight_values(samples))
        alone = pencil_discriminant(*_comm_pencil(), samples, 8)
    if loss == "exits":
        _in_helper_only(monkeypatch, lambda lam: os._exit(0), 1)
    else:
        _patched_scan(monkeypatch, samples, _degree_eight_values(samples))
        killed = _kill_after_first_answer(monkeypatch)
    report = _within_a_minute(lambda: pencil_discriminant(*_comm_pencil(), samples, 8))
    assert report.to_dict() == alone.to_dict()
    assert len(helper_forks) == 1
    if loss == "killed":
        assert killed == helper_forks
    _no_child_left()


def test_stopped_helper_is_given_up(monkeypatch):
    # a helper stopped (SIGSTOP) right after the fork never answers; the
    # caller waits for it once, kills it, and builds every member itself
    samples = list(range(24))
    values = _degree_eight_values(samples)
    with monkeypatch.context() as m:
        m.setattr(skly, "_usable_cpus", lambda: 1)
        _patched_scan(m, samples, values)
        alone = pencil_discriminant(*_comm_pencil(), samples, 8)
    pids = _force_helper(monkeypatch)
    counted = os.fork

    def stopped():
        pid = counted()
        if pid:
            os.kill(pid, signal.SIGSTOP)
        return pid
    monkeypatch.setattr(os, "fork", stopped)
    built = _patched_scan(monkeypatch, samples, values)

    report = _within_a_minute(lambda: pencil_discriminant(*_comm_pencil(), samples, 8))
    assert report.to_dict() == alone.to_dict()
    assert len(pids) == 1
    used = len(report.sample_values) + len(report.skipped)
    assert used - skly._AHEAD <= len(built) <= used + skly._AHEAD + 1
    _no_child_left()


@pytest.mark.parametrize("degree, other", [(8, ()), (8, (12, 14)), (4, ())],
                         ids=["to-the-stop", "with-skips", "stop-at-min-samples"])
def test_members_built_past_the_stop(monkeypatch, helper_forks, tmp_path, degree, other):
    # both processes append "pid lambda" to one file for each member they
    # build.  At d = 8 the fit of 7 ((t + 2) / (t + 30))^8 sets the stop
    # past min_samples(8) = 13: the scan stops after 17 used members, and
    # after 19 members when those at t = 12 and 14 have another pattern;
    # no member past the stop is built.  At d = 4, (t + 2)^2 stops at
    # min_samples(4) = 9, and the members assigned before the fit reach
    # _AHEAD past it at most
    log = tmp_path / "built"
    values = dict(zip(range(24), [qq(t + 2) ** 2 for t in range(24)] if degree == 4
                      else _degree_eight_values(range(24))))
    used = 9 if degree == 4 else 17

    def scan(S, lift):
        with open(log, "a") as out:
            out.write("%d %s\n" % (os.getpid(), lift[0]))
        return values[lift[0]], ("other",) if lift[0] in other else ()
    monkeypatch.setattr(skly, "_scan_sample", scan)
    for _ in range(2):
        log.write_text("")
        report = pencil_discriminant(*_comm_pencil(), list(range(24)), degree)
        assert len(report.sample_values) == used
        assert [lam for lam, _ in report.skipped] == list(other)
        lines = [line.split() for line in log.read_text().splitlines()]
        built = sorted(int(lam) for _, lam in lines)
        assert built == list(range(len(built)))     # each member once, none skipped over
        assert used + len(other) <= len(built) <= used + len(other) + (
            skly._AHEAD if degree == 4 else 0)
        assert len(set(pid for pid, _ in lines)) == 2
    assert len(helper_forks) == 2
    _no_child_left()


def test_no_helper_with_one_cpu_or_a_second_thread(monkeypatch):
    def no_fork():
        raise AssertionError("a helper was forked")
    monkeypatch.setattr(os, "fork", no_fork)
    samples = list(range(-2, 7))
    _patched_scan(monkeypatch, samples, [qq(lam + 2) ** 2 for lam in samples])
    monkeypatch.setattr(skly, "_usable_cpus", lambda: 1)
    assert pencil_discriminant(*_comm_pencil(), samples, 4).certified
    monkeypatch.setattr(skly, "_usable_cpus", lambda: 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert pencil_discriminant(*_comm_pencil(), samples, 4).certified
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    monkeypatch.delattr(os, "fork")
    assert pencil_discriminant(*_comm_pencil(), samples, 4).certified


def test_failed_fork_builds_every_member_here(monkeypatch):
    # a fork refused by the system (EAGAIN at a process limit) leaves the
    # scan to this process and closes the pipe it opened
    def refused():
        raise BlockingIOError("fork refused")
    monkeypatch.setattr(skly, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", refused)
    samples = list(range(-2, 7))
    built = _patched_scan(monkeypatch, samples, [qq(lam + 2) ** 2 for lam in samples])
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    report = pencil_discriminant(*_comm_pencil(), samples, 4)
    assert (len(built), report.certified) == (9, True)
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds


def test_helper_runs_no_atexit_handler_and_flushes_nothing():
    # stdout is a pipe, so "head" sits in its buffer when the helper forks;
    # a helper that exited normally would flush it and run the handler again.
    # The helper's first sample job, t = 2, returns what pickle refuses, so
    # the helper ends on its own, through its finally clause; the caller
    # builds the jobs it owed and prints the scan's count
    script = "\n".join([
        "import atexit, os",
        "from ncquad import skly",
        "from ncquad.families import commutative_presentation, symmetric_form_to_element",
        "skly._usable_cpus = lambda: 2",
        "parent, scan_sample = os.getpid(), skly._scan_sample",
        "def scan(S, lift):",
        "    value = scan_sample(S, lift)",
        "    return (lambda: value, ()) if os.getpid() != parent else value",
        "skly._scan_sample = scan",
        "atexit.register(print, 'atexit')",
        "print('head')",
        "H = [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]",
        "Q = [[3, -2, 1, -2], [-2, 3, -2, -1], [1, -2, -1, -2], [-2, -1, -2, -3]]",
        "print(skly.pencil_discriminant(commutative_presentation(),",
        "    symmetric_form_to_element(H), symmetric_form_to_element(Q), range(1, 22), 16)",
        "    .distinct_root_count)",
    ])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(skly.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "head\n4\natexit\n"
