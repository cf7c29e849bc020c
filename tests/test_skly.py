import pytest

from ncquad import skly
from ncquad.cliff import HypothesisViolation
from ncquad.exactlin import qq
from ncquad.families import (commutative_presentation, sklyanin_gamma,
                             sklyanin_presentation, word_vector)
from ncquad.qalg import build_table, central_quadratic_space, element_word_lift
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

def test_degenerate_pencil_constant():
    comm = commutative_presentation()
    q1 = word_vector(4, {(0, 3): 1, (1, 2): -1})
    report = pencil_discriminant(comm, q1, q1, list(range(-2, 15)), 3)
    assert report.mode == "polynomial"
    assert report.denominator == [1]
    assert report.squarefree_degree == 0
    assert report.distinct_root_count == 0
    # z vanishes at -1; that sample must be skipped with a reason
    assert any(str(lam) == "-1" for lam, _ in report.skipped)


def test_pencil_needs_enough_samples():
    comm = commutative_presentation()
    q1 = word_vector(4, {(0, 3): 1, (1, 2): -1})
    q2 = word_vector(4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1})
    with pytest.raises(PencilError):
        pencil_discriminant(comm, q1, q2, list(range(4)), 8)


def test_pencil_short_sample_list_builds_no_member(monkeypatch):
    def no_member(*args):
        raise AssertionError("a member was built")
    monkeypatch.setattr(skly, "_scan_sample", no_member)
    comm = commutative_presentation()
    q1 = word_vector(4, {(0, 3): 1, (1, 2): -1})
    q2 = word_vector(4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1})
    with pytest.raises(PencilError):
        pencil_discriminant(comm, q1, q2, list(range(10)), 16)


def test_pencil_needs_two_d_plus_five_samples(monkeypatch):
    # the one fit has degrees up to (d, d): d + 4 = 7 samples at d = 3 prove
    # nothing, and the scan refuses 8 < 2d + 5 before building a member
    def no_member(*args):
        raise AssertionError("a member was built")
    monkeypatch.setattr(skly, "_scan_sample", no_member)
    comm = commutative_presentation()
    q1 = word_vector(4, {(0, 3): 1, (1, 2): -1})
    with pytest.raises(PencilError):
        pencil_discriminant(comm, q1, q1, list(range(8)), 3)


def test_pencil_rejects_repeated_samples(monkeypatch):
    # 18 samples pass the count 2d + 5 = 13, but only 6 values are distinct,
    # and a fit through repeated values is underdetermined; values compare
    # as rationals, so "12/1" repeats 12
    def no_member(*args):
        raise AssertionError("a member was built")
    monkeypatch.setattr(skly, "_scan_sample", no_member)
    comm = commutative_presentation()
    q1 = word_vector(4, {(0, 3): 1, (1, 2): -1})
    q2 = word_vector(4, {(0, 0): 1, (1, 1): 2, (2, 2): 3, (3, 3): 5})
    with pytest.raises(PencilError):
        pencil_discriminant(comm, q1, q2, list(range(1, 7)) * 3, 4)
    with pytest.raises(PencilError):
        pencil_discriminant(comm, q1, q2, list(range(13)) + ["12/1"], 4)


def test_pencil_rejects_noncentral():
    skly = sklyanin_presentation("1/2", "-1/3", sklyanin_gamma("1/2", "-1/3"))
    not_central = word_vector(4, {(0, 0): 1})
    table = build_table(skly, 3)
    omega = element_word_lift(table, central_quadratic_space(table).column(0), 2)
    with pytest.raises(HypothesisViolation):
        pencil_discriminant(skly, omega, not_central, list(range(10)), 3, table=table)
