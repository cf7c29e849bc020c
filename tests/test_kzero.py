import time

import pytest

from ncquad.kzero import (A, L, LP, P, K0Class, ProjNClass, act_t, euler,
                          fat_class, format_class, h_class, intersect,
                          lattice_init, m_class, m_prime_class, parse_class,
                          projn_class, relation_suite)

# rows/columns ordered (a, l, l', p)
EULER_TABLE = (
    (1, 1, 1, 1),
    (-1, 0, -1, 0),
    (-1, -1, 0, 0),
    (1, 0, 0, 0),
)

BASIS = (A, L, LP, P)


def test_lattice_init_invariants():
    lat = lattice_init()
    assert lat.euler_form == EULER_TABLE


def test_euler_matrix_entries():
    for i, x in enumerate(BASIS):
        for j, y in enumerate(BASIS):
            assert euler(x, y) == EULER_TABLE[i][j]


def test_euler_examples():
    assert euler(A, A) == 1
    assert euler(L, LP) == -1
    assert euler(m_class(), m_prime_class()) == 0


def test_t_action_on_basis():
    assert act_t(A) == A - L - LP + P
    assert act_t(L) == L - P
    assert act_t(LP) == LP - P
    for k in range(-3, 4):
        assert act_t(P, k) == P


def test_t_action_square():
    # applying the action twice by hand: at^2 = a - 2l - 2l' + 4p
    assert act_t(A, 2) == K0Class((1, -2, -2, 4))
    assert act_t(act_t(A, 2), -2) == A


def test_t_action_power_matches_iteration():
    for x in BASIS:
        for step in (1, -1):
            y = x
            for k in range(13):
                assert act_t(x, step * k) == y
                assert act_t(y, -step * k) == x
                y = act_t(y, step)


def test_h_class_and_intersections():
    h = h_class()
    assert h == L + act_t(LP) == LP + act_t(L)
    assert intersect(h, L) == 1
    assert intersect(P, h) == 0
    assert intersect(h, h) == 2


def test_intersection_table():
    h = h_class()
    for x, y in ((L, L), (L, P), (h, P), (P, h), (P, L), (LP, LP)):
        assert intersect(x, y) == 0
    for x, y in ((L, LP), (L, h), (LP, h), (h, LP), (h, L), (LP, L)):
        assert intersect(x, y) == 1


def test_fat_classes():
    assert fat_class(0) == L - LP + P
    for i in range(11):
        f = fat_class(i)
        assert f == L - act_t(LP, i + 1)
        assert intersect(f, f) == -2
    for i in range(6):
        assert euler(fat_class(i), fat_class(i)) == 2
    # the closed-form action makes a huge index as cheap as a small one
    assert fat_class(10 ** 9) == L - LP + (10 ** 9 + 1) * P
    with pytest.raises(ValueError):
        fat_class(-1)


def test_serre_and_twist_identities():
    for x in BASIS:
        for y in BASIS:
            assert euler(x, y) == euler(y, act_t(x, 2))
            assert euler(act_t(x), act_t(y)) == euler(x, y)


def test_line_relations():
    one_minus_t = lambda v: v - act_t(v)
    assert one_minus_t(one_minus_t(L)).is_zero()
    assert (one_minus_t(one_minus_t(A)) - 2 * one_minus_t(L)).is_zero()
    assert one_minus_t(L) == P == one_minus_t(LP)


def test_trivial_module_class_vanishes():
    kc = A + 4 * act_t(A) - act_t(A, 2) - 2 * (m_class() + m_prime_class())
    assert kc.is_zero()


def test_displayed_variant_nonzero():
    variant = A - act_t(A, 2) - 2 * (L - act_t(L))
    assert variant == 2 * L + 2 * LP - 6 * P
    assert not variant.is_zero()


def test_relation_suite_passes():
    report = relation_suite()
    assert report["ok"]
    assert report["displayed_presentation_variant"]["holds"]
    assert "2" in report["displayed_presentation_variant"]["value"]


def test_format_and_parse():
    x = act_t(A, 2)
    assert parse_class(str(x)) == x
    assert parse_class("a-2l-2l'+4p") == x
    assert parse_class("[1, -2, -2, 4]") == x
    assert format_class(K0Class((0, 0, 0, 0))) == "0"
    assert parse_class("0") == K0Class((0, 0, 0, 0))
    with pytest.raises(ValueError):
        parse_class("a+q")


def test_projn_classes():
    assert projn_class(3, "line").coeffs == (1, -2, 1, 0)
    assert projn_class(3, "point").coeffs == (1, -3, 3, -1)
    assert projn_class(3, "hyperplane").coeffs == (1, -1, 0, 0)
    assert projn_class(3, "structure").coeffs == (1, 0, 0, 0)
    with pytest.raises(ValueError):
        projn_class(3, "surface")


def test_projn_reduction():
    # in P^1 the point class squares to zero: (1-t)^2 = 0
    line_in_p1 = projn_class(1, "line")
    assert line_in_p1.coeffs == (0, 0)
    pt = projn_class(2, "hyperplane")
    assert (pt * pt * pt).coeffs == (0, 0, 0)


def test_projn_shift_units():
    shifted = projn_class(3, "line", 2)
    unshift = projn_class(3, "structure", -2)
    assert shifted * unshift == projn_class(3, "line")
    assert projn_class(3, "structure", 1) * projn_class(3, "structure", -1) == \
        projn_class(3, "structure")


@pytest.mark.parametrize("n", range(6))
def test_projn_shift_is_a_power_of_t(n):
    for kind in ("structure", "hyperplane", "line", "point"):
        for step in (1, -1):
            t_step = projn_class(n, "structure", step)
            cls = projn_class(n, kind)
            for k in range(13):
                assert projn_class(n, kind, step * k) == cls
                cls = cls * t_step


def test_projn_huge_shift_is_closed_form():
    start = time.perf_counter()
    cls = projn_class(3, "line", 10 ** 9)
    assert time.perf_counter() - start < 0.1
    # t^k = (1 - u)^k, so u^2 t^k = u^2 - k u^3 modulo u^4
    line, point = projn_class(3, "line").coeffs, projn_class(3, "point").coeffs
    assert cls.coeffs == tuple(a - 10 ** 9 * b for a, b in zip(line, point))


def test_integer_inputs_reject_floats():
    with pytest.raises(TypeError):
        K0Class((1.5, 0, 0, 0))
    with pytest.raises(TypeError):
        act_t(A, 1.7)
    with pytest.raises(TypeError):
        projn_class(3, "line", 1.9)
    with pytest.raises(TypeError):
        parse_class("[1.5, 0, 0, 0]")


def test_projn_class_str():
    assert str(projn_class(3, "hyperplane")) == "1-t"
