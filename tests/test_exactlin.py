import random
import re
from fractions import Fraction

import pytest

from ncquad.exactlin import (LaurentPoly, Matrix, RationalSeries, SpanBuilder,
                             column_matrix, combine, det, expand, inverse,
                             kernel_basis, pole_data, poly_degree, poly_eval,
                             poly_gcd, poly_interpolate, poly_mul,
                             poly_squarefree_degree, qq, qq_str, rank, rref,
                             to_column, to_dense)


def mat_vec(m, vec):
    """Dense matrix times vector, in plain sums."""
    return [sum((a * b for a, b in zip(row, vec)), qq(0)) for row in m.entries]


def test_rref_identity():
    m = Matrix.identity(3)
    red, pivots = rref(m)
    assert red == m
    assert pivots == [0, 1, 2]


def test_rref_zero():
    m = Matrix.zero(2, 4)
    red, pivots = rref(m)
    assert red == m
    assert pivots == []


def test_rref_dependent_rows():
    # by-hand row reduction: subtract twice row 1 from row 2
    m = Matrix(2, 2, [[1, 2], [2, 4]])
    red, pivots = rref(m)
    assert red == Matrix(2, 2, [[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_idempotent_on_random():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 6)
        m = Matrix(rows, cols, [[qq(rng.randrange(-4, 5), rng.randrange(1, 4))
                                 for _ in range(cols)] for _ in range(rows)])
        red, pivots = rref(m)
        again, pivots2 = rref(red)
        assert again == red
        assert pivots == pivots2


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(4)).cols == 0


def test_kernel_zero_full():
    k = kernel_basis(Matrix.zero(2, 3))
    assert k.cols == 3


def test_kernel_single_row():
    # solved by hand: x + y = 0 has solution line (1, -1)
    k = kernel_basis(Matrix(1, 2, [[1, 1]]))
    assert k.cols == 1
    col = k.column(0)
    assert col[0] * qq(-1) == col[1]


def test_rank_nullity_on_random():
    rng = random.Random(21)
    for _ in range(40):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = Matrix(rows, cols, [[rng.randrange(-3, 4) for _ in range(cols)]
                                for _ in range(rows)])
        k = kernel_basis(m)
        assert rank(m) + k.cols == cols
        for j in range(k.cols):
            assert not any(mat_vec(m, k.column(j)))


def test_det_and_inverse():
    m = Matrix(3, 3, [[2, 1, 0], [0, 3, 1], [1, 0, 1]])
    d = det(m)
    assert d == 7
    inv = inverse(m)
    assert [mat_vec(m, c) for c in inv.columns()] == Matrix.identity(3).columns()
    with pytest.raises(ValueError):
        inverse(Matrix(2, 2, [[1, 2], [2, 4]]))


def test_span_builder():
    sb = SpanBuilder(3)
    assert sb.add([1, 0, 1])
    assert sb.add([0, 1, 0])
    assert not sb.add([1, 1, 1])
    assert sb.rank == 2
    assert sb.contains([2, -3, 2])
    assert not sb.contains([0, 0, 1])
    # integer rows go in directly; held rows are primitive with a positive pivot
    ints = SpanBuilder(3)
    assert ints.add_row({0: -2, 2: 4}) and not ints.add_row({0: 3, 2: -6})
    assert ints.pivot_rows == {0: {0: 1, 2: -2}}


def test_laurent_poly_rejects_float_coefficients_and_exponents():
    with pytest.raises(TypeError):
        LaurentPoly({0: 2.5})
    with pytest.raises(TypeError):
        LaurentPoly({1.5: 1})


def test_laurent_poly_operands_are_laurent_polys_or_ints():
    p = LaurentPoly({0: 1, 1: -1})
    assert p * 3 == 3 * p == LaurentPoly({0: 3, 1: -3})
    assert p + 2 == LaurentPoly({0: 3, 1: -1})
    assert p - 1 == LaurentPoly({1: -1})
    for bad in (2.5, True, Fraction(1, 2), "t", None):
        for op in (lambda: p * bad, lambda: bad * p, lambda: p + bad,
                   lambda: p - bad):
            with pytest.raises(TypeError):
                op()


def test_columns_are_canonical():
    # equal vectors give equal columns, whatever scale they were built at
    v = [qq(0), qq("2/3"), qq("-4/9")]
    assert to_column(v) == (9, {1: 6, 2: -4})
    assert to_dense(to_column(v), 3) == v
    assert to_column([qq(0)] * 2) == (1, {})
    # (x, y) -> (x + y, 2y) applied to (1/2, -1/2) is (0, -1)
    cols = [to_column([1, 0]), to_column([1, 2])]
    assert combine(cols, to_column([qq("1/2"), qq("-1/2")])) == (1, {1: -1})
    assert column_matrix(cols, 2) == Matrix.from_rows([[1, 1], [0, 2]])


def test_expand_geometric():
    s = RationalSeries(LaurentPoly.const(1), LaurentPoly({0: 1, 1: -1}))
    assert expand(s, 3) == [1, 1, 1, 1]


def test_expand_quadric_quotient_series():
    one_minus_t = LaurentPoly({0: 1, 1: -1})
    s = RationalSeries(LaurentPoly({0: 1, 1: 1}),
                       one_minus_t * one_minus_t * one_minus_t)
    assert expand(s, 4) == [1, 4, 9, 16, 25]


def test_expand_dual_series():
    one_plus_t = LaurentPoly({0: 1, 1: 1})
    s = RationalSeries(one_plus_t * one_plus_t * one_plus_t,
                       LaurentPoly({0: 1, 1: -1}))
    assert expand(s, 7) == [1, 4, 7, 8, 8, 8, 8, 8]


def test_expand_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(20):
        def rand_poly(lo):
            return LaurentPoly({rng.randrange(lo, 4): rng.randrange(-3, 4)
                                for _ in range(3)})
        f_num, g_num = rand_poly(0), rand_poly(0)
        f_den = rand_poly(0) + LaurentPoly.const(1)
        g_den = rand_poly(0) + LaurentPoly.const(1)
        # power-series case: the truncated product is the coefficient convolution
        if f_den[0] == 0 or g_den[0] == 0:
            continue
        f = RationalSeries(f_num, f_den)
        g = RationalSeries(g_num, g_den)
        fg = RationalSeries(f_num * g_num, f_den * g_den)
        n = 6
        ef, eg, efg = expand(f, n), expand(g, n), expand(fg, n)
        conv = [sum(ef[k] * eg[i - k] for k in range(i + 1)) for i in range(n + 1)]
        assert conv == efg


def test_pole_data_order_one():
    s = RationalSeries(LaurentPoly({0: 2, 1: 1}), LaurentPoly({0: 1, 1: -1}))
    order, value = pole_data(s)
    assert order == 1 and value == 3


def test_pole_data_order_three():
    one_minus_t = LaurentPoly({0: 1, 1: -1})
    s = RationalSeries(LaurentPoly({0: 1, 1: 1}),
                       one_minus_t * one_minus_t * one_minus_t)
    order, value = pole_data(s)
    assert order == 3 and value == 2


def test_pole_data_no_pole():
    one_minus_t = LaurentPoly({0: 1, 1: -1})
    s = RationalSeries(one_minus_t * one_minus_t, LaurentPoly.const(1))
    assert pole_data(s)[0] == 0


def test_series_equality_cross_multiplied():
    one_minus_t = LaurentPoly({0: 1, 1: -1})
    one_plus_t = LaurentPoly({0: 1, 1: 1})
    lhs = RationalSeries(LaurentPoly.const(2) * one_plus_t,
                         one_minus_t * one_minus_t * one_plus_t)
    rhs = RationalSeries(LaurentPoly.const(2), one_minus_t * one_minus_t)
    assert lhs == rhs


def test_poly_interpolation_roundtrip():
    coeffs = [qq(3), qq(-2), qq(0), qq(1, 2)]
    xs = [qq(k) for k in range(5)]
    ys = [poly_eval(coeffs, x) for x in xs]
    assert poly_interpolate(xs, ys) == coeffs


def test_poly_squarefree_degree():
    # (x - 1)^2 (x - 2) has two distinct roots
    p = poly_mul(poly_mul([-1, 1], [-1, 1]), [-2, 1])
    assert poly_degree(p) == 3
    assert poly_squarefree_degree(p) == 2
    assert poly_squarefree_degree([qq(5)]) == 0


def test_poly_gcd():
    p = poly_mul([-1, 1], [1, 1])
    q = poly_mul([-1, 1], [2, 1])
    g = poly_gcd(p, q)
    assert g == [qq(-1), qq(1)]


def test_qq_str():
    assert qq_str(qq("3/6")) == "1/2"
    assert qq_str(qq(-4, 2)) == "-2"
    with pytest.raises(ValueError):
        qq("1/0")


def test_qq_keeps_exact_values_and_rejects_inexact_ones():
    x = qq(3, 7)
    assert qq(x) is x
    assert qq(Fraction(-2, 6)) == qq(-1, 3)
    for bad in (0.5, 1.0, True, False, "1/0", None):
        with pytest.raises(ValueError):
            qq(bad)


def test_qq_reads_signed_ascii_integers_and_their_quotients():
    for text, want in (("3", 3), ("-3", -3), ("+3", 3), ("007", 7), (" 3/6 ", Fraction(1, 2)),
                       ("-4/2", -2), ("3/-6", Fraction(-1, 2)), ("+1/+3", Fraction(1, 3))):
        assert qq(text) == want, text
    for bad in ("1.5", "1/2/3", "1_0", "\u0663", "", "1/", "/2", "--1", "1 / 2", "0x10"):
        message = "%r is not an exact rational 'p' or 'p/q'" % bad.strip()
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            qq(bad)
    with pytest.raises(ValueError, match="^zero denominator in '1/-0'$"):
        qq("1/-0")
