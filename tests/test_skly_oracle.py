"""Property tests of the pencil scan: the lazy fit and the singular-member count.

The scan fits the square root of its values at half the degree and stops
once d + e + 1 samples agree; the reference fits the values themselves at
degrees (d, d) through 2d + 2 points.  Both must find the same reduced
ratio.  Member builds are replaced by the values of v = c (P / Q)^4, the
shape the pencil values have (a constant times a fourth power).  The
report is certified only when the reduced denominator splits into linear
factors over Q, since a singular member at an irrational pole could not
be checked.

The count is checked on random commutative pencils against the
determinant route (sympy): member t is singular exactly when
det(q1 + t q2) = 0.
"""

from functools import cache
from math import isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ncquad import skly  # noqa: E402
from ncquad.exactlin import (poly_degree, poly_divmod, poly_eval, poly_gcd,  # noqa: E402
                             qq)
from ncquad.families import commutative_presentation, word_vector  # noqa: E402
from ncquad.qalg import build_table  # noqa: E402
from test_skly import PATTERN_CHANGE_PAIRS  # noqa: E402

COMM = commutative_presentation()
Q1 = word_vector(4, {(0, 3): 1, (1, 2): -1})
Q2 = word_vector(4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1})

poly = st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(any)


@cache
def _comm_table():
    return build_table(COMM, 3)


@settings(max_examples=30, deadline=None)
@given(p=poly, q=poly, c=st.fractions().filter(bool), slack=st.integers(0, 2),
       den=st.integers(1, 3))
def test_lazy_scan_matches_the_direct_fit(p, q, c, slack, den):
    # samples k / den, so the checks also see rational points
    p, q = [qq(x) for x in p], [qq(x) for x in q]
    d = 4 * max(poly_degree(p), poly_degree(q)) + slack
    count = max(2 * d + 2, skly.min_samples(d))
    samples = [t for t in (qq(k, den) for k in range(-20, 80)) if poly_eval(q, t)][:count]
    values = [qq(c) * (poly_eval(p, t) / poly_eval(q, t)) ** 4 for t in samples]
    reference = skly._rational_fit(list(zip(samples, values))[:2 * d + 2], d)
    outcomes = {t: (v, ()) for t, v in zip(samples, values)}
    with pytest.MonkeyPatch.context() as mp:
        # Q1 has no x0 x0 term and Q2 has x0 x0 = 1, so lift[0] is the sample
        mp.setattr(skly, "_scan_sample", lambda S, lift: outcomes[lift[0]])
        report = skly.pencil_discriminant(COMM, Q1, Q2, samples, d, table=_comm_table())
    assert (report.numerator, report.denominator) == reference
    # the reduced q has degree at most 2: it splits over Q iff its discriminant is a square
    q = poly_divmod(q, poly_gcd(p, q))[0]
    disc = q[1] ** 2 - 4 * q[0] * q[2] if len(q) == 3 else qq(0)
    splits = disc >= 0 and qq(isqrt(disc.numerator), isqrt(disc.denominator)) ** 2 == disc
    assert report.certified == splits


ENTRY = st.integers(-2, 2)


@st.composite
def symmetric_forms(draw):
    q = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            q[i][j] = q[j][i] = draw(ENTRY)
    return q


@settings(max_examples=20, deadline=None)
@given(q1=symmetric_forms(), q2=symmetric_forms())
def test_count_matches_the_determinant_route(q1, q2):
    # on commutative S the member q1 + t q2 is singular exactly when
    # det(q1 + t q2) = 0, and the member at infinity exactly when det(q2) = 0
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    det = sympy.Poly((sympy.Matrix(q1) + t * sympy.Matrix(q2)).det(), t)
    z1, z2 = ([c for row in q for c in row] for q in (q1, q2))
    hypothesis.assume(not det.is_zero and sympy.Matrix([z1, z2]).rank() == 2)
    want = sympy.sqf_part(det).degree() + (sympy.Matrix(q2).det() == 0)
    report = skly.pencil_discriminant(COMM, z1, z2, list(range(42)), 16, table=_comm_table())
    assert report.distinct_root_count == want


SMALL = st.fractions(-2, 2, max_denominator=3)


@settings(max_examples=12, deadline=None)
@given(pair=st.sampled_from(PATTERN_CHANGE_PAIRS), k=SMALL, c=SMALL.filter(bool))
def test_a_reparametrized_pattern_change_is_counted(pair, k, c):
    # member t of (q1 + k q2, c q2) is member k + c t of (q1, q2), so the
    # singular member at lam0, where the pattern changes, moves to
    # (lam0 - k) / c: a sample skipped for its pattern, or a pole of the fit
    q1, q2, lam0 = pair
    z1, z2 = ([qq(x) for row in q for x in row] for q in (q1, q2))
    report = skly.pencil_discriminant(COMM, [a + k * b for a, b in zip(z1, z2)],
                                      [c * b for b in z2], list(range(42)), 16,
                                      table=_comm_table())
    assert (report.distinct_root_count, report.certified) == (4, True)
    assert skly._rational_roots(report.denominator) == ([(lam0 - k) / c], True)
