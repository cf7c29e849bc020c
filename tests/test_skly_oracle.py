"""Property test of the lazy pencil scan against the direct (d, d) fit.

The scan fits the square root of its values at half the degree and stops
once d + e + 1 samples agree; the reference fits the values themselves at
degrees (d, d) through 2d + 2 points.  Both must find the same reduced
ratio.  Member builds are replaced by the values of v = c (P / Q)^4, the
shape the pencil values have (a constant times a fourth power).
"""

from functools import cache

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ncquad import skly  # noqa: E402
from ncquad.exactlin import poly_degree, poly_eval, qq  # noqa: E402
from ncquad.families import commutative_presentation, word_vector  # noqa: E402
from ncquad.qalg import build_table  # noqa: E402

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
    reference = skly._rational_fit(list(zip(samples, values))[:2 * d + 2], d, d)
    outcomes = {t: (v, ()) for t, v in zip(samples, values)}
    with pytest.MonkeyPatch.context() as mp:
        # Q1 has no x0 x0 term and Q2 has x0 x0 = 1, so lift[0] is the sample
        mp.setattr(skly, "_scan_sample", lambda S, lift: outcomes[lift[0]])
        report = skly.pencil_discriminant(COMM, Q1, Q2, samples, d, table=_comm_table())
    assert (report.numerator, report.denominator) == reference
    assert report.certified
