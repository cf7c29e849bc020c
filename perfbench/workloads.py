"""Seeded inputs and independent oracles for the ncquad benchmark.

Pure standard library: nothing here imports ncquad, so the oracles do
not share code with the program they check.  Every input is a function
of the workload seed (and, for the quadric stream, the round number);
the same seed always gives the same inputs.

Rationals in requests are "p/q" strings, so requests, verdicts and digest
keys stay plain JSON.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

WORKLOADS = ("quadric", "pencil", "hilbert")

# Members of the sklyanin_a pencil omega1 + lam * omega2 that are singular.
SINGULAR_LAMBDAS = (Fraction(1), Fraction(5), Fraction(-1, 3), Fraction(-5, 3))

PENCIL_SAMPLES = 42
PENCIL_DEGREE_BOUND = 16
# Singular-member count of the sklyanin_a pencil (the elliptic route gives
# four singular labels on the curve, acceptance criterion 7).
SKLYANIN_SINGULAR_COUNT = 4

HILBERT_COMM_DEGREE = 9
HILBERT_KOSZUL_DEGREE = 6
HILBERT_GL_DEGREE = 7

# Classical structure of the even Clifford algebra C_0(q) of a quadratic
# form q of rank r on a 4-dimensional space in characteristic zero, as
# AnalysisReport.to_dict() fields.  The singular members of an elliptic
# pencil analyze like a rank-3 form (one ruling), the smooth ones like a
# rank-4 form (two rulings).
REPORT_BY_RANK = {
    4: {"dim": 8, "radical_dim": 0, "center_dim": 2, "ss_center_dim": 2,
        "one_dim_reps_absent": True, "ruling_count": 2, "smooth": True},
    3: {"dim": 8, "radical_dim": 4, "center_dim": 2, "ss_center_dim": 1,
        "one_dim_reps_absent": True, "ruling_count": 1, "smooth": False},
    2: {"dim": 8, "radical_dim": 6, "center_dim": 3, "ss_center_dim": 2,
        "one_dim_reps_absent": False, "ruling_count": "n/a", "smooth": False},
    1: {"dim": 8, "radical_dim": 7, "center_dim": 5, "ss_center_dim": 1,
        "one_dim_reps_absent": False, "ruling_count": "n/a", "smooth": False},
}

# The hyperbolic form x0*x3 - x1*x2 as a symmetric matrix (entries halved).
HYPERBOLIC = ((0, 0, 0, Fraction(1, 2)),
              (0, 0, Fraction(-1, 2), 0),
              (0, Fraction(-1, 2), 0, 0),
              (Fraction(1, 2), 0, 0, 0))


def qstr(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


# -- exact linear algebra for the oracles --

def frac_rank(rows) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        p = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _perm_sign(perm) -> int:
    sign = 1
    for i, j in itertools.combinations(range(len(perm)), 2):
        if perm[i] > perm[j]:
            sign = -sign
    return sign


def _pmul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _ptrim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _prem(a, b):
    a = _ptrim(a)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = _ptrim(a)
    return a


def pencil_det_poly(m1, m2) -> list:
    """det(m1 + t*m2) as ascending coefficients, by the permutation sum."""
    n = len(m1)
    total = [Fraction(0)] * (n + 1)
    for perm in itertools.permutations(range(n)):
        term = [Fraction(_perm_sign(perm))]
        for i, j in enumerate(perm):
            term = _pmul(term, [Fraction(m1[i][j]), Fraction(m2[i][j])])
        for k, c in enumerate(term):
            total[k] += c
    return _ptrim(total)


def distinct_root_count(p) -> int:
    """Distinct roots over the algebraic closure: deg p - deg gcd(p, p')."""
    p = _ptrim(p)
    if len(p) <= 1:
        return 0
    a, b = p, _ptrim([i * c for i, c in enumerate(p)][1:])
    while b:
        a, b = b, _prem(a, b)
    return (len(p) - 1) - (len(a) - 1)


def control_pencil_count(form) -> int:
    """Singular members of the commutative pencil hyperbolic + t*form."""
    finite = distinct_root_count(pencil_det_poly(HYPERBOLIC, form))
    at_infinity = 1 if frac_rank(form) < 4 else 0
    return finite + at_infinity


# -- seeded input generation --

# A fixed unimodular matrix with dense integer entries (det 1).  The
# seed only flips the signs of its rows and columns: that rescales the
# relation vectors and the word coordinates by +-1, so the job's cost
# does not depend on the seed.
GL_BASE = ((0, 2, -3, -6), (2, 0, 5, 7), (-1, 0, -2, -3), (-1, -1, -1, -1))


def _invertible(rng, lo, hi):
    while True:
        m = [[rng.randint(lo, hi) for _ in range(4)] for _ in range(4)]
        if frac_rank(m) == 4:
            return m


def sparse_form(rng, rank):
    """Diagonal integer form with `rank` small nonzero entries."""
    q = [[0] * 4 for _ in range(4)]
    for p in rng.sample(range(4), rank):
        q[p][p] = rng.choice((-2, -1, 1, 2))
    return q


def dense_form(rng, rank, lo=-4, hi=4):
    """M^T D M with M invertible: a dense integer form of exact rank."""
    m = _invertible(rng, lo, hi)
    d = [rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) if k < rank else 0
         for k in range(4)]
    return [[sum(m[k][i] * d[k] * m[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)]


def _smooth_lambda(rng):
    """p/q with |p| in 17..48 and q in 7..24: bit lengths vary little."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(17, 48), rng.randint(7, 24))


def quadric_round(seed: int, rnd: int) -> list:
    """One round of the one-quadric stream: 22 requests in a fixed mix.

    Four singular sklyanin_a members and eight seeded smooth ones; on
    comm4 one sparse and one dense form of every rank 1..4, and two more
    dense rank-4 forms with wider entries.  The mix fixes where the
    percentiles fall: the dense rank-4 forms, the slowest class, are
    3/22 of the stream, so p90 and p95 both land inside that class, and
    the median lands inside the block of smooth members and dense
    rank 1-3 forms.
    """
    rng = random.Random("quadric/%d/%d" % (seed, rnd))
    reqs = [{"kind": "member", "lam": qstr(lam)} for lam in SINGULAR_LAMBDAS]
    seen = set(SINGULAR_LAMBDAS)
    while len(seen) < len(SINGULAR_LAMBDAS) + 8:
        lam = _smooth_lambda(rng)
        if lam not in seen:
            seen.add(lam)
            reqs.append({"kind": "member", "lam": qstr(lam)})
    for rank in (1, 2, 3, 4):
        reqs.append({"kind": "form", "q": sparse_form(rng, rank)})
        reqs.append({"kind": "form", "q": dense_form(rng, rank)})
    for _ in range(2):
        reqs.append({"kind": "form", "q": dense_form(rng, 4, -40, 40)})
    for i, req in enumerate(reqs):
        req["id"] = "r%d.%d" % (rnd, i)
    return reqs


def pencil_inputs(seed: int) -> dict:
    """42 distinct integer samples and a dense full-rank control form.

    The samples come from 0..47 and every form entry is +-1, +-2 or +-3,
    so the seed changes the inputs but hardly the bit lengths the scans
    work with.
    """
    rng = random.Random("pencil/%d" % seed)
    samples = sorted(rng.sample(range(48), PENCIL_SAMPLES))
    while True:
        q = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                q[i][j] = q[j][i] = rng.choice((-3, -2, -1, 1, 2, 3))
        if frac_rank(q) == 4:
            break
    return {"samples": samples, "control_form": q}


def gl_comm_relations(m) -> list:
    """Commutator relations of comm4 after the change of generators x = M y.

    x_i x_j - x_j x_i expands to the 2x2 minors of M on the y-words; the
    span is again all commutators, so the graded table is the same.
    """
    rels = []
    for i in range(4):
        for j in range(i + 1, 4):
            rels.append([m[i][k] * m[j][l] - m[i][l] * m[j][k]
                         for k in range(4) for l in range(4)])
    return rels


def hilbert_inputs(seed: int) -> dict:
    rng = random.Random("hilbert/%d" % seed)
    rows = [rng.choice((-1, 1)) for _ in range(4)]
    cols = [rng.choice((-1, 1)) for _ in range(4)]
    return {"gl_matrix": [[rows[i] * GL_BASE[i][j] * cols[j] for j in range(4)]
                          for i in range(4)]}


def comm_dims(degree: int) -> list:
    """Hilbert function of the polynomial ring in four variables: C(n+3, 3)."""
    return [(n + 1) * (n + 2) * (n + 3) // 6 for n in range(degree + 1)]


# -- expected outcomes --

def is_singular(lam) -> bool:
    return Fraction(lam) in SINGULAR_LAMBDAS


def expected_member_report(lam) -> dict:
    return REPORT_BY_RANK[3 if is_singular(lam) else 4]


def expected_form_report(q) -> dict:
    return REPORT_BY_RANK[frac_rank(q)]


def digest(parts) -> str:
    """Short sha256 of a canonical text rendering of nested output data."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
