"""Elliptic pencil bookkeeping and the algebraic singular-member scan.

The curve side is a plain exact chord-tangent group law on
y^2 = x(x - e1)(x - e2), restricted to curves with full rational
2-torsion so the subgroup E_2 is exactly representable.  Quadric labels
identify z with -z - 2*tau; a member is singular exactly when z + tau
is 2-torsion, and lines (secant pairs {p, q}) lie on the member of sum
p + q, two rulings for smooth members and one for the singular ones.
Coplanarity of four curve points is sum-to-zero, which is all the
ambient geometry used here.

The pencil scan drives the Clifford construction at many rational
parameters and recovers the number of distinct singular members from
the vanishing locus of the trace-form determinant, reconstructed
exactly as a function of the pencil parameter.

Process model: where os.fork exists, at least two CPUs are usable and
no second thread is alive, the scan forks one helper process that
builds the odd-indexed samples, in sample order, while the caller builds
the even-indexed ones.  The helper pickles each outcome, (value,
pattern) or the exception raised, down a pipe and flushes it at once.
An outcome depends only on S and its sample, and the caller reads them
in sample order through the one scan loop, so the fit, the stop and the
skips see what a scan in one process sees: a HypothesisViolation is
skipped, any other exception is re-raised at its sample's position only
if the scan gets that far, and outcomes past the stop are never read.
If the fork fails, the scan runs in one process; if the helper dies
first, RuntimeError names the sample.  pencil_discriminant's finally
clause kills (SIGKILL) and reaps the helper.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from math import isqrt, lcm
from operator import index

from .cliff import (HypersurfaceData, HypothesisViolation, clifford_with_scale,
                    require_central)
from .exactlin import (Matrix, SpanBuilder, det, kernel_basis, poly_degree, poly_divmod,
                       poly_gcd, poly_mul, poly_squarefree_degree,
                       poly_trim, qq, qq_str)
from .findim import trace_gram
from .qalg import GradedTable, QuadraticPresentation, build_table


@dataclass(frozen=True)
class ECPoint:
    """Exact rational point: affine (x, y) or the point at infinity."""

    x: object = None
    y: object = None
    infinity: bool = False

    def __post_init__(self):
        if not self.infinity:
            object.__setattr__(self, "x", qq(self.x))
            object.__setattr__(self, "y", qq(self.y))

    def sort_key(self):
        if self.infinity:
            return (0, 0, 0)
        return (1, self.x, self.y)

    def __str__(self) -> str:
        if self.infinity:
            return "O"
        return "(%s, %s)" % (qq_str(self.x), qq_str(self.y))


INFINITY = ECPoint(infinity=True)


@dataclass(frozen=True)
class PencilLabel:
    """Canonical representative of the unordered pair {z, -z - 2 tau}."""

    rep: ECPoint

    def __str__(self) -> str:
        return "Q[%s]" % self.rep


@dataclass(frozen=True)
class SecantLine:
    """Unordered pair of curve points spanning a secant line."""

    first: ECPoint
    second: ECPoint

    @classmethod
    def of(cls, p: ECPoint, q: ECPoint) -> "SecantLine":
        a, b = sorted((p, q), key=lambda pt: pt.sort_key())
        return cls(a, b)

    def __str__(self) -> str:
        return "line(%s, %s)" % (self.first, self.second)


class Curve:
    """y^2 = x(x - e1)(x - e2) with rational e1, e2 and a translation point.

    The right-hand side must have three distinct roots; tau, when given,
    must lie on the curve.  Points off the curve are rejected at
    construction time.
    """

    def __init__(self, e1, e2, tau=None):
        self.e1 = qq(e1)
        self.e2 = qq(e2)
        roots = (qq(0), self.e1, self.e2)
        if len({str(r) for r in roots}) != 3:
            raise ValueError("curve is singular: repeated root among 0, e1, e2")
        # y^2 = x^3 + a2 x^2 + a4 x
        self.a2 = -(self.e1 + self.e2)
        self.a4 = self.e1 * self.e2
        self.tau = None
        if tau is not None:
            self.tau = tau if isinstance(tau, ECPoint) else self.point(*tau)

    def rhs(self, x):
        x = qq(x)
        return x * x * x + self.a2 * x * x + self.a4 * x

    def contains(self, p: ECPoint) -> bool:
        if p.infinity:
            return True
        return p.y * p.y == self.rhs(p.x)

    def point(self, x, y) -> ECPoint:
        p = ECPoint(x, y)
        if not self.contains(p):
            raise ValueError("point (%s, %s) is not on the curve" % (qq_str(p.x), qq_str(p.y)))
        return p

    def add(self, p: ECPoint, q: ECPoint) -> ECPoint:
        if p.infinity:
            return q
        if q.infinity:
            return p
        if p.x == q.x:
            if p.y == -q.y:
                return INFINITY
            slope = (3 * p.x * p.x + 2 * self.a2 * p.x + self.a4) / (2 * p.y)
        else:
            slope = (q.y - p.y) / (q.x - p.x)
        x3 = slope * slope - self.a2 - p.x - q.x
        y3 = slope * (p.x - x3) - p.y
        return ECPoint(x3, y3)

    def neg(self, p: ECPoint) -> ECPoint:
        if p.infinity:
            return p
        return ECPoint(p.x, -p.y)

    def mul(self, n: int, p: ECPoint) -> ECPoint:
        n = index(n)
        if n < 0:
            return self.mul(-n, self.neg(p))
        acc = INFINITY
        addend = p
        while n:
            if n & 1:
                acc = self.add(acc, addend)
            addend = self.add(addend, addend)
            n >>= 1
        return acc

    def two_torsion(self) -> list[ECPoint]:
        """The four 2-torsion points O, (0,0), (e1,0), (e2,0)."""
        pts = [INFINITY, ECPoint(0, 0), ECPoint(self.e1, 0), ECPoint(self.e2, 0)]
        return sorted(pts, key=lambda p: p.sort_key())

    # -- pencil labels and rulings --

    def _need_tau(self):
        if self.tau is None:
            raise ValueError("this operation needs the translation point tau")

    def partner(self, z: ECPoint) -> ECPoint:
        """The point -z - 2 tau labelling the same quadric."""
        self._need_tau()
        return self.neg(self.add(z, self.mul(2, self.tau)))

    def label(self, z: ECPoint) -> PencilLabel:
        """Canonical label of the member through z: min of {z, -z - 2 tau}."""
        if not self.contains(z):
            raise ValueError("label point must lie on the curve")
        w = self.partner(z)
        rep = min(z, w, key=lambda p: p.sort_key())
        return PencilLabel(rep)

    def line_on_quadric(self, line: SecantLine, label: PencilLabel) -> bool:
        """A secant line lies on the member iff p + q is z or -z - 2 tau."""
        s = self.add(line.first, line.second)
        return s == label.rep or s == self.partner(label.rep)

    def same_ruling(self, l1: SecantLine, l2: SecantLine, label: PencilLabel) -> bool:
        """Two lines on one member are in the same ruling iff sums agree."""
        for l in (l1, l2):
            if not self.line_on_quadric(l, label):
                raise ValueError("%s is not on the quadric %s" % (l, label))
        s1 = self.add(l1.first, l1.second)
        s2 = self.add(l2.first, l2.second)
        return s1 == s2

    def is_singular(self, z: ECPoint) -> bool:
        """Singular members are exactly those with z + tau 2-torsion."""
        self._need_tau()
        return self.add(z, self.tau) in set(self.two_torsion())

    def singular_labels(self) -> list[PencilLabel]:
        """Labels of the members through omega - tau, omega 2-torsion.

        Returned as a list in deterministic order; callers interested in
        the count take the set (for torsion tau the four labels could in
        principle collide, so the multiset is reported, not collapsed).
        """
        self._need_tau()
        out = [self.label(self.add(omega, self.neg(self.tau)))
               for omega in self.two_torsion()]
        return sorted(out, key=lambda lab: lab.rep.sort_key())

    def coplanar(self, p1: ECPoint, p2: ECPoint, p3: ECPoint, p4: ECPoint) -> bool:
        """Four curve points are coplanar iff they sum to the identity."""
        for p in (p1, p2, p3, p4):
            if not self.contains(p):
                raise ValueError("coplanarity input must lie on the curve")
        s = self.add(self.add(p1, p2), self.add(p3, p4))
        return s.infinity

    def fat_point_lines(self, omega: ECPoint, i: int, line: SecantLine) -> bool:
        """Incidence of a secant line with the i-th fat point over omega."""
        if omega not in set(self.two_torsion()):
            raise ValueError("base point of a fat-point tower must be 2-torsion")
        if i < 0:
            raise ValueError("index must be nonnegative")
        self._need_tau()
        target = self.add(omega, self.mul(i, self.tau))
        return self.add(line.first, line.second) == target


def fat_point_h0(i: int) -> int:
    """Global-section count of the i-th fat point: i + 1."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    return i + 1


# -- singular members of an algebra pencil --

class PencilError(Exception):
    """The discriminant scan could not certify a result."""


@dataclass
class PencilReport:
    """Outcome of the pencil discriminant scan."""

    sample_values: list          # (lambda, value) pairs actually used
    skipped: list                # (lambda, reason), of the members built
    mode: str                    # "polynomial" iff the denominator is [1], else "rational"
    numerator: list              # coefficients, ascending degree
    denominator: list            # monic
    squarefree_degree: int
    infinity_singular: bool
    distinct_root_count: int
    fit_degree: int              # e = max(deg numerator, deg denominator)
    certified: bool              # at least d + e + 1 used samples agree with the fit

    def to_dict(self) -> dict:
        return {
            "samples": [[qq_str(x), qq_str(v)] for x, v in self.sample_values],
            "skipped": [[qq_str(x), reason] for x, reason in self.skipped],
            "mode": self.mode,
            "polynomial": [qq_str(c) for c in self.numerator],
            "denominator": [qq_str(c) for c in self.denominator],
            "squarefree_degree": self.squarefree_degree,
            "infinity_singular": self.infinity_singular,
            "distinct_root_count": self.distinct_root_count,
            "fit_degree": self.fit_degree,
            "certified": self.certified,
        }


def _scan_sample(S: QuadraticPresentation, lift: list):
    """One pencil member: scale-invariant trace-form determinant sample."""
    h = HypersurfaceData(S, lift)
    alg, det_w2 = clifford_with_scale(h)
    value = det(trace_gram(alg)) / alg.den ** (2 * alg.dim) * det_w2 * det_w2
    pattern = tuple(alg.labels)
    return value, pattern


def _rational_fit(points: list, dp: int, dq: int):
    """Coprime (P, Q), deg within bounds, with P(x) = v Q(x) at all points.

    Returns None when no nonzero solution exists at these degree bounds.
    Needs len(points) >= dp + dq + 1 so the reduced solution is unique
    up to scale; the denominator is normalized monic.  The row of a point
    x = a / b is scaled by b^max(dp, dq) and the denominator of v, which
    leaves its kernel alone and makes every entry an integer.
    """
    m = max(dp, dq)
    rows = []
    for x, v in points:
        x, v = qq(x), qq(v)
        a, b = [1], [1]
        for _ in range(m):
            a.append(a[-1] * x.numerator)
            b.append(b[-1] * x.denominator)
        powers = [a[k] * b[m - k] for k in range(m + 1)]
        rows.append([v.denominator * p for p in powers[:dp + 1]]
                    + [-v.numerator * p for p in powers[:dq + 1]])
    ker = kernel_basis(Matrix.of_integers(rows, dp + dq + 2))
    if ker.cols == 0:
        return None
    sol = ker.column(0)
    p = poly_trim(sol[:dp + 1])
    q = poly_trim(sol[dp + 1:])
    if not q:
        return None
    g = poly_gcd(p, q)
    if poly_degree(g) > 0:
        p = poly_divmod(p, g)[0]
        q = poly_divmod(q, g)[0]
    lead = q[-1]
    return [c / lead for c in p], [c / lead for c in q]


def min_samples(degree_bound: int) -> int:
    """Fewest usable samples a scan accepts at degree bound d.

    The scan fits the square root of its values at degrees at most
    (h, h), h = ceil(d / 2): 2h + 2 samples to fit, 3 held out.
    """
    return 2 * ((degree_bound + 1) // 2) + 5


def _square_root(r):
    """The nonnegative rational square root of r, or None if r has none."""
    if r < 0:
        return None
    num, den = isqrt(r.numerator), isqrt(r.denominator)
    if num * num != r.numerator or den * den != r.denominator:
        return None
    return qq(num, den)


def _inconsistent(degree_bound: int) -> PencilError:
    return PencilError("interpolation inconsistent at degree bound %d (raise the bound "
                       "or change the sample set)" % degree_bound)


class _RootFit:
    """v = v0 (P / Q)^2, fit through the exact square roots of the given values.

    v0 is the first nonzero value; P / Q is reduced, Q monic, of degrees
    at most (h, h), h = ceil(d / 2), and equals sqrt(v / v0) at every
    given point.  numerator = v0 P^2 and denominator = Q^2 are the fit
    squared back, and degree, e = 2 max(deg P, deg Q), is theirs.
    Checks evaluate P and Q, scaled to integer coefficient lists of one
    length, at x = a / b by integer Horner steps in a and b.
    """

    def __init__(self, points: list, degree_bound: int):
        v0 = next((v for _, v in points if v), None)
        if v0 is None:
            raise PencilError("trace-form determinant vanishes identically on the pencil")
        roots = []
        for lam, v in points:
            root = _square_root(v / v0)
            if root is None:
                raise PencilError("value at sample %s is not %s times the square of a rational"
                                  % (qq_str(lam), qq_str(v0)))
            roots.append((lam, root))
        h = (degree_bound + 1) // 2
        fit = _rational_fit(roots, h, h)
        if fit is None or 2 * max(map(poly_degree, fit)) > degree_bound:
            raise _inconsistent(degree_bound)
        p, q = fit
        self.v0, self.degree = v0, 2 * max(map(poly_degree, fit))
        self.numerator = [v0 * c for c in poly_mul(p, p)]
        self.denominator = poly_mul(q, q)
        scale = lcm(*[c.denominator for c in p + q])
        k = max(len(p), len(q))
        self._ints = [[(c * scale).numerator for c in f] + [0] * (k - len(f)) for f in fit]
        for x, s in roots:
            px, qx = self._at(x)
            if px * s.denominator != s.numerator * qx:
                raise _inconsistent(degree_bound)

    def _at(self, x) -> list:
        """[P(x), Q(x)], both times the same nonzero integer."""
        a, b = x.numerator, x.denominator
        out = []
        for f in self._ints:
            acc, bpow = 0, 1
            for c in reversed(f):
                acc = acc * a + c * bpow
                bpow *= b
            out.append(acc)
        return out

    def check(self, lam, v):
        """Raise PencilError naming lam unless v Q(lam)^2 = v0 P(lam)^2."""
        p, q = self._at(lam)
        if p * p * self.v0.numerator * v.denominator != q * q * v.numerator * self.v0.denominator:
            raise PencilError("value at sample %s disagrees with the fit of degree %d"
                              % (qq_str(lam), self.degree))


PATTERN_SKIP = "normal-word basis pattern differs from majority"


def _usable_cpus() -> int:
    """The CPUs this process may run on (tests replace it to simulate one)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else os.cpu_count() or 1


def _fork_helper(member, samples: list):
    """Fork a process that runs member at each of samples, in order.

    Returns (None, None, None) where a fork cannot pay, is unsafe or
    fails (see the module docstring), else (pid, pipe, receive), and
    receive(lam) returns the next outcome or raises its exception.  The
    helper ends only through os._exit, running no atexit handler and
    flushing no buffer of the caller's.
    """
    if not hasattr(os, "fork") or _usable_cpus() < 2 or threading.active_count() != 1:
        return None, None, None
    import pickle
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None, None, None
    if pid == 0:
        try:
            os.close(read)
            with open(write, "wb") as out:
                for lam in samples:
                    try:
                        outcome = member(lam)
                    except Exception as exc:
                        outcome = exc
                    pickle.dump(outcome, out)
                    out.flush()
        finally:
            os._exit(0)
    os.close(write)
    pipe = open(read, "rb")

    def receive(lam):
        try:
            outcome = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError("the helper process ended before sample %s"
                               % qq_str(lam)) from None
        if isinstance(outcome, Exception):
            raise outcome
        return outcome
    return pid, pipe, receive


def pencil_discriminant(S: QuadraticPresentation, omega1_lift, omega2_lift,
                        samples, degree_bound: int,
                        table: GradedTable | None = None) -> PencilReport:
    """Count distinct singular members of the pencil z = omega1 + t*omega2.

    At each sample t the 8-dimensional invariant algebra of S/(z_t) is
    built and the determinant of its trace Gram matrix evaluated
    exactly, normalized by the square of the w^2-pullback determinant so
    the value v(t) does not depend on the scale of w.  Members are used
    one at a time, in the order given, and the scan stops as soon as the
    fit below is proved; later samples are never used.  Each member's
    lift omega1 + t*omega2 is built when its sample is reached, by the
    process that builds the member (see the module docstring), so an
    error in it is that member's error.

    The basis pattern can make the values rational rather than
    polynomial in t (their denominator tracks pattern changes outside
    the sample set), so v is one reduced ratio N / M of polynomials of
    degrees at most (d, d), d = degree_bound.  It is reconstructed
    through its square root.  On every pencil checked, v(t) = c D(t)^4 /
    L(t)^16 with deg D = 4 and L the form whose vanishing changes the
    pattern (a change of basis scales a trace-form discriminant by a
    square).  Let v0 be the value of the first fit sample t0 that is
    nonzero; any would do, the first keeps the choice fixed.  Then v / v0
    is the square of s = (D L(t0)^4 / (D(t0) L^4))^2.  The sign is safe:
    s is itself a square, never negative at a rational t, so the
    nonnegative root of v / v0, taken exactly with isqrt on numerator and
    denominator, is s(t) and not |s(t)| of a function that changes sign.

    Main pattern: the first normal-word pattern to reach 2h + 2 usable
    samples, h = ceil(d / 2).  Samples whose construction fails, and
    members of any other pattern, are skipped and recorded.  s is fit by
    one reduced ratio P / Q of degrees at most (h, h) through those
    2h + 2 roots and checked at each of them.  If all 2h + 2 values are
    zero, v vanishes identically, since 2h + 2 > d zeros of N force
    N = 0.  Squared back, the numerator is v0 P^2 and the denominator
    Q^2, monic as Q is; e = 2 max(deg P, deg Q) is their degree.

    Stop rule: each later member of the main pattern must satisfy
    v Q^2 = v0 P^2, and the scan stops once the main pattern has
    max(min_samples(d), d + e + 1) samples.  Proof: N Q^2 - v0 P^2 M
    has degree at most d + e and vanishes at every agreeing sample,
    where Q is nonzero (Q(t) = 0 would force P(t) = 0, but P and Q are
    coprime); so d + e + 1 agreeing samples prove v = v0 P^2 / Q^2
    identically, and the report says so in certified.  A scan that runs
    out of samples first reports as long as it has min_samples(d) = 2h
    + 5 (three held out past the fit), with certified false.  The
    reduced ratio is unique, so it is the one a fit at degrees (d, d)
    finds.

    PencilError is raised when the values vanish identically, when a
    fit ratio v / v0 is negative or not a rational square (naming the
    sample), when the fit misses a fit point or its square exceeds
    degree d, when a later sample disagrees with it (naming the sample)
    and when the main pattern ends with fewer than min_samples(d)
    samples.  ValueError is raised, before any member is built, when the
    classes of omega1 and omega2 are dependent: every member is then the
    same quadric, when degree_bound is not a nonnegative integer, and when
    table does not reach degree 3 or is a table of another algebra.  A
    repeated value would leave the fit underdetermined, so the samples
    must be distinct as rationals.  mode is "polynomial" when the reduced
    denominator is 1, else "rational".  Distinct roots of the numerator
    over the closure are counted through its squarefree part; the member
    at infinity (omega2 alone) is singular when its trace form is
    degenerate, the samples' criterion v = 0, and joins the count.
    """
    if isinstance(degree_bound, bool) or not isinstance(degree_bound, int) or degree_bound < 0:
        raise ValueError("degree bound must be a nonnegative integer, got %r" % (degree_bound,))
    samples = [qq(lam) for lam in samples]
    d = degree_bound
    need = min_samples(d)
    omega1_lift = [qq(c) for c in omega1_lift]
    omega2_lift = [qq(c) for c in omega2_lift]
    if table is None:
        table = build_table(S, 3)
    elif table.presentation is not S and not table.presentation.relation_span_equals(S):
        raise ValueError("the table is not a table of this presentation")
    c1 = require_central(table, omega1_lift, "omega1")
    c2 = require_central(table, omega2_lift, "omega2")
    if len(set(samples)) != len(samples):
        raise PencilError("sample values must be distinct rationals")
    if len(samples) < need:
        raise PencilError("need at least %d samples at degree bound %d, have %d"
                          % (need, d, len(samples)))
    span = SpanBuilder(len(c1))
    if not (span.add(c1) and span.add(c2)):
        raise ValueError("omega1 and omega2 have dependent classes: every member is one quadric")

    fit_size = 2 * ((d + 1) // 2) + 2
    built = []            # (lambda, pattern, value) per member; (lambda, None, reason) if it failed
    counts: dict = {}
    main = fit = None
    points: list = []

    def member(lam):
        return _scan_sample(S, [a + lam * b for a, b in zip(omega1_lift, omega2_lift)])
    helper, pipe, receive = _fork_helper(member, samples[1::2])
    try:
        for i, lam in enumerate(samples):
            try:
                if helper is None or i % 2 == 0:
                    value, pattern = member(lam)
                else:
                    value, pattern = receive(lam)
            except HypothesisViolation as exc:
                built.append((lam, None, str(exc)))
                continue
            built.append((lam, pattern, value))
            if fit is None:
                counts[pattern] = counts.get(pattern, 0) + 1
                if counts[pattern] < fit_size:
                    continue
                main = pattern
                points = [(x, v) for x, p, v in built if p == main]
                fit = _RootFit(points, d)
                stop = max(need, d + fit.degree + 1)
            elif pattern == main:
                fit.check(lam, value)
                points.append((lam, value))
                if len(points) == stop:
                    break
    finally:  # here, not in a generator: a PencilError's traceback would keep it alive
        if helper is not None:
            from signal import SIGKILL
            os.kill(helper, SIGKILL)
            os.waitpid(helper, 0)
            pipe.close()
    if not counts:
        raise PencilError("no sample admitted the construction")
    if len(points) < need:
        raise PencilError("need at least %d usable samples at degree bound %d, have %d"
                          % (need, d, len(points) or max(counts.values())))

    skipped = [(lam, x if p is None else PATTERN_SKIP) for lam, p, x in built if p != main]
    mode = "polynomial" if fit.denominator == [1] else "rational"
    sq_degree = poly_squarefree_degree(fit.numerator)

    at_infinity = clifford_with_scale(HypersurfaceData(S, omega2_lift))[0]
    infinity_singular = not det(trace_gram(at_infinity))

    return PencilReport(
        sample_values=points,
        skipped=skipped,
        mode=mode,
        numerator=fit.numerator,
        denominator=fit.denominator,
        squarefree_degree=sq_degree,
        infinity_singular=infinity_singular,
        distinct_root_count=sq_degree + (1 if infinity_singular else 0),
        fit_degree=fit.degree,
        certified=len(points) >= d + fit.degree + 1,
    )
