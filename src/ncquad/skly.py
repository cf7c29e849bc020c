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

Process model: the scan reads every member through one work queue.
Where os.fork exists, at least two CPUs are usable and no second thread
is alive, the queue forks one helper process and feeds it jobs through a
pipe: the member at infinity first, then sample indices, each time the
lowest unassigned sample.  The helper builds its jobs in the order sent
and pickles each outcome, with its job, down a second pipe at once.  The
caller keeps the helper _AHEAD jobs ahead; when the outcome it needs
next is not in hand, it builds the lowest unassigned sample itself, and
it waits for the helper only when no sample worth building is left.  A
sample is worth building while it lies among the fewest samples the scan
can still read before it stops (with _AHEAD more before the fit sets the
stop), so at most _AHEAD members are built past the stop, and none where
the stop lies _AHEAD or more used samples past min_samples(d).  An
outcome depends only on S and its job, and the caller uses them in
sample order through the one scan loop, so the fit, the stop and the
skips see what a scan with no helper sees: a HypothesisViolation is
skipped, any other exception is re-raised at its sample's position only
if the scan gets that far, and the outcome of the member at infinity is
read after the loop.  Elsewhere, or if the fork fails, the queue keeps
no process and the caller builds each job as it takes it.  A helper is
lost in one way, whatever the cause: when its answer pipe ends, its job
pipe breaks, or it sends nothing for a second while the caller waits (it
died, or is stopped or starved of CPU), the caller kills and reaps it and
builds every job it owed itself, so the report is still that of a scan
with no helper.  Otherwise the helper is killed (SIGKILL) once the scan
has read the member at infinity, or in pencil_discriminant's finally
clause, which also reaps it.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from math import gcd, isqrt, lcm
from operator import index

from .cliff import (HypersurfaceData, HypothesisViolation, clifford_with_scale,
                    require_central)
from .exactlin import (Matrix, SpanBuilder, det, kernel_basis, poly_degree, poly_deriv,
                       poly_divmod, poly_eval, poly_gcd, poly_mul, poly_squarefree_degree,
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
    certified: bool              # d + e + 1 used samples agree with the fit, and every
                                 # pole is a rational member that could be built

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
    ValueError is raised unless d is a nonnegative integer.
    """
    if isinstance(degree_bound, bool) or not isinstance(degree_bound, int) or degree_bound < 0:
        raise ValueError("degree bound must be a nonnegative integer, got %r" % (degree_bound,))
    return 2 * ((degree_bound + 1) // 2) + 5


def _square_root(r):
    """The nonnegative rational square root of r, or None if r has none."""
    if r < 0:
        return None
    num, den = isqrt(r.numerator), isqrt(r.denominator)
    if num * num != r.numerator or den * den != r.denominator:
        return None
    return qq(num, den)


_TRIAL_BOUND = 1 << 16   # the largest trial divisor _divisors tries


def _divisors(n: int):
    """The positive divisors of the integer n != 0, by trial division.

    None when a factor is left that trial divisors up to _TRIAL_BOUND
    cannot prove prime.
    """
    n, divs, p = abs(n), [1], 2
    while p * p <= n:
        if p > _TRIAL_BOUND:
            return None
        k = 0
        while n % p == 0:
            n, k = n // p, k + 1
        divs = [d * p ** j for d in divs for j in range(k + 1)]
        p += 1
    return divs + [d * n for d in divs] if n > 1 else divs


def _rational_roots(f: list):
    """The distinct rational roots of f, and whether they are all its roots.

    The roots are those of the squarefree part, scaled to integer
    coefficients c_0..c_k: a root a / b in lowest terms has a | c_0 and
    b | c_k once the root 0 is divided out.  Where bounded trial division
    cannot list those divisors, only 0 is tried and the answer is False.
    """
    f = poly_trim(f)
    if len(f) <= 1:
        return [], True
    f = poly_divmod(f, poly_gcd(f, poly_deriv(f)))[0]
    scale = lcm(*[c.denominator for c in f])
    c = [(x * scale).numerator for x in f]
    roots = [qq(0)] if c[0] == 0 else []
    c = c[len(roots):]
    tops, bottoms = _divisors(c[0]), _divisors(c[-1])
    if tops is None or bottoms is None:
        return roots, False
    roots += [x for a in tops for b in bottoms if gcd(a, b) == 1
              for x in (qq(a, b), qq(-a, b)) if not poly_eval(f, x)]
    return roots, len(roots) == len(f) - 1


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


_AHEAD = 3              # jobs the helper is kept ahead by
_AT_INFINITY = -1       # the job of the member at infinity; other jobs are sample indices
_PATIENCE_MS = 1000     # the silence after which a waited-for helper is given up


class _Helper:
    """The scan's work queue, with a forked helper process where one can pay.

    take(job, left) returns the outcome of a job, or raises the exception
    it raised.  The scan takes the samples in order, then the member at
    infinity, the helper's first job; left is the number of samples, from
    job on, worth building (see the module docstring).  A sample is
    assigned once, to the helper or to this process, in increasing order
    and only among those left; the helper's first sample job is therefore
    the second sample.  Where a fork cannot pay, is unsafe or fails (see
    the module docstring), no process is kept and every job is built here.
    A helper whose answer pipe ends, whose job pipe breaks, or that is
    silent for _PATIENCE_MS while awaited is lost: close() reaps it and
    clears owed, and the jobs it owed are built here.  The child reads
    jobs, 4-byte signed integers, until the job pipe closes, and answers
    each with a length-prefixed pickle of (job, outcome), the outcome
    being work's value or the exception it raised.  It ends only through
    os._exit, running no atexit handler and flushing no buffer of the
    caller's.
    """

    def __init__(self, work, count: int):
        self.work, self.count = work, count   # count: samples in the scan
        self.pid = None          # the helper's, while it is kept
        self.buffer = bytearray()
        self.owed = set()        # jobs sent and not answered
        self.held = {}           # outcomes in hand, by job
        self.next = 0            # the lowest unassigned sample
        self.left = 0            # samples worth building, from the one taken on
        if not hasattr(os, "fork") or _usable_cpus() < 2 or threading.active_count() != 1:
            return
        import pickle
        jobs_read, self.jobs = os.pipe()
        self.answers, answers_write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (jobs_read, self.jobs, self.answers, answers_write):
                os.close(fd)
            return
        if pid == 0:
            try:
                os.close(self.jobs)
                os.close(self.answers)
                with open(jobs_read, "rb") as jobs, open(answers_write, "wb") as out:
                    for raw in iter(lambda: jobs.read(4), b""):
                        job = int.from_bytes(raw, "little", signed=True)
                        data = pickle.dumps((job, self._build(job)))
                        out.write(len(data).to_bytes(8, "little") + data)
                        out.flush()
            finally:
                os._exit(0)
        os.close(jobs_read)
        os.close(answers_write)
        from select import POLLIN, poll
        self.pid, self.loads, self.poller = pid, pickle.loads, poll()
        self.poller.register(self.answers, POLLIN)
        self._send(_AT_INFINITY)

    def take(self, job, left: int):
        self.left = left
        self._receive(0)
        if job == self.next:                 # unassigned: it is built here
            self.next += 1
        while True:
            self._top_up(job)
            if job in self.held:
                break
            if job not in self.owed:         # built here, or owed by a helper lost
                self.held[job] = self._build(job)
            elif self.next <= self._last(job):
                self.next += 1
                self.held[self.next - 1] = self._build(self.next - 1)
                self._receive(0)
            elif not self._receive(_PATIENCE_MS):
                self.close()                 # silent: its jobs fall to this process
        outcome = self.held.pop(job)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def _last(self, job) -> int:
        """The last sample that may be assigned while job is awaited."""
        return -1 if job == _AT_INFINITY else min(job + self.left, self.count) - 1

    def _top_up(self, job):
        while self.pid is not None and len(self.owed) < _AHEAD and self.next <= self._last(job):
            self.next += 1
            self._send(self.next - 1)

    def _send(self, job):
        self.owed.add(job)
        try:
            os.write(self.jobs, job.to_bytes(4, "little", signed=True))
        except BrokenPipeError:
            self.close()

    def _build(self, job):
        try:
            return self.work(job)
        except Exception as exc:
            return exc

    def _receive(self, timeout_ms: int) -> bool:
        """Take in what the helper sends within timeout_ms; False if nothing came."""
        if self.pid is None or not self.poller.poll(timeout_ms):
            return False
        chunk = os.read(self.answers, 1 << 16)
        if not chunk:                        # the helper ended
            self.close()
            return True
        self.buffer += chunk
        while len(self.buffer) >= 8:
            end = 8 + int.from_bytes(self.buffer[:8], "little")
            if len(self.buffer) < end:
                break
            job, outcome = self.loads(self.buffer[8:end])
            del self.buffer[:end]
            self.owed.discard(job)
            self.held[job] = outcome
        return True

    def kill(self):
        """Send the helper SIGKILL; until close() reaps it, that is safe to repeat."""
        if self.pid is not None:
            from signal import SIGKILL
            os.kill(self.pid, SIGKILL)

    def close(self):
        """Kill and reap the helper, close its pipes, and forget the jobs it owed."""
        if self.pid is not None:
            self.kill()
            os.waitpid(self.pid, 0)
            os.close(self.jobs)
            os.close(self.answers)
            self.pid = None
        self.owed.clear()


def pencil_discriminant(S: QuadraticPresentation, omega1_lift, omega2_lift,
                        samples, degree_bound: int,
                        table: GradedTable | None = None) -> PencilReport:
    """Count distinct singular members of the pencil z = omega1 + t*omega2.

    At each sample t the invariant algebra of S/(z_t) is built and the
    determinant of its trace Gram matrix evaluated exactly, normalized
    by the square of the w^(e/2)-pullback determinant so
    the value v(t) does not depend on the scale of w.  Members are used
    one at a time, in the order given, and the scan stops as soon as the
    fit below is proved; later samples are never used.  Where a helper
    process shares the work (see the module docstring), a member may be
    built a few samples ahead, but its outcome is acted on only when the
    scan reaches it, and the member at infinity is read after the loop,
    so the report and every error are those of a scan with no helper,
    also when the helper is lost.  Each member's lift omega1 + t*omega2
    is built only with the member, by the process that builds it, so an
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
    identically.  A scan that runs out of samples first reports as long
    as it has min_samples(d) = 2h + 5 (three held out past the fit), with
    certified false.  The reduced ratio is unique, so it is the one a fit
    at degrees (d, d) finds.

    The count: distinct roots of the numerator over the closure, through
    its squarefree part, plus the members the fit does not see.  At a
    singular member where the pattern changes, a root of both D and L,
    D's factor cancels into the denominator; so the members skipped for
    their pattern are read off their values, and right after the fit the
    member at each rational root of the denominator is built once (here,
    with the member at infinity's criterion), unless it is a sample
    already built.  Each of those that is singular, at a t where the
    numerator does not vanish, joins the count.  The member at infinity
    (omega2 alone) is singular when its trace form is degenerate, the
    samples' criterion v = 0, and joins it too.  certified says the
    count is proved: the scan stopped on d + e + 1 agreeing samples, and
    the denominator's squarefree part splits into linear factors over Q
    (its rational roots found by _rational_roots), each with a member
    that could be built.

    ValueError is raised, before any member is built, for a bad
    argument: when degree_bound is not a nonnegative integer; when the
    samples repeat a value as rationals (a fit through it would be
    underdetermined) or are fewer than min_samples(d); when table does
    not reach degree 3 or is a table of another algebra; and when the
    classes of omega1 and omega2 are dependent, so that every member is
    the same quadric.  HypothesisViolation is raised, also before any
    member, when omega1 or omega2 is not central.  PencilError is raised
    only for an outcome of the scan, once members have been read: when no
    sample admits the construction, when the values vanish identically,
    when a fit ratio v / v0 is negative or not a rational square (naming
    the sample), when the fit misses a fit point or its square exceeds
    degree d, when a later sample disagrees with it (naming the sample)
    and when the main pattern ends with fewer than min_samples(d)
    samples.  mode is "polynomial" when the reduced denominator is 1,
    else "rational".
    """
    need = min_samples(degree_bound)
    samples = [qq(lam) for lam in samples]
    d = degree_bound
    if len(set(samples)) != len(samples):
        raise ValueError("sample values must be distinct rationals")
    if len(samples) < need:
        raise ValueError("need at least %d samples at degree bound %d, have %d"
                         % (need, d, len(samples)))
    omega1_lift = [qq(c) for c in omega1_lift]
    omega2_lift = [qq(c) for c in omega2_lift]
    if table is None:
        table = build_table(S, 3)
    elif table.presentation is not S and not table.presentation.relation_span_equals(S):
        raise ValueError("the table is not a table of this presentation")
    c1 = require_central(table, omega1_lift, "omega1")
    c2 = require_central(table, omega2_lift, "omega2")
    span = SpanBuilder(len(c1))
    if not (span.add(c1) and span.add(c2)):
        raise ValueError("omega1 and omega2 have dependent classes: every member is one quadric")

    fit_size = 2 * ((d + 1) // 2) + 2
    built = []            # (lambda, pattern, value) per member; (lambda, None, reason) if it failed
    counts: dict = {}
    main = fit = None
    points: list = []
    poles: dict = {}      # lambda -> singular, or None if its member could not be built
    roots_split = True    # the fit's denominator is a product of linear factors over Q

    def singular(lift):
        return not det(trace_gram(clifford_with_scale(HypersurfaceData(S, lift))[0]))

    def lift_at(lam):
        return [a + lam * b for a, b in zip(omega1_lift, omega2_lift)]

    def pole(lam):
        try:
            return singular(lift_at(lam))
        except HypothesisViolation:
            return None

    def member(job):
        return singular(omega2_lift) if job == _AT_INFINITY else _scan_sample(
            S, lift_at(samples[job]))
    helper = _Helper(member, len(samples))
    try:
        for i, lam in enumerate(samples):
            # samples worth building: up to the stop, or _AHEAD past its earliest
            left = stop - len(points) if fit else need + _AHEAD - max(counts.values(), default=0)
            try:
                value, pattern = helper.take(i, left)
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
                roots, roots_split = _rational_roots(fit.denominator)
                patterns = {x: p for x, p, _ in built}
                for r in roots:  # a pole built as a sample is read below, unless it failed
                    if r not in patterns:
                        poles[r] = pole(r)
                    elif patterns[r] is None:
                        poles[r] = None
            elif pattern == main:
                fit.check(lam, value)
                points.append((lam, value))
                if len(points) == stop:
                    break
        if not counts:
            raise PencilError("no sample admitted the construction")
        if len(points) < need:
            raise PencilError("need at least %d usable samples at degree bound %d, have %d"
                              % (need, d, len(points) or max(counts.values())))
        infinity_singular = helper.take(_AT_INFINITY, 0)
        helper.kill()  # its exit overlaps the rest; close() reaps it
        skipped = [(lam, x if p is None else PATTERN_SKIP) for lam, p, x in built if p != main]
        mode = "polynomial" if fit.denominator == [1] else "rational"
        sq_degree = poly_squarefree_degree(fit.numerator)
        # members the fit does not see: those skipped for their pattern, and its poles
        off_fit = {lam: not x for lam, p, x in built if p not in (None, main)}
        off_fit.update(poles)
        missed = sum(1 for lam, sing in off_fit.items() if sing and poly_eval(fit.numerator, lam))
    finally:  # here, not in a generator: a PencilError's traceback would keep it alive
        helper.close()

    return PencilReport(
        sample_values=points,
        skipped=skipped,
        mode=mode,
        numerator=fit.numerator,
        denominator=fit.denominator,
        squarefree_degree=sq_degree,
        infinity_singular=infinity_singular,
        distinct_root_count=sq_degree + missed + (1 if infinity_singular else 0),
        fit_degree=fit.degree,
        certified=(len(points) >= d + fit.degree + 1 and roots_split
                   and None not in poles.values()),
    )
