"""Span recorder for the traced pass, and the per-layer metrics built from it.

The recorder wraps ncquad's layer functions at module-attribute level in
every ncquad module that binds them (``from .exactlin import rref`` makes
a second binding), and the two classes through their ``__init__``.  Each
call records a span [name, start, end, covered_end, parent, stats]:
``end`` closes the call itself, ``covered_end`` also covers the recorder's
own bookkeeping after it, so that bookkeeping is not charged to the
parent's self time.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

POLY = ("poly_trim", "poly_degree", "poly_eval", "poly_mul", "poly_sub",
        "poly_deriv", "poly_monic", "poly_gcd", "poly_squarefree_degree",
        "poly_interpolate")

LAYERS = {
    "exactlin": ("rref", "kernel_basis", "det", "inverse") + POLY,
    "qalg": ("build_table", "koszul_dual", "multiply", "is_regular_central"),
    "cliff": ("HypersurfaceData", "dual_central_element", "clifford_from_dual",
              "clifford_with_scale"),
    "findim": ("FinDimAlgebra", "trace_gram", "radical", "quotient_by_subspace",
               "center_basis", "commutator_ideal", "analyze"),
    "skly": ("pencil_discriminant",),
}

CLASSES = ("HypersurfaceData", "FinDimAlgebra")

# Spans directly under pencil_discriminant that build or evaluate a member.
MEMBER_SPANS = frozenset(("cliff.HypersurfaceData", "cliff.clifford_with_scale",
                          "findim.trace_gram", "exactlin.det", "findim.analyze"))

NAME, START, END, COVERED, PARENT, STATS = range(6)


def _max_bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            if x:
                b = max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                if b > best:
                    best = b
    return best


def _rref_stats(args, result):
    m = args[0]
    red, pivots = result
    return (m.rows, m.rows * m.cols, len(pivots), _max_bits(red.entries))


STATS_FNS = {"exactlin.rref": _rref_stats}


class Recorder:
    """Collects spans while installed; restores the originals on uninstall."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.violations = 0
        self._last_violation = None
        self._patches: list = []

    def _wrap(self, name, fn, violation_cls):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        stats_fn = STATS_FNS.get(name)
        counts_violations = name.startswith("cliff.")
        rec = self

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except violation_cls as exc:
                span[END] = span[COVERED] = clock()
                stack.pop()
                if counts_violations and exc is not rec._last_violation:
                    rec.violations += 1
                    rec._last_violation = exc
                raise
            except BaseException:
                span[END] = span[COVERED] = clock()
                stack.pop()
                raise
            span[END] = clock()
            stack.pop()
            if stats_fn is not None:
                span[STATS] = stats_fn(args, result)
            span[COVERED] = clock()
            return result

        return traced

    def install(self):
        from ncquad.cliff import HypothesisViolation
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ncquad" or n.startswith("ncquad."))]
        for layer, names in LAYERS.items():
            home = sys.modules["ncquad." + layer]
            for attr in names:
                original = getattr(home, attr)
                full = "%s.%s" % (layer, attr)
                if attr in CLASSES:
                    init = original.__init__
                    self._patches.append((original, "__init__", init))
                    original.__init__ = self._wrap(full, init, HypothesisViolation)
                    continue
                wrapper = self._wrap(full, original, HypothesisViolation)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> tuple:
    """Per-name call counts and self seconds (duration minus children covered)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[COVERED] - s[START]
    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s[NAME]] += 1
        self_s[s[NAME]] += (s[END] - s[START]) - covered[i]
    return calls, self_s


def layer_metrics(spans, rounds: int, traced_wall: float, untraced_wall: float,
                  violations: int, samples_attempted: int, samples_used: int) -> dict:
    """The per-layer metrics, per traced round, as {name: (value, unit)}."""
    calls, self_s = self_times(spans)
    per = 1.0 / rounds
    rref = [s[STATS] for s in spans if s[NAME] == "exactlin.rref" and s[STATS]]
    rref_rows = sum(st[0] for st in rref)
    sample_s = fit_s = 0.0
    for s in spans:
        p = s[PARENT]
        if p >= 0 and spans[p][NAME] == "skly.pencil_discriminant":
            if s[NAME] in MEMBER_SPANS:
                sample_s += s[COVERED] - s[START]
            elif s[NAME].startswith("exactlin."):
                fit_s += s[COVERED] - s[START]
    root_s = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    put("exactlin.rref.calls", calls["exactlin.rref"] * per, "count")
    put("exactlin.rref.self_s", self_s["exactlin.rref"] * per, "s")
    put("exactlin.rref.cells", sum(st[1] for st in rref) * per, "count")
    put("exactlin.rref.max_cells", max((st[1] for st in rref), default=0), "count")
    put("exactlin.rref.rank_yield",
        sum(st[2] for st in rref) / rref_rows if rref_rows else 0.0, "ratio")
    put("exactlin.rref.max_bits", max((st[3] for st in rref), default=0), "bits")
    put("exactlin.kernel_basis.self_s", self_s["exactlin.kernel_basis"] * per, "s")
    put("exactlin.det.calls", calls["exactlin.det"] * per, "count")
    put("exactlin.det.self_s", self_s["exactlin.det"] * per, "s")
    put("exactlin.inverse.self_s", self_s["exactlin.inverse"] * per, "s")
    put("exactlin.poly.self_s",
        sum(self_s["exactlin." + n] for n in POLY) * per, "s")
    for name in ("qalg.build_table", "qalg.koszul_dual", "qalg.multiply"):
        put(name + ".calls", calls[name] * per, "count")
        put(name + ".self_s", self_s[name] * per, "s")
    for name in ("qalg.is_regular_central", "cliff.HypersurfaceData",
                 "cliff.dual_central_element", "cliff.clifford_from_dual"):
        put(name + ".self_s", self_s[name] * per, "s")
    put("cliff.violations", violations * per, "count")
    for name in LAYERS["findim"]:
        put("findim.%s.self_s" % name, self_s["findim." + name] * per, "s")
    put("skly.samples_attempted", samples_attempted * per, "count")
    put("skly.samples_used", samples_used * per, "count")
    put("skly.sample_yield",
        samples_used / samples_attempted if samples_attempted else 0.0, "ratio")
    put("skly.sample_s", sample_s * per, "s")
    put("skly.fit_s", fit_s * per, "s")
    put("skly.pencil_discriminant.self_s", self_s["skly.pencil_discriminant"] * per, "s")
    put("trace.overhead", traced_wall / untraced_wall, "ratio")
    put("trace.coverage", root_s / traced_wall, "ratio")
    return out
