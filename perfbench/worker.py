"""One workload process: set up, note the ready time, run timed rounds.

Started by run.py in a fresh interpreter.  It imports ncquad from the
checkout's ``src``, does the workload's one-time preparation, records
``time.monotonic()`` when ready (the parent measured the same clock
before spawning it), and with ``--setup-only`` stops there.  Otherwise it
runs rounds until ``--seconds`` would be exceeded, timing each operation
on its own, and prints one JSON line with every operation's verdict,
latency and output digest.  The machine-speed probe (speed.py) runs
through the set-up, whose samples go back to run.py, and without tracing
through the timed phase, where every operation also gets its
speed-normalized latency.  With ``--trace 1`` the timed phase has no
probe; each round runs untraced and then traced on the same inputs, and
the per-layer metrics come from the traced rounds only.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402  (sibling modules; path set above)
import speed  # noqa: E402
import workloads as wl  # noqa: E402

clock = time.perf_counter


def _load(qalg, name):
    text = (ROOT / "presentations" / (name + ".json")).read_text()
    return qalg.QuadraticPresentation.load(text)


def _late(module, name, *args, **kwargs):
    """Call module.name looked up now, so the traced pass sees its wrapper."""
    return getattr(module, name)(*args, **kwargs)


def table_digest(table) -> str:
    """Normal words and every nonzero entry of the left and right maps."""
    parts = [table.dims, table.words]
    for maps in (table.left, table.right):
        for by_gen in maps:
            for m in by_gen:
                parts.append([(i, j, wl.qstr(x)) for i, row in enumerate(m.entries)
                              for j, x in enumerate(row) if x])
    return wl.digest(parts)


class Quadric:
    """One-quadric verdicts: HypersurfaceData -> clifford_with_scale -> analyze."""

    def __init__(self, seed):
        from ncquad import cliff, exactlin, families, findim, qalg
        self.cliff, self.findim, self.families = cliff, findim, families
        self.qq = exactlin.qq
        self.seed = seed
        self.sk = _load(qalg, "sklyanin_a")
        self.cm = _load(qalg, "comm4")
        table = qalg.build_table(self.sk, 3)
        centre = qalg.central_quadratic_space(table)
        self.w1 = qalg.element_word_lift(table, centre.column(0), 2)
        self.w2 = qalg.element_word_lift(table, centre.column(1), 2)

    def _verdict(self, S, lift):
        alg, det_w2 = self.cliff.clifford_with_scale(self.cliff.HypersurfaceData(S, lift))
        return alg, det_w2, self.findim.analyze(alg)

    @staticmethod
    def _report_out(out):
        return {"verdict": out[2].to_dict()}

    @staticmethod
    def _member_out(lam):
        def finish(out):
            alg, det_w2, report = out
            res = {"verdict": report.to_dict()}
            if wl.is_singular(lam):
                res["digest_key"] = "member:" + lam
                res["digest"] = wl.digest([alg.labels,
                                           [[[wl.qstr(c) for c in v] for v in row]
                                            for row in alg.structure],
                                           [wl.qstr(c) for c in alg.unit],
                                           wl.qstr(det_w2), res["verdict"]])
            return res
        return finish

    def ops(self, rnd):
        out = []
        for req in wl.quadric_round(self.seed, rnd):
            if req["kind"] == "member":
                lam = self.qq(req["lam"])
                S, lift = self.sk, [a + lam * b for a, b in zip(self.w1, self.w2)]
                finish = self._member_out(req["lam"])
            else:
                S, lift = self.cm, self.families.symmetric_form_to_element(req["q"])
                finish = self._report_out
            out.append((req["id"], functools.partial(self._verdict, S, lift), finish))
        return out


class Pencil:
    """Two pencil_discriminant scans: sklyanin_a and a commutative control."""

    def __init__(self, seed):
        from ncquad import families, qalg, skly
        inputs = wl.pencil_inputs(seed)
        samples = inputs["samples"]
        sk, cm = _load(qalg, "sklyanin_a"), _load(qalg, "comm4")
        sk_table, cm_table = qalg.build_table(sk, 3), qalg.build_table(cm, 3)
        centre = qalg.central_quadratic_space(sk_table)
        scan = functools.partial(_late, skly, "pencil_discriminant", samples=samples,
                                 degree_bound=wl.PENCIL_DEGREE_BOUND)
        self._ops = [
            ("sklyanin_a", functools.partial(
                scan, sk, qalg.element_word_lift(sk_table, centre.column(0), 2),
                qalg.element_word_lift(sk_table, centre.column(1), 2), table=sk_table),
             functools.partial(self._finish, len(samples), "pencil:sklyanin_a")),
            ("control", functools.partial(
                scan, cm, families.symmetric_form_to_element(wl.HYPERBOLIC),
                families.symmetric_form_to_element(inputs["control_form"]),
                table=cm_table),
             functools.partial(self._finish, len(samples), None)),
        ]

    @staticmethod
    def _finish(attempted, digest_key, rep):
        res = {"verdict": {"count": rep.distinct_root_count, "mode": rep.mode,
                           "attempted": attempted, "used": len(rep.sample_values)}}
        if digest_key:
            # the reduced fit is unique, so it does not depend on the samples
            res["digest_key"] = digest_key
            res["digest"] = wl.digest([rep.mode, [wl.qstr(c) for c in rep.numerator],
                                       [wl.qstr(c) for c in rep.denominator],
                                       rep.squarefree_degree, rep.infinity_singular,
                                       rep.distinct_root_count])
        return res

    def ops(self, rnd):
        return self._ops


class Hilbert:
    """High-degree graded tables of S: sparse, 15%-dense rational, dense integer."""

    def __init__(self, seed):
        from ncquad import qalg
        cm, sk = _load(qalg, "comm4"), _load(qalg, "sklyanin_a")
        cm_gl = qalg.QuadraticPresentation(
            cm.generator_names, wl.gl_comm_relations(wl.hilbert_inputs(seed)["gl_matrix"]))
        build = functools.partial(_late, qalg, "build_table")
        koszul = functools.partial(_late, qalg, "koszul_identity_check")
        self._ops = [
            ("comm4_deg%d" % wl.HILBERT_COMM_DEGREE,
             functools.partial(build, cm, wl.HILBERT_COMM_DEGREE), self._table_out),
            ("koszul_sklyanin_a_deg%d" % wl.HILBERT_KOSZUL_DEGREE,
             functools.partial(koszul, sk, wl.HILBERT_KOSZUL_DEGREE),
             lambda residual: {"verdict": {"residual": list(residual)}}),
            ("comm4_gl_deg%d" % wl.HILBERT_GL_DEGREE,
             functools.partial(build, cm_gl, wl.HILBERT_GL_DEGREE), self._table_out),
        ]

    @staticmethod
    def _table_out(table):
        # A change of generators keeps the relation span, hence the reduced
        # table: the GL job must reproduce the plain comm4 digest.
        return {"verdict": {"dims": list(table.dims)},
                "digest_key": "table:comm4:%d" % table.max_degree,
                "digest": table_digest(table)}

    def ops(self, rnd):
        return self._ops


BENCHES = {"quadric": Quadric, "pencil": Pencil, "hilbert": Hilbert}


def run_op(op_id, thunk, finish) -> dict:
    """Time one call; a raised exception is recorded as the op's outcome."""
    t0 = clock()
    try:
        out = thunk()
    except Exception as exc:  # any raise is a failed operation, counted by run.py
        return {"id": op_id, "start": t0, "latency": clock() - t0,
                "error": "%s: %s" % (type(exc).__name__, exc)}
    op = {"id": op_id, "start": t0, "latency": clock() - t0}
    op.update(finish(out))
    return op


def environment(seed):
    from ncquad import exactlin
    qq_type = exactlin.QQ
    return {"backend": "%s.%s" % (qq_type.__module__, qq_type.__qualname__),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed}


def timed_phase(bench, seconds: float, trace: bool) -> dict:
    """Closed loop of rounds until the next one would overrun ``seconds``.

    Without tracing the speed probe samples the machine throughout.  With
    tracing every operation runs twice back to back, plain and then
    traced, so the overhead ratio compares the same inputs.
    """
    recorder = spans.Recorder()
    probe = speed.Probe()
    rounds = []
    start = clock()
    rnd = 0
    with contextlib.nullcontext() if trace else probe:
        while True:
            t0 = clock()
            plain, traced = [], []
            for op_id, thunk, finish in bench.ops(rnd):
                plain.append(run_op(op_id, thunk, finish))
                if trace:
                    with recorder:
                        traced.append(run_op(op_id, thunk, finish))
            rounds.append({"round": rnd, "traced": False, "ops": plain})
            if trace:
                rounds.append({"round": rnd, "traced": True, "ops": traced})
            rnd += 1
            if clock() - start + (clock() - t0) > seconds:
                break
    out = {"rounds": rounds}
    if not trace:
        for r in rounds:
            for op in r["ops"]:
                op["norm_latency"] = probe.normalize(op["start"], op["latency"])
        out["speed"] = {"samples": len(probe.durations), "fastest_s": min(probe.durations),
                        "median_s": statistics.median(probe.durations)}
    if trace:
        wall = {flag: sum(op["latency"] for r in rounds if r["traced"] is flag
                          for op in r["ops"]) for flag in (False, True)}
        pencil = [op["verdict"] for r in rounds if r["traced"] for op in r["ops"]
                  if "attempted" in op.get("verdict", {})]
        metrics = spans.layer_metrics(
            recorder.spans, rnd, wall[True], wall[False], recorder.violations,
            sum(v["attempted"] for v in pencil), sum(v["used"] for v in pencil))
        out["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BENCHES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    with speed.Probe() as setup_probe:
        bench = BENCHES[args.workload](args.seed)
        ready = time.monotonic()
    result = {"ready": ready, "setup_probe_s": setup_probe.durations}
    if not args.setup_only:
        result.update(timed_phase(bench, args.seconds, bool(args.trace)))
        result["env"] = environment(args.seed)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
