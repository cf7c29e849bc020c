"""Tests of the benchmark itself: seeded inputs, failure counting, tracing.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402


def test_same_seed_gives_identical_inputs():
    assert wl.quadric_round(7, 3) == wl.quadric_round(7, 3)
    assert wl.pencil_inputs(7) == wl.pencil_inputs(7)
    assert wl.hilbert_inputs(7) == wl.hilbert_inputs(7)
    assert wl.quadric_round(7, 3) != wl.quadric_round(8, 3)
    assert wl.quadric_round(7, 3) != wl.quadric_round(7, 4)
    assert wl.pencil_inputs(7) != wl.pencil_inputs(8)


def test_generated_inputs_have_the_stated_shape():
    reqs = wl.quadric_round(0, 0)
    ranks = sorted(wl.frac_rank(r["q"]) for r in reqs if r["kind"] == "form")
    assert ranks == [1, 1, 2, 2, 3, 3, 4, 4, 4, 4]
    lams = [Fraction(r["lam"]) for r in reqs if r["kind"] == "member"]
    assert lams[:4] == list(wl.SINGULAR_LAMBDAS) and len(set(lams)) == 12
    pencil = wl.pencil_inputs(0)
    assert len(set(pencil["samples"])) == wl.PENCIL_SAMPLES
    assert wl.frac_rank(pencil["control_form"]) == 4
    m = wl.hilbert_inputs(0)["gl_matrix"]
    assert abs(wl.pencil_det_poly(m, [[0] * 4] * 4)[0]) == 1


def test_oracles_on_known_cases():
    # (t - 1)^2 (t - 2): two distinct roots
    assert wl.distinct_root_count([-2, 5, -4, 1]) == 2
    identity = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    # det(H + t I) = (t^2 - 1/4)^2: roots +-1/2, none at infinity
    assert wl.control_pencil_count(identity) == 2
    assert wl.expected_member_report("5")["ruling_count"] == 1
    assert wl.expected_member_report("2/7")["smooth"] is True


def test_rank_table_matches_even_clifford_oracle():
    from ncquad.cliff import even_clifford_oracle
    from ncquad.findim import analyze
    reqs = [r for r in wl.quadric_round(1, 0) if r["kind"] == "form"]
    for req in reqs[::2]:
        assert analyze(even_clifford_oracle(req["q"])).to_dict() == \
            wl.expected_form_report(req["q"])


def _hilbert_rounds(dims_9):
    ops = [{"id": "comm4_deg9", "verdict": {"dims": dims_9}},
           {"id": "koszul_sklyanin_a_deg6", "verdict": {"residual": [0] * 7}},
           {"id": "comm4_gl_deg7", "verdict": {"dims": wl.comm_dims(7)}}]
    for op in ops:
        op["latency"] = op["norm_latency"] = 1.0
    return [{"round": 0, "traced": False, "ops": ops}]


def test_wrong_verdict_is_counted_in_fail_frac():
    good = _hilbert_rounds(wl.comm_dims(9))
    attempted, failures = bench_run.score("hilbert", 0, good, {})
    assert (attempted, failures) == (3, [])
    bad = _hilbert_rounds(wl.comm_dims(9)[:-1] + [221])
    attempted, failures = bench_run.score("hilbert", 0, bad, {})
    assert attempted == 3 and [f["id"] for f in failures] == ["comm4_deg9"]
    metrics, _ = bench_run.end_to_end(bad, [0.1], 20.0, attempted, failures)
    assert metrics["ok_frac"]["value"] == 1 - 1 / 3


def test_raise_and_digest_mismatch_are_failures():
    lam_op = {"id": "r0.0", "latency": 0.1,
              "verdict": wl.expected_member_report("1"),
              "digest_key": "member:1", "digest": "0" * 16}
    raised = {"id": "r0.1", "latency": 0.1, "error": "HypothesisViolation: x"}
    rounds = [{"round": 0, "traced": False, "ops": [lam_op, raised]}]
    digests = {"member:1": "f" * 16}
    _, failures = bench_run.score("quadric", 0, rounds, digests)
    assert [f["id"] for f in failures] == ["r0.0", "r0.1"]
    lam_op["digest"] = "f" * 16
    _, failures = bench_run.score("quadric", 0, rounds, digests)
    assert [f["id"] for f in failures] == ["r0.1"]


def test_tail_percentile_keeps_ten_samples_beyond():
    lat = [float(i) for i in range(150)]
    pct, value = bench_run.tail_percentile(lat)
    assert pct == 90.0 and 133 <= value <= 135
    assert bench_run.tail_percentile(lat[:6])[0] == 50.0


def test_normalize_removes_probe_time_and_slow_phases():
    ref = speed.REFERENCE_S
    probe = speed.Probe()
    # samples at the reference speed up to t=10, then twice as slow
    probe.starts = [float(t) for t in range(20)]
    probe.durations = [ref if t < 10 else 2 * ref for t in range(20)]
    # a 3 s call from 2.5 holding three samples: only the probe's time goes
    assert abs(probe.normalize(2.5, 3.0) - (3.0 - 3 * ref)) < 1e-12
    # the same work in the slow phase took twice as long, probe time included
    work = 3.0 - 3 * ref
    assert abs(probe.normalize(12.5, 2 * work + 6 * 2 * ref) - work) < 1e-12
    # a call that holds no sample uses the samples on either side
    assert abs(probe.normalize(9.2, 0.3) - 0.2) < 1e-12
    # a set-up time with no sample at all stays as measured
    assert speed.rescale(0.2, [], []) == 0.2


def test_probe_samples_and_restores_the_alarm_handler():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with speed.Probe(interval=0.005) as probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(probe.durations) >= 5 and min(probe.durations) > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _bindings():
    mods = {n: m for n, m in sys.modules.items()
            if m is not None and (n == "ncquad" or n.startswith("ncquad."))}
    snap = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    from ncquad.cliff import HypersurfaceData
    from ncquad.findim import FinDimAlgebra
    snap[("init", "HypersurfaceData")] = HypersurfaceData.__dict__["__init__"]
    snap[("init", "FinDimAlgebra")] = FinDimAlgebra.__dict__["__init__"]
    return snap


def test_traced_run_restores_every_wrapped_function():
    import ncquad.cli  # noqa: F401  (binds layer functions too)
    from ncquad import qalg
    from ncquad.families import commutative_presentation
    before = _bindings()
    rec = spans.Recorder()
    with rec:
        assert qalg.rref is not before[("ncquad.qalg", "rref")]
        assert sys.modules["ncquad"].analyze is not before[("ncquad", "analyze")]
        qalg.build_table(commutative_presentation(), 3)
    names = {s[spans.NAME] for s in rec.spans}
    assert {"qalg.build_table", "exactlin.rref"} <= names
    assert _bindings() == before
    count = len(rec.spans)
    qalg.build_table(commutative_presentation(), 3)
    assert len(rec.spans) == count


def test_self_time_subtracts_covered_children():
    # parent 0..10, child 2..5 with bookkeeping to 6, grandchild 3..4
    recs = [["a", 0.0, 10.0, 10.0, -1, None],
            ["b", 2.0, 5.0, 6.0, 0, None],
            ["c", 3.0, 4.0, 4.0, 1, None]]
    calls, self_s = spans.self_times(recs)
    assert self_s == {"a": 6.0, "b": 2.0, "c": 1.0}
    assert calls == {"a": 1, "b": 1, "c": 1}
