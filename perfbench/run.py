"""ncquad benchmark: run one workload, check every output, print the metrics.

    python3 perfbench/run.py --workload quadric --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The workload runs in a fresh worker
interpreter (perfbench/worker.py) as a closed loop with one client.
Operation and set-up times are speed-normalized by the probe in
speed.py, and the raw figures go to the details line.  The set-up time
is the median over several fresh interpreters.  Every
verdict is checked here against the oracles in workloads.py and every
seed-independent output against expected_digests.json.  The last line
of standard output is the result object; the line before it holds the
environment and run details.  With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones (see NOTES.md).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 10
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _spawn(args, timeout):
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + args, cwd=str(ROOT),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded %.0f s" % timeout)
    if proc.returncode != 0:
        raise BenchError("worker exited with %d: %s" % (proc.returncode, err.strip()[-2000:]))
    data = json.loads(out.strip().splitlines()[-1])
    setup = data["ready"] - t0
    if not 0 < setup < timeout:
        raise BenchError("implausible set-up time %r" % setup)
    return setup, data


def tail_percentile(latencies):
    """Highest ladder percentile with at least ten samples beyond it (else p50)."""
    n = len(latencies)
    pct = max((p for p in PERCENTILES if n * (1 - p / 100.0) >= 10), default=50.0)
    cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
    return pct, cuts[int(round(pct * 10)) - 1]


def check_op(op, want, expected_digests):
    """Why this operation failed, or None when it matches its oracle."""
    if "error" in op:
        return "raised " + op["error"]
    verdict = op["verdict"]
    if any(verdict.get(k) != v for k, v in want.items()):
        return "verdict %r, oracle %r" % (verdict, want)
    key = op.get("digest_key")
    if key is not None and expected_digests.get(key) != op["digest"]:
        return "digest %s for %s, recorded %s" % (op["digest"], key,
                                                 expected_digests.get(key))
    return None


def expected_ops(workload, seed, rounds):
    """Oracle verdict for every operation id the worker can report."""
    out = {}
    if workload == "quadric":
        for rnd in range(rounds):
            for req in wl.quadric_round(seed, rnd):
                if req["kind"] == "member":
                    out[req["id"]] = wl.expected_member_report(req["lam"])
                else:
                    out[req["id"]] = wl.expected_form_report(req["q"])
    elif workload == "pencil":
        form = wl.pencil_inputs(seed)["control_form"]
        out["sklyanin_a"] = {"count": wl.SKLYANIN_SINGULAR_COUNT}
        out["control"] = {"count": wl.control_pencil_count(form)}
    else:
        dims = wl.comm_dims
        out["comm4_deg%d" % wl.HILBERT_COMM_DEGREE] = {"dims": dims(wl.HILBERT_COMM_DEGREE)}
        out["koszul_sklyanin_a_deg%d" % wl.HILBERT_KOSZUL_DEGREE] = {
            "residual": [0] * (wl.HILBERT_KOSZUL_DEGREE + 1)}
        out["comm4_gl_deg%d" % wl.HILBERT_GL_DEGREE] = {"dims": dims(wl.HILBERT_GL_DEGREE)}
    return out


def score(workload, seed, rounds, digests):
    """(attempted, failures): every operation checked against its oracle."""
    oracle = expected_ops(workload, seed, max(r["round"] for r in rounds) + 1)
    failures = []
    attempted = 0
    for r in rounds:
        for op in r["ops"]:
            attempted += 1
            why = check_op(op, oracle[op["id"]], digests)
            if why:
                failures.append({"id": op["id"], "traced": r["traced"], "why": why})
    return attempted, failures


def end_to_end(plain, setups, peak_rss_mb, attempted, failures, key="norm_latency"):
    """The end-to-end metrics from the untraced rounds and the set-up times.

    Operation times are the speed-normalized latencies (speed.py); with
    ``key="latency"`` the same metrics come from the raw ones.  ``setups``
    are the set-up times, normalized or raw to match.
    """
    latencies = sorted(op[key] for r in plain for op in r["ops"])
    pct, tail = tail_percentile(latencies)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(sum(op[key] for op in r["ops"])
                                     for r in plain), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail, "s"),
        "ok_frac": (1.0 - len(failures) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return metrics, {"percentile": pct, "n": len(latencies)}


def run(workload, seed, seconds, trace):
    if not (ROOT / "src" / "ncquad" / "__init__.py").is_file() or \
            not (ROOT / "presentations").is_dir():
        raise BenchError("no ncquad source tree at %s" % ROOT)
    started = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed)]
    spawns = [_spawn(base + ["--setup-only"], 60) for _ in range(SETUP_PROBES - 1)]
    budget = DEADLINE_S - (time.monotonic() - started)
    setup, data = _spawn(base + ["--seconds", str(seconds), "--trace", str(trace)], budget)
    spawns.append((setup, data))
    setups = [s for s, _ in spawns]

    digests = json.loads((HERE / "expected_digests.json").read_text())
    attempted, failures = score(workload, seed, data["rounds"], digests)
    plain = [r for r in data["rounds"] if not r["traced"]]
    raw, tail = end_to_end(plain, setups, data["peak_rss_mb"], attempted, failures,
                           key="latency")
    details = {
        "workload": workload, "env": data["env"], "trace": trace,
        "fail_frac": len(failures) / attempted,
        "raw": {k: raw[k]["value"] for k in ("setup_s", "wall_s", "op_p50_s", "op_tail_s")},
        "round_walls_s": [sum(op["latency"] for op in r["ops"]) for r in plain],
        "setup_samples_s": setups,
        "modes": sorted({op["verdict"]["mode"] for r in plain for op in r["ops"]
                         if "mode" in op.get("verdict", {})}),
        "digests": {op["digest_key"]: op["digest"] for r in plain for op in r["ops"]
                    if "digest_key" in op},
        "failures": failures[:20],
    }
    if trace:
        metrics = data["layers"]
    else:
        norm_setups = [speed.rescale(s, d["setup_probe_s"], d["setup_probe_s"])
                       for s, d in spawns]
        metrics, tail = end_to_end(plain, norm_setups, data["peak_rss_mb"], attempted,
                                   failures)
        details["speed"] = data["speed"]
    details["op_tail"] = tail
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return details, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ncquad benchmark (see NOTES.md)")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        details, result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
