"""Each benchmark workload runs once and matches its oracles and recorded digests.

For quadric, pencil and hilbert, perfbench/worker.py runs one plain and
one traced round (--seconds 0 --trace 1).  perfbench/run.py's score()
checks every operation of both rounds against its oracle and against
perfbench/expected_digests.json, and the three workloads together must
report every recorded digest key.  A changed digest, a changed verdict,
or a layer name the traced round cannot wrap fails here.  The test only
reads perfbench/.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ["quadric", "pencil", "hilbert"]


def _bench_run():
    """perfbench/run.py as a module; its sibling imports need perfbench on the path."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("_perfbench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


@pytest.fixture(scope="module")
def rounds():
    """The rounds each workload's worker reports, by workload."""
    out = {}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                               "--seed", "1", "--seconds", "0", "--trace", "1"],
                              cwd=str(BENCH.parent), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        out[workload] = json.loads(proc.stdout.strip().splitlines()[-1])["rounds"]
    return out


def _digests():
    return json.loads((BENCH / "expected_digests.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_plain_and_one_traced_round_pass(rounds, workload):
    assert [r["traced"] for r in rounds[workload]] == [False, True]
    attempted, failures = _bench_run().score(workload, 1, rounds[workload], _digests())
    assert attempted > 0
    assert failures == []


def test_every_recorded_digest_is_checked(rounds):
    keys = {op["digest_key"] for rs in rounds.values() for r in rs for op in r["ops"]
            if "digest_key" in op}
    assert keys == set(_digests())
    assert len(keys) == 7
