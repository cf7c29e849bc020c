"""Fuzzing of the command line: every input ends in exit code 0, 1 or 2.

Generated --z strings over the expression alphabet, and generated
--phi/--psi JSON, run through cli.main on comm4 and sklyanin_a.  An
exception that escapes main (a traceback) fails the test; so does an
exit code outside the contract or a traceback on stderr.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ncquad.cli import main  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
FILES = [str(ROOT / "presentations" / name) for name in ("comm4.json", "sklyanin_a.json")]
PHI = "[[[1,0,0,0],[0,1,0,0]],[[0,0,1,0],[0,0,0,1]]]"
PSI = "[[[0,0,0,1],[0,-1,0,0]],[[0,0,-1,0],[1,0,0,0]]]"

GENERATORS = st.sampled_from(["x0", "x1", "x2", "x3"])
RATIONALS = st.builds("{}/{}".format, st.integers(0, 30), st.integers(0, 5)) | \
    st.integers(0, 30).map(str)
TOKENS = GENERATORS | RATIONALS | st.sampled_from(["+", "-", "*", "(", ")", " ", "/"])
# well-formed sums of degree-2 terms reach the central check and C(A)
TERMS = st.builds("{}*{}*{}".format, RATIONALS, GENERATORS, GENERATORS)
Z_SPECS = (st.lists(TOKENS, max_size=12).map("".join)
           | st.lists(TERMS, min_size=1, max_size=3).map(" + ".join)
           | st.integers(0, 11).map(str))

SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=True)
           | st.sampled_from(["1/2", "-1", "1/0", "x0", ""]))
JSON_VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=24)
# square matrices of coefficient vectors of any size, the shape the check wants
FACTORS = st.integers(1, 2).flatmap(lambda s: st.lists(
    st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), min_size=s, max_size=s),
    min_size=s, max_size=s))
FACTOR_TEXT = (JSON_VALUES | FACTORS).map(json.dumps) | \
    st.text(alphabet="[]{},:0123456789-\" ", max_size=16)


def exit_code(argv) -> int:
    """Exit code of main on argv (argparse's usage errors included), checking stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert "Traceback" not in err.getvalue(), err.getvalue()
    return code


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FILES), st.sampled_from(["smooth", "clifford", "mf-verify"]), Z_SPECS)
def test_fuzzed_z_keeps_the_exit_code_contract(path, command, spec):
    argv = [command, path, "--z", spec]
    if command == "mf-verify":
        argv += ["--phi", PHI, "--psi", PSI]
    assert exit_code(argv) in (0, 1, 2), argv


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FILES), FACTOR_TEXT, FACTOR_TEXT)
def test_fuzzed_factors_keep_the_exit_code_contract(path, phi, psi):
    argv = ["mf-verify", path, "--z", "x0*x3-x1*x2", "--phi", phi, "--psi", psi]
    assert exit_code(argv) in (0, 1, 2), argv
