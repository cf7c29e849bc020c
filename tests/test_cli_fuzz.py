"""Fuzzing of the command line: every input ends in exit code 0, 1 or 2.

Generated --z strings over the expression alphabet, and generated
--phi/--psi JSON, run through cli.main on comm4 and sklyanin_a; and
generated presentation files (any JSON value, or a well-formed object
with random generator names, words and coefficient strings) run through
hilbert, dual, center, smooth and pencil with generated flags.  An
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


# -- generated presentation files --

IDENTIFIERS = st.sampled_from(["x0", "x1", "x2", "a", "b", "y_1"])
COEFS = st.builds("{}/{}".format, st.integers(-30, 30), st.integers(1, 5)) | \
    st.integers(-30, 30).map(str)
MESSY_COEFS = COEFS | RATIONALS | st.sampled_from(["", "x0", "1/0", "-", "1.5", " 2"])
COMMUTING = st.sampled_from([("1", "-1"), ("1", "1")])   # x y = y x, or x y = -y x
SIGNS = COMMUTING | st.sampled_from([("1", "-2"), ("2", "-1")])


def _commutator(a, b, signs):
    """The relation c a b + c' b a."""
    return [{"coef": signs[0], "word": [a, b]}, {"coef": signs[1], "word": [b, a]}]


# at most three generators keep every table small: C(A) reads the dual to degree 4
MAX_GENERATORS = 3


@st.composite
def presentations(draw):
    """A presentation object on one to MAX_GENERATORS generators.

    A third of the draws are (skew) commutative, x y = q y x for each
    pair, maybe with one more random relation, so that central quadrics,
    C(A) and pencil scans are common; a third take random relations over
    distinct identifier names with rational coefficients; and the rest
    mix in any text as a name or word, and coefficient strings that do
    not parse.
    """
    kind = draw(st.sampled_from(["commuting", "random", "messy"]))
    name = IDENTIFIERS | st.text(max_size=3) if kind == "messy" else IDENTIFIERS
    names = draw(st.lists(name, min_size=1, max_size=MAX_GENERATORS,
                          unique=kind != "messy"))
    letter = st.sampled_from(names) | name if kind == "messy" else st.sampled_from(names)
    term = st.fixed_dictionaries({"coef": MESSY_COEFS if kind == "messy" else COEFS,
                                  "word": st.lists(letter, min_size=2, max_size=2)})
    relation = st.lists(term, min_size=1, max_size=3) | st.builds(_commutator, letter,
                                                                   letter, SIGNS)
    if kind == "commuting":
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        relations = [_commutator(a, b, draw(COMMUTING)) for a, b in pairs]
        return {"generators": names,
                "relations": relations + draw(st.lists(relation, max_size=1))}
    return {"generators": names,
            "relations": draw(st.lists(relation, max_size=len(names) ** 2))}


ANY_JSON = st.recursive(SCALARS | st.text(max_size=4), lambda inner: st.lists(
    inner, max_size=3) | st.dictionaries(st.sampled_from(
        ["generators", "relations", "coef", "word", "x0"]) | st.text(max_size=3),
    inner, max_size=3), max_leaves=12)


@st.composite
def presentation_commands(draw, names):
    """argv after the file for one of hilbert, dual, center, smooth and pencil."""
    spec = st.sampled_from(["0", "1", "2"])
    if names:
        letter = st.sampled_from(names)
        # two terms, or a diagonal form, central wherever the squares are
        spec |= st.builds("{}*{}*{} + {}*{}*{}".format, COEFS, letter, letter,
                          RATIONALS, letter, letter)
        spec |= st.lists(COEFS, min_size=len(names), max_size=len(names)).map(
            lambda cs: " + ".join("%s*%s*%s" % (c, n, n) for c, n in zip(cs, names)))
    command = draw(st.sampled_from(["hilbert", "dual", "center", "smooth", "pencil"]))
    if command == "hilbert":
        return [command, "--degree", str(draw(st.integers(-2, 6)))]
    if command == "smooth":
        return [command, "--z", draw(spec)]
    if command == "pencil":
        return [command, "--omega1", draw(spec), "--omega2", draw(spec),
                "--samples", str(draw(st.integers(0, 30))),
                "--degree-bound", str(draw(st.integers(-2, 8)))]
    return [command]


@pytest.fixture(scope="module")
def presentation_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "presentation.json"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_presentation_files_keep_the_exit_code_contract(presentation_file, data):
    payload = data.draw(presentations() | ANY_JSON)
    names = payload.get("generators") if isinstance(payload, dict) else None
    names = [n for n in names if isinstance(n, str)] if isinstance(names, list) else []
    argv = data.draw(presentation_commands(names))
    presentation_file.write_text(json.dumps(payload))
    argv = argv[:1] + [str(presentation_file)] + argv[1:]
    assert exit_code(argv) in (0, 1, 2), (argv, payload)
