import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ncquad
from ncquad import cli, cliff
from ncquad.cli import main, parse_quadratic_expression, resolve_z_spec
from ncquad.exactlin import qq
from ncquad.families import commutative_presentation, sklyanin_presentation, word_vector
from ncquad.qalg import QuadraticPresentation, build_table

ROOT = Path(__file__).resolve().parents[1]
COMM_FILE = str(ROOT / "presentations/comm4.json")
SKLY_FILE = str(ROOT / "presentations/sklyanin_a.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_expression_parser():
    names = ("x0", "x1", "x2", "x3")
    vec = parse_quadratic_expression("x0*x3-x1*x2", names)
    assert vec == word_vector(4, {(0, 3): 1, (1, 2): -1})
    vec = parse_quadratic_expression("1/2*x0*x0 + (x1 - x2)*x3", names)
    assert vec == word_vector(4, {(0, 0): qq(1, 2), (1, 3): 1, (2, 3): -1})
    with pytest.raises(ValueError):
        parse_quadratic_expression("x0", names)
    with pytest.raises(ValueError):
        parse_quadratic_expression("x0*x1*x2", names)
    with pytest.raises(ValueError):
        parse_quadratic_expression("y0*y1", names)


def test_resolve_central_index():
    p = QuadraticPresentation.load(open(SKLY_FILE).read())
    assert len(resolve_z_spec("1", p)) == 16
    with pytest.raises(ValueError):
        resolve_z_spec("7", p, build_table(p, 3))


def test_hilbert_command(capsys):
    code, out = run(capsys, "hilbert", SKLY_FILE, "--degree", "5", "--json")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 4, 10, 20, 35, 56]


def test_dual_roundtrip(capsys):
    code, out = run(capsys, "dual", COMM_FILE, "--json")
    assert code == 0
    dual = QuadraticPresentation.from_json_dict(json.loads(out))
    assert len(dual.relations) == 10


def test_center_command(capsys):
    code, out = run(capsys, "center", SKLY_FILE, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 2
    assert len(payload["basis"]) == 2


def test_smooth_command_spec_example(capsys):
    code, out = run(capsys, "smooth", COMM_FILE, "--z", "x0*x3-x1*x2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["smooth"] is True
    assert payload["ruling_count"] == 2


def test_smooth_roundtrips_as_json(capsys):
    code, out = run(capsys, "smooth", COMM_FILE, "--z", "x0*x0+x1*x1+x2*x2", "--json")
    payload = json.loads(out)
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload
    assert payload["ruling_count"] == 1 and payload["smooth"] is False


def test_clifford_command(capsys):
    code, out = run(capsys, "clifford", COMM_FILE, "--z", "x0*x3-x1*x2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 8
    assert len(payload["structure"]) == 8


@pytest.mark.parametrize("argv, generator", [
    (["smooth", SKLY_FILE, "--z", "x0*x0"], "generator x1"),
    (["clifford", SKLY_FILE, "--z", "x0*x0"], "generator x1"),
    (["pencil", SKLY_FILE, "--omega1", "x0*x0", "--omega2", "1"], "generator x1"),
], ids=["smooth", "clifford", "pencil"])
def test_noncentral_z_exit_code(argv, generator):
    env = dict(os.environ, PYTHONPATH=str(Path(ncquad.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "ncquad.cli"] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "centrality hypothesis failed" in proc.stderr
    assert generator in proc.stderr
    assert "Traceback" not in proc.stderr


def test_smooth_on_three_generators(capsys):
    # C(A) of a quadric in three variables has dimension 2^(3-1) = 4; rulings
    # are counted for four generators only
    code, out = run(capsys, "smooth", str(ROOT / "presentations/comm3.json"),
                    "--z", "x0*x0+x1*x1+x2*x2", "--json")
    assert code == 0
    report = json.loads(out)
    assert (report["dim"], report["smooth"], report["ruling_count"]) == (4, True, "n/a")


def test_clifford_has_no_degree_flag():
    env = dict(os.environ, PYTHONPATH=str(Path(ncquad.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "ncquad.cli", "clifford", COMM_FILE,
                           "--z", "x0*x3-x1*x2", "--degree", "8"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "unrecognized arguments: --degree 8" in proc.stderr


def test_lift_in_the_relation_span_exit_code():
    env = dict(os.environ, PYTHONPATH=str(Path(ncquad.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "ncquad.cli", "smooth", COMM_FILE,
                           "--z", "x0*x1-x1*x0"], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: independence hypothesis failed: "
                           "the degree-2 element lies in the relation span\n")


@pytest.mark.parametrize("flags", [["--samples", "10"], ["--degree-bound", "-2"],
                                   ["--samples", "20"]],
                         ids=["too-few-samples", "negative-degree-bound",
                              "one-below-fit-bound"])
def test_pencil_bad_flags_exit_code(flags):
    env = dict(os.environ, PYTHONPATH=str(Path(ncquad.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "ncquad.cli", "pencil", SKLY_FILE,
                           "--omega1", "0", "--omega2", "1"] + flags,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("omega2", ["1", "x0*x0"], ids=["central", "not-central"])
def test_pencil_sample_count_is_checked_by_the_scan(capsys, omega2):
    # the scan refuses too few samples before it checks omega1 and omega2
    # for centrality, so x0*x0, not central in sklyanin_a, also exits 2
    code = main(["pencil", SKLY_FILE, "--omega1", "0", "--omega2", omega2, "--samples", "5"])
    assert code == 2
    assert capsys.readouterr() == (
        "", "error: need at least 21 samples at degree bound 16, have 5\n")


@pytest.mark.parametrize("file, omega1, omega2", [
    (SKLY_FILE, "0", "0"),
    (COMM_FILE, "x0*x3-x1*x2", "2*x0*x3-2*x1*x2"),
    (COMM_FILE, "x0*x3-x1*x2", "x0*x3-x1*x2+x0*x1-x1*x0"),
], ids=["same-index", "multiple", "plus-a-relation"])
def test_degenerate_pencil_exit_code(capsys, file, omega1, omega2):
    code, out = run(capsys, "pencil", file, "--omega1", omega1, "--omega2", omega2)
    assert code == 2 and out == ""


def test_parse_error_exit_code(capsys):
    code, _ = run(capsys, "smooth", COMM_FILE, "--z", "x0*x9")
    assert code == 2
    code, _ = run(capsys, "smooth", COMM_FILE, "--z", "1/0*x0*x3")
    assert code == 2
    code, _ = run(capsys, "sklyanin", "--curve", "1/0,2", "--tau", "-4,6", "singular")
    assert code == 2
    code = main(["sklyanin", "--curve", "5", "--tau", "-4,6", "singular"])
    assert (code, capsys.readouterr().err) == (2, "error: expected 'x,y', got '5'\n")
    code, _ = run(capsys, "hilbert", "no-such-file.json")
    assert code == 2


BAD_PRESENTATIONS = {
    "unknown_generator": {"generators": ["x", "y"],
                          "relations": [[{"coef": "1", "word": ["x", "z"]}]]},
    "missing_relations": {"generators": ["x", "y"]},
    "missing_generators": {"relations": []},
    "zero_denominator": {"generators": ["x", "y"],
                         "relations": [[{"coef": "1/0", "word": ["x", "y"]}]]},
    "float_coefficient": {"generators": ["x", "y"],
                          "relations": [[{"coef": 0.5, "word": ["x", "y"]}]]},
    "bool_coefficient": {"generators": ["x", "y"],
                         "relations": [[{"coef": True, "word": ["x", "y"]}]]},
    "string_generators": {"generators": "xy", "relations": []},
    "object_generators": {"generators": {"x": 0, "y": 1}, "relations": []},
    "nonstring_generators": {"generators": [1, 2], "relations": []},
    "string_word": {"generators": ["x", "y"],
                    "relations": [[{"coef": "1", "word": "xy"}]]},
}


def test_inexact_presentation_coefficient_message(tmp_path, capsys):
    path = tmp_path / "inexact.json"
    path.write_text(json.dumps({"generators": ["x", "y"],
                                "relations": [[{"coef": "1.5", "word": ["x", "y"]}]]}))
    code = main(["hilbert", str(path), "--degree", "3"])
    assert (code, capsys.readouterr().err) == (
        2, "error: '1.5' is not an exact rational 'p' or 'p/q'\n")


# (1, 2, -1) satisfies the family's equation, but its algebra is not
# Koszul: no member's w is regular, with a left kernel at degree 2
NOT_KOSZUL_ERRORS = {
    ("pencil", "--omega1", "0", "--omega2", "1"):
        "error: no sample admitted the construction: every member failed regularity; the "
        "first, at 0: regularity hypothesis failed: w is not regular: left kernel at degree 2\n",
    ("smooth", "--z", "0"):
        "error: regularity hypothesis failed: w is not regular: left kernel at degree 2\n",
}


@pytest.mark.parametrize("argv", sorted(NOT_KOSZUL_ERRORS), ids=lambda argv: argv[0])
def test_irregular_w_message(tmp_path, capsys, argv):
    path = tmp_path / "not_koszul.json"
    path.write_text(json.dumps(sklyanin_presentation(1, 2, -1).to_json_dict()))
    code = main([argv[0], str(path), *argv[1:]])
    assert (code, capsys.readouterr().err) == (1, NOT_KOSZUL_ERRORS[argv])


@pytest.mark.parametrize("case", sorted(BAD_PRESENTATIONS))
def test_malformed_presentation_exit_code(tmp_path, case):
    path = tmp_path / (case + ".json")
    path.write_text(json.dumps(BAD_PRESENTATIONS[case]))
    env = dict(os.environ, PYTHONPATH=str(Path(ncquad.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "ncquad.cli", "hilbert", str(path),
                           "--degree", "3"], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_k0_suite(capsys):
    code, out = run(capsys, "k0", "suite", "--json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_k0_table_and_fat(capsys):
    code, out = run(capsys, "k0", "table", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["euler"][0] == [1, 1, 1, 1]
    code, out = run(capsys, "k0", "fat", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == [0, 1, -1, 3]
    assert payload["self_intersection"] == -2
    assert payload["h0"] == 3


def test_sklyanin_singular_spec_example(capsys):
    code, out = run(capsys, "sklyanin", "--curve", "5,-5", "--tau", "-4,6",
                    "singular", "--json")
    assert code == 0
    assert json.loads(out)["distinct"] == 4


def test_sklyanin_label_and_ruling(capsys):
    from ncquad.exactlin import qq_str
    from ncquad.skly import Curve

    code, out = run(capsys, "sklyanin", "--curve", "5,-5", "--tau", "-4,6",
                    "label", "--z", "-4,-6", "--json")
    assert code == 0
    assert json.loads(out)["singular"] is True

    curve = Curve(5, -5, tau=(-4, 6))
    z = curve.mul(3, curve.tau)

    def fmt(p):
        return "%s,%s" % (qq_str(p.x), qq_str(p.y))

    def line_through(s, p):
        return "%s:%s" % (fmt(p), fmt(curve.add(s, curve.neg(p))))

    tau = curve.tau
    l1 = line_through(z, tau)
    l2 = line_through(z, curve.mul(4, tau))
    l3 = line_through(curve.partner(z), curve.mul(-2, tau))
    base = ["sklyanin", "--curve", "5,-5", "--tau", "-4,6",
            "ruling", "--z", fmt(z)]
    code, out = run(capsys, *base, "--line", l1, "--line", l2, "--json")
    assert code == 0 and json.loads(out)["same_ruling"] is True
    code, out = run(capsys, *base, "--line", l1, "--line", l3, "--json")
    assert code == 0 and json.loads(out)["same_ruling"] is False
    # a line that misses the member is a validation error
    off = "%s:%s" % (fmt(curve.mul(2, tau)), fmt(curve.mul(4, tau)))
    code, _ = run(capsys, *base, "--line", l1, "--line", off)
    assert code == 2


def test_mf_verify_commands(capsys):
    phi = "[[[1,0,0,0],[0,1,0,0]],[[0,0,1,0],[0,0,0,1]]]"
    psi = "[[[0,0,0,1],[0,-1,0,0]],[[0,0,-1,0],[1,0,0,0]]]"
    code, out = run(capsys, "mf-verify", COMM_FILE, "--z", "x0*x3-x1*x2",
                    "--phi", phi, "--psi", psi, "--json")
    assert code == 0
    assert json.loads(out)["ok"] is True
    bad_psi = "[[[0,0,0,1],[0,1,0,0]],[[0,0,-1,0],[1,0,0,0]]]"
    code, out = run(capsys, "mf-verify", COMM_FILE, "--z", "x0*x3-x1*x2",
                    "--phi", phi, "--psi", bad_psi, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and "witness" in payload


@pytest.mark.parametrize("phi", ["[[1]]", "5", "[[[[1], 0, 0, 0]]]", "[[[null, 0, 0, 0]]]"])
def test_mf_verify_malformed_factor_exit_code(phi):
    env = dict(os.environ, PYTHONPATH=str(Path(ncquad.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "ncquad.cli", "mf-verify", COMM_FILE,
                           "--z", "x0*x3-x1*x2", "--phi", phi, "--psi", phi],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["smooth", COMM_FILE, "--z", "(" * 400 + "x0*x3" + ")" * 400],
    ["smooth", COMM_FILE, "--z=" + "-" * 1200 + "x0*x3"],
    ["hilbert", "@DEEP"],
    ["mf-verify", COMM_FILE, "--z", "x0*x3-x1*x2", "--phi", "@@DEEP", "--psi", "@@DEEP"],
], ids=["nested-parentheses", "unary-minus-chain", "hilbert-nested-json",
        "mf-verify-nested-json"])
def test_deep_input_exit_code(tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    argv = [a.replace("@DEEP", str(deep)) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(ncquad.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "ncquad.cli"] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_pencil_command(capsys):
    code, out = run(capsys, "pencil", SKLY_FILE, "--omega1", "0", "--omega2", "1",
                    "--samples", "42", "--degree-bound", "16", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["distinct_root_count"] == 4
    assert payload["mode"] == "rational"
    # the majority normal-word pattern changes at 5/9: denominator (lam - 5/9)^16
    root = qq(5, 9)
    assert [qq(c) for c in payload["denominator"]] == [
        math.comb(16, k) * (-root) ** (16 - k) for k in range(17)]
    # the scan stops once d + e + 1 = 33 members agree with the fit
    assert len(payload["samples"]) == 33
    assert (payload["fit_degree"], payload["certified"]) == (16, True)


def test_pencil_report_does_not_depend_on_unused_samples(capsys):
    # the scan stops after 33 members and builds no member or lift past
    # them, so 80000 samples print the report of 42, in well under a second
    # (about 0.3 s on a 2-vCPU Xeon)
    argv = ["pencil", SKLY_FILE, "--omega1", "0", "--omega2", "1", "--json"]
    few = run(capsys, *argv, "--samples", "42")
    t0 = time.monotonic()
    many = run(capsys, *argv, "--samples", "80000")
    assert time.monotonic() - t0 < 1.0
    assert many == few


def test_pencil_subprocess_prints_one_json_document():
    # the scan forks a helper where two CPUs are usable; the helper ends
    # through os._exit, so it flushes nothing of the parent's stdout
    env = dict(os.environ, PYTHONPATH=str(Path(ncquad.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "ncquad.cli", "pencil", SKLY_FILE,
                           "--omega1", "0", "--omega2", "1", "--samples", "42", "--json"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["distinct_root_count"] == 4  # Extra data would raise


def test_pencil_below_the_certificate_still_reports(capsys):
    # 21 = min_samples(16) samples fit, but 33 are needed to certify
    code, out = run(capsys, "pencil", SKLY_FILE, "--omega1", "0", "--omega2", "1",
                    "--samples", "21", "--degree-bound", "16", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (len(payload["samples"]), payload["certified"]) == (21, False)
    assert payload["distinct_root_count"] == 4
    code, out = run(capsys, "pencil", SKLY_FILE, "--omega1", "0", "--omega2", "1",
                    "--samples", "21", "--degree-bound", "16")
    assert code == 0
    assert "fit degree 16, agreeing 21 of 33 needed, certified no" in out.splitlines()


def test_human_output_lines(capsys):
    code, out = run(capsys, "smooth", COMM_FILE, "--z", "x0*x3-x1*x2")
    assert code == 0
    assert "smooth: True" in out
    assert "ruling_count: 2" in out


def readme_commands():
    """Every ncquad command of the README's Command line block, continuations joined."""
    text = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("ncquad ")]


# sha256 of each README command's stdout, in README order
README_OUTPUT_SHA256 = [
    "45cac41e0e4b91406bd34fcc01246181ca9b79a33d14da1ff79a18c82c3c1f75",  # hilbert
    "390e56d6b04a505fa45e3f6e2aeb3b579ae02c792710801749e8a3b1210da76c",  # dual
    "59e0c304ad9bbcf842fd7dad4920873eb511a509b4f74a915693033ad3b9ab5d",  # center
    "2ffbf55b46925003504bf9018395ffe220b126083ddf884a827fe02bdbecd43d",  # clifford
    "4234d0a840bb16195327909cadd14b2f329b9e6ad1a741a529cf9bf4413dcf23",  # smooth comm4
    "4234d0a840bb16195327909cadd14b2f329b9e6ad1a741a529cf9bf4413dcf23",  # smooth sklyanin_a
    "99a6fc54a0a92cb74b98a326dd437c9f580c68b0addd3340122ed74062cf68e0",  # smooth comm3
    "6ad357bc3ed55c312bb8a71932ddccc3c75d8ddcf9a1152057a6faef930b9278",  # pencil
    "a4fa5ceb590bdc0bfa7828dd340e61438b8bc32d57112e2c7bd86c03e8b48101",  # k0 suite
    "48a182bc7b754daea548ae2d31165bc2400ff6a93f1594b88b1a789d383b301e",  # k0 table
    "54f72d6ac5ebd43e1d651c23ff40d9b90c0da6fe3838a70e180ec9a0be7334eb",  # k0 fat
    "5e17f81be012e5321849b105f19f5d8029754256b002243976731a397c94b7e4",  # sklyanin singular
    "d73832b589908f54583a286da69c0c2d425786a7634c9906f97d1e5a809b3596",  # sklyanin label
    "ea04835f9d159e1eb4f3a5797ba1d114cbade410424b8390abc7c19f5f8c3d87",  # sklyanin ruling
    "cc54f315b7ec3d776ed754db2b7d6d6385244181de07f460dc1089ef8cdaf63e",  # mf-verify
]


def test_readme_commands(capsys, monkeypatch):
    commands = readme_commands()
    assert len(commands) == len(README_OUTPUT_SHA256) == 15
    monkeypatch.chdir(ROOT)
    for argv, want in zip(commands, README_OUTPUT_SHA256):
        assert main(argv[1:]) == 0, argv
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want, argv


def test_mf_verify_builds_one_table(capsys, monkeypatch):
    # an expression --z needs no table of S; the check builds S's own through degree 2
    degrees = []

    def counted(p, max_degree):
        degrees.append(max_degree)
        return build_table(p, max_degree)
    for module in (cli, cliff):
        monkeypatch.setattr(module, "build_table", counted)
    monkeypatch.chdir(ROOT)
    argv = next(a for a in readme_commands() if a[1] == "mf-verify")
    assert main(argv[1:]) == 0
    assert degrees == [2]
