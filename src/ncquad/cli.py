"""Command-line driver: parsing, dispatch, and report emission.

Exit codes: 0 success, 1 structural-hypothesis violation (centrality,
regularity, stabilization, or a rejected matrix factorization), 2 for
parse and validation errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import kzero
from .cliff import (HypersurfaceData, HypothesisViolation, clifford_algebra,
                    require_central, verify_matrix_factorization)
from .exactlin import qq, qq_str
from .findim import analyze
from .qalg import (QuadraticPresentation, build_table, central_quadratic_space,
                   element_word_lift, hilbert, koszul_dual)
from .skly import (Curve, PencilError, SecantLine, min_samples,
                   pencil_discriminant)

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_]\w*|[()+*-])")


class SpecError(ValueError):
    """Bad user-supplied expression or argument."""


class _ExprParser:
    """Recursive-descent parser for degree-2 expressions in the generators.

    Grammar: expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := rational | generator | '-' factor | '(' expr ')'.
    Values are maps from generator words to rational coefficients.
    """

    def __init__(self, text: str, names):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise SpecError("cannot tokenize %r" % text[pos:])
            self.tokens.append(m.group(1))
            pos = m.end()
        self.pos = 0
        self.index = {n: i for i, n in enumerate(names)}

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> dict:
        value = self.expr()
        if self.peek() is not None:
            raise SpecError("unexpected token %r" % self.peek())
        return value

    def expr(self) -> dict:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            for word, c in rhs.items():
                c = c if op == "+" else -c
                value[word] = value.get(word, qq(0)) + c
        return value

    def term(self) -> dict:
        value = self.factor()
        while self.peek() == "*":
            self.take()
            rhs = self.factor()
            out: dict = {}
            for w1, c1 in value.items():
                for w2, c2 in rhs.items():
                    w = w1 + w2
                    if len(w) > 2:
                        raise SpecError("expression exceeds degree 2")
                    out[w] = out.get(w, qq(0)) + c1 * c2
            value = out
        return value

    def factor(self) -> dict:
        tok = self.take()
        if tok is None:
            raise SpecError("unexpected end of expression")
        if tok == "-":
            return {w: -c for w, c in self.factor().items()}
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise SpecError("missing closing parenthesis")
            return value
        if re.fullmatch(r"\d+(/\d+)?", tok):
            return {(): qq(tok)}
        if tok in self.index:
            return {(self.index[tok],): qq(1)}
        raise SpecError("unknown generator %r" % tok)


def parse_quadratic_expression(text: str, names) -> list:
    """Degree-2 word vector from an expression in the generator names."""
    value = _ExprParser(text, names).parse()
    g = len(names)
    vec = [qq(0)] * (g * g)
    for word, c in value.items():
        if not c:
            continue
        if len(word) != 2:
            raise SpecError("expression is not homogeneous of degree 2")
        vec[word[0] * g + word[1]] += c
    if all(not c for c in vec):
        raise SpecError("expression is zero")
    return vec


def resolve_z_spec(spec: str, presentation: QuadraticPresentation, table=None) -> list:
    """The lift, in the word space, of a z choice: a central-basis index
    (bare integer) or an expression.

    Only an index reads a table through degree 3; it is built here when
    none is given.
    """
    if re.fullmatch(r"\d+", spec.strip()):
        if table is None:
            table = build_table(presentation, 3)
        basis = central_quadratic_space(table)
        idx = int(spec)
        if idx >= basis.cols:
            raise SpecError("central basis has dimension %d, index %d out of range"
                            % (basis.cols, idx))
        return element_word_lift(table, basis.column(idx), 2)
    return parse_quadratic_expression(spec, presentation.generator_names)


def _load_presentation(path: str) -> QuadraticPresentation:
    with open(path, "r", encoding="utf-8") as fh:
        return QuadraticPresentation.from_json_dict(json.load(fh))


def _emit(args, payload: dict, human_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
    else:
        for line in human_lines:
            print(line)


def _parse_point(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise SpecError("expected 'x,y', got %r" % text)
    return qq(parts[0]), qq(parts[1])


def _parse_line(curve: Curve, text: str) -> SecantLine:
    parts = text.split(":")
    if len(parts) != 2:
        raise SpecError("expected 'x1,y1:x2,y2', got %r" % text)
    p = curve.point(*_parse_point(parts[0]))
    q = curve.point(*_parse_point(parts[1]))
    return SecantLine.of(p, q)


def _load_json_arg(text: str):
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


# -- subcommands --

def _cmd_hilbert(args) -> int:
    p = _load_presentation(args.file)
    dims = hilbert(build_table(p, args.degree))
    _emit(args, {"dims": dims}, ["dims: %s" % dims])
    return 0


def _cmd_dual(args) -> int:
    p = _load_presentation(args.file)
    d = koszul_dual(p)
    payload = d.to_json_dict()
    _emit(args, payload, [json.dumps(payload, indent=2, ensure_ascii=False)])
    return 0


def _cmd_center(args) -> int:
    p = _load_presentation(args.file)
    table = build_table(p, 3)
    basis = central_quadratic_space(table)
    names = p.generator_names
    elements = []
    for c in range(basis.cols):
        terms = []
        for b, coef in enumerate(basis.column(c)):
            if coef:
                word = "*".join(names[i] for i in table.words[2][b])
                terms.append("%s*%s" % (qq_str(coef), word))
        elements.append(" + ".join(terms).replace("+ -", "- "))
    _emit(args, {"dimension": basis.cols, "basis": elements},
          ["central quadratic space dimension: %d" % basis.cols]
          + ["  z%d = %s" % (i, e) for i, e in enumerate(elements)])
    return 0


def _invariant_algebra(args):
    """C(A) of the quadric cut out by the central --z in the presentation file."""
    p = _load_presentation(args.file)
    table = build_table(p, 3)
    lift = resolve_z_spec(args.z, p, table)
    require_central(table, lift, "z")
    return clifford_algebra(HypersurfaceData(p, lift))


def _cmd_clifford(args) -> int:
    alg = _invariant_algebra(args)
    report = analyze(alg)
    payload = {
        "dim": alg.dim,
        "labels": list(alg.labels),
        "unit": [qq_str(c) for c in alg.unit],
        "structure": [[[qq_str(c) for c in alg.structure[i][j]]
                       for j in range(alg.dim)] for i in range(alg.dim)],
        "analysis": report.to_dict(),
    }
    _emit(args, payload, [
        "dim: %d" % alg.dim,
        "basis: %s" % ", ".join(alg.labels),
        "unit: [%s]" % ", ".join(qq_str(c) for c in alg.unit),
        "analysis: %s" % json.dumps(report.to_dict(), sort_keys=True),
    ])
    return 0


def _cmd_smooth(args) -> int:
    report = analyze(_invariant_algebra(args))
    d = report.to_dict()
    _emit(args, d, ["%s: %s" % (k, d[k]) for k in
                    ("dim", "radical_dim", "center_dim", "ss_center_dim",
                     "one_dim_reps_absent", "ruling_count", "smooth")])
    return 0


def _cmd_pencil(args) -> int:
    need = min_samples(args.degree_bound)
    if args.samples < need:
        raise SpecError("--samples must be at least %d at degree bound %d, got %d"
                        % (need, args.degree_bound, args.samples))
    p = _load_presentation(args.file)
    table = build_table(p, 3)
    lift1 = resolve_z_spec(args.omega1, p, table)
    lift2 = resolve_z_spec(args.omega2, p, table)
    samples = list(range(args.samples))
    report = pencil_discriminant(p, lift1, lift2, samples, args.degree_bound,
                                 table=table)
    d = report.to_dict()
    _emit(args, d, [
        "mode: %s" % report.mode,
        "used samples: %d, skipped: %d" % (len(report.sample_values), len(report.skipped)),
        "numerator degree: %d" % (len(report.numerator) - 1),
        "squarefree degree: %d" % report.squarefree_degree,
        "member at infinity singular: %s" % report.infinity_singular,
        "distinct singular members: %d" % report.distinct_root_count,
        "fit degree %d, agreeing %d of %d needed, certified %s"
        % (report.fit_degree, len(report.sample_values),
           args.degree_bound + report.fit_degree + 1, "yes" if report.certified else "no"),
    ])
    return 0


def _cmd_k0(args) -> int:
    kzero.lattice_init()
    if args.action == "suite":
        report = kzero.relation_suite()
        lines = ["%-34s %s" % (k, "pass" if v["holds"] else "FAIL")
                 for k, v in report.items() if k != "ok"]
        lines.append("overall: %s" % ("pass" if report["ok"] else "FAIL"))
        _emit(args, report, lines)
        return 0 if report["ok"] else 1
    if args.action == "table":
        basis = [kzero.A, kzero.L, kzero.LP, kzero.P]
        names = kzero.BASIS_NAMES
        euler_rows = [[kzero.euler(x, y) for y in basis] for x in basis]
        inter_rows = [[kzero.intersect(x, y) for y in basis] for x in basis]
        t_rows = [kzero.act_t(x).to_json() for x in basis]
        payload = {"basis": list(names), "euler": euler_rows,
                   "intersection": inter_rows, "t_action": t_rows}
        lines = ["basis: %s" % (", ".join(names)),
                 "euler form rows: %s" % euler_rows,
                 "intersection rows: %s" % inter_rows,
                 "t action on basis: %s" % [str(kzero.act_t(x)) for x in basis]]
        _emit(args, payload, lines)
        return 0
    # fat I
    f = kzero.fat_class(args.index)
    payload = {"index": args.index, "class": f.to_json(),
               "euler_self": kzero.euler(f, f),
               "self_intersection": kzero.intersect(f, f),
               "h0": args.index + 1}
    _emit(args, payload, [
        "class: %s" % f,
        "euler(F, F): %d" % kzero.euler(f, f),
        "self-intersection: %d" % kzero.intersect(f, f),
        "h0: %d" % (args.index + 1),
    ])
    return 0


def _cmd_sklyanin(args) -> int:
    e1, e2 = (qq(v) for v in args.curve.split(","))
    curve = Curve(e1, e2, tau=_parse_point(args.tau))
    if args.action == "singular":
        labels = curve.singular_labels()
        payload = {"labels": [str(l.rep) for l in labels],
                   "distinct": len(set(labels))}
        _emit(args, payload,
              ["singular members: %d distinct" % len(set(labels))]
              + ["  %s" % l for l in labels])
        return 0
    if args.action == "label":
        z = curve.point(*_parse_point(args.z))
        lab = curve.label(z)
        payload = {"label": str(lab.rep), "singular": curve.is_singular(z)}
        _emit(args, payload, ["label: %s" % lab,
                              "singular: %s" % curve.is_singular(z)])
        return 0
    # ruling
    z = curve.point(*_parse_point(args.z))
    lab = curve.label(z)
    if len(args.line) != 2:
        raise SpecError("ruling comparison needs exactly two --line arguments")
    l1 = _parse_line(curve, args.line[0])
    l2 = _parse_line(curve, args.line[1])
    same = curve.same_ruling(l1, l2, lab)
    payload = {"label": str(lab.rep), "same_ruling": same}
    _emit(args, payload, ["label: %s" % lab, "same ruling: %s" % same])
    return 0


def _cmd_mf_verify(args) -> int:
    p = _load_presentation(args.file)
    lift = resolve_z_spec(args.z, p)
    phi = _load_json_arg(args.phi)
    psi = _load_json_arg(args.psi)
    verdict = verify_matrix_factorization(p, phi, psi, lift)
    payload = verdict.to_dict()
    if verdict.ok:
        _emit(args, payload, [
            "verified: size %d factorization" % verdict.size,
            "cokernel Hilbert series: %d/(1-t)^3" % verdict.size,
        ])
        return 0
    _emit(args, payload, ["rejected: %s" % verdict.witness.describe()])
    return 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ncquad",
        description="Exact invariants of noncommutative quadric surfaces")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("file", help="presentation file (JSON)")
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        return sp

    sp = add("hilbert", _cmd_hilbert, help="graded dimensions of a presentation")
    sp.add_argument("--degree", type=int, default=8)
    add("dual", _cmd_dual, help="quadratic dual presentation")
    add("center", _cmd_center, help="central degree-2 elements")

    sp = add("clifford", _cmd_clifford, help="the 2^(n-1)-dimensional invariant algebra")
    sp.add_argument("--z", required=True, help="degree-2 expression or central index")

    sp = add("smooth", _cmd_smooth, help="smoothness and ruling count")
    sp.add_argument("--z", required=True)

    sp = add("pencil", _cmd_pencil, help="count singular members of a pencil")
    sp.add_argument("--omega1", required=True)
    sp.add_argument("--omega2", required=True)
    sp.add_argument("--samples", type=int, default=42)
    sp.add_argument("--degree-bound", type=int, default=16)

    sp = sub.add_parser("k0", help="Grothendieck lattice reports")
    ksub = sp.add_subparsers(dest="action", required=True)
    for action in ("suite", "table"):
        kp = ksub.add_parser(action)
        kp.set_defaults(fn=_cmd_k0, action=action)
        kp.add_argument("--json", action="store_true")
    kp = ksub.add_parser("fat")
    kp.set_defaults(fn=_cmd_k0, action="fat")
    kp.add_argument("index", type=int)
    kp.add_argument("--json", action="store_true")

    sp = sub.add_parser("sklyanin", help="elliptic pencil bookkeeping")
    sp.add_argument("--curve", required=True, help="e1,e2 for y^2 = x(x-e1)(x-e2)")
    sp.add_argument("--tau", required=True, help="x,y of the translation point")
    ssub = sp.add_subparsers(dest="action", required=True)
    for action in ("singular", "label", "ruling"):
        ep = ssub.add_parser(action)
        ep.set_defaults(fn=_cmd_sklyanin, action=action)
        ep.add_argument("--json", action="store_true")
        if action in ("label", "ruling"):
            ep.add_argument("--z", required=True, help="x,y of the member point")
        if action == "ruling":
            ep.add_argument("--line", action="append", default=[],
                            help="secant line as x1,y1:x2,y2 (give twice)")

    sp = add("mf-verify", _cmd_mf_verify, help="check a matrix factorization")
    sp.add_argument("--phi", required=True, help="JSON (or @file) matrix of coefficient vectors")
    sp.add_argument("--psi", required=True)
    sp.add_argument("--z", required=True)

    return ap


_VALUE_OPTS = {"--tau", "--curve", "--z", "--omega1", "--omega2", "--line",
               "--phi", "--psi"}


def _merge_negative_values(argv: list) -> list:
    """Join option/value pairs whose value starts with '-' (e.g. --tau -4,6)."""
    out = []
    i = 0
    while i < len(argv):
        a = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (a in _VALUE_OPTS and nxt is not None and nxt.startswith("-")
                and len(nxt) > 1 and nxt[1] != "-"):
            out.append(a + "=" + nxt)
            i += 2
        else:
            out.append(a)
            i += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_merge_negative_values(
        list(sys.argv[1:]) if argv is None else list(argv)))
    try:
        return args.fn(args)
    except (HypothesisViolation, PencilError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OSError, RecursionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
