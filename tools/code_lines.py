"""Print the code lines of each module of src/ncquad, and their total.

A code line holds at least one token of a statement.  Blank lines,
comment-only lines and the lines of docstrings (the leading string of a
module, class or function) are not counted; a statement or string that
spans several lines counts each of them.

    python tools/code_lines.py [DIR]

DIR defaults to the package directory src/ncquad.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ncquad"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers covered by the docstrings in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else PACKAGE
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print("%6d  %s" % (n, path.name))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
