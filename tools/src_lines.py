"""Print the code, docstring, comment and blank lines of each module of a
Python package, `src/ondesign` by default.

    python tools/src_lines.py [PACKAGE_DIR]

Docstrings are found with `ast` (a module's, class's or function's first
statement when it is a string), comments with `tokenize`.  Each line counts
once, as the first of these that it is: a line of a docstring; a line
holding code, which a trailing comment or a multi-line string does not
change; a line holding a comment; blank.  A module's four counts add up to
its line count, as `wc -l` gives it for a file that ends in a newline.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ondesign"
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def line_kinds(source: str) -> list:
    """The kind of each line of `source`, one of KINDS."""
    kind = ["blank"] * len(source.splitlines())
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            kind[tok.start[0] - 1] = "comment"
    for tok in tokens:
        if tok.type not in _LAYOUT:
            kind[tok.start[0] - 1:tok.end[0]] = ["code"] * (tok.end[0] - tok.start[0] + 1)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            kind[doc.lineno - 1:doc.end_lineno] = ["docstring"] * (doc.end_lineno - doc.lineno + 1)
    return kind


def count(path: Path) -> dict:
    """Per kind, the number of lines of the module at `path`."""
    kinds = line_kinds(path.read_text())
    return {k: kinds.count(k) for k in KINDS}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else PACKAGE
    rows = [(path.name, count(path)) for path in sorted(package.glob("*.py"))]
    rows.append(("total", {k: sum(c[k] for _, c in rows) for k in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{k:>11}" for k in KINDS + ("lines",)))
    for name, c in rows:
        print(f"{name:<{width}}" + "".join(f"{c[k]:>11}" for k in KINDS) + f"{sum(c.values()):>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
