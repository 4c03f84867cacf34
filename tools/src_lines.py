"""Line counts of the package's modules: physical lines and code lines.

``lines`` is what ``wc -l`` prints.  ``code`` counts the lines that hold a
token of a statement, by the tokenizer and the AST: blank lines, comment
lines and the lines of module, class and function docstrings are left out,
and a statement spread over several lines counts each of them.

Run from the repository root: ``python tools/src_lines.py``.  To count an
older checkout, run that checkout's own copy.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blocksysid"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        scope = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        if scope and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines as ``wc -l`` counts them, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - _docstring_lines(ast.parse(source)))


def main() -> int:
    rows = [(path.name, *count(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6,}  {code:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
