"""Count code lines: lines that hold code, not docstrings, comments or blanks.

A line counts when it holds at least one token other than a comment or a
line break, and no docstring covers it.  A docstring is the string that
opens a module, class or function body.  Other strings count on every
line they span, and so do continuation lines.

Run as ``python tests/code_lines.py [path ...]`` (default ``src``) to print
each file's count and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def main(argv: list[str]) -> int:
    total = 0
    for root in argv or ["src"]:
        root = Path(root)
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            n = count_code_lines(path.read_text())
            total += n
            print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
