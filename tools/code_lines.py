"""Count code lines: physical lines that hold code, with docstrings, comments and blanks dropped.

A line counts when a token other than a comment, a newline or an
indentation change lies on it; a token spanning several lines (a
multi-line string that is not a docstring) counts each of them. A
docstring is the string statement that opens a module, class or function.

Usage: ``python tools/code_lines.py [PATH ...]`` (default ``src/unirep``).
Each path is a Python file or a directory searched for ``*.py``; the
output is one ``<lines> <file>`` row per module, then ``<total> total``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def modules(paths) -> list:
    """The ``*.py`` files the paths name, each directory's in sorted order."""
    found = []
    for path in map(Path, paths):
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    total = 0
    for path in modules(argv or ["src/unirep"]):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
