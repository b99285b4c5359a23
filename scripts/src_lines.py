#!/usr/bin/env python3
"""Count the lines of the package source by kind.

Usage:
    python scripts/src_lines.py [SRC_DIR]

Reads every .py file under SRC_DIR (default: src/ of this repository)
and prints one JSON line with the total number of lines and its four
parts:

  - docstring: lines spanned by a module, class or function docstring,
    found with ast, blank lines inside it included;
  - comment: other lines whose only token is a comment, found with
    tokenize;
  - blank: other lines holding only whitespace;
  - code: every other line.

Each line is counted once, so the four parts sum to the total.
"""

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The total and per-kind line counts of one source text."""
    docs = docstring_lines(ast.parse(text))
    code = set()
    comments = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                                tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(token.start[0], token.end[0] + 1))
    counts = {"total": 0, "code": 0, "docstring": 0, "comment": 0, "blank": 0}
    for number, line in enumerate(text.splitlines(), start=1):
        counts["total"] += 1
        if number in docs:
            counts["docstring"] += 1
        elif number in code:
            counts["code"] += 1
        elif number in comments:
            counts["comment"] += 1
        elif not line.strip():
            counts["blank"] += 1
        else:
            raise ValueError(f"line {number} is of no kind: {line!r}")
    return counts


def main(argv: list[str]) -> None:
    src = Path(argv[0]) if argv else ROOT / "src"
    totals = dict.fromkeys(("total", "code", "docstring", "comment", "blank"), 0)
    for path in sorted(src.rglob("*.py")):
        for kind, n in count(path.read_text(encoding="utf-8")).items():
            totals[kind] += n
    print(json.dumps(totals))


if __name__ == "__main__":
    main(sys.argv[1:])
