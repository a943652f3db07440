#!/usr/bin/env python3
"""Count the code lines of Python sources.

    python3 tools/code_lines.py [PATH ...]      (default: src/treelift)

A code line is a line that holds at least one token other than a comment, a
newline, an indent or a dedent, where the string of a docstring (of a module,
class or function) does not count.  A token that spans several lines, such as
a multi-line string, counts on each of them.  Prints one line per file and the
total, which is the last line.
"""

from __future__ import annotations

import ast
import os
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree) -> set:
    """(line, column) of every docstring's string token."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add((first.value.lineno, first.value.col_offset))
    return out


def code_lines(path: Path) -> int:
    source = path.read_bytes()
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in SKIP or (tok.type == tokenize.STRING and tok.start in docstrings):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv or [])] or [ROOT / "src" / "treelift"]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d} {os.path.relpath(f)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
