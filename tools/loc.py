"""Count the lines of Python source files, with and without the lines
that hold only docstrings, comments or blanks.

    python3 tools/loc.py src/hopfs3/*.py

prints, one file a line and then their total, the line count as
``wc -l`` gives it and the count of code lines.  A code line holds at
least one token that is not a comment, a docstring or layout; a line
inside a multi-line string that is not a docstring is code.  Comments
come from ``tokenize`` and docstrings from ``ast``.  The script only
prints; it is not a gate.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree) -> set:
    """(row, col) of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(text: str) -> tuple:
    """(lines, code lines) of one source text."""
    skip = docstring_starts(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING
                                  and tok.start in skip):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code)


def main(paths) -> int:
    total = [0, 0]
    print(f"{'lines':>6} {'code':>6}")
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines, code = count(fh.read())
        total[0] += lines
        total[1] += code
        print(f"{lines:6d} {code:6d} {path}")
    print(f"{total[0]:6d} {total[1]:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
