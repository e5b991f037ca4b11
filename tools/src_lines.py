"""Count the lines of stormlab's source modules by kind.

Each line of a module is one of four kinds, tested in this order:

* blank     - only whitespace, inside a docstring or not;
* docstring - inside a module, class or function docstring (found with `ast`);
* comment   - holds a comment and no code (found with `tokenize`);
* code      - everything else, a code line with a trailing comment included.

The four kinds sum to the module's line count. One row per module, then the
totals:

    python3 tools/src_lines.py            # this checkout's src/stormlab
    python3 tools/src_lines.py OTHER/src/stormlab
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "stormlab")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def split(source: str) -> dict:
    """The number of lines of each kind in `source`, keyed by `KINDS`."""
    docstrings = _docstring_lines(ast.parse(source))
    comments, code = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if not line.strip():
            kind = "blank"
        elif number in docstrings:
            kind = "docstring"
        elif number in comments and number not in code:
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", default=SRC, help="directory of .py modules")
    args = parser.parse_args(argv)
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in (*KINDS, "total")))
    for name in sorted(f for f in os.listdir(args.src) if f.endswith(".py")):
        with open(os.path.join(args.src, name), encoding="utf-8") as fh:
            counts = split(fh.read())
        for kind in KINDS:
            totals[kind] += counts[kind]
        row = [counts[kind] for kind in KINDS]
        print(f"{name:<16}" + "".join(f"{n:>10}" for n in (*row, sum(row))))
    row = [totals[kind] for kind in KINDS]
    print(f"{'total':<16}" + "".join(f"{n:>10}" for n in (*row, sum(row))))


if __name__ == "__main__":
    main()
