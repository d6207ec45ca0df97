"""Count the physical lines and the code lines of a Python source tree.

    python3 tools/code_lines.py              # src/klnmf of this checkout
    python3 tools/code_lines.py path/to/dir  # any directory or file

A code line is a line that holds a token outside comments and docstrings,
by the standard library's ``tokenize``: blank lines, comment lines and the
lines of a docstring do not count, and a statement or a string that spans
several lines counts each of them. A docstring is a string statement that
opens a module, a class or a function body. Prints one line per file and
a total, physical lines first.
"""
from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "klnmf"

#: Token types that hold no code.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of the Python source ``text``."""
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("path", nargs="?", type=Path, default=SOURCE)
    args = parser.parse_args(argv)
    files = sorted(args.path.rglob("*.py")) if args.path.is_dir() else [args.path]
    total = [0, 0]
    for path in files:
        physical, code = count(path.read_text(encoding="utf-8"))
        total[0] += physical
        total[1] += code
        print(f"{physical:6d} {code:6d}  {path}")
    print(f"{total[0]:6d} {total[1]:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
