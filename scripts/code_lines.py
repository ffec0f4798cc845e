"""Count the code lines of Python modules: every line that holds a token,
less blank lines, comments and docstrings.

    python scripts/code_lines.py [PATH ...]

Each PATH is a module or a directory, searched for ``*.py`` files (default:
this checkout's ``src/elemrange``).  It prints one line per module, its
count and path (relative to the checkout where it lies in it), and the
total.  Docstrings are found with ``ast`` (the first statement of a
module, class or function, when it is a string); every other line counts
when ``tokenize`` finds a token on it other than a comment, an indent or a
line end, so each line of a multi-line statement or string counts.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def modules(paths) -> list:
    found = []
    for path in map(Path, paths):
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=[str(ROOT / "src" / "elemrange")])
    args = parser.parse_args(argv)
    total = 0
    for path in modules(args.paths):
        count = code_lines(path.read_text())
        total += count
        shown = path.resolve()
        print(f"{count:6d}  {shown.relative_to(ROOT) if shown.is_relative_to(ROOT) else path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
