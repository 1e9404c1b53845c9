"""Count the code lines of the package's modules.

A code line is a physical line that holds a token other than a comment,
a newline, an indent or a dedent (by ``tokenize``), and that lies outside
every module, class and function docstring (by ``ast``).  Blank lines,
comment lines and docstrings do not count; a statement continued over
several lines counts each of them.

    python3 tools/code_lines.py [path ...]

prints one ``count path`` line per module, then the total.  With no
arguments it counts ``src/frnorms/*.py``.
"""
from __future__ import annotations

import ast
import os
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    with open(path, "rb") as f:
        lines = {
            row
            for tok in tokenize.tokenize(f.readline)
            if tok.type not in _SKIP
            for row in range(tok.start[0], tok.end[0] + 1)
        }
    for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    paths = [Path(a) for a in argv] or sorted((root / "src" / "frnorms").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:6d} {os.path.relpath(path)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
