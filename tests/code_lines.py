"""Count the code lines of each module of ``src/shapeid``.

A code line holds at least one token that is not a comment, and is not
part of a docstring (the string that opens a module, class or function).
Blank lines, comment lines and docstrings do not count.  Prints one line
per module and then the total, so a change that deletes code can name
what it deleted by running it in both checkouts:

    python tests/code_lines.py

pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shapeid"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module and of every
    class and function in it."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_line_numbers(source: str) -> set[int]:
    """Numbers of the code lines in one module's source."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return code - _docstring_lines(ast.parse(source))


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    return len(code_line_numbers(source))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem:12s} {count:5d}")
    print(f"{'total':12s} {total:5d}")


if __name__ == "__main__":
    main()
