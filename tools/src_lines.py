"""Count the lines of each module under src/: total lines and code lines.

Code lines leave out docstrings (found with ast), comments and blank lines
(found with tokenize); a line counts when it holds any other token. Prints
one row per module and the sums, so the figures that CHANGES.md reports
come from one command:

    python tools/src_lines.py [ROOT]

ROOT defaults to the src/ directory beside this script's parent. Uses the
standard library only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one Python source file."""
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(text, str(path)))
    code: set[int] = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _SKIPPED:
                code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    rows = [(str(path.relative_to(root)), *count(path)) for path in sorted(root.rglob("*.py"))]
    width = max([len(name) for name, _, _ in rows] + [len("total")])
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  {sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
