"""Check that every name a module under src/ imports is read in that module.

Prints one line per imported name that the module never reads, and exits
1 if there is any, so a name left behind when code moves fails the check:

    python tools/unused_imports.py

A name counts as read when it appears as a loaded name anywhere in the
module, including inside a string annotation. Imports from __future__
are left out, and so are the package's __init__.py files, whose imports
are re-exports. The src/ directory is found from this script's path.
Uses the standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _imported(tree: ast.AST) -> list[tuple[str, int]]:
    """(bound name, line) of every import in the module, __future__ left out."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [((alias.asname or alias.name.partition(".")[0]), node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [(alias.asname or alias.name, node.lineno) for alias in node.names if alias.name != "*"]
    return names


def _read(tree: ast.AST) -> set[str]:
    """Every name the module loads, string annotations parsed as expressions."""
    read = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            read |= _read(ast.parse(note.value, mode="eval"))
    return read


def unused(path: Path) -> list[tuple[str, int]]:
    """(name, line) of each name the module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    read = _read(tree)
    return [(name, line) for name, line in _imported(tree) if name not in read]


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src"
    found = [(path, name, line) for path in sorted(root.rglob("*.py")) if path.name != "__init__.py"
             for name, line in unused(path)]
    for path, name, line in found:
        print(f"{path.relative_to(root)}:{line}: {name} is imported but never read")
    print(f"{len(found)} unused imports")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
