"""Print the size of the olfl package: the `wc -l` total of src/olfl/*.py,
then its code lines, which leave out blank lines, lines that start with `#`
and the lines of module, class and function docstrings, then each module's
code lines, one module a line.

Run from anywhere: python tools/count_lines.py
"""
from __future__ import annotations

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "olfl"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: pathlib.Path) -> tuple[int, int]:
    """(all lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(
        1
        for number, line in enumerate(lines, start=1)
        if line.strip() and not line.strip().startswith("#") and number not in docs
    )
    return len(lines), code


def main() -> None:
    paths = sorted(PACKAGE.glob("*.py"))
    totals = [count(path) for path in paths]
    print(f"wc -l {sum(total for total, _ in totals)}")
    print(f"code lines {sum(code for _, code in totals)}")
    for path, (_, code) in zip(paths, totals):
        print(f"  {path.stem} {code}")


if __name__ == "__main__":
    main()
