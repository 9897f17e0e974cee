"""Count each Python file's lines as code, docstring, comment or blank.

    python tools/code_lines.py                 # every module of src/colourgame
    python tools/code_lines.py PATH [PATH ...]  # these files, or the .py files
                                               # under these directories

A docstring line is one spanned by the string that opens a module, class or
function body. A comment line holds a comment and no code. A blank line holds
only whitespace outside a docstring. Every other line is code, so the four
counts add up to `wc -l`. Prints one row per file and a total row.
"""
from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATH = ROOT / "src" / "colourgame"
# Tokens that are layout, not code, when a line holds nothing else.
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


class Counts(NamedTuple):
    code: int
    docstring: int
    comment: int
    blank: int

    @property
    def total(self) -> int:
        return sum(self)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers the module's, classes' and functions' docstrings span."""
    lines = set()
    bodied = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, bodied) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(source: str) -> Counts:
    """The counts of one file's text."""
    text_lines = source.splitlines()
    docstring = _docstring_lines(ast.parse(source))
    code_on: set[int] = set()
    comment_on: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comment_on.add(token.start[0])
        elif token.type not in _LAYOUT:
            # A token over several lines, such as a string, is code on each.
            code_on.update(range(token.start[0], token.end[0] + 1))
    code = doc = comment = blank = 0
    for number, line in enumerate(text_lines, 1):
        if number in docstring:
            doc += 1
        elif number in code_on:
            code += 1
        elif number in comment_on:
            comment += 1
        elif not line.strip():
            blank += 1
        else:  # a backslash continuation, say
            code += 1
    return Counts(code, doc, comment, blank)


def _files(paths: list[Path]) -> list[Path]:
    files = []
    for path in paths:
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def _name(path: Path) -> str:
    """`path` from the repository's root, where it lies under it."""
    try:
        return str(path.resolve().relative_to(ROOT))
    except ValueError:
        return str(path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, help="files or directories")
    args = parser.parse_args(argv)
    missing = [str(path) for path in args.paths if not path.exists()]
    if missing:
        parser.error(f"no such file or directory: {', '.join(missing)}")
    rows = [
        (_name(path), count_source(path.read_text(encoding="utf-8")))
        for path in _files(args.paths or [DEFAULT_PATH])
    ]
    total = Counts(*(sum(c[i] for _, c in rows) for i in range(len(Counts._fields))))
    width = max([len(name) for name, _ in rows] + [len("total")])
    header = ("code", "doc", "comment", "blank", "lines")
    print(f"{'file':<{width}}", *(f"{name:>7}" for name in header))
    for name, counts in [*rows, ("total", total)]:
        print(f"{name:<{width}}", *(f"{n:>7}" for n in (*counts, counts.total)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
