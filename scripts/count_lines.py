"""Code and docstring line counts of the library, per file and in total.

A code line holds a token that is not a comment and lies outside every
docstring; a docstring line is one that a module, class or function
docstring spans.  Blank lines and comment-only lines count as neither.
The counts come from a ``tokenize`` pass and an ``ast`` walk, so they do
not depend on formatting heuristics.

Usage:
    python3 scripts/count_lines.py            # src/descmatch/*.py
    python3 scripts/count_lines.py FILE ...
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by every docstring of the tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(code lines, docstring lines) of one source file."""
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(source, filename=str(path)))
    code: set[int] = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs), len(docs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(__file__).resolve().parent.parent
    paths = [Path(p) for p in argv] or sorted((root / "src" / "descmatch").glob("*.py"))
    total_code = total_docs = 0
    print(f"{'code':>6} {'docs':>6}  file")
    for path in paths:
        code, docs = count(path)
        total_code += code
        total_docs += docs
        print(f"{code:6d} {docs:6d}  {path.name}")
    print(f"{total_code:6d} {total_docs:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
