"""Count the code lines of the package: non-blank, non-comment lines, with
docstrings excluded.

A line counts when a token other than a comment, a line break or an
indentation change starts on it or spans it, so each line of a multi-line
expression or of a string that is not a docstring counts once.  A
docstring, the string that opens a module, class or function body, counts
for none of its lines.

    python3 tools/code_lines.py [PATH ...]

prints one ``count name`` line per file, then ``count total``; with no
path it counts ``src/xmodlab``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "xmodlab"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set[int]:
    """The line numbers of every docstring in the parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    paths = [Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    files = []
    for path in paths or [DEFAULT]:
        files.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        count = code_lines(path.read_text())
        total += count
        print(f"{count} {path.stem}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
