"""Count the lines and the code lines of each module of src/rowsynth.

A code line holds at least one token that is not a comment and is not part
of a module, class or function docstring; blank lines, comment lines and
docstring lines are left out. A line of code with a trailing comment
counts as code. It needs only the standard library.

    python tools/lines.py [directory]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(source: str) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one Python file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(source)
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1)
                        if line not in docstrings)
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else ROOT / "src" / "rowsynth"
    total = code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(package.glob("*.py")):
        lines, code_lines = count(path)
        total += lines
        code += code_lines
        print(f"{path.name:<16} {lines:>6} {code_lines:>6}")
    print(f"{'total':<16} {total:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
