"""Print every statement of src/rowsynth that no in-process test executes.

Runs the test suite under sys.settrace and threading.settrace, records the
lines run in frames of src/rowsynth files, and lists each statement
(docstrings aside) none of whose lines ran. Child processes, such as a
`python -m rowsynth.cli` run or a pool worker, are not traced. It needs
only the standard library and pytest. Tracing makes the suite about three
times slower, so it is not part of the test suite itself.

    PYTHONPATH=src python tools/reached.py [pytest arguments]
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rowsynth"


def _statements(path: Path):
    """(first line, last line) of each statement in the file, docstrings left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and id(node) not in docstrings:
            decorators = getattr(node, "decorator_list", [])
            yield min([node.lineno] + [d.lineno for d in decorators]), node.end_lineno


def main(args: list[str]) -> int:
    executed: dict[str, set[int]] = defaultdict(set)
    ours: dict[str, str | None] = {}  # code filename -> its resolved path, if in PACKAGE

    def local(frame, event, arg):
        if event == "line":
            executed[ours[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = Path(name).resolve()
            ours[name] = str(path) if path.parent == PACKAGE else None
        return local if ours[name] else None

    os.register_at_fork(after_in_child=lambda: sys.settrace(None))  # pool workers run untraced
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        ran = executed[str(path)]
        for first, last in sorted(set(_statements(path))):
            if ran.isdisjoint(range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} statements of {PACKAGE.relative_to(ROOT)} reached by no in-process test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
