"""The package's statements that no tier-1 test runs.

Runs the tier-1 suite (tests/) in this process under sys.settrace, with
line events only in frames of files under src/digitop, then prints each
statement of those files that no test executed, as path:line and its
first source line.  A statement counts as run if any line it spans had a
line event.  Docstrings, def and class statements and imports are left
out (their bodies are not).  Uses only the standard library and pytest;
it is not under tier-1's testpaths, and takes some minutes, the tracing
slowing the suite about fourfold.

    python3 tools/linecov.py
"""

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "digitop"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(path: Path) -> list:
    """The (first line, last line) of each statement of a file that counts."""
    spans = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring, or a bare constant
        spans.append((node.lineno, node.end_lineno))
    return sorted(spans)


def trace_tier1() -> tuple[int, dict]:
    """Pytest's exit code on tests/ and the lines run in each package file."""
    ran, package = defaultdict(set), str(SRC)

    def lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(package) else None

    args = ["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), str(ROOT / "tests")]
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main() -> int:
    code, ran = trace_tier1()
    for path in sorted(SRC.glob("*.py")):
        hit, source = ran[str(path)], path.read_text().splitlines()
        for first, last in statements(path):
            if not hit.intersection(range(first, last + 1)):
                print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
