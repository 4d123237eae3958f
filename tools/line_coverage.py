"""Lines of the package that a pytest run never executes.

    python tools/line_coverage.py [pytest args]

Runs pytest in this interpreter with the checkout's `src/` first on the
path, under `sys.settrace` and `threading.settrace`, and traces only
frames whose code lives under `src/threshold_spectra`.  Then, for each
module, prints the executable lines that never ran: the lines the
module's code objects map instructions to (`co_lines`), less `def` and
`class` headers, imports and docstrings, which run or not with the
module itself.  Exits with pytest's exit code.  Standard library only.

Blind spots: code that runs in another interpreter is not traced.  That
is every fresh interpreter the tests start (`tests/test_tracing.py`,
`tests/test_stdlib_only.py`, `tests/test_imports.py` and the test that
runs the command line in a subprocess) and every forked hunt worker, so
a line shown as never run may run there.  Tracing makes the run about
three times slower.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from types import CodeType

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "threshold_spectra")


def _code_lines(code: CodeType) -> set[int]:
    """Every line an instruction of `code` or a nested code object maps to."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def executable_lines(path: str) -> set[int]:
    """The lines of a module that hold code, less `def` and `class`
    headers, imports and docstrings."""
    with open(path) as handle:
        source = handle.read()
    tree = ast.parse(source, path)
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skipped.update(range(node.lineno, node.end_lineno + 1))
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        if not isinstance(node, ast.Module):
            # the header, through the last line of the signature
            skipped.update(range(node.lineno, node.body[0].lineno))
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            skipped.update(range(first.lineno, first.end_lineno + 1))
    return _code_lines(compile(source, path, "exec")) - skipped


def _ranges(lines: list[int]) -> str:
    """Sorted line numbers as '3, 7-9, 12'."""
    runs = [[lines[0], lines[0]]]
    for line in lines[1:]:
        if line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> int:
    import pytest

    ran: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}

    def local_tracer(lines: set[int]):
        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace
        return trace

    def global_tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        tracer = tracers.get(filename, False)
        if tracer is False:
            path = os.path.realpath(filename)
            tracer = None
            if path.startswith(PACKAGE + os.sep):
                tracer = local_tracer(ran.setdefault(path, set()))
            tracers[filename] = tracer
        return tracer

    sys.path.insert(0, SRC)
    threading.settrace(global_tracer)
    sys.settrace(global_tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(path, set()))
        shown = _ranges(missed) if missed else "-"
        print(f"{name}: {len(lines) - len(missed)} of {len(lines)} lines ran;"
              f" never: {shown}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
