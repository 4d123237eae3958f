"""Mutation check: which small wrong edits of one module do the tests miss?

    python tools/mutate.py MODULE PYTEST_ARGS...

MODULE names a module of the package, such as `hunt` or `spectra`, and
PYTEST_ARGS the test selection, such as `tests/test_hunt.py`.  The
checkout is copied to a temporary directory (without `.git` and
bytecode), and each mutant of `src/threshold_spectra/MODULE.py` is
written into the copy in turn and run under `python -m pytest -x -q
PYTEST_ARGS` there, so tests that start a fresh interpreter on `src/`
see the mutant too.  One mutation at a time, from a fixed list:

  compare   one comparison operator flipped: < and <=, > and >=, == and
            !=, `is` and `is not`, `in` and `not in`
  constant  one integer constant plus 1, and minus 1
  lo-hi     every `lo` and `hi` that one function reads as a name
            swapped; the same for those it reads as attributes (`enc.lo`)
  raise     one `if ...: raise ...` whose test is made False

A mutant whose selection passes survives; one that fails, or runs past
the timeout (five times the unmutated run, at least 60 s), is killed.
Every module is written back through `ast.unparse`, the unmutated one
too, and that run must pass first (exit 2 otherwise).  Prints one line a
mutant, then the survivors; exits 1 if any survive.  Standard library
only; not part of the test suite.

Run time is about one selection run a mutant, less where `-x` stops
early, more where a mutant runs into the timeout: on a 2-vCPU host
(CPython 3.11), `hunt` (90 mutants) with `tests/test_hunt.py` took 10
minutes, and `spectra` (221 mutants) with `tests/test_spectra.py` 9
minutes.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Iterator

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))

FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
        ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
          ast.In: "in", ast.NotIn: "not in"}
SWAP = {"lo": "hi", "hi": "lo"}


def _reads_lo_hi(func: ast.AST, field: str) -> list[ast.AST]:
    """The nodes of `func` that read `lo` or `hi` as a name (field "id")
    or as an attribute (field "attr")."""
    return [node for node in ast.walk(func)
            if isinstance(getattr(node, "ctx", None), ast.Load)
            and getattr(node, field, None) in SWAP]


Site = tuple[int, int, str, object]


def _sites(tree: ast.Module) -> Iterator[Site]:
    """(line, position in `ast.walk` order, kind, variant) of every
    mutation."""
    for pos, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in FLIP:
                    yield node.lineno, pos, "compare", k
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node.lineno, pos, "constant", 1
            yield node.lineno, pos, "constant", -1
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for field in ("id", "attr"):
                reads = {getattr(n, field) for n in _reads_lo_hi(node, field)}
                if reads == set(SWAP):
                    yield node.lineno, pos, "lo-hi", field
        elif (isinstance(node, ast.If) and not node.orelse
              and len(node.body) == 1 and isinstance(node.body[0], ast.Raise)):
            yield node.lineno, pos, "raise", None


def _mutate(source: str, site: Site) -> tuple[str, str]:
    """The source with one mutation applied, and a line describing it."""
    line, pos, kind, variant = site
    tree = ast.parse(source)
    node = list(ast.walk(tree))[pos]
    if kind == "compare":
        op = node.ops[variant]
        node.ops[variant] = FLIP[type(op)]()
        what = f"{SYMBOL[type(op)]} -> {SYMBOL[FLIP[type(op)]]}"
    elif kind == "constant":
        what = f"{node.value} -> {node.value + variant}"
        node.value += variant
    elif kind == "lo-hi":
        for read in _reads_lo_hi(node, variant):
            setattr(read, variant, SWAP[getattr(read, variant)])
        what = (f"lo and hi {'names' if variant == 'id' else 'attributes'} "
                f"swapped in {node.name}")
    else:
        node.test = ast.Constant(False)
        what = "raise dropped"
    return ast.unparse(tree), f"line {line} {kind}: {what}"


def _run(copy: str, args: list[str], timeout: float | None) -> str:
    """'pass', 'fail' or 'timeout' of the selection in the copy."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(copy, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *args], cwd=copy, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if proc.returncode == 0 else "fail"


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    module, args = argv[0], argv[1:]
    rel = os.path.join("src", "threshold_spectra", f"{module}.py")
    with open(os.path.join(ROOT, rel)) as handle:
        source = handle.read()
    copy = tempfile.mkdtemp(prefix="mutate-")
    try:
        shutil.copytree(ROOT, copy, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns(
                            ".git", "__pycache__", ".pytest_cache", "*.pyc"))
        target = os.path.join(copy, rel)

        def write(text: str) -> None:
            with open(target, "w") as handle:
                handle.write(text)

        write(ast.unparse(ast.parse(source)))
        started = time.perf_counter()
        if _run(copy, args, timeout=None) != "pass":
            print(f"the unmutated {rel} fails the selection", file=sys.stderr)
            return 2
        timeout = max(60.0, 5 * (time.perf_counter() - started))
        sites = sorted(_sites(ast.parse(source)))
        survivors = []
        for k, site in enumerate(sites, 1):
            text, what = _mutate(source, site)
            write(text)
            outcome = _run(copy, args, timeout)
            print(f"[{k}/{len(sites)}] "
                  f"{'survived' if outcome == 'pass' else 'killed'}"
                  f"{' (timeout)' if outcome == 'timeout' else ''}  "
                  f"{rel} {what}", flush=True)
            if outcome == "pass":
                survivors.append(what)
        print(f"{len(survivors)} of {len(sites)} mutants of {rel} survive "
              f"{' '.join(args)}")
        for what in survivors:
            print(f"  {rel} {what}")
        return 1 if survivors else 0
    finally:
        shutil.rmtree(copy, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
