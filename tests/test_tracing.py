"""The benchmark's wrap points must exist in the package.

`benchmarks/tracing.py` rebinds named functions at the places their
callers look them up; a refactor that drops one would stop every
benchmark run, so it fails here first.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def test_benchmark_wrap_points_resolve():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    try:
        tracing.check_bindings()
    except SystemExit as exc:
        pytest.fail(str(exc))
