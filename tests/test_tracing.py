"""The benchmark's wrap points must exist in the package and be called.

`benchmarks/tracing.py` rebinds named functions at the places their
callers look them up; a refactor that drops one would stop every
benchmark run, so it fails here first.  A refactor that keeps a name
bound but stops calling it would zero a layer of the traced `verify`
workload, which the tracer's heavy-span self-test rejects; that test is
run here too, in a fresh interpreter so the rebinding stays out of the
other tests.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "benchmarks" / "tracing.py"
SRC = ROOT / "src"

VERIFY_SCRIPT = """
import importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("benchmark_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from threshold_spectra import cli
tracer = tracing.Tracer()
tracer.install()
call = tracer.span(tracing.ROOT, cli.run)
codes = [call(argv, out=io.StringIO(), err=io.StringIO())
         for argv in (["family", "four", "--i", "1", "--verify", "--json"],
                      ["charpoly", "0011", "--oracle", "--json"])]
metrics = tracing.layer_metrics([tracer.snapshot(1.0)], "verify")
print(json.dumps({"codes": codes, "metrics": metrics}))
"""


def test_benchmark_wrap_points_resolve():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    try:
        tracing.check_bindings()
    except SystemExit as exc:
        pytest.fail(str(exc))


def test_verify_heavy_spans_record_calls():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", VERIFY_SCRIPT, str(TRACING)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0]
    # the two degree-4 rests of the pair: at most one evaluation per root
    assert 0 < report["metrics"]["families.int_root_candidates"] <= 8
