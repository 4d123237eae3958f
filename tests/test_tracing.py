"""The benchmark's wrap points must exist in the package and be called.

`benchmarks/tracing.py` rebinds named functions at the places their
callers look them up; a refactor that drops one would stop every
benchmark run, so it fails here first.  A refactor that keeps a name
bound but stops calling it would zero a layer of a traced workload,
which the tracer's heavy-span self-test rejects; that test is run here
too, for every workload on a small query set, each in a fresh
interpreter so the rebinding stays out of the other tests.
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

SELF_TEST_SCRIPT = """
import importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("benchmark_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from threshold_spectra import cli
workload, argvs = sys.argv[2], json.loads(sys.argv[3])
tracer = tracing.Tracer()
tracer.install()
call = tracer.span(tracing.ROOT, cli.run)
codes = [call(argv, out=io.StringIO(), err=io.StringIO()) for argv in argvs]
metrics = tracing.layer_metrics([tracer.snapshot(1.0)], workload)
print(json.dumps({"codes": codes, "metrics": metrics}))
"""

# One small query set per benchmark workload, each reaching every span
# the tracer requires to be heavy on that workload.
SELF_TESTS = {
    "verify": [["family", "four", "--i", "1", "--verify", "--json"],
               ["charpoly", "0011", "--oracle", "--json"]],
    "energy-manyblocks": [["energy", "01" * 12, "--precision", "1e-10",
                           "--json"]],
    "energy-deepprec": [["energy", "(0^3 1^2 0^1 1^4 0^2 1^3 0^5 1^1)",
                         "--precision", "1e-50", "--json"]],
    "hunt-n14": [["hunt", "--n", "12", "--precision", "1e-10", "--jobs", "1",
                  "--json"]],
}


def test_benchmark_wrap_points_resolve():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    try:
        tracing.check_bindings()
    except SystemExit as exc:
        pytest.fail(str(exc))


def traced_self_test(workload):
    """Codes and per-layer metrics of a traced run of the workload's query
    set in a fresh interpreter; fails if the heavy-span self-test does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argvs = SELF_TESTS[workload]
    proc = subprocess.run([sys.executable, "-c", SELF_TEST_SCRIPT,
                           str(TRACING), workload, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * len(argvs)
    return report["metrics"]


def test_verify_heavy_spans_record_calls():
    metrics = traced_self_test("verify")
    # the two degree-4 rests of the pair: at most one evaluation per root
    assert 0 < metrics["families.int_root_candidates"] <= 8


@pytest.mark.parametrize("workload", ["energy-manyblocks", "energy-deepprec",
                                      "hunt-n14"])
def test_heavy_spans_record_calls(workload):
    traced_self_test(workload)
