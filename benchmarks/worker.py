"""One pass of a workload in a fresh interpreter (started by run.py).

    python3 benchmarks/worker.py --workload NAME --seed N [--trace] [--setup-only]

Set-up is timed first: importing ``threshold_spectra.cli`` from the
checkout's ``src`` plus one tiny warm-up query.  The pass then sends the
workload's queries to ``cli.run`` one at a time (a closed loop with one
client), times each call, and checks each output outside the timed region.
The last line printed is one JSON object with the pass's measurements.

Every time is the main thread's CPU time scaled to the host's reference
speed.  The speed of a shared host drifts by up to 2x within seconds (work
on other guests slows every instruction, so CPU time drifts with wall
time), so a probe thread times a fixed pure-Python kernel every
``SAMPLE_INTERVAL_S`` while the pass runs; a call's CPU time is multiplied
by ``REFERENCE_KERNEL_S`` over the mean kernel time sampled around it.  The
probe's own work is on another thread, so it is not in the calls' CPU
time.
"""

from __future__ import annotations

import argparse
import bisect
import io
import json
import os
import random
import resource
import statistics
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SAMPLE_INTERVAL_S = 0.025
# The kernel's CPU time when the host runs at full speed.
REFERENCE_KERNEL_S = 0.0012

_kernel_rng = random.Random(20261018)
KERNEL_COEFFS = tuple(_kernel_rng.randrange(-10**6, 10**6) for _ in range(40))
KERNEL_POINTS = tuple(_kernel_rng.getrandbits(700) for _ in range(96))


def speed_kernel() -> int:
    """Fixed work of the program's kind: Horner evaluation of an integer
    polynomial at dyadic points, on 700-bit integers."""
    positive = 0
    for x in KERNEL_POINTS:
        acc = 0
        for c in KERNEL_COEFFS:
            acc = ((acc * x) >> 690) + (c << 10)
        positive += acc > 0
    return positive


class SpeedProbe:
    """Times `speed_kernel` on its own thread every SAMPLE_INTERVAL_S while
    the `with` block runs: samples of (monotonic time, kernel CPU time)."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            started = time.thread_time()
            speed_kernel()
            # kernel_s first: a reader bounded by len(times) never finds
            # kernel_s shorter.
            self.kernel_s.append(time.thread_time() - started)
            self.times.append(time.monotonic())

    def _wait_past(self, moment: float) -> None:
        while not self.times or self.times[-1] <= moment:
            time.sleep(SAMPLE_INTERVAL_S / 5)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        self._wait_past(time.monotonic())
        return self

    def __exit__(self, *exc) -> None:
        self._wait_past(time.monotonic())
        self._stop.set()
        self._thread.join()

    def scale(self, begin: float, end: float) -> float:
        """Reference speed over the host's mean speed in [begin, end],
        widened by two sample intervals on each side."""
        lo = bisect.bisect_left(self.times, begin - 2 * SAMPLE_INTERVAL_S)
        hi = bisect.bisect_right(self.times, end + 2 * SAMPLE_INTERVAL_S)
        if lo == hi:  # no sample near: take the nearest one
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        return REFERENCE_KERNEL_S / statistics.fmean(self.kernel_s[lo:hi])

    def time(self, fn, *args, **kwargs):
        """(fn's result, its main-thread CPU time at reference speed)."""
        begin, cpu = time.monotonic(), time.thread_time()
        result = fn(*args, **kwargs)
        cpu, end = time.thread_time() - cpu, time.monotonic()
        return result, cpu * self.scale(begin, end)


def set_up():
    """Import the CLI from the checkout and answer one tiny query."""
    sys.path.insert(0, SRC)
    try:
        from threshold_spectra import cli
    except ImportError as exc:
        raise SystemExit(f"cannot import threshold_spectra from {SRC}: {exc}")
    out = io.StringIO()
    code = cli.run(["energy", "01", "--json"], out=out, err=io.StringIO())
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's copy")
    if code != 0:
        raise SystemExit("warm-up query `energy 01` failed")
    energy = json.loads(out.getvalue())["results"]["energy"]
    if not Fraction(energy["lo_fraction"]) <= 2 <= Fraction(energy["hi_fraction"]):
        raise SystemExit("warm-up query `energy 01` gave a wrong answer")
    return cli


def ask(call, argv: list[str], out: io.StringIO):
    """The exit code of one query, or the exception it raised."""
    try:
        return call(argv, out=out, err=io.StringIO())
    except Exception as exc:  # escaping the CLI contract is a failure
        return repr(exc)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    with SpeedProbe() as probe:
        result = run_pass(args, probe)
    print(json.dumps(result))


def run_pass(args: argparse.Namespace, probe: SpeedProbe) -> dict:
    cli, setup_s = probe.time(set_up)
    if args.setup_only:
        return {"setup_s": setup_s}
    queries = workloads.build_queries(args.workload, args.seed,
                                      workloads.load_references())
    call = cli.run
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        call = tracer.span(tracing.ROOT, cli.run)
    else:
        tracing.check_bindings()

    latencies = []
    failed = 0
    begun = time.monotonic()
    for query in queries:
        out = io.StringIO()
        code, latency = probe.time(ask, call, list(query.argv), out)
        latencies.append(latency)
        try:
            ok = isinstance(code, int) and query.check(code, out.getvalue())
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            failed += 1
            print(f"failed: {' '.join(query.argv)} (exit {code})",
                  file=sys.stderr)

    result = {
        "latencies": latencies,
        "attempted": len(queries),
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot(probe.scale(begun,
                                                      time.monotonic()))
    return result


if __name__ == "__main__":
    main()
