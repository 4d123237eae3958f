"""Benchmark of the threshold-spectra CLI: one workload, one seed, one run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src``.
Every pass is a fresh interpreter (``worker.py``) that sends the workload's
seeded queries to ``threshold_spectra.cli.run`` in-process, one at a time
(a closed loop with one client, ``--jobs 1``), so caches never leak between
passes or workloads.  Passes repeat until the next one would end after
``--seconds``; a run makes at least ``MIN_PASSES`` of each kind.  Every
time is CPU time scaled to the host's reference speed (see ``worker.py``),
so that the host's drifting speed does not show as a change.

With ``--trace 0`` the run prints the end-to-end metrics; set-up is timed
in separate fresh interpreters before the passes.  With ``--trace 1``
untraced and traced passes alternate and the run prints the per-layer
metrics, including the tracing overhead.  Lines starting with ``#``
describe the machine and the sample counts; the last line is the JSON
result.  Any worker error or a failed guard ends the run with exit code 1
and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 15
# Fewest passes of each kind in a run.  hunt-n14 has one query per pass,
# so this keeps its percentiles over at least three samples even when a
# pass outgrows a third of the run.
MIN_PASSES = 3
# A run must end within 180 s; no worker may outlive this.
HARD_LIMIT_S = 170


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.base = [sys.executable, WORKER, "--workload", workload,
                     "--seed", str(seed)]
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("THRESHOLD_SPECTRA_JOBS", None)
        self.started = time.monotonic()

    def worker(self, *flags: str) -> dict:
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(self.base + list(flags), cwd=ROOT,
                                  env=self.env, capture_output=True,
                                  text=True, timeout=max(remaining, 1))
        except subprocess.TimeoutExpired:
            raise SystemExit("a worker ran past the run's time limit")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"a worker exited with {proc.returncode}")
        return json.loads(proc.stdout.splitlines()[-1])

    def passes(self, kinds: tuple[str, ...], seconds: float) -> dict:
        """Alternate pass kinds until the next pass would end after
        `seconds`; every kind runs at least MIN_PASSES times."""
        deadline = time.monotonic() + seconds
        done: dict[str, list] = {kind: [] for kind in kinds}
        last: dict[str, float] = {}
        k = 0
        while True:
            kind = kinds[k % len(kinds)]
            if (all(len(runs) >= MIN_PASSES for runs in done.values())
                    and time.monotonic() + last[kind] > deadline):
                return done
            begun = time.monotonic()
            done[kind].append(self.worker(*(("--trace",) if kind == "traced"
                                             else ())))
            last[kind] = time.monotonic() - begun
            k += 1


def wall(result: dict) -> float:
    return sum(result["latencies"])


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list, list]:
    setups = [runner.worker("--setup-only")["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    results = runner.passes(("plain",), seconds)["plain"]
    latencies = [t for r in results for t in r["latencies"]]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(wall(r) for r in results), "s"),
        "query_ms_p50": (statistics.median(latencies) * 1000, "ms"),
        "query_ms_p90": (deciles[8] * 1000, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results),
                        "MB"),
    }
    notes = [f"samples: setup_s over {len(setups)} fresh interpreters; wall_s "
             f"and peak_rss_mb over {len(results)} passes; query latencies "
             f"pooled over {len(latencies)} queries",
             "pass walls: " + " ".join(f"{wall(r):.4f}" for r in results)]
    return metrics, results, notes


def per_layer(runner: Runner, workload: str,
              seconds: float) -> tuple[dict, list, list]:
    done = runner.passes(("plain", "traced"), seconds)
    plain, traced = done["plain"], done["traced"]
    layers = tracing.layer_metrics([r["trace"] for r in traced], workload)
    overhead = (statistics.median(wall(r) for r in traced)
                / statistics.median(wall(r) for r in plain) - 1)
    metrics = {name: (value, tracing.unit(name))
               for name, value in layers.items()}
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    notes = [f"samples: {len(traced)} traced and {len(plain)} untraced "
             "passes; per-layer values are per traced pass"]
    return metrics, plain + traced, notes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    machine = machine_info()
    runner = Runner(args.workload, args.seed)
    if args.trace:
        metrics, results, notes = per_layer(runner, args.workload, args.seconds)
    else:
        metrics, results, notes = end_to_end(runner, args.seconds)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"# machine: {json.dumps(machine)}")
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for note in notes:
        print(f"# {note}")
    print(f"# failed_frac {failed / attempted:g} ({failed} of {attempted} "
          "queries failed the output check, raised or exited nonzero)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
