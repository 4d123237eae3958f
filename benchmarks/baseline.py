"""Measure every workload over several seeds and write ``baseline.json``.

    python3 benchmarks/baseline.py

For each workload the benchmark runs once per seed in SEEDS with tracing
off, and then once with tracing on, each run as long as ``run_seconds`` in
``BENCHMARK.json``.  The file records, per end-to-end metric and
workload, the median, the quartiles and the spread (the distance between
the quartiles as a share of the median), plus the traced per-layer values,
the machine, the wrap points and the map from layer metrics to the
end-to-end metrics they should move.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "baseline.json")
SEEDS = range(1, 11)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# layer metric -> (end-to-end metrics it should move, workloads it shows on)
LAYER_MAP = {
    "spectra.qb_build": (["wall_s", "query_ms_p90"], ["energy-manyblocks"]),
    "spectra.index_cache": (["peak_rss_mb"], ["energy-manyblocks"]),
    "roots.isolate": (["wall_s"], ["hunt-n14"]),
    "roots.sturm_chain": (["wall_s"], ["hunt-n14"]),
    "roots.subdivide": (["wall_s"], ["hunt-n14"]),
    "roots.refine": (["query_ms_p50", "wall_s"],
                     ["energy-deepprec", "hunt-n14"]),
    "roots.separate": (["wall_s", "failed_frac"], ["hunt-n14"]),
    "roots.sign_at": (["wall_s"], ["hunt-n14", "energy-deepprec"]),
    "intpoly.sqfree": (["wall_s"], ["hunt-n14"]),
    "families.exact_equal": (["wall_s"], ["verify", "hunt-n14"]),
    "families.int_root": (["wall_s"], ["verify"]),
    "hunt.scan": (["wall_s", "peak_rss_mb"], ["hunt-n14"]),
    "hunt.group": (["wall_s", "peak_rss_mb"], ["hunt-n14"]),
    "linalg.bareiss": (["wall_s"], ["verify"]),
    "linalg.interpolate": (["wall_s"], ["verify"]),
    "cli.emit": (["wall_s"], list(workloads.WORKLOADS)),
}


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    shown = result["metrics"] if trace == 0 else {}
    print(f"{workload} seed {seed} trace {trace}: " + ", ".join(
        f"{k}={v['value']:.5g}" for k, v in shown.items()), flush=True)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed the check")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "runs": len(values)}


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        seconds = json.load(handle)["run_seconds"]
    end_to_end, per_layer = {}, {}
    for workload in workloads.WORKLOADS:
        runs = [bench(workload, s, seconds, 0) for s in SEEDS]
        end_to_end[workload] = {
            name: summary([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]}
        end_to_end[workload]["failed_frac"] = (
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs))
        traced = bench(workload, SEEDS[0], seconds, 1)
        per_layer[workload] = {name: m["value"]
                               for name, m in traced["metrics"].items()}
    baseline = {
        "machine": run.machine_info(),
        "seeds": list(SEEDS),
        "run_seconds": seconds,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "layer_map": {name: {"moves": moves, "on": on}
                      for name, (moves, on) in LAYER_MAP.items()},
        "wrap_points": {"spans": tracing.SPANS, "counted": tracing.COUNTERS},
        "not_measured": "--jobs scaling: two shared cores cannot give "
                        "steady scaling numbers",
    }
    with open(OUT, "w") as handle:
        json.dump(baseline, handle, indent=1)
        handle.write("\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
