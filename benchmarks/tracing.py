"""Per-layer tracing from outside the package, by rebinding names.

Every wrap point is a name at the place its caller looks it up: a function
imported into another module by name is wrapped in that module, a method on
its class.  A timed span records calls, total time and self time (its time
minus the time of spans opened inside it); a counted point records only
calls, because it is too hot to time.  Counts are attributed to the span
that is open when they happen, so bisection steps split into refinement
and separation.

The name-binding guard: every run resolves every wrap point and stops
with an error if one is gone, and a traced run stops with an error if a
span that should be heavy on the workload recorded no calls.  A refactor
that moves a boundary therefore breaks the benchmark loudly instead of
zeroing a layer silently.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Optional

PACKAGE = "threshold_spectra"
LAYERS = ("sequences", "intpoly", "roots", "spectra", "linalg", "families",
          "hunt", "cli")

# span name -> bindings "module.attr[.attr]" it wraps; the layer is the
# span name's first component.
SPANS = {
    "cli.emit": ("cli._emit",),
    "sequences.parse": ("cli.parse_sequence",),
    "sequences.adjacency": ("cli.adjacency_matrix",),
    "sequences.nth_connected": ("hunt.nth_connected",),
    "spectra.energy": ("spectra.energy", "families.energy"),
    "spectra.char_poly": ("spectra.char_poly_of_sequence",
                          "families.char_poly"),
    "spectra.nontrivial_parts": ("hunt._nontrivial_parts",
                                 "families._nontrivial_parts"),
    "spectra.energy_from_parts": ("hunt._energy_from_parts",),
    "spectra.qb_build": ("spectra._q_from_counts",),
    "roots.isolate": ("spectra.isolate_real_roots",
                      "families.isolate_real_roots",
                      "roots.isolate_real_roots"),
    "intpoly.sqfree": ("roots.square_free_decomposition",),
    "roots.subdivide": ("roots._subdivide",),
    "roots.sturm_chain": ("roots.sturm_chain",),
    "roots.refine": ("roots._Enclosure.refine_to",),
    "roots.separate": ("roots._separate",),
    "families.verify": ("families.verify_family",),
    "families.cubic": ("families.cubic_root_localization",),
    "families.exact_equal": ("families.exact_energy_equal",
                             "hunt.exact_energy_equal"),
    "families.strip_int_roots": ("families._strip_integer_roots",),
    "hunt.full_scan": ("hunt.full_scan",),
    "hunt.scan": ("hunt._scan",),
    "hunt.group": ("hunt._group",),
    "linalg.charpoly": ("linalg.charpoly",),
    "linalg.bareiss": ("linalg.bareiss_determinant",),
    "linalg.interpolate": ("linalg._interpolate_at_integers",),
}

# Hot leaves: counted, never timed.  Calls that return 0 are counted
# apart: for `families.evaluate` inside integer-root stripping those are
# the integer roots found.
COUNTERS = {
    "roots.sign_at": ("roots.sign_at",),
    "roots.halve": ("roots._Enclosure.halve",),
    "families.evaluate": ("families.evaluate",),
}

# span -> counter whose calls made while the span is open are added to it
SPAN_COUNTS = {
    "roots.refine": "roots.halve",
    "roots.separate": "roots.halve",
    "families.strip_int_roots": "families.evaluate",
}

# span -> function of its result, summed over calls
MEASURES = {
    "roots.sturm_chain": len,
    "families.exact_equal": lambda verdict: verdict is not None,
}

# Spans (or counters) that must record calls on each workload.
HEAVY = {
    "hunt-n14": ("hunt.full_scan", "hunt.scan", "hunt.group", "roots.isolate",
                 "intpoly.sqfree", "roots.subdivide", "roots.sturm_chain",
                 "roots.refine", "roots.separate", "roots.sign_at",
                 "roots.halve", "families.exact_equal"),
    "energy-manyblocks": ("spectra.energy", "spectra.qb_build",
                          "roots.isolate", "roots.refine", "cli.emit"),
    "energy-deepprec": ("spectra.energy", "roots.isolate", "roots.refine",
                        "roots.sign_at", "roots.halve"),
    "verify": ("families.verify", "families.exact_equal",
               "families.strip_int_roots", "families.evaluate",
               "linalg.charpoly", "linalg.bareiss", "linalg.interpolate"),
}

# The query itself: opened by the harness around each cli.run call.
ROOT = "cli.run"

# Fields of a span's record.
CALLS, TOTAL, SELF, COUNTED, COUNTED_ZERO, MEASURED = range(6)


def _resolve(binding: str) -> tuple[object, str, Callable]:
    """(owner, attribute, current value) of one binding; raises if gone."""
    module, *path = binding.split(".")
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    value = getattr(owner, path[-1])
    if not callable(value):
        raise AttributeError(f"{binding} is not callable")
    return owner, path[-1], value


def check_bindings() -> None:
    """The guard for untraced runs: every wrap point must still exist."""
    for table in (SPANS, COUNTERS):
        for bindings in table.values():
            for binding in bindings:
                try:
                    _resolve(binding)
                except (ImportError, AttributeError) as exc:
                    raise SystemExit(
                        f"wrap point {binding} is gone ({exc}); "
                        "update benchmarks/tracing.py") from exc


class Tracer:
    """Aggregates spans and counts in memory for one traced pass."""

    def __init__(self) -> None:
        # span -> [calls, total s, self s, counted, counted zero, measured]
        self.spans: dict[str, list] = {}
        # counter -> [calls, calls that returned 0]
        self.counters: dict[str, list] = {name: [0, 0] for name in COUNTERS}
        # one cell per open span: seconds covered by its child spans
        self._stack: list[list] = []

    def span(self, name: str, fn: Callable) -> Callable:
        stats = self.spans.setdefault(name, [0, 0.0, 0.0, 0, 0, 0])
        cell = self.counters.get(SPAN_COUNTS.get(name), [0, 0])
        measure = MEASURES.get(name)
        stack = self._stack
        # Wall time: a CPU-time clock is a system call and would add ~15% to
        # a traced hunt.  The worker's host-speed probe thread then lands
        # in open spans, about 5% spread in proportion to their time.
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            counted, zero = cell
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[CALLS] += 1
                stats[TOTAL] += elapsed
                stats[SELF] += elapsed - children[0]
                stats[COUNTED] += cell[0] - counted
                stats[COUNTED_ZERO] += cell[1] - zero
                if stack:
                    stack[-1][0] += elapsed
            if measure is not None:
                stats[MEASURED] += measure(result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        cell = self.counters[name]

        def wrapper(*args):
            result = fn(*args)
            cell[0] += 1
            if result == 0:
                cell[1] += 1
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every wrap point; the guard fails on a missing name."""
        check_bindings()
        for name, bindings in COUNTERS.items():
            for binding in bindings:
                owner, attr, fn = _resolve(binding)
                setattr(owner, attr, self.counter(name, fn))
        for name, bindings in SPANS.items():
            for binding in bindings:
                owner, attr, fn = _resolve(binding)
                setattr(owner, attr, self.span(name, fn))

    def snapshot(self, scale: float) -> dict:
        """Raw per-pass data, JSON-ready, for `layer_metrics`; span times
        are multiplied by `scale`, the pass's factor to reference speed."""
        spectra = importlib.import_module(f"{PACKAGE}.spectra")
        cache = getattr(spectra, "_index_seqs", None)
        info = cache.cache_info() if hasattr(cache, "cache_info") else None
        spans = {name: [value * scale if field in (TOTAL, SELF) else value
                        for field, value in enumerate(stats)]
                 for name, stats in self.spans.items()}
        return {
            "spans": spans,
            "counters": self.counters,
            "index_cache": None if info is None else [info.currsize,
                                                      info.hits, info.misses],
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum_into(acc: dict[str, list], part: dict[str, list]) -> None:
    for name, values in part.items():
        if name in acc:
            acc[name] = [a + b for a, b in zip(acc[name], values)]
        else:
            acc[name] = list(values)


def layer_metrics(snapshots: list[dict], workload: str) -> dict[str, float]:
    """Per-layer metrics per traced pass; fails unless every HEAVY span of
    the workload recorded calls.  The index-cache metrics read 0 once the
    cache is gone, because every metric must be a number.
    """
    passes = len(snapshots)
    spans: dict[str, list] = {}
    counters: dict[str, list] = {}
    cache = [0, 0, 0]
    for snap in snapshots:
        _sum_into(spans, snap["spans"])
        _sum_into(counters, snap["counters"])
        if snap["index_cache"] is not None:
            cache = [a + b for a, b in zip(cache, snap["index_cache"])]

    def field(name: str, index: int) -> float:
        return spans[name][index] if name in spans else 0

    def calls(name: str) -> int:
        return counters[name][0] if name in counters else field(name, CALLS)

    missing = [name for name in HEAVY[workload] if calls(name) == 0]
    if missing:
        raise SystemExit(f"trace self-test: no calls recorded on {workload} "
                         f"for {', '.join(missing)}; a wrap point has moved")

    def per_pass(value: float) -> float:
        return value / passes

    entries, hits, misses = cache
    strip = "families.strip_int_roots"
    metrics = {
        "spectra.qb_build.calls": per_pass(calls("spectra.qb_build")),
        "spectra.qb_build.self_s": per_pass(field("spectra.qb_build", SELF)),
        "spectra.index_cache.entries": per_pass(entries),
        "spectra.index_cache.hit_frac": _ratio(hits, hits + misses),
        "roots.isolate.calls": per_pass(calls("roots.isolate")),
        "roots.isolate.self_s": per_pass(field("roots.isolate", SELF)),
        "roots.sturm_chain.calls": per_pass(calls("roots.sturm_chain")),
        "roots.sturm_chain.self_s": per_pass(field("roots.sturm_chain", SELF)),
        "roots.sturm_chain.mean_len": _ratio(
            field("roots.sturm_chain", MEASURED), calls("roots.sturm_chain")),
        "roots.subdivide.self_s": per_pass(field("roots.subdivide", SELF)),
        "roots.refine.self_s": per_pass(field("roots.refine", SELF)),
        "roots.refine.halvings": per_pass(field("roots.refine", COUNTED)),
        "roots.separate.self_s": per_pass(field("roots.separate", SELF)),
        "roots.separate.halvings": per_pass(field("roots.separate", COUNTED)),
        "roots.sign_at.calls": per_pass(calls("roots.sign_at")),
        "roots.sign_at.per_item": _ratio(calls("roots.sign_at"),
                                         calls("roots.isolate")),
        "intpoly.sqfree.self_s": per_pass(field("intpoly.sqfree", SELF)),
        "families.exact_equal.calls": per_pass(calls("families.exact_equal")),
        "families.exact_equal.self_s":
            per_pass(field("families.exact_equal", SELF)),
        "families.exact_equal.decided_frac": _ratio(
            field("families.exact_equal", MEASURED),
            calls("families.exact_equal")),
        "families.int_root_candidates": per_pass(field(strip, COUNTED)),
        "families.int_root_hit_frac": _ratio(field(strip, COUNTED_ZERO),
                                             field(strip, COUNTED)),
        "hunt.scan.self_s": per_pass(field("hunt.scan", SELF)),
        "hunt.group.self_s": per_pass(field("hunt.group", SELF)),
        "linalg.bareiss.calls": per_pass(calls("linalg.bareiss")),
        "linalg.bareiss.self_s": per_pass(field("linalg.bareiss", SELF)),
        "linalg.interpolate.self_s": per_pass(field("linalg.interpolate", SELF)),
        "cli.emit.self_s": per_pass(field("cli.emit", SELF)),
    }
    for layer in LAYERS:
        own = sum(values[SELF] for name, values in spans.items()
                  if name.split(".")[0] == layer)
        metrics[f"layer.{layer}.self_s"] = per_pass(own)
    metrics["trace.wall_s"] = per_pass(field(ROOT, TOTAL))
    return metrics


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"
