"""Write ``references.json``: the query pools and their certified answers.

Run once from the repository root (numpy required):

    python3 benchmarks/make_references.py

The energy pools are drawn with a fixed generator seed.  Each reference
enclosure is computed by the package at a precision far finer than any
query asks for, and every reference is cross-checked against an
independent float route: numpy's ``eigvalsh`` on the adjacency matrix.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from threshold_spectra import cli, spectra  # noqa: E402
from threshold_spectra.util import decimal_lower, decimal_upper  # noqa: E402

import workloads  # noqa: E402

POOL_SEED = 20261017
MANYBLOCKS_POOL = 48          # sequences per block count
MANYBLOCKS_REF_DIGITS = 25    # reference precision 1e-20, printed outward
DEEPPREC_BLOCKS = (4, 6, 8)
DEEPPREC_ORDERS = (36, 48, 60)
DEEPPREC_POOL = 12            # sequences per (B, n) cell
DEEPPREC_REF_DIGITS = 215     # reference precision 1e-210, printed outward


def block_text(counts: list[int]) -> str:
    return "(" + " ".join(f"{k % 2}^{c}" for k, c in enumerate(counts)) + ")"


def float_energy(counts: list[int]) -> float:
    bits = [k % 2 for k, c in enumerate(counts) for _ in range(c)]
    n = len(bits)
    adj = np.zeros((n, n))
    for j, b in enumerate(bits):
        if b:
            adj[:j, j] = 1.0
            adj[j, :j] = 1.0
    return float(np.abs(np.linalg.eigvalsh(adj)).sum())


def reference_entry(counts: list[int], digits: int) -> dict:
    text = block_text(counts)
    bits = tuple(k % 2 for k, c in enumerate(counts) for _ in range(c))
    lo, hi = spectra.energy(bits, Fraction(1, 10 ** (digits - 5)))
    approx = float_energy(counts)
    slack = 1e-9 * max(1.0, approx)
    if not float(lo) - slack <= approx <= float(hi) + slack:
        raise SystemExit(f"{text}: eigvalsh energy {approx!r} outside "
                         f"[{float(lo)!r}, {float(hi)!r}]")
    return {"sequence": text, "lo": decimal_lower(lo, digits),
            "hi": decimal_upper(hi, digits)}


def distinct_draws(rng: random.Random, count: int, draw) -> list[list[int]]:
    seen: dict[tuple[int, ...], None] = {}
    while len(seen) < count:
        seen.setdefault(tuple(draw(rng)), None)
    return [list(c) for c in seen]


def composition(rng: random.Random, n: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def hunt_reference() -> dict:
    out = io.StringIO()
    if cli.run(list(workloads.HUNT_ARGV), out=out) != 0:
        raise SystemExit("reference hunt failed")
    results = json.loads(out.getvalue())["results"]
    del results["stats"]["elapsed_seconds"]
    n = results["n"]
    for cls in results["classes"]:
        lo, hi = float(cls["energy_lo"]), float(cls["energy_hi"])
        for member in cls["members"]:
            counts = [int(part.split("^")[1])
                      for part in member["sequence"].strip("()").split()]
            approx = float_energy(counts)
            if not lo - 1e-8 <= approx <= hi + 1e-8:
                raise SystemExit(f"hunt class member {member['sequence']}: "
                                 f"eigvalsh energy {approx!r} outside class")
    for text in results["borderenergetic"]:
        counts = [int(part.split("^")[1]) for part in text.strip("()").split()]
        if abs(float_energy(counts) - (2 * n - 2)) > 1e-8:
            raise SystemExit(f"borderenergetic candidate {text} fails eigvalsh")
    return results


def main() -> None:
    rng = random.Random(POOL_SEED)
    manyblocks = {}
    for b in workloads.MANYBLOCKS_PLAN:
        draws = distinct_draws(rng, MANYBLOCKS_POOL,
                               lambda r, b=b: [r.randint(1, 2) for _ in range(b)])
        manyblocks[str(b)] = [reference_entry(c, MANYBLOCKS_REF_DIGITS)
                              for c in draws]
        print(f"energy-manyblocks B={b}: {len(draws)} references", flush=True)
    deepprec = {}
    for b in DEEPPREC_BLOCKS:
        for n in DEEPPREC_ORDERS:
            draws = distinct_draws(rng, DEEPPREC_POOL,
                                   lambda r, b=b, n=n: composition(r, n, b))
            deepprec[f"B{b}-n{n}"] = [reference_entry(c, DEEPPREC_REF_DIGITS)
                                      for c in draws]
            print(f"energy-deepprec B={b} n={n}: {len(draws)} references",
                  flush=True)
    refs = {
        "energy-manyblocks": manyblocks,
        "energy-deepprec": deepprec,
        "hunt-n14": hunt_reference(),
    }
    with open(workloads.REFERENCES, "w") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {workloads.REFERENCES}")


if __name__ == "__main__":
    main()
