"""Seeded query sets for the benchmark workloads and their output checks.

A workload turns a seed into a list of queries.  Each query is one argv
for ``threshold_spectra.cli.run`` plus a check that decides, from the exit
code and the JSON text the command printed, whether the output is correct.
The energy sequences come from committed pools (``references.json``) whose
certified reference enclosures were made once by ``make_references.py`` and
cross-checked there against numpy's ``eigvalsh``; the seed picks which pool
members are queried, at which precision, and in which order.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")

# Queries per block count B, drawn from the pool of that B.  A pass is a
# fresh interpreter, so its first query of each B builds the index-sequence
# cache (the cold builds, about 5% of the queries).  The split puts the
# pooled median inside the warm B = 24 band and the 90th percentile inside
# the warm B = 26 band, away from the band edges, so both stay steady.
MANYBLOCKS_PLAN = {24: 34, 26: 6}
MANYBLOCKS_PRECISION = "1e-10"

# Sequences per (B, n) cell of the deep-precision pool, by B; each is
# queried at every precision, so every seed asks for the same mix of work.
# All 12 members of each B = 8 cell are queried, so the B = 8 bands are the
# same under every seed.  The pooled median then lies a third of the way
# into the B = 8, 1e-100 band and the 90th percentile two thirds of the way
# into the B = 8, 1e-200 band, away from band edges where a percentile
# would jump with the seed.
DEEPPREC_PER_CELL = {"B4": 1, "B6": 1, "B8": 12}
DEEPPREC_PRECISIONS = ("1e-50", "1e-100", "1e-200")

HUNT_ARGV = ("hunt", "--n", "14", "--precision", "1e-10", "--jobs", "1",
             "--json")

# Both families are verified for i = 1..FAMILY_MAX_I; the determinant
# oracle runs on a seeded slice of the connected graphs of each order.
FAMILY_MAX_I = 20
ORACLE_PLAN = {8: 8, 9: 16, 10: 32, 11: 64}

WORKLOADS = ("hunt-n14", "energy-manyblocks", "energy-deepprec", "verify")


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    # (exit code, JSON text printed by the command) -> output is correct
    check: Callable[[int, str], bool]


def load_references() -> dict:
    with open(REFERENCES) as handle:
        return json.load(handle)


def _check_energy(precision: str, ref_lo: str, ref_hi: str,
                  code: int, text: str) -> bool:
    """Width within the precision asked for, and the interval overlaps the
    committed reference enclosure: two certified enclosures of one number
    must intersect."""
    if code != 0:
        return False
    energy = json.loads(text)["results"]["energy"]
    lo, hi = Fraction(energy["lo_fraction"]), Fraction(energy["hi_fraction"])
    return (lo <= hi and hi - lo <= Fraction(precision)
            and lo <= Fraction(ref_hi) and Fraction(ref_lo) <= hi)


def _hunt_digest(results: dict) -> dict:
    """The parts of a hunt result that must match the reference exactly:
    class membership, the borderenergetic list and the stats counts.
    Timing is excluded; class energy intervals are compared by overlap."""
    stats = {k: v for k, v in results["stats"].items()
             if k != "elapsed_seconds"}
    classes = [{"members": c["members"], "certification": c["certification"]}
               for c in results["classes"]]
    return {"n": results["n"], "precision": results["precision"],
            "stats": stats, "classes": classes,
            "borderenergetic": results["borderenergetic"]}


def _check_hunt(reference: dict, code: int, text: str) -> bool:
    if code != 0:
        return False
    results = json.loads(text)["results"]
    if _hunt_digest(results) != _hunt_digest(reference):
        return False
    return all(Fraction(got["energy_lo"]) <= Fraction(want["energy_hi"])
               and Fraction(want["energy_lo"]) <= Fraction(got["energy_hi"])
               for got, want in zip(results["classes"], reference["classes"]))


def _check_family(with_cubic: bool, code: int, text: str) -> bool:
    if code != 0:
        return False
    results = json.loads(text)["results"]
    if results["verification"]["ok"] is not True:
        return False
    return not with_cubic or results["cubic_roots"]["ok"] is True


def _check_oracle(code: int, text: str) -> bool:
    if code != 0:
        return False
    results = json.loads(text)["results"]
    return (results["verdict"] == "equal"
            and results["char_poly"] == results["determinant_poly"])


def _energy_query(entry: dict, precision: str) -> Query:
    return Query(("energy", entry["sequence"], "--precision", precision,
                  "--json"),
                 partial(_check_energy, precision, entry["lo"], entry["hi"]))


def build_queries(workload: str, seed: int, refs: dict) -> list[Query]:
    """The fixed work of one pass of `workload` under `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    queries: list[Query] = []
    if workload == "hunt-n14":
        queries.append(Query(HUNT_ARGV, partial(_check_hunt, refs["hunt-n14"])))
    elif workload == "energy-manyblocks":
        pools = refs["energy-manyblocks"]
        for b, count in MANYBLOCKS_PLAN.items():
            for entry in rng.sample(pools[str(b)], count):
                queries.append(_energy_query(entry, MANYBLOCKS_PRECISION))
    elif workload == "energy-deepprec":
        for name, cell in refs["energy-deepprec"].items():
            count = DEEPPREC_PER_CELL[name.split("-")[0]]
            for entry in rng.sample(cell, count):
                for precision in DEEPPREC_PRECISIONS:
                    queries.append(_energy_query(entry, precision))
    elif workload == "verify":
        for i in range(1, FAMILY_MAX_I + 1):
            for family in ("four", "six"):
                queries.append(Query(
                    ("family", family, "--i", str(i), "--verify", "--json"),
                    partial(_check_family, family == "four")))
        for n, count in ORACLE_PLAN.items():
            free = n - 2
            for idx in rng.sample(range(1 << free), count):
                bits = "0" + format(idx, f"0{free}b") + "1"
                queries.append(Query(("charpoly", bits, "--oracle", "--json"),
                                     _check_oracle))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(queries)
    return queries
