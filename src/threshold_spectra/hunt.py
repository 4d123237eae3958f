"""Exhaustive search over all connected threshold graphs of a fixed order.

Every sequence gets an exact energy enclosure; sequences whose enclosures
overlap (transitively) are grouped into classes, which are the maximal
runs of the intervals sorted by lower endpoint.  Classes holding two
members with different exact characteristic polynomials are reported as
noncospectral equienergetic candidates: the distinct-spectrum half of the
claim is exact, the equal-energy half is certified to the working
precision, and where the nontrivial factors differ only by integer linear
terms it is upgraded to an exact equality via the shared-factor
bookkeeping.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import get_context
from typing import Optional, Union

from .families import exact_energy_equal
from .intpoly import Poly
from .sequences import Bits, block_counts, nth_connected, to_blocks
from .spectra import (_char_poly_from_parts, _energy_from_parts,
                      _nontrivial_parts)

Rational = Union[int, Fraction]

DEFAULT_MAX_ORDER = 24


@dataclass(frozen=True)
class SequenceRecord:
    """Per-sequence scan output: exact char poly and energy enclosure."""

    bits: Bits
    char_poly: Poly
    energy_lo: Fraction
    energy_hi: Fraction


@dataclass(frozen=True)
class EnergyClass:
    """Sequences whose energy enclosures overlap transitively."""

    energy_lo: Fraction
    energy_hi: Fraction
    members: tuple[tuple[Bits, Poly], ...]

    @property
    def char_polys(self) -> set[Poly]:
        return {poly for _, poly in self.members}


@dataclass(frozen=True)
class HuntResult:
    """One full scan of order n: every connected sequence in enumeration
    order, the complete energy partition and the scan's statistics."""

    n: int
    records: tuple[SequenceRecord, ...]
    classes: tuple[EnergyClass, ...]
    stats: dict

    @property
    def equienergetic(self) -> tuple[EnergyClass, ...]:
        """Classes containing at least two noncospectral members.

        Membership means energy-equal within the working precision; spectra
        are compared exactly.
        """
        return tuple(c for c in self.classes if len(c.char_polys) >= 2)

    @property
    def borderenergetic(self) -> tuple[Bits, ...]:
        """Sequences whose energy enclosure contains 2n - 2, except the
        complete graph itself.  Containment is necessary, not sufficient:
        candidates."""
        target = Fraction(2 * self.n - 2)
        complete = (0,) + (1,) * (self.n - 1)
        return tuple(rec.bits for rec in self.records
                     if rec.energy_lo <= target <= rec.energy_hi
                     and rec.bits != complete)


def _resolve_jobs(processes: Optional[int]) -> int:
    # None means one process.  The scan is CPU-bound: workers beyond the
    # CPU count never help.
    if processes is None:
        return 1
    if processes < 1:
        raise ValueError(f"need at least one process, got {processes}")
    return min(processes, os.cpu_count() or 1)


def _check_order(n: int, allow_large: bool) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > DEFAULT_MAX_ORDER and not allow_large:
        raise ValueError(
            f"n = {n} exceeds the default guard of {DEFAULT_MAX_ORDER}; "
            "pass allow_large=True to override"
        )


def _scan_range(args: tuple[int, int, int, Fraction]) -> list[SequenceRecord]:
    """Records for one contiguous slice of the enumeration (worker-safe)."""
    n, start, stop, precision = args
    out = []
    for idx in range(start, stop):
        bits = nth_connected(n, idx)
        blocks = to_blocks(bits)
        m0, m1, rest = _nontrivial_parts(blocks)
        lo, hi = _energy_from_parts(rest, block_counts(blocks), precision)
        out.append(SequenceRecord(bits, _char_poly_from_parts(m0, m1, rest),
                                  lo, hi))
    return out


def _scan(n: int, precision: Fraction, processes: Optional[int],
          allow_large: bool) -> list[SequenceRecord]:
    _check_order(n, allow_large)
    total = 1 << (n - 2)
    jobs = _resolve_jobs(processes)
    if jobs <= 1 or total < 64:
        return _scan_range((n, 0, total, precision))
    step = -(-total // jobs)
    chunks = [(n, k, min(k + step, total), precision)
              for k in range(0, total, step)]
    # Pool.map returns the chunks' results in input order, so the records
    # stay in enumeration order.
    with get_context("fork").Pool(len(chunks)) as pool:
        parts = pool.map(_scan_range, chunks)
    return [rec for part in parts for rec in part]


def _group(records: tuple[SequenceRecord, ...]) -> tuple[EnergyClass, ...]:
    """The energy classes in ascending order: the maximal runs of the
    records sorted by lower endpoint in which each interval starts no later
    than the furthest upper endpoint before it."""
    runs: list[list[SequenceRecord]] = []
    reach = Fraction(0)
    for rec in sorted(records, key=lambda r: (r.energy_lo, r.energy_hi,
                                              r.bits)):
        if runs and rec.energy_lo <= reach:
            runs[-1].append(rec)
            reach = max(reach, rec.energy_hi)
        else:
            runs.append([rec])
            reach = rec.energy_hi
    # Each run starts above every upper endpoint of the runs before it,
    # so the classes come out sorted by energy.
    return tuple(
        EnergyClass(energy_lo=run[0].energy_lo,
                    energy_hi=max(rec.energy_hi for rec in run),
                    members=tuple(sorted((rec.bits, rec.char_poly)
                                         for rec in run)))
        for run in runs)


def full_scan(n: int, precision: Rational, processes: Optional[int] = None,
              allow_large: bool = False) -> HuntResult:
    """Scan every connected sequence of order n: per-sequence records, the
    complete energy partition and its statistics."""
    prec = Fraction(precision)
    if prec <= 0:
        raise ValueError(f"precision must be positive, got {precision}")
    started = time.perf_counter()
    records = tuple(_scan(n, prec, processes, allow_large))
    classes = _group(records)
    stats: dict = {}
    result = HuntResult(n=n, records=records, classes=classes, stats=stats)
    interesting = result.equienergetic
    exact_pairs = 0
    for cls in interesting:
        for a, (bits_a, poly_a) in enumerate(cls.members):
            for bits_b, poly_b in cls.members[a + 1:]:
                if poly_a != poly_b and exact_energy_equal(to_blocks(bits_a),
                                                           to_blocks(bits_b)):
                    exact_pairs += 1
    stats.update({
        "graphs": len(records),
        "distinct_char_polys": len({rec.char_poly for rec in records}),
        "classes_total": len(classes),
        "equienergetic_classes": len(interesting),
        "noncospectral_pairs_exactly_equal": exact_pairs,
        "borderenergetic_candidates": len(result.borderenergetic),
        "elapsed_seconds": round(time.perf_counter() - started, 3),
    })
    return result


__all__ = [
    "EnergyClass",
    "HuntResult",
    "SequenceRecord",
    "full_scan",
]
