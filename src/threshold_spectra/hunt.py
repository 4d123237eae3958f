"""Exhaustive search over all connected threshold graphs of a fixed order.

Every sequence gets an exact energy enclosure; sequences whose enclosures
overlap (transitively) are grouped into classes, which are the maximal
runs of the intervals sorted by lower endpoint.  Classes holding two
members with different exact characteristic polynomials are reported as
noncospectral equienergetic candidates: the distinct-spectrum half of the
claim is exact, and the equal-energy half is certified to the working
precision only.  An exact shared-factor check of the pairs whose
nontrivial factors differ only by integer linear terms feeds the
`noncospectral_pairs_exactly_equal` statistic alone.

The scan keeps integers only: per graph, the numerators of its enclosure's
endpoints over one power-of-two denominator and its class id, with the
graph's index in the enumeration as its position.  Grouping sorts and
merges on those numerators.  Only the members of classes with two or more
members get their sequence and characteristic polynomial back, rebuilt
from their index.  The result holds no record or class of the whole
scan: `HuntResult.iter_records` rebuilds each record as it is reached,
and the complete partition is the class id of every index.  Cospectral
graphs share the factor `rest` and the block count, so they get
identical enclosures and fall into one class: a single-member class
holds a polynomial that no other graph has, which is what
`distinct_char_polys` counts on.

The scan sums each graph's enclosure itself where it can
(`_float_energy`).  It counts the positive roots of `rest` at 0
(`_roots_above`), places them with `_float_cells` on the grid of width
precision / B, the width computed once per block count B, and adds up
the cell ends over the grid's one denominator.  It repeats the checks of
the route that `_energy_from_parts` takes, and hands the graph to
`_energy_from_parts` unless all of them hold:

- the count is B/2, the inertia of every connected threshold graph, and
  its parity agrees with the signs of `rest` at 0 and at infinity;
- `_float_cells` places the roots, and none of them lies on a grid point;
- every cell shows an exact sign change of `rest` at its ends;
- the cells are pairwise strictly disjoint, so enclosure separation
  would halve none of them;
- they number B/2, the inertia check of `_energy_from_parts`.

Since the count must be B/2, which the inertia of the graph confirms,
the float pass stops after B/2 roots (`count_is_known`).  Where all the
checks hold, refinement would return at once on cells already of the
target width, and the sum is the interval `_energy_from_parts` returns,
number for number.  A graph that fails a check takes that route whole and
raises what it raises; at n = 14 and 1e-10 that is 93 of the 4,096
graphs, each with a root on a grid point.  The single-graph commands keep
`_energy_from_parts` and its per-root enclosures, refinement call and
separation: there they cost about 3% of a query, against about a quarter
of a graph's time in the scan, and the tests and the benchmark's tracing
count isolation and refinement on that route.
"""

from __future__ import annotations

import os
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Union

from .families import exact_energy_equal
from .intpoly import Poly
from .roots import _float_cells, _lowest_terms
from .sequences import Bits, Blocks, nth_connected, to_blocks
from .spectra import (_char_poly_from_parts, _energy_from_parts,
                      _nontrivial_parts, _roots_above)

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
    """One full scan of order n: the energy enclosure and class id of every
    connected sequence, in enumeration order, the classes of two or more
    members, the borderenergetic candidates and the scan's statistics.

    The enclosure of the sequence with index k is [lo[k], hi[k]] / 2^shift,
    and its class is class_ids[k], numbered in ascending energy.
    """

    n: int
    shift: int
    lo: list[int] = field(repr=False)
    hi: list[int] = field(repr=False)
    class_ids: array = field(repr=False)
    # the classes of two or more members, in ascending order
    multi_member: tuple[EnergyClass, ...]
    # sequences whose enclosure contains 2n - 2, except the complete graph
    # itself: containment is necessary, not sufficient, so candidates
    borderenergetic: tuple[Bits, ...]
    stats: dict

    @property
    def equienergetic(self) -> tuple[EnergyClass, ...]:
        """Classes containing at least two noncospectral members.

        Membership means energy-equal within the working precision; spectra
        are compared exactly.
        """
        return tuple(c for c in self.multi_member if len(c.char_polys) >= 2)

    def iter_records(self) -> Iterator[SequenceRecord]:
        """Every sequence's record in enumeration order, each rebuilt from
        its index as it is reached."""
        den = 1 << self.shift
        for idx, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            bits, poly = _member(self.n, idx)
            yield SequenceRecord(bits, poly, Fraction(lo, den),
                                 Fraction(hi, den))


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


Packed = tuple[int, list[int], list[int]]


def _float_energy(rest: Poly, counts: Blocks, width: Fraction
                  ) -> Optional[tuple[int, int, int]]:
    """The energy interval (lo, hi, den) that `_energy_from_parts` gives
    at precision B * width, B = len(counts), summed straight from the
    cells of `_float_cells`; None, for `_energy_from_parts` to take over,
    unless every check of the module docstring holds."""
    count = _roots_above(counts, 0, 1)
    if (2 * count != len(counts)
            or count % 2 != ((rest[0] > 0) != (rest[-1] > 0))):
        return None
    isolated = _float_cells(rest, count, width, count_is_known=True)
    if isolated is None or isolated[0]:
        return None
    cells = sorted(isolated[2])
    if (2 * len(cells) != len(counts)
            or any(a[1] >= b[0] for a, b in zip(cells, cells[1:]))
            or not all(v_lo > 0 > v_hi or v_lo < 0 < v_hi
                       for _, _, _, v_lo, v_hi in cells)):
        return None
    return _lowest_terms(2 * sum(cell[0] for cell in cells),
                         2 * sum(cell[1] for cell in cells), cells[0][2])


def _scan_range(args: tuple[int, int, int, Fraction]) -> Packed:
    """Energy enclosures of one contiguous slice of the enumeration
    (worker-safe): (shift, lo, hi), the endpoints' numerators over
    2^shift in enumeration order.  Every endpoint is dyadic; when one
    needs a finer denominator, the numerators so far are shifted up."""
    n, start, stop, precision = args
    # the root width of each block count B <= n, which is even
    widths = {b: precision / b for b in range(2, n + 1, 2)}
    shift, los, his = 0, [], []
    for idx in range(start, stop):
        blocks = to_blocks(nth_connected(n, idx))
        _, _, rest = _nontrivial_parts(blocks)
        lo, hi, den = (_float_energy(rest, blocks, widths[len(blocks)])
                       or _energy_from_parts(rest, blocks, precision))
        need = den.bit_length() - 1
        if need > shift:
            los = [v << (need - shift) for v in los]
            his = [v << (need - shift) for v in his]
            shift = need
        los.append(lo << (shift - need))
        his.append(hi << (shift - need))
    return shift, los, his


def _scan(n: int, precision: Fraction, processes: Optional[int],
          allow_large: bool) -> Packed:
    _check_order(n, allow_large)
    total = 1 << (n - 2)
    jobs = _resolve_jobs(processes)
    if jobs <= 1 or total < 64:
        return _scan_range((n, 0, total, precision))
    step = -(-total // jobs)
    chunks = [(n, k, min(k + step, total), precision)
              for k in range(0, total, step)]
    from multiprocessing import get_context
    # Pool.map returns the chunks' results in input order, so the
    # numerators stay in enumeration order.
    with get_context("fork").Pool(len(chunks)) as pool:
        parts = pool.map(_scan_range, chunks)
    shift = max(part[0] for part in parts)
    return (shift,
            [v << (shift - s) for s, los, _ in parts for v in los],
            [v << (shift - s) for s, _, his in parts for v in his])


def _group(lo: list[int], hi: list[int]) -> tuple[array, list[list[int]]]:
    """The energy classes as (class id of every index, the runs of two or
    more members as ascending index lists), numbered in ascending order.

    A class is a maximal run of the intervals sorted by lower endpoint in
    which each interval starts no later than the furthest upper endpoint
    before it.  Ties in the lower endpoint break by index, which is the
    order of the sequences, though the runs do not depend on it: an
    interval that starts where an earlier one starts always joins it.
    Each run starts above every upper endpoint of the runs before it, so
    the ids ascend with energy."""
    class_ids = array("L", [0]) * len(lo)
    multi: list[list[int]] = []
    run: list[int] = []
    reach = class_id = -1
    for idx in sorted(range(len(lo)), key=lo.__getitem__):
        if run and lo[idx] <= reach:
            run.append(idx)
            reach = max(reach, hi[idx])
        else:
            if len(run) > 1:
                multi.append(sorted(run))
            run, reach, class_id = [idx], hi[idx], class_id + 1
        class_ids[idx] = class_id
    if len(run) > 1:
        multi.append(sorted(run))
    return class_ids, multi


def _member(n: int, idx: int) -> tuple[Bits, Poly]:
    """The idx-th connected sequence of order n and its characteristic
    polynomial."""
    bits = nth_connected(n, idx)
    return bits, _char_poly_from_parts(*_nontrivial_parts(to_blocks(bits)))


def _energy_class(n: int, shift: int, lo: list[int], hi: list[int],
                  members: list[int]) -> EnergyClass:
    """The class of these ascending indices, its members rebuilt."""
    den = 1 << shift
    return EnergyClass(energy_lo=Fraction(min(lo[k] for k in members), den),
                       energy_hi=Fraction(max(hi[k] for k in members), den),
                       members=tuple(_member(n, k) for k in members))


def full_scan(n: int, precision: Rational, processes: Optional[int] = None,
              allow_large: bool = False) -> HuntResult:
    """Scan every connected sequence of order n: per-sequence enclosures,
    the complete energy partition and its statistics."""
    prec = Fraction(precision)
    if prec <= 0:
        raise ValueError(f"precision must be positive, got {precision}")
    started = time.perf_counter()
    shift, lo, hi = _scan(n, prec, processes, allow_large)
    class_ids, runs = _group(lo, hi)
    multi = tuple(_energy_class(n, shift, lo, hi, run) for run in runs)
    target = (2 * n - 2) << shift
    complete = len(lo) - 1
    border = tuple(nth_connected(n, idx)
                   for idx, (a, b) in enumerate(zip(lo, hi))
                   if a <= target <= b and idx != complete)
    stats: dict = {}
    result = HuntResult(n=n, shift=shift, lo=lo, hi=hi, class_ids=class_ids,
                        multi_member=multi, borderenergetic=border,
                        stats=stats)
    interesting = result.equienergetic
    exact_pairs = 0
    for cls in interesting:
        for a, (bits_a, poly_a) in enumerate(cls.members):
            for bits_b, poly_b in cls.members[a + 1:]:
                if poly_a != poly_b and exact_energy_equal(to_blocks(bits_a),
                                                           to_blocks(bits_b)):
                    exact_pairs += 1
    stats.update({
        "graphs": len(lo),
        # cospectral graphs share a class, so only shared classes repeat
        "distinct_char_polys": len(lo) - sum(
            len(cls.members) - len(cls.char_polys) for cls in multi),
        "classes_total": max(class_ids, default=-1) + 1,
        "equienergetic_classes": len(interesting),
        "noncospectral_pairs_exactly_equal": exact_pairs,
        "borderenergetic_candidates": len(border),
        "elapsed_seconds": round(time.perf_counter() - started, 3),
    })
    return result


__all__ = [
    "EnergyClass",
    "HuntResult",
    "SequenceRecord",
    "full_scan",
]
