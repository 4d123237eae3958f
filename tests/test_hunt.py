import functools
import gc
import tracemalloc
from fractions import Fraction

import pytest

from threshold_spectra import hunt
from threshold_spectra.hunt import EnergyClass, SequenceRecord, full_scan
from threshold_spectra.sequences import enumerate_connected, parse_sequence
from threshold_spectra.spectra import (char_poly_of_sequence, energy,
                                       is_cospectral)

PRECISION = Fraction(1, 10 ** 10)
TIGHT = Fraction(1, 10 ** 12)


class TestClassify:
    def test_order_three_two_singletons(self):
        classes = full_scan(3, PRECISION).classes
        assert len(classes) == 2
        assert all(len(c.members) == 1 for c in classes)

    def test_partition_covers_everything(self):
        classes = full_scan(8, PRECISION).classes
        members = [bits for cls in classes for bits, _ in cls.members]
        assert len(members) == 64
        assert set(members) == set(enumerate_connected(8))
        for cls in classes:
            assert list(cls.members) == sorted(cls.members)

    def test_tightening_never_merges(self):
        coarse = full_scan(10, Fraction(1, 10 ** 6)).classes
        fine = full_scan(10, TIGHT).classes
        coarse_of = {}
        for k, cls in enumerate(coarse):
            for bits, _ in cls.members:
                coarse_of[bits] = k
        for cls in fine:
            homes = {coarse_of[bits] for bits, _ in cls.members}
            assert len(homes) == 1

    def test_order_guard(self):
        with pytest.raises(ValueError):
            full_scan(25, PRECISION)
        with pytest.raises(ValueError):
            full_scan(1, PRECISION)


def fraction_group(records):
    """Energy classes keyed on the Fraction endpoints themselves: the
    reference for the integer keys of `hunt._group`."""
    runs = []
    for rec in sorted(records, key=lambda r: (r.energy_lo, r.energy_hi,
                                              r.bits)):
        if runs and rec.energy_lo <= reach:
            runs[-1].append(rec)
            reach = max(reach, rec.energy_hi)
        else:
            runs.append([rec])
            reach = rec.energy_hi
    return tuple(
        EnergyClass(energy_lo=run[0].energy_lo,
                    energy_hi=max(rec.energy_hi for rec in run),
                    members=tuple(sorted((rec.bits, rec.char_poly)
                                         for rec in run)))
        for run in runs)


def record(bits, lo, hi):
    return SequenceRecord(tuple(int(c) for c in bits), (len(bits),),
                          Fraction(lo), Fraction(hi))


def key_form(records):
    """(shift, lo, hi): the records' endpoints as numerators over one
    power-of-two denominator, the key form `hunt._group` takes."""
    shift = max((end.denominator.bit_length() - 1 for rec in records
                 for end in (rec.energy_lo, rec.energy_hi)), default=0)
    lo = [rec.energy_lo * 2 ** shift for rec in records]
    hi = [rec.energy_hi * 2 ** shift for rec in records]
    assert all(v.denominator == 1 for v in lo + hi)
    return shift, [int(v) for v in lo], [int(v) for v in hi]


def key_group(records):
    """The classes `hunt._group` finds on the key form of these records,
    rebuilt as `EnergyClass`es of the records' own bits and polynomials;
    checks its list of runs of two or more members on the way."""
    shift, lo, hi = key_form(records)
    class_ids, multi = hunt._group(lo, hi)
    assert len(class_ids) == len(records)
    runs = [[] for _ in range(max(class_ids, default=-1) + 1)]
    for idx, class_id in enumerate(class_ids):
        runs[class_id].append(idx)
    assert all(runs)
    assert multi == [run for run in runs if len(run) > 1]
    den = 2 ** shift
    return tuple(
        EnergyClass(energy_lo=Fraction(min(lo[k] for k in run), den),
                    energy_hi=Fraction(max(hi[k] for k in run), den),
                    members=tuple(sorted((records[k].bits,
                                          records[k].char_poly)
                                         for k in run)))
        for run in runs)


class TestGroupKeys:
    def test_empty(self):
        assert key_group(()) == () == fraction_group(())

    def test_hand_built_records(self):
        tiny = Fraction(1, 2 ** 40)
        records = (
            # touching: lo == reach joins the class
            record("0101", 2, 3), record("0111", 3, Fraction(25, 8)),
            # just past the reach: a class of its own
            record("0011", Fraction(25, 8) + tiny, Fraction(27, 8)),
            # equal lo, ordered by hi and then by bits
            record("00111", 5, 6), record("00011", 5, Fraction(41, 8)),
            record("01011", 5, Fraction(41, 8)),
            # the zero-width exact energy of K_6, and one touching it
            record("011111", 10, 10), record("01001", 10, Fraction(81, 8)),
            # a wide interval holds the reach past a narrow one inside it
            record("001011", 20, 30), record("010011", 21, 22),
            record("000111", 25, 26),
        )
        expected = fraction_group(records)
        assert [len(cls.members) for cls in expected] == [2, 1, 3, 2, 3]
        for order in (records, records[::-1], records[3:] + records[:3]):
            assert key_group(order) == expected

    def test_matches_reference_on_scans(self):
        for n in range(2, 12):
            result = full_scan(n, PRECISION)
            records = result.records
            assert key_group(records) == fraction_group(records)
            assert result.classes == fraction_group(records)
            for cls in result.classes:
                assert type(cls.energy_lo) is type(cls.energy_hi) is Fraction


class TestEquienergeticSearch:
    def test_order_two_empty(self):
        result = full_scan(2, PRECISION)
        assert result.equienergetic == ()

    def test_reported_pairs_are_noncospectral(self):
        result = full_scan(10, PRECISION)
        for cls in result.equienergetic:
            polys = {p for _, p in cls.members}
            assert len(polys) >= 2
            seqs = [bits for bits, _ in cls.members]
            assert any(not is_cospectral(a, b)
                       for i, a in enumerate(seqs) for b in seqs[i + 1:])

    def test_order_nine_matches_pairwise_bruteforce(self):
        result = full_scan(9, TIGHT)
        intervals = {bits: energy(bits, TIGHT)
                     for bits in enumerate_connected(9)}
        brute_pairs = set()
        seqs = sorted(intervals)
        for i, a in enumerate(seqs):
            for b in seqs[i + 1:]:
                ea, eb = intervals[a], intervals[b]
                if ea[0] <= eb[1] and eb[0] <= ea[1] and not is_cospectral(a, b):
                    brute_pairs.add((a, b))
        class_of = {}
        for k, cls in enumerate(result.equienergetic):
            for bits, _ in cls.members:
                class_of[bits] = k
        for a, b in brute_pairs:
            assert class_of.get(a) is not None
            assert class_of.get(a) == class_of.get(b)
        reported = set()
        for cls in result.equienergetic:
            seqs = [bits for bits, _ in cls.members]
            for i, a in enumerate(seqs):
                for b in seqs[i + 1:]:
                    if not is_cospectral(a, b):
                        reported.add((a, b))
        assert brute_pairs <= reported

    def test_stats_shape(self):
        result = full_scan(8, PRECISION)
        assert result.stats["graphs"] == 64
        assert result.stats["classes_total"] >= 1
        assert "elapsed_seconds" in result.stats


class TestBorderenergetic:
    def test_order_three_empty(self):
        assert full_scan(3, PRECISION).borderenergetic == ()

    def test_complete_graph_always_excluded(self):
        for n in range(4, 9):
            hits = full_scan(n, PRECISION).borderenergetic
            assert (0,) + (1,) * (n - 1) not in hits

    def test_order_nine_candidates(self):
        hits = full_scan(9, TIGHT).borderenergetic
        expected = {
            parse_sequence("(0^1 1^1 0^1 1^6)"),
            parse_sequence("(0^1 1^4 0^1 1^3)"),
        }
        assert set(hits) == expected

    def test_consistent_across_precisions(self):
        assert set(full_scan(9, PRECISION).borderenergetic) == set(
            full_scan(9, TIGHT).borderenergetic)


class TestParallel:
    def test_parallel_matches_sequential(self):
        sequential = full_scan(9, PRECISION, processes=1)
        parallel = full_scan(9, PRECISION, processes=2)
        assert sequential.records == parallel.records
        assert sequential.classes == parallel.classes
        assert sequential.equienergetic == parallel.equienergetic
        assert sequential.borderenergetic == parallel.borderenergetic


class _InProcessPool:
    """Stands in for a worker pool: records its size, maps in-process."""

    def __init__(self, sizes, size):
        sizes.append(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        return [fn(chunk) for chunk in chunks]


@pytest.fixture
def pool_sizes(monkeypatch):
    """Worker pools run in-process; the list collects their sizes."""
    sizes = []

    class Context:
        def Pool(self, size):
            return _InProcessPool(sizes, size)

    monkeypatch.setattr(hunt, "get_context", lambda method: Context())
    return sizes


class TestWorkerPool:
    def test_pool_capped_at_cpu_count(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(hunt.os, "cpu_count", lambda: 4)
        result = full_scan(10, PRECISION, processes=100000)
        assert pool_sizes == [4]
        assert result.records == full_scan(10, PRECISION, processes=1).records

    @pytest.mark.parametrize("processes", [0, -3])
    def test_fewer_than_one_process_rejected(self, pool_sizes, processes):
        with pytest.raises(ValueError, match="at least one process"):
            full_scan(8, PRECISION, processes=processes)
        assert pool_sizes == []

    def test_none_means_one_process(self, pool_sizes):
        result = full_scan(8, PRECISION, processes=None)
        assert pool_sizes == []
        assert result.records == full_scan(8, PRECISION, processes=1).records

    def test_pool_capped_at_chunk_count(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(hunt.os, "cpu_count", lambda: 1000)
        result = full_scan(8, PRECISION, processes=100000)
        assert pool_sizes == [64]
        assert result.records == full_scan(8, PRECISION, processes=1).records


COARSE = Fraction(1, 100)


@functools.cache
def reference(n, precision):
    """Every record, from `spectra` graph by graph, and the partition of
    `fraction_group` on them."""
    records = tuple(
        SequenceRecord(bits, char_poly_of_sequence(bits),
                       *energy(bits, precision))
        for bits in enumerate_connected(n))
    return records, fraction_group(records)


def without_timing(stats):
    return {k: v for k, v in stats.items() if k != "elapsed_seconds"}


class TestAgainstReference:
    """The integer keys and the members rebuilt from their index give what
    the records built graph by graph give, at the default precision and at
    a coarse one, where most graphs share a class."""

    @pytest.mark.parametrize("precision", [PRECISION, COARSE])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_spectra(self, pool_sizes, monkeypatch, n, precision):
        records, classes = reference(n, precision)
        result = full_scan(n, precision)
        assert result.records == records
        assert result.classes == classes
        assert result.multi_member == tuple(
            cls for cls in classes if len(cls.members) > 1)
        assert result.equienergetic == tuple(
            cls for cls in classes if len(cls.char_polys) > 1)
        target = 2 * n - 2
        complete = (0,) + (1,) * (n - 1)
        assert result.borderenergetic == tuple(
            rec.bits for rec in records
            if rec.energy_lo <= target <= rec.energy_hi
            and rec.bits != complete)
        stats = result.stats
        assert stats["graphs"] == len(records)
        assert stats["distinct_char_polys"] == len(
            {rec.char_poly for rec in records})
        assert stats["classes_total"] == len(classes)
        assert stats["equienergetic_classes"] == len(result.equienergetic)
        assert stats["borderenergetic_candidates"] == len(
            result.borderenergetic)
        class_of = {bits: k for k, cls in enumerate(classes)
                    for bits, _ in cls.members}
        assert list(result.class_ids) == [class_of[rec.bits]
                                          for rec in records]
        # two workers, in-process: chunks merged on a common denominator
        monkeypatch.setattr(hunt.os, "cpu_count", lambda: 2)
        two = full_scan(n, precision, processes=2)
        assert pool_sizes == ([] if n < 8 else [2])
        for name in ("shift", "lo", "hi", "class_ids", "multi_member",
                     "borderenergetic"):
            assert getattr(two, name) == getattr(result, name)
        assert without_timing(two.stats) == without_timing(stats)

    def test_distinct_polys_subtract_repeats_within_classes(self,
                                                           monkeypatch):
        # No two threshold graphs of order <= 15 share a polynomial, so
        # stand in a coarse one, the multiplicity of -1, under one class
        monkeypatch.setattr(hunt, "_char_poly_from_parts",
                            lambda m0, m1, rest: (m1,))
        result = full_scan(6, 1000)
        assert result.stats["classes_total"] == 1
        polys = {rec.char_poly for rec in result.records}
        assert 1 < len(polys) < 16
        assert result.stats["distinct_char_polys"] == len(polys)

    def test_coarse_classes_are_large(self):
        # the coarse case rebuilds most members: 823 of the 1,024 graphs
        # of order 12 share a class at 1e-2
        _, classes = reference(12, COARSE)
        assert sum(len(cls.members) for cls in classes
                   if len(cls.members) > 1) == 823


def held_bytes_per_graph(n):
    """Bytes still allocated after `full_scan(n)`, while its result is
    alive, over the number of graphs, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = full_scan(n, PRECISION)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / result.stats["graphs"]


class TestMemory:
    @pytest.mark.parametrize("n", [12, 13])
    def test_result_holds_few_bytes_per_graph(self, n):
        # two numerators, two list slots and a class id a graph: about
        # 90 bytes; a record with its polynomial and Fractions held ~1 KB
        assert held_bytes_per_graph(n) <= 200
