from fractions import Fraction

import pytest

from threshold_spectra import hunt
from threshold_spectra.hunt import full_scan
from threshold_spectra.sequences import enumerate_connected, parse_sequence
from threshold_spectra.spectra import energy, is_cospectral

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


class TestWorkerPool:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class Context:
            def Pool(self, size):
                return _InProcessPool(sizes, size)

        monkeypatch.setattr(hunt, "get_context", lambda method: Context())
        return sizes

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
