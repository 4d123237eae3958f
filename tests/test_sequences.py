import random
import sys

import pytest

from threshold_spectra import sequences
from threshold_spectra.sequences import (
    adjacency_matrix,
    edge_count,
    enumerate_connected,
    format_blocks,
    format_sequence,
    from_blocks,
    nth_connected,
    parse_sequence,
    to_blocks,
)


def random_bits(rng, n):
    return (0,) + tuple(rng.randint(0, 1) for _ in range(n - 1))


class TestParse:
    def test_block_expression(self):
        assert parse_sequence("(0^2 1^3 0^3 1^2)") == tuple(map(int, "0011100011"))

    def test_raw_word(self):
        assert parse_sequence("0011100011") == tuple(map(int, "0011100011"))

    def test_single_edge(self):
        assert parse_sequence("01") == (0, 1)

    def test_juxtaposed_exponent(self):
        assert parse_sequence("01^3") == (0, 1, 1, 1)

    def test_no_parentheses(self):
        assert parse_sequence("0^2 1^3") == (0, 0, 1, 1, 1)

    def test_first_digit_must_be_zero(self):
        with pytest.raises(ValueError):
            parse_sequence("1^3")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_sequence("")
        with pytest.raises(ValueError):
            parse_sequence("()")

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            parse_sequence("0^0")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            parse_sequence("0^-1")

    def test_bad_character(self):
        with pytest.raises(ValueError):
            parse_sequence("02")

    def test_dangling_caret(self):
        with pytest.raises(ValueError):
            parse_sequence("0^")

    def test_runs_of_one_symbol_merge(self):
        assert parse_sequence("0^2 0 1^3 1") == (0, 0, 0, 1, 1, 1, 1)
        assert parse_sequence("(0^1)(0^1)(1^2) 1") == (0, 0, 1, 1, 1)

    def test_count_past_memory(self):
        # a count above sys.maxsize // 8 is refused where it is read, so
        # before a bad character after it; a smaller one that memory
        # cannot hold is refused once the whole text is read
        big = sys.maxsize // 8
        with pytest.raises(ValueError,
                           match=f"block count {big + 1} is too large"):
            parse_sequence(f"0^{big + 1} x")
        with pytest.raises(ValueError, match="invalid character 'x'"):
            parse_sequence(f"0^{big} x")
        with pytest.raises(ValueError, match=f"sequence of {big + 1} "
                                             "vertices is too long"):
            parse_sequence(f"0^{big} 1")
        with pytest.raises(ValueError, match=f"sequence of {2 * big + 1} "
                                             "vertices is too long"):
            parse_sequence(f"0^{big} 0^{big} 1")

    def test_no_memory_for_the_sequence(self, monkeypatch):
        # every block expanded, but the tuple of all the bits is refused
        def no_memory(bits):
            raise MemoryError

        monkeypatch.setattr(sequences, "tuple", no_memory, raising=False)
        with pytest.raises(ValueError,
                           match="sequence of 5 vertices is too long"):
            parse_sequence("0^2 1^3")


class TestBlocks:
    def test_to_blocks_example(self):
        assert to_blocks(tuple(map(int, "0011100011"))) == (2, 3, 3, 2)

    def test_single_vertex(self):
        assert to_blocks((0,)) == (1,)

    def test_from_blocks_length(self):
        bits = from_blocks((3, 6, 3, 2))
        assert len(bits) == 14

    def test_complete_graph_blocks(self):
        for k in (1, 4, 9):
            assert from_blocks((1, k)) == (0,) + (1,) * k

    def test_first_block_must_be_zero(self):
        # a block form starts with a 0-block by position; the bits that
        # would start with a 1-block are rejected when they are encoded
        for bits in ((1,), (1, 0), (1, 1, 0, 1)):
            with pytest.raises(ValueError, match="starts with 0"):
                to_blocks(bits)

    def test_nonpositive_count(self):
        for blocks in ((0, 1), (1, 0), (2, -1), ()):
            with pytest.raises(ValueError):
                from_blocks(blocks)

    def test_non_alternating(self):
        # block symbols alternate by position; a bit that is neither 0
        # nor 1 has no block to go in
        for bits in ((0, 2, 1), (0, 1, -1), (0, 0, 3), (2,)):
            with pytest.raises(ValueError, match="bits 0 or 1"):
                to_blocks(bits)

    def test_roundtrip_both_ways(self):
        rng = random.Random(5150)
        for _ in range(200):
            bits = random_bits(rng, rng.randint(1, 24))
            blocks = to_blocks(bits)
            assert from_blocks(blocks) == bits
            assert to_blocks(from_blocks(blocks)) == blocks

    def test_format(self):
        assert format_blocks((2, 3, 3, 2)) == "(0^2 1^3 0^3 1^2)"
        assert format_blocks((1,)) == "(0^1)"
        assert format_sequence((0, 1)) == "(0^1 1^1)"


class TestAdjacency:
    def test_dominating_positions(self):
        bits = parse_sequence("(0^2 1^3 0^3 1^2)")
        mat = adjacency_matrix(bits)
        dominating = {2, 3, 4, 8, 9}  # 0-based positions of the 1 bits
        for i in range(10):
            for j in range(i + 1, 10):
                assert mat[i][j] == (1 if j in dominating else 0)

    def test_all_isolated(self):
        mat = adjacency_matrix((0, 0, 0, 0))
        assert all(v == 0 for row in mat for v in row)

    def test_complete_graph(self):
        n = 6
        mat = adjacency_matrix((0,) + (1,) * (n - 1))
        for i in range(n):
            for j in range(n):
                assert mat[i][j] == (0 if i == j else 1)

    def test_symmetric_zero_diagonal(self):
        rng = random.Random(99)
        for _ in range(50):
            bits = random_bits(rng, rng.randint(1, 16))
            mat = adjacency_matrix(bits)
            n = len(bits)
            assert all(mat[i][i] == 0 for i in range(n))
            assert all(mat[i][j] == mat[j][i]
                       for i in range(n) for j in range(n))

    def test_threshold_elimination(self):
        # repeatedly deleting a vertex of degree 0 or current-order-1
        # must empty the graph
        rng = random.Random(123)
        for _ in range(40):
            bits = random_bits(rng, rng.randint(1, 14))
            mat = [row[:] for row in adjacency_matrix(bits)]
            alive = set(range(len(bits)))
            while alive:
                degs = {v: sum(mat[v][u] for u in alive) for v in alive}
                victims = [v for v in alive
                           if degs[v] in (0, len(alive) - 1)]
                assert victims, f"stuck on {bits}"
                alive.remove(victims[0])


class TestEdgeCount:
    def test_example(self):
        assert edge_count(parse_sequence("(0^2 1^3 0^3 1^2)")) == 26

    def test_empty_graph(self):
        assert edge_count((0,) * 7) == 0

    def test_complete_graph(self):
        for n in (2, 5, 9):
            assert edge_count((0,) + (1,) * (n - 1)) == n * (n - 1) // 2

    def test_matches_matrix(self):
        rng = random.Random(314)
        for _ in range(60):
            bits = random_bits(rng, rng.randint(1, 15))
            mat = adjacency_matrix(bits)
            assert edge_count(bits) == sum(sum(row) for row in mat) // 2


class TestEnumerate:
    def test_order_two(self):
        assert list(enumerate_connected(2)) == [(0, 1)]

    def test_order_three(self):
        assert list(enumerate_connected(3)) == [(0, 0, 1), (0, 1, 1)]

    def test_counts_distinct_connected(self):
        for n in range(2, 10):
            seqs = list(enumerate_connected(n))
            assert len(seqs) == 2 ** (n - 2)
            assert len(set(seqs)) == len(seqs)
            assert all(s[0] == 0 and s[-1] == 1 for s in seqs)

    def test_lexicographic(self):
        # the hunt breaks ties between equal energies by index, as bits
        for n in range(2, 13):
            seqs = list(enumerate_connected(n))
            assert seqs == sorted(seqs)

    def test_order_fourteen_contains_six_one_family_member(self):
        member = from_blocks((3, 6, 3, 2))
        assert len(member) == 14
        assert any(s == member for s in enumerate_connected(14))

    def test_small_order_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_connected(1))

    def test_nth_matches_stream(self):
        for n in (2, 5, 8):
            for idx, bits in enumerate(enumerate_connected(n)):
                assert nth_connected(n, idx) == bits
        with pytest.raises(ValueError):
            nth_connected(5, 8)
