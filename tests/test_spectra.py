import itertools
import math
import random
import time
from fractions import Fraction
from functools import partial

import pytest

from threshold_spectra import linalg, spectra
from threshold_spectra.intpoly import (
    add,
    divide_exact,
    evaluate,
    mul,
    mul_xk,
    poly_pow,
)
from threshold_spectra import roots
from threshold_spectra.roots import isolate_real_roots, sturm_chain
from threshold_spectra.sequences import (
    adjacency_matrix,
    enumerate_connected,
    nth_connected,
    parse_sequence,
    to_blocks,
)
from threshold_spectra.spectra import (
    char_poly,
    char_poly_of_sequence,
    energy,
    gamma,
    index_sequences,
    is_cospectral,
    multiplicity_minus_one,
    multiplicity_zero,
    q_polynomial,
    spectral_summary,
)

PRECISION = Fraction(1, 10 ** 10)


def complete_graph(n):
    return (0,) + (1,) * (n - 1)


class TestMultiplicities:
    def test_ten_vertex_example(self):
        blocks = to_blocks(parse_sequence("(0^2 1^3 0^3 1^2)"))
        assert multiplicity_zero(blocks) == 3
        assert multiplicity_minus_one(blocks) == 3

    def test_complete_graph(self):
        for n in (2, 5, 11):
            blocks = to_blocks(complete_graph(n))
            assert multiplicity_zero(blocks) == 0
            assert multiplicity_minus_one(blocks) == n - 1

    def test_four_block_member(self):
        blocks = to_blocks(parse_sequence("(0^3 1^6 0^3 1^2)"))
        assert multiplicity_zero(blocks) == 4

    def test_six_block_member(self):
        blocks = to_blocks(parse_sequence("(0^1 1^3 0^1 1^4 0^3 1^2)"))
        assert multiplicity_minus_one(blocks) == 7

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            multiplicity_zero((2,))
        with pytest.raises(ValueError):
            multiplicity_minus_one((1, 2, 1))

    def test_matches_counted_roots_small_corpus(self):
        for n in range(2, 9):
            for bits in enumerate_connected(n):
                blocks = to_blocks(bits)
                oracle = linalg.charpoly(adjacency_matrix(bits))
                m0 = 0
                reduced = oracle
                while (q := divide_exact(reduced, (0, 1))) is not None:
                    reduced = q
                    m0 += 1
                m1 = 0
                while (q := divide_exact(reduced, (1, 1))) is not None:
                    reduced = q
                    m1 += 1
                assert m0 == multiplicity_zero(blocks)
                assert m1 == multiplicity_minus_one(blocks)


class TestIndexSequences:
    def test_worked_set_odd(self):
        assert index_sequences(7, 4) == {
            (2, 3, 4, 5), (2, 3, 4, 7), (2, 3, 6, 7), (2, 5, 6, 7),
            (4, 5, 6, 7)}

    def test_worked_set_even(self):
        assert index_sequences(6, 4) == {
            (1, 2, 3, 4), (1, 2, 3, 6), (1, 2, 5, 6), (1, 4, 5, 6),
            (3, 4, 5, 6)}

    def test_length_zero(self):
        assert index_sequences(4, 0) == {()}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            index_sequences(4, -1)
        with pytest.raises(ValueError):
            index_sequences(4, 5)

    def test_matches_subset_filter(self):
        for b in range(1, 11):
            for length in range(0, b + 1):
                brute = set()
                for combo in itertools.combinations(range(1, b + 1), length):
                    if combo and combo[-1] % 2 != b % 2:
                        continue
                    if any((x + y) % 2 == 0 for x, y in zip(combo, combo[1:])):
                        continue
                    brute.add(combo)
                if length == 0:
                    brute = {()}
                assert index_sequences(b, length) == brute


class TestGamma:
    def test_symbolic_pairs(self):
        rng = random.Random(11)
        for _ in range(25):
            a1, a2, a3, a4 = (rng.randint(1, 9) for _ in range(4))
            blocks = (a1, a2, a3, a4)
            assert gamma(blocks, 2) == a1 * a2 + a1 * a4 + a3 * a4
            assert gamma(blocks, 1) == a2 + a4
            assert gamma(blocks, 3) == a2 * a3 * a4

    def test_concrete_triple(self):
        blocks = (2, 3, 3, 2)
        assert gamma(blocks, 3) == 18

    def test_length_zero_is_one(self):
        rng = random.Random(12)
        for _ in range(10):
            blocks = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 6)))
            assert gamma(blocks, 0) == 1

    def test_full_length_is_product(self):
        blocks = (2, 3, 5, 7)
        assert gamma(blocks, 4) == 2 * 3 * 5 * 7

    def test_nonnegative(self):
        rng = random.Random(13)
        for _ in range(20):
            blocks = tuple(rng.randint(1, 6) for _ in range(rng.randint(2, 8)))
            for length in range(len(blocks) + 1):
                assert gamma(blocks, length) >= 0

    @pytest.mark.parametrize("blocks", [(0, 2), (2, 0), (2, -1), ()])
    def test_malformed_forms_rejected(self, blocks):
        # a zero count once gave gamma((0, 2), 1) == 2
        with pytest.raises(ValueError):
            gamma(blocks, 1)

    def test_matches_enumeration(self):
        rng = random.Random(14)
        for b in range(1, 17):
            seqs = [index_sequences(b, length) for length in range(b + 1)]
            for _ in range(3):
                counts = tuple(rng.randint(1, 9) for _ in range(b))
                for length, group in enumerate(seqs):
                    expected = sum(math.prod(counts[i - 1] for i in seq)
                                   for seq in group)
                    assert gamma(counts, length) == expected, (counts, length)

    def test_unit_counts_sum_to_fibonacci(self):
        fib = [0, 1]
        while len(fib) < 43:
            fib.append(fib[-1] + fib[-2])
        for b in range(1, 41):
            blocks = (1,) * b
            assert sum(gamma(blocks, length)
                       for length in range(b + 1)) == fib[b + 2]


def corrected_four_block_expansion(a1, a2, a3, a4):
    """x^2 y^2 - (a2+a4) x^2 y - (a1a2+a1a4+a3a4) xy + (a2a3a4) x + a1a2a3a4,
    the sign pattern certified against the determinant route."""
    y = (1, 1)
    xy = (0, 1, 1)
    total = mul(xy, xy)
    total = add(total, mul_xk(tuple(-(a2 + a4) * c for c in y), 2))
    total = add(total, tuple(-(a1 * a2 + a1 * a4 + a3 * a4) * c for c in xy))
    total = add(total, (0, a2 * a3 * a4))
    total = add(total, (a1 * a2 * a3 * a4,))
    return total


class TestCompanionFactor:
    def test_four_block_symbolic_identity(self):
        rng = random.Random(314159)
        for _ in range(20):
            a1, a2, a3, a4 = (rng.randint(1, 6) for _ in range(4))
            blocks = (a1, a2, a3, a4)
            assert q_polynomial(blocks) == corrected_four_block_expansion(
                a1, a2, a3, a4)

    def test_complete_graph_factorization(self):
        for n in (2, 3, 7, 12):
            blocks = (1, n - 1)
            assert q_polynomial(blocks) == (-(n - 1), -(n - 2), 1)
            assert q_polynomial(blocks) == mul((-(n - 1), 1), (1, 1))

    def test_four_block_linear_factor(self):
        q = q_polynomial((3, 6, 3, 2))
        assert divide_exact(q, (3, 1)) is not None

    def test_monic_of_degree_b(self):
        rng = random.Random(21)
        for _ in range(40):
            count = rng.randint(1, 4) * 2
            blocks = tuple(rng.randint(1, 4) for _ in range(count))
            q = q_polynomial(blocks)
            assert len(q) == count + 1
            assert q[-1] == 1

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            q_polynomial((2,))

    def test_horner_matches_gamma_sum_formula(self):
        # Q_B = sum_k (-1)^(m-k) (xy)^k (gamma(B - 2k) + x gamma(B - 2k - 1))
        rng = random.Random(1515)
        for _ in range(60):
            b = rng.randint(1, 8) * 2
            blocks = tuple(rng.randint(1, 5) for _ in range(b))
            m = b // 2
            expected = ()
            for k in range(m + 1):
                linear = (gamma(blocks, b - 2 * k),
                          gamma(blocks, b - 2 * k - 1) if k < m else 0)
                term = mul(poly_pow((0, 1, 1), k), linear)
                if (m - k) % 2:
                    term = tuple(-c for c in term)
                expected = add(expected, term)
            assert spectra._q_from_counts(blocks) == expected


class TestCharPoly:
    def test_four_block_closed_product(self):
        blocks = to_blocks(parse_sequence("(0^3 1^6 0^3 1^2)"))
        expected = mul_xk(
            mul(mul(poly_pow((1, 1), 6), (3, 1)), (36, -10, -9, 1)), 4)
        assert char_poly(blocks) == expected

    def test_complete_graph(self):
        for n in (2, 4, 9):
            expected = mul((-(n - 1), 1), poly_pow((1, 1), n - 1))
            assert char_poly(to_blocks(complete_graph(n))) == expected

    def test_matches_determinant_route_corpus(self):
        for n in range(2, 10):
            for bits in enumerate_connected(n):
                formula = char_poly(to_blocks(bits))
                oracle = linalg.charpoly(adjacency_matrix(bits))
                assert formula == oracle, bits

    def test_many_blocks_match_determinant_route(self):
        rng = random.Random(30)
        counts = [rng.randint(1, 2) for _ in range(32)]
        for blocks in ((1,) * 40, tuple(counts)):
            bits = tuple(k % 2 for k, c in enumerate(blocks) for _ in range(c))
            assert char_poly(blocks) == linalg.charpoly(adjacency_matrix(bits))

    @pytest.mark.parametrize("text", ["(0^1 1^39)", "(0^20 1^20)",
                                      "(0^1 1^30)", "(0^3 1^1 0^2 1^1)"])
    def test_binomial_row_assembly_with_large_multiplicities(self, text):
        m0, m1, rest = spectra._nontrivial_parts(
            to_blocks(parse_sequence(text)))
        expected = mul_xk(mul(rest, poly_pow((1, 1), m1)), m0)
        assert spectra._char_poly_from_parts(m0, m1, rest) == expected
        assert spectra._char_poly_from_parts(0, 0, rest) == rest

    def test_binomial_row_assembly_on_seeded_factors(self):
        rng = random.Random(1001)
        rests = []
        for d in range(1, 31):
            coeffs = [rng.choice((0, rng.randint(-(1 << 60), 1 << 60)))
                      for _ in range(d)]
            rests.append(tuple(coeffs) + (rng.choice((-1, 1))
                                          * rng.randint(1, 1 << 60),))
        assert all(0 in rest[1:-1] for rest in rests[5:])
        for m1 in (0, 1, 2, 7, 64, 300, 1000):
            power = poly_pow((1, 1), m1)
            for rest in rests:
                expected = mul(rest, power)
                for m0 in (0, 5):
                    got = spectra._char_poly_from_parts(m0, m1, rest)
                    assert got == mul_xk(expected, m0), (m0, m1, rest)

    def test_single_extra_minus_one_iff_leading_singleton(self):
        for n in range(2, 9):
            for bits in enumerate_connected(n):
                blocks = to_blocks(bits)
                q = q_polynomial(blocks)
                assert q[0] != 0
                once = divide_exact(q, (1, 1))
                twice = divide_exact(once, (1, 1)) if once is not None else None
                if blocks[0] == 1:
                    assert once is not None and twice is None
                    s1 = sum(c - 1 for c in blocks[1::2])
                    assert multiplicity_minus_one(blocks) == s1 + 1
                else:
                    assert once is None

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            char_poly((1, 1, 2))

    def test_sequence_with_trailing_isolated_vertices(self):
        core = parse_sequence("011")
        padded = core + (0, 0)
        assert char_poly_of_sequence(padded) == mul_xk(
            char_poly_of_sequence(core), 2)

    def test_all_isolated(self):
        assert char_poly_of_sequence((0, 0, 0)) == (0, 0, 0, 1)

    def test_sequence_rejects_leading_one(self):
        with pytest.raises(ValueError, match="starts with 0"):
            char_poly_of_sequence((1, 1))


class TestCospectrality:
    def test_reflexive(self):
        bits = parse_sequence("(0^2 1^3 0^3 1^2)")
        assert is_cospectral(bits, bits)

    def test_family_members_differ(self):
        g = parse_sequence("(0^3 1^6 0^3 1^2)")
        gp = parse_sequence("(0^4 1^3 0^3 1^4)")
        assert not is_cospectral(g, gp)

    def test_path_vs_triangle(self):
        assert not is_cospectral(parse_sequence("001"), parse_sequence("011"))


class TestEnergy:
    def test_single_edge_exact(self):
        assert energy(parse_sequence("01"), PRECISION) == (2, 2)

    def test_complete_fourteen(self):
        lo, hi = energy(complete_graph(14), PRECISION)
        assert lo <= 26 <= hi
        assert hi - lo <= PRECISION

    def test_equienergetic_pair_overlap(self):
        tight = Fraction(1, 10 ** 12)
        e1 = energy(parse_sequence("(0^3 1^6 0^3 1^2)"), tight)
        e2 = energy(parse_sequence("(0^4 1^3 0^3 1^4)"), tight)
        assert e1[0] <= e2[1] and e2[0] <= e1[1]
        assert abs(e1[0] - e2[0]) < Fraction(1, 10 ** 9)

    def test_width_respected(self):
        rng = random.Random(55)
        for _ in range(15):
            n = rng.randint(2, 12)
            bits = nth_connected(n, rng.getrandbits(n - 2) if n > 2 else 0)
            lo, hi = energy(bits, PRECISION)
            assert 0 <= hi - lo <= PRECISION

    def test_isolated_vertices_do_not_change_energy(self):
        bits = parse_sequence("0111")
        lo, hi = energy(bits + (0, 0, 0), PRECISION)
        lo2, hi2 = energy(bits, PRECISION)
        assert (lo, hi) == (lo2, hi2)

    def test_empty_graph(self):
        assert energy((0, 0, 0), PRECISION) == (0, 0)

    def test_rejects_empty_and_bad_precision(self):
        with pytest.raises(ValueError):
            energy((), PRECISION)
        with pytest.raises(ValueError):
            energy((0, 1), Fraction(0))

    @pytest.mark.parametrize("bits", [(1, 1), (1, 0, 1)])
    def test_rejects_leading_one(self, bits):
        # bad input, not an internal fault: ValueError, never ArithmeticError
        with pytest.raises(ValueError):
            energy(bits, PRECISION)

    def test_rejects_bits_other_than_zero_and_one(self):
        with pytest.raises(ValueError, match="bits 0 or 1"):
            energy((0, 2, 1), Fraction(1, 1000))


def padded_route_energy(m1, rest, precision):
    """Energy as the sum of |lambda| over every root of x(x+1)*rest, each
    enclosed to width precision / deg(rest), plus the m1 eigenvalues -1:
    the route that isolates the negative roots too."""
    lo = hi = Fraction(m1)
    width = precision / (len(rest) - 1)
    for enc in isolate_real_roots(mul(rest, (0, 1, 1)), width):
        if enc.is_point and enc.lo in (0, -1):
            continue
        assert enc.lo >= 0 or enc.hi <= 0
        low, high = (enc.lo, enc.hi) if enc.lo >= 0 else (-enc.hi, -enc.lo)
        lo += enc.multiplicity * low
        hi += enc.multiplicity * high
    return lo, hi


class TestPositiveEigenvalues:
    def test_every_order_up_to_twelve(self):
        # all 2047 connected threshold graphs with n <= 12
        for n in range(2, 13):
            for bits in enumerate_connected(n):
                blocks = to_blocks(bits)
                b = len(blocks)
                _, m1, rest = spectra._nontrivial_parts(blocks)
                positive = isolate_real_roots(
                    rest, PRECISION / b,
                    above=partial(spectra._roots_above, blocks))
                assert sum(e.multiplicity for e in positive) == b // 2
                assert all(e.hi > 0 for e in positive)
                lo, hi = energy(bits, PRECISION)
                assert 0 <= hi - lo <= PRECISION
                old_lo, old_hi = padded_route_energy(m1, rest, PRECISION)
                assert lo <= old_hi and old_lo <= hi

    def test_wrong_root_count_fails_inertia_check(self, monkeypatch):
        counts = to_blocks(parse_sequence("(0^2 1^3 0^3 1^2)"))
        _, _, rest = spectra._nontrivial_parts(counts)
        lo, hi, den = spectra._energy_from_parts(rest, counts, PRECISION)
        assert Fraction(hi - lo, den) <= PRECISION
        real = spectra._roots_above
        # a count that sees no positive root: nothing is isolated, and
        # the inertia check notices the b/2 missing roots
        monkeypatch.setattr(spectra, "_roots_above",
                            lambda c, num, den: 0)
        with pytest.raises(ArithmeticError, match="inertia"):
            spectra._energy_from_parts(rest, counts, PRECISION)
        # one root too many: a piece next to 0 counts a root it lacks
        monkeypatch.setattr(spectra, "_roots_above",
                            lambda c, num, den: real(c, num, den)
                            + (num == 0))
        with pytest.raises(ArithmeticError, match="sign change"):
            spectra._energy_from_parts(rest, counts, PRECISION)


def fraction_energy(rest, counts, precision):
    """Energy interval as the Fraction sum of the enclosures that
    `_energy_from_parts` sums: the reference for its integer sum."""
    encs = isolate_real_roots(rest, precision / len(counts),
                              above=partial(spectra._roots_above, counts))
    for enc in encs:
        # the integer sum scales every endpoint to one denominator
        assert enc.den & (enc.den - 1) == 0, enc
    lo = sum((e.multiplicity * e.lo for e in encs), Fraction(0))
    hi = sum((e.multiplicity * e.hi for e in encs), Fraction(0))
    return 2 * lo, 2 * hi


def energy_fractions(got):
    """The interval that `_energy_from_parts` returns as integers (lo, hi,
    den), den the least power of two over which both are integers, as
    Fractions."""
    lo, hi, den = got
    assert type(lo) is type(hi) is type(den) is int
    assert 0 < den and den & (den - 1) == 0 and lo <= hi
    assert den == 1 or (lo | hi) & 1
    return Fraction(lo, den), Fraction(hi, den)


class TestDyadicEnergySum:
    @pytest.mark.parametrize("precision", [Fraction(1, 10 ** 12),
                                           Fraction(1, 10 ** 60)])
    def test_every_order_up_to_ten(self, precision):
        for n in range(2, 11):
            for bits in enumerate_connected(n):
                counts = to_blocks(bits)
                _, _, rest = spectra._nontrivial_parts(counts)
                got = spectra._energy_from_parts(rest, counts, precision)
                assert (energy_fractions(got)
                        == fraction_energy(rest, counts, precision)), bits

    @pytest.mark.parametrize("precision", [Fraction(1, 10 ** 10),
                                           Fraction(1, 10 ** 60)])
    def test_many_block_forms(self, precision):
        rng = random.Random(2440)
        for b in (24, 28, 32, 40):
            counts = tuple(rng.randint(1, 3) for _ in range(b))
            _, _, rest = spectra._nontrivial_parts(counts)
            got = spectra._energy_from_parts(rest, counts, precision)
            assert energy_fractions(got) == fraction_energy(rest, counts,
                                                            precision)


def sturm_above(rest):
    """Roots of a square-free `rest` above num/den, by Sturm's theorem: the
    reference for `_roots_above`.  Each sign is that of den^deg(g)
    g(num/den), by Horner on the integers num and den, so den need not be
    the power of two that `roots.value_at` takes."""
    chain = sturm_chain(rest)

    def variations(num, den):
        signs = []
        for g in chain:
            v, scale = g[-1], 1
            for c in reversed(g[:-1]):
                scale *= den
                v = v * num + c * scale
            if v:
                signs.append(v > 0)
        return sum(a != b for a, b in zip(signs, signs[1:]))

    top = variations(roots._pow2_fujiwara_bound(rest), 1)
    return lambda num, den: variations(num, den) - top


class TestRootsAbove:
    def test_sturm_counts_on_every_order_up_to_twelve(self):
        # the integers 1..2n-1 include eigenvalues of most of these graphs
        # and of their leading subgraphs, where the count must be strict
        # and runs through the epsilon terms
        rng = random.Random(1013)
        for n in range(2, 13):
            for bits in enumerate_connected(n):
                counts = to_blocks(bits)
                _, _, rest = spectra._nontrivial_parts(counts)
                reference = sturm_above(rest)
                assert spectra._roots_above(counts, 0, 1) == len(counts) // 2
                points = [(a, 1) for a in range(1, 2 * n)]
                for _ in range(4):
                    den = 1 << rng.randint(1, 16)
                    points.append((rng.randint(1, 2 * n * den), den))
                # off the dyadic grid, which isolation never visits, so
                # the den^2 scaling of the 0-block step is checked here
                for den in (3, 5, 6):
                    points.append((rng.randint(1, 2 * n * den), den))
                for num, den in points:
                    assert (spectra._roots_above(counts, num, den)
                            == reference(num, den)), (bits, num, den)

    def test_strict_at_integer_eigenvalues(self):
        # K_4 has spectrum 3, -1, -1, -1; the star K_{1,4} has 2, -2 and
        # four zeros
        for sequence, values in (("0111", {3: 0, 2: 1}),
                                 ("00001", {2: 0, 1: 1})):
            counts = to_blocks(parse_sequence(sequence))
            for a, want in values.items():
                assert spectra._roots_above(counts, a, 1) == want
                assert spectra._roots_above(counts, 2 * a, 2) == want

    def test_pivot_sign_undecided_raises(self):
        # (0, 1) is no graph: its empty leading 0-block makes X = a and
        # Y = a (1 + a), so at a = 0 (also as 0/2) cX - Y = -epsilon^2
        # is 0 to first order
        for num, den in ((0, 1), (0, 2)):
            with pytest.raises(ArithmeticError, match="epsilon"):
                spectra._roots_above((0, 1), num, den)

    def test_stuck_count_raises_quickly(self, monkeypatch):
        # a count stuck at 2 around one point never isolates; the
        # separation guard turns it into an error instead of a hang
        monkeypatch.setattr(spectra, "_roots_above",
                            lambda counts, num, den: 2 if 3 * num < den
                            else 0)
        started = time.perf_counter()
        with pytest.raises(ArithmeticError, match="separation bound"):
            energy(parse_sequence("01" * 12), PRECISION)
        assert time.perf_counter() - started < 5


class TestSpectralSummary:
    def test_ten_vertex_example(self):
        summary = spectral_summary(parse_sequence("(0^2 1^3 0^3 1^2)"),
                                   PRECISION)
        assert summary.n == 10
        assert summary.m0 == 3
        assert summary.m_minus1 == 3
        assert len(summary.nontrivial_factor) - 1 == 4

    def test_internal_consistency_random(self):
        rng = random.Random(808)
        for _ in range(20):
            n = rng.randint(2, 12)
            bits = nth_connected(n, rng.getrandbits(n - 2) if n > 2 else 0)
            s = spectral_summary(bits, PRECISION)
            assert s.m0 + s.m_minus1 + (len(s.nontrivial_factor) - 1) == n
            assert s.nontrivial_factor[0] != 0
            assert evaluate(s.nontrivial_factor, -1) != 0
            assert s.char_poly == linalg.charpoly(adjacency_matrix(bits))
            assert sum(r.multiplicity for r in s.roots) == n
            assert s.energy_hi - s.energy_lo <= PRECISION
            assert all(a.hi <= b.lo for a, b in zip(s.roots, s.roots[1:]))

    @pytest.mark.parametrize("precision", [Fraction(1), Fraction(1, 2),
                                           Fraction(1, 10 ** 12)])
    def test_root_list_small_orders(self, precision):
        # sorted, pairwise strictly disjoint, 0 and -1 as points carrying
        # m0 and m1 exactly when these are nonzero, n roots in all
        for n in range(2, 10):
            for bits in enumerate_connected(n):
                s = spectral_summary(bits, precision)
                rs = s.roots
                assert all(a.hi < b.lo for a, b in zip(rs, rs[1:])), bits
                special = {r.lo: r.multiplicity for r in rs
                           if r.is_point and r.lo in (0, -1)}
                want = {x: m for x, m in ((0, s.m0), (-1, s.m_minus1)) if m}
                assert special == want, bits
                assert not any(r.lo <= x <= r.hi for r in rs
                               if not r.is_point for x in (0, -1)), bits
                assert sum(r.multiplicity for r in rs) == n, bits

    def test_energy_upper_bound_below_complete(self):
        s = spectral_summary(parse_sequence("(0^3 1^6 0^3 1^2)"), PRECISION)
        assert s.energy_hi < 24

    def test_complete_graph_energy_exact(self):
        s = spectral_summary(complete_graph(9), PRECISION)
        assert s.energy_lo <= 16 <= s.energy_hi

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            spectral_summary((0, 1, 0), PRECISION)

    def test_rejects_leading_one(self):
        with pytest.raises(ValueError):
            spectral_summary((1, 0, 1), PRECISION)

    def test_record_shape(self):
        rec = spectral_summary(parse_sequence("011"), PRECISION).to_record()
        assert rec["sequence"] == "(0^1 1^2)"
        assert rec["char_poly"] == [-2, -3, 0, 1]
        # spectrum {2, -1, -1}: the integer root is hit exactly
        assert rec["energy"]["lo"] == "4.000000000000000"
        assert rec["energy"]["hi"] == "4.000000000000000"
        assert rec["roots"][0] == {"lo": "-1/1", "hi": "-1/1", "multiplicity": 2}


class TestFloatCrossCheck:
    def test_against_floating_eigenvalues(self):
        # redundant sanity check only; the exact pipeline is authoritative
        numpy = pytest.importorskip("numpy")
        rng = random.Random(404)
        for _ in range(15):
            n = rng.randint(2, 13)
            bits = nth_connected(n, rng.getrandbits(n - 2) if n > 2 else 0)
            lo, hi = energy(bits, PRECISION)
            mat = numpy.array(adjacency_matrix(bits), dtype=float)
            float_energy = float(numpy.abs(numpy.linalg.eigvalsh(mat)).sum())
            assert abs(float_energy - float((lo + hi) / 2)) < 1e-6
