import itertools
from fractions import Fraction

import pytest

from threshold_spectra import families
from threshold_spectra.families import (
    FamilyId,
    _strip_integer_roots,
    closed_form_char_poly,
    cubic_root_localization,
    exact_energy_equal,
    family_pair,
    shared_cubic,
    shared_quartic,
    verify_family,
)
from threshold_spectra.intpoly import (
    degree,
    divide_exact,
    evaluate,
    mul,
    mul_xk,
    poly_pow,
)
from threshold_spectra.sequences import enumerate_connected, from_blocks, to_blocks
from threshold_spectra.spectra import _nontrivial_parts, char_poly

TOL = Fraction(1, 10 ** 9)


class TestFamilyPairs:
    def test_four_block_first(self):
        pair = family_pair(FamilyId.FOUR_BLOCK, 1)
        assert pair.g == ((0, 3), (1, 6), (0, 3), (1, 2))
        assert pair.g_prime == ((0, 4), (1, 3), (0, 3), (1, 4))
        assert pair.n == 14

    def test_six_block_first(self):
        pair = family_pair(FamilyId.SIX_BLOCK, 1)
        assert pair.g == ((0, 1), (1, 3), (0, 1), (1, 4), (0, 3), (1, 2))
        assert pair.g_prime == ((0, 1), (1, 2), (0, 2), (1, 2), (0, 3), (1, 4))
        assert pair.n == 14

    def test_order_grows_linearly(self):
        assert family_pair(FamilyId.FOUR_BLOCK, 2).n == 23
        assert family_pair(FamilyId.SIX_BLOCK, 4).n == 41

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            family_pair(FamilyId.FOUR_BLOCK, 0)


class TestClosedForms:
    def test_four_block_expansion(self):
        expected = mul_xk(
            mul(mul(poly_pow((1, 1), 6), (3, 1)), (36, -10, -9, 1)), 4)
        assert closed_form_char_poly(FamilyId.FOUR_BLOCK, 1, "G") == expected

    def test_six_block_expansion(self):
        expected = mul_xk(
            mul(mul(poly_pow((1, 1), 7), (3, 1)), (-24, 36, 1, -10, 1)), 2)
        assert closed_form_char_poly(FamilyId.SIX_BLOCK, 1, "G") == expected

    def test_cubic_constant_term(self):
        for i in (1, 2, 7, 20):
            assert shared_cubic(i)[0] == 12 * i ** 3 + 18 * i ** 2 + 6 * i

    def test_matches_engine_small(self):
        for fam in FamilyId:
            for i in (1, 2, 3):
                pair = family_pair(fam, i)
                assert char_poly(pair.g) == closed_form_char_poly(fam, i, "G")
                assert char_poly(pair.g_prime) == closed_form_char_poly(
                    fam, i, "G'")

    def test_member_validation(self):
        with pytest.raises(ValueError):
            closed_form_char_poly(FamilyId.FOUR_BLOCK, 1, "H")

    def test_linear_factor_division(self):
        poly = closed_form_char_poly(FamilyId.FOUR_BLOCK, 1, "G")
        quotient = divide_exact(poly, (3, 1))
        assert quotient == mul_xk(
            mul(poly_pow((1, 1), 6), (36, -10, -9, 1)), 4)


class TestVerification:
    def test_four_block_first_pair(self):
        report = verify_family(FamilyId.FOUR_BLOCK, 1, TOL)
        assert report.ok
        assert report.closed_form_match
        assert report.noncospectral
        assert report.energy_overlap
        assert report.energy_gap_bound <= TOL
        assert report.below_complete
        assert report.within_sharp_bound
        assert report.exact_equal_energy

    def test_six_block_first_pair(self):
        report = verify_family(FamilyId.SIX_BLOCK, 1, TOL)
        assert report.ok

    def test_a_few_more_parameters(self):
        for fam in FamilyId:
            for i in (2, 3):
                assert verify_family(fam, i, TOL).ok

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            verify_family(FamilyId.FOUR_BLOCK, 1, 0)

    def test_record_roundtrip(self):
        rec = verify_family(FamilyId.FOUR_BLOCK, 1, TOL).to_record()
        assert rec["ok"] is True
        assert rec["family"] == "four"

    def test_record_gap_bound_exact(self):
        report = verify_family(FamilyId.FOUR_BLOCK, 2, TOL)
        record = report.to_record()
        assert Fraction(record["energy_gap_bound"]) == report.energy_gap_bound


class TestExactEnergyEquality:
    def test_constructed_pair_equal(self):
        pair = family_pair(FamilyId.FOUR_BLOCK, 1)
        assert exact_energy_equal(pair.g, pair.g_prime) is True

    def test_decidably_unequal(self):
        k3 = to_blocks(from_blocks(((0, 1), (1, 2))))
        k4 = ((0, 1), (1, 3))
        assert exact_energy_equal(k3, k4) is False

    def test_undecidable_route(self):
        p3 = ((0, 2), (1, 1))
        k3 = ((0, 1), (1, 2))
        assert exact_energy_equal(p3, k3) is None


def trial_division_strip(p):
    """Reference: try every divisor of the constant term up to a Cauchy
    bound, smallest magnitude first, until no integer root is left."""
    total = 0
    rest = p
    while degree(rest) >= 1 and rest[0] != 0:
        bound = 1 + -(-max(abs(c) for c in rest[:-1]) // abs(rest[-1]))
        hit = None
        for mag in range(1, bound + 1):
            if rest[0] % mag:
                continue
            for r in (mag, -mag):
                if evaluate(rest, r) == 0:
                    hit = r
                    break
            if hit is not None:
                break
        if hit is None:
            break
        quotient = divide_exact(rest, (-hit, 1))
        if quotient is None:
            break
        total += abs(hit)
        rest = quotient
    return total, rest


def family_rests(i_values):
    for fam, i in itertools.product(FamilyId, i_values):
        pair = family_pair(fam, i)
        for blocks in (pair.g, pair.g_prime):
            yield _nontrivial_parts(blocks)[2]


class TestIntegerRootStripping:
    def test_matches_trial_division_on_corpus(self):
        for n in range(2, 12):
            for bits in enumerate_connected(n):
                rest = _nontrivial_parts(to_blocks(bits))[2]
                assert _strip_integer_roots(rest) == trial_division_strip(rest)

    def test_matches_trial_division_on_families(self):
        for rest in family_rests(range(1, 11)):
            assert _strip_integer_roots(rest) == trial_division_strip(rest)

    def test_family_shift_roots_found(self):
        # rest of G is (x + 2i + 1) * core, of G' (x + 2i + 2) * core
        for fam, core in ((FamilyId.FOUR_BLOCK, shared_cubic),
                          (FamilyId.SIX_BLOCK, shared_quartic)):
            for i in (1, 7):
                total_g, rest_g = _strip_integer_roots(
                    _nontrivial_parts(family_pair(fam, i).g)[2])
                assert total_g == 2 * i + 1
                assert rest_g == core(i)

    def test_repeated_and_mixed_roots(self):
        # (x - 2)^2 (x + 3) (x^2 - 2): multiplicity counts, sqrt 2 stays
        p = mul(mul(mul((-2, 1), (-2, 1)), (3, 1)), (-2, 0, 1))
        assert _strip_integer_roots(p) == (7, (-2, 0, 1))

    def test_integer_next_to_a_close_root_counted_once(self):
        # (x - 2)(10x - 19): the enclosure of 19/10 lies just below 2, so
        # its ceiling is the other root and must not be taken again
        p = mul((-2, 1), (-19, 10))
        assert _strip_integer_roots(p) == (2, (-19, 10))

    def test_at_most_one_evaluation_per_root(self, monkeypatch):
        calls = []

        def counting_evaluate(p, x):
            calls.append(x)
            return evaluate(p, x)

        monkeypatch.setattr(families, "evaluate", counting_evaluate)
        for rest in family_rests(range(1, 21)):
            calls.clear()
            _strip_integer_roots(rest)
            assert 1 <= len(calls) <= degree(rest)

    def test_exact_equality_at_large_parameter(self):
        for fam in FamilyId:
            pair = family_pair(fam, 100)
            assert exact_energy_equal(pair.g, pair.g_prime) is True


class TestCubicRoots:
    def test_first_parameter(self):
        report = cubic_root_localization(1)
        assert report.value_at_zero == 36
        assert report.value_at_lower_bound == -42
        assert report.ok
        mids = [float(r.midpoint) for r in report.roots]
        assert -3 < mids[0] < -2
        assert 1 < mids[1] < 2
        assert 9 < mids[2] < 10

    def test_second_parameter_value(self):
        assert cubic_root_localization(2).value_at_zero == 180

    def test_trace_coefficient(self):
        for i in (1, 3, 10):
            assert shared_cubic(i)[2] == -(7 * i + 2)

    def test_range_of_parameters(self):
        for i in (1, 2, 5, 9):
            assert cubic_root_localization(i).ok

    def test_quartic_negative_root_above_minus_i_plus_one(self):
        # the six-block core has exactly one negative root, larger than
        # -(i+1), which keeps the total energy below 18i + 6
        from threshold_spectra.intpoly import evaluate
        from threshold_spectra.roots import isolate_real_roots
        for i in (1, 2, 5):
            quartic = shared_quartic(i)
            assert evaluate(quartic, -(i + 1)) == (i * (i + 1)) ** 2
            encs = isolate_real_roots(quartic, Fraction(1, 10 ** 6))
            assert len(encs) == 4
            assert encs[0].hi < 0
            assert encs[0].lo > -(i + 1)
            assert all(e.lo > 0 for e in encs[1:])

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cubic_root_localization(0)
