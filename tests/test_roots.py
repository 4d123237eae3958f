import importlib.util
import random
import sys
import time
from fractions import Fraction
from functools import partial
from math import isqrt
from pathlib import Path

import pytest

from threshold_spectra import roots, spectra
from threshold_spectra.families import FamilyId, exact_energy_equal, family_pair
from threshold_spectra.intpoly import (
    evaluate,
    mul,
    normalize,
    poly_pow,
    square_free_decomposition,
)
from threshold_spectra.linalg import charpoly
from threshold_spectra.roots import (
    isolate_real_roots,
    sign_at,
    sturm_chain,
    value_at,
)
from threshold_spectra.sequences import (
    adjacency_matrix,
    enumerate_connected,
    nth_connected,
    parse_sequence,
    to_blocks,
)

WIDTH = Fraction(1, 1000)


def assert_dyadic(enc):
    """The `RootEnclosure` contract: integer ends lo_num <= hi_num over a
    power of two den, the least one over which both ends are integers, so
    a point is in lowest terms; the Fraction views agree with them."""
    assert type(enc.lo_num) is type(enc.hi_num) is type(enc.den) is int
    assert enc.den > 0 and enc.den & (enc.den - 1) == 0
    assert enc.lo_num <= enc.hi_num
    assert enc.lo == Fraction(enc.lo_num, enc.den)
    assert enc.hi == Fraction(enc.hi_num, enc.den)
    assert enc.den == max(enc.lo.denominator, enc.hi.denominator)
    assert enc.is_point == (enc.lo == enc.hi)
    assert enc.width == enc.hi - enc.lo
    assert enc.midpoint == (enc.lo + enc.hi) / 2


def contains_root(poly, enc):
    if enc.is_point:
        return evaluate(poly, enc.lo) == 0
    lo = sign_at(poly, enc.lo.numerator, enc.lo.denominator)
    hi = sign_at(poly, enc.hi.numerator, enc.hi.denominator)
    return lo * hi < 0


class TestValueAt:
    def test_scaled_value_on_power_of_two_denominators(self):
        rng = random.Random(2048)
        for d in range(41):
            p = tuple(rng.randint(-(1 << 100), 1 << 100)
                      for _ in range(d + 1))
            for e in (0, 1, 2, 3, 64, 700, 2048, rng.randint(4, 2047)):
                den = 1 << e
                for num in (0, 1, -1, rng.randint(1, den << 3),
                            -rng.randint(1, den << 3)):
                    assert value_at(p, num, den) == (
                        evaluate(p, Fraction(num, den)) * den ** d)

    @pytest.mark.parametrize("den", [3, 6, 0, -2])
    def test_other_denominators_rejected(self, den):
        for p in ((), (5,), (-2, 0, 1)):
            with pytest.raises(ValueError, match="power of two"):
                value_at(p, 1, den)
            with pytest.raises(ValueError, match="power of two"):
                sign_at(p, 1, den)


class TestIsolation:
    def test_sqrt_two(self):
        encs = isolate_real_roots((-2, 0, 1), WIDTH)
        assert len(encs) == 2
        for enc, sign in zip(encs, (-1, 1)):
            assert enc.width <= WIDTH
            assert contains_root((-2, 0, 1), enc)
            mid = float(enc.midpoint)
            assert abs(abs(mid) - 2 ** 0.5) < 1e-3
            assert (mid > 0) == (sign > 0)

    def test_triple_root(self):
        encs = isolate_real_roots(poly_pow((1, 1), 3), WIDTH)
        assert len(encs) == 1
        enc = encs[0]
        assert enc.lo == enc.hi == -1
        assert enc.multiplicity == 3

    def test_cubic_bracketing(self):
        cubic = (36, -10, -9, 1)
        encs = isolate_real_roots(cubic, WIDTH)
        assert len(encs) == 3
        brackets = [(-3, -2), (1, 2), (9, 10)]
        for enc, (lo, hi) in zip(encs, brackets):
            assert lo < enc.midpoint < hi

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            isolate_real_roots((), WIDTH)

    @pytest.mark.parametrize("p", [(0,), (0, 0), (1, 0), (-1, 1, 0)])
    def test_trailing_zero_rejected(self, p):
        with pytest.raises(ValueError, match="leading coefficient"):
            isolate_real_roots(p, WIDTH)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            isolate_real_roots((1, 1), 0)

    def test_no_real_roots(self):
        assert isolate_real_roots((1, 0, 1), WIDTH) == []

    def test_nonreal_roots_excluded(self):
        p = mul((1, 0, 1), (-1, 1))  # (x^2+1)(x-1)
        encs = isolate_real_roots(p, WIDTH)
        assert len(encs) == 1
        assert encs[0].lo == encs[0].hi == 1

    def test_integer_roots_hit_exactly(self):
        p = mul((-1, 1), (-3, 1))
        encs = isolate_real_roots(p, WIDTH)
        assert [(e.lo, e.hi) for e in encs] == [(1, 1), (3, 3)]

    def test_high_multiplicity_stack(self):
        # (x - 49)(x + 1)^49: the shape of a complete-graph polynomial
        p = mul((-49, 1), poly_pow((1, 1), 49))
        encs = isolate_real_roots(p, Fraction(1, 10 ** 6))
        assert len(encs) == 2
        assert (encs[0].lo, encs[0].hi, encs[0].multiplicity) == (-1, -1, 49)
        assert (encs[1].lo, encs[1].hi, encs[1].multiplicity) == (49, 49, 1)

    def test_non_dyadic_rational_root(self):
        p = (-1, 3)  # 3x - 1
        encs = isolate_real_roots(p, Fraction(1, 2 ** 30))
        assert len(encs) == 1
        enc = encs[0]
        assert enc.lo <= Fraction(1, 3) <= enc.hi
        assert enc.width <= Fraction(1, 2 ** 30)

    def test_root_next_to_point_root_separates(self):
        # x^2 (2^450 x - 1): 2^-450 takes about 450 halvings to leave 0
        encs = isolate_real_roots((0, 0, -1, 1 << 450), 1)
        assert len(encs) == 2
        assert (encs[0].lo, encs[0].hi, encs[0].multiplicity) == (0, 0, 2)
        tiny = encs[1]
        assert tiny.multiplicity == 1
        assert 0 < tiny.lo <= Fraction(1, 2 ** 450) <= tiny.hi


def cauchy_pow2(p):
    """The least power of two above ceil(max_i |a_i / a_d|), so at least
    Cauchy's bound 1 + max_i |a_i / a_d| on the magnitude of every root
    of p, by doubling from 1."""
    ratio = -(-max(map(abs, p[:-1])) // abs(p[-1]))
    bound = 1
    while bound <= ratio:
        bound *= 2
    return bound


def sturm_above(p):
    """Reference root counter for the `above` route: roots of p above
    num/den with multiplicity, from the Sturm chains of its square-free
    factors."""
    bound = cauchy_pow2(p)
    chains = [(sturm_chain(f), m) for f, m in square_free_decomposition(p)]

    def above(num, den):
        return sum(m * (roots._variations(chain, num, den)
                        - roots._variations(chain, bound, 1))
                   for chain, m in chains)

    return above


class TestPositiveOnly:
    def test_positive_roots_of_the_full_list(self):
        rng = random.Random(3141)
        polys = [mul(mul((0, 1), poly_pow((-1, 1), 2)), (2, 1)),
                 mul((0, 0, -1, 1 << 450), (1, 1)),
                 mul(poly_pow((-1, 2), 2), (-3, 1)),
                 (-2, 0, 1), (1, 0, 1), (5, 1)]
        polys += [normalize([rng.randint(-6, 6)
                             for _ in range(rng.randint(2, 9))])
                  for _ in range(40)]
        for p in polys:
            if len(p) < 2:
                continue
            full = [e for e in isolate_real_roots(p, WIDTH) if e.hi > 0]
            positive = isolate_real_roots(p, WIDTH, above=sturm_above(p))
            assert len(positive) == len(full)
            for got, ref in zip(positive, full):
                assert got.multiplicity == ref.multiplicity
                assert 0 <= got.lo and got.width <= WIDTH
                assert got.lo <= ref.hi and ref.lo <= got.hi

    def test_zero_root_left_out(self):
        p = mul((0, 1), (-3, 1))
        encs = isolate_real_roots(p, WIDTH, above=sturm_above(p))
        assert [(e.lo, e.hi, e.multiplicity) for e in encs] == [(3, 3, 1)]

    def test_no_sturm_chain_or_square_free_decomposition(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the above route must not call this")

        p = mul((-2, 0, 1), (-5, 1))
        above = sturm_above(p)
        monkeypatch.setattr(roots, "sturm_chain", forbidden)
        monkeypatch.setattr(roots, "square_free_decomposition", forbidden)
        encs = isolate_real_roots(p, WIDTH, above=above)
        assert [e.multiplicity for e in encs] == [1, 1]
        assert encs[0].lo ** 2 < 2 < encs[0].hi ** 2
        assert encs[1].lo == encs[1].hi == 5

    def test_stuck_count_raises_quickly(self):
        # a phantom double root at 1/3: every piece around it counts 2, so
        # without the separation guard the split would never end
        def stuck(num, den):
            return 2 if 3 * num < den else 0

        started = time.perf_counter()
        with pytest.raises(ArithmeticError, match="separation bound"):
            isolate_real_roots((-2, 0, 1), WIDTH, above=stuck)
        assert time.perf_counter() - started < 5

    def test_count_without_sign_change_raises(self):
        # one root too many above 0: the piece next to 0 holds no root
        p = (-2, 0, 1)
        real = sturm_above(p)
        with pytest.raises(ArithmeticError, match="sign change"):
            isolate_real_roots(p, WIDTH,
                               above=lambda num, den: real(num, den)
                               + (num == 0))


# (x - 1)(64x^2 - 104x + 41), roots 1, 0.673 and 0.952: the split hits 1
# as the midpoint of (0, 2], and only the count(mid) + k upper count of
# the left half keeps (3/4, 1] from counting 0.952 and 1 together.
LEFT_OF_HIT = mul((-1, 1), (41, -104, 64))
# `rest` of (0^1 1^1 0^1 1^1 0^4 1^1), root 1: the split hits 1 as the
# midpoint of (0, 2] after (2, 4] was isolated on counts taken before the
# hit, and on the Sturm route while the negative half-line waits on the
# stack with its count.
PENDING_HALF_SEQUENCE = "(0^1 1^1 0^1 1^1 0^4 1^1)"
PENDING_HALF = (-4, 14, 1, -11, -1, 1)


def real_root_count(p, lo, hi):
    """Distinct real roots of the square-free p in the open (lo, hi)."""
    chain = sturm_chain(p)
    at = [roots._variations(chain, x.numerator, x.denominator)
          for x in (Fraction(lo), Fraction(hi))]
    return at[0] - at[1] - (evaluate(p, hi) == 0)


def check_subdivision(p, above, exact_roots):
    """_subdivide on p returns exactly `exact_roots` as (num, den, k),
    divides each out k times, and isolates every other root of p in an
    interval with a sign change, on the half-lines the route searches."""
    exact, reduced, intervals = roots._subdivide(p, above, None)
    assert sorted(exact) == sorted(exact_roots)
    divided = reduced
    for num, den, k in exact:
        divided = mul(divided, poly_pow((-num, den), k))
    assert divided == p
    bound = cauchy_pow2(p)
    low = 0 if above is not None else -bound
    expected = real_root_count(reduced, low, bound)
    assert len(intervals) == expected
    for lo, hi, den in intervals:
        assert sign_at(reduced, lo, den) * sign_at(reduced, hi, den) < 0
        assert real_root_count(reduced, Fraction(lo, den),
                               Fraction(hi, den)) == 1
        assert lo >= 0 or above is None


def seeded_polys_with_exact_roots(rng, count):
    """Products of random integer factors and dyadic or integer roots."""
    polys = []
    while len(polys) < count:
        p = normalize([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        if not p:
            continue
        for _ in range(rng.randint(1, 3)):
            den = 1 << rng.randint(0, 3)
            p = mul(p, poly_pow((-rng.randint(-16, 16), den),
                                rng.randint(1, 2)))
        polys.append(p)
    return polys


class TestOnePass:
    @pytest.mark.parametrize("route", ["sturm", "above"])
    def test_left_half_of_a_hit(self, route):
        above = sturm_above(LEFT_OF_HIT) if route == "above" else None
        check_subdivision(LEFT_OF_HIT, above, [(1, 1, 1)])
        encs = isolate_real_roots(LEFT_OF_HIT, Fraction(1, 2), above)
        assert [e.multiplicity for e in encs] == [1, 1, 1]
        assert encs[2] == roots.RootEnclosure(1, 1, 1, 1)
        assert Fraction(3, 4) <= encs[1].lo < encs[1].hi <= 1

    @pytest.mark.parametrize("route", ["sturm", "above", "pivots"])
    def test_hit_while_other_half_is_pending(self, route):
        counts = to_blocks(parse_sequence(PENDING_HALF_SEQUENCE))
        assert spectra._nontrivial_parts(counts)[2] == PENDING_HALF
        above = {"sturm": None, "above": sturm_above(PENDING_HALF),
                 "pivots": lambda num, den: spectra._roots_above(
                     counts, num, den)}[route]
        check_subdivision(PENDING_HALF, above, [(1, 1, 1)])
        encs = isolate_real_roots(PENDING_HALF, Fraction(1, 2), above)
        positive = [e for e in encs if e.hi > 0]
        assert len(positive) == len(counts) // 2
        assert roots.RootEnclosure(1, 1, 1, 1) in positive
        assert len(encs) == (5 if above is None else 3)

    def test_dyadic_double_root_is_one_point(self):
        p = mul(poly_pow((-3, 4), 2), (-5, 1, 1))
        check_subdivision(p, sturm_above(p), [(3, 4, 2)])
        encs = isolate_real_roots(p, Fraction(1, 2), sturm_above(p))
        assert encs[0] == roots.RootEnclosure(3, 3, 4, 2)
        assert [e.multiplicity for e in encs] == [2, 1]

    @pytest.mark.parametrize("width", [Fraction(1, 2), Fraction(1, 10 ** 20)])
    def test_seeded_exact_roots_both_routes(self, width):
        for p in seeded_polys_with_exact_roots(random.Random(1107), 60):
            factors = square_free_decomposition(p)
            bound = cauchy_pow2(p)
            full = isolate_real_roots(p, width)
            positive = isolate_real_roots(p, width, sturm_above(p))
            # same roots and multiplicities; the enclosures may differ where
            # only the above route hits a multiple root exactly
            wanted = [e for e in full if e.hi > 0]
            assert ([e.multiplicity for e in positive]
                    == [e.multiplicity for e in wanted])
            for a, b in zip(positive, wanted):
                assert a.lo <= b.hi and b.lo <= a.hi
            assert (sum(e.multiplicity for e in full)
                    == sum(m * real_root_count(f, -bound, bound)
                           for f, m in factors))
            for enc in full:
                assert enc.width <= width
                assert enc.lo >= 0 or enc.hi <= 0
                assert any(contains_root(f, enc) for f, _ in factors)


class TestEnclosureContracts:
    def test_disjoint_sorted_dyadic(self):
        rng = random.Random(2718)
        for _ in range(30):
            p = normalize([rng.randint(-6, 6) for _ in range(rng.randint(2, 8))])
            if not p or len(p) == 1:
                continue
            encs = isolate_real_roots(p, WIDTH)
            for a, b in zip(encs, encs[1:]):
                assert a.hi < b.lo
            for enc in encs:
                assert_dyadic(enc)
                assert enc.width <= WIDTH
                assert not (enc.lo < 0 < enc.hi)

    def test_adjacency_root_count_and_trace(self):
        # symmetric matrices: every root is real, and midpoints nearly sum
        # to minus the second-highest coefficient
        rng = random.Random(1618)
        width = Fraction(1, 10 ** 6)
        for _ in range(12):
            n = rng.randint(2, 9)
            bits = nth_connected(n, rng.getrandbits(n - 2) if n > 2 else 0)
            poly = charpoly(adjacency_matrix(bits))
            encs = isolate_real_roots(poly, width)
            assert sum(e.multiplicity for e in encs) == n
            mid_sum = sum((e.multiplicity * e.midpoint for e in encs),
                          Fraction(0))
            trace = -poly[n - 1] if n >= 1 else 0
            assert abs(mid_sum - trace) <= n * width


def bisection_refine(enc, width, v_lo, v_hi):
    """The specification of `_Enclosure.refine_to`: plain bisection, which
    needs no endpoint values and ignores them."""
    lo, hi, den = enc.lo_num, enc.hi_num, enc.den
    while lo != hi and (hi - lo) * width.denominator > width.numerator * den:
        lo, hi, den = lo << 1, hi << 1, den << 1
        mid = (lo + hi) >> 1
        s = sign_at(enc.poly, mid, den)
        if s == 0:
            lo = hi = mid
        elif s == enc.sign_lo:
            lo = mid
        else:
            hi = mid
    enc.lo_num, enc.hi_num, enc.den = lo, hi, den


def bisected_roots(p, width, above=None):
    """`isolate_real_roots` with its refinement replaced by bisection."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots._Enclosure, "refine_to", bisection_refine)
        return isolate_real_roots(p, width, above)


def mignotte(d, a):
    """x^d - 2(a x - 1)^2, with two real roots very close to 1/a."""
    p = [0] * (d + 1)
    p[d] = 1
    for i, c in enumerate(poly_pow((-1, a), 2)):
        p[i] -= 2 * c
    return normalize(p)


def random_square_free(rng, count):
    found = []
    while len(found) < count:
        p = normalize([rng.randint(-30, 30) for _ in range(rng.randint(2, 13))])
        if len(p) >= 2 and [m for _, m in square_free_decomposition(p)] == [1]:
            found.append(p)
    return found


REFINE_WIDTHS = (Fraction(1, 10 ** 12), Fraction(1, 2 ** 700))
MIGNOTTE = [mignotte(d, a) for d, a in ((5, 10), (7, 100), (9, 1000),
                                         (12, 10 ** 5))]
# Dyadic roots that isolation does not hit.  At both widths each is found
# by a different branch of QIR (checked by instrumenting a copy): 3/8 at
# the secant's grid point, 1/4 at its neighbour, 7/8 by the fallback
# `halve`.
DYADIC = [(mul((-3, 8), (-2, 0, 1)), Fraction(3, 8)),
          (mul((-1, 4), (-2, 0, 1)), Fraction(1, 4)),
          (mul((-7, 8), (-2, 0, 0, 1)), Fraction(7, 8))]


class TestRefinement:
    @pytest.mark.parametrize("width", REFINE_WIDTHS)
    def test_same_enclosures_as_bisection(self, width):
        polys = (MIGNOTTE + random_square_free(random.Random(4242), 30)
                 + [p for p, _ in DYADIC])
        for p in polys:
            assert isolate_real_roots(p, width) == bisected_roots(p, width)

    @pytest.mark.parametrize("width", REFINE_WIDTHS)
    def test_certified_and_not_overshot(self, width):
        for p in MIGNOTTE + random_square_free(random.Random(99), 30):
            for factor, _ in square_free_decomposition(p):
                _, reduced, intervals = roots._subdivide(factor, None, None)
                for lo, hi, den in intervals:
                    enc = roots._Enclosure(reduced, lo, hi, den,
                                           sign_at(reduced, lo, den), 1)
                    enc.refine_to(width, value_at(reduced, lo, den),
                                  value_at(reduced, hi, den))
                    got_lo = Fraction(enc.lo_num, enc.den)
                    got_hi = Fraction(enc.hi_num, enc.den)
                    if Fraction(hi - lo, den) <= width:
                        assert (got_lo, got_hi) == (Fraction(lo, den),
                                                    Fraction(hi, den))
                    elif enc.is_point:
                        assert evaluate(reduced, got_lo) == 0
                    else:
                        assert width / 2 < got_hi - got_lo <= width
                        assert enc.den & (enc.den - 1) == 0
                        assert (sign_at(reduced, enc.lo_num, enc.den)
                                * sign_at(reduced, enc.hi_num, enc.den)) < 0

    @pytest.mark.parametrize("width", REFINE_WIDTHS)
    @pytest.mark.parametrize("p, root", DYADIC)
    def test_dyadic_root_is_a_point(self, p, root, width):
        encs = isolate_real_roots(p, width)
        assert roots.RootEnclosure(root.numerator, root.numerator,
                                   root.denominator, 1) in encs
        assert sum(e.is_point for e in encs) == 1


def linear_quadratic_products(rng, count):
    """Products of 1-3 integer linear factors and 1-2 integer quadratics
    irreducible over the rationals, real-rooted or not."""
    polys = []
    for _ in range(count):
        p = (1,)
        for _ in range(rng.randint(1, 3)):
            p = mul(p, (-rng.randint(-20, 20), rng.randint(1, 4)))
        for _ in range(rng.randint(1, 2)):
            while True:
                b, c = rng.randint(-12, 12), rng.randint(-30, 30)
                disc = b * b - 4 * c
                if disc < 0 or isqrt(disc) ** 2 != disc:
                    break
            p = mul(p, (c, b, 1))
        polys.append(p)
    return polys


# from widths that floats resolve to one far below them
FLOAT_WIDTHS = [Fraction(1, 10 ** k) for k in range(3, 13)] + [
    Fraction(1, 10 ** 60)]


def refine_evaluations(monkeypatch):
    """Exact evaluations of each later `refine_to` call, in call order."""
    per_call, inside = [], [False]
    real_value_at, real_refine = roots.value_at, roots._Enclosure.refine_to

    def counted_value_at(p, num, den):
        if inside[0]:
            per_call[-1] += 1
        return real_value_at(p, num, den)

    def counted_refine(enc, width, v_lo, v_hi):
        per_call.append(0)
        inside[0] = True
        try:
            real_refine(enc, width, v_lo, v_hi)
        finally:
            inside[0] = False

    monkeypatch.setattr(roots, "value_at", counted_value_at)
    monkeypatch.setattr(roots._Enclosure, "refine_to", counted_refine)
    return per_call


class TestFloatGuess:
    """Targets that floats resolve and targets beyond them: whether the
    float route places the cells or bisection and QIR find them, every
    route must give what bisection gives."""

    @pytest.mark.parametrize("route", ["sturm", "above"])
    def test_same_enclosures_as_bisection(self, route):
        for p in linear_quadratic_products(random.Random(1411), 25):
            above = sturm_above(p) if route == "above" else None
            for width in FLOAT_WIDTHS:
                assert (isolate_real_roots(p, width, above)
                        == bisected_roots(p, width, above))

    def test_integer_root_inside_a_cell_is_a_point(self):
        p = mul((-5, 1), (-2, 0, 1))
        _, _, intervals = roots._subdivide(p, None, None)
        # 5 is no midpoint of the split: isolation ends on (4, 8]
        assert (Fraction(4), Fraction(8)) in [
            (Fraction(lo, den), Fraction(hi, den))
            for lo, hi, den in intervals]
        for width in FLOAT_WIDTHS:
            encs = isolate_real_roots(p, width)
            assert roots.RootEnclosure(5, 5, 1, 1) in encs
            assert encs == bisected_roots(p, width)

    def test_coefficients_beyond_float_range(self):
        p = tuple(10 ** 400 * c for c in (-2, 0, 1))
        above = sturm_above(p)
        for width in (Fraction(1, 10 ** 10), Fraction(1, 10 ** 60)):
            encs = isolate_real_roots(p, width, above)
            assert encs == bisected_roots(p, width, above)
            assert len(encs) == 1 and encs[0].lo ** 2 < 2 < encs[0].hi ** 2

    @pytest.mark.parametrize("p", [
        mul((-(1 << 1100), 1 << 1100), (-(1 << 1100) - 1, 1 << 1100)),
        mul((-3 * (1 << 1100) - 1, 3 << 1100),
            (-3 * (1 << 1100) - 2, 3 << 1100))])
    def test_roots_closer_than_floats_resolve(self, p):
        for width in (Fraction(1, 10 ** 10), Fraction(1, 2 ** 1200)):
            encs = isolate_real_roots(p, width)
            assert encs == bisected_roots(p, width)
            assert len(encs) == 2 and encs[0].hi < encs[1].lo
            assert all(contains_root(p, e) for e in encs)

    def test_few_evaluations_per_root(self, monkeypatch):
        precision = Fraction(1, 10 ** 10)
        rests = []
        rng = random.Random(26)
        forms = ["01" * 13] + [" ".join(f"{j % 2}^{rng.randint(1, 2)}"
                                        for j in range(26))
                               for _ in range(10)]
        for form in forms:
            blocks = to_blocks(parse_sequence(form))
            rests.append((blocks, spectra._nontrivial_parts(blocks)[2]))
        per_call = refine_evaluations(monkeypatch)
        counts, rest = rests[0]
        spectra._energy_from_parts(rest, counts, precision)
        # (01)^13: 13 positive roots, one `refine_to` call each; a cell
        # from the float route is already the target cell and takes none
        assert len(per_call) == 13 and max(per_call) <= 4
        # the ten seeded forms take the float route at 1e-10 too; at 1e-50
        # `_float_cells` declines, so QIR refines each of their 130 roots
        # from its isolating interval.  The counts are deterministic: mean
        # 18.82, max 27; bisection would take about 166 or more a root
        del per_call[:]
        for counts, rest in rests[1:]:
            spectra._energy_from_parts(rest, counts, Fraction(1, 10 ** 50))
        assert len(per_call) == 130 and min(per_call) > 0
        assert sum(per_call) <= 19 * len(per_call)
        assert max(per_call) <= 27

    def test_deep_targets_refine_quadratically(self, monkeypatch):
        # seeded connected block forms with B = 4, 6 and 8 blocks and
        # n = 36-60 vertices at 1e-200, where every root goes to bisection
        # and QIR; the counts are deterministic: 53 calls, mean 21.36,
        # max 27; bisection would take about 664 or more evaluations a root
        rng = random.Random(2200)
        forms = []
        for b in (4, 6, 8):
            for _ in range(6):
                n = rng.randint(36, 60)
                cuts = [0] + sorted(rng.sample(range(1, n), b - 1)) + [n]
                forms.append(tuple(k % 2 for k in range(b)
                                   for _ in range(cuts[k + 1] - cuts[k])))
        per_call = refine_evaluations(monkeypatch)
        for bits in forms:
            spectra.energy(bits, Fraction(1, 10 ** 200))
        assert len(per_call) == 53 and min(per_call) > 0
        assert sum(per_call) <= 21.5 * len(per_call)
        assert max(per_call) <= 27

    def test_two_evaluations_per_root_at_hunt_orders(self, monkeypatch):
        # refinement's share only: the float route certifies every root of
        # every connected graph with n <= 12 on the target grid, so
        # `refine_to` returns at once; TestFloatRoute counts the rest
        per_call = refine_evaluations(monkeypatch)
        for n in range(2, 13):
            for bits in enumerate_connected(n):
                spectra.energy(bits, Fraction(1, 10 ** 10))
        assert per_call and max(per_call) <= 2

    def test_sturm_route_refinement_is_quadratic(self, monkeypatch):
        # `info`'s root list: every root is isolated by Sturm bisection
        # and refined by QIR from its isolating interval to 1e-10 / d.
        # The counts are deterministic: 2,359 calls, mean 12.05, max 19;
        # bisection would take about 37 or more evaluations a root
        per_call = refine_evaluations(monkeypatch)
        for n in range(2, 11):
            for bits in enumerate_connected(n):
                m0, m1, rest = spectra._nontrivial_parts(to_blocks(bits))
                spectra._eigen_enclosures(rest, Fraction(1, 10 ** 10), m0,
                                          m1)
        assert len(per_call) == 2359
        assert sum(per_call) <= 12.5 * len(per_call)
        assert max(per_call) <= 20


def energy_parts(form):
    """(block counts, `rest`) of a connected sequence or block expression."""
    blocks = to_blocks(parse_sequence(form) if isinstance(form, str)
                       else form)
    return blocks, spectra._nontrivial_parts(blocks)[2]


def energy_roots(counts, rest, precision):
    """The energy route's enclosures of the positive roots of `rest`."""
    return isolate_real_roots(rest, precision / len(counts),
                              partial(spectra._roots_above, counts))


def exact_route(monkeypatch):
    """Send every polynomial past the float route, to bisection."""
    monkeypatch.setattr(roots, "_float_roots",
                        lambda p, start, limit, count: None)


REAL_FLOAT_ROOTS = roots._float_roots


def count_bisections(monkeypatch):
    """Calls of `_subdivide` on the `above` route, in a one-item list."""
    calls, real = [0], roots._subdivide

    def counted(g, above, c_zero):
        calls[0] += above is not None
        return real(g, above, c_zero)

    monkeypatch.setattr(roots, "_subdivide", counted)
    return calls


def seeded_block_forms(blocks, count):
    """`count` connected block forms with `blocks` blocks of 1-3 vertices."""
    rng = random.Random(1717)
    return [" ".join(f"{j % 2}^{rng.randint(1, 3)}" for j in range(blocks))
            for _ in range(count)]


def cell_width(p, width):
    """Width of the target grid's cells on (0, T) for p and `width`: the
    largest power of two at most `width` and at most T, the root bound."""
    cell = Fraction(roots._pow2_fujiwara_bound(p))
    while cell > width:
        cell /= 2
    return cell


class TestDyadicEnclosures:
    """Every route returns its enclosures as dyadic integers in lowest
    terms (`assert_dyadic`): Sturm bisection, bisection on a counter's
    counts, and the float pass."""

    @pytest.mark.parametrize("route", ["sturm", "bisection", "float"])
    def test_seeded_polynomials(self, monkeypatch, route):
        if route == "bisection":
            exact_route(monkeypatch)
        polys = seeded_polys_with_exact_roots(random.Random(1107), 60)
        for p in polys + MIGNOTTE:
            above = None if route == "sturm" else sturm_above(p)
            for width in (Fraction(1, 2), Fraction(1, 10 ** 20)):
                for enc in isolate_real_roots(p, width, above):
                    assert_dyadic(enc)

    @pytest.mark.parametrize("route", ["bisection", "float"])
    def test_energy_route_up_to_ten(self, monkeypatch, route):
        if route == "bisection":
            exact_route(monkeypatch)
        bisections = count_bisections(monkeypatch)
        graphs = 0
        for n in range(2, 11):
            for bits in enumerate_connected(n):
                counts, rest = energy_parts(bits)
                for enc in energy_roots(counts, rest, Fraction(1, 10 ** 10)):
                    assert_dyadic(enc)
                graphs += 1
        assert bisections[0] == (0 if route == "float" else graphs)


class TestFloatRoute:
    """The `above` route isolates its roots from one float pass, certified
    on the target grid; it must give the enclosures of the exact route,
    and it must be taken where floats resolve the target."""

    @pytest.mark.parametrize("precision", [Fraction(1, 10 ** 10),
                                           Fraction(1)])
    def test_connected_graphs_up_to_twelve(self, monkeypatch, precision):
        parts = [energy_parts(bits) for n in range(2, 13)
                 for bits in enumerate_connected(n)]
        bisections = count_bisections(monkeypatch)
        floats = [energy_roots(counts, rest, precision)
                  for counts, rest in parts]
        if precision < 1:
            assert bisections[0] == 0  # the float route took every graph
        exact_route(monkeypatch)
        bisections[0] = 0
        assert floats == [energy_roots(counts, rest, precision)
                          for counts, rest in parts]
        assert bisections[0] == len(parts)

    @pytest.mark.parametrize("blocks", [14, 26, 40])
    def test_seeded_block_forms(self, monkeypatch, blocks):
        precision = Fraction(1, 10 ** 10)
        parts = [energy_parts(form)
                 for form in seeded_block_forms(blocks, 10)]
        floats = [energy_roots(counts, rest, precision)
                  for counts, rest in parts]
        exact_route(monkeypatch)
        assert floats == [energy_roots(counts, rest, precision)
                          for counts, rest in parts]

    def test_sturm_counted_polynomials(self, monkeypatch):
        polys = (linear_quadratic_products(random.Random(1411), 25)
                 + [p for p, _ in DYADIC])
        cases = [(p, width, sturm_above(p)) for p in polys
                 for width in FLOAT_WIDTHS]
        floats = [isolate_real_roots(p, width, above)
                  for p, width, above in cases]
        exact_route(monkeypatch)
        assert floats == [isolate_real_roots(p, width, above)
                          for p, width, above in cases]

    def test_deep_targets_take_bisection(self, monkeypatch):
        bisections = count_bisections(monkeypatch)
        forms = (["(0^3 1^2 0^1 1^4 0^2 1^3 0^5 1^1)"]
                 + seeded_block_forms(8, 5))
        for form in forms:
            counts, rest = energy_parts(form)
            energy_roots(counts, rest, Fraction(1, 10 ** 50))
        assert bisections[0] == len(forms)

    def test_a_run_that_does_not_settle_declines(self, monkeypatch):
        # one Laguerre step settles no run from T, so the float pass
        # declines and bisection isolates the roots instead
        counts, rest = energy_parts("(0^3 1^2 0^1 1^4 0^2 1^3 0^5 1^1)")
        precision = Fraction(1, 10 ** 10)
        monkeypatch.setattr(roots, "_FLOAT_STEPS", 1)
        start = float(roots._pow2_fujiwara_bound(rest))
        assert roots._float_roots(rest, start, start) is None
        bisections = count_bisections(monkeypatch)
        declined = energy_roots(counts, rest, precision)
        assert bisections[0] == 1
        exact_route(monkeypatch)
        assert declined == energy_roots(counts, rest, precision)

    @pytest.mark.parametrize("wrong", ["shift 1", "shift 3", "shift 20",
                                       "duplicated", "dropped", "negated",
                                       "nan"])
    def test_wrong_float_roots_give_bisection_enclosures(self, monkeypatch,
                                                         wrong):
        # each case either walks to the right cells or falls back; a wrong
        # enclosure would differ from bisection's
        width_of = {}

        def wrong_roots(p, start, limit, count):
            found = REAL_FLOAT_ROOTS(p, start, limit, count)
            if not found:
                return found
            if wrong.startswith("shift"):
                cell = float(cell_width(p, width_of["width"]))
                k = int(wrong.split()[1])
                return [r + (k if i % 2 else -k) * cell
                        for i, r in enumerate(found)]
            i = len(found) // 2
            if wrong == "duplicated":
                return found[:i + 1] + found[i:-1]
            if wrong == "dropped":
                return found[:i] + found[i + 1:]
            if wrong == "negated":
                return found[:i] + [-found[i]] + found[i + 1:]
            return found[:i] + [float("nan")] + found[i + 1:]

        monkeypatch.setattr(roots, "_float_roots", wrong_roots)
        bisections = count_bisections(monkeypatch)
        cases = [(p, width, sturm_above(p))
                 for p in (linear_quadratic_products(random.Random(1411), 25)
                           + [p for p, _ in DYADIC])
                 for width in FLOAT_WIDTHS]
        cases += [(rest, Fraction(1, 10 ** 10) / len(counts),
                   partial(spectra._roots_above, counts))
                  for counts, rest in map(energy_parts,
                                          enumerate_connected(9))]
        for p, width, above in cases:
            width_of["width"] = width
            assert (isolate_real_roots(p, width, above)
                    == bisected_roots(p, width, above))
        if wrong in ("shift 1", "shift 3"):
            assert bisections[0] < len(cases) // 2  # the walk certifies
        else:
            assert bisections[0] > len(cases) // 2

    def test_cells_are_those_of_the_reduced_polynomial(self):
        # exact roots divided out as often as they divide, and each cell
        # with the values at its ends of what is left, also when a root is
        # divided out after cells above it were certified
        taken = 0
        for p in linear_quadratic_products(random.Random(1411), 25):
            p = p[next(j for j, c in enumerate(p) if c):]
            for width in FLOAT_WIDTHS:
                above = sturm_above(p)
                cells = roots._float_cells(p, above(0, 1), width)
                if cells is None:
                    continue
                taken += 1
                exact, reduced, intervals = cells
                divided = reduced
                for num, den, k in exact:
                    divided = mul(divided, poly_pow((-num, den), k))
                assert divided == p
                for lo, hi, den, v_lo, v_hi in intervals:
                    assert Fraction(hi - lo, den) == cell_width(p, width)
                    assert v_lo == value_at(reduced, lo, den)
                    assert v_hi == value_at(reduced, hi, den)
        assert taken > 200

    def test_a_cell_found_twice_is_refused(self, monkeypatch):
        # the third float root repeats the first; with three roots its
        # parity lets the walk certify the first cell again
        p = mul(mul((-2, 0, 1), (-5, 0, 1)), (-10, 0, 1))
        monkeypatch.setattr(roots, "_float_roots",
                            lambda g, start, limit, count: [
                                10 ** 0.5, 5 ** 0.5, 10 ** 0.5])
        assert roots._float_cells(p, 3, Fraction(1, 10 ** 6)) is None
        assert (isolate_real_roots(p, Fraction(1, 10 ** 6), sturm_above(p))
                == bisected_roots(p, Fraction(1, 10 ** 6), sturm_above(p)))

    def test_total_must_match_the_count(self, monkeypatch):
        # a count two short, met by float roots that miss sqrt(2): the
        # double root 3 and sqrt(7) make three, not two
        p = mul(mul(poly_pow((-3, 1), 2), (-2, 0, 1)), (-7, 0, 1))
        monkeypatch.setattr(roots, "_float_roots",
                            lambda g, start, limit, count: [3.0, 7 ** 0.5])
        assert roots._float_cells(p, 2, Fraction(1, 10 ** 6)) is None

    def test_a_root_above_the_limit_declines_the_float_pass(
            self, monkeypatch):
        # cells of 2^-40 leave floats the roots below 2^(44 - 40) = 16;
        # the float pass starts at 128 for the root 100, finds 100 first
        # and declines, and at 16 for 1 and 10, which it places; no count
        # is taken but the one at 0
        width = Fraction(1, 1 << 40)
        passes = []

        def recorded(p, start, limit, count):
            found = REAL_FLOAT_ROOTS(p, start, limit, count)
            passes.append((p, start, limit, found))
            return found

        monkeypatch.setattr(roots, "_float_roots", recorded)
        far = mul((-100, 1), (-1, 1))
        assert roots._pow2_fujiwara_bound(far) == 128
        assert roots._float_cells(far, 2, width) is None
        assert passes == [(far, 128.0, 16.0, None)]
        counts_taken = []

        def counted(p):
            real = sturm_above(p)

            def above(num, den):
                counts_taken.append((num, den))
                return real(num, den)

            return above

        assert (isolate_real_roots(far, width, counted(far))
                == bisected_roots(far, width, sturm_above(far)))
        assert counts_taken[0] == (0, 1)
        near = mul((-10, 1), (-1, 1))
        assert roots._pow2_fujiwara_bound(near) == 16
        del passes[:], counts_taken[:]
        isolate_real_roots(near, width, counted(near))
        assert [(start, limit) for _, start, limit, _ in passes] == [
            (16.0, 16.0)]
        assert counts_taken == [(0, 1)]

    def test_float_pass_starts_where_bisection_does(self, monkeypatch):
        starts = []

        def recorded(p, start, limit, count):
            starts.append((p, start))
            return REAL_FLOAT_ROOTS(p, start, limit, count)

        monkeypatch.setattr(roots, "_float_roots", recorded)
        for n in range(2, 11):
            for bits in enumerate_connected(n):
                counts, rest = energy_parts(bits)
                del starts[:]
                energy_roots(counts, rest, Fraction(1, 10 ** 10))
                assert starts == [
                    (rest, float(roots._pow2_fujiwara_bound(rest)))]

    def test_one_count_per_many_block_form(self, monkeypatch):
        # the float pass places every root of these forms, so the count
        # at 0 is the only one taken
        calls, real = [0], spectra._roots_above

        def counted(counts, num, den):
            calls[0] += 1
            return real(counts, num, den)

        monkeypatch.setattr(spectra, "_roots_above", counted)
        forms = seeded_block_forms(24, 20) + seeded_block_forms(26, 20)
        for form in forms:
            energy_roots(*energy_parts(form), Fraction(1, 10 ** 10))
        assert calls[0] == len(forms)

    def test_floats_out_of_range_decline(self):
        # the root bound T is 2^1101, 2^1101 and 2^1032 for the first
        # three, past the largest float, so bisection takes them before any
        # float step; the last, with roots 1, about -2^1000 and about
        # -2^-1000, starts its float pass at T = 2^1000, where Horner's
        # value overflows and the Laguerre step is undefined
        width = Fraction(1, 10 ** 6)
        for p in (mul((-(1 << 1100), 1), (-1, 1)),
                  mul((-3, 2), (-(1 << 1100) - 1, 1)),
                  mul(mul((-5, 1), (-(1 << 1030), 1)),
                      (-(1 << 40) - 1, 1 << 40)),
                  mul((-1, 1), (1, 1 << 1000, 1))):
            above = sturm_above(p)
            assert roots._float_cells(p, above(0, 1), width) is None
            assert (isolate_real_roots(p, width, above)
                    == bisected_roots(p, width, above))

    @pytest.mark.parametrize("float_pass", ["real", "none", "agrees"])
    def test_zero_count_raises(self, monkeypatch, float_pass):
        # x^2 - 2 changes sign on (0, infinity): no even count can be right
        if float_pass != "real":
            monkeypatch.setattr(roots, "_float_roots",
                                lambda p, start, limit, count:
                                None if float_pass == "none" else [])
        with pytest.raises(ArithmeticError,
                           match="0 positive roots counted, but the "
                                 "polynomial has a sign change"):
            isolate_real_roots((-2, 0, 1), Fraction(1, 100),
                               above=lambda num, den: 0)

    def test_exact_work_per_root(self, monkeypatch):
        # every exact evaluation and every count, in isolation and in
        # refinement alike, on every connected graph with n <= 12
        evaluations, counts_taken = [0], [0]
        real_value_at, real_above = roots.value_at, spectra._roots_above

        def counted_value_at(p, num, den):
            evaluations[0] += 1
            return real_value_at(p, num, den)

        def counted_above(counts, num, den):
            counts_taken[0] += 1
            return real_above(counts, num, den)

        monkeypatch.setattr(roots, "value_at", counted_value_at)
        monkeypatch.setattr(spectra, "_roots_above", counted_above)
        graphs = positive = 0
        for n in range(2, 13):
            for bits in enumerate_connected(n):
                counts, rest = energy_parts(bits)
                energy_roots(counts, rest, Fraction(1, 10 ** 10))
                graphs += 1
                positive += len(counts) // 2
        assert counts_taken[0] == graphs
        assert evaluations[0] <= 3 * positive


class TestSturm:
    def test_chain_counts_roots(self):
        cubic = (36, -10, -9, 1)
        chain = sturm_chain(cubic)
        # variation difference over (-16, 16) counts all three real roots

        def var(x):
            signs = [sign_at(g, x, 1) for g in chain]
            signs = [s for s in signs if s]
            return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

        assert var(-16) - var(16) == 3
        assert var(0) - var(16) == 2
        assert var(-16) - var(0) == 1

    def test_chain_of_degree_one(self):
        chain = sturm_chain((-5, 2))
        assert chain[0] == (-5, 2)
        assert len(chain) == 2


def square_free_factors(p):
    """The square-free factors of p with their roots at 0 stripped, as the
    Sturm route hands them to `_subdivide`."""
    for factor, _ in square_free_decomposition(p):
        factor = factor[next(j for j, c in enumerate(factor) if c):]
        if len(factor) > 1:
            yield factor


def subdivided(g, above):
    """`_subdivide` on g, with every isolating interval in lowest terms."""
    exact, reduced, intervals = roots._subdivide(g, above, None)
    return exact, reduced, [roots._lowest_terms(*iv) for iv in intervals]


def check_against_the_cauchy_start(monkeypatch, cases):
    """`_subdivide` on each (g, above) from T against a start at Cauchy's
    power of two B: the same exact roots, reduced polynomial and pieces,
    but a half-line that holds one root is (0, T) or (-T, 0) where it was
    (0, B) or (-B, 0), since halving from B finds nothing until it is
    below T.  Returns the number of intervals that differ."""
    got = [subdivided(g, above) for g, above in cases]
    tops = [(roots._pow2_fujiwara_bound(g), cauchy_pow2(g))
            for g, _ in cases]
    monkeypatch.setattr(roots, "_pow2_fujiwara_bound", cauchy_pow2)
    reference = [subdivided(g, above) for g, above in cases]
    monkeypatch.undo()
    changed = 0
    for (exact, reduced, intervals), ref, (top, bound) in zip(
            got, reference, tops):
        assert (exact, reduced) == ref[:2]
        assert len(intervals) == len(ref[2])
        for iv, ref_iv in zip(intervals, ref[2]):
            if iv != ref_iv:
                changed += 1
                assert (iv, ref_iv) in (((0, top, 1), (0, bound, 1)),
                                        ((-top, 0, 1), (-bound, 0, 1)))
    return changed


def deepprec_reference_forms(monkeypatch, seed=None):
    """The energy-deepprec benchmark's reference sequences: every one, or
    those one pass under `seed` queries, in its query order."""
    path = Path(__file__).resolve().parent.parent / "benchmarks"
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  path / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    refs = workloads.load_references()
    if seed is None:
        return [entry["sequence"]
                for cell in refs["energy-deepprec"].values() for entry in cell]
    return [(query.argv[1], Fraction(query.argv[3])) for query in
            workloads.build_queries("energy-deepprec", seed, refs)]


def family_members(top):
    """Both members of both families for i = 1..top, as block counts."""
    return [member for family in FamilyId for i in range(1, top + 1)
            for member in (family_pair(family, i).g,
                           family_pair(family, i).g_prime)]


def least_pow2_above_fujiwara(p):
    """The least power of two T >= 1 above Fujiwara's bound on the roots of
    p, or Cauchy's power of two where that is less, by doubling T from 1
    until (T/2)^k exceeds every |a_(d-k) / a_d|, the term of a_0 halved."""
    d, lead = len(p) - 1, abs(p[-1])
    ratios = [Fraction(abs(p[d - k]), lead) for k in range(1, d + 1)]
    ratios[-1] /= 2
    t = 1
    while not all(Fraction(t, 2) ** k > r for k, r in enumerate(ratios, 1)):
        t *= 2
    return min(t, cauchy_pow2(p))


# the widths `energy` and `info` take on every connected graph with n <= 10
# in `test_outputs_inside_the_cauchy_start`: the finest on the same
# target grid from either bound, the others wide enough that some target
# cells are wider than the root bound
FINE_PRECISION = Fraction(1, 10 ** 12)
COARSE_ENERGY = (Fraction(3), Fraction(16), Fraction(1000))
COARSE_INFO = (Fraction(1), Fraction(1, 2))


def within(inner, outer):
    """Whether [inner] lies in [outer], both as (lo, hi) pairs."""
    return outer[0] <= inner[0] <= inner[1] <= outer[1]


def spectral_outputs(graphs):
    """The energy and root enclosures `energy` and `info` print for each
    graph at each width: {(command, precision): [output of each graph]}."""
    outputs = {}
    for precision in (FINE_PRECISION,) + COARSE_ENERGY:
        outputs["energy", precision] = [spectra.energy(bits, precision)
                                        for bits in graphs]
    for precision in (FINE_PRECISION,) + COARSE_INFO:
        outputs["info", precision] = [
            ((s.energy_lo, s.energy_hi),
             [(r.lo, r.hi, r.multiplicity) for r in s.roots])
            for s in (spectra.spectral_summary(bits, precision)
                      for bits in graphs)]
    return outputs


class TestFujiwaraStart:
    """Every bisection and the float pass start at the one root bound T,
    the Fujiwara power of two capped at Cauchy's, and the target grid is
    keyed to it: against a start at Cauchy's power of two, a cell no
    wider than T is the same cell, and a wider one is a cell of a finer
    grid inside it."""

    def test_sturm_route_matches_the_cauchy_start(self, monkeypatch):
        polys = seeded_polys_with_exact_roots(random.Random(1107), 60)
        polys += MIGNOTTE
        for n in range(2, 11):
            for bits in enumerate_connected(n):
                polys.append(mul(energy_parts(bits)[1], (0, 1, 1)))
        factors = [f for p in polys for f in square_free_factors(p)]
        assert check_against_the_cauchy_start(
            monkeypatch, [(f, None) for f in factors]) > 0

    def test_counter_route_matches_the_cauchy_start(self, monkeypatch):
        forms = [to_blocks(bits) for n in range(2, 11)
                 for bits in enumerate_connected(n)]
        forms += family_members(60)
        forms += [to_blocks(parse_sequence(form))
                  for form in deepprec_reference_forms(monkeypatch)]
        cases = [(spectra._nontrivial_parts(counts)[2],
                  partial(spectra._roots_above, counts)) for counts in forms]
        assert check_against_the_cauchy_start(monkeypatch, cases) > 0

    def test_outputs_inside_the_cauchy_start(self, monkeypatch):
        graphs = [bits for n in range(2, 11)
                  for bits in enumerate_connected(n)]
        got = spectral_outputs(graphs)
        monkeypatch.setattr(roots, "_pow2_fujiwara_bound", cauchy_pow2)
        reference = spectral_outputs(graphs)
        monkeypatch.undo()
        changed = 0
        for (command, precision), outputs in got.items():
            if precision == FINE_PRECISION:
                assert outputs == reference[command, precision]
                continue
            for out, ref in zip(outputs, reference[command, precision]):
                changed += out != ref
                if command == "energy":
                    assert within(out, ref)
                    continue
                assert within(out[0], ref[0])
                assert len(out[1]) == len(ref[1])
                for (lo, hi, m), (ref_lo, ref_hi, ref_m) in zip(out[1],
                                                                ref[1]):
                    assert m == ref_m and within((lo, hi), (ref_lo, ref_hi))
        assert changed > 0
        # K_4 minus an edge: the positive root 2.56 of x^2 - x - 4 is
        # alone in (0, T) = (0, 4) at width 8, where the start at Cauchy's
        # power of two gave (0, 8)
        assert spectra.energy(parse_sequence("0011"), 16) == (0, 8)

    def test_certified_power_of_two(self):
        rng = random.Random(1916)
        polys = [(-1, 1), (1 << 3000, -(1 << 3000)),
                 tuple(10 ** 400 * c for c in (-2, 0, 1)),
                 mul((-(10 ** 400), 1), (3, 10 ** 350))]
        for d in (1, 2, 3, 7, 16):
            for c in (1, 2, 3, 1 << 40, 10 ** 30):
                polys += [(-c,) + (0,) * (d - 1) + (1,),
                          (c,) + (0,) * (d - 1) + (1,)]
        for k in (0, 1, 5, 60):
            for m in (1, 2, 3):
                polys.append(poly_pow((-(1 << k), 1), m))
                polys.append(poly_pow((1 << k, 1), m))
        for _ in range(150):
            d = rng.randint(1, 40)
            size = 1 << rng.choice((3, 30, 200))
            p = [rng.randint(-size, size) for _ in range(d)]
            p[0] = p[0] or 1
            lead = rng.randint(1, 1 << rng.choice((0, 10, 100)))
            polys.append(tuple(p) + (rng.choice((-1, 1)) * lead,))
        for p in polys:
            top, bound = roots._pow2_fujiwara_bound(p), cauchy_pow2(p)
            assert top == least_pow2_above_fujiwara(p)
            assert top & (top - 1) == 0 and 1 <= top <= bound
            assert sign_at(p, top, 1) != 0 and sign_at(p, -top, 1) != 0
            # a Sturm chain of degree 25 or more with 200-bit coefficients
            # takes a second; the comparison above checks Fujiwara's bound
            small = len(p) <= 25 or max(map(abs, p)).bit_length() <= 40
            for factor in square_free_factors(p) if small else ():
                chain = sturm_chain(factor)
                for x, far in ((top, bound), (-top, -bound)):
                    assert (roots._variations(chain, x, 1)
                            == roots._variations(chain, far, 1))

    def test_sturm_counts_of_the_family_checks(self, monkeypatch):
        # Sturm's integer strips of `exact_energy_equal` on the 40 family
        # pairs: 2,666 counts from Cauchy's bound, 734 from the Fujiwara one
        calls, real = [0], roots._variations

        def counted(chain, num, den):
            calls[0] += 1
            return real(chain, num, den)

        monkeypatch.setattr(roots, "_variations", counted)
        for family in FamilyId:
            for i in range(1, 21):
                pair = family_pair(family, i)
                assert exact_energy_equal(pair.g, pair.g_prime) is True
        assert calls[0] <= 734

    def test_pivot_counts_of_deep_targets(self, monkeypatch):
        # one energy-deepprec pass under seed 1, 126 queries at 1e-50,
        # 1e-100 and 1e-200: 2,283 pivot counts from Cauchy's bound, 930
        # from the Fujiwara one, 804 with no count taken at Cauchy's bound
        queries = deepprec_reference_forms(monkeypatch, seed=1)
        assert len(queries) == 126
        calls, real = [0], spectra._roots_above

        def counted(counts, num, den):
            calls[0] += 1
            return real(counts, num, den)

        monkeypatch.setattr(spectra, "_roots_above", counted)
        for form, precision in queries:
            spectra.energy(parse_sequence(form), precision)
        assert calls[0] <= 804

    def test_counter_route_takes_no_count_at_cauchys_bound(self,
                                                           monkeypatch):
        # no root lies above T or Cauchy's bound, so a counter's count
        # there is 0 and bisection does not ask for it
        for form in deepprec_reference_forms(monkeypatch):
            counts, rest = energy_parts(form)
            taken = []

            def recorded(num, den):
                taken.append((num, den))
                return spectra._roots_above(counts, num, den)

            roots._subdivide(rest, recorded, None)
            assert taken[0] == (0, 1)
            assert (roots._pow2_fujiwara_bound(rest), 1) not in taken
            assert (cauchy_pow2(rest), 1) not in taken
