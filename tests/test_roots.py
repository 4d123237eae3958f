import random
import time
from fractions import Fraction

import pytest

from threshold_spectra import roots
from threshold_spectra.intpoly import (
    evaluate,
    mul,
    normalize,
    poly_pow,
    square_free_decomposition,
)
from threshold_spectra.linalg import charpoly
from threshold_spectra.roots import isolate_real_roots, sign_at, sturm_chain
from threshold_spectra.sequences import adjacency_matrix, nth_connected

WIDTH = Fraction(1, 1000)


def contains_root(poly, enc):
    if enc.is_point:
        return evaluate(poly, enc.lo) == 0
    lo = sign_at(poly, enc.lo.numerator, enc.lo.denominator)
    hi = sign_at(poly, enc.hi.numerator, enc.hi.denominator)
    return lo * hi < 0


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


def sturm_above(p):
    """Reference root counter for the `above` route: roots of p above
    num/den with multiplicity, from the Sturm chains of its square-free
    factors."""
    bound = roots._pow2_root_bound(p)
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
                den = enc.lo.denominator
                assert den & (den - 1) == 0  # dyadic endpoints
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


def bisection_refine(enc, width):
    """The specification of `_Enclosure.refine_to`: plain bisection."""
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


def bisected_roots(p, width):
    """`isolate_real_roots` with its refinement replaced by bisection."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots._Enclosure, "refine_to", bisection_refine)
        return isolate_real_roots(p, width)


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
# Dyadic roots that isolation does not hit, each found by a different
# branch of the refinement (checked by instrumenting a copy): 3/8 at the
# secant's grid point, 1/4 at its neighbour, 7/8 by the fallback `halve`.
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
                _, reduced, intervals = roots._isolate(factor, None)
                for lo, hi, den in intervals:
                    enc = roots._Enclosure(reduced, lo, hi, den,
                                           sign_at(reduced, lo, den), 1)
                    enc.refine_to(width)
                    if Fraction(hi - lo, den) <= width:
                        assert (enc.lo, enc.hi) == (Fraction(lo, den),
                                                    Fraction(hi, den))
                    elif enc.is_point:
                        assert evaluate(reduced, enc.lo) == 0
                    else:
                        assert width / 2 < enc.hi - enc.lo <= width
                        assert enc.den & (enc.den - 1) == 0
                        assert (sign_at(reduced, enc.lo_num, enc.den)
                                * sign_at(reduced, enc.hi_num, enc.den)) < 0

    @pytest.mark.parametrize("width", REFINE_WIDTHS)
    @pytest.mark.parametrize("p, root", DYADIC)
    def test_dyadic_root_is_a_point(self, p, root, width):
        encs = isolate_real_roots(p, width)
        assert roots.RootEnclosure(root, root, 1) in encs
        assert sum(e.is_point for e in encs) == 1


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
