"""Guaranteed real-root isolation for integer polynomials.

Roots are isolated by bisection steered by root counts and then refined
by quadratic interval refinement (QIR), entirely in exact arithmetic.
Isolation searches (-bound, 0) and (0, bound) with Sturm sequences of
the square-free factors of p, so multiple roots carry their
multiplicity.  For graph energy only the positive roots are wanted and
the caller can count them faster than Sturm can: given a root counter
`above`, isolation searches only (0, bound) and splits on its counts,
with no Sturm chain and no square-free decomposition.  Every enclosure
is certified by exact signs: p has opposite signs at its two endpoints,
which is checked for every isolating interval whichever counter split
it.  All interval endpoints are dyadic rationals by construction, and
refinement never goes deeper than the target width needs, so it ends on
the same dyadic cell as plain bisection.  A dyadic point that lands
exactly on a root is reported as a point enclosure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Optional, Union

from .intpoly import (
    Poly,
    degree,
    derivative,
    divide_exact,
    mul_scalar,
    normalize,
    primitive_part,
    _pseudo_rem,
    square_free_decomposition,
)

Rational = Union[int, Fraction]
# (num, den) -> number of roots above num/den >= 0, with multiplicity
RootCounter = Callable[[int, int], int]


@dataclass(frozen=True)
class RootEnclosure:
    """A closed rational interval certified to contain `multiplicity` roots."""

    lo: Fraction
    hi: Fraction
    multiplicity: int

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def value_at(p: Poly, num: int, den: int) -> int:
    """p(num/den) * den**deg(p) for den > 0, by integer Horner steps.

    The result is an integer with the sign of p(num/den); on one shared
    denominator, values keep the ratios of the values of p.
    """
    if not p:
        return 0
    acc = p[-1]
    dp = 1
    for i in range(len(p) - 2, -1, -1):
        dp *= den
        acc = acc * num + p[i] * dp
    return acc


def sign_at(p: Poly, num: int, den: int) -> int:
    """Sign of p(num/den) for den > 0."""
    v = value_at(p, num, den)
    return (v > 0) - (v < 0)


def sturm_chain(g: Poly) -> list[Poly]:
    """Sturm sequence of a square-free g, primitive-normalized at each step.

    Remainders are rescaled only by positive integers, which leaves every
    sign evaluation identical to the classical rational chain.
    """
    chain = [g, derivative(g)]
    while chain[-1]:
        prev, cur = chain[-2], chain[-1]
        if degree(cur) < 0:
            break
        rem, steps = _pseudo_rem(prev, cur)
        if not rem:
            break
        # rem = lc(cur)^steps * true remainder; flip to minus the true
        # remainder without introducing a negative scale factor.
        lead_sign = 1 if (cur[-1] > 0 or steps % 2 == 0) else -1
        chain.append(primitive_part(mul_scalar(rem, -lead_sign)))
    return chain


def _variations(chain: list[Poly], num: int, den: int) -> int:
    count = 0
    prev = 0
    for g in chain:
        s = sign_at(g, num, den)
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _pow2_root_bound(p: Poly) -> int:
    """A power of two strictly exceeding the magnitude of every root."""
    lead = abs(p[-1])
    biggest = max(abs(c) for c in p[:-1]) if len(p) > 1 else 0
    bound = 1 + -(-biggest // lead)
    m = 1
    while m < bound:
        m <<= 1
    return m


class _Enclosure:
    """Mutable working enclosure; endpoints are lo_num/den and hi_num/den."""

    __slots__ = ("poly", "lo_num", "hi_num", "den", "sign_lo", "mult",
                 "value_lo", "value_hi")

    def __init__(self, poly: Optional[Poly], lo_num: int, hi_num: int,
                 den: int, sign_lo: int, mult: int,
                 value_lo: Optional[int] = None,
                 value_hi: Optional[int] = None):
        self.poly = poly
        self.lo_num = lo_num
        self.hi_num = hi_num
        self.den = den
        self.sign_lo = sign_lo
        self.mult = mult
        # value_at(poly, lo_num, den) and value_at(poly, hi_num, den) when
        # the caller already computed them, else None; `refine_to` takes
        # them instead of evaluating the endpoints again
        self.value_lo = value_lo
        self.value_hi = value_hi

    @property
    def is_point(self) -> bool:
        return self.lo_num == self.hi_num

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_num, self.den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_num, self.den)

    def halve(self) -> int:
        """One bisection step preserving the sign-change invariant.

        Returns the value of p at the midpoint on the new denominator (0
        for a point enclosure), so a caller carrying endpoint values need
        not evaluate it again.
        """
        if self.is_point:
            return 0
        lo2, hi2, den2 = self.lo_num << 1, self.hi_num << 1, self.den << 1
        mid = (lo2 + hi2) >> 1
        v = value_at(self.poly, mid, den2)
        if v == 0:
            self.lo_num = self.hi_num = mid
        elif (v > 0) == (self.sign_lo > 0):
            self.lo_num, self.hi_num = mid, hi2
        else:
            self.lo_num, self.hi_num = lo2, mid
        self.den = den2
        self.value_lo = self.value_hi = None
        return v

    def refine_to(self, width: Fraction) -> None:
        """Refine until the width is at most `width`, by quadratic interval
        refinement (QIR: Abbott 2006; Kerber & Sagraloff, ISSAC 2011).

        A step cuts [lo, hi] into N = 2^k equal cells and takes the grid
        point j nearest the secant root, clamped to 1..N-1.  The exact
        sign of p there tells on which side of j the root lies; the cell
        next to j on that side is accepted only if p has opposite exact
        signs at its two endpoints, so every enclosure stays certified.
        On success k doubles.  On failure k halves and one `halve` step
        runs, so every step shrinks the enclosure by at least one
        bisection step and the loop terminates.  A grid point where p is
        0 is the root, and the enclosure becomes that point.

        No overshoot: k never exceeds the shift that brings the width to
        the target.  Each enclosure is the cell holding the root in the
        dyadic grid that cuts the starting interval into 2^depth cells,
        and the loop stops at the first depth whose cells fit the target.
        Plain bisection stops at the same depth, so the result is its
        cell: the same denominator and the same numerators.

        The values of p at the endpoints, scaled to the current
        denominator, are carried from step to step, so only new points
        are evaluated: the endpoint values come from `value_lo` and
        `value_hi` when the caller had them, and a fallback step reuses
        the midpoint value that `halve` returns.
        """
        lo, hi, den = self.lo_num, self.hi_num, self.den
        wn, wd = width.numerator, width.denominator
        if (hi - lo) * wd <= wn * den:  # also true of a point
            return
        poly, positive_lo = self.poly, self.sign_lo > 0
        deg = len(poly) - 1
        v_lo, v_hi = self.value_lo, self.value_hi
        self.value_lo = self.value_hi = None
        if v_lo is None:
            v_lo = value_at(poly, lo, den)
        if v_hi is None:
            v_hi = value_at(poly, hi, den)
        k = 2
        while (hi - lo) * wd > wn * den:
            gap = hi - lo
            k = min(k, ((gap * wd - 1) // (wn * den)).bit_length())
            n, shift = 1 << k, k * deg
            # grid index nearest the secant root n * v_lo / (v_lo - v_hi)
            diff = v_lo - v_hi
            top = n * v_lo if diff > 0 else -n * v_lo
            diff = abs(diff)
            j = min(max((2 * top + diff) // (2 * diff), 1), n - 1)
            den2 = den << k
            x = (lo << k) + j * gap
            v = value_at(poly, x, den2)
            right = (v > 0) == positive_lo
            if v == 0:
                y, u = x, 0  # x is the root
            elif right:
                y = x + gap
                u = v_hi << shift if j == n - 1 else value_at(poly, y, den2)
            else:
                y = x - gap
                u = v_lo << shift if j == 1 else value_at(poly, y, den2)
            if u == 0:
                self.lo_num = self.hi_num = y
                self.den = den2
                return
            if ((u > 0) == positive_lo) != right:
                # p changes sign across the cell between x and y
                lo, hi, v_lo, v_hi = (x, y, v, u) if right else (y, x, u, v)
                den = den2
                k <<= 1
                continue
            k >>= 1
            self.lo_num, self.hi_num, self.den = lo, hi, den
            v_mid = self.halve()
            if self.is_point:
                return
            if self.lo_num == lo << 1:
                v_lo, v_hi = v_lo << deg, v_mid
            else:
                v_lo, v_hi = v_mid, v_hi << deg
            lo, hi, den = self.lo_num, self.hi_num, self.den
        self.lo_num, self.hi_num, self.den = lo, hi, den


def _isolate(g: Poly, above: Optional[RootCounter]
             ) -> tuple[list[Fraction], Poly, list[tuple[int, int, int]]]:
    """Isolate the real roots of g, a square-free factor, or with `above`
    the positive roots of g itself.

    Returns (exact dyadic roots, each divided out as often as it divides
    and listed once per division, the polynomial with those roots divided
    out, isolating open intervals (lo, hi, den) each containing exactly
    one root of the reduced polynomial).
    """
    exact: list[Fraction] = []
    while True:
        while g and g[0] == 0:
            if above is None:
                exact.append(Fraction(0))
            g = normalize(g[1:])
        if degree(g) < 1:
            return exact, g, []
        hit, intervals = _subdivide(g, above, exact)
        if hit is None:
            return exact, g, intervals
        root = (-hit.numerator, hit.denominator)
        reduced = divide_exact(g, root)
        assert reduced is not None, "exact bisection hit must be a root"
        while reduced is not None:  # more than once only with `above`
            exact.append(hit)
            g, reduced = reduced, divide_exact(reduced, root)


def _separation_exponent(g: Poly) -> int:
    """m with 2^-m below the Mahler-Mignotte bound on the distance between
    two roots of g, if g is square-free: sqrt(3) |disc|^(1/2)
    d^(-(d+2)/2) ||g||_2^(1-d), with |disc| >= 1 for integer g."""
    d = len(g) - 1
    norm2 = sum(c * c for c in g)
    return ((d + 2) * d.bit_length() + (d - 1) * norm2.bit_length() + 1) // 2


def _subdivide(g: Poly, above: Optional[RootCounter], hits: list[Fraction]
               ) -> tuple[Optional[Fraction], list[tuple[int, int, int]]]:
    """Split (0, bound), and (-bound, 0) without `above`, until each piece
    holds <= 1 root of g, which must not vanish at 0.

    Roots in a piece (lo, hi] are counted as count(lo) - count(hi): Sturm
    variations of g, or `above` less the roots divided out of the
    polynomial it counts (`hits`).  A midpoint that can be a root of g,
    because its reduced denominator divides the leading coefficient
    (rational root theorem: only integers when g is monic), is tested
    with `sign_at`; on a zero the dyadic hit is returned instead so the
    caller can divide it out and restart.  Endpoints of every counted
    interval are therefore never roots.  A piece that counts two or more
    roots although it is narrower than the separation bound raises
    ArithmeticError, so a wrong count or a multiple root cannot make the
    split run forever.
    """
    if above is None:
        chain = sturm_chain(g)

        def count(num: int, den: int) -> int:
            return _variations(chain, num, den)
    else:
        def count(num: int, den: int) -> int:
            return above(num, den) - sum(h * den > num for h in hits)
    bound = _pow2_root_bound(g)
    c_zero = count(0, 1)
    stack = [(0, bound, 1, c_zero, count(bound, 1))]
    if above is None:
        # popped last: the positive half is searched first in both modes
        stack.insert(0, (-bound, 0, 1, count(-bound, 1), c_zero))
    lead, sep = g[-1], _separation_exponent(g)
    found: list[tuple[int, int, int]] = []
    while stack:
        lo, hi, den, clo, chi = stack.pop()
        roots_in = clo - chi
        if roots_in <= 0:
            continue
        if roots_in == 1:
            found.append((lo, hi, den))
            continue
        if (hi - lo) << sep <= den:
            raise ArithmeticError(
                f"{roots_in} roots counted in an interval narrower than "
                "the root separation bound")
        lo2, hi2, den2 = lo << 1, hi << 1, den << 1
        mid = (lo2 + hi2) >> 1
        if (lead % (den2 // gcd(mid, den2)) == 0
                and sign_at(g, mid, den2) == 0):
            return Fraction(mid, den2), []
        cmid = count(mid, den2)
        stack.append((lo2, mid, den2, clo, cmid))
        stack.append((mid, hi2, den2, cmid, chi))
    return None, found


def _separate(encs: list[_Enclosure]) -> None:
    """Refine until the closed enclosures are pairwise strictly disjoint,
    and leave them sorted by (lo, hi): the last round sorts and halves
    nothing.

    Every denominator is a power of two, so a round sorts on numerators
    scaled to its largest denominator and compares neighbours by cross
    multiplication, never building a Fraction.

    This terminates: the enclosures hold pairwise distinct roots, because
    the square-free factors are coprime (with a root counter p is the one
    factor) and each factor's point roots are divided out of the
    polynomial its intervals isolate as often as they divide, and merged
    into one point each.  So a clash needs
    a non-point member at least half as wide as the least gap between the
    roots, and every clashing non-point enclosure halves around its own
    root: only finitely many rounds can clash.
    """
    while True:
        top = max(e.den for e in encs) if encs else 1
        encs.sort(key=lambda e: (e.lo_num * (top // e.den),
                                 e.hi_num * (top // e.den)))
        clash = False
        for a, b in zip(encs, encs[1:]):
            if a.hi_num * b.den >= b.lo_num * a.den:
                clash = True
                a.halve()
                b.halve()
        if not clash:
            return


def isolate_real_roots(p: Poly, width: Rational,
                       above: Optional[RootCounter] = None
                       ) -> list[RootEnclosure]:
    """Disjoint enclosures of all real roots of p, with multiplicities, or
    of its positive roots only when a root counter `above` is given.

    Every enclosure has width at most `width`; enclosures are sorted in
    ascending order and never straddle zero.  Without `above`,
    multiplicities come from an exact square-free decomposition and
    every square-free factor is isolated with its Sturm chain.  With
    `above`, where above(num, den) must be the number of roots of p above
    num/den >= 0 with multiplicity, the search splits (0, bound) on those
    counts alone: no Sturm chain, no square-free decomposition and no
    visit to the negative half-line.  Either way the count of enclosures
    weighted by multiplicity equals the number of real (with `above`,
    positive) roots of p.

    Two guards keep a count that is wrong from giving a wrong answer or
    none: every isolating interval must show opposite exact signs of p at
    its endpoints, and a piece still counting two or more roots below the
    Mahler-Mignotte separation bound stops the split; both raise
    ArithmeticError.  A dyadic root found exactly is divided out as often
    as it divides and reported as a point with that multiplicity; a
    non-dyadic multiple root makes the `above` route raise.
    """
    if not p:
        raise ValueError("cannot isolate roots of the zero polynomial")
    w = Fraction(width)
    if w <= 0:
        raise ValueError(f"width must be positive, got {width}")
    factors = ([(p, 1)] if above is not None
               else square_free_decomposition(p))
    encs: list[_Enclosure] = []
    for factor, mult in factors:
        exact, reduced, intervals = _isolate(factor, above)
        for root, times in Counter(exact).items():
            num, den = root.numerator, root.denominator
            encs.append(_Enclosure(None, num, num, den, 0, mult * times))
        for lo, hi, den in intervals:
            v_lo = value_at(reduced, lo, den)
            v_hi = value_at(reduced, hi, den)
            if not (v_lo > 0 > v_hi or v_lo < 0 < v_hi):
                raise ArithmeticError(
                    "isolating interval without a sign change of the "
                    "polynomial")
            enc = _Enclosure(reduced, lo, hi, den, 1 if v_lo > 0 else -1,
                             mult, v_lo, v_hi)
            enc.refine_to(w)
            encs.append(enc)
    _separate(encs)
    return [RootEnclosure(e.lo, e.hi, e.mult) for e in encs]
