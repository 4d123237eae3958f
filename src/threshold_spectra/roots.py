"""Guaranteed real-root isolation for integer polynomials.

Roots are located by sign-change bisection steered by a Sturm sequence,
entirely in exact arithmetic.  Multiple roots are handled by square-free
decomposition first, so every bisected polynomial is square-free.  All
interval endpoints are dyadic rationals by construction; a bisection
midpoint that lands exactly on a root is reported as a point enclosure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

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


def sign_at(p: Poly, num: int, den: int) -> int:
    """Sign of p(num/den) for den > 0, computed with integer Horner steps."""
    if not p:
        return 0
    acc = p[-1]
    dp = 1
    for i in range(len(p) - 2, -1, -1):
        dp *= den
        acc = acc * num + p[i] * dp
    return (acc > 0) - (acc < 0)


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

    __slots__ = ("poly", "lo_num", "hi_num", "den", "sign_lo", "mult")

    def __init__(self, poly: Optional[Poly], lo_num: int, hi_num: int,
                 den: int, sign_lo: int, mult: int):
        self.poly = poly
        self.lo_num = lo_num
        self.hi_num = hi_num
        self.den = den
        self.sign_lo = sign_lo
        self.mult = mult

    @property
    def is_point(self) -> bool:
        return self.lo_num == self.hi_num

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_num, self.den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_num, self.den)

    def halve(self) -> None:
        """One bisection step preserving the sign-change invariant."""
        if self.is_point:
            return
        lo2, hi2, den2 = self.lo_num << 1, self.hi_num << 1, self.den << 1
        mid = (lo2 + hi2) >> 1
        s = sign_at(self.poly, mid, den2)
        if s == 0:
            self.lo_num = self.hi_num = mid
        elif s == self.sign_lo:
            self.lo_num, self.hi_num = mid, hi2
        else:
            self.lo_num, self.hi_num = lo2, mid
        self.den = den2

    def refine_to(self, width: Fraction) -> None:
        wn, wd = width.numerator, width.denominator
        while not self.is_point and (self.hi_num - self.lo_num) * wd > wn * self.den:
            self.halve()


def _isolate_squarefree(g: Poly) -> tuple[list[tuple[int, int]], Poly,
                                          list[tuple[int, int, int]]]:
    """Isolate the real roots of a square-free polynomial.

    Returns (exact dyadic roots as (num, den) pairs, the polynomial with
    those roots divided out, isolating open intervals (lo, hi, den) each
    containing exactly one root of the reduced polynomial).
    """
    exact: list[tuple[int, int]] = []
    while True:
        while g and g[0] == 0:
            exact.append((0, 1))
            g = normalize(g[1:])
        if degree(g) < 1:
            return exact, g, []
        hit, intervals = _subdivide(g)
        if hit is None:
            return exact, g, intervals
        exact.append(hit)
        num, den = hit
        root = Fraction(num, den)
        reduced = divide_exact(g, (-root.numerator, root.denominator))
        assert reduced is not None, "exact bisection hit must be a root"
        g = reduced


def _subdivide(g: Poly) -> tuple[Optional[tuple[int, int]],
                                 list[tuple[int, int, int]]]:
    """Split (-bound, 0) and (0, bound) until each piece holds <= 1 root.

    If a midpoint evaluates to zero the dyadic hit is returned instead so
    the caller can divide it out and restart; endpoints of every counted
    interval are therefore never roots.
    """
    chain = sturm_chain(g)
    bound = _pow2_root_bound(g)
    v_lo = _variations(chain, -bound, 1)
    v_zero = _variations(chain, 0, 1)
    v_hi = _variations(chain, bound, 1)
    stack = [(-bound, 0, 1, v_lo, v_zero), (0, bound, 1, v_zero, v_hi)]
    found: list[tuple[int, int, int]] = []
    while stack:
        lo, hi, den, vlo, vhi = stack.pop()
        count = vlo - vhi
        if count <= 0:
            continue
        if count == 1:
            found.append((lo, hi, den))
            continue
        lo2, hi2, den2 = lo << 1, hi << 1, den << 1
        mid = (lo2 + hi2) >> 1
        if sign_at(g, mid, den2) == 0:
            return (mid, den2), []
        vmid = _variations(chain, mid, den2)
        stack.append((lo2, mid, den2, vlo, vmid))
        stack.append((mid, hi2, den2, vmid, vhi))
    return None, found


def _separate(encs: list[_Enclosure]) -> None:
    """Refine until the closed enclosures are pairwise strictly disjoint.

    This terminates: the enclosures hold pairwise distinct roots, because
    the square-free factors are coprime and each factor's point roots are
    divided out of the polynomial its intervals isolate.  So a clash needs
    a non-point member at least half as wide as the least gap between the
    roots, and every clashing non-point enclosure halves around its own
    root: only finitely many rounds can clash.
    """
    while True:
        encs.sort(key=lambda e: (e.lo, e.hi))
        clash = False
        for a, b in zip(encs, encs[1:]):
            if a.hi >= b.lo:
                clash = True
                a.halve()
                b.halve()
        if not clash:
            return


def isolate_real_roots(p: Poly, width: Rational) -> list[RootEnclosure]:
    """Disjoint enclosures of all real roots of p, with multiplicities.

    Every enclosure has width at most `width`; enclosures are sorted in
    ascending order and never straddle zero.  Multiplicities come from an
    exact square-free decomposition, so the count of enclosures weighted
    by multiplicity equals the number of real roots of p with multiplicity.
    """
    if not p:
        raise ValueError("cannot isolate roots of the zero polynomial")
    w = Fraction(width)
    if w <= 0:
        raise ValueError(f"width must be positive, got {width}")
    encs: list[_Enclosure] = []
    for factor, mult in square_free_decomposition(p):
        exact, reduced, intervals = _isolate_squarefree(factor)
        for num, den in exact:
            encs.append(_Enclosure(None, num, num, den, 0, mult))
        for lo, hi, den in intervals:
            enc = _Enclosure(reduced, lo, hi, den,
                             sign_at(reduced, lo, den), mult)
            enc.refine_to(w)
            encs.append(enc)
    _separate(encs)
    out = [RootEnclosure(e.lo, e.hi, e.mult) for e in encs]
    out.sort(key=lambda r: (r.lo, r.hi))
    return out
