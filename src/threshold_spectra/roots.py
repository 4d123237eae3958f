"""Guaranteed real-root isolation for integer polynomials.

Roots are isolated by bisection steered by a Sturm sequence and then
refined by quadratic interval refinement (QIR), entirely in exact
arithmetic.  Isolation searches (-bound, 0) and (0, bound), or only
(0, bound) when just the positive roots are wanted, as for graph energy.
Multiple roots are handled by square-free decomposition first, so every
isolated polynomial is square-free.  Every enclosure is certified by
exact signs: p has opposite signs at its two endpoints.  All interval
endpoints are dyadic rationals by construction, and refinement never
goes deeper than the target width needs, so it ends on the same dyadic
cell as plain bisection.  A dyadic point that lands exactly on a root is
reported as a point enclosure.
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
                 "value_lo")

    def __init__(self, poly: Optional[Poly], lo_num: int, hi_num: int,
                 den: int, sign_lo: int, mult: int,
                 value_lo: Optional[int] = None):
        self.poly = poly
        self.lo_num = lo_num
        self.hi_num = hi_num
        self.den = den
        self.sign_lo = sign_lo
        self.mult = mult
        # value_at(poly, lo_num, den) when the caller already computed it,
        # else None; `refine_to` takes it instead of evaluating lo again
        self.value_lo = value_lo

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
        self.value_lo = None
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
        are evaluated: the value at lo comes from `value_lo` when the
        caller had it, and a fallback step reuses the midpoint value
        that `halve` returns.
        """
        lo, hi, den = self.lo_num, self.hi_num, self.den
        wn, wd = width.numerator, width.denominator
        if (hi - lo) * wd <= wn * den:  # also true of a point
            return
        poly, positive_lo = self.poly, self.sign_lo > 0
        deg = len(poly) - 1
        v_lo, self.value_lo = self.value_lo, None
        if v_lo is None:
            v_lo = value_at(poly, lo, den)
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


def _isolate_squarefree(g: Poly, positive: bool = False
                        ) -> tuple[list[tuple[int, int]], Poly,
                                   list[tuple[int, int, int]]]:
    """Isolate the real roots of a square-free polynomial, or only its
    positive roots when `positive` is true.

    Returns (exact dyadic roots as (num, den) pairs, the polynomial with
    those roots divided out, isolating open intervals (lo, hi, den) each
    containing exactly one root of the reduced polynomial).
    """
    exact: list[tuple[int, int]] = []
    while True:
        while g and g[0] == 0:
            if not positive:
                exact.append((0, 1))
            g = normalize(g[1:])
        if degree(g) < 1:
            return exact, g, []
        hit, intervals = _subdivide(g, positive)
        if hit is None:
            return exact, g, intervals
        exact.append(hit)
        num, den = hit
        root = Fraction(num, den)
        reduced = divide_exact(g, (-root.numerator, root.denominator))
        assert reduced is not None, "exact bisection hit must be a root"
        g = reduced


def _subdivide(g: Poly, positive: bool) -> tuple[Optional[tuple[int, int]],
                                                list[tuple[int, int, int]]]:
    """Split (0, bound), and (-bound, 0) unless `positive`, until each
    piece holds <= 1 root of g, which must not vanish at 0.

    If a midpoint evaluates to zero the dyadic hit is returned instead so
    the caller can divide it out and restart; endpoints of every counted
    interval are therefore never roots.
    """
    chain = sturm_chain(g)
    bound = _pow2_root_bound(g)
    v_zero = _variations(chain, 0, 1)
    v_hi = _variations(chain, bound, 1)
    stack = [(0, bound, 1, v_zero, v_hi)]
    if not positive:
        # popped last: the positive half is searched first in both modes
        stack.insert(0, (-bound, 0, 1, _variations(chain, -bound, 1), v_zero))
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
    """Refine until the closed enclosures are pairwise strictly disjoint,
    and leave them sorted by (lo, hi): the last round sorts and halves
    nothing.

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


def isolate_real_roots(p: Poly, width: Rational,
                       positive: bool = False) -> list[RootEnclosure]:
    """Disjoint enclosures of all real roots of p, with multiplicities, or
    of its positive roots only when `positive` is true.

    Every enclosure has width at most `width`; enclosures are sorted in
    ascending order and never straddle zero.  Multiplicities come from an
    exact square-free decomposition, so the count of enclosures weighted
    by multiplicity equals the number of real roots of p (positive roots
    of p when `positive`) with multiplicity.  With `positive` the search
    starts from (0, bound) and never visits the negative half-line: no
    Sturm count, subdivision or refinement is spent on negative roots.
    """
    if not p:
        raise ValueError("cannot isolate roots of the zero polynomial")
    w = Fraction(width)
    if w <= 0:
        raise ValueError(f"width must be positive, got {width}")
    encs: list[_Enclosure] = []
    for factor, mult in square_free_decomposition(p):
        exact, reduced, intervals = _isolate_squarefree(factor, positive)
        for num, den in exact:
            encs.append(_Enclosure(None, num, num, den, 0, mult))
        for lo, hi, den in intervals:
            v_lo = value_at(reduced, lo, den)
            enc = _Enclosure(reduced, lo, hi, den, (v_lo > 0) - (v_lo < 0),
                             mult, v_lo)
            enc.refine_to(w)
            encs.append(enc)
    _separate(encs)
    return [RootEnclosure(e.lo, e.hi, e.mult) for e in encs]
