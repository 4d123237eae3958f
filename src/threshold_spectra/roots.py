"""Guaranteed real-root isolation for integer polynomials.

Roots are isolated by bisection steered by root counts and then refined
by quadratic interval refinement (QIR) to the cell that bisection would
reach.  Every enclosure is decided in exact arithmetic: floats only
propose roots for the energy route, and exact signs certify every cell.
Every route starts from one power of two T above the magnitude of every
root, the least above Fujiwara's bound or Cauchy's, whichever is less
(`_pow2_fujiwara_bound`), and every target grid is keyed to it.
Isolation searches (-T, 0) and (0, T) with Sturm sequences of the
square-free factors of p, so multiple roots carry their multiplicity.
For graph energy only the positive roots are wanted and the caller can
count them faster than Sturm can: given a root counter `above`,
isolation searches only (0, T), with no Sturm chain and no square-free
decomposition.  That route tries floats first: one float pass from T
finds the positive roots, each goes to its cell of the dyadic grid on
which refinement would end, and exact signs at the cell ends and one
count, at 0, certify the cells, so neither bisection nor refinement has
anything left to do (`_float_cells`).  Where floats cannot tell, as for
targets too deep for them, the route splits (0, T) on the counter's
counts instead.  Every enclosure is certified by exact signs: p has
opposite signs at its two endpoints, which is checked for every
isolating interval whichever route made it.
Bisection is one pass: a midpoint that lands exactly on a root is
divided out of the polynomial in place, as often as it divides, and the
split goes on with the same counter, so the root is reported as one
point enclosure with that multiplicity.  All interval endpoints are
dyadic rationals by construction: every denominator is a power of two,
kept as one, so an exact evaluation shifts the coefficients in where it
would multiply by powers of the denominator (`value_at`), and a
`RootEnclosure` keeps two numerators over one, in lowest terms, building
no Fraction until asked for `lo`, `hi`, `width` or `midpoint`.
Refinement never goes deeper than the target width needs, so every route
ends on the same dyadic cell as plain bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import isfinite, ldexp, sqrt
from sys import float_info
from typing import Callable, Optional, Union

from .intpoly import (
    Poly,
    derivative,
    divide_out,
    neg,
    primitive_part,
    _pseudo_rem,
    square_free_decomposition,
)

Rational = Union[int, Fraction]
# (num, den) -> number of roots strictly above num/den >= 0, with
# multiplicity
RootCounter = Callable[[int, int], int]


@dataclass(frozen=True)
class RootEnclosure:
    """The closed interval [lo_num / den, hi_num / den] certified to contain
    `multiplicity` roots; den is the least power of two over which both
    ends are integers, so equal enclosures have equal fields."""

    lo_num: int
    hi_num: int
    den: int
    multiplicity: int

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_num, self.den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_num, self.den)

    @property
    def is_point(self) -> bool:
        return self.lo_num == self.hi_num

    @property
    def width(self) -> Fraction:
        return Fraction(self.hi_num - self.lo_num, self.den)

    @property
    def midpoint(self) -> Fraction:
        return Fraction(self.lo_num + self.hi_num, 2 * self.den)


def _lowest_terms(lo: int, hi: int, den: int) -> tuple[int, int, int]:
    """The ends lo/den and hi/den, den a power of two, over the least one."""
    common = lo | hi | den
    t = (common & -common).bit_length() - 1
    return lo >> t, hi >> t, den >> t


def value_at(p: Poly, num: int, den: int) -> int:
    """p(num/den) * den**deg(p) for den a power of two, by integer Horner
    steps; any other den raises ValueError.

    The result is an integer with the sign of p(num/den); on one shared
    denominator, values keep the ratios of the values of p.  With den =
    2^s the sum of p_i num^i 2^(s (d - i)) is built by Horner on num alone,
    each coefficient shifted in by its power of den, so no power of den is
    ever multiplied.
    """
    if den <= 0 or den & (den - 1):
        raise ValueError(f"denominator must be a power of two, got {den}")
    s = den.bit_length() - 1
    acc = t = 0
    for c in reversed(p):
        acc = acc * num + (c << t)
        t += s
    return acc


def sign_at(p: Poly, num: int, den: int) -> int:
    """Sign of p(num/den) for den a power of two."""
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
        rem, steps = _pseudo_rem(prev, cur)
        if not rem:
            break
        # rem = lc(cur)^steps * true remainder; flip to minus the true
        # remainder without introducing a negative scale factor.
        lead_sign = 1 if (cur[-1] > 0 or steps % 2 == 0) else -1
        chain.append(primitive_part(neg(rem) if lead_sign > 0 else rem))
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


def _pow2_fujiwara_bound(p: Poly) -> int:
    """The one root bound: a power of two T >= 1 strictly above the
    magnitude of every root, where bisection and the float pass start and
    on which the target grid is keyed.  T is the least power of two above
    Fujiwara's bound, 2 max_k |a_(d-k) / a_d|^(1/k), the a_0 term halved,
    or, where it is less, the least power of two above ceil(max_i |a_i /
    a_d|), which is at least Cauchy's bound 1 + max_i |a_i / a_d|.
    T = 2^e is above Fujiwara's bound iff |a_d| 2^(ek) exceeds 2^k
    |a_(d-k)| (2^(d-1) |a_0| for k = d), so bit lengths fix each e up to
    one and one comparison settles it.  T <= max(1, 4 d r) for the
    largest root magnitude r."""
    lead = abs(p[-1])
    d = len(p) - 1
    e = 0
    for k in range(1, d + 1):
        a = abs(p[d - k]) << (k - (k == d))
        if lead << e * k <= a:
            e = -(-(a.bit_length() - lead.bit_length()) // k)
            if lead << e * k <= a:
                e += 1
    cauchy = -(-max(map(abs, p[:-1]), default=0) // lead)
    return min(1 << e, 1 << cauchy.bit_length())


# Floats place a root on the target grid only when its cells are at least
# about 2^-_FLOAT_BITS of the magnitude of the root, leaving nine of the
# 53 mantissa bits for rounding in evaluation.
_FLOAT_BITS = 44
# Most steps one Laguerre run of `_float_roots` may take; no run on the
# energies of the seeded block forms of tools/compare_outputs.py (14 to 40
# blocks) at 1e-10 takes more than 8.
_FLOAT_STEPS = 64
# A Laguerre run ends after a step below this fraction of x: convergence
# is cubic, so the next step would move x by about 1e-15 of x.
_FLOAT_SETTLED = 1e-5
# Most cells `_float_cells` walks past a float root's nearest grid point
# and its neighbour before it leaves the polynomial to bisection.
_FLOAT_WALK = 8


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
        return v

    def refine_to(self, width: Fraction, v_lo: int, v_hi: int) -> None:
        """Refine until the width is at most `width` by quadratic interval
        refinement (QIR: Abbott 2006; Kerber & Sagraloff, ISSAC 2011).

        The result is the cell holding the root in the dyadic grid that
        cuts the starting interval into 2^D cells, D the first depth whose
        cells fit the target, or the root itself when it is a point of
        that grid: plain bisection's result, with the same denominator and
        the same numerators.

        A QIR step cuts [lo, hi] into N = 2^k equal cells and takes the grid
        point j nearest the secant root, clamped to 1..N-1.  The exact
        sign of p there tells on which side of j the root lies; the cell
        next to j on that side is accepted only if p has opposite exact
        signs at its two endpoints, so every enclosure stays certified.
        The first step takes k = 2.  On success k doubles.  On failure k
        halves and one `halve` step runs, so every step shrinks the
        enclosure by at least one bisection step and the loop terminates.
        A grid point where p is 0 is the root, and the enclosure becomes
        that point.

        No overshoot: every step, QIR or `halve`, keeps the numerator gap
        hi - lo, so the denominator 2^D at which the cells fit the target
        is fixed once per call, and each step compares the denominator
        with it.  k never exceeds the bit-length difference of the two,
        the shift that brings the width to the target, so every QIR
        enclosure is a cell of the dyadic grid on the starting interval,
        and the loop stops at depth D.

        The values of p at the endpoints, scaled to the current
        denominator, are carried from step to step, so only new points
        are evaluated: the caller passes the starting values as `v_lo`
        and `v_hi`, value_at(poly, lo_num, den) and value_at(poly,
        hi_num, den), and a fallback step reuses the midpoint value that
        `halve` returns.
        """
        lo, hi, den = self.lo_num, self.hi_num, self.den
        gap = hi - lo
        # the cells gap / den fit the width once den >= least = ceil(gap /
        # width), that is, den being a power of two, once den >= target
        least = -(-gap * width.denominator // width.numerator)
        if den >= least:  # also true of a point
            return
        target = 1 << (least - 1).bit_length()
        poly, positive_lo = self.poly, self.sign_lo > 0
        deg = len(poly) - 1
        k = 2
        while den < target:
            k = min(k, target.bit_length() - den.bit_length())
            n, shift = 1 << k, k * deg
            # grid index nearest the secant root n * v_lo / (v_lo - v_hi)
            diff = v_lo - v_hi
            top = n * v_lo if diff > 0 else -n * v_lo
            diff = abs(diff)
            j = (2 * top + diff) // (2 * diff)
            base, den2 = lo << k, den << k
            x = base + min(max(j, 1), n - 1) * gap
            v = value_at(poly, x, den2)
            right = (v > 0) == positive_lo
            y = x + gap if right else x - gap
            if v == 0:
                y, u = x, 0
            elif y == base:
                u = v_lo << shift
            elif y == hi << k:
                u = v_hi << shift
            else:
                u = value_at(poly, y, den2)
            if u == 0:  # y is the root
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


def _float_roots(p: Poly, start: float, limit: float,
                 count: Optional[int] = None) -> Optional[list[float]]:
    """The `count` largest positive roots of p in descending order, or
    every positive root without a count, found in floats by Laguerre's
    method with Maehly's implicit deflation (Stoer & Bulirsch,
    Introduction to Numerical Analysis, 5.5); None if floats cannot tell
    or a root is not below `limit`.

    The first run starts at `start`, above every root: bisection's start,
    `_pow2_fujiwara_bound`.  Each later run starts 1e-3 relative
    below the root found last and iterates on p divided by the roots found
    so far, which enter only as the terms 1/(x - z) and 1/(x - z)^2 of
    the logarithmic derivatives.  Those terms cancel against p'/p and
    p''/p, whose rounding grows as x nears a root, so a start closer than
    about 1e-3 loses the second derivative to rounding and the step jumps
    past the next root; a start further down may pass a root instead,
    which the count then shows.  On a real-rooted p every run descends to
    the next root without passing it.  A run ends after a step below
    `_FLOAT_SETTLED` = 1e-5 of x, or when its steps stop shrinking, as
    they do where rounding dominates sooner.  Laguerre's method converges
    cubically near a simple root: a step of 1e-5 x leaves an error of
    about 1e-15 x, the rounding of the evaluation itself, so a further
    step would only repeat it.  Given a count, the pass ends after
    `count` roots and takes no run below the smallest of them; without
    one, or short of it, it ends when a run steps to 0 or below, one
    step past the smallest positive root.  A run that does not settle
    within `_FLOAT_STEPS` steps, an infinite or undefined value,
    coefficients beyond float range, or a root not below the previous
    one return None.
    """
    try:
        lead, *rest = [float(c) for c in reversed(p)]
        x = start
        found: list[float] = []
        m = len(rest)  # degree of p divided by the roots found
        while m and len(found) != count:
            last = float("inf")
            for _ in range(_FLOAT_STEPS):
                f, df, half_ddf = lead, 0.0, 0.0
                for c in rest:
                    half_ddf = half_ddf * x + df
                    df = df * x + f
                    f = f * x + c
                if f == 0:
                    break
                g = df / f
                h = g * g - 2.0 * half_ddf / f
                for z in found:
                    d = 1.0 / (x - z)
                    g -= d
                    h -= d * d
                spread = sqrt(max((m - 1) * (m * h - g * g), 0.0))
                step = m / (g + spread if g >= 0 else g - spread)
                if not isfinite(step):
                    return None
                if not abs(step) < last:
                    break
                last = abs(step)
                x -= step
                if x <= 0:
                    return found
                if last < x * _FLOAT_SETTLED:
                    break
            else:
                return None
            if not x < (found[-1] if found else limit):
                return None
            found.append(x)
            m -= 1
            x *= 1 - 1e-3
        return found
    except (OverflowError, ZeroDivisionError):
        return None


def _separation_exponent(g: Poly) -> int:
    """m with 2^-m below the Mahler-Mignotte bound on the distance between
    two roots of g, if g is square-free: sqrt(3) |disc|^(1/2)
    d^(-(d+2)/2) ||g||_2^(1-d), with |disc| >= 1 for integer g."""
    d = len(g) - 1
    norm2 = sum(c * c for c in g)
    return ((d + 2) * d.bit_length() + (d - 1) * norm2.bit_length() + 1) // 2


def _subdivide(g: Poly, above: Optional[RootCounter],
               c_zero: Optional[int]
               ) -> tuple[list[tuple[int, int, int]], Poly,
                          list[tuple[int, int, int]]]:
    """Isolate the roots of g on (0, T), and on (-T, 0) without `above`,
    in one pass of bisection, T = `_pow2_fujiwara_bound`; g must not
    vanish at 0.  `c_zero` is the count of `above` at 0 when the caller
    has taken it already, and None to take it here.

    Returns (exact roots (num, den, k), g with each of them divided out k
    times, isolating intervals (lo, hi, den) each holding exactly one root
    of that reduced polynomial).

    Roots in a piece (lo, hi] are counted as count(lo) - count(hi): the
    Sturm variations of g, a square-free factor, from one chain built
    before the split, or `above`, which counts the roots of g itself with
    multiplicity.  The top pieces take Sturm counts at -T, 0 and T, but
    `above` only at 0: it counts the roots above a point, and none lies
    above T, so its count there is 0.  A midpoint that can be a root of
    g, because its reduced denominator divides the leading coefficient
    (rational root theorem: only integers when g is monic), is tested
    with `sign_at`.  A zero is divided out of g in place, k
    times if it divides k times, and the split goes on.  The counts stay
    those of the undivided polynomial: a count at a point counts only the
    roots above it, so the right child (mid, hi] never sees the divided
    root, and the left child (lo, mid] takes count(mid) + k as its upper
    count, so it does not either.  A piece that counts two or more roots
    although it is narrower than the separation bound raises
    ArithmeticError, so a wrong count or a multiple root cannot make the
    split run forever.
    """
    count = (above if above is not None
             else partial(_variations, sturm_chain(g)))
    top = _pow2_fujiwara_bound(g)
    if c_zero is None:
        c_zero = count(0, 1)
    stack = [(0, top, 1, c_zero, 0 if above is not None else count(top, 1))]
    if above is None:
        # popped last: the positive half is searched first in both modes
        stack.insert(0, (-top, 0, 1, count(-top, 1), c_zero))
    sep = _separation_exponent(g)
    exact: list[tuple[int, int, int]] = []
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
        num, _, root_den = _lowest_terms(mid, mid, den2)
        k = 0
        if g[-1] % root_den == 0 and sign_at(g, mid, den2) == 0:
            g, k = divide_out(g, num, root_den)
            exact.append((num, root_den, k))
        cmid = count(mid, den2)
        stack.append((lo2, mid, den2, clo, cmid + k))
        stack.append((mid, hi2, den2, cmid, chi))
    return exact, g, found


def _float_cells(g: Poly, count: int, width: Fraction,
                 count_is_known: bool = False
                 ) -> Optional[tuple[list[tuple[int, int, int]], Poly,
                                     list[tuple[int, int, int, int, int]]]]:
    """Isolate the `count` positive roots of g, which must not vanish at
    0, on the dyadic grid that cuts (0, T), T = `_pow2_fujiwara_bound`,
    into the cells where refinement to `width` ends, from the roots
    `_float_roots` finds; None where floats cannot tell.

    Returns what `_subdivide` returns, each isolating cell with the
    values of the reduced polynomial at its ends: (lo, hi, den, v_lo,
    v_hi).  The grid is the one bisection and refinement step through:
    with T = 2^b, its cells are 2^s wide, s the largest integer with 2^s
    <= width and s <= b.  Each float root goes to the grid point
    nearest it.  A grid point where the polynomial is 0 is a root,
    divided out as often as it divides.  Otherwise the exact sign there,
    against the sign the polynomial has just above the root (that of its
    leading coefficient, times -1 for every cell found above), tells on
    which side the root lies, and the neighbour on that side is
    evaluated; where the two signs agree the walk goes on that way, at
    most `_FLOAT_WALK` cells further.

    The cells are certified, not trusted.  Each has opposite exact signs
    of the reduced polynomial at its ends, so it holds an odd number of
    its roots; no two cells coincide; and the number of cells plus the
    multiplicities of the exact roots equals `count`.  So every cell
    holds exactly one root, a simple one, and no positive root is left
    out.  Why this is what bisection gives: every root is then a grid
    point or alone in the interior of its cell.  A piece of bisection
    that holds two roots, a grid root among them, is split at that grid
    point or at a coarser one on the way, so the grid root is hit as a
    midpoint and divided out; and a piece holding one root stops
    bisection, no deeper than the grid.  Refinement then ends on the
    grid cell of the root, or on the root itself where it is a grid
    point, and returns at once on a cell already that narrow.  So the
    enclosures are those of `_subdivide` followed by refinement, number
    for number.

    Returns None, for bisection to take over, where floats cannot tell:
    T beyond float range; a target so deep that every root's cell is
    narrower than 2^-_FLOAT_BITS of it, told before any float step by a
    lower bound on the roots; a float pass that returns None or other
    than `count` roots; a root not positive or not below the pass's
    limit, 2^(s + _FLOAT_BITS) or T if that is less, above which a cell
    is narrower than 2^-_FLOAT_BITS of the root; a walk that runs out or
    leaves [0, T]; cells that coincide; or a total other than `count`.
    The pass starts at T, the grid's top, and decides its own reach: on a
    real-rooted g its first run settles on the largest root, so a root at
    or above the limit ends the pass after that run, and no root count is
    taken here.  It stops after `count` roots only where `count_is_known`,
    which a caller sets where it has confirmed `count` as the number of
    positive roots of g by other means than the counter.  Otherwise it
    runs on past the smallest root, so a pass that finds more roots than
    `count` declines: that is the float route's check on a count that is
    wrong by an even number, which then meets bisection's own guards.
    """
    wn, wd = width.numerator, width.denominator
    # s = floor(log2(width)), then at most log2(T): cells are 2^s wide
    s = wn.bit_length() - wd.bit_length()
    if wd << max(s, 0) > wn << max(-s, 0):
        s -= 1
    # no float pass where the lower bound |g(0)| / (|g(0)| + max |g_i|)
    # on every root (Cauchy's, of the reversed g) puts every root at
    # 2^(s + _FLOAT_BITS) or above: deep targets
    least = abs(g[0]).bit_length() - 1 - (
        abs(g[0]) + max(map(abs, g[1:]))).bit_length()
    if least >= s + _FLOAT_BITS:
        return None
    bits = _pow2_fujiwara_bound(g).bit_length() - 1
    if bits >= float_info.max_exp:
        return None
    s = min(s, bits)
    top, den, step = 1 << (bits - s), 1 << max(-s, 0), 1 << max(s, 0)
    # roots in (0, T) whose cells are at least 2^-_FLOAT_BITS of them
    limit = ldexp(1.0, min(s + _FLOAT_BITS, bits))
    roots = _float_roots(g, ldexp(1.0, bits), limit,
                         count if count_is_known else None)
    if roots is None or len(roots) != count:
        return None
    lead_positive = g[-1] > 0
    exact: list[tuple[int, int, int]] = []
    cells: list[list[int]] = []
    taken: set[int] = set()
    stale = 0  # cells before this index hold values of an earlier g
    for r in roots:
        if not 0 < r < limit:
            return None
        x = round(ldexp(r, -s))
        # the sign of g just above the root: one sign change per cell above
        above_positive = lead_positive == (len(cells) % 2 == 0)
        u = value_at(g, x * step, den)
        down = (u > 0) == above_positive
        for _ in range(_FLOAT_WALK + 1):
            if u == 0:
                break
            y = x - 1 if down else x + 1
            if not 0 <= y <= top:
                return None
            v = value_at(g, y * step, den)
            if v != 0 and (v > 0) != (u > 0):
                break
            x, u = y, v
        else:
            return None
        if u == 0:
            num, _, root_den = _lowest_terms(x * step, x * step, den)
            g, k = divide_out(g, num, root_den)
            exact.append((num, root_den, k))
            stale = len(cells)
            continue
        lo = min(x, y)
        if lo in taken:
            return None
        taken.add(lo)
        cells.append([lo, v, u] if down else [lo, u, v])
    if len(cells) + sum(k for _, _, k in exact) != count:
        return None
    for cell in cells[:stale]:
        cell[1] = value_at(g, cell[0] * step, den)
        cell[2] = value_at(g, (cell[0] + 1) * step, den)
    return exact, g, [(lo * step, (lo + 1) * step, den, v_lo, v_hi)
                      for lo, v_lo, v_hi in cells]


def _separate(encs: list[_Enclosure]) -> None:
    """Refine until the closed enclosures are pairwise strictly disjoint,
    and leave them sorted by (lo, hi): the last round sorts and halves
    nothing.

    Every denominator is a power of two, so a round sorts on numerators
    scaled to its largest denominator and compares neighbours by cross
    multiplication, never building a Fraction.

    This terminates: the enclosures hold pairwise distinct roots, because
    the square-free factors are coprime (with a root counter p is the one
    factor) and `_subdivide` divides each exact root out of the polynomial
    that the factor's intervals isolate, as often as it divides, and
    returns it once with that multiplicity.  So a clash needs a non-point
    member at least half as wide as the least gap between the roots, and
    every clashing non-point enclosure halves around its own root: only
    finitely many rounds can clash.
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
    num/den >= 0 with multiplicity, only (0, T) is searched: no Sturm
    chain, no square-free decomposition and no visit to the negative
    half-line.  Either way the count of enclosures weighted by
    multiplicity equals the number of real (with `above`, positive) roots
    of p.

    A root at 0 is stripped first and, without `above`, reported as a
    point.  T = `_pow2_fujiwara_bound` is a power of two above every root
    magnitude, and every route starts there.  With `above`, floats come
    first (`_float_cells`): a float pass from T finds the positive roots,
    and each goes to its cell of the dyadic grid on (0, T) whose cells
    are the widest that fit `width`, where refinement ends.  Exact signs
    certify every cell, the cells must be distinct, and their number plus
    the multiplicities of the grid points found to be roots must equal
    above(0, 1), the only count taken.  So each cell holds exactly one root
    and no other root of p, which bisection would isolate no deeper than
    the grid and refinement would end on the same cell: the enclosures are
    those of the bisection route, number for number.  Where floats cannot
    tell, and for every target whose cells are narrower than 2^-_FLOAT_BITS
    of a root, the factor goes to bisection instead, unchanged.  Bisection
    (`_subdivide`) splits (-T, 0) and (0, T) on the Sturm counts, or (0,
    T) on the counts of `above`: a dyadic midpoint that is a root is
    divided out of the factor in place, as often as it divides, and
    reported as a point with that multiplicity, while the split goes on;
    the left half next to it takes count(mid) + k as its upper count, so
    the k divided copies are never counted again.  A non-dyadic multiple
    root makes the `above` route raise.

    Three guards stop a wrong count of `above` with ArithmeticError: a
    piece counted to hold one root whose endpoints show no sign change
    of p; a piece still counted to hold two or more roots when it is
    narrower than the Mahler-Mignotte separation bound; and, when
    neither fires, a count at 0 whose parity disagrees with the signs of
    p at 0 and at infinity, since sign p(0) = sign(lead) (-1)^N for N
    positive roots.  The float route asks no count but the one at 0 and
    takes bisection when the float pass finds a different number of
    roots.  Counts that are wrong by an even number at 0 and consistent
    elsewhere, such as a counter answering 0 for a polynomial with two
    positive roots, are not caught: they leave roots out.  A zero
    polynomial, or coefficients that end in a zero, raise ValueError.
    """
    if not p or not p[-1]:
        raise ValueError("need a nonzero polynomial with a nonzero leading "
                         "coefficient")
    w = Fraction(width)
    if w <= 0:
        raise ValueError(f"width must be positive, got {width}")
    factors = ([(p, 1)] if above is not None
               else square_free_decomposition(p))
    encs: list[_Enclosure] = []
    for factor, mult in factors:
        zeros = next((j for j, c in enumerate(factor) if c), len(factor))
        if zeros and above is None:
            encs.append(_Enclosure(None, 0, 0, 1, 0, mult * zeros))
        factor = factor[zeros:]
        if len(factor) < 2:
            continue
        isolated, miscounted, count = None, False, None
        if above is not None:
            count = above(0, 1)
            # p(0) != 0 has the sign of lead * (-1)^N for N positive roots
            changes = (factor[0] > 0) != (factor[-1] > 0)
            miscounted = count % 2 != changes
            if not miscounted:
                isolated = _float_cells(factor, count, w)
        if isolated is None:
            exact, reduced, intervals = _subdivide(factor, above, count)
            cells = [(lo, hi, den, value_at(reduced, lo, den),
                      value_at(reduced, hi, den))
                     for lo, hi, den in intervals]
        else:
            exact, reduced, cells = isolated
        for num, den, times in exact:
            encs.append(_Enclosure(None, num, num, den, 0, mult * times))
        for lo, hi, den, v_lo, v_hi in cells:
            if not (v_lo > 0 > v_hi or v_lo < 0 < v_hi):
                raise ArithmeticError(
                    "isolating interval without a sign change of the "
                    "polynomial")
            enc = _Enclosure(reduced, lo, hi, den, 1 if v_lo > 0 else -1,
                             mult)
            enc.refine_to(w, v_lo, v_hi)
            encs.append(enc)
        if miscounted:
            raise ArithmeticError(
                f"{count} positive roots counted, but the polynomial has "
                f"{'a' if changes else 'no'} sign change between 0 and "
                "infinity")
    _separate(encs)
    return [RootEnclosure(*_lowest_terms(e.lo_num, e.hi_num, e.den), e.mult)
            for e in encs]
