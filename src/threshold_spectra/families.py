"""Two parametrized families of noncospectral equienergetic threshold graphs.

For every i >= 1 each family pairs two graphs on 9i + 5 vertices whose
characteristic polynomials share all factors except one integer linear
term: x + (2i+1) on one side versus x + (2i+2) on the other, compensated
by one fewer factor of x + 1.  The absolute values therefore sum to the
same energy exactly, while the spectra differ.  The closed-form expanded
polynomials are checked against the block-form engine, and energies are
certified both by interval overlap and by the exact shared-factor
bookkeeping, whose integer roots are read off the certified root
enclosures with one exact evaluation each.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .intpoly import (
    Poly,
    divide_out,
    evaluate,
    format_poly,
    mul,
    mul_xk,
)
from .roots import RootEnclosure, isolate_real_roots
from .sequences import Blocks, format_blocks, from_blocks
from .spectra import _nontrivial_parts, _require_connected, char_poly, energy
from .util import decimal_lower, decimal_upper, fraction_str

Rational = Union[int, Fraction]

# Width to which the shared cubic's roots are refined.
CUBIC_ROOT_WIDTH = Fraction(1, 10**9)


class FamilyId(enum.Enum):
    FOUR_BLOCK = "four"
    SIX_BLOCK = "six"


@dataclass(frozen=True)
class FamilyPair:
    family: FamilyId
    i: int
    g: Blocks
    g_prime: Blocks
    n: int

    def to_record(self) -> dict:
        return {
            "family": self.family.value,
            "i": self.i,
            "n": self.n,
            "g": format_blocks(self.g),
            "g_prime": format_blocks(self.g_prime),
        }


def family_pair(family: FamilyId, i: int) -> FamilyPair:
    """The i-th pair of the chosen family; both members have 9i+5 vertices."""
    if i < 1:
        raise ValueError(f"family parameter must be >= 1, got {i}")
    if family is FamilyId.FOUR_BLOCK:
        g: Blocks = (2 * i + 1, 3 * i + 3, 2 * i + 1, 2 * i)
        gp: Blocks = (2 * i + 2, 3 * i, 2 * i + 1, 2 * i + 2)
    else:
        g = (1, 2 * i + 1, i, 2 * i + 2, 2 * i + 1, 2 * i)
        gp = (1, 2 * i, i + 1, 2 * i, 2 * i + 1, 2 * i + 2)
    n = 9 * i + 5
    assert sum(g) == n and sum(gp) == n
    return FamilyPair(family=family, i=i, g=g, g_prime=gp, n=n)


def shared_cubic(i: int) -> Poly:
    """The cubic factor common to both four-block members."""
    return (12 * i**3 + 18 * i**2 + 6 * i, -(7 * i + 3), -(7 * i + 2), 1)


def shared_quartic(i: int) -> Poly:
    """The quartic factor common to both six-block members."""
    return (
        -(8 * i**4 + 12 * i**3 + 4 * i**2),
        8 * i**3 + 20 * i**2 + 8 * i,
        8 * i**2 - 4 * i - 3,
        -(8 * i + 2),
        1,
    )


def closed_form_char_poly(family: FamilyId, i: int, member: str) -> Poly:
    """Fully expanded closed form for one member ('G' or \"G'\"):
    x^a (x+1)^y (x + shift) times the shared cubic (four-block) or quartic
    (six-block) factor.

    (x+1)^y is written down as its binomial row from `math.comb`, the
    first half C(y, 0), ..., C(y, y // 2) and the rest by C(y, k) =
    C(y, y - k), and (x + shift) multiplies it in one pass.  The engine's
    `char_poly` builds the same numbers another way:
    `spectra._char_poly_from_parts` runs the multiply-divide recurrence
    along the row and multiplies it into the block formula's nontrivial
    factor, so comparing the two checks both.
    """
    if i < 1:
        raise ValueError(f"family parameter must be >= 1, got {i}")
    if member not in ("G", "G'"):
        raise ValueError(f"member must be 'G' or \"G'\", got {member!r}")
    prime = member == "G'"
    if family is FamilyId.FOUR_BLOCK:
        core = shared_cubic(i)
        if prime:
            x_exp, y_exp, shift = 4 * i + 1, 5 * i, 2 * i + 2
        else:
            x_exp, y_exp, shift = 4 * i, 5 * i + 1, 2 * i + 1
    else:
        core = shared_quartic(i)
        if prime:
            x_exp, y_exp, shift = 3 * i, 6 * i, 2 * i + 2
        else:
            x_exp, y_exp, shift = 3 * i - 1, 6 * i + 1, 2 * i + 1
    row = [math.comb(y_exp, k) for k in range(y_exp // 2 + 1)]
    row += row[:(y_exp + 1) // 2][::-1]
    # (x + 1)^y (x + shift)
    linear = ([shift] + [shift * b + a for a, b in zip(row, row[1:])]
              + [1])
    return mul_xk(mul(tuple(linear), core), x_exp)


def _strip_integer_roots(p: Poly) -> tuple[int, Poly]:
    """Divide out all integer roots of p; return (sum of their absolute
    values counted with multiplicity, remaining factor).

    Every real root of p is isolated in a certified closed enclosure at
    most 1/2 wide, which holds at most one integer, ceil(lo), in integers
    from its numerators; one exact evaluation decides whether it is a root.
    Raises ArithmeticError where x - r divides a different number of times
    than the enclosure's multiplicity.
    """
    total = 0
    rest = p
    for enc in isolate_real_roots(p, Fraction(1, 2)):
        r = -(-enc.lo_num // enc.den)
        if r * enc.den <= enc.hi_num and evaluate(p, r) == 0:
            rest, times = divide_out(rest, r, 1)
            if times != enc.multiplicity:
                raise ArithmeticError(
                    f"the root {r} has multiplicity {times}, its enclosure "
                    f"counts {enc.multiplicity}")
            total += abs(r) * times
    return total, rest


def exact_energy_equal(blocks_a: Blocks, blocks_b: Blocks) -> Optional[bool]:
    """Decide exact energy equality when the nontrivial factors differ only
    by integer linear terms.

    Returns True/False when decidable this way, None otherwise.  The -1
    eigenvalues contribute their multiplicity, every integer root
    contributes its absolute value, and a shared residual factor
    contributes identically on both sides.  Raises ValueError unless both
    block forms are connected.
    """
    _require_connected(blocks_a)
    _require_connected(blocks_b)
    _, m1_a, rest_a = _nontrivial_parts(blocks_a)
    _, m1_b, rest_b = _nontrivial_parts(blocks_b)
    int_a, residual_a = _strip_integer_roots(rest_a)
    int_b, residual_b = _strip_integer_roots(rest_b)
    if residual_a != residual_b:
        return None
    return m1_a + int_a == m1_b + int_b


@dataclass(frozen=True)
class VerificationReport:
    family: FamilyId
    i: int
    closed_form_match: bool
    noncospectral: bool
    energy_overlap: bool
    energy_gap_bound: Fraction
    below_complete: bool
    within_sharp_bound: bool
    exact_equal_energy: bool
    details: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (self.closed_form_match and self.noncospectral
                and self.energy_overlap and self.exact_equal_energy
                and self.below_complete and self.within_sharp_bound)

    def to_record(self) -> dict:
        return {
            "family": self.family.value,
            "i": self.i,
            "closed_form_match": self.closed_form_match,
            "noncospectral": self.noncospectral,
            "energy_overlap": self.energy_overlap,
            "energy_gap_bound": fraction_str(self.energy_gap_bound),
            "below_complete": self.below_complete,
            "within_sharp_bound": self.within_sharp_bound,
            "exact_equal_energy": self.exact_equal_energy,
            "ok": self.ok,
            "details": list(self.details),
        }


def verify_family(family: FamilyId, i: int, tol: Rational) -> VerificationReport:
    """Run every pair-level check at the given tolerance.

    Energies are computed at precision tol/4 so the width of the
    |E - E'| enclosure is at most tol; the exact shared-factor route is
    the authoritative equality check.
    """
    tol_f = Fraction(tol)
    if tol_f <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    pair = family_pair(family, i)
    details: list[str] = []

    engine_g = char_poly(pair.g)
    engine_gp = char_poly(pair.g_prime)
    closed_g = closed_form_char_poly(family, i, "G")
    closed_gp = closed_form_char_poly(family, i, "G'")
    match_g = engine_g == closed_g
    match_gp = engine_gp == closed_gp
    if not match_g:
        details.append(f"G: engine {format_poly(engine_g)}")
        details.append(f"G: closed form {format_poly(closed_g)}")
    if not match_gp:
        details.append(f"G': engine {format_poly(engine_gp)}")
        details.append(f"G': closed form {format_poly(closed_gp)}")
    closed_form_match = match_g and match_gp

    distinct = engine_g != engine_gp
    root_g = evaluate(engine_g, -(2 * i + 1)) == 0
    root_gp = evaluate(engine_gp, -(2 * i + 2)) == 0
    noncospectral = distinct and root_g and root_gp
    details.append(
        f"distinct polynomials: {distinct}; -(2i+1) root of G: {root_g}; "
        f"-(2i+2) root of G': {root_gp}"
    )

    precision = tol_f / 4
    e_g = energy(from_blocks(pair.g), precision)
    e_gp = energy(from_blocks(pair.g_prime), precision)
    overlap = e_g[0] <= e_gp[1] and e_gp[0] <= e_g[1]
    gap_bound = (e_g[1] - e_g[0]) + (e_gp[1] - e_gp[0])
    details.append(
        f"E(G) in [{decimal_lower(e_g[0])}, {decimal_upper(e_g[1])}], "
        f"E(G') in [{decimal_lower(e_gp[0])}, {decimal_upper(e_gp[1])}]"
    )

    complete_energy = 18 * i + 8
    sharp_bound = Fraction(18 * i + 6) + tol_f
    below_complete = e_g[1] < complete_energy and e_gp[1] < complete_energy
    within_sharp = e_g[1] <= sharp_bound and e_gp[1] <= sharp_bound

    exact_equal = exact_energy_equal(pair.g, pair.g_prime)
    details.append(f"exact shared-factor energy equality: {exact_equal}")

    return VerificationReport(
        family=family,
        i=i,
        closed_form_match=closed_form_match,
        noncospectral=noncospectral,
        energy_overlap=overlap,
        energy_gap_bound=gap_bound,
        below_complete=below_complete,
        within_sharp_bound=within_sharp,
        exact_equal_energy=bool(exact_equal),
        details=tuple(details),
    )


@dataclass(frozen=True)
class CubicRootReport:
    """Sign pattern and root localization of the four-block cubic factor."""

    i: int
    value_at_zero: int
    value_at_lower_bound: int
    values_ok: bool
    first_root_localized: bool
    upper_roots_positive: bool
    root_sum_contains_trace: bool
    roots: tuple[RootEnclosure, ...]

    @property
    def ok(self) -> bool:
        return (self.values_ok and self.first_root_localized
                and self.upper_roots_positive and self.root_sum_contains_trace)

    def to_record(self) -> dict:
        return {
            "i": self.i,
            "value_at_zero": self.value_at_zero,
            "value_at_lower_bound": self.value_at_lower_bound,
            "values_ok": self.values_ok,
            "first_root_localized": self.first_root_localized,
            "upper_roots_positive": self.upper_roots_positive,
            "root_sum_contains_trace": self.root_sum_contains_trace,
            "roots": [
                [decimal_lower(r.lo, 12), decimal_upper(r.hi, 12)]
                for r in self.roots
            ],
            "ok": self.ok,
        }


def cubic_root_localization(i: int) -> CubicRootReport:
    """Certify the root layout of the shared cubic for the four-block family.

    Exact checks: the value at 0 is 12i^3 + 18i^2 + 6i > 0, the value at
    -(2i+1) is -24i^3 - 16i^2 - 2i < 0, the smallest root lies strictly
    inside (-(2i+1), 0), the other two roots are positive, and the sum of
    the root enclosures contains 7i + 2.
    """
    if i < 1:
        raise ValueError(f"family parameter must be >= 1, got {i}")
    cubic = shared_cubic(i)
    at_zero = evaluate(cubic, 0)
    at_lower = evaluate(cubic, -(2 * i + 1))
    values_ok = (
        at_zero == 12 * i**3 + 18 * i**2 + 6 * i
        and at_zero > 0
        and at_lower == -24 * i**3 - 16 * i**2 - 2 * i
        and at_lower < 0
        and cubic[2] == -(7 * i + 2)
    )
    roots = tuple(isolate_real_roots(cubic, CUBIC_ROOT_WIDTH))
    three_real = len(roots) == 3 and all(r.multiplicity == 1 for r in roots)
    first_ok = (three_real and roots[0].hi < 0
                and roots[0].lo > -(2 * i + 1))
    upper_ok = three_real and roots[1].lo > 0 and roots[2].lo > 0
    if three_real:
        sum_lo = sum(r.lo for r in roots)
        sum_hi = sum(r.hi for r in roots)
        sum_ok = sum_lo <= 7 * i + 2 <= sum_hi
    else:
        sum_ok = False
    return CubicRootReport(
        i=i,
        value_at_zero=at_zero,
        value_at_lower_bound=at_lower,
        values_ok=values_ok,
        first_root_localized=first_ok,
        upper_roots_positive=upper_ok,
        root_sum_contains_trace=sum_ok,
        roots=roots,
    )
