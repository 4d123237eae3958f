"""Spectral invariants of threshold graphs straight from the block form.

The multiplicities of the eigenvalues 0 and -1 are read off the block
counts.  The remaining spectrum comes from a degree-B companion factor
built out of parity-alternating index sequences.  A connected block form
starts with a 0-block and ends with a 1-block, so B = 2m is even; with
y = x + 1,

    Q_B(x) = sum_{k=0}^{m} (-1)^(m-k) (xy)^k
                 (gamma_B(B - 2k) + x gamma_B(B - 2k - 1))

with gamma_B(-1) = 0, where gamma_B(l) sums, over all increasing
parity-alternating index sequences of length l in [1, B] whose last term
has the parity of B, the products of the indexed block counts.  The
companion factor never enumerates the sequences (there are F(B+2) of
them): with E_j[l] the sum over the sequences that start at index j and
c_j the j-th block count,

    E_j[1] = c_j if j has the parity of B, else 0
    E_j[l] = c_j * sum_{k > j, k - j odd} E_k[l - 1]

and gamma_B(l) = sum_j E_j[l] with gamma_B(0) = 1.  One right-to-left pass
that keeps a running suffix sum per parity yields every gamma_B(l) in
O(B^2) integer operations.  Q_B is then evaluated by Horner in xy, where
each step multiplies by xy = x^2 + x with one shift-add, O(B^2) in all.

The characteristic polynomial splits as x^m0 (x+1)^m1 rest.  Both
multiplicities come from the block counts alone: m0 is the surplus of the
0-blocks, and m1 is the surplus of the 1-blocks plus one when the leading
0-block is a single vertex.  Q_B(0) is plus or minus the product of the
counts, never 0, and Q_B carries the root -1 exactly when the leading
0-block is a single vertex, so `rest` is Q_B after at most one checked
division by x + 1.  Everything here is normalized monic and verified
against the determinant route in the test suite.

Energy is twice the sum of the positive eigenvalues, since the trace is
0.  No eigenvalue lies in (-1, 0), and the positive eigenvalues are
exactly B/2 simple roots of the factor free of 0 and -1 (Jacobs,
Trevisan & Tura, "Eigenvalue location in threshold graphs", Linear
Algebra Appl. 439, 2013), so an energy interval needs those B/2 roots
only, isolated on (0, bound).

Isolation splits (0, bound) on counts of the eigenvalues strictly above
a point a >= 0, which is the number of roots of `rest` above a.  The
count is the number of positive pivots of the LDL^T factorization of
A - aI in creation order (Sylvester's law of inertia), the block form
of the Diagonalize algorithm of Jacobs, Trevisan and Tura.  Eliminating
the vertices before a new one leaves s = 1^T M^-1 1 of the eliminated
leading block M of A - aI, and the new vertex gets the pivot -a if it
is isolated and -a - s if it is dominating.  With w = (1 - s) / (1 + a)
and z = 1/w, one O(1) step per block suffices:

    start (leading 0-block of c_1): w = (a + c_1) / (a (1 + a))
    1-block of c vertices: z falls by 1 per vertex, and a vertex's pivot
        is positive iff its z lies in (0, 1), so the block holds exactly
        one positive pivot iff 0 < z < c, and z becomes z - c
    0-block of c vertices: all c pivots are -a < 0; w += c / (a (1 + a))

One loop counts at every point: the count is taken at a + epsilon, the
number of eigenvalues strictly above a, with w = X/Y carried as integers
X > 0 and Y together with their first-order terms in epsilon.  A sign
is the sign of the first nonzero term, and a sign that is 0 to first
order raises ArithmeticError.  A pivot vanishes only when a leading
principal minor of A - aI does, which makes a an eigenvalue of an
induced threshold subgraph: a root of a monic integer polynomial, an
algebraic integer, so an integer if rational.  So at a non-integer a
the first-order terms start at 0 and stay 0, and the count at a is
exact; an integer a, 0 among them, seeds them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Union

from .intpoly import (
    Poly,
    degree,
    divide_exact,
    format_poly,
    mul,
    mul_xk,
    to_coeff_list,
)
from .roots import RootEnclosure, _lowest_terms, isolate_real_roots
from .sequences import Bits, Blocks, check_blocks, format_sequence, to_blocks
from .util import decimal_lower, decimal_upper, fraction_str

Rational = Union[int, Fraction]

_Y: Poly = (1, 1)


def _require_connected(blocks: Blocks) -> None:
    check_blocks(blocks)
    if len(blocks) % 2:
        raise ValueError("block form is disconnected (must end in a 1-block)")


def _multiplicities(counts: Blocks) -> tuple[int, int]:
    """Multiplicities (m0, m1) of the eigenvalues 0 and -1, read off the
    counts of a connected block form."""
    m0 = sum(c - 1 for c in counts[0::2])
    m1 = sum(c - 1 for c in counts[1::2]) + (counts[0] == 1)
    return m0, m1


def multiplicity_zero(blocks: Blocks) -> int:
    """Multiplicity of eigenvalue 0: surplus of the 0-blocks."""
    _require_connected(blocks)
    return _multiplicities(blocks)[0]


def multiplicity_minus_one(blocks: Blocks) -> int:
    """Multiplicity of eigenvalue -1: surplus of the 1-blocks, plus one
    when the leading 0-block is a single vertex."""
    _require_connected(blocks)
    return _multiplicities(blocks)[1]


def index_sequences(b: int, length: int) -> set[tuple[int, ...]]:
    """All increasing, parity-alternating index sequences of the given
    length in [1, b] whose last term has the parity of b.

    Length 0 yields the singleton containing the empty sequence.  This
    enumeration is the specification that `gamma` is tested against; the
    companion factor never enumerates.
    """
    if b < 1:
        raise ValueError(f"need a positive block count, got {b}")
    if not 0 <= length <= b:
        raise ValueError(f"length must lie in [0, {b}], got {length}")
    out: set[tuple[int, ...]] = set()

    def extend(pos: int, start: int, prefix: tuple[int, ...]) -> None:
        if pos == length:
            out.add(prefix)
            return
        parity = (b + (length - 1 - pos)) % 2
        first = start if start % 2 == parity else start + 1
        for v in range(first, b + 1, 2):
            extend(pos + 1, v + 1, prefix + (v,))

    extend(0, 1, ())
    return out


def gamma(blocks: Blocks, length: int) -> int:
    """Sum over the index sequences of the products of indexed block counts."""
    check_blocks(blocks)
    b = len(blocks)
    if not 0 <= length <= b:
        raise ValueError(f"length must lie in [0, {b}], got {length}")
    return _gammas(blocks)[length]


def _gammas(counts: Blocks) -> list[int]:
    """[gamma_B(0), ..., gamma_B(B)] in one right-to-left pass, O(B^2)."""
    b = len(counts)
    # sums[p][l] totals E_k[l] over the indices k > j of parity p.  A
    # virtual index B + 1 with E_{B+1}[0] = 1 ends every sequence, so
    # E_j[1] = c_j exactly when j has the parity of B, and gamma_B(0) = 1.
    sums = [[0] * (b + 1), [0] * (b + 1)]
    sums[(b + 1) % 2][0] = 1
    for j in range(b, 0, -1):
        c = counts[j - 1]
        own, other = sums[j % 2], sums[(j + 1) % 2]
        for length in range(b - j + 1, 0, -1):
            own[length] += c * other[length - 1]
    return [e + o for e, o in zip(*sums)]


def q_polynomial(blocks: Blocks) -> Poly:
    """The monic degree-B companion factor of a connected block form."""
    _require_connected(blocks)
    return _q_from_counts(blocks)


def _q_from_counts(counts: Blocks) -> Poly:
    """Q_B of a connected block form, B = 2m blocks, by Horner in xy:
    from acc = 1, acc = (-1)^(m-k) L_k + xy acc for k = m - 1 down to 0,
    with L_k = gamma_B(B - 2k) + x gamma_B(B - 2k - 1)."""
    b = len(counts)
    g = _gammas(counts)
    acc = [g[0]]
    sign = 1
    for k in range(b // 2 - 1, -1, -1):
        sign = -sign
        acc = ([sign * g[b - 2 * k], sign * g[b - 2 * k - 1] + acc[0]]
               + [p + q for p, q in zip(acc, acc[1:])] + [acc[-1]])
    return tuple(acc)


def char_poly(blocks: Blocks) -> Poly:
    """Monic characteristic polynomial assembled from the block form."""
    _require_connected(blocks)
    return _char_poly_from_parts(*_nontrivial_parts(blocks))


def char_poly_of_sequence(bits: Bits) -> Poly:
    """Characteristic polynomial of any creation sequence.

    Trailing isolated vertices contribute plain factors of x.
    """
    if not bits:
        raise ValueError("empty sequence")
    blocks = to_blocks(bits)
    cut = len(blocks) // 2 * 2  # a trailing 0-block is isolated vertices
    core = char_poly(blocks[:cut]) if cut else (1,)
    return mul_xk(core, sum(blocks[cut:]))


def is_cospectral(bits_a: Bits, bits_b: Bits) -> bool:
    """True iff the exact monic characteristic polynomials coincide."""
    return char_poly_of_sequence(bits_a) == char_poly_of_sequence(bits_b)


def _roots_above(counts: Blocks, num: int, den: int) -> int:
    """Number of eigenvalues strictly above a = num/den >= 0 (den > 0) of
    the connected graph with these block counts, which is the number of
    roots of `rest` above a; O(B) integer steps, no polynomial.

    The pivot recurrence of the module docstring at a + epsilon, on
    w = X/Y with X > 0: a 1-block of c vertices holds a positive pivot
    iff 0 < Y < cX, and leaves Y - cX; a 0-block adds c / (a (1 + a)) to
    w, a step scaled by den^2.  X and Y are carried modulo epsilon^2 as
    (value, first-order term) by ring operations only, so both are exact
    images of the unreduced numerator and denominator.  An integer a is
    reduced to den = 1 and seeds the first-order terms with
    d(a (1 + a)) = 2a + 1 and dX = 1; at a non-integer a they stay 0.
    A sign that is 0 to first order raises ArithmeticError.
    """
    if num % den:
        k1 = x1 = 0
    else:
        num, den = num // den, 1
        k1, x1 = 2 * num + 1, 1
    # a (1 + a) = (k0 + k1 epsilon) / den^2; w = (a + c_1) / (a (1 + a))
    k0, d2 = num * (num + den), den * den
    x0, y0, y1 = den * (num + counts[0] * den), k0, k1
    found = 0
    for j in range(1, len(counts), 2):
        c = counts[j]
        x = x0 or x1
        if x < 0:
            x0, x1, y0, y1 = -x0, -x1, -y0, -y1
        # g = cX - Y, and the 1-block leaves Y = -g
        g0, g1 = c * x0 - y0, c * x1 - y1
        y, gap = y0 or y1, g0 or g1
        if y > 0 and gap > 0:
            found += 1
        elif not (x and y and gap):
            raise ArithmeticError(
                "pivot sign undecided to first order in epsilon")
        y0, y1 = -g0, -g1
        if j + 1 < len(counts):
            cd = counts[j + 1] * d2
            x0, x1 = x0 * k0 + cd * y0, x0 * k1 + x1 * k0 + cd * y1
            y0, y1 = y0 * k0, y0 * k1 + y1 * k0
    return found


def _nontrivial_parts(blocks: Blocks) -> tuple[int, int, Poly]:
    """Multiplicities m0 and m1 of the eigenvalues 0 and -1, and the factor
    `rest` free of both, of a connected block form.

    m0 and m1 come from the block counts.  `rest` is Q_B, divided once by
    x + 1 when the leading 0-block is a single vertex; raises
    ArithmeticError if that division is inexact.
    """
    m0, m1 = _multiplicities(blocks)
    rest = _q_from_counts(blocks)
    if blocks[0] == 1:
        rest = divide_exact(rest, _Y)
        if rest is None:
            raise ArithmeticError(
                "companion factor lacks the root -1 of a single leading "
                "vertex")
    return m0, m1, rest


def _char_poly_from_parts(m0: int, m1: int, rest: Poly) -> Poly:
    """The characteristic polynomial x^m0 (x+1)^m1 rest.  The binomial row
    of (x+1)^m1 comes from C(m1, k+1) = C(m1, k) (m1 - k) / (k + 1) and is
    multiplied into `rest`, O(m1 deg(rest)) products whatever m0."""
    row = [1]
    for k in range(m1):
        row.append(row[-1] * (m1 - k) // (k + 1))
    return mul_xk(mul(rest, tuple(row)), m0)


def _eigen_enclosures(rest: Poly, precision: Fraction, m0: int, m1: int
                      ) -> list[RootEnclosure]:
    """Sorted enclosures of every eigenvalue: the points 0 and -1 with
    multiplicities m0 and m1, each only if its multiplicity is nonzero,
    and the roots of `rest`, each at most precision / deg(rest) wide.

    Isolating x(x+1)*rest forces the enclosures of the roots of `rest`
    strictly away from 0 and -1, and returns 0 and -1 themselves as point
    enclosures of multiplicity 1; those two take m0 and m1 instead.
    """
    d = degree(rest)
    special = {0: m0, -1: m1}
    out = []
    for enc in isolate_real_roots(mul(rest, (0, 1, 1)), precision / d):
        if enc.is_point and enc.den == 1 and enc.lo_num in special:
            if not special[enc.lo_num]:
                continue
            enc = replace(enc, multiplicity=special[enc.lo_num])
        out.append(enc)
    return out


def _energy_from_parts(rest: Poly, counts: Blocks,
                       precision: Fraction) -> tuple[int, int, int]:
    """Energy interval [lo / den, hi / den], as the integers (lo, hi, den)
    with den the least power of two, of the connected graph with these
    block counts whose factor free of 0 and -1 is `rest`: twice the sum
    of the positive eigenvalues.

    With b = len(counts), the b/2 positive roots of `rest` are isolated
    on (0, bound), split by the pivot counts of `_roots_above`, and each
    refined to width precision / b, so the interval [2 sum lo, 2 sum hi]
    holds the energy and is at most 2 (b/2) (precision / b) = precision
    wide, summed in integers on the largest enclosure denominator.
    Raises ArithmeticError if the roots found do not number b/2, the
    inertia of every connected threshold graph.
    """
    b = len(counts)
    encs = isolate_real_roots(rest, precision / b,
                              above=partial(_roots_above, counts))
    top = max((enc.den for enc in encs), default=1)
    lo = hi = found = 0
    for enc in encs:
        k = enc.multiplicity * (top // enc.den)
        lo += k * enc.lo_num
        hi += k * enc.hi_num
        found += enc.multiplicity
    if 2 * found != b:
        raise ArithmeticError(
            f"inertia check failed: {found} positive eigenvalues found "
            f"for {b} blocks, expected {b}/2")
    return _lowest_terms(2 * lo, 2 * hi, top)


def energy(bits: Bits, precision: Rational) -> tuple[Fraction, Fraction]:
    """Interval of width <= precision certified to contain the graph energy.

    The energy is twice the sum of the positive eigenvalues, which are
    summed through exact root enclosures with outward endpoints.
    """
    if not bits:
        raise ValueError("empty sequence")
    prec = Fraction(precision)
    if prec <= 0:
        raise ValueError(f"precision must be positive, got {precision}")
    blocks = to_blocks(bits)
    blocks = blocks[:len(blocks) // 2 * 2]  # drop the isolated vertices
    if not blocks:
        return Fraction(0), Fraction(0)
    _, _, rest = _nontrivial_parts(blocks)
    lo, hi, den = _energy_from_parts(rest, blocks, prec)
    return Fraction(lo, den), Fraction(hi, den)


@dataclass(frozen=True)
class SpectralSummary:
    """Complete exact spectral data for one connected threshold graph."""

    sequence: Bits
    n: int
    m0: int
    m_minus1: int
    char_poly: Poly
    nontrivial_factor: Poly
    roots: tuple[RootEnclosure, ...]
    energy_lo: Fraction
    energy_hi: Fraction

    def to_record(self) -> dict:
        return {
            "sequence": format_sequence(self.sequence),
            "n": self.n,
            "m0": self.m0,
            "m_minus1": self.m_minus1,
            "char_poly": to_coeff_list(self.char_poly),
            "char_poly_text": format_poly(self.char_poly),
            "nontrivial_factor": to_coeff_list(self.nontrivial_factor),
            "nontrivial_factor_text": format_poly(self.nontrivial_factor),
            "roots": [
                {
                    "lo": fraction_str(r.lo),
                    "hi": fraction_str(r.hi),
                    "multiplicity": r.multiplicity,
                }
                for r in self.roots
            ],
            "energy": {
                "lo": decimal_lower(self.energy_lo),
                "hi": decimal_upper(self.energy_hi),
            },
        }


def spectral_summary(bits: Bits, precision: Rational) -> SpectralSummary:
    """Multiplicities, exact characteristic polynomial, root enclosures and
    an energy interval of width <= precision, for a connected sequence.
    The points 0 and -1 of the root list carry m0 and m1, and a point
    whose multiplicity is 0 is left out (see `_eigen_enclosures`)."""
    if not bits:
        raise ValueError("empty sequence")
    blocks = to_blocks(bits)
    _require_connected(blocks)
    prec = Fraction(precision)
    if prec <= 0:
        raise ValueError(f"precision must be positive, got {precision}")
    m0, m1, rest = _nontrivial_parts(blocks)
    full = _char_poly_from_parts(m0, m1, rest)
    e_lo, e_hi, den = _energy_from_parts(rest, blocks, prec)
    return SpectralSummary(
        sequence=bits,
        n=len(bits),
        m0=m0,
        m_minus1=m1,
        char_poly=full,
        nontrivial_factor=rest,
        roots=tuple(_eigen_enclosures(rest, prec, m0, m1)),
        energy_lo=Fraction(e_lo, den),
        energy_hi=Fraction(e_hi, den),
    )
