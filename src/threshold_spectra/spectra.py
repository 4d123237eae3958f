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
O(B^2) integer operations.

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

Isolation splits (0, bound) on counts of the eigenvalues above a point
a > 0, which is the number of roots of `rest` above a.  The count is the
number of positive pivots of the LDL^T factorization of A - aI in
creation order (Sylvester's law of inertia), the block form of the
Diagonalize algorithm of Jacobs, Trevisan and Tura.  Eliminating the
vertices before a new one leaves s = 1^T M^-1 1 of the eliminated
leading block M of A - aI, and the new vertex gets the pivot -a if it
is isolated and -a - s if it is dominating.  With w = (1 - s) / (1 + a)
and z = 1/w, one O(1) step per block suffices:

    start (leading 0-block of c_1): w = (a + c_1) / (a (1 + a))
    1-block of c vertices: z falls by 1 per vertex, and a vertex's pivot
        is positive iff its z lies in (0, 1), so the block holds exactly
        one positive pivot iff 0 < z < c, and z becomes z - c
    0-block of c vertices: all c pivots are -a < 0; w += c / (a (1 + a))

w is carried as a fraction X/Y of integers with X >= 0.  A pivot
vanishes only when a leading principal minor of A - aI does, which
makes a an eigenvalue of an induced threshold subgraph: a root of a
monic integer polynomial, an algebraic integer, so an integer if
rational.  At
non-integer points every pivot is nonzero and the count is exact.  At
integer points, 0 among them, the count is taken at a + epsilon, which
is the number of eigenvalues strictly above a: X and Y are carried with
their first-order terms in epsilon, each sign is the sign of the first
nonzero term, and a sign that is 0 to first order raises
ArithmeticError.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    normalize,
    poly_pow,
    to_coeff_list,
)
from .roots import RootEnclosure, isolate_real_roots
from .sequences import (
    Bits,
    Blocks,
    block_counts,
    check_blocks,
    format_sequence,
    to_blocks,
)
from .util import decimal_lower, decimal_upper, fraction_str

Rational = Union[int, Fraction]

_Y: Poly = (1, 1)
_XY: Poly = (0, 1, 1)


def _require_connected(blocks: Blocks) -> None:
    check_blocks(blocks)
    if blocks[-1][0] != 1:
        raise ValueError("block form is disconnected (must end in a 1-block)")


def _multiplicities(counts: tuple[int, ...]) -> tuple[int, int]:
    """Multiplicities (m0, m1) of the eigenvalues 0 and -1, read off the
    counts of a connected block form."""
    m0 = sum(c - 1 for c in counts[0::2])
    m1 = sum(c - 1 for c in counts[1::2]) + (counts[0] == 1)
    return m0, m1


def multiplicity_zero(blocks: Blocks) -> int:
    """Multiplicity of eigenvalue 0: surplus of the 0-blocks."""
    _require_connected(blocks)
    return _multiplicities(block_counts(blocks))[0]


def multiplicity_minus_one(blocks: Blocks) -> int:
    """Multiplicity of eigenvalue -1: surplus of the 1-blocks, plus one
    when the leading 0-block is a single vertex."""
    _require_connected(blocks)
    return _multiplicities(block_counts(blocks))[1]


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
    counts = block_counts(blocks)
    b = len(counts)
    if not 0 <= length <= b:
        raise ValueError(f"length must lie in [0, {b}], got {length}")
    return _gammas(counts)[length]


def _gammas(counts: tuple[int, ...]) -> list[int]:
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
    return _q_from_counts(block_counts(blocks))


def _q_from_counts(counts: tuple[int, ...]) -> Poly:
    """Q_B of a connected block form, whose block count B is even."""
    b = len(counts)
    m = b // 2
    g = _gammas(counts)
    acc = [0] * (b + 1)
    xyk: Poly = (1,)
    for k in range(m + 1):
        # (-1)^(m-k) (xy)^k (gamma_B(B - 2k) + x gamma_B(B - 2k - 1))
        sign = -1 if (m - k) % 2 else 1
        linear = (g[b - 2 * k], g[b - 2 * k - 1]) if k < m else (g[0],)
        for idx, c in enumerate(mul(xyk, linear)):
            acc[idx] += sign * c
        xyk = mul(xyk, _XY)
    return normalize(acc)


def char_poly(blocks: Blocks) -> Poly:
    """Monic characteristic polynomial assembled from the block form."""
    _require_connected(blocks)
    return _char_poly_from_parts(*_nontrivial_parts(blocks))


def _strip_trailing_zeros(bits: Bits) -> tuple[Bits, int]:
    n = len(bits)
    k = n
    while k and bits[k - 1] == 0:
        k -= 1
    return bits[:k], n - k


def char_poly_of_sequence(bits: Bits) -> Poly:
    """Characteristic polynomial of any creation sequence.

    Trailing isolated vertices contribute plain factors of x.
    """
    if not bits:
        raise ValueError("empty sequence")
    core, isolated = _strip_trailing_zeros(bits)
    if not core:
        return mul_xk((1,), isolated)
    return mul_xk(char_poly(to_blocks(core)), isolated)


def is_cospectral(bits_a: Bits, bits_b: Bits) -> bool:
    """True iff the exact monic characteristic polynomials coincide."""
    return char_poly_of_sequence(bits_a) == char_poly_of_sequence(bits_b)


def _roots_above(counts: tuple[int, ...], num: int, den: int) -> int:
    """Number of eigenvalues above a = num/den >= 0 (den > 0) of the
    connected graph with these block counts, which for a >= 0 is the
    number of roots of `rest` above a; O(B) integer steps, no polynomial.

    The pivot recurrence of the module docstring, on w = X/Y with X >= 0:
    a 1-block of c vertices holds a positive pivot iff 0 < Y < cX, and
    leaves Y - cX; a 0-block adds c / (a (1 + a)) to w.  Integer points,
    0 among them, take the count at a + epsilon (`_roots_above_integer`).
    """
    if num % den == 0:
        return _roots_above_integer(counts, num // den)
    # a (1 + a) = k / den^2; w = 1 / (1 + a) + c_1 / (a (1 + a))
    k, d2 = num * (num + den), den * den
    x, y = den * (num + counts[0] * den), k
    found = 0
    for j in range(1, len(counts), 2):
        c = counts[j]
        cx = c * x
        if 0 < y < cx:
            found += 1
        y -= cx
        if j + 1 < len(counts):
            x, y = x * k + counts[j + 1] * d2 * y, y * k
            if x < 0:
                x, y = -x, -y
    return found


def _first_order_sign(v0: int, v1: int) -> int:
    """Sign of v0 + v1 epsilon as epsilon -> 0+."""
    v = v0 or v1
    if not v:
        raise ArithmeticError("pivot sign undecided to first order in epsilon")
    return 1 if v > 0 else -1


def _roots_above_integer(counts: tuple[int, ...], a: int) -> int:
    """`_roots_above` at a + epsilon for an integer a >= 0: the number of
    eigenvalues strictly above a.

    X and Y are carried modulo epsilon^2 as pairs (value, first-order
    term).  Every step is a ring operation, so the pairs are exact images
    of the unreduced numerator and denominator; a sign that is 0 to first
    order raises ArithmeticError.
    """
    # a (1 + a) = k0 + k1 epsilon; w = (a + c_1) / (a (1 + a))
    k0, k1 = a * (a + 1), 2 * a + 1
    x0, x1, y0, y1 = a + counts[0], 1, k0, k1
    found = 0
    for j in range(1, len(counts), 2):
        c = counts[j]
        if _first_order_sign(x0, x1) < 0:
            x0, x1, y0, y1 = -x0, -x1, -y0, -y1
        cx0, cx1 = c * x0, c * x1
        if (_first_order_sign(y0, y1) > 0
                and _first_order_sign(cx0 - y0, cx1 - y1) > 0):
            found += 1
        y0, y1 = y0 - cx0, y1 - cx1
        if j + 1 < len(counts):
            c = counts[j + 1]
            x0, x1 = x0 * k0 + c * y0, x0 * k1 + x1 * k0 + c * y1
            y0, y1 = y0 * k0, y0 * k1 + y1 * k0
    return found


def _nontrivial_parts(blocks: Blocks) -> tuple[int, int, Poly]:
    """Multiplicities m0 and m1 of the eigenvalues 0 and -1, and the factor
    `rest` free of both, of a connected block form.

    m0 and m1 come from the block counts.  `rest` is Q_B, divided once by
    x + 1 when the leading 0-block is a single vertex; raises
    ArithmeticError if that division is inexact.
    """
    counts = block_counts(blocks)
    m0, m1 = _multiplicities(counts)
    rest = _q_from_counts(counts)
    if counts[0] == 1:
        rest = divide_exact(rest, _Y)
        if rest is None:
            raise ArithmeticError(
                "companion factor lacks the root -1 of a single leading "
                "vertex")
    return m0, m1, rest


def _char_poly_from_parts(m0: int, m1: int, rest: Poly) -> Poly:
    """The characteristic polynomial x^m0 (x+1)^m1 rest."""
    return mul_xk(mul(rest, poly_pow(_Y, m1)), m0)


def _eigen_enclosures(rest: Poly, precision: Fraction
                      ) -> list[RootEnclosure]:
    """Enclosures of all roots of `rest`, each at most precision / deg(rest)
    wide and strictly avoiding 0 and -1.

    Isolating x(x+1)*rest and dropping the two known point roots forces
    the remaining enclosures away from both special eigenvalues.
    """
    d = degree(rest)
    padded = mul(rest, (0, 1, 1))
    out = []
    for enc in isolate_real_roots(padded, precision / d):
        if enc.is_point and enc.lo in (0, -1):
            continue
        out.append(enc)
    return out


def _energy_from_parts(rest: Poly, counts: tuple[int, ...],
                       precision: Fraction) -> tuple[Fraction, Fraction]:
    """Energy interval of the connected graph with these block counts
    whose factor free of 0 and -1 is `rest`: twice the sum of the
    positive eigenvalues.

    With b = len(counts), the b/2 positive roots of `rest` are isolated
    on (0, bound), split by the pivot counts of `_roots_above`, and each
    refined to width precision / b, so the interval [2 sum lo, 2 sum hi]
    holds the energy and is at most 2 (b/2) (precision / b) = precision
    wide.  Raises ArithmeticError if the roots found do not number b/2,
    the inertia of every connected threshold graph.
    """
    b = len(counts)
    lo = hi = Fraction(0)
    found = 0
    for enc in isolate_real_roots(rest, precision / b,
                                  above=partial(_roots_above, counts)):
        lo += enc.multiplicity * enc.lo
        hi += enc.multiplicity * enc.hi
        found += enc.multiplicity
    if 2 * found != b:
        raise ArithmeticError(
            f"inertia check failed: {found} positive eigenvalues found "
            f"for {b} blocks, expected {b}/2")
    return 2 * lo, 2 * hi


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
    core, _ = _strip_trailing_zeros(bits)
    if not core:
        return Fraction(0), Fraction(0)
    blocks = to_blocks(core)
    _require_connected(blocks)
    _, _, rest = _nontrivial_parts(blocks)
    return _energy_from_parts(rest, block_counts(blocks), prec)


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
    an energy interval of width <= precision, for a connected sequence."""
    if not bits:
        raise ValueError("empty sequence")
    blocks = to_blocks(bits)
    _require_connected(blocks)
    prec = Fraction(precision)
    if prec <= 0:
        raise ValueError(f"precision must be positive, got {precision}")
    m0, m1, rest = _nontrivial_parts(blocks)
    full = _char_poly_from_parts(m0, m1, rest)
    e_lo, e_hi = _energy_from_parts(rest, block_counts(blocks), prec)
    encs = _eigen_enclosures(rest, prec)
    enclosures: list[RootEnclosure] = []
    if m0:
        enclosures.append(RootEnclosure(Fraction(0), Fraction(0), m0))
    if m1:
        enclosures.append(RootEnclosure(Fraction(-1), Fraction(-1), m1))
    enclosures.extend(encs)
    enclosures.sort(key=lambda r: (r.lo, r.hi))
    return SpectralSummary(
        sequence=bits,
        n=len(bits),
        m0=m0,
        m_minus1=m1,
        char_poly=full,
        nontrivial_factor=rest,
        roots=tuple(enclosures),
        energy_lo=e_lo,
        energy_hi=e_hi,
    )
