"""Dense arbitrary-precision integer polynomials.

A polynomial is a tuple of int coefficients in ascending degree order with
no trailing zero; the zero polynomial is the empty tuple.  All arithmetic
is exact.  Rational evaluation uses fractions.Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Union

Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (1,)


def normalize(coeffs: Iterable[int]) -> Poly:
    """Canonical form: strip trailing zero coefficients."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(p: Poly) -> int:
    """Degree of p; the zero polynomial has degree -1."""
    return len(p) - 1


def add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return normalize(out)


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def mul_scalar(p: Poly, c: int) -> Poly:
    if c == 0:
        return ZERO
    return tuple(c * a for a in p)


def mul_xk(p: Poly, k: int) -> Poly:
    """Multiply by x^k."""
    if not p:
        return ZERO
    return (0,) * k + p


def poly_pow(p: Poly, k: int) -> Poly:
    if k < 0:
        raise ValueError("negative exponent")
    result = ONE
    base = p
    while k:
        if k & 1:
            result = mul(result, base)
        base = mul(base, base)
        k >>= 1
    return result


def evaluate(p: Poly, t: Union[int, Fraction]) -> Union[int, Fraction]:
    """Horner evaluation, exact for int or Fraction arguments."""
    acc: Union[int, Fraction] = 0
    for c in reversed(p):
        acc = acc * t + c
    return acc


def derivative(p: Poly) -> Poly:
    return normalize(i * c for i, c in enumerate(p) if i)


def divide_exact(p: Poly, d: Poly) -> Optional[Poly]:
    """Quotient p / d when d divides p exactly over the integers, else None."""
    if not d:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return ZERO
    if len(p) < len(d):
        return None
    rem = list(p)
    lead = d[-1]
    dn = len(d)
    quot = [0] * (len(p) - dn + 1)
    for k in range(len(quot) - 1, -1, -1):
        top = rem[k + dn - 1]
        if top % lead:
            return None
        q = top // lead
        quot[k] = q
        if q:
            for j in range(dn):
                rem[k + j] -= q * d[j]
    if any(rem):
        return None
    return normalize(quot)


def content(p: Poly) -> int:
    """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
    g = 0
    for c in p:
        g = math.gcd(g, c)
    return g


def primitive_part(p: Poly) -> Poly:
    """p divided by its positive content; sign of coefficients is preserved."""
    g = content(p)
    if g <= 1:
        return p
    return tuple(c // g for c in p)


def _pseudo_rem(f: Poly, g: Poly) -> tuple[Poly, int]:
    """Pseudo-remainder of f by g and the number of scaling steps.

    Returns (r, s) with lc(g)^s * (f mod g) = r over the rationals.  g must
    be nonzero and f must have no trailing zero, so that every step starts
    from a nonzero leading coefficient of r.
    """
    r = list(f)
    dg = degree(g)
    lg = g[-1]
    steps = 0
    while len(r) - 1 >= dg:
        shift = len(r) - 1 - dg
        top = r[-1]
        r = [lg * c for c in r]
        for j in range(dg + 1):
            r[shift + j] -= top * g[j]
        steps += 1
        while r and r[-1] == 0:
            r.pop()
    return tuple(r), steps


def gcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd over the integers, positive leading coefficient."""
    a = primitive_part(p)
    b = primitive_part(q)
    if not a:
        a, b = b, a
    while b:
        r, _ = _pseudo_rem(a, b)
        a, b = b, primitive_part(r)
    if not a:
        return ZERO
    return a if a[-1] > 0 else neg(a)


def square_free_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition of the primitive, positively-normalized part of p.

    Returns pairwise-coprime square-free factors with multiplicities such
    that the product of factor^multiplicity equals the normalized input.
    """
    if not p:
        raise ValueError("zero polynomial has no square-free decomposition")
    work = primitive_part(p)
    if work[-1] < 0:
        work = neg(work)
    if degree(work) < 1:
        return []
    g = gcd(work, derivative(work))
    if degree(g) == 0:
        return [(work, 1)]
    out: list[tuple[Poly, int]] = []
    b = divide_exact(work, g)
    c = divide_exact(derivative(work), g)
    assert b is not None and c is not None
    d = sub(c, derivative(b))
    mult = 1
    while degree(b) > 0:
        f = gcd(b, d)
        if degree(f) > 0:
            out.append((f, mult))
        b2 = divide_exact(b, f)
        c2 = divide_exact(d, f)
        assert b2 is not None and c2 is not None
        b = b2
        d = sub(c2, derivative(b))
        mult += 1
    return out


def to_coeff_list(p: Poly) -> list[int]:
    """Ascending coefficient list, [0] for the zero polynomial."""
    return list(p) if p else [0]


def format_poly(p: Poly) -> str:
    """Human-readable form, e.g. 'x^3 - 9x^2 - 10x + 36'."""
    if not p:
        return "0"
    parts: list[str] = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            xs = "x" if i == 1 else f"x^{i}"
            body = xs if mag == 1 else f"{mag}{xs}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
