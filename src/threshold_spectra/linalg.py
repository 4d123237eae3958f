"""Exact integer linear algebra: fraction-free determinants and ranks,
and an interpolation-based characteristic polynomial.

This path never touches the block-sequence formula machinery, so it can
cross-check it: the multiplicities of 0 and -1 in det(xI - A) are read
off two ranks, and the rest is sampled at consecutive integer points and
recovered by Newton divided differences, in integers only.  On the
consecutive points 1, 2, 3, ... level j of the divided-difference table
holds Delta^j p(k) / j!, where p is the polynomial of least degree
through the points.  That is an integer at every integer k whenever p has
integer coefficients: p is then an integer combination of the falling
factorials x(x-1)...(x-i+1), whose j-th forward difference is i!/(i-j)!
= j! C(i, j) times a falling factorial.  So every level is an exact
division by j, and a nonzero remainder anywhere proves that p has a
non-integer coefficient; for det(xI - A), whose coefficients are
integers, it would prove a wrong determinant.
"""

from __future__ import annotations

from .intpoly import ONE, Poly, add, mul, mul_xk, normalize, poly_pow


def bareiss_determinant(matrix: list[list[int]]) -> int:
    """Exact determinant of an integer matrix via Bareiss elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    return _eliminate([row[:] for row in matrix])[1]


def _eliminate(a: list[list[int]]) -> tuple[int, int]:
    """(rank, determinant) of the square integer matrix `a`, which is
    overwritten.  A column with no nonzero entry at or below the pivot row
    is skipped; each entry below the pivot rows is still the minor on the
    pivot rows and columns and its own (Sylvester's identity), so every
    division is exact."""
    n = len(a)
    sign = 1
    prev = 1
    rank = 0
    for k in range(n):
        row_k = a[rank]
        if row_k[k] == 0:
            for i in range(rank + 1, n):
                if a[i][k] != 0:
                    a[rank], a[i] = a[i], row_k
                    row_k = a[rank]
                    sign = -sign
                    break
            else:
                continue
        pivot = row_k[k]
        for i in range(rank + 1, n):
            row_i = a[i]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
        rank += 1
    return rank, sign * prev if rank == n else 0


def charpoly(adjacency: list[list[int]]) -> Poly:
    """Monic characteristic polynomial det(xI - A) with exact coefficients.

    The input must be square and symmetric: then the multiplicity of an
    eigenvalue l is n - rank(A - lI), so det(xI - A) = x^m0 (x+1)^m1 r(x)
    with m0, m1 read off two ranks.  r is monic of degree d = n - m0 - m1
    with next coefficient -trace(A) - m1; its other coefficients come from
    the determinants of tI - A at t = 1..d-1, divided by t^m0 (t+1)^m1.
    """
    n = len(adjacency)
    if any(len(row) != n for row in adjacency):
        raise ValueError("adjacency matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if adjacency[i][j] != adjacency[j][i]:
                raise ValueError("adjacency matrix must be symmetric")
    m0 = n - _eliminate([row[:] for row in adjacency])[0]
    m1 = n - _eliminate([[a + (i == j) for j, a in enumerate(row)]
                         for i, row in enumerate(adjacency)])[0]
    d = n - m0 - m1
    second = -sum(adjacency[i][i] for i in range(n)) - m1
    shifted = [[-a for a in row] for row in adjacency]
    values = []
    for t in range(1, d):
        for i in range(n):
            shifted[i][i] = t - adjacency[i][i]
        q, rem = divmod(bareiss_determinant(shifted), t ** m0 * (t + 1) ** m1)
        if rem:
            raise ArithmeticError("det(tI - A) not divisible by "
                                  "t^m0 (t+1)^m1")
        values.append(q - t ** d - second * t ** (d - 1))
    # values are r(t) - t^d - second t^(d-1) at t = 1..d-1
    low = _interpolate_at_integers(values)
    rest = add(low, (0,) * (d - 1) + (second, 1)) if d else ONE
    return mul_xk(mul(poly_pow((1, 1), m1), rest), m0)


def _interpolate_at_integers(values: list[int]) -> Poly:
    """Polynomial through the points (1, v1), (2, v2), ... as exact integers.

    Raises ArithmeticError where that polynomial has a non-integer
    coefficient, which a nonzero remainder of some level's division
    shows.
    """
    m = len(values)
    dd = list(values)
    for j in range(1, m):
        prev = dd[j - 1]
        for i in range(j, m):
            cur = dd[i]
            dd[i], r = divmod(cur - prev, j)
            if r:
                raise ArithmeticError(
                    "interpolation produced a non-integer coefficient")
            prev = cur
    if not m:
        return ()
    # Newton form to monomials: coeffs = coeffs * (x - i) + dd[i - 1]
    coeffs = [dd[-1]]
    for i in range(m - 1, 0, -1):
        coeffs = ([dd[i - 1] - i * coeffs[0]]
                  + [a - i * b for a, b in zip(coeffs, coeffs[1:])]
                  + [coeffs[-1]])
    return normalize(coeffs)
