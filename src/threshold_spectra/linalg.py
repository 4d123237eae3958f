"""Exact integer linear algebra: fraction-free determinants and an
interpolation-based characteristic polynomial.

This path never touches the block-sequence formula machinery, so it can
cross-check it: det(xI - A) is sampled at the integer points 0..n and
recovered by Newton divided differences, in integers only.  On the
consecutive points 0, 1, 2, ... level j of the divided-difference table
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

from .intpoly import Poly, normalize


def bareiss_determinant(matrix: list[list[int]]) -> int:
    """Exact determinant of an integer matrix via Bareiss elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    a = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def charpoly(adjacency: list[list[int]]) -> Poly:
    """Monic characteristic polynomial det(xI - A) with exact coefficients.

    The input must be square and symmetric.  Determinants of tI - A are
    evaluated at t = 0..n and interpolated.
    """
    n = len(adjacency)
    if any(len(row) != n for row in adjacency):
        raise ValueError("adjacency matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if adjacency[i][j] != adjacency[j][i]:
                raise ValueError("adjacency matrix must be symmetric")
    if n == 0:
        return (1,)
    values = []
    for t in range(n + 1):
        shifted = [[(t if i == j else 0) - adjacency[i][j] for j in range(n)]
                   for i in range(n)]
        values.append(bareiss_determinant(shifted))
    return _interpolate_at_integers(values)


def _interpolate_at_integers(values: list[int]) -> Poly:
    """Polynomial through the points (0, v0), (1, v1), ... as exact integers.

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
    # Newton form to monomials: coeffs = coeffs * (x - i) + dd[i]
    coeffs = [dd[-1]]
    for i in range(m - 2, -1, -1):
        coeffs = ([dd[i] - i * coeffs[0]]
                  + [a - i * b for a, b in zip(coeffs, coeffs[1:])]
                  + [coeffs[-1]])
    return normalize(coeffs)
