import random
from fractions import Fraction

import pytest

from threshold_spectra.intpoly import (
    divide_exact,
    evaluate,
    normalize,
    poly_pow,
)
from threshold_spectra.linalg import (
    _interpolate_at_integers,
    bareiss_determinant,
    charpoly,
)
from threshold_spectra.sequences import (
    adjacency_matrix,
    enumerate_connected,
    parse_sequence,
)


def fraction_det(matrix):
    """Independent determinant oracle: plain Gaussian elimination over Q."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] * inv
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    assert det.denominator == 1
    return int(det)


def fraction_interpolate(values):
    """Reference interpolation: Newton divided differences over Q on the
    points 0, 1, 2, ..., expanded to monomials in Fractions."""
    m = len(values)
    dd = [Fraction(v) for v in values]
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / j
    coeffs = [Fraction(0)] * m
    basis = [Fraction(1)]
    for i in range(m):
        for k, b in enumerate(basis):
            coeffs[k] += dd[i] * b
        if i + 1 < m:
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, b in enumerate(basis):
                nxt[k] -= b * i
                nxt[k + 1] += b
            basis = nxt
    if any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError("non-integer coefficient")
    return normalize(int(c) for c in coeffs)


def determinant_values(bits):
    """det(tI - A) at t = 0..n for the threshold graph of `bits`."""
    adj = adjacency_matrix(bits)
    n = len(adj)
    return [bareiss_determinant([[(t if i == j else 0) - adj[i][j]
                                  for j in range(n)] for i in range(n)])
            for t in range(n + 1)]


class TestInterpolation:
    def test_random_polynomials(self):
        rng = random.Random(19681968)
        for d in range(17):
            for _ in range(6):
                p = normalize(rng.randint(-(1 << 70), 1 << 70)
                              for _ in range(d + 1))
                points = d + 1 + rng.randint(0, 2)
                values = [evaluate(p, t) for t in range(points)]
                assert _interpolate_at_integers(values) == p
                assert fraction_interpolate(values) == p

    def test_determinant_values_of_connected_graphs(self):
        for n in range(2, 10):
            for bits in enumerate_connected(n):
                values = determinant_values(bits)
                got = _interpolate_at_integers(values)
                assert got == fraction_interpolate(values)
                assert len(got) == n + 1 and got[-1] == 1

    @pytest.mark.parametrize("values", [[0, 0, 1], [0, 1, 3, 7],
                                        [5, 0, 0, 0, 1]])
    def test_non_integer_coefficients_raise(self, values):
        # [0, 0, 1] is x(x-1)/2: integer-valued, with a non-integer
        # coefficient
        with pytest.raises(ArithmeticError):
            fraction_interpolate(values)
        with pytest.raises(ArithmeticError):
            _interpolate_at_integers(values)

    def test_one_point_is_a_constant(self):
        assert _interpolate_at_integers([-7]) == (-7,)
        assert _interpolate_at_integers([0]) == ()


class TestDeterminant:
    def test_identity(self):
        assert bareiss_determinant([[1, 0], [0, 1]]) == 1

    def test_singular(self):
        assert bareiss_determinant([[1, 2], [2, 4]]) == 0

    def test_empty(self):
        assert bareiss_determinant([]) == 1

    def test_needs_square(self):
        with pytest.raises(ValueError):
            bareiss_determinant([[1, 2, 3], [4, 5, 6]])

    def test_against_fraction_elimination(self):
        rng = random.Random(60221023)
        for _ in range(60):
            n = rng.randint(1, 7)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert bareiss_determinant(m) == fraction_det(m)

    def test_zero_pivot_with_swap(self):
        m = [[0, 1, 3], [2, 0, 1], [4, 1, 2]]
        assert bareiss_determinant(m) == fraction_det(m)


class TestCharpoly:
    def test_triangle(self):
        poly = charpoly(adjacency_matrix(parse_sequence("011")))
        assert poly == (-2, -3, 0, 1)  # x^3 - 3x - 2

    def test_single_vertex(self):
        assert charpoly([[0]]) == (0, 1)

    def test_ten_vertex_divisibilities(self):
        poly = charpoly(adjacency_matrix(parse_sequence("(0^2 1^3 0^3 1^2)")))
        assert len(poly) == 11 and poly[-1] == 1
        reduced = poly
        for factor in ((0, 1),) * 3 + ((1, 1),) * 3:
            reduced = divide_exact(reduced, factor)
            assert reduced is not None

    def test_monic_trace_free(self):
        rng = random.Random(42424242)
        for _ in range(20):
            n = rng.randint(1, 8)
            bits = (0,) + tuple(rng.randint(0, 1) for _ in range(n - 1))
            poly = charpoly(adjacency_matrix(bits))
            assert poly[-1] == 1
            assert len(poly) == n + 1
            if n >= 1:
                assert poly[n - 1] == 0

    def test_evaluation_matches_determinant(self):
        bits = parse_sequence("(0^2 1^2 0^1 1^2)")
        adj = adjacency_matrix(bits)
        poly = charpoly(adj)
        n = len(bits)
        for t in (-1, 2, 7, 100):
            shifted = [[(t if i == j else 0) - adj[i][j] for j in range(n)]
                       for i in range(n)]
            assert evaluate(poly, t) == bareiss_determinant(shifted)

    def test_matches_fraction_determinant_with_diagonal_entries(self):
        rng = random.Random(1984)
        for k in range(200):
            n = k % 9 + 1
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.randint(-4, 4)
                m[i][i] = rng.choice((-1, 1)) * rng.randint(1, 5)
            m[k % n][k % n] = -rng.randint(1, 5)
            poly = charpoly(m)
            for t in range(-2, n + 3):
                shifted = [[(t if i == j else 0) - m[i][j] for j in range(n)]
                           for i in range(n)]
                assert evaluate(poly, t) == fraction_det(shifted), (m, t)

    def test_arguments_left_unchanged(self):
        rng = random.Random(2015)
        for n in range(1, 8):
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.randint(-3, 3)
            m[0][0] = 0
            before = [row[:] for row in m]
            rows = list(m)
            charpoly(m)
            bareiss_determinant(m)
            assert m == before
            assert all(a is b for a, b in zip(m, rows))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            charpoly([[0, 1], [0, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            charpoly([[0, 1]])

    def test_complete_graph(self):
        n = 7
        poly = charpoly(adjacency_matrix((0,) + (1,) * (n - 1)))
        from threshold_spectra.intpoly import mul
        assert poly == mul((-(n - 1), 1), poly_pow((1, 1), n - 1))
