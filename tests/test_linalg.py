import random
from fractions import Fraction

import pytest

from threshold_spectra import linalg
from threshold_spectra.intpoly import (
    divide_exact,
    evaluate,
    mul,
    normalize,
    poly_pow,
)
from threshold_spectra.linalg import (
    _eliminate,
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


def fraction_rank(matrix):
    """Independent rank: row echelon form over Q."""
    a = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for k in range(len(a[0]) if a else 0):
        pivot_row = next((i for i in range(rank, len(a)) if a[i][k]), None)
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        for i in range(rank + 1, len(a)):
            factor = a[i][k] / a[rank][k]
            for j in range(k, len(a[0])):
                a[i][j] -= factor * a[rank][j]
        rank += 1
    return rank


def fraction_interpolate(values, start=0):
    """Reference interpolation: Newton divided differences over Q on the
    points start, start + 1, ..., expanded to monomials in Fractions."""
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
                nxt[k] -= b * (start + i)
                nxt[k + 1] += b
            basis = nxt
    if any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError("non-integer coefficient")
    return normalize(int(c) for c in coeffs)


def fraction_charpoly(matrix):
    """Reference det(tI - A): Fraction determinants at t = 0..n, then the
    Fraction interpolation."""
    n = len(matrix)
    return fraction_interpolate(
        [fraction_det([[(t if i == j else 0) - matrix[i][j] for j in range(n)]
                       for i in range(n)]) for t in range(n + 1)])


def random_symmetric(rng, n, low=-4, high=4):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.randint(low, high)
    return m


def twin_blocks(rng, sizes):
    """A symmetric matrix of groups of twins with random integer entries
    between groups: false twins (zero within the group) repeat a row of A
    and give eigenvalue 0, true twins (one within the group) repeat a row
    of A + I and give eigenvalue -1."""
    true_twins = [rng.random() < 0.5 for _ in sizes]
    group = [g for g, size in enumerate(sizes) for _ in range(size)]
    between = random_symmetric(rng, len(sizes), -3, 3)
    return [[0 if u == v else int(true_twins[gu]) if gu == gv
             else between[gu][gv] for v, gv in enumerate(group)]
            for u, gu in enumerate(group)]


def determinant_values(bits):
    """det(tI - A) at t = 1..n+1 for the threshold graph of `bits`."""
    adj = adjacency_matrix(bits)
    n = len(adj)
    return [bareiss_determinant([[(t if i == j else 0) - adj[i][j]
                                  for j in range(n)] for i in range(n)])
            for t in range(1, n + 2)]


class TestInterpolation:
    def test_random_polynomials(self):
        rng = random.Random(19681968)
        for d in range(17):
            for _ in range(6):
                p = normalize(rng.randint(-(1 << 70), 1 << 70)
                              for _ in range(d + 1))
                points = d + 1 + rng.randint(0, 2)
                values = [evaluate(p, t) for t in range(1, points + 1)]
                assert _interpolate_at_integers(values) == p
                assert fraction_interpolate(values, 1) == p

    def test_determinant_values_of_connected_graphs(self):
        for n in range(2, 10):
            for bits in enumerate_connected(n):
                values = determinant_values(bits)
                got = _interpolate_at_integers(values)
                assert got == fraction_interpolate(values, 1)
                assert len(got) == n + 1 and got[-1] == 1

    @pytest.mark.parametrize("values", [[0, 0, 1], [0, 1, 3, 7],
                                        [5, 0, 0, 0, 1]])
    def test_non_integer_coefficients_raise(self, values):
        # [0, 0, 1] is (x-1)(x-2)/2 on the points 1, 2, 3: integer-valued,
        # with a non-integer coefficient
        with pytest.raises(ArithmeticError):
            fraction_interpolate(values, 1)
        with pytest.raises(ArithmeticError):
            _interpolate_at_integers(values)

    def test_one_point_is_a_constant(self):
        assert _interpolate_at_integers([-7]) == (-7,)
        assert _interpolate_at_integers([0]) == ()
        assert _interpolate_at_integers([]) == ()


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


class TestRank:
    def test_against_fraction_rank(self):
        rng = random.Random(17011986)
        for k in range(300):
            n = k % 8 + 1
            if k % 3:
                # a product through r < n columns is rank-deficient
                r = rng.randint(0, n - 1)
                left = [[rng.randint(-3, 3) for _ in range(r)]
                        for _ in range(n)]
                right = [[rng.randint(-3, 3) for _ in range(n)]
                         for _ in range(r)]
                m = [[sum(left[i][s] * right[s][j] for s in range(r))
                      for j in range(n)] for i in range(n)]
            else:
                m = [[rng.randint(-2, 2) for _ in range(n)]
                     for _ in range(n)]
            rank, det = _eliminate([row[:] for row in m])
            assert rank == fraction_rank(m), m
            assert det == fraction_det(m), m

    def test_zero_columns_are_skipped(self):
        m = [[0, 1, 2], [0, 2, 4], [0, 3, 7]]
        assert _eliminate([row[:] for row in m]) == (2, 0)
        assert _eliminate([[0] * 3 for _ in range(3)]) == (0, 0)
        assert _eliminate([]) == (0, 1)


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
        assert poly == mul((-(n - 1), 1), poly_pow((1, 1), n - 1))

    def test_random_symmetric_matrices_with_diagonals(self):
        rng = random.Random(1915)
        for k in range(150):
            n = k % 9 + 1
            m = random_symmetric(rng, n)
            for i in range(n):
                m[i][i] = rng.choice((-1, 1)) * rng.randint(1, 4)
            assert charpoly(m) == fraction_charpoly(m), m

    def test_twin_blocks(self):
        rng = random.Random(2016)
        for k in range(80):
            sizes = [rng.randint(1, 4) for _ in range(k % 4 + 1)]
            m = twin_blocks(rng, sizes)
            assert charpoly(m) == fraction_charpoly(m), m

    @pytest.mark.parametrize("m", [
        [], [[0]], [[-1]], [[3]], [[0] * 4 for _ in range(4)],
        [[-(i == j) for j in range(4)] for i in range(4)],
        [[int(i != j) for j in range(6)] for i in range(6)],
    ], ids=["empty", "zero-1", "minus-one-1", "three-1", "zero-4",
            "minus-identity-4", "complete-6"])
    def test_small_and_degenerate(self, m):
        assert charpoly(m) == fraction_charpoly(m)

    def test_wrong_determinant_raises(self, monkeypatch):
        # m1 = 1 for 0011, so det(tI - A) at t = 1 must be even
        real = linalg.bareiss_determinant
        monkeypatch.setattr(linalg, "bareiss_determinant",
                            lambda matrix: real(matrix) + 1)
        with pytest.raises(ArithmeticError):
            charpoly(adjacency_matrix(parse_sequence("0011")))

    def test_determinants_of_the_corpus(self, monkeypatch):
        # criterion 1's corpus, the 1,023 connected graphs with n <= 11:
        # 11,263 determinants at t = 0..n, 4,097 once the ranks of A and
        # A + I give the multiplicities of 0 and -1
        calls, real = [0], linalg.bareiss_determinant

        def counted(matrix):
            calls[0] += 1
            return real(matrix)

        monkeypatch.setattr(linalg, "bareiss_determinant", counted)
        for n in range(2, 12):
            for bits in enumerate_connected(n):
                charpoly(adjacency_matrix(bits))
        assert calls[0] <= 4097

    def test_smallest_oracle_query_calls_both_steps(self, monkeypatch):
        # d = 2 for 0011: one determinant, one interpolation
        calls = {}
        for name in ("bareiss_determinant", "_interpolate_at_integers"):
            def counted(*args, _real=getattr(linalg, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args)
            monkeypatch.setattr(linalg, name, counted)
        charpoly(adjacency_matrix(parse_sequence("0011")))
        assert calls == {"bareiss_determinant": 1,
                         "_interpolate_at_integers": 1}
