"""Differential tests: the exact engine against independent routes on
random connected sequences drawn by hypothesis.

The examples are derandomized and their number fixed, so every run checks
the same sequences.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
numpy = pytest.importorskip("numpy")
st = hypothesis.strategies

from threshold_spectra import linalg, roots, spectra  # noqa: E402
from threshold_spectra.intpoly import square_free_decomposition  # noqa: E402
from threshold_spectra.sequences import adjacency_matrix, nth_connected  # noqa: E402
from threshold_spectra.spectra import char_poly_of_sequence, energy  # noqa: E402

PRECISION = Fraction(1, 10 ** 8)
FLOAT_SLACK = 1e-9


@st.composite
def connected_sequences(draw, max_n):
    n = draw(st.integers(2, max_n))
    return nth_connected(n, draw(st.integers(0, (1 << (n - 2)) - 1)))


@st.composite
def block_forms_and_points(draw):
    """Counts of a connected block form with B <= 40 blocks of 1..6
    vertices, and a point num/den >= 0: an integer or a dyadic rational."""
    b = 2 * draw(st.integers(1, 20))
    counts = tuple(draw(st.lists(st.integers(1, 6), min_size=b, max_size=b)))
    top = 2 * sum(counts)
    if draw(st.booleans()):
        return counts, draw(st.integers(0, top)), 1
    den = 1 << draw(st.integers(1, 24))
    return counts, draw(st.integers(1, top * den)), den


def float_energy(bits):
    mat = numpy.array(adjacency_matrix(bits), dtype=float)
    return float(numpy.abs(numpy.linalg.eigvalsh(mat)).sum())


@hypothesis.settings(derandomize=True, deadline=None, max_examples=50)
@hypothesis.given(connected_sequences(40))
def test_energy_interval_contains_float_energy(bits):
    lo, hi = energy(bits, PRECISION)
    assert hi - lo <= PRECISION
    assert float(lo) - FLOAT_SLACK <= float_energy(bits) <= float(hi) + FLOAT_SLACK


@hypothesis.settings(derandomize=True, deadline=None, max_examples=20)
@hypothesis.given(connected_sequences(20))
def test_char_poly_matches_determinant_route(bits):
    assert char_poly_of_sequence(bits) == linalg.charpoly(adjacency_matrix(bits))


@hypothesis.settings(derandomize=True, deadline=None, max_examples=20)
@hypothesis.given(connected_sequences(40))
def test_deep_precision_interval_nests_in_shallow(bits):
    deep = Fraction(1, 10 ** 300)
    lo, hi = energy(bits, PRECISION)
    deep_lo, deep_hi = energy(bits, deep)
    assert lo <= deep_lo <= deep_hi <= hi
    assert deep_hi - deep_lo <= deep


@hypothesis.settings(derandomize=True, deadline=None, max_examples=60)
@hypothesis.given(block_forms_and_points())
def test_roots_above_matches_sturm(case):
    counts, num, den = case
    _, _, rest = spectra._nontrivial_parts(counts)
    bound = roots._pow2_fujiwara_bound(rest)
    want = 0
    for factor, mult in square_free_decomposition(rest):
        chain = roots.sturm_chain(factor)
        want += mult * (roots._variations(chain, num, den)
                        - roots._variations(chain, bound, 1))
    assert spectra._roots_above(counts, num, den) == want
