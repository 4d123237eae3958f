"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Every criterion must pass.  Criteria 3 and 8 assert corrected reference
values: the transcribed four-block expansion and the transcribed value of
the shared cubic at -(2i+1) carry sign slips (see "Errata" in the README).
Each correction is certified by a route that does not use the companion
factor, and each check still prints the transcribed value as an erratum.
"""

from threshold_spectra import acceptance


def _check(number):
    result = acceptance.CRITERIA[number]()
    print()
    print(result.line())
    assert result.passed, result.detail
    return result


class TestAcceptance:
    def test_criterion_01_formula_vs_determinant_oracle(self):
        _check(1)

    def test_criterion_02_multiplicity_formulas(self):
        _check(2)

    def test_criterion_03_four_block_identity(self):
        # Corrected identity: -(a1a2+a1a4+a3a4)xy and +a1a2a3a4, the
        # determinant of the block quotient matrix.  It must match the
        # engine's Q_4 and, padded by x^s0 (x+1)^s1, the determinant-route
        # characteristic polynomial on all twenty tuples.  Erratum: the
        # transcribed form has the opposite signs on those two terms.
        _check(3)

    def test_criterion_04_index_sequence_sets(self):
        _check(4)

    def test_criterion_05_family_closed_forms(self):
        _check(5)

    def test_criterion_06_family_pairs(self):
        _check(6)

    def test_criterion_07_family_energy_bounds(self):
        _check(7)

    def test_criterion_08_cubic_sign_and_root_localization(self):
        # Corrected value: the cubic evaluates to -24i^3-16i^2-2i at
        # -(2i+1), asserted exactly for i = 1..50 together with the value
        # at 0 and the three localization checks.  Erratum: the transcribed
        # value is -24i^3-16i^2+6i; both are negative, so the localization
        # conclusions hold under either.
        _check(8)

    def test_criterion_09_hunt_recovers_pairs(self):
        _check(9)

    def test_criterion_10_energy_identity(self):
        _check(10)

    def test_criterion_11_complete_graph_energy(self):
        _check(11)
