"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Every criterion must pass.  Criteria 3 and 8 assert corrected reference
values: the transcribed four-block expansion and the transcribed value of
the shared cubic at -(2i+1) carry sign slips (see "Errata" in the README).
Each correction is certified by a route that does not use the companion
factor, and each check still prints the transcribed value as an erratum.

- Criterion 3: the corrected identity has -(a1a2+a1a4+a3a4)xy and
  +a1a2a3a4, the determinant of the block quotient matrix.  It must match
  the engine's Q_4 and, padded by x^s0 (x+1)^s1, the determinant-route
  characteristic polynomial on all twenty tuples.  Erratum: the
  transcribed form has the opposite signs on those two terms.
- Criterion 8: the cubic evaluates to -24i^3-16i^2-2i at -(2i+1),
  asserted exactly for i = 1..50 together with the value at 0 and the
  three localization checks.  Erratum: the transcribed value is
  -24i^3-16i^2+6i; both are negative, so the localization conclusions
  hold under either.
"""

import pytest

from threshold_spectra import acceptance

# criterion name -> number, over the criteria run in this session
_NAMES = {}


def test_registry_holds_criteria_one_to_eleven():
    assert sorted(acceptance.CRITERIA) == list(range(1, 12))


@pytest.mark.parametrize("number", sorted(acceptance.CRITERIA))
def test_criterion(number):
    result = acceptance.CRITERIA[number]()
    print()
    print(result.line())
    assert result.number == number
    assert _NAMES.setdefault(result.name, number) == number, result.name
    assert result.passed, result.detail
