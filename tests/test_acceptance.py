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

import io
import random
from functools import partial

import pytest

from threshold_spectra import acceptance, cli, families, hunt, spectra
from threshold_spectra.sequences import format_sequence, nth_connected

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



# Each wrong engine takes the function it replaces.

def constant_plus_one(real):
    """`real` with 1 added to the constant coefficient of its answer."""
    def wrong(*args):
        p = real(*args)
        return (p[0] + 1,) + p[1:]
    return wrong


def energy_plus_one(real, every=1):
    """`real` with every `every`-th energy interval shifted up by 1, far
    past its width."""
    calls = [0]

    def wrong(*args):
        calls[0] += 1
        lo, hi = real(*args)
        shift = calls[0] % every == 0
        return lo + shift, hi + shift
    return wrong


def parts_energy_plus_one(real):
    """`real` (lo, hi, den) with the interval shifted up by 1."""
    def wrong(*args):
        lo, hi, den = real(*args)
        return lo + den, hi + den, den
    return wrong


def m1_plus_one(real):
    def wrong(counts):
        m0, m1 = real(counts)
        return m0, m1 + 1
    return wrong


def one_sequence_dropped(real):
    def wrong(b, length):
        got = real(b, length)
        return got - {min(got)}
    return wrong


def no_energy_classes(real):
    def wrong(lo, hi):
        return real(lo, hi)[0], []
    return wrong


def first_four_block_tuple():
    """Criterion 3's first sampled (a1, a2, a3, a4)."""
    rng = random.Random(20250806)
    return "(%d,%d,%d,%d)" % tuple(rng.randint(1, 6) for _ in range(4))


def first_random_sequence():
    """Criterion 10's first sampled sequence."""
    rng = random.Random(987654321)
    n = rng.randint(2, 16)
    bits = nth_connected(n, rng.getrandbits(n - 2) if n > 2 else 0)
    return format_sequence(bits)


# criterion -> (module, function name, wrong engine, text of the detail
# that names the first failure)
WRONG_ENGINE = {
    1: (spectra, "_char_poly_from_parts", constant_plus_one,
        "; first: (0^1 1^1)"),
    2: (spectra, "_multiplicities", m1_plus_one,
        "; first: (0^1 1^1) formula (0,2) vs counted (0,1)"),
    3: (spectra, "_q_from_counts", constant_plus_one,
        f"; e.g. (a1..a4)={first_four_block_tuple()}: engine ["),
    4: (spectra, "index_sequences", one_sequence_dropped, "(7,4): {("),
    5: (spectra, "_char_poly_from_parts", constant_plus_one,
        "; first at ('four', 1, 'G'): engine: "),
    # G' is the second energy of each pair in `verify_family`
    6: (families, "energy", partial(energy_plus_one, every=2),
        "; first four i=1: "),
    # at i = 1 the pairs' energies are about 22.57 (four) and 23.93
    # (six), so one more first passes 18i + 6 = 24 at six's G
    7: (spectra, "energy", energy_plus_one,
        "; first: ('six', 1, 'upper > 18i+6+1e-9', "),
    8: (families, "shared_cubic", constant_plus_one,
        "; first mismatch i=1: computed 37 at 0 and -41 at -(2i+1)"),
    9: (hunt, "_group", no_energy_classes, "missing pairs: ['four', 'six']"),
    10: (spectra, "_energy_from_parts", parts_energy_plus_one,
         f"; first: {first_random_sequence()}"),
    11: (spectra, "energy", energy_plus_one, "49 misses: [2, 3, 4, "),
}


@pytest.fixture
def fresh_corpus():
    # criteria 1 and 2 share a cached corpus, which a wrong engine must
    # neither read nor leave behind
    acceptance._corpus.cache_clear()
    yield
    acceptance._corpus.cache_clear()


def test_every_criterion_has_a_wrong_engine():
    assert sorted(WRONG_ENGINE) == sorted(acceptance.CRITERIA)


@pytest.mark.parametrize("number", sorted(WRONG_ENGINE))
def test_criterion_fails_on_a_wrong_engine(monkeypatch, fresh_corpus,
                                           number):
    module, name, make_wrong, first = WRONG_ENGINE[number]
    monkeypatch.setattr(module, name, make_wrong(getattr(module, name)))
    result = acceptance.CRITERIA[number]()
    assert not result.passed
    assert first in result.detail
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["selftest", "--criteria", str(number)], out=out, err=err)
    assert code == 1
    assert err.getvalue() == ""
    assert out.getvalue().startswith(f"criterion {number:02d} ")
    assert ": FAIL (" in out.getvalue()
