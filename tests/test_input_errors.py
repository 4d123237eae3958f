"""Library entry points refuse bad input with ValueError before any work:
the branches that no command-line test reaches, because the command line
checks the same input first or never passes it."""

import pytest

from threshold_spectra import families, hunt, sequences, spectra


@pytest.mark.parametrize("call, args, message", [
    (spectra.index_sequences, (0, 0), "need a positive block count"),
    (spectra.index_sequences, (2, 3), r"length must lie in \[0, 2\], got 3"),
    (spectra.char_poly_of_sequence, ((),), "empty sequence"),
    (spectra.spectral_summary, ((), 1), "empty sequence"),
    (spectra.spectral_summary, ((0, 1), 0), "precision must be positive"),
    (families.closed_form_char_poly, (families.FamilyId.FOUR_BLOCK, 0, "G"),
     "family parameter must be >= 1"),
    (hunt.full_scan, (4, -1), "precision must be positive"),
    (sequences.nth_connected, (1, 0), "need n >= 2"),
    (hunt.full_scan, (4, 0), "precision must be positive"),
    (hunt.full_scan, (1, 1), "need n >= 2, got 1"),
    (spectra.energy, ((0, 1), 0), "precision must be positive"),
    (spectra.energy, ((0, 1), -1), "precision must be positive"),
])
def test_bad_input_raises_value_error(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)
