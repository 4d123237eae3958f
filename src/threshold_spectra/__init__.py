"""Exact spectral toolkit for threshold graphs.

Computes eigenvalue multiplicities and monic characteristic polynomials
straight from creation sequences, certifies graph energy to any requested
precision with exact root enclosures, and searches orders exhaustively for
noncospectral equienergetic pairs and borderenergetic candidates.

The public names below are loaded on first use: `import threshold_spectra`
imports no submodule, and `threshold_spectra.energy` imports only the
modules that `spectra` needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> "submodule" it is defined in, or "submodule.attribute"
# where the public name differs
_EXPORTS = {
    "CubicRootReport": "families",
    "EnergyClass": "hunt",
    "FamilyId": "families",
    "FamilyPair": "families",
    "HuntResult": "hunt",
    "RootEnclosure": "roots",
    "SequenceRecord": "hunt",
    "SpectralSummary": "spectra",
    "VerificationReport": "families",
    "adjacency_matrix": "sequences",
    "bareiss_determinant": "linalg",
    "char_poly": "spectra",
    "char_poly_of_sequence": "spectra",
    "charpoly_from_matrix": "linalg.charpoly",
    "closed_form_char_poly": "families",
    "cubic_root_localization": "families",
    "edge_count": "sequences",
    "energy": "spectra",
    "enumerate_connected": "sequences",
    "exact_energy_equal": "families",
    "family_pair": "families",
    "format_blocks": "sequences",
    "format_sequence": "sequences",
    "from_blocks": "sequences",
    "full_scan": "hunt",
    "index_sequences": "spectra",
    "isolate_real_roots": "roots",
    "multiplicity_minus_one": "spectra",
    "multiplicity_zero": "spectra",
    "parse_sequence": "sequences",
    "q_polynomial": "spectra",
    "spectral_summary": "spectra",
    "to_blocks": "sequences",
    "verify_family": "families",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule that defines a public name on its first access
    and keep the value here, so later lookups skip this function."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, _, attr = _EXPORTS[name].partition(".")
    value = getattr(import_module(f"{__name__}.{module}"), attr or name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
