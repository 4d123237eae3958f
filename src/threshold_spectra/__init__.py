"""Exact spectral toolkit for threshold graphs.

Computes eigenvalue multiplicities and monic characteristic polynomials
straight from creation sequences, certifies graph energy to any requested
precision with exact root enclosures, and searches orders exhaustively for
noncospectral equienergetic pairs and borderenergetic candidates.
"""

__version__ = "0.1.0"

from .families import (
    CubicRootReport,
    FamilyId,
    FamilyPair,
    VerificationReport,
    closed_form_char_poly,
    cubic_root_localization,
    exact_energy_equal,
    family_pair,
    verify_family,
)
from .hunt import (
    EnergyClass,
    HuntResult,
    SequenceRecord,
    full_scan,
)
from .linalg import bareiss_determinant
from .linalg import charpoly as charpoly_from_matrix
from .roots import RootEnclosure, isolate_real_roots
from .sequences import (
    adjacency_matrix,
    edge_count,
    enumerate_connected,
    format_blocks,
    format_sequence,
    from_blocks,
    parse_sequence,
    to_blocks,
)
from .spectra import (
    SpectralSummary,
    char_poly,
    char_poly_of_sequence,
    energy,
    gamma,
    index_sequences,
    is_cospectral,
    multiplicity_minus_one,
    multiplicity_zero,
    q_polynomial,
    spectral_summary,
)

__all__ = [
    "CubicRootReport",
    "EnergyClass",
    "FamilyId",
    "FamilyPair",
    "HuntResult",
    "RootEnclosure",
    "SequenceRecord",
    "SpectralSummary",
    "VerificationReport",
    "adjacency_matrix",
    "bareiss_determinant",
    "char_poly",
    "char_poly_of_sequence",
    "charpoly_from_matrix",
    "closed_form_char_poly",
    "cubic_root_localization",
    "edge_count",
    "energy",
    "enumerate_connected",
    "exact_energy_equal",
    "family_pair",
    "format_blocks",
    "format_sequence",
    "from_blocks",
    "full_scan",
    "gamma",
    "index_sequences",
    "is_cospectral",
    "isolate_real_roots",
    "multiplicity_minus_one",
    "multiplicity_zero",
    "parse_sequence",
    "q_polynomial",
    "spectral_summary",
    "to_blocks",
    "verify_family",
]
