"""Exact prime-characteristic singularity invariants over F_p.

Differential jump sets, Bernstein-Sato roots, differential/F/Cartier
thresholds, test ideals and F-jumping numbers, for polynomial rings and a
restricted class of singular rings (Veronese subrings, which are
level-differentially extensible direct summands of a polynomial ring,
numerical semigroup rings, and a small catalog of named rings).
"""

from .padic import BasePFraction, PAdicRational, format_rational, parse_rational
from .polyring import Ideal, ParseError, Polynomial, PolyRing
from .rings import (
    CatalogPresentation,
    NumericalSemigroup,
    PolynomialRingPresentation,
    SemigroupIdeal,
    SemigroupRingPresentation,
    VeronesePresentation,
    jump_engine,
    parse_ring_declaration,
    semigroup_diff_closure,
)
from .frobenius import cartier_preimage, diff_closure, eth_root, eth_root_power
from .jumps import JumpTable, jump_set_via_oracle, jump_table, nu_invariant
from .roots import (
    AdmissibilityReport,
    RootCertificate,
    RootRefutation,
    admissibility_report,
    bernstein_sato_roots,
    enumerate_candidates,
    verify_root_to_level,
)
from .thresholds import (
    ThresholdCertificate,
    cartier_threshold,
    coset_correspondence_check,
    differential_thresholds,
    f_jumping_numbers,
    f_threshold,
    fpt,
    test_ideal,
)

__version__ = "0.1.0"

__all__ = [
    "BasePFraction",
    "PAdicRational",
    "format_rational",
    "parse_rational",
    "Ideal",
    "ParseError",
    "Polynomial",
    "PolyRing",
    "CatalogPresentation",
    "NumericalSemigroup",
    "PolynomialRingPresentation",
    "SemigroupIdeal",
    "SemigroupRingPresentation",
    "VeronesePresentation",
    "jump_engine",
    "parse_ring_declaration",
    "semigroup_diff_closure",
    "cartier_preimage",
    "diff_closure",
    "eth_root",
    "eth_root_power",
    "JumpTable",
    "jump_set_via_oracle",
    "jump_table",
    "nu_invariant",
    "AdmissibilityReport",
    "RootCertificate",
    "RootRefutation",
    "admissibility_report",
    "bernstein_sato_roots",
    "enumerate_candidates",
    "verify_root_to_level",
    "ThresholdCertificate",
    "cartier_threshold",
    "coset_correspondence_check",
    "differential_thresholds",
    "f_jumping_numbers",
    "f_threshold",
    "fpt",
    "test_ideal",
]
