"""Exact-arithmetic cohomology engine for smooth toric fans.

Given a smooth fan the package builds the Stanley-Reisner model of the
associated union of coordinate subspaces, the twisted exterior-algebra
complex over it, and Cech double complexes over cone covers, and
cross-checks the resulting cohomology ring through three independent
pipelines.  All computations are exact over the rationals.
"""

from .cech import (
    CechCochain,
    CoverSimplex,
    ExactnessReport,
    QuasiIsoReport,
    constant_total_cohomology,
    cup,
    forms_total_cohomology,
    glue_sections,
    split_cocycle,
    split_cocycle_generic,
    verify_exactness,
    verify_quasi_iso,
)
from .fan import (
    Cone,
    Fan,
    FanError,
    FanParseError,
    FanValidationError,
    PolyhedronInput,
    cone_of_simplex,
    parse_fan,
    parse_fan_file,
    primitive_collections,
)
from .linalg import (
    CohomologySlot,
    RationalMatrix,
    cohomology_at,
    kernel_basis,
    lift,
)
from .semiproj import (
    DegenerationRelation,
    PLCertificate,
    SemiprojectiveReport,
    check_semiprojective,
    degeneration_exponent,
)
from .srring import (
    Monomial,
    SRPolynomial,
    hilbert_series,
    multiply,
    restrict,
    sr_basis,
)
from .twisted import (
    CohomologyRing,
    DerivationPresentation,
    LsopReport,
    TwistedComplex,
    build_twisted,
    lg_cohomology,
    log_derivations,
    lsop_check,
    ring_structure,
)

__version__ = "0.1.0"

__all__ = [
    "CechCochain", "CohomologyRing", "CohomologySlot", "Cone", "CoverSimplex",
    "DegenerationRelation", "DerivationPresentation", "ExactnessReport", "Fan",
    "FanError", "FanParseError", "FanValidationError", "LsopReport", "Monomial",
    "PLCertificate", "PolyhedronInput", "QuasiIsoReport", "RationalMatrix",
    "SRPolynomial", "SemiprojectiveReport", "TwistedComplex", "build_twisted",
    "check_semiprojective", "cohomology_at", "cone_of_simplex",
    "constant_total_cohomology", "cup", "degeneration_exponent",
    "forms_total_cohomology", "glue_sections", "hilbert_series", "kernel_basis",
    "lg_cohomology", "lift", "log_derivations", "lsop_check", "multiply",
    "parse_fan", "parse_fan_file", "primitive_collections", "restrict",
    "ring_structure", "split_cocycle", "split_cocycle_generic", "sr_basis",
    "verify_exactness", "verify_quasi_iso",
]
