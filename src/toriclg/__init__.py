"""Exact-arithmetic cohomology engine for smooth toric fans.

Given a smooth fan the package builds the Stanley-Reisner model of the
associated union of coordinate subspaces, the twisted exterior-algebra
complex over it, and Cech double complexes over cone covers, and
cross-checks the resulting cohomology ring through three independent
pipelines.  All computations are exact over the rationals.

``import toriclg`` loads no submodule: each public name below is imported
from its module on first access (PEP 562), so a command line job compiles
only the modules its subcommand runs.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "CoverSimplex": "cech",
    "ExactnessReport": "cech",
    "QuasiIsoReport": "cech",
    "constant_total_cohomology": "cech",
    "cup": "cech",
    "forms_total_cohomology": "cech",
    "verify_exactness": "cech",
    "verify_quasi_iso": "cech",
    "Cone": "fan",
    "Fan": "fan",
    "FanError": "fan",
    "FanParseError": "fan",
    "FanValidationError": "fan",
    "PolyhedronInput": "fan",
    "parse_fan_file": "fan",
    "primitive_collections": "fan",
    "CohomologySlot": "linalg",
    "RationalMatrix": "linalg",
    "cohomology_at": "linalg",
    "kernel_basis": "linalg",
    "lift": "linalg",
    "DegenerationRelation": "semiproj",
    "PLCertificate": "semiproj",
    "SemiprojectiveReport": "semiproj",
    "check_semiprojective": "semiproj",
    "degeneration_exponent": "semiproj",
    "Monomial": "srring",
    "SRPolynomial": "srring",
    "multiply": "srring",
    "restrict": "srring",
    "sr_basis": "srring",
    "CohomologyRing": "twisted",
    "DerivationPresentation": "twisted",
    "LsopReport": "twisted",
    "TwistedComplex": "twisted",
    "build_twisted": "twisted",
    "lg_cohomology": "twisted",
    "log_derivations": "twisted",
    "lsop_check": "twisted",
    "ring_structure": "twisted",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
