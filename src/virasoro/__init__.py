"""Exact-arithmetic toolkit for centrally extended current algebras.

The package provides the Witt bracket and its central extensions, degree-2
cocycle reduction against the (m^3 - m)/12 representative, bosonic Fock
modules with the quadratic (Sugawara-type) generators, highest-weight
modules for the extended algebra, and the canonical map between the two
module families.  All coefficients are rational and all comparisons are
exact; every check produces a machine-readable report.
"""

from .core import FreeVector, format_scalar, parse_scalar
from .reports import VerificationReport

__all__ = [
    "FreeVector",
    "VerificationReport",
    "format_scalar",
    "parse_scalar",
]

__version__ = "0.1.0"
