"""Tilted stochastic matrices.

Tilting a non-negative matrix ``A`` by a strictly positive vector ``u`` means
forming ``D^{-1}(Au) A D(u)``, which is always row-stochastic.  This package
provides the construction and everything built on it: normalization of
products of tilts into diagonal-times-stochastic form, closed-form stationary
distributions for tilts of reversible chains, second-eigenvalue bounds for
tilted products, a convergence-rate demo, and a randomized scan of the
stationary-formula question for longer products.  The ``tiltmat`` console
script exposes all of it over csv / structured matrix files.
"""

from .core import (
    StochasticMatrix,
    TiltDetection,
    TiltFactorization,
    ZeroPattern,
    is_aperiodic,
    is_irreducible,
    normalize_product,
    rank1_sandwich,
    tilt,
    tilt_detect,
    tilted_product,
    validate_stochastic,
    zero_pattern,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    FormatError,
    LengthMismatchError,
    NegativeEntryError,
    NonFiniteError,
    NotIrreducibleError,
    NotReversibleError,
    NotSquareError,
    NotSymmetricError,
    PatternMismatchError,
    PeriodicError,
    RowSumError,
    TiltmatError,
    ZeroComponentError,
    ZeroRowError,
    ZeroStationaryError,
)
from .harness import ConjectureTrial, ConvergenceReport, conjecture_scan, converge_demo
from .reversible import (
    ReversibleChain,
    random_reversible,
    reversibility_defect,
    stationary_distribution,
    symmetrize,
    tilted_stationary,
    two_tilt_product,
)
from .spectral import (
    METHOD_JACOBI,
    METHOD_QR,
    BoundReport,
    Spectrum,
    bound_chain,
    bound_main,
    bound_pair,
    bound_tilted,
    general_spectrum,
    second_eigenvalue_modulus,
    spectrum,
    symmetric_eigenvalues,
)
from .validation import DEFAULT_TOL

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ConjectureTrial",
    "ConvergenceError",
    "ConvergenceReport",
    "DEFAULT_TOL",
    "DimensionError",
    "FormatError",
    "LengthMismatchError",
    "METHOD_JACOBI",
    "METHOD_QR",
    "NegativeEntryError",
    "NonFiniteError",
    "NotIrreducibleError",
    "NotReversibleError",
    "NotSquareError",
    "NotSymmetricError",
    "PatternMismatchError",
    "PeriodicError",
    "ReversibleChain",
    "RowSumError",
    "Spectrum",
    "StochasticMatrix",
    "TiltDetection",
    "TiltFactorization",
    "TiltmatError",
    "ZeroComponentError",
    "ZeroPattern",
    "ZeroRowError",
    "ZeroStationaryError",
    "bound_chain",
    "bound_main",
    "bound_pair",
    "bound_tilted",
    "conjecture_scan",
    "converge_demo",
    "general_spectrum",
    "is_aperiodic",
    "is_irreducible",
    "normalize_product",
    "random_reversible",
    "rank1_sandwich",
    "reversibility_defect",
    "second_eigenvalue_modulus",
    "spectrum",
    "stationary_distribution",
    "symmetric_eigenvalues",
    "symmetrize",
    "tilt",
    "tilt_detect",
    "tilted_product",
    "tilted_stationary",
    "two_tilt_product",
    "validate_stochastic",
    "zero_pattern",
]
