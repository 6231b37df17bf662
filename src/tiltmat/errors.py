"""Exception hierarchy shared by all tiltmat modules.

Every domain failure raises a subclass of :class:`TiltmatError`; the CLI maps
these to exit code 1 and prints ``<ClassName>: <message>`` on stderr.
"""


class TiltmatError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class NonFiniteError(TiltmatError):
    """Input contains NaN or infinite entries."""


class DimensionError(TiltmatError):
    """Operand shapes are incompatible or degenerate."""


class NotSquareError(DimensionError):
    """A square matrix was required."""


class LengthMismatchError(DimensionError):
    """Paired sequences have different lengths."""


class NegativeEntryError(TiltmatError):
    """A matrix entry is negative beyond tolerance where non-negativity is required."""


class ZeroComponentError(TiltmatError):
    """A vector component is zero or negative where strict positivity is required."""


class RowSumError(TiltmatError):
    """A row sum deviates from 1 by more than the certification tolerance."""


class ZeroRowError(TiltmatError):
    """A matrix row has no strictly positive entry."""


class PatternMismatchError(TiltmatError):
    """Two matrices have different zero patterns."""


class NotIrreducibleError(TiltmatError):
    """The transition graph is not strongly connected."""


class NotReversibleError(TiltmatError):
    """Detailed balance fails beyond the reversibility tolerance."""


class PeriodicError(TiltmatError):
    """The chain has unit second eigenvalue modulus, so no convergence rate exists."""


class ZeroStationaryError(TiltmatError):
    """A stationary-distribution component is zero where positivity is required."""


class NotSymmetricError(TiltmatError):
    """A symmetric matrix was required."""


class ConvergenceError(TiltmatError):
    """A solver failed, or its answer did not pass its residual gate."""


class FormatError(TiltmatError):
    """Malformed input: ragged rows, a value that will not become a float, wrong fields."""
