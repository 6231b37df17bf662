"""Input validation helpers.

Matrices and vectors travel through the package as plain float64 numpy
arrays; every outside array becomes one in :func:`_as_array`, and these
helpers certify shape, finiteness, and sign conventions at the API boundary,
raising the domain errors from :mod:`tiltmat.errors`.  A :class:`StochasticMatrix`
certifies itself when it is constructed, so the matrix helpers hand back its own array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    FormatError,
    NegativeEntryError,
    NonFiniteError,
    NotSquareError,
    RowSumError,
    ZeroComponentError,
)

# Default certification tolerance shared across the package and the CLI.
DEFAULT_TOL = 1e-9
_EPS = float(np.finfo(np.float64).eps)

# Support cut relative to the largest entry, used by the irreducibility gate
# and as zero_pattern's default.  Dust from products is not its reason: a
# product of non-negative matrices keeps an exact zero exactly, and _certify
# clamps negative dust to 0.  Its effect is that the gate in front of every
# stationary solve refuses a chain joined only through transitions below the
# cut, which keeps the LU solve off chains it gets badly wrong: on the 4-state
# birth-death chain joined by 1e-16, LU returns mu_0 = 1.8e-15 where the exact
# value is about 0.5, and passes its residual gate.  Exact support can follow
# GTH as the primary solver (ROADMAP item 2), never precede it.
PATTERN_REL_THRESHOLD = 1e-14


@dataclass(frozen=True)
class StochasticMatrix:
    """A rectangular matrix certified row-stochastic within ``tol``.

    The constructor certifies ``matrix`` as :func:`tiltmat.validate_stochastic`
    describes: entries are non-negative and each row sums to 1 within ``tol``,
    or within ``max(tol, m·eps)`` for a row whose dust was clamped, since its
    renormalization rounds.
    """

    matrix: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        matrix = _certify(_as_2d(self.matrix, "matrix"), self.tol)
        object.__setattr__(self, "matrix", readonly(matrix))

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.matrix if not copy else self.matrix.copy()
        return self.matrix.astype(dtype)


def _as_array(values, name: str) -> np.ndarray:
    """``values`` as float64; a value that will not convert is a FormatError naming ``name``."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{name} will not convert to float64: {exc}") from None


def _as_scalar(value, name: str) -> float:
    """``value`` by :func:`_as_array` as a float; any other shape is a DimensionError."""
    arr = _as_array(value, name)
    if arr.ndim != 0:
        raise DimensionError(f"{name} must be a scalar, got shape {arr.shape}")
    return float(arr)


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """``values`` by :func:`_as_array`, finite, 2-D, positive dims; a StochasticMatrix as it is."""
    if isinstance(values, StochasticMatrix):
        return values.matrix
    arr = _as_2d(values, name)
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains NaN or infinite entries")
    return arr


def _as_2d(values, name: str) -> np.ndarray:
    """:func:`as_matrix` without the finiteness check, for callers that make it themselves."""
    arr = _as_array(values, name)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(f"{name} must have positive dimensions, got {arr.shape}")
    return arr


def _certify(arr: np.ndarray, tol: float) -> np.ndarray:
    """The checks of :func:`validate_stochastic` on a matrix or a stack ``(..., r, c)``.

    Returns ``arr``, or a copy with its dust clamped by :func:`_nonnegative`
    and each row that had dust renormalized.  Messages locate the entry or row
    within its matrix; a caller passing a stack names the slice.  Finiteness
    is checked first, in :func:`as_matrix`'s words, so that
    :class:`StochasticMatrix` can leave that check to this function.
    """
    if not np.isfinite(arr).all():
        raise NonFiniteError("matrix contains NaN or infinite entries")
    clamped = _nonnegative(arr, tol)
    row_sums = arr.sum(axis=-1)
    dev = np.abs(row_sums - 1.0)
    if np.any(dev > tol):
        idx = np.unravel_index(int(np.argmax(dev)), dev.shape)
        raise RowSumError(
            f"row {idx[-1]} sums to {float(row_sums[idx])!r}, off by more than tol={tol}"
        )
    if clamped is not arr:
        dusty = (arr < 0.0).any(axis=-1)
        clamped[dusty] /= clamped[dusty].sum(axis=-1, keepdims=True)
    return clamped


def _nonnegative(arr: np.ndarray, tol: float, name: str = "") -> np.ndarray:
    """The one sign rule: ``arr`` with its dust in ``[-tol, 0)`` set to 0, else ``arr`` itself.

    ``tol`` must pass :func:`_check_tol`.  An entry below ``-tol`` is a
    NegativeEntryError that locates it within its matrix and names the matrix
    ``name``, when one is given.
    """
    _check_tol(tol)
    low = float(arr.min())
    if low < -tol:
        idx = np.unravel_index(int(np.argmin(arr)), arr.shape)
        i, j = idx[-2:]
        where = f" of {name}" if name else ""
        raise NegativeEntryError(f"entry ({i},{j}){where} = {float(arr[idx])!r} is below -tol")
    return np.where(arr < 0.0, 0.0, arr) if low < 0.0 else arr


def _check_tol(tol: float) -> None:
    """The one ``tol`` rule: a tolerance is positive and finite, a ValueError otherwise."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


def as_square_matrix(values, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(values, name)
    if arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"{name} must be square, got {arr.shape}")
    return arr


def as_vector(values, name: str = "vector") -> np.ndarray:
    """``values`` as a finite 1-D float64 array of length >= 1, converted by :func:`_as_array`."""
    arr = _as_array(values, name)
    if arr.ndim != 1:
        arr = arr.reshape(-1) if arr.size == max(arr.shape, default=0) else arr
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionError(f"{name} must be a non-empty 1-D vector")
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains NaN or infinite entries")
    return arr


def as_positive_vector(values, name: str = "vector") -> np.ndarray:
    """Return a finite 1-D array whose components are all strictly positive."""
    arr = as_vector(values, name)
    if not arr.min() > 0.0:
        worst = int(np.argmin(arr))
        raise ZeroComponentError(
            f"{name} must be strictly positive; component {worst} is {float(arr[worst])!r}"
        )
    return arr


def pattern_threshold(arr: np.ndarray) -> float:
    """Scale-relative cutoff below which an entry counts as a structural zero."""
    peak = float(np.max(np.abs(arr))) if arr.size else 0.0
    return PATTERN_REL_THRESHOLD * peak


def readonly(arr) -> np.ndarray:
    """A frozen float64 copy, converted by :func:`_as_array`, that value types can share."""
    out = _as_array(arr, "array").copy()
    out.setflags(write=False)
    return out
