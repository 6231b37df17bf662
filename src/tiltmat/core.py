"""Tilted stochastic matrices and their structure.

A *tilt* of a non-negative matrix ``A`` by a strictly positive vector ``u`` is
the row-normalized diagonal sandwich ``D^{-1}(Au) A D(u)``, which is always
row-stochastic and has the same zero pattern as ``A``.  This module provides
the tilt itself, the product of tilts of one kernel (:func:`tilted_product`),
stochastic certification, zero-pattern / irreducibility / aperiodicity
analysis, normalization of a product ``A_1 D(u_1) ... A_n D(u_n)`` into a
single diagonal-times-stochastic factorization, and detection of a tilt
relation between two stochastic matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NotIrreducibleError,
    PatternMismatchError,
    ZeroRowError,
)
from .validation import (
    DEFAULT_TOL,
    PATTERN_REL_THRESHOLD,
    StochasticMatrix,
    _nonnegative,
    as_matrix,
    as_positive_vector,
    as_square_matrix,
    readonly,
)

# Size of the float64 tilt factors _factor_steps makes in one call and of one
# conjecture scan pass, (cells, steps, m, m): a longer schedule is tilted a block
# of steps at a time and a larger grid runs in passes, so memory stays flat.
_STACK_BYTES = 1 << 20


def _stack_items(floats: int) -> int:
    """How many items of ``floats`` float64 values each fit in ``_STACK_BYTES``, at least one."""
    return max(1, _STACK_BYTES // (8 * floats))


@dataclass(eq=False, frozen=True)
class ZeroPattern:
    """Boolean support mask of a matrix: True where an entry exceeds the threshold."""

    mask: np.ndarray

    def __post_init__(self):
        frozen = np.array(self.mask, dtype=bool, copy=True)
        frozen.setflags(write=False)
        object.__setattr__(self, "mask", frozen)

    @property
    def rows(self) -> int:
        return self.mask.shape[0]

    @property
    def cols(self) -> int:
        return self.mask.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZeroPattern):
            return NotImplemented
        return self.mask.shape == other.mask.shape and bool(
            np.array_equal(self.mask, other.mask)
        )

    def __hash__(self):
        return hash((self.mask.shape, self.mask.tobytes()))


@dataclass(frozen=True)
class TiltFactorization:
    """A product of non-negative factors written as diagonal times stochastic.

    ``scale`` is kept at unit max-norm and the factored-out magnitude lives in
    ``log_scale``, so long products stay representable.  The represented
    diagonal vector is ``scale * exp(log_scale)``.
    """

    scale: np.ndarray
    log_scale: float
    kernel: StochasticMatrix

    def __post_init__(self):
        object.__setattr__(self, "scale", readonly(self.scale))

    def scale_vector(self) -> np.ndarray:
        """Dense diagonal vector; may overflow for very long products."""
        return self.scale * math.exp(self.log_scale)

    def reconstruct(self) -> np.ndarray:
        """Dense ``D(scale_vector) @ kernel``, for comparison with the raw product."""
        return self.scale_vector()[:, None] * self.kernel.matrix


@dataclass(frozen=True)
class TiltDetection:
    """Outcome of a tilt-relation search between two stochastic matrices.

    ``factor`` is the max-normalized tilt vector when one exists, else None;
    ``reason`` is "ok", "support-disconnected", or "not-rank-1".
    """

    factor: np.ndarray | None
    reason: str

    def __post_init__(self):
        if self.factor is not None:
            object.__setattr__(self, "factor", readonly(self.factor))

    @property
    def found(self) -> bool:
        return self.factor is not None


def validate_stochastic(M, tol: float = DEFAULT_TOL) -> StochasticMatrix:
    """Certify a matrix as row-stochastic within ``tol``.

    Entries in ``[-tol, 0)`` are treated as floating-point dust: they are
    clamped to zero and the affected row is renormalized, which rounds, so
    that row sums to 1 within ``max(tol, m·eps)``.  Entries below
    ``-tol`` raise :class:`NegativeEntryError`; a row sum off by more than
    ``tol`` raises :class:`RowSumError`.  ``tol`` must be positive and finite.
    A :class:`StochasticMatrix` certified itself when it was constructed and
    is returned as it is, at the tolerance it was certified at: a stricter
    ``tol`` does not check it again, but ``tol`` must still be positive and finite.
    """
    if isinstance(M, StochasticMatrix) and 0.0 < tol < math.inf:
        return M
    return StochasticMatrix(M, tol)


def tilt(A, u, tol: float = DEFAULT_TOL) -> StochasticMatrix:
    """Tilt a non-negative matrix by a strictly positive vector.

    Returns ``D^{-1}(Au) A D(u)``, the row normalization of ``A D(u)``; every row
    of ``A`` needs a strictly positive entry, so that ``Au`` has no zero component.
    ``tol`` must be positive and finite; entries of ``A`` in ``[-tol, 0)`` count as
    zeros and one below ``-tol`` is a NegativeEntryError naming ``A``.
    The result is certified stochastic within ``tol`` and keeps the zero pattern of
    ``A`` exactly: a positive entry whose tilt rounds to 0 is a PatternMismatchError.
    """
    arr = as_matrix(A)
    uv = _state_vector(u, "u", arr.shape[1])
    return StochasticMatrix(_tilt(_nonnegative(arr, tol, "A"), uv, "A", "u"), tol)


def _tilt(arr: np.ndarray, uv: np.ndarray, a_name="A", u_name="u", first=0) -> np.ndarray:
    """The one tilt, of a non-negative matrix or stack ``(..., m, m)`` by ``uv`` ``(..., m)``.

    It keeps the zero pattern of ``arr`` or raises PatternMismatchError naming the
    first entry lost, ``a_name`` and ``u_name``, or ``u_name[first + k]`` for vector
    k of a stack ``(..., s, m)``; past one reduction, only a tilt with a 0 or NaN is searched.
    """
    out = arr * uv[..., None, :]
    np.divide(out, _row_weights(arr, uv, a_name)[..., :, None], out=out)
    if not out.min() > 0.0:
        lost = (arr > 0.0) & (out == 0.0)
        if lost.any():
            *stack, i, j = np.argwhere(lost)[0]
            name = f"{u_name}[{first + stack[-1]}]" if uv.ndim > 1 else u_name
            raise PatternMismatchError(
                f"entry ({i},{j}) of {a_name} is positive; its tilt by {name} rounds to 0"
            )
    return out


def _row_weights(arr: np.ndarray, uv: np.ndarray, a_name="A") -> np.ndarray:
    """``A u`` per matrix of a stack; a component that is not positive is a ZeroRowError.

    The error names the row and the matrix, as ``a_name``.
    """
    weights = (arr @ uv[..., None])[..., 0]
    if np.any(weights <= 0.0):
        idx = np.unravel_index(int(np.argmin(weights)), weights.shape)
        raise ZeroRowError(f"row {idx[-1]} of {a_name} has no strictly positive entry")
    return weights


def _state_vector(values, name: str, m: int) -> np.ndarray:
    """``values`` checked finite and strictly positive, with one component per state."""
    uv = as_positive_vector(values, name)
    if uv.shape[0] != m:
        raise DimensionError(f"{name} has length {uv.shape[0]}, expected {m}")
    return uv


def _state_vectors(values, name: str, m: int) -> np.ndarray:
    """``values`` as an ``(n, m)`` stack, each vector checked by :func:`_state_vector`.

    An error names the first bad ``name[k]``; ``(m, 1)`` columns are flattened.
    """
    checked = [_state_vector(u, f"{name}[{k}]", m) for k, u in enumerate(values)]
    if not checked:
        raise DimensionError(f"{name} must contain at least one vector")
    return np.stack(checked)


def _factor_steps(kernel: np.ndarray, tilts: np.ndarray, name: str):
    """The one source of a schedule's factors: ``_tilt(kernel, tilts[..., j, :])`` for each step j.

    ``kernel`` ``(m, m)`` goes with ``tilts`` ``(n, m)`` and a stack ``(k, m, m)`` with
    ``(k, n, m)``; a lost entry names ``name[j]``.  Steps are tilted in one call per
    block whose factors fit ``_STACK_BYTES``, so memory stays flat however long ``n`` is.
    """
    n_max, m = tilts.shape[-2:]
    block = _stack_items(tilts.size // n_max * m)
    for first in range(0, n_max, block):
        steps = tilts[..., first : first + block, :]
        yield from _tilt(kernel[..., None, :, :], steps, "P", name, first).swapaxes(0, -3)


def _tilted_prefixes(factors):
    """Yield the running products ``F_1``, ``F_1 @ F_2``, ... of given factors, unchecked.

    A factor is one matrix, or a stack ``(k_j, m, m)`` with k_j never
    increasing: a step then continues only the last k_j products, so cells
    sorted by product length drop out from the front of the stack as they
    finish.  Rows are renormalized after every factor, the first included,
    so stochasticity drift stays at rounding level over hundreds of factors.
    The factors of a tilted product come from :func:`_factor_steps`, whose
    tilts keep their zero pattern; a zero that appears only in a product is
    not looked for.
    """
    prod = None
    for factor in factors:
        # On one matrix len(prod) == len(factor) == m and the slice keeps everything.
        # The first factor is copied: it may be a view of the caller's stack.
        prod = factor.copy() if prod is None else prod[len(prod) - len(factor):] @ factor
        prod /= prod.sum(axis=-1)[..., None]
        yield prod


def tilted_product(P, us, tol: float = DEFAULT_TOL) -> StochasticMatrix:
    """Product ``tilt(P, u_1) @ ... @ tilt(P, u_n)`` of tilts of one square kernel.

    Inputs are checked once: ``P`` by :func:`validate_stochastic` and as
    square, ``us`` by the one schedule check that ``converge_demo`` makes too
    (non-empty, each ``u`` strictly positive with one component per state).
    Each factor, from :func:`_factor_steps`, keeps the zero pattern of ``P``
    or raises, naming ``us[k]``, as :func:`tilt` does; the product is certified.
    """
    arr = as_square_matrix(validate_stochastic(P, tol), "P")
    for prod in _tilted_prefixes(_factor_steps(arr, _state_vectors(us, "us", arr.shape[0]), "us")):
        pass
    return StochasticMatrix(prod, tol)


def rank1_sandwich(y, A, x) -> np.ndarray:
    """Diagonal sandwich ``D(y) A D(x)``, the entrywise product ``(y x^T) o A``."""
    arr = as_matrix(A)
    yv = as_positive_vector(y, "y")
    xv = as_positive_vector(x, "x")
    if yv.shape[0] != arr.shape[0]:
        raise DimensionError(f"y has length {yv.shape[0]}, expected rows(A) = {arr.shape[0]}")
    if xv.shape[0] != arr.shape[1]:
        raise DimensionError(f"x has length {xv.shape[0]}, expected cols(A) = {arr.shape[1]}")
    return yv[:, None] * arr * xv[None, :]


def zero_pattern(M, threshold: float | None = None) -> ZeroPattern:
    """Support mask of ``M``: True where an entry is strictly above ``threshold``.

    With ``threshold=None`` a scale-relative cutoff (1e-14 times the largest
    absolute entry) separates structural zeros from floating-point dust.
    """
    arr = as_matrix(M)
    if threshold is None:
        return ZeroPattern(_support(arr))
    if threshold < 0.0:
        raise ValueError("threshold must be non-negative")
    return ZeroPattern(arr > threshold)


def _support(arr: np.ndarray) -> np.ndarray:
    """Support mask of a matrix or a stack, each matrix cut at its own scale."""
    return arr > PATTERN_REL_THRESHOLD * np.abs(arr).max(axis=(-2, -1), keepdims=True)


def _bfs_levels(adj: np.ndarray) -> np.ndarray:
    """Breadth-first level of every state from state 0; -1 if unreached.

    ``adj`` is one boolean adjacency matrix or a stack ``(..., m, m)``.  The
    search ends at an empty frontier or once every state of every matrix is
    reached, where no later level could change.
    """
    flat = adj.reshape(-1, *adj.shape[-2:])
    level = np.full(flat.shape[:-1], -1, dtype=np.int64)
    level[:, 0] = 0
    frontier = level == 0
    unreached = level < 0
    depth = 0
    while frontier.any() and unreached.any():
        depth += 1
        # Read only rows on some matrix's frontier: O(|frontier| m) for one matrix.
        rows = np.flatnonzero(frontier.any(axis=0))
        frontier = (frontier[:, rows, None] & flat[:, rows]).any(axis=1) & unreached
        level[frontier] = depth
        unreached &= ~frontier
    return level.reshape(adj.shape[:-1])


def _strongly_connected(arr: np.ndarray) -> np.ndarray:
    """Per matrix of ``arr`` ``(..., m, m)``: is its support digraph strongly connected."""
    # Support from and to state 0 everywhere certifies it in one step; search the rest.
    adj = _support(arr).reshape(-1, *arr.shape[-2:])
    connected = adj[:, 0].all(axis=-1) & adj[:, :, 0].all(axis=-1)
    if not connected.all():
        rest = adj[~connected]
        both = np.stack((rest, np.swapaxes(rest, -1, -2)))  # reached from 0, and reaching 0
        connected[~connected] = (_bfs_levels(both) >= 0).all(axis=(0, -1))
    return connected.reshape(arr.shape[:-2])


def is_irreducible(P: StochasticMatrix) -> bool:
    """True iff the positive-entry digraph of a square matrix is strongly connected."""
    return bool(_strongly_connected(as_square_matrix(P, "P")))


def is_aperiodic(P: StochasticMatrix) -> bool:
    """True iff the gcd of directed cycle lengths in the support graph is 1.

    Requires an irreducible matrix.  Breadth-first levels from state 0 give
    the period as gcd of ``level[i] + 1 - level[j]`` over all edges (i, j);
    tree edges contribute 0 and leave the gcd unchanged.
    """
    arr = as_square_matrix(P, "P")
    if not _strongly_connected(arr):
        raise NotIrreducibleError("aperiodicity is only defined for irreducible matrices")
    adj = _support(arr)
    level = _bfs_levels(adj)
    rows, cols = np.nonzero(adj)
    return bool(np.gcd.reduce(np.abs(level[rows] + 1 - level[cols])) == 1)


def normalize_product(factors, tol: float = DEFAULT_TOL) -> TiltFactorization:
    """Write a product ``A_1 D(u_1) ... A_n D(u_n)`` as ``D(u) P`` with P stochastic.

    Every factor is checked once, as :func:`tilt` checks its inputs and its
    zero pattern, naming ``A_k`` and ``u_k``.  The kernel is the running
    product of the factors ``A_k D(u_k)`` with rows renormalized after each
    one; the row sums that renormalization removes are ``P_{k-1} @ (A_k u_k)``,
    so the scale vector, ``A_1 u_1`` at the first factor, is multiplied by
    them.  The scale vector is renormalized to unit max-norm every step with
    the magnitude accumulated in ``log_scale``, so products with hundreds of
    factors stay representable.  Only the final kernel is certified.
    """
    pairs = list(factors)
    if not pairs:
        raise DimensionError("normalize_product needs at least one (A, u) factor")
    m = as_square_matrix(pairs[0][0], "A_1").shape[0]
    checked = []
    for k, (a_k, u_k) in enumerate(pairs):
        arr = as_matrix(a_k, f"A_{k + 1}")
        if arr.shape != (m, m):
            raise DimensionError(
                f"factor {k + 1} has shape {arr.shape}, expected ({m}, {m})"
            )
        uv = _state_vector(u_k, f"u_{k + 1}", m)
        arr = _nonnegative(arr, tol, f"A_{k + 1}")
        _tilt(arr, uv, f"A_{k + 1}", f"u_{k + 1}")
        checked.append((arr * uv, _row_weights(arr, uv)))

    log_scale = 0.0
    scale = kernel = None
    for (_, w), prod in zip(checked, _tilted_prefixes(f for f, _ in checked)):
        scale = w if kernel is None else scale * (kernel @ w)
        kernel = prod
        s = float(scale.max())
        scale = scale / s
        log_scale += math.log(s)
    return TiltFactorization(scale, log_scale, StochasticMatrix(kernel, tol))


def tilt_detect(P1, P2, tol: float = DEFAULT_TOL) -> TiltDetection:
    """Search for a positive u with ``P1 = tilt(P2, u)``.

    The two zero patterns must be equal, compared exactly (``a > 0``): a
    tilt keeps every exact zero until an entry underflows, but it moves
    entries against the largest by up to its spread, so a cut relative to
    the largest entry, as :func:`zero_pattern`'s default, does not survive it.
    The entrywise ratio ``P1/P2`` over the common support must extend to a
    rank-1 positive matrix.  In log space that is an additive model
    ``log ratio = a_i + b_j``; the row offset of state 0 is pinned to 0 and
    the remaining offsets propagate along support edges breadth-first.  If
    the support graph leaves any offset unpinned the relation is undetermined
    and the search reports "support-disconnected".  The candidate is rebuilt
    as :func:`tilt` builds it, so it keeps the zero pattern of ``P2`` or
    raises; if it does not match ``P1`` entrywise within ``tol`` the search
    reports "not-rank-1".  The returned factor has largest component 1.
    ``P1`` is certified by :func:`validate_stochastic` and ``P2`` is held to
    :func:`tilt`'s sign rule before the patterns are compared, naming ``P2``,
    so ``tol`` must be positive and finite.
    """
    a1 = validate_stochastic(P1, tol).matrix
    a2 = as_matrix(P2)
    if a1.shape != a2.shape:
        raise DimensionError(f"shapes {a1.shape} and {a2.shape} differ")
    a2 = _nonnegative(a2, tol, "P2")
    support = a2 > 0.0
    if not np.array_equal(a1 > 0.0, support):
        raise PatternMismatchError("zero patterns differ, no tilt relation can hold")

    m, n = a2.shape
    row_off = np.full(m, np.nan)
    col_off = np.full(n, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(support, np.log(a1) - np.log(a2), 0.0)
    row_off[0] = 0.0
    rows = np.array([0])
    while rows.size:
        # Offsets spread one level at a time: every column first reached from
        # this level of rows takes its offset from the lowest such row, and
        # likewise every row first reached from the new columns.
        reach = support[rows]
        cols = np.flatnonzero(reach.any(axis=0) & np.isnan(col_off))
        if not cols.size:
            break
        parents = rows[reach[:, cols].argmax(axis=0)]
        col_off[cols] = log_ratio[parents, cols] - row_off[parents]
        reach = support[:, cols]
        rows = np.flatnonzero(reach.any(axis=1) & np.isnan(row_off))
        parents = cols[reach[rows].argmax(axis=1)]
        row_off[rows] = log_ratio[rows, parents] - col_off[parents]
    if np.isnan(col_off).any() or np.isnan(row_off).any():
        return TiltDetection(None, "support-disconnected")

    u = np.exp(col_off)
    u = _state_vector(u / u.max(), "u", n)
    if float(np.abs(_tilt(a2, u, "P2", "u") - a1).max()) > tol:
        return TiltDetection(None, "not-rank-1")
    return TiltDetection(u, "ok")
