"""Stationary distributions, detailed balance, and reversible-chain tools.

A square stochastic matrix ``P`` with stationary distribution ``mu`` is
reversible when ``mu[i] P[i,j] == mu[j] P[j,i]`` for all pairs.  Tilting a
reversible kernel keeps it reversible and the new stationary distribution has
a closed form, as does the stationary distribution of a product of two tilts
of the same kernel.  This module computes those closed forms, measures the
detailed-balance defect, symmetrizes reversible kernels (the similarity that
makes their spectra real), and generates random reversible test chains.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    _state_vector,
    _strongly_connected,
    _tilt,
    validate_stochastic,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    NotIrreducibleError,
    NotReversibleError,
    RowSumError,
    ZeroStationaryError,
)
from .validation import (
    DEFAULT_TOL, _EPS, StochasticMatrix, _check_tol, as_square_matrix, as_vector, readonly
)


@dataclass(frozen=True)
class ReversibleChain:
    """A square stochastic kernel with its stationary distribution and defect.

    The constructor certifies a raw ``kernel`` as :func:`validate_stochastic` does,
    and ``stationary`` as finite, positive, one per state, summing to 1 within
    ``max(kernel.tol, m·eps)``; it computes ``defect``, ``max_{i,j} |mu[i] P[i,j] - mu[j] P[j,i]|``.
    """

    kernel: StochasticMatrix
    stationary: np.ndarray
    defect: float = field(init=False)

    def __post_init__(self):
        kernel = validate_stochastic(self.kernel)
        arr = as_square_matrix(kernel, "kernel")
        mu = _state_vector(self.stationary, "stationary", arr.shape[0])
        total, bound = float(mu.sum()), max(kernel.tol, arr.shape[0] * _EPS)
        if not abs(total - 1.0) <= bound:
            raise RowSumError(f"stationary sums to {total!r}, off by more than {bound!r}")
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "stationary", readonly(mu))
        object.__setattr__(self, "defect", float(_defect(arr, mu)))

    @property
    def n_states(self) -> int:
        return self.kernel.rows

    @classmethod
    def from_kernel(cls, P, tol: float = DEFAULT_TOL) -> "ReversibleChain":
        """Bundle a kernel, certified at ``tol``, with its computed stationary vector.

        Does not require the kernel to be reversible; the constructor's defect
        simply records how far from detailed balance it is.
        """
        sm = validate_stochastic(P, tol)
        return cls(sm, _stationary(as_square_matrix(sm, "P"), tol))

    def require_reversible(self, tol: float) -> None:
        """Raise NotReversibleError unless ``defect <= tol``, a ``tol`` that passes ``_check_tol``."""
        _check_tol(tol)
        if not self.defect <= tol:
            raise NotReversibleError(
                f"detailed-balance defect {self.defect!r} exceeds tolerance {tol!r}"
            )


def stationary_distribution(P, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Stationary distribution of an irreducible square stochastic matrix.

    ``P`` is certified by :func:`validate_stochastic`.  Solves
    ``(P^T - I) mu = 0``, the last equation replaced by the normalization
    ``sum(mu) = 1``, by partially pivoted elimination.  If that is singular,
    not positive or leaves a residual ``max |mu P - mu|`` above ``tol``,
    subtraction-free GTH elimination, accurate componentwise, solves it again
    and must pass the same gate or raise :class:`ConvergenceError`.
    """
    return readonly(_stationary(as_square_matrix(validate_stochastic(P, tol), "P"), tol))


def _stationary(arr: np.ndarray, tol: float) -> np.ndarray:
    """:func:`stationary_distribution` of one matrix or of each matrix of a stack.

    Every slice is solved and gated on its own; the slices that fail the gate
    go to :func:`_gth` in one call, which also treats each slice on its own,
    so no slice changes another slice's result.
    """
    if not _strongly_connected(arr).all():
        raise NotIrreducibleError("matrix is not irreducible; stationary distribution is not unique")
    n = arr.shape[-1]
    system = np.swapaxes(arr, -1, -2).copy()
    system.reshape(*arr.shape[:-2], n * n)[..., :: n + 1] -= 1.0
    system[..., -1, :] = 1.0
    rhs = np.zeros(arr.shape[:-1] + (1,))
    rhs[..., -1, 0] = 1.0
    try:
        mu = np.linalg.solve(system, rhs)[..., 0]
    except np.linalg.LinAlgError:
        # One singular slice fails the whole stack: solve slice by slice.
        mu = np.full(arr.shape[:-1], np.nan)
        for idx in np.ndindex(arr.shape[:-2]):
            try:
                mu[idx] = np.linalg.solve(system[idx], rhs[idx])[..., 0]
            except np.linalg.LinAlgError:
                pass
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        ok = mu.min(axis=-1) > 0.0
        mu /= mu.sum(axis=-1, keepdims=True)
        ok &= _stationary_residual(arr, mu) <= tol
    if not ok.all():
        mu[~ok] = exact = _gth(arr[~ok])
        residual = _stationary_residual(arr[~ok], exact)
        if not ((exact.min(axis=-1) > 0.0) & (residual <= tol)).all():
            worst = float(residual.max())
            raise ConvergenceError(f"GTH answer failed the gate: residual {worst!r}, tol={tol!r}")
    return mu


def _stationary_residual(arr: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``max |mu P - mu|`` per matrix of a stack, for ``mu`` of shape ``(..., m)``."""
    return np.abs((mu[..., None, :] @ arr)[..., 0, :] - mu).max(axis=-1)


def _gth(arr: np.ndarray) -> np.ndarray:
    """Stationary vectors of a stack ``(k, m, m)`` by GTH elimination.

    Grassmann, Taksar and Heyman (Oper. Res. 33(5), 1985): states are
    censored from the last one down with their off-diagonal row sums as
    pivots, so no step subtracts and the diagonal is never read; ``mu_0 = 1``
    is then back-substituted.  Every operation is elementwise or a sum along
    the last axis, so each slice's answer is bit-identical to its solo answer.
    """
    a, m = arr.copy(), arr.shape[-1]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for n in range(m - 1, 0, -1):
            a[..., :n, n] /= a[..., n, :n].sum(axis=-1)[..., None]
            a[..., :n, :n] += a[..., :n, n, None] * a[..., n, None, :n]
        mu = np.ones(a.shape[:-1])
        for n in range(1, m):
            mu[..., n] = (mu[..., :n] * a[..., :n, n]).sum(axis=-1)
        return mu / mu.sum(axis=-1, keepdims=True)


def reversibility_defect(P, mu) -> float:
    """Detailed-balance defect ``max_{i,j} |mu[i] P[i,j] - mu[j] P[j,i]|``."""
    arr = as_square_matrix(P, "P")
    muv = as_vector(mu, "mu")
    if muv.shape[0] != arr.shape[0]:
        raise DimensionError(
            f"mu has length {muv.shape[0]}, expected {arr.shape[0]}"
        )
    return float(_defect(arr, muv))


def _defect(arr: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """:func:`reversibility_defect` per matrix of ``arr`` ``(..., m, m)``, ``mu`` ``(..., m)``."""
    flow = mu[..., :, None] * arr
    return np.abs(flow - np.swapaxes(flow, -1, -2)).max(axis=(-2, -1))


def tilted_stationary(
    chain: ReversibleChain, u, tol: float = DEFAULT_TOL
) -> tuple[StochasticMatrix, np.ndarray]:
    """Tilt a reversible kernel and return the tilt with its stationary vector.

    For reversible ``(P, mu)`` the tilt ``U = tilt(P, u)`` is again reversible
    and its stationary distribution is the normalization of ``(P u) o mu o u``
    (entrywise products), exact up to rounding.  :func:`_closed_form` with
    the one vector ``u`` computes and certifies both, naming ``the tilt by u``.
    """
    return _closed_form(chain, {"u": u}, tol, "the tilt by u")


def two_tilt_product(
    chain: ReversibleChain, u, v, tol: float = DEFAULT_TOL
) -> tuple[StochasticMatrix, np.ndarray]:
    """Product of two tilts of one reversible kernel, with stationary vector.

    Returns ``W = tilt(P, u) @ tilt(P, v)`` and ``mu_W``, the normalization
    of ``(P u) o mu o v``, which is stationary for ``W``.  For reversible
    ``(P, mu)``, ``W`` is reversible with respect to ``mu_W``: with
    ``S = D(mu) P`` symmetric, ``a = mu o P u`` and ``G = D(u / (mu o P v))``,
    ``W = D(a)^{-1} S G S D(v)`` is similar to ``X X^T`` with
    ``X = D(sqrt(v / a)) S G^{1/2}``, so its spectrum is real and
    non-negative, which the bounds rely on.  :func:`_closed_form` with the
    vectors ``u`` and ``v`` computes and certifies both, naming ``the product
    of the tilts by u and v``.
    """
    return _closed_form(chain, {"u": u, "v": v}, tol, "the product of the tilts by u and v")


def _closed_form(
    chain: ReversibleChain, vectors: dict, tol: float, source: str
) -> tuple[StochasticMatrix, np.ndarray]:
    """The product of the tilts of ``chain`` by ``vectors`` (name: values), with its closed-form μ.

    ``chain`` must pass :meth:`ReversibleChain.require_reversible` at ``tol``.
    Each vector is checked once, by its name; :func:`_tilted_mu` evaluates
    ``(P u_first) o mu o u_last`` with power-of-two scaling that no tilt
    spread overflows, and a component below the float range, which rounds to
    0, raises :class:`ZeroStationaryError` before any tilt is formed.  Each
    tilt keeps its zero pattern or raises, naming its vector; only the
    product is certified: a tilt of the kernel ``chain`` certified has no
    dust to clamp.  The result is certified by detailed balance of
    ``(product, mu)`` on the scale that ``require_reversible`` applies to
    ``(P, mu)``, ``max |F - F^T| <= tol`` with ``F = D(mu) product``, or
    :class:`NotReversibleError`; both errors name ``source``.
    """
    chain.require_reversible(tol)
    P = chain.kernel.matrix
    checked = {name: _state_vector(x, name, P.shape[0]) for name, x in vectors.items()}
    mu = _tilted_mu(P, chain.stationary, *checked.values())
    if not mu.min() > 0.0:
        raise ZeroStationaryError(
            f"stationary component {int(np.argmin(mu))} of {source} is below the float range"
        )
    tilts = [_tilt(P, x, "P", name) for name, x in checked.items()]
    product = StochasticMatrix(functools.reduce(np.matmul, tilts), tol)
    # A flow that underflows is far below any tol.
    with np.errstate(under="ignore"):
        defect = float(_defect(product.matrix, mu))
    if not defect <= tol:
        raise NotReversibleError(
            f"{source} has detailed-balance defect {defect!r} above tol={tol!r}; "
            "the input chain is too far from detailed balance"
        )
    return product, readonly(mu)


# The closed form's largest scaled term is below 2**_TOP: sums of m < 2**60 stay finite.
_TOP = 960


def _tilted_mu(kernel: np.ndarray, mu: np.ndarray, *ends: np.ndarray) -> np.ndarray:
    """Normalized ``(kernel u_first) o mu o u_last`` of one chain, or of each chain of a stack.

    ``ends`` are ``u_first`` and ``u_last``, or one vector that is both: the
    closed form for a tilt (``u``), a product of two tilts (``u``, ``v``) and
    the conjecture scan's candidate (``u_1``, ``u_n``).  Powers of two, which
    cancel in the normalization, put ``max(u_first)`` and then the largest
    term ``w_i u_last_i``, ``w = (kernel u_first) o mu``, formed from binary
    fractions and exponents, just below ``2**_TOP``.  Nothing overflows; only
    a ``w_i`` or ``kernel_ij u_first_j`` under about ``2**-1980 max(u_first)``
    is subnormal, and only the final division rounds a result below 2**-1022.
    """
    first = np.ldexp(ends[0], _TOP - np.frexp(ends[0].max(axis=-1, keepdims=True))[1])
    fractions, exponents = np.frexp(((kernel @ first[..., None])[..., 0] * mu, ends[-1]))
    exponents = exponents[0] + exponents[1]
    exponents -= exponents.max(axis=-1, keepdims=True) - _TOP
    out = np.ldexp(fractions[0] * fractions[1], exponents)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def symmetrize(chain: ReversibleChain, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Similar symmetric form ``D^{1/2}(mu) P D^{-1/2}(mu)`` of a reversible kernel.

    The entries are ``sqrt(mu[i]/mu[j]) P[i,j]``; detailed balance makes this
    symmetric, so the kernel's eigenvalues are real; the chain certified ``mu > 0``.
    """
    chain.require_reversible(tol)
    return _similar_symmetric(chain.kernel.matrix, chain.stationary)


def _similar_symmetric(arr: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``D^{1/2}(mu) arr D^{-1/2}(mu)``: entries ``sqrt(mu[i]/mu[j]) arr[i,j]``, ``mu > 0``."""
    root = np.sqrt(mu)
    return root[:, None] * arr / root[None, :]


def random_reversible(m: int, seed: int, sparsity: float = 0.0) -> ReversibleChain:
    """Random reversible, irreducible, aperiodic chain on ``m`` states.

    Draws a symmetric non-negative weight matrix and row-normalizes it; the
    stationary distribution is then proportional to the row sums and detailed
    balance holds by construction.  The diagonal is kept strictly positive
    (aperiodicity) and, when ``sparsity > 0``, off-diagonal weights below that
    quantile are zeroed except along a random spanning tree, which preserves
    irreducibility.  Deterministic for a given ``(m, seed, sparsity)``.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    rng = np.random.default_rng(seed)
    weights = _reversible_weights(rng.random(m * m + m), m)
    if sparsity > 0.0 and m > 1:
        order = rng.permutation(m)
        tree = np.zeros((m, m), dtype=bool)
        for k in range(1, m):
            tree[order[k], order[rng.integers(0, k)]] = True
        upper_i, upper_j = np.triu_indices(m, k=1)
        values = weights[upper_i, upper_j]
        cut = (values < np.quantile(values, sparsity)) & ~(tree | tree.T)[upper_i, upper_j]
        weights[upper_i[cut], upper_j[cut]] = 0.0
        weights[upper_j[cut], upper_i[cut]] = 0.0
    return ReversibleChain(*_weighted_chain(weights))


def _weighted_chain(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kernel and stationary vector of positive-diagonal symmetric weights ``(..., m, m)``.

    The kernel, the weights with rows normalized, is stochastic by construction:
    non-negative, with rows that sum to 1 within m·eps; :func:`random_reversible`'s
    chain certifies it once, and the scan's stacks not at all.  Detailed balance
    makes ``mu`` proportional to the row sums.
    """
    row_mass = weights.sum(axis=-1)
    return weights / row_mass[..., None], row_mass / row_mass.sum(axis=-1, keepdims=True)


def _reversible_weights(draws: np.ndarray, m: int) -> np.ndarray:
    """:func:`random_reversible`'s symmetric weights from uniforms ``(..., m*m + m)`` in [0, 1).

    The first ``m*m``, as an ``(m, m)`` matrix, give each entry the mean of its
    draw and its mirror; the last ``m`` give the diagonal ``0.5 + d``, which
    symmetrising would keep: ``0.5 * (x + x) == x`` in floating point.
    """
    batch = draws.shape[:-1]
    off = draws[..., : m * m].reshape(*batch, m, m)
    weights = 0.5 * (off + np.swapaxes(off, -1, -2))
    weights.reshape(*batch, m * m)[..., :: m + 1] = 0.5 + draws[..., m * m :]
    return weights
