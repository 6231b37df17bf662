"""Dense spectral computations on LAPACK through ``numpy.linalg``.

Two eigenvalue routes cover the package's needs.  The symmetric route,
labelled ``symmetric-jacobi`` for the CLI's ``jacobi`` choice, runs LAPACK
``syevd`` (``numpy.linalg.eigvalsh``) on symmetrized reversible kernels, where
the theory guarantees a real spectrum.  The general route, labelled
``general-qr``, runs LAPACK ``geev`` (``numpy.linalg.eigvals``, Hessenberg
reduction and shifted QR) on any square matrix.  Each public eigen function
checks its input once, picks a route and calls the one route kernel
:func:`_eigenvalues`.  On top of them sit second-eigenvalue extraction and
evaluators for the four second-eigenvalue bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, LengthMismatchError, NotSymmetricError
from .reversible import _defect, _similar_symmetric, _stationary_residual
from .validation import DEFAULT_TOL, _EPS, _as_array, as_positive_vector, as_square_matrix

METHOD_JACOBI = "symmetric-jacobi"
METHOD_QR = "general-qr"


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of a square matrix, sorted by descending modulus."""

    eigenvalues: np.ndarray
    method: str

    def __post_init__(self):
        values = np.asarray(self.eigenvalues, dtype=np.complex128)
        # Fancy indexing copies, so the frozen array is the instance's own.
        frozen = values[np.lexsort((-values.imag, -values.real, -np.abs(values)))]
        frozen.setflags(write=False)
        object.__setattr__(self, "eigenvalues", frozen)

    def moduli(self) -> np.ndarray:
        return np.abs(self.eigenvalues)


@dataclass(frozen=True)
class BoundReport:
    """One observed second-eigenvalue modulus against one bound value.

    The bound is satisfied when ``observed <= bound`` up to a margin of 1e-9
    relative to the larger of the two magnitudes, but never below
    ``4 * n_states * eps``.  That floor is the resolution of a double
    precision eigenvalue of a stochastic matrix with ``n_states`` states:
    below it, an observed value and a bound cannot be told apart.
    """

    observed_lambda2: float
    bound_value: float
    satisfied: bool
    slack: float

    @classmethod
    def evaluate(
        cls, observed_lambda2: float, bound_value: float, n_states: int = 1
    ) -> "BoundReport":
        observed = float(_as_array(observed_lambda2, "observed_lambda2"))
        bound = float(_as_array(bound_value, "bound_value"))
        margin = max(1e-9 * max(abs(observed), abs(bound)), 4 * n_states * _EPS)
        return cls(observed, bound, observed <= bound + margin, bound - observed)


def _symmetric_within(arr: np.ndarray, tol: float) -> bool:
    """Whether ``max |a_ij - a_ji| <= tol * max(1, max |a_ij|)``."""
    scale = max(1.0, float(np.abs(arr).max()))
    return float(np.abs(arr - arr.T).max()) <= tol * scale


def _eigenvalues(arr: np.ndarray, route: str) -> np.ndarray:
    """Eigenvalues of a checked square array on ``route``, the one LAPACK call.

    ``symmetric-jacobi`` runs ``syevd`` on the symmetric part and returns real
    values in descending order; ``general-qr`` runs ``geev`` and returns them
    in LAPACK's order.  LAPACK non-convergence becomes ConvergenceError.
    """
    symmetric = route == METHOD_JACOBI
    routine = np.linalg.eigvalsh if symmetric else np.linalg.eigvals
    try:
        values = routine(0.5 * (arr + arr.T) if symmetric else arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK {routine.__name__} failed: {exc}") from None
    return np.ascontiguousarray(values[::-1]) if symmetric else values


def symmetric_eigenvalues(S, tol: float = 1e-12) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by LAPACK ``syevd``, sorted descending.

    ``tol`` bounds the accepted input asymmetry, relative to the largest
    entry; the symmetric part of the input is what gets decomposed.
    """
    arr = as_square_matrix(S, "S")
    if not _symmetric_within(arr, tol):
        raise NotSymmetricError("matrix is not symmetric within tol")
    return _eigenvalues(arr, METHOD_JACOBI)


def general_spectrum(M) -> Spectrum:
    """Full spectrum of a square real matrix by LAPACK ``geev``; complex pairs permitted."""
    return Spectrum(_eigenvalues(as_square_matrix(M, "M"), METHOD_QR), METHOD_QR)


def spectrum(M, method: str = "auto", tol: float = DEFAULT_TOL) -> Spectrum:
    """Spectrum with solver routing.

    ``auto`` picks the symmetric route (``syevd``) when the input is symmetric
    within ``tol`` (relative to its largest entry) and the general route
    (``geev``) otherwise; passing ``symmetric-jacobi`` or ``general-qr``
    forces a route.  A forced symmetric route accepts an asymmetry up to
    ``max(tol, 1e-12)``.
    """
    arr = as_square_matrix(M, "M")
    if method == "auto":
        method = METHOD_JACOBI if _symmetric_within(arr, tol) else METHOD_QR
    elif method == METHOD_JACOBI:
        if not _symmetric_within(arr, max(tol, 1e-12)):
            raise NotSymmetricError("matrix is not symmetric within tol")
    elif method != METHOD_QR:
        raise ValueError(f"unknown method {method!r}")
    return Spectrum(_eigenvalues(arr, method), method)


def _drop_principal(values: np.ndarray) -> float:
    """Largest modulus of real or complex ``values`` besides the one closest to 1.

    Moduli are non-negative, so masking the principal one with 0 leaves the
    maximum of the rest, and 0.0 for a single eigenvalue.
    """
    distances = np.abs(values - 1.0)
    principal = int(np.argmin(distances))
    if not distances[principal] <= 1e-6:  # also catches NaN
        raise ConvergenceError(
            f"no eigenvalue within 1e-6 of 1 (closest is {complex(values[principal])!r}); "
            "input does not look stochastic"
        )
    moduli = np.abs(values)
    # Of equally close eigenvalues the largest is taken as the principal one,
    # so the answer does not depend on the order LAPACK returns them in.
    moduli[np.argmax(np.where(distances == distances[principal], moduli, -1.0))] = 0.0
    return float(moduli.max())


def second_eigenvalue_modulus(P, mu=None, tol: float = DEFAULT_TOL) -> float:
    """Second largest eigenvalue modulus of a square stochastic matrix.

    When ``mu`` is supplied and certifies detailed balance within ``tol``
    (stationarity residual and defect both below it), the spectrum is taken
    from the symmetric route on the symmetrized kernel, which is exact for
    reversible inputs; otherwise, NaN in ``mu`` included, the general route
    is used.  A ``mu`` that will not convert is a FormatError.  The eigenvalue
    closest to 1 is excluded; if none lies within 1e-6 of 1 the input is
    rejected as having drifted from stochasticity.
    """
    arr = as_square_matrix(P, "P")
    if mu is not None:
        muv = _as_array(mu, "mu").reshape(-1)
        if muv.shape[0] != arr.shape[0]:
            raise LengthMismatchError(f"mu has length {muv.shape[0]}, expected {arr.shape[0]}")
        if muv.min() > 0.0 and _stationary_residual(arr, muv) <= tol and _defect(arr, muv) <= tol:
            # The route decomposes the symmetric part of D^{1/2} P D^{-1/2};
            # that shifts eigenvalues by at most the asymmetry, which the
            # detailed-balance gate already bounded.  It is finite unless tol
            # is vacuous; then syevd yields NaN, which _drop_principal rejects.
            return _drop_principal(_eigenvalues(_similar_symmetric(arr, muv), METHOD_JACOBI))
    return _drop_principal(_eigenvalues(arr, METHOD_QR))


def bound_tilted(lambda2_P: float, u) -> float:
    """Bound on the tilted second eigenvalue: ``lambda2 * (max u / min u)**2``."""
    uv = as_positive_vector(u, "u")
    ratio = float(uv.max()) / float(uv.min())
    return float(_as_array(lambda2_P, "lambda2_P")) * ratio * ratio


def bound_pair(lambda2_1: float, lambda2_2: float, mu1, mu2) -> float:
    """Bound for a product of two reversible kernels.

    ``lambda2_1 * lambda2_2 * max(mu1/mu2) * max(mu2/mu1)``, the form the
    underlying inequality's derivation actually establishes: the two-kernel
    case of :func:`bound_chain`, which computes it.
    """
    return bound_chain([lambda2_1, lambda2_2], [mu1, mu2])


def bound_chain(lambda2s, mus) -> float:
    """Bound for a product of ``n`` reversible kernels.

    ``prod(lambda2_i) * prod_{i=2..n} max(mu_{i-1}/mu_i) * max(mu_n/mu_1)``;
    with ``n = 2`` this reduces to :func:`bound_pair`.  Once a ratio
    overflows, the bound is vacuous and reads inf, also where a rate is 0.
    """
    rates = _as_array(lambda2s, "lambda2s").reshape(-1).tolist()
    distributions = [as_positive_vector(mu, f"mus[{k}]") for k, mu in enumerate(mus)]
    if len(rates) != len(distributions) or not rates:
        raise LengthMismatchError(f"{len(rates)} rates vs {len(distributions)} distributions")
    sizes = {d.shape[0] for d in distributions}
    if len(sizes) != 1:
        raise LengthMismatchError(f"distribution lengths differ: {sorted(sizes)}")
    value = math.prod(rates)
    for prev, cur in zip(distributions, distributions[1:] + distributions[:1]):
        ratio = float((prev / cur).max())
        if ratio == math.inf:
            return math.inf
        value *= ratio
    return value


def bound_main(lambda2_P: float, us) -> float:
    """Bound for an ``n``-fold tilted product: ``lambda2**n * prod (max u / min u)**4``."""
    vectors = [as_positive_vector(u, f"us[{k}]") for k, u in enumerate(us)]
    if not vectors:
        raise DimensionError("us must contain at least one vector")
    highs, lows = np.array([(v.max(), v.min()) for v in vectors]).T
    return float(_main_bound_curve(_as_array(lambda2_P, "lambda2_P"), highs, lows)[-1])


def _main_bound_curve(lambda2_P: float, highs: np.ndarray, lows: np.ndarray) -> np.ndarray:
    """:func:`bound_main` of every prefix of a schedule, given each ``max u_i`` and ``min u_i``.

    Entry k is ``lambda2**(k+1) * prod_{i<=k} (max u_i / min u_i)**4``.  The
    ratios, the powers and the running product are Python float arithmetic in
    schedule order, so entry k equals ``bound_main(lambda2_P, vectors[:k+1])``
    bit for bit.  Once the product of ratios overflows, the bound is vacuous
    and reads inf, also where ``lambda2**(k+1)`` is 0.
    """
    lam = float(lambda2_P)
    curve = []
    spread = 1.0
    for k, (high, low) in enumerate(zip(highs.tolist(), lows.tolist()), start=1):
        spread *= _power(high / low, 4)
        curve.append(math.inf if spread == math.inf else _power(lam, k) * spread)
    return np.array(curve)


def _power(x: float, k: int) -> float:
    """Python float ``x ** k`` that overflows to inf instead of raising."""
    try:
        return x**k
    except OverflowError:
        return math.inf
