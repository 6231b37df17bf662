"""Experiment drivers: convergence-rate demos and stationary-formula scans.

``converge_demo`` tracks how fast an n-fold tilted product collapses onto its
rank-1 limit and compares the fitted decay rate with the kernel's second
eigenvalue modulus.  ``conjecture_scan`` probes whether the closed-form
stationary vector known for one and two tilt factors keeps working for longer
products; it records residuals and never asserts the answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _tilted_prefixes, tilted_product
from .errors import PeriodicError
from .reversible import (
    ReversibleChain,
    random_reversible,
    reversibility_defect,
    stationary_distribution,
)
from .spectral import _main_bound_curve, second_eigenvalue_modulus
from .validation import DEFAULT_TOL, as_positive_vector, readonly

# Below this floor the recorded distances are rounding noise, not signal.
_ERROR_FLOOR = 1e-13


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-step distances of a tilted product from its rank-1 limit.

    ``errors[k]`` is ``max |P_prod_k - 1 mu_k^T|`` where ``mu_k`` is the left
    principal eigenvector at step k+1; ``bound_curve`` applies the n-fold
    product bound to the same schedule prefix; ``fitted_rate`` is the
    exponential of the log-error slope over the tail and ``predicted_rate``
    is the kernel's second eigenvalue modulus.
    """

    n_steps: int
    errors: np.ndarray
    fitted_rate: float
    predicted_rate: float
    bound_curve: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "errors", readonly(self.errors))
        object.__setattr__(self, "bound_curve", readonly(self.bound_curve))


@dataclass(frozen=True)
class ConjectureTrial:
    """One scanned instance: cell coordinates, derived seed, and residuals."""

    m: int
    n: int
    seed: int
    defect: float
    candidate_residual: float


def _left_principal(prod: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Left principal eigenvector by power iteration, warm-started."""
    x = start
    for _ in range(1000):
        y = x @ prod
        y /= y.sum()
        if float(np.abs(y - x).max()) <= 1e-15:
            return y
        x = y
    return x


def _fit_rate(errors: np.ndarray) -> float:
    """Exponential of the log-error slope over the tail of the valid steps.

    Steps whose error sits below the floating-point floor carry no rate
    information and are discarded before the last-half window is taken;
    with fewer than two usable steps the fit is reported as 0.
    """
    valid = np.flatnonzero(errors >= _ERROR_FLOOR)
    if valid.size < 2:
        return 0.0
    tail = valid[valid.size // 2 :]
    if tail.size < 2:
        tail = valid[-2:]
    slope = np.polyfit(tail + 1, np.log(errors[tail]), 1)[0]
    return float(np.exp(slope))


def converge_demo(
    chain: ReversibleChain, u_schedule, n: int, tol: float = DEFAULT_TOL
) -> ConvergenceReport:
    """Track convergence of ``prod_{i<=k} tilt(P, u_i)`` to its rank-1 limit.

    The schedule is extended by repeating its last vector when shorter than
    ``n``.  The product is accumulated with per-step row renormalization so
    stochasticity drift stays at rounding level over hundreds of steps.  The
    schedule is validated once, and the bound curve is computed in one pass
    as a running product over it.
    Raises :class:`PeriodicError` when the kernel's second eigenvalue modulus
    is 1 within 1e-9, since no convergence rate exists then.
    """
    chain.require_reversible(tol)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    schedule = [as_positive_vector(u, f"u_schedule[{k}]") for k, u in enumerate(u_schedule)]
    if not schedule:
        raise ValueError("u_schedule must contain at least one vector")
    m = chain.n_states
    for k, vec in enumerate(schedule):
        if vec.shape[0] != m:
            raise ValueError(f"u_schedule[{k}] has length {vec.shape[0]}, expected {m}")
    if len(schedule) < n:
        schedule = schedule + [schedule[-1]] * (n - len(schedule))
    schedule = schedule[:n]

    predicted = second_eigenvalue_modulus(chain.kernel, chain.stationary, tol)
    if predicted >= 1.0 - 1e-9:
        raise PeriodicError(
            f"second eigenvalue modulus {predicted!r} is 1 within 1e-9; "
            "no convergence rate exists"
        )

    errors = np.empty(n)
    mu_k = np.asarray(chain.stationary, dtype=np.float64)
    for k, prod in enumerate(_tilted_prefixes(chain.kernel.matrix, schedule)):
        mu_k = _left_principal(prod, mu_k)
        errors[k] = float(np.abs(prod - mu_k[None, :]).max())
    bound_curve = _main_bound_curve(predicted, schedule)

    return ConvergenceReport(n, errors, _fit_rate(errors), predicted, bound_curve)


def conjecture_scan(
    m_range,
    n_range,
    trials_per_cell: int,
    base_seed: int = 0,
    u_spread: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> list[ConjectureTrial]:
    """Scan n-fold tilted products for reversibility and a candidate formula.

    For each (m, n, trial) cell a reversible kernel and tilt vectors with
    components in [1, 1 + u_spread] are drawn, the product of the n tilts is
    formed, and its actual stationary vector is compared against the
    candidate ``normalize((P u_1) o mu_P o u_n)``, the natural extension of
    the closed forms proved for n = 1 and n = 2.  The trial records the
    detailed-balance defect of the product and the candidate's residual; no
    claim is made about either, the numbers are the result.

    Every trial's randomness derives from ``(base_seed, m, n, trial)`` alone,
    so identical arguments reproduce identical reports.
    """
    if trials_per_cell < 1:
        raise ValueError(f"trials_per_cell must be >= 1, got {trials_per_cell}")
    if base_seed < 0:
        raise ValueError(f"base_seed must be >= 0, got {base_seed}")
    if u_spread < 0.0:
        raise ValueError(f"u_spread must be >= 0, got {u_spread}")
    ms = sorted({int(m) for m in m_range})
    ns = sorted({int(n) for n in n_range})
    if not ms or min(ms) < 1:
        raise ValueError(f"m_range must contain integers >= 1, got {ms}")
    if not ns or min(ns) < 1:
        raise ValueError(f"n_range must contain integers >= 1, got {ns}")

    trials = []
    for m in ms:
        for n in ns:
            for t in range(trials_per_cell):
                root = np.random.SeedSequence((base_seed, m, n, t))
                chain_entropy, u_entropy = root.spawn(2)
                chain_seed = int(chain_entropy.generate_state(1, np.uint64)[0])
                chain = random_reversible(m, chain_seed, 0.0)
                rng = np.random.default_rng(u_entropy)
                us = [rng.uniform(1.0, 1.0 + u_spread, size=m) for _ in range(n)]

                product = tilted_product(chain.kernel, us, tol)
                mu_actual = stationary_distribution(product, tol)
                defect = reversibility_defect(product, mu_actual)
                candidate = (chain.kernel.matrix @ us[0]) * chain.stationary * us[-1]
                candidate /= candidate.sum()
                residual = float(np.abs(mu_actual - candidate).max())
                trials.append(ConjectureTrial(m, n, chain_seed, defect, residual))
    return trials
