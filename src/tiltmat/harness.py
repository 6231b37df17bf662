"""Experiment drivers: convergence-rate demos and stationary-formula scans.

``converge_demo`` tracks how fast an n-fold tilted product collapses onto its
rank-1 limit and compares the fitted decay rate with the kernel's second
eigenvalue modulus.  ``conjecture_scan`` probes whether the closed-form
stationary vector known for one and two tilt factors keeps working for longer
products; it records residuals and never asserts the answer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import _STACK_BYTES, _factor_steps, _state_vectors, _tilted_prefixes
from .errors import PeriodicError, TiltmatError
from .reversible import (
    ReversibleChain, _defect, _reversible_weights, _stationary, _tilted_mu, _weighted_chain
)
from .spectral import _main_bound_curve, second_eigenvalue_modulus
from .validation import DEFAULT_TOL, _certify, readonly

# Below this floor the recorded distances are rounding noise, not signal.
_ERROR_FLOOR = 1e-13

# Matrix entries of one block of converge_demo's prefix products, (b, m, m),
# power-iterated together.  An m = 8 chain runs a 200-step schedule as one
# block; from m = 128 up a block is one product, warm-started from the last.
# Measured in-process (one BLAS thread, 2 vCPUs) against one
# product at a time: 0.25-0.52x the time at m = 8, 0.57-0.89x at m = 64,
# 1.0-1.13x at m = 128 (where the copy into the block costs as much as the
# power steps it batches) and 0.95-1.07x at m = 256-1000.
_CONVERGE_ENTRIES = 1 << 14

# Batched power-iteration steps before a block's unsettled products go to one
# stacked stationary solve.  That solve costs about 3 batched steps of a
# 200-product block at m = 8, and 80-90 steps of one product at m = 256-1000
# (one BLAS thread), so a product that needs more steps than the cap costs at
# most about 2.4 times its own power iteration.
_POWER_STEPS = 64


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


def _principal_vectors(prods: np.ndarray, start: np.ndarray, tol: float) -> np.ndarray:
    """Left principal eigenvectors of a stack ``(b, m, m)`` by power iteration, all warm-started at ``start``.

    Every product steps at once, one batched ``x @ prods`` per step, until
    no iterate moved by more than 1e-15.  The products whose last step still
    moved more after ``_POWER_STEPS`` steps go to one stacked stationary
    solve, which answers or raises its domain error.
    """
    x = start[None, None, :]
    for _ in range(_POWER_STEPS):
        y = x @ prods
        y /= y.sum(axis=-1, keepdims=True)
        gap = np.abs(y - x)
        x = y
        if gap.max() <= 1e-15:
            return x[:, 0]
    mus, moved = x[:, 0], gap.max(axis=(1, 2)) > 1e-15
    mus[moved] = _stationary(prods[moved], tol)
    return mus


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
    schedule is checked once, by the check ``tilted_product`` makes of ``us``
    and with its errors, and the bound curve is computed in one pass as a
    running product over it.  Its factors, from ``_factor_steps`` as
    ``tilted_product``'s, keep the kernel's zero pattern or raise, naming
    ``u_schedule[k]``.  The prefix products are taken in blocks of at most
    ``_CONVERGE_ENTRIES`` matrix entries, each block's ``mu_k`` found
    together by :func:`_principal_vectors`, warm-started at the previous
    block's last.  Raises :class:`PeriodicError` when the kernel's second
    eigenvalue modulus is 1 within 1e-9, since no convergence rate exists.
    """
    chain.require_reversible(tol)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    m = chain.n_states
    tilts = _state_vectors(u_schedule, "u_schedule", m)
    tilts = tilts[np.minimum(np.arange(n), len(tilts) - 1)]

    predicted = second_eigenvalue_modulus(chain.kernel, chain.stationary, tol)
    if predicted >= 1.0 - 1e-9:
        raise PeriodicError(
            f"second eigenvalue modulus {predicted!r} is 1 within 1e-9; "
            "no convergence rate exists"
        )

    errors = np.empty(n)
    block = max(1, min(n, _CONVERGE_ENTRIES // (m * m)))
    prefixes = _tilted_prefixes(_factor_steps(chain.kernel.matrix, tilts, "u_schedule"))
    mu = chain.stationary
    # One buffer serves every block, and the distances are taken in it in
    # place: allocating a (b, m, m) temporary per block cost more than copying
    # the products in (0.6 against 0.1 ms a product at m = 256).
    buffer = np.empty((block, m, m))
    for first in range(0, n, block):
        prods = buffer[: min(block, n - first)]
        for prod in prods:
            prod[...] = next(prefixes)
        mus = _principal_vectors(prods, mu, tol)
        prods -= mus[:, None, :]
        errors[first : first + len(prods)] = np.abs(prods, out=prods).max(axis=(1, 2))
        mu = mus[-1]
    bound_curve = _main_bound_curve(predicted, tilts.max(axis=1), tilts.min(axis=1))

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
    so identical arguments reproduce identical reports.  The cells of one m
    are computed together as one stack, all tilt factors of a pass in one
    call, with results bit-identical to computing each trial on its own; a
    failing cell's error, a tilt that loses an entry of its kernel included,
    is re-raised naming the cell.  A pass holds as many cells as keep its
    ``(cells, n_max, m, m)`` factor stack within ``_STACK_BYTES``, at least
    one.

    A cell draws its kernel from ``default_rng(seed)``, where ``seed`` (the
    trial's ``seed``) is the first 64 bits of child 0 of
    ``SeedSequence((base_seed, m, n, trial)).spawn(2)``, and its tilt vectors
    from ``default_rng(child 1)``.  The ``PCG64`` states of every cell of the
    scan are computed in one vectorised pass of ``SeedSequence``'s hash and
    ``PCG64``'s seeding step, bit-identical to numpy's; each cell then draws
    from one ``Generator`` of this call, its state set per stream, into one
    buffer per pass, scaled as ``uniform`` scales it.
    """
    if trials_per_cell < 1:
        raise ValueError(f"trials_per_cell must be >= 1, got {trials_per_cell}")
    if base_seed < 0:
        raise ValueError(f"base_seed must be >= 0, got {base_seed}")
    if not 0.0 <= u_spread < math.inf:
        raise ValueError(f"u_spread must be finite and >= 0, got {u_spread}")
    ms = sorted({int(m) for m in m_range})
    ns = sorted({int(n) for n in n_range})
    if not ms or min(ms) < 1:
        raise ValueError(f"m_range must contain integers >= 1, got {ms}")
    if not ns or min(ns) < 1:
        raise ValueError(f"n_range must contain integers >= 1, got {ns}")

    keys = [(m, n, t) for m in ms for n in ns for t in range(trials_per_cell)]
    streams = _cell_streams(base_seed, keys)
    # One generator per call, its state set per stream, so concurrent scans
    # never share one.
    rng = np.random.Generator(np.random.PCG64())
    trials, cells = [], len(ns) * trials_per_cell
    for first, m in zip(range(0, len(keys), cells), ms):
        per_pass = max(1, _STACK_BYTES // (8 * m * m * ns[-1]))
        for start in range(first, first + cells, per_pass):
            stop = min(start + per_pass, first + cells)
            trials += _scan_cells(keys[start:stop], streams[start:stop], rng, u_spread, tol)
    return trials


def _scan_cells(keys, streams, rng, u_spread, tol) -> list[ConjectureTrial]:
    """Draw one m's (m, n, trial) cells, sorted by n, into one buffer; scan them as one stack."""
    m, k = keys[0][0], len(keys)
    lengths = np.array([n for _, n, _ in keys])
    draws = np.empty((k, m * m + m))
    raw = np.zeros((k, lengths[-1], m))
    for c, (n, (_, chain_stream, u_stream)) in enumerate(zip(lengths.tolist(), streams)):
        rng.bit_generator.state = _pcg64_state(*chain_stream)
        rng.random(out=draws[c])
        rng.bit_generator.state = _pcg64_state(*u_stream)
        rng.random(out=raw[c, :n].reshape(-1))
    weights = _reversible_weights(draws, m)
    # uniform(low, high) is low + (high - low) * random(), bit for bit; the padding becomes 1.
    tilts = 1.0 + ((1.0 + u_spread) - 1.0) * raw
    try:
        defects, residuals = _scan_stack(weights, tilts, lengths, tol)
    except TiltmatError:
        # Name the first failing cell, with the error its own pass raises.
        for c, (_, n, t) in enumerate(keys):
            try:
                _scan_stack(weights[c : c + 1], tilts[c : c + 1, :n], lengths[c : c + 1], tol)
            except TiltmatError as exc:
                raise type(exc)(f"cell m={m}, n={n}, trial={t}: {exc}") from exc
        raise
    return [
        ConjectureTrial(m, n, seed, float(defect), float(residual))
        for (_, n, _), (seed, _, _), defect, residual in zip(keys, streams, defects, residuals)
    ]


def _cell_streams(base_seed: int, keys) -> list[tuple[int, tuple, tuple]]:
    """Chain seed and the chain and u streams' ``PCG64`` ``(state, inc)`` of each ``(m, n, trial)``.

    The streams of ``SeedSequence((base_seed, m, n, trial)).spawn(2)``'s
    children, computed for all cells at once.  A child's entropy is the
    uint32 word array numpy assembles for it: each int split into
    little-endian 32-bit words, then the spawn key (the child's index).  Four
    ints give at least four words, so the pool is never padded, and NumPy's
    stream-compatibility policy (NEP 19) keeps this rule fixed.  Child 0's
    first two words, joined little-endian, are the chain seed, and
    ``default_rng(seed)`` draws from ``SeedSequence(seed)``, whose one or two
    words zero-padded to four hash as its pool does.  Child 1 seeds the u
    stream directly.
    """
    head = np.array(_words(base_seed), dtype=np.uint32)
    cells = len(keys)
    entropy = np.empty((2 * cells, head.size + 4), dtype=np.uint32)
    entropy[:, : head.size] = head
    entropy[:, head.size : -1] = np.repeat(np.array(keys, dtype=np.uint32), 2, axis=0)
    entropy[:, -1] = np.tile(np.arange(2, dtype=np.uint32), cells)
    children = _generate_state(_mix_entropy(entropy))
    seeds = np.zeros((cells, _POOL_SIZE), dtype=np.uint32)
    seeds[:, :2] = children[0::2, :2]
    chain_states = _pcg64_states(_generate_state(_mix_entropy(seeds)))
    u_states = _pcg64_states(children[1::2])
    joined = seeds[:, 0].astype(np.uint64) | seeds[:, 1].astype(np.uint64) << np.uint64(32)
    return list(zip(joined.tolist(), chain_states, u_states))


# NumPy's SeedSequence (NEP 19, after O'Neill's seed_seq): the pool size, the
# hash constants of mix_entropy (A) and of generate_state (B), the mixing
# multipliers and the xorshift.  All arithmetic is modulo 2**32.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# PCG64's 128-bit LCG multiplier (O'Neill 2014; numpy's pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The ``count + 1`` values ``init * mult**k`` modulo 2**32 a hash runs through."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return np.array(values, dtype=np.uint32)


_STATE_CONSTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_OTHER_WORDS = [[d for d in range(_POOL_SIZE) if d != src] for src in range(_POOL_SIZE)]


@functools.lru_cache(maxsize=8)
def _hashmix_calls(length: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Xor and multiplier constants of ``mix_entropy``'s ``4 L`` hashmix calls, grouped.

    Each call steps the constant once, whatever the data.  The groups in
    order: fill the pool, hash each pool word for the other three, then hash
    each remaining entropy word for all four.
    """
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * length)
    consts.setflags(write=False)
    sizes = [_POOL_SIZE] + [_POOL_SIZE - 1] * _POOL_SIZE + [_POOL_SIZE] * (length - _POOL_SIZE)
    bounds = np.cumsum(sizes)[:-1]
    return list(zip(np.split(consts[:-1], bounds), np.split(consts[1:], bounds)))


def _mix_entropy(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).pool`` of each row of a ``(rows, L)`` uint32 array, ``L >= 4``.

    ``mix_entropy`` on every row at once, the calls that hash one value for
    several pool words made together.  A shorter entropy is the same row
    zero-padded to four words, since a missing word is hashed as 0.
    """
    calls = iter(_hashmix_calls(entropy.shape[1]))

    def hashmix(value):
        xor, mult = next(calls)
        value = (value ^ xor) * mult
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> _XSHIFT

    pool = hashmix(entropy[:, :_POOL_SIZE])
    for src, dst in enumerate(_OTHER_WORDS):
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src, None]))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        pool = mix(pool, hashmix(entropy[:, src, None]))
    return pool


def _generate_state(pools: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of each pool row, as its eight uint32 words."""
    words = (np.tile(pools, 2) ^ _STATE_CONSTS[:-1]) * _STATE_CONSTS[1:]
    return words ^ words >> _XSHIFT


def _pcg64_states(words: np.ndarray) -> list[tuple[int, int]]:
    """The 128-bit ``(state, inc)`` of a ``PCG64`` seeded from each row of eight uint32 words.

    The words, joined little-endian in pairs, give the 128-bit initial state
    and stream; ``pcg_setseq_128_srandom_r`` then steps the LCG twice.
    """
    halves = words[:, 0::2].astype(np.uint64) | words[:, 1::2].astype(np.uint64) << np.uint64(32)
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in halves.tolist():
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def _pcg64_state(state: int, inc: int) -> dict:
    """The ``bit_generator.state`` of a ``PCG64`` at ``(state, inc)``."""
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words numpy's SeedSequence makes of a non-negative int."""
    words = [value & 0xFFFFFFFF]
    while value >> 32:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def _uniform(seed: int, low: float, high: float, size: int) -> np.ndarray:
    """``np.random.default_rng(seed).uniform(low, high, size)``, bit for bit, without numpy.random.

    ``default_rng(seed)`` seeds ``PCG64`` from ``SeedSequence(seed)``; each
    draw steps the LCG, takes its XSL-RR output word and makes the double
    ``(word >> 11) * 2**-53``, which ``uniform`` scales to ``[low, high)``.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    words = _words(seed)
    entropy = np.zeros((1, max(_POOL_SIZE, len(words))), dtype=np.uint32)
    entropy[0, : len(words)] = words
    ((state, inc),) = _pcg64_states(_generate_state(_mix_entropy(entropy)))
    draws = []
    for _ in range(size):
        state = (state * _PCG_MULT + inc) & _MASK128
        word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        draws.append((word >> rot | word << (64 - rot)) & _MASK64)
    return low + (high - low) * ((np.array(draws, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53)


def _scan_stack(weights: np.ndarray, tilts: np.ndarray, lengths: np.ndarray, tol: float):
    """Defects and candidate residuals of k cells: weights ``(k, m, m)``, tilts ``(k, n_max, m)``.

    The steps of :func:`random_reversible`, :func:`tilted_product`,
    :func:`stationary_distribution` and :func:`reversibility_defect`, each on
    the whole stack.  The product and its stationary vectors are certified as
    those functions certify them.  The tilts are not value-checked as
    :func:`tilted_product` checks its ``us``: they are ``1 + ((1 + u_spread)
    - 1)·r`` with ``r`` in [0, 1), from a spread that :func:`conjecture_scan`
    has checked finite and non-negative, so they are finite and at least 1;
    but their factors, from ``_factor_steps``, keep their zero pattern or
    raise.  Cell c's tilts are its first ``lengths[c]`` rows, the rest 1;
    ``lengths`` is sorted.
    """
    k, m = weights.shape[:2]
    kernel, mu = _weighted_chain(weights)

    # Step j continues the cells with more than j factors, a suffix of the stack.
    starts = np.searchsorted(lengths, np.arange(lengths[-1] + 1), side="right")
    factors = (step[starts[j] :] for j, step in enumerate(_factor_steps(kernel, tilts, "us")))
    products = np.empty_like(kernel)
    for j, prod in enumerate(_tilted_prefixes(factors)):
        products[starts[j] : starts[j + 1]] = prod[: starts[j + 1] - starts[j]]
    products = _certify(products, tol)
    mu_actual = _stationary(products, tol)

    candidate = _tilted_mu(kernel, mu, tilts[:, 0], tilts[np.arange(k), lengths - 1])
    return _defect(products, mu_actual), np.abs(mu_actual - candidate).max(axis=-1)
