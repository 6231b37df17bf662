import re
import sys
import threading
import warnings

import numpy as np
import pytest

from tiltmat import (
    ConjectureTrial,
    DimensionError,
    NonFiniteError,
    NotIrreducibleError,
    NotReversibleError,
    PatternMismatchError,
    PeriodicError,
    ReversibleChain,
    TiltmatError,
    bound_main,
    conjecture_scan,
    converge_demo,
    random_reversible,
    reversibility_defect,
    stationary_distribution,
    tilted_product,
    validate_stochastic,
)
from tiltmat import core, harness

THREE_CYCLE = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]


def lazy_chain(m, seed, hold=0.95):
    """Slow reversible chain: convex mix of the identity and a random kernel."""
    base = random_reversible(m, seed)
    P = hold * np.eye(m) + (1.0 - hold) * base.kernel.matrix
    return ReversibleChain.from_kernel(P)


def test_converge_constant_ones_matches_rate():
    chain = random_reversible(5, seed=50)
    report = converge_demo(chain, [np.ones(5)], n=60)
    assert report.n_steps == 60
    assert report.errors.shape == (60,)
    assert abs(report.fitted_rate - report.predicted_rate) < 0.05


def test_converge_decaying_schedule_matches_rate():
    # u_i -> ones quickly, so the tail decays at the kernel's own rate
    chain = random_reversible(4, seed=51)
    rng = np.random.default_rng(51)
    schedule = [1.0 + 0.5 ** i * rng.uniform(0.0, 1.0, size=4) for i in range(1, 13)]
    report = converge_demo(chain, schedule, n=80)
    assert abs(report.fitted_rate - report.predicted_rate) < 0.05
    extended = schedule + [schedule[-1]] * (80 - len(schedule))
    assert all(
        report.bound_curve[k] == bound_main(report.predicted_rate, extended[: k + 1])
        for k in range(80)
    )


def test_converge_rank_one_kernel():
    # every tilt of a rank-1 kernel is rank-1, so the product is at its limit
    # from step one and no rate can be fitted
    mu = np.array([0.2, 0.3, 0.5])
    P = np.tile(mu, (3, 1))
    chain = ReversibleChain.from_kernel(P)
    report = converge_demo(chain, [np.array([1.0, 2.0, 0.5])], n=10)
    assert report.errors.max() < 1e-12
    assert report.fitted_rate == 0.0
    assert report.predicted_rate < 1e-12


def test_converge_bound_curve_dominates():
    chain = lazy_chain(6, seed=52)
    rng = np.random.default_rng(52)
    schedule = [rng.uniform(1.0, 1.3, size=6) for _ in range(5)]
    report = converge_demo(chain, schedule, n=40)
    assert np.all(report.bound_curve > 0.0)
    # the bound curve controls the observed error up to the step-one constant
    c0 = report.errors[0] / report.bound_curve[0]
    valid = report.errors >= 1e-13
    assert np.all(report.errors[valid] <= 2.0 * c0 * report.bound_curve[valid])


def test_converge_overflowing_tilt_ratio_reads_inf_without_warning():
    # max u / min u overflows: the bound is vacuous, and no RuntimeWarning reaches stderr.
    # (1e308, 1e-308) would also round the tilt's entry (0,1) to 0, which raises instead.
    u = np.array([1e308, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = converge_demo(random_reversible(2, seed=56), [u], n=3)
        assert bound_main(0.5, [u]) == np.inf
    assert np.array_equal(report.bound_curve, [np.inf] * 3)


def test_converge_tail_ratio_tracks_second_eigenvalue():
    chain = lazy_chain(6, seed=53)
    report = converge_demo(chain, [np.ones(6)], n=160)
    ratios = report.errors[1:] / report.errors[:-1]
    tail = ratios[120:]
    assert np.abs(tail - report.predicted_rate).max() < 0.02
    assert abs(report.fitted_rate - report.predicted_rate) < 0.05


def test_converge_schedule_extension_repeats_last():
    chain = random_reversible(3, seed=54)
    u1 = np.array([1.0, 1.5, 2.0])
    u2 = np.array([2.0, 1.0, 1.0])
    short = converge_demo(chain, [u1, u2], n=6)
    explicit = converge_demo(chain, [u1, u2, u2, u2, u2, u2], n=6)
    assert np.array_equal(short.errors, explicit.errors)
    assert np.array_equal(short.bound_curve, explicit.bound_curve)


def test_converge_periodic_kernel_rejected():
    flip = ReversibleChain.from_kernel([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(PeriodicError):
        converge_demo(flip, [np.ones(2)], n=10)


def test_converge_requires_reversible():
    cycle = ReversibleChain.from_kernel(THREE_CYCLE)
    with pytest.raises(NotReversibleError):
        converge_demo(cycle, [np.ones(3)], n=10)


def test_converge_input_errors():
    chain = random_reversible(3, seed=55)
    with pytest.raises(ValueError):
        converge_demo(chain, [np.ones(3)], n=1)
    with pytest.raises(DimensionError, match=r"^u_schedule must contain at least one vector$"):
        converge_demo(chain, [], n=10)
    with pytest.raises(DimensionError, match=r"^u_schedule\[0\] has length 4, expected 3$"):
        converge_demo(chain, [np.ones(4)], n=10)


def test_converge_column_vector_schedule_matches_flat_schedule():
    # (m, 1) columns fail the stacked check and are checked, then stacked, per vector.
    chain = random_reversible(3, seed=57)
    flat = [np.array([1.0, 1.5, 2.0]), np.array([2.0, 1.0, 1.25])]
    columns = converge_demo(chain, [u[:, None] for u in flat], n=8)
    expected = converge_demo(chain, flat, n=8)
    assert np.array_equal(columns.errors, expected.errors)
    assert np.array_equal(columns.bound_curve, expected.bound_curve)
    assert columns.fitted_rate == expected.fitted_rate


BOUNDARY_SCHEDULES = {
    "empty": [],
    "ragged": [np.ones(3), np.ones(2), np.ones(3)],
    "zero": [np.ones(3), [1.0, 0.0, 1.0]],
    "nan": [[1.0, np.nan, 1.0]],
    "inf": [np.ones(3), [1.0, np.inf, 1.0]],
    "string": ["abc"],
    "too-large-int": [[1, 10**400, 1]],
    "columns": [np.array([[1.0], [1.5], [2.0]]), np.array([[2.0], [1.0], [1.25]])],
    # Valid vectors whose tilt of the chain rounds entry (0,1) to 0.
    "lost-entry": [np.ones(3), [1e308, 1e-308, 1.0]],
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_SCHEDULES))
def test_tilted_product_and_converge_check_a_schedule_alike(case):
    # One check serves both; only the name differs, us against u_schedule.
    chain = random_reversible(3, seed=59)
    schedule = BOUNDARY_SCHEDULES[case]
    if case == "columns":
        flat = [u[:, 0] for u in schedule]
        product = tilted_product(chain.kernel, schedule).matrix
        assert np.array_equal(product, tilted_product(chain.kernel, flat).matrix)
        columns, expected = converge_demo(chain, schedule, n=6), converge_demo(chain, flat, n=6)
        assert np.array_equal(columns.errors, expected.errors)
        return
    with pytest.raises(Exception) as product_error:
        tilted_product(chain.kernel, schedule)
    with pytest.raises(Exception) as converge_error:
        converge_demo(chain, schedule, n=6)
    assert isinstance(product_error.value, TiltmatError)
    assert type(converge_error.value) is type(product_error.value)
    assert str(converge_error.value).replace("u_schedule", "us") == str(product_error.value)


def test_converge_ragged_schedule_names_the_short_vector():
    chain = random_reversible(3, seed=58)
    with pytest.raises(DimensionError, match=r"^u_schedule\[1\] has length 2, expected 3$"):
        converge_demo(chain, [np.ones(3), np.ones(2), np.ones(3)], n=5)


def test_fit_rate_with_two_steps_above_the_floor_fits_those_two():
    # Steps 1 and 3 carry signal; the last-half window would hold one step only.
    errors = np.array([1e-2, 1e-20, 1e-6, 0.0])
    assert harness._fit_rate(errors) == pytest.approx(1e-2, rel=1e-12)
    assert harness._fit_rate(np.array([1e-3, 1e-20])) == 0.0


def test_converge_step_errors_use_stationary_vector_of_each_product():
    # Two 3-state blocks coupled by 1e-4: lambda_2 = 0.9998, so power iteration
    # stops at its _POWER_STEPS cap far from mu_k; the stationary solve answers then.
    block = np.full((3, 3), 1.0 / 3.0)
    P = np.kron(np.eye(2), block)
    P[:3, 3:] = P[3:, :3] = 1e-4 / 3.0
    P[np.diag_indices(6)] -= 1e-4
    chain = ReversibleChain.from_kernel(P)
    u = np.array([1.0, 1.0, 1.0, 3.0, 3.0, 3.0])
    report = converge_demo(chain, [u], n=10)
    for k in range(10):
        prod = tilted_product(chain.kernel, [u] * (k + 1)).matrix
        mu_k = stationary_distribution(prod)
        assert abs(report.errors[k] - np.abs(prod - mu_k[None, :]).max()) <= 1e-12
    assert abs(report.errors[0] - 0.2999) < 1e-3


def assert_errors_match_each_product(chain, schedule, report):
    for k in range(report.n_steps):
        prod = tilted_product(chain.kernel, schedule[: k + 1]).matrix
        mu_k = stationary_distribution(prod)
        assert abs(report.errors[k] - np.abs(prod - mu_k[None, :]).max()) <= 1e-12


def decaying_schedule(m, n, seed):
    r = np.random.default_rng(seed).uniform(0.0, 0.5, m)
    return [1.0 + 0.5 ** i * r for i in range(1, n + 1)]


def test_converge_slow_chain_falls_back_to_stacked_stationary_solve(monkeypatch):
    # lambda_2 near 0.99: the first products need hundreds of power steps, more
    # than the cap, so they reach the stacked solve; later ones settle first.
    chain = lazy_chain(8, seed=57, hold=0.99)
    schedule = decaying_schedule(8, 200, seed=57)
    solved, stationary = [], harness._stationary

    def spy(arr, tol):
        solved.append(len(arr))
        return stationary(arr, tol)

    monkeypatch.setattr(harness, "_stationary", spy)
    report = converge_demo(chain, schedule, n=200)
    assert len(solved) == 1 and 0 < solved[0] < 200
    assert_errors_match_each_product(chain, schedule, report)


@pytest.mark.parametrize("m", [64, 128])
def test_converge_warm_start_crosses_block_boundaries(m):
    n = 20
    assert harness._CONVERGE_ENTRIES // (m * m) < n
    chain = lazy_chain(m, seed=58, hold=0.9)
    schedule = decaying_schedule(m, n, seed=58)
    assert_errors_match_each_product(chain, schedule, converge_demo(chain, schedule, n=n))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 7])
def test_uniform_matches_default_rng(seed):
    for m in (1, 8, 64):
        for spread in (0.0, 0.3, 1.0, 5.0):
            expected = np.random.default_rng(seed).uniform(0.0, spread, m)
            assert np.array_equal(harness._uniform(seed, 0.0, spread, m), expected)


def test_converge_report_is_frozen():
    chain = random_reversible(3, seed=56)
    report = converge_demo(chain, [np.ones(3)], n=5)
    with pytest.raises(ValueError):
        report.errors[0] = 0.0
    with pytest.raises(ValueError):
        report.bound_curve[0] = 0.0


def test_scan_is_deterministic():
    a = conjecture_scan(range(2, 4), range(1, 4), trials_per_cell=2, base_seed=5)
    b = conjecture_scan(range(2, 4), range(1, 4), trials_per_cell=2, base_seed=5)
    assert a == b
    c = conjecture_scan(range(2, 4), range(1, 4), trials_per_cell=2, base_seed=6)
    assert a != c


def test_scan_short_products_satisfy_closed_form():
    # for one or two factors the candidate formula is a theorem
    trials = conjecture_scan(range(2, 6), [1, 2], trials_per_cell=4, base_seed=0)
    for trial in trials:
        assert trial.defect <= 1e-9
        assert trial.candidate_residual <= 1e-9


def test_scan_trivial_tilts_any_length():
    # u_spread 0 makes every tilt vector all-ones, so the product is P^n and
    # the candidate formula collapses to the stationary law itself
    trials = conjecture_scan([3, 4], range(1, 7), trials_per_cell=2, u_spread=0.0)
    for trial in trials:
        assert trial.defect <= 1e-12
        assert trial.candidate_residual <= 1e-12


def test_scan_longer_products_report_without_asserting():
    # n >= 3 has no proved formula; the scan must only record the numbers
    trials = conjecture_scan([3], [3], trials_per_cell=3, base_seed=1)
    for trial in trials:
        assert trial.m == 3 and trial.n == 3
        assert np.isfinite(trial.defect) and trial.defect >= 0.0
        assert np.isfinite(trial.candidate_residual) and trial.candidate_residual >= 0.0


def test_scan_cell_order():
    trials = conjecture_scan([3, 2], [2, 1], trials_per_cell=2)
    cells = [(t.m, t.n) for t in trials]
    assert cells == [(2, 1), (2, 1), (2, 2), (2, 2), (3, 1), (3, 1), (3, 2), (3, 2)]


def test_scan_input_errors():
    with pytest.raises(ValueError):
        conjecture_scan([2], [1], trials_per_cell=0)
    with pytest.raises(ValueError):
        conjecture_scan([2], [1], trials_per_cell=1, base_seed=-1)
    with pytest.raises(ValueError):
        conjecture_scan([2], [1], trials_per_cell=1, u_spread=-0.5)
    with pytest.raises(ValueError):
        conjecture_scan([], [1], trials_per_cell=1)
    with pytest.raises(ValueError):
        conjecture_scan([0, 2], [1], trials_per_cell=1)
    with pytest.raises(ValueError, match=r"^n_range must contain integers >= 1, got \[0\]$"):
        conjecture_scan([2], [0], 1)


def per_trial_scan(m_range, n_range, trials_per_cell, base_seed=0, u_spread=1.0, tol=1e-9):
    """The scan one trial at a time through the public functions."""
    trials = []
    for m in sorted(set(m_range)):
        for n in sorted(set(n_range)):
            for t in range(trials_per_cell):
                root = np.random.SeedSequence((base_seed, m, n, t))
                chain_entropy, u_entropy = root.spawn(2)
                chain_seed = int(chain_entropy.generate_state(1, np.uint64)[0])
                chain = random_reversible(m, chain_seed, 0.0)
                rng = np.random.default_rng(u_entropy)
                us = [rng.uniform(1.0, 1.0 + u_spread, size=m) for _ in range(n)]
                product = tilted_product(chain.kernel, us, tol)
                mu = stationary_distribution(product, tol)
                defect = reversibility_defect(product, mu)
                candidate = (chain.kernel.matrix @ us[0]) * chain.stationary * us[-1]
                candidate /= candidate.sum()
                residual = float(np.abs(mu - candidate).max())
                trials.append(ConjectureTrial(m, n, chain_seed, defect, residual))
    return trials


@pytest.mark.parametrize("base_seed", [0, 7, 123456789, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("u_spread", [0.0, 1.0, 10.0])
@pytest.mark.parametrize("trials_per_cell", [1, 3])
def test_scan_matches_per_trial_bit_for_bit(base_seed, u_spread, trials_per_cell):
    args = (range(1, 10), range(1, 8), trials_per_cell, base_seed, u_spread)
    assert conjecture_scan(*args) == per_trial_scan(*args)


@pytest.mark.parametrize("u_spread", [0.1, 3.7, 1e-300])
def test_scan_spread_scaling_matches_uniform_bit_for_bit(u_spread):
    # The scan scales raw draws as 1 + width * random(); uniform(1, 1 + spread) does the same.
    for base_seed in (0, 2**64 + 5):
        args = (range(1, 10), range(1, 8), 2, base_seed, u_spread)
        assert conjecture_scan(*args) == per_trial_scan(*args)


@pytest.mark.parametrize("base_seed", [0, 1, 7, 123456789, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5])
@pytest.mark.parametrize("m, n, t", [(1, 1, 0), (3, 2, 1), (9, 7, 2)])
def test_seed_words_match_spawn_key(base_seed, m, n, t):
    # The scan seeds each cell from a uint32 word array instead of the tuple and spawn key.
    for child in (0, 1):
        spawned = np.random.SeedSequence((base_seed, m, n, t), spawn_key=(child,))
        words = harness._words(base_seed) + [m, n, t, child]
        direct = np.random.SeedSequence(np.array(words, dtype=np.uint32))
        assert np.array_equal(direct.generate_state(4), spawned.generate_state(4))
    assert harness._words(2**64 + 5) == [5, 0, 1]


@pytest.mark.parametrize("base_seed", [0, 123456789, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 17])
def test_seeding_kernels_match_numpy(base_seed):
    # Entropy rows of every length the scan makes: the base seed's words and (m, n, t, child).
    keys = [(1, 1, 0, 0), (3, 2, 1, 1), (9, 7, 2, 0), (40, 3, 29, 1)]
    entropy = np.array([harness._words(base_seed) + list(key) for key in keys], dtype=np.uint32)
    pools = harness._mix_entropy(entropy)
    words = harness._generate_state(pools)
    states = harness._pcg64_states(words)
    for row, pool, state_words, state in zip(entropy, pools, words, states):
        seq = np.random.SeedSequence(row)
        assert np.array_equal(pool, seq.pool)
        assert np.array_equal(state_words, seq.generate_state(8))
        assert np.array_equal(state_words.view("<u8"), seq.generate_state(4, np.uint64))
        assert harness._pcg64_state(*state) == np.random.PCG64(seq).state


@pytest.mark.parametrize("value", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_int_seed_pool_is_its_words_zero_padded(value):
    # SeedSequence(int) hashes a missing pool word as 0.
    words = harness._words(value)
    entropy = np.array([words + [0] * (4 - len(words))], dtype=np.uint32)
    pools = harness._mix_entropy(entropy)
    assert np.array_equal(pools[0], np.random.SeedSequence(value).pool)
    state = harness._pcg64_states(harness._generate_state(pools))[0]
    assert harness._pcg64_state(*state) == np.random.PCG64(value).state


@pytest.mark.parametrize("base_seed", [5, 2**64 + 5])
def test_cell_streams_match_spawned_generators(base_seed):
    keys = [(m, n, t) for m in (1, 4) for n in (1, 3) for t in range(2)]
    for (m, n, t), (seed, chain, u) in zip(keys, harness._cell_streams(base_seed, keys)):
        chain_entropy, u_entropy = np.random.SeedSequence((base_seed, m, n, t)).spawn(2)
        assert seed == int(chain_entropy.generate_state(1, np.uint64)[0])
        assert harness._pcg64_state(*chain) == np.random.default_rng(seed).bit_generator.state
        assert harness._pcg64_state(*u) == np.random.default_rng(u_entropy).bit_generator.state


def test_concurrent_scans_match_serial():
    # Each call draws from a generator of its own, so threads never share a stream.
    args = [(range(1, 8), range(1, 6), 2, seed, 2.0) for seed in (3, 2**64 + 5, 17)]
    serial = [conjecture_scan(*a) for a in args]
    start = threading.Barrier(len(args))
    results = [None] * len(args)

    def run(k):
        start.wait(timeout=30)
        results[k] = [conjecture_scan(*args[k]) for _ in range(3)]

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(args))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[expected] * 3 for expected in serial]


def test_scan_cell_over_stack_bytes_tilts_in_step_blocks(monkeypatch):
    # A pass of one cell whose factors exceed _STACK_BYTES is tilted a few steps at a time:
    # conjecture_scan sizes its passes, and core._factor_steps its blocks of steps,
    # by core's one _STACK_BYTES.
    m, n = 5, 7
    monkeypatch.setattr(core, "_STACK_BYTES", 2 * 8 * m * m)
    args = ([m], [n], 2, 11, 3.0)
    assert conjecture_scan(*args) == per_trial_scan(*args)


def test_scan_stack_raises_on_a_tilt_that_loses_an_entry():
    # States 0 and 2 joined by weight 1e-300: the second step's tilt by
    # (1, 1, 1e-30) rounds the kernel's entry (0,2) to 0.
    weights = np.array([[[1.0, 1.0, 1e-300], [1.0, 1.0, 1.0], [1e-300, 1.0, 1.0]]])
    tilts = np.array([[[1.0, 1.0, 1.0], [1.0, 1.0, 1e-30]]])
    message = "entry (0,2) of P is positive; its tilt by us[1] rounds to 0"
    with pytest.raises(PatternMismatchError, match=f"^{re.escape(message)}$"):
        harness._scan_stack(weights, tilts, np.array([2]), 1e-9)


def test_scan_across_stack_passes_matches_per_trial():
    m, ns, trials_per_cell = 40, range(1, 4), 30
    per_pass = core._STACK_BYTES // (8 * m * m * max(ns))
    assert 2 * per_pass < len(ns) * trials_per_cell
    assert len(ns) * trials_per_cell % per_pass
    args = ([m], ns, trials_per_cell, 3, 2.0)
    assert conjecture_scan(*args) == per_trial_scan(*args)


def reducible_weights(m, seed, sparsity):
    weights = np.ones((m, m))
    weights[: m // 2, m // 2 :] = weights[m // 2 :, : m // 2] = 0.0
    return weights


def zero_row_weights(m, seed, sparsity):
    weights = np.ones((m, m))
    weights[1] = weights[:, 1] = 0.0
    return weights


@pytest.mark.parametrize(
    "bad_weights, error",
    [(reducible_weights, NotIrreducibleError), (zero_row_weights, NonFiniteError)],
)
def test_scan_failing_cell_is_named(monkeypatch, bad_weights, error):
    # one cell draws a kernel the per-trial path rejects with `error`
    target = conjecture_scan([4], [1, 2, 3], trials_per_cell=2, base_seed=9)[3]
    assert target.n == 2
    make_weights = harness._reversible_weights
    target_draws = np.random.default_rng(target.seed).random(4 * 4 + 4)
    weights = bad_weights(4, target.seed, 0.0)

    def patched(draws, m):
        # The pass's weights, with the target cell's swapped for the bad ones.
        stack = make_weights(draws, m)
        stack[(draws == target_draws).all(axis=-1)] = weights
        return stack

    monkeypatch.setattr(harness, "_reversible_weights", patched)
    with np.errstate(invalid="ignore"), pytest.raises(error) as caught:
        conjecture_scan([4], [1, 2, 3], trials_per_cell=2, base_seed=9)
    assert str(caught.value).startswith("cell m=4, n=2, trial=1: ")
    with np.errstate(invalid="ignore"), pytest.raises(error):
        kernel = validate_stochastic(weights / weights.sum(axis=1)[:, None])
        stationary_distribution(tilted_product(kernel, [np.full(4, 1.5)] * 2))


def test_scan_extreme_spread_stays_finite():
    # tilt components near 1e308 overflowed the candidate to inf/inf = nan
    trials = conjecture_scan(range(2, 6), range(1, 4), trials_per_cell=2, u_spread=1e308)
    assert all(np.isfinite(t.defect) and np.isfinite(t.candidate_residual) for t in trials)
    assert all(t.candidate_residual <= 1e-9 for t in trials if t.n <= 2)


@pytest.mark.parametrize("u_spread", [np.inf, np.nan])
def test_scan_rejects_non_finite_spread(u_spread):
    with pytest.raises(ValueError):
        conjecture_scan([2], [1], trials_per_cell=1, u_spread=u_spread)

