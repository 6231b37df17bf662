import math

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tiltmat import spectral
from tiltmat import (
    BoundReport,
    ConvergenceError,
    DimensionError,
    LengthMismatchError,
    METHOD_JACOBI,
    METHOD_QR,
    NotSymmetricError,
    ReversibleChain,
    Spectrum,
    ZeroComponentError,
    bound_chain,
    bound_main,
    bound_pair,
    bound_tilted,
    general_spectrum,
    random_reversible,
    second_eigenvalue_modulus,
    spectrum,
    symmetric_eigenvalues,
    symmetrize,
    tilt,
    tilted_product,
    tilted_stationary,
    two_tilt_product,
)
from tiltmat.spectral import _drop_principal, _main_bound_curve


def match_dist(a, b):
    """Worst-case distance under greedy nearest matching of two multisets."""
    pool = list(b)
    worst = 0.0
    for value in a:
        gaps = [abs(value - other) for other in pool]
        k = int(np.argmin(gaps))
        worst = max(worst, gaps[k])
        pool.pop(k)
    return worst


def random_stochastic(rng, m):
    raw = rng.uniform(0.05, 1.0, size=(m, m))
    return raw / raw.sum(axis=1, keepdims=True)


def test_jacobi_frozen_two_state():
    vals = symmetric_eigenvalues([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(vals, [1.0, -1.0], atol=1e-14)

    vals = symmetric_eigenvalues([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(vals, [1.0, 0.0], atol=1e-14)


def test_jacobi_diagonal_is_exact():
    vals = symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0]))
    assert vals.tolist() == [3.0, 2.0, 1.0]


def test_jacobi_trivial_sizes():
    assert symmetric_eigenvalues([[4.5]]).tolist() == [4.5]
    assert symmetric_eigenvalues(np.zeros((3, 3))).tolist() == [0.0, 0.0, 0.0]


def test_jacobi_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        symmetric_eigenvalues([[0.0, 1.0], [0.0, 0.0]])


def test_jacobi_matches_numpy():
    rng = np.random.default_rng(30)
    for m in (2, 3, 5, 8, 12):
        for _ in range(15):
            raw = rng.normal(size=(m, m))
            S = raw + raw.T
            vals = symmetric_eigenvalues(S)
            ref = np.sort(np.linalg.eigvalsh(S))[::-1]
            assert np.abs(vals - ref).max() < 1e-10


def test_jacobi_near_diagonal():
    # off-diagonal mass far below the diagonal scale, so the small
    # eigenvalue gaps must survive the symmetric solver's rounding
    for seed in range(5):
        chain = random_reversible(8, seed=400 + seed)
        S = 0.95 * np.eye(8) + 0.05 * symmetrize(chain)
        vals = symmetric_eigenvalues(S)
        ref = np.sort(np.linalg.eigvalsh(S))[::-1]
        assert np.abs(vals - ref).max() < 1e-12


def test_general_spectrum_rotation():
    spec = general_spectrum([[0.0, -1.0], [1.0, 0.0]])
    assert match_dist(spec.eigenvalues, [1j, -1j]) < 1e-14
    assert spec.method == METHOD_QR


def test_general_spectrum_two_state_chain():
    spec = general_spectrum([[0.9, 0.1], [0.2, 0.8]])
    assert match_dist(spec.eigenvalues, [1.0, 0.7]) < 1e-12


def test_general_spectrum_triangular_is_exact():
    # triangular input: the general solver must return the diagonal
    # untouched, repeated eigenvalue included
    T = np.array([[0.5, 1.0, 2.0], [0.0, 0.5, 3.0], [0.0, 0.0, -0.25]])
    spec = general_spectrum(T)
    assert match_dist(spec.eigenvalues, [0.5, 0.5, -0.25]) == 0.0


def test_general_spectrum_single_state():
    spec = general_spectrum([[0.25]])
    assert spec.eigenvalues.tolist() == [0.25 + 0.0j]


def test_general_spectrum_matches_numpy():
    rng = np.random.default_rng(31)
    for m in (2, 3, 4, 6, 9, 12):
        for _ in range(10):
            A = rng.normal(size=(m, m))
            spec = general_spectrum(A)
            ref = np.linalg.eigvals(A)
            scale = max(1.0, float(np.abs(ref).max()))
            assert match_dist(spec.eigenvalues, ref) < 1e-9 * scale


def test_general_spectrum_sorted_by_modulus():
    rng = np.random.default_rng(32)
    for _ in range(10):
        P = random_stochastic(rng, 6)
        spec = general_spectrum(P)
        moduli = spec.moduli()
        assert np.all(np.diff(moduli) <= 1e-12)
        assert abs(spec.eigenvalues[0] - 1.0) < 1e-10


def reflecting_path_walk(m):
    P = np.zeros((m, m))
    for i in range(m - 1):
        P[i, i + 1] = P[i + 1, i] = 0.5
    P[0, 0] += 0.5
    P[m - 1, m - 1] += 0.5
    return P, np.cos(np.pi * np.arange(m) / m)


def lazy_cycle(m):
    shift = np.roll(np.eye(m), 1, axis=1)
    P = 0.5 * np.eye(m) + 0.25 * (shift + shift.T)
    return P, 0.5 + 0.5 * np.cos(2.0 * np.pi * np.arange(m) / m)


CLOSED_FORM_CHAINS = [
    (build, m)
    for m in (2, 3, 5, 8, 16, 64)
    for build in (reflecting_path_walk, lazy_cycle)
    if not (build is lazy_cycle and m < 3)
]


@pytest.mark.parametrize(
    "build,m", CLOSED_FORM_CHAINS, ids=[f"{b.__name__}-{m}" for b, m in CLOSED_FORM_CHAINS]
)
def test_closed_form_spectra(build, m):
    """Chains with known eigenvalues, an oracle independent of LAPACK."""
    P, exact = build(m)
    # exact[0] == 1 is the principal eigenvalue in both families
    lambda2 = float(np.abs(exact[1:]).max())

    assert np.abs(symmetric_eigenvalues(P) - np.sort(exact)[::-1]).max() < 1e-12
    assert match_dist(general_spectrum(P).eigenvalues, exact) < 1e-12
    assert abs(second_eigenvalue_modulus(P) - lambda2) < 1e-12
    assert abs(second_eigenvalue_modulus(P, mu=np.full(m, 1.0 / m)) - lambda2) < 1e-12


def test_spectrum_routing():
    sym = [[0.5, 0.5], [0.5, 0.5]]
    assert spectrum(sym).method == METHOD_JACOBI
    assert spectrum(sym, method=METHOD_QR).method == METHOD_QR

    skew = [[0.9, 0.1], [0.2, 0.8]]
    assert spectrum(skew).method == METHOD_QR
    with pytest.raises(NotSymmetricError):
        spectrum(skew, method=METHOD_JACOBI)
    with pytest.raises(ValueError):
        spectrum(sym, method="fastest")


def test_spectrum_routes_agree_on_symmetric():
    rng = np.random.default_rng(33)
    for _ in range(10):
        raw = rng.normal(size=(5, 5))
        S = raw + raw.T
        jac = spectrum(S, method=METHOD_JACOBI).eigenvalues
        qr = spectrum(S, method=METHOD_QR).eigenvalues
        assert match_dist(jac, qr) < 1e-9 * max(1.0, float(np.abs(jac).max()))


def test_spectrum_symmetry_tolerances():
    # auto tests symmetry at tol; a forced symmetric route at max(tol, 1e-12)
    near = np.array([[0.5, 0.5], [0.5, 0.5]])
    near[0, 1] += 1e-13
    assert spectrum(near, tol=1e-15).method == METHOD_QR
    forced = spectrum(near, method=METHOD_JACOBI, tol=1e-15)
    assert forced.method == METHOD_JACOBI
    assert match_dist(forced.eigenvalues, [1.0, 0.0]) < 1e-12

    near[0, 1] = 0.5 + 1e-11
    with pytest.raises(NotSymmetricError):
        spectrum(near, method=METHOD_JACOBI, tol=1e-15)


def test_spectrum_sorts_by_descending_modulus():
    raw = np.array([0.1, 0.5 - 0.5j, -0.9, 0.5 + 0.5j, 1.0])
    spec = Spectrum(raw, METHOD_QR)
    assert spec.eigenvalues.tolist() == [1.0, -0.9, 0.5 + 0.5j, 0.5 - 0.5j, 0.1]
    assert raw.tolist() == [0.1, 0.5 - 0.5j, -0.9, 0.5 + 0.5j, 1.0]


def test_eigen_entry_points_do_not_reenter_each_other(monkeypatch):
    rng = np.random.default_rng(37)
    raw = rng.normal(size=(6, 6))
    sym, skew = raw + raw.T, raw
    chain = random_reversible(6, seed=38)
    calls = [
        lambda: spectrum(sym).eigenvalues,
        lambda: spectrum(skew).eigenvalues,
        lambda: spectrum(sym, method=METHOD_JACOBI).eigenvalues,
        lambda: spectrum(skew, method=METHOD_QR).eigenvalues,
        lambda: second_eigenvalue_modulus(chain.kernel, chain.stationary),
        lambda: second_eigenvalue_modulus(chain.kernel),
    ]
    expected = [call() for call in calls]

    def reentered(*args, **kwargs):
        raise AssertionError("a public eigen function was re-entered")

    for name in ("general_spectrum", "symmetric_eigenvalues", "spectrum"):
        monkeypatch.setattr(spectral, name, reentered)
    for call, value in zip(calls, expected):
        assert np.array_equal(call(), value)


def test_drop_principal_ignores_eigenvalue_order():
    # 1 - eps and 1 + eps are equally close to 1; the larger is the principal one
    values = np.array([1.0 - 2.0**-52, 1.0 + 2.0**-52, 0.5])
    assert _drop_principal(values) == 1.0 - 2.0**-52
    assert _drop_principal(values[::-1].copy()) == 1.0 - 2.0**-52


@pytest.mark.parametrize(
    "routine,call",
    [
        ("eigvalsh", lambda: symmetric_eigenvalues(np.eye(2))),
        ("eigvals", lambda: general_spectrum(np.eye(2))),
    ],
)
def test_lapack_failure_is_convergence_error(monkeypatch, routine, call):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, routine, fail)
    with pytest.raises(ConvergenceError):
        call()


def test_second_eigenvalue_frozen():
    assert second_eigenvalue_modulus([[0.5, 0.5], [0.5, 0.5]]) < 1e-14
    assert abs(second_eigenvalue_modulus([[0.9, 0.1], [0.2, 0.8]]) - 0.7) < 1e-12

    U = tilt([[0.9, 0.1], [0.2, 0.8]], [1.0, 2.0])
    assert abs(second_eigenvalue_modulus(U) - 70.0 / 99.0) < 1e-12


def test_second_eigenvalue_edge_cases():
    assert second_eigenvalue_modulus([[1.0]]) == 0.0
    # flip chain: eigenvalues 1 and -1, second modulus is exactly 1
    assert abs(second_eigenvalue_modulus([[0.0, 1.0], [1.0, 0.0]]) - 1.0) < 1e-12


def test_second_eigenvalue_rejects_nonstochastic():
    with pytest.raises(ConvergenceError):
        second_eigenvalue_modulus([[0.2, 0.0], [0.0, 0.1]])


def test_second_eigenvalue_mu_length_mismatch():
    with pytest.raises(LengthMismatchError):
        second_eigenvalue_modulus([[0.5, 0.5], [0.5, 0.5]], mu=[1.0, 1.0, 1.0])


def test_second_eigenvalue_routes_agree():
    """Jacobi route (with certified mu) and QR route (without) must agree."""
    for m in (2, 3, 5, 8):
        for seed in range(10):
            chain = random_reversible(m, seed=3000 * m + seed)
            with_mu = second_eigenvalue_modulus(chain.kernel, mu=chain.stationary)
            without = second_eigenvalue_modulus(chain.kernel)
            assert abs(with_mu - without) < 1e-9


@pytest.mark.parametrize("m", [1, 2, 5, 16, 64])
def test_second_eigenvalue_symmetric_route_bit_identical_to_public_solver(m):
    """The certified route equals its composition through ``symmetric_eigenvalues``."""
    for seed in range(5):
        chain = random_reversible(m, seed=60 * m + seed, sparsity=0.3)
        mu = chain.stationary
        root = np.sqrt(mu)
        sym = root[:, None] * chain.kernel.matrix / root[None, :]
        values = symmetric_eigenvalues(0.5 * (sym + sym.T), tol=1e-12).astype(np.complex128)
        rest = np.delete(values, int(np.argmin(np.abs(values - 1.0))))
        expected = float(np.abs(rest).max()) if rest.size else 0.0
        assert second_eigenvalue_modulus(chain.kernel, mu) == expected


def test_second_eigenvalue_uncertified_mu_falls_back():
    # 3-cycle is not reversible; supplying its stationary vector must not
    # force the symmetric solver
    cycle = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    out = second_eigenvalue_modulus(cycle, mu=[1.0 / 3.0] * 3)
    assert abs(out - 1.0) < 1e-12


def test_bound_tilted_frozen():
    assert abs(bound_tilted(0.7, [1.0, 2.0]) - 2.8) < 1e-15
    assert abs(bound_tilted(0.5, [3.0, 3.0, 3.0]) - 0.5) < 1e-15


def test_bound_pair_frozen():
    value = bound_pair(0.5, 0.5, [2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0])
    assert abs(value - 1.0) < 1e-15
    same = bound_pair(0.7, 0.6, [0.5, 0.5], [0.5, 0.5])
    assert abs(same - 0.42) < 1e-15


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.integers(1, 6).flatmap(
        lambda m: st.tuples(
            *[hnp.arrays(np.float64, m, elements=st.floats(1e-300, 1e300)) for _ in range(2)]
        )
    ),
)
def test_bound_pair_is_the_two_kernel_chain_bound(lambda1, lambda2, mus):
    mu1, mu2 = mus
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan must match too
        pair = bound_pair(lambda1, lambda2, mu1, mu2)
        chain = bound_chain([lambda1, lambda2], [mu1, mu2])
    assert np.float64(pair).tobytes() == np.float64(chain).tobytes()


def test_bound_chain_frozen():
    assert abs(bound_chain([0.7], [[0.5, 0.5]]) - 0.7) < 1e-15
    # two-kernel case reduces to the pair bound
    mu1 = [2.0 / 3.0, 1.0 / 3.0]
    mu2 = [1.0 / 3.0, 2.0 / 3.0]
    assert abs(bound_chain([0.5, 0.5], [mu1, mu2]) - bound_pair(0.5, 0.5, mu1, mu2)) < 1e-15


def test_bound_chain_overflowed_ratio_is_vacuous_even_at_rate_zero():
    with np.errstate(over="ignore"):
        chain = bound_chain([0.0, 0.5], [[1e200, 1e-200], [1e-200, 1e200]])
        pair = bound_pair(0.0, 0.0, [1.8e8], [1e-300])
    assert chain == math.inf
    assert pair == math.inf
    report = BoundReport.evaluate(0.0, pair)
    assert report.satisfied and report.slack == math.inf


def test_bound_main_frozen():
    assert abs(bound_main(0.7, [[1.0, 2.0]]) - 11.2) < 1e-12
    assert abs(bound_main(0.7, [[1.0, 2.0], [1.0, 2.0]]) - 125.44) < 1e-12


def test_bound_input_errors():
    with pytest.raises(ZeroComponentError):
        bound_tilted(0.5, [1.0, 0.0])
    with pytest.raises(LengthMismatchError):
        bound_pair(0.5, 0.5, [1.0], [1.0, 1.0])
    with pytest.raises(LengthMismatchError):
        bound_chain([0.5, 0.5], [[1.0, 1.0]])
    with pytest.raises(LengthMismatchError):
        bound_chain([0.5, 0.5], [[1.0, 1.0], [1.0, 1.0, 1.0]])
    with pytest.raises(DimensionError, match="^us must contain at least one vector$"):
        bound_main(0.5, [])


def test_bound_tilted_dominates_observed():
    rng = np.random.default_rng(36)
    for m in (2, 4, 6):
        for seed in range(20):
            chain = random_reversible(m, seed=4000 * m + seed)
            u = rng.uniform(0.5, 2.0, size=m)
            rate = second_eigenvalue_modulus(chain.kernel, mu=chain.stationary)
            U = tilt(chain.kernel.matrix, u)
            observed = second_eigenvalue_modulus(U.matrix)
            assert observed <= bound_tilted(rate, u) + 1e-9


@st.composite
def tilted_chains(draw, factors=(1, 1)):
    """A reversible chain on 2-6 states with ``factors`` tilt vectors of spread at most 4."""
    m = draw(st.integers(2, 6))
    seed, sparsity = draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([0.0, 0.5]))
    chain = random_reversible(m, seed, sparsity)
    tilts = hnp.arrays(np.float64, m, elements=st.floats(1.0, 4.0))
    return chain, [draw(tilts) for _ in range(draw(st.integers(*factors)))]


def assert_bound_holds(observed, bound, m):
    # Steer the search towards the tightest cases: a violation is sought, not hidden.
    target(observed / bound if bound > 0.0 else 0.0)
    assert BoundReport.evaluate(observed, bound, m).satisfied, (observed, bound)


def lambda2(chain):
    return second_eigenvalue_modulus(chain.kernel, chain.stationary)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(tilted_chains())
def test_bound_tilted_holds_at_its_edge(case):
    chain, (u,) = case
    observed = second_eigenvalue_modulus(*tilted_stationary(chain, u))
    assert_bound_holds(observed, bound_tilted(lambda2(chain), u), chain.n_states)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(tilted_chains(factors=(2, 2)))
def test_bound_pair_holds_at_its_edge(case):
    chain, (u, v) = case
    (U, mu_u), (V, mu_v) = tilted_stationary(chain, u), tilted_stationary(chain, v)
    observed = second_eigenvalue_modulus(*two_tilt_product(chain, u, v))
    bound = bound_pair(
        second_eigenvalue_modulus(U, mu_u), second_eigenvalue_modulus(V, mu_v), mu_u, mu_v
    )
    assert_bound_holds(observed, bound, chain.n_states)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(tilted_chains(factors=(1, 4)))
def test_bound_chain_holds_at_its_edge(case):
    chain, us = case
    tilts = [tilted_stationary(chain, u) for u in us]
    observed = second_eigenvalue_modulus(tilted_product(chain.kernel, us))
    rates = [second_eigenvalue_modulus(U, mu) for U, mu in tilts]
    bound = bound_chain(rates, [mu for _, mu in tilts])
    assert_bound_holds(observed, bound, chain.n_states)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(tilted_chains(factors=(1, 4)))
def test_bound_main_holds_at_its_edge(case):
    chain, us = case
    observed = second_eigenvalue_modulus(tilted_product(chain.kernel, us))
    assert_bound_holds(observed, bound_main(lambda2(chain), us), chain.n_states)


@pytest.mark.parametrize("scale", [1.0, 3.7, 1e-150, 1e150])
@pytest.mark.parametrize("m", [2, 3, 6])
def test_bound_tilted_at_a_constant_tilt_is_decided_by_the_margin(m, scale):
    # A constant u leaves the kernel as it is, so the bound equals lambda_2 and
    # the observed value is the same number up to rounding: it lies above the
    # bound in 85 of these 240 cases, by at most 0.84 m eps.
    for seed in range(20):
        chain = random_reversible(m, seed=700 + seed)
        u = np.full(m, scale)
        observed = second_eigenvalue_modulus(*tilted_stationary(chain, u))
        bound = bound_tilted(lambda2(chain), u)
        assert bound == lambda2(chain)
        assert abs(observed - bound) <= 4 * m * np.finfo(np.float64).eps
        assert BoundReport.evaluate(observed, bound, m).satisfied


def test_bound_report_semantics():
    tight = BoundReport.evaluate(0.5, 0.5)
    assert tight.satisfied
    assert abs(tight.slack) < 1e-15

    margin = BoundReport.evaluate(0.5 + 5e-10, 0.5)
    assert margin.satisfied
    assert margin.slack < 0.0

    broken = BoundReport.evaluate(0.6, 0.5)
    assert not broken.satisfied
    assert abs(broken.slack + 0.1) < 1e-12


def test_bound_report_margin_floor_is_solver_resolution():
    # Below about n_states * eps an observed value and a bound cannot be told apart.
    assert BoundReport.evaluate(1.6e-16, 1.7e-32, n_states=3).satisfied
    assert BoundReport.evaluate(9e-100, 8.75e-100, n_states=2).satisfied
    # Above the floor a violation is caught however small the bound ...
    assert not BoundReport.evaluate(2e-12, 1e-12, n_states=16).satisfied
    # ... and the relative margin is far tighter than an absolute 1e-9.
    assert not BoundReport.evaluate(1e-3 + 1e-10, 1e-3, n_states=16).satisfied


def test_spectrum_values_are_frozen():
    spec = general_spectrum([[0.9, 0.1], [0.2, 0.8]])
    with pytest.raises(ValueError):
        spec.eigenvalues[0] = 0.0


def test_non_stochastic_message_prints_plain_complex():
    with pytest.raises(ConvergenceError, match=r"\(closest is \(0\.5\+0j\)\)"):
        second_eigenvalue_modulus(0.5 * np.eye(2))


def test_main_bound_curve_overflows_to_inf():
    huge = np.array([1.0, 1e100])
    assert bound_main(0.5, [huge]) == np.inf
    vectors = [np.array([1.0, 2.0]), huge, huge]
    highs, lows = np.array([(v.max(), v.min()) for v in vectors]).T
    for lam in (0.0, 1e-300, 0.5):
        curve = _main_bound_curve(lam, highs, lows)
        assert curve[0] == lam * 16.0
        assert np.array_equal(curve[1:], [np.inf, np.inf])
        assert all(curve[k] == bound_main(lam, vectors[: k + 1]) for k in range(3))
