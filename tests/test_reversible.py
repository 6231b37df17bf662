from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tiltmat import (
    ConvergenceError,
    DimensionError,
    FormatError,
    NegativeEntryError,
    NonFiniteError,
    NotIrreducibleError,
    NotReversibleError,
    ReversibleChain,
    RowSumError,
    StochasticMatrix,
    TiltmatError,
    rank1_sandwich,
    is_aperiodic,
    is_irreducible,
    random_reversible,
    reversibility_defect,
    stationary_distribution,
    symmetrize,
    tilt,
    tilted_product,
    tilted_stationary,
    two_tilt_product,
    validate_stochastic,
    ZeroComponentError,
    ZeroStationaryError,
)
from tiltmat import reversible

THREE_CYCLE = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]


def relative_defect(W, mu):
    """Detailed-balance defect of ``(W, mu)`` over its largest flow."""
    flow = mu[:, None] * W
    return np.abs(flow - flow.T).max() / flow.max()


def random_chain_kernel(rng, m):
    """Dense random stochastic matrix, strictly positive entries."""
    raw = rng.uniform(0.1, 1.0, size=(m, m))
    return raw / raw.sum(axis=1, keepdims=True)


def test_stationary_two_state_frozen():
    mu = stationary_distribution([[0.5, 0.5], [1.0, 0.0]])
    assert np.allclose(mu, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)

    mu = stationary_distribution([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(mu, [0.5, 0.5], atol=1e-15)


def test_stationary_three_cycle_uniform():
    # periodic but irreducible; the distribution is still unique
    mu = stationary_distribution(THREE_CYCLE)
    assert np.allclose(mu, [1.0 / 3.0] * 3, atol=1e-12)


def test_stationary_single_state():
    mu = stationary_distribution([[1.0]])
    assert mu.shape == (1,)
    assert mu[0] == 1.0
    # The direct solve of a 1x1 system is the normalization row itself.
    for arr in [[[1 - 5e-10]], [[1 + 5e-10]]]:
        assert np.array_equal(stationary_distribution(arr), [1.0])
    mus = reversible._stationary(np.ones((2, 1, 1)), 1e-9)
    assert mus.shape == (2, 1)
    assert np.all(mus == 1.0)


def test_stationary_rejects_reducible():
    with pytest.raises(NotIrreducibleError):
        stationary_distribution(np.eye(3))
    with pytest.raises(NotIrreducibleError):
        stationary_distribution([[1.0, 0.0], [0.5, 0.5]])


def test_stationary_rejects_rectangular():
    with pytest.raises(DimensionError):
        stationary_distribution([[0.5, 0.5]])


GTH_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="the LU solve loses the 2*eps components; needs the GTH stationary solver "
    "(ROADMAP item 2)",
)


# Exact support alone is not enough: on the eps = 1e-16 chain LU then returns
# mu_0 = 1.8e-15 for an exact 0.5 and passes its residual gate.
EXACT_SUPPORT_XFAIL = pytest.mark.xfail(
    strict=True,
    raises=NotIrreducibleError,
    reason="the irreducibility gate cuts transitions below 1e-14 of the largest entry; "
    "exact support must follow GTH as the primary solver (ROADMAP item 2)",
)


@pytest.mark.parametrize(
    "eps",
    [
        1e-4,
        pytest.param(1e-10, marks=GTH_XFAIL),
        pytest.param(1e-13, marks=GTH_XFAIL),
        1e-14,
        pytest.param(1e-15, marks=EXACT_SUPPORT_XFAIL),
        pytest.param(1e-16, marks=EXACT_SUPPORT_XFAIL),
    ],
)
def test_stationary_nearly_decomposable_chain_componentwise(eps):
    # Two blocks joined by eps; detailed balance gives mu proportional to [1, 2 eps, 2 eps, 1]
    P = [
        [1 - eps, eps, 0.0, 0.0],
        [0.5, 0.5 - eps, eps, 0.0],
        [0.0, eps, 0.5 - eps, 0.5],
        [0.0, 0.0, eps, 1 - eps],
    ]
    expected = np.array([1.0, 2 * eps, 2 * eps, 1.0])
    expected /= expected.sum()
    mu = stationary_distribution(P)
    assert np.all(np.abs(mu - expected) <= 1e-8 * expected)


def test_stationary_fixed_point_random():
    """mu P == mu and the result matches the numpy left eigenvector."""
    rng = np.random.default_rng(20)
    for m in (2, 3, 5, 8):
        for _ in range(25):
            P = random_chain_kernel(rng, m)
            mu = stationary_distribution(P)
            assert mu.min() > 0.0
            assert abs(mu.sum() - 1.0) < 1e-12
            assert np.abs(mu @ P - mu).max() < 1e-12

            vals, vecs = np.linalg.eig(P.T)
            lead = np.argmin(np.abs(vals - 1.0))
            ref = np.real(vecs[:, lead])
            ref = ref / ref.sum()
            assert np.abs(mu - ref).max() < 1e-8


def test_defect_symmetric_kernel_is_zero():
    P = np.array([[0.6, 0.3, 0.1], [0.3, 0.5, 0.2], [0.1, 0.2, 0.7]])
    mu = stationary_distribution(P)
    # symmetric kernel has uniform stationary law, flows balance exactly
    assert np.allclose(mu, 1.0 / 3.0, atol=1e-12)
    assert reversibility_defect(P, mu) < 1e-15


def test_defect_three_cycle_frozen():
    defect = reversibility_defect(THREE_CYCLE, [1.0 / 3.0] * 3)
    assert abs(defect - 1.0 / 3.0) < 1e-15


def test_defect_two_state_always_zero():
    # every irreducible two-state chain is reversible
    rng = np.random.default_rng(21)
    for _ in range(50):
        P = random_chain_kernel(rng, 2)
        mu = stationary_distribution(P)
        assert reversibility_defect(P, mu) < 1e-14


def test_defect_input_errors():
    with pytest.raises(DimensionError):
        reversibility_defect([[0.5, 0.5]], [1.0])
    with pytest.raises(DimensionError):
        reversibility_defect([[0.5, 0.5], [0.5, 0.5]], [1.0, 1.0, 1.0])


def test_from_kernel_records_defect():
    chain = ReversibleChain.from_kernel(THREE_CYCLE)
    assert chain.n_states == 3
    assert abs(chain.defect - 1.0 / 3.0) < 1e-15
    with pytest.raises(NotReversibleError):
        chain.require_reversible(1e-9)

    sym = ReversibleChain.from_kernel([[0.7, 0.3], [0.3, 0.7]])
    sym.require_reversible(1e-12)
    assert np.allclose(sym.stationary, [0.5, 0.5], atol=1e-14)


def test_require_reversible_rejects_nan_defect():
    # The constructor computes the defect: a NaN one can be neither given nor made.
    kernel = validate_stochastic([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(TypeError):
        ReversibleChain(kernel, np.array([0.5, 0.5]), np.nan)
    with pytest.raises(NonFiniteError):
        ReversibleChain(kernel, np.array([0.5, np.nan]))
    assert ReversibleChain(kernel, np.array([0.5, 0.5])).defect == 0.0


def test_a_forged_reversible_chain_is_refused():
    c = random_reversible(3, seed=1)
    # Trusting a hand-given defect of 0 here would make tilted_stationary return
    # mu = (0.773, 0.078, 0.149), where the tilt's true mu is (0.146, 0.354, 0.500).
    forged = ReversibleChain(c.kernel, [0.9, 0.05, 0.05])
    assert forged.defect > 0.4
    with pytest.raises(NotReversibleError):
        tilted_stationary(forged, [1, 2, 3])
    assert np.allclose(tilted_stationary(c, [1, 2, 3])[1], [0.146, 0.354, 0.500], atol=1e-3)
    with pytest.raises(FormatError, match="^stationary will not convert to float64"):
        ReversibleChain(c.kernel, ["a"])
    with pytest.raises(DimensionError, match="^stationary has length 2, expected 3$"):
        ReversibleChain(c.kernel, [0.5, 0.5])
    with pytest.raises(ZeroComponentError):
        ReversibleChain(validate_stochastic([[0.5, 0.5], [0.5, 0.5]]), [1, 0])
    with pytest.raises(RowSumError, match="^stationary sums to "):
        ReversibleChain(c.kernel, c.stationary * 1e-12)
    # A raw kernel is certified as validate_stochastic certifies it.
    with pytest.raises(NegativeEntryError):
        ReversibleChain([[2, -1], [0.5, 0.5]], [0.5, 0.5])
    assert ReversibleChain(c.kernel.matrix, c.stationary).defect == c.defect


@st.composite
def forged_chain_cases(draw):
    """A matrix and a vector near a chain and its distribution, with a tol: some certify."""
    m = draw(st.integers(1, 5))
    weights = draw(hnp.arrays(np.float64, (m, m), elements=st.floats(0.0, 1.0)))
    weights[np.arange(m), np.arange(m)] += 0.5
    noise = st.sampled_from([0.0, 0.0, 1e-17, -1e-17, 1e-13, -1e-13, 1e-10, -1e-6])
    matrix = weights / weights.sum(axis=1)[:, None]
    matrix = matrix + draw(hnp.arrays(np.float64, (m, m), elements=noise))
    mu = draw(hnp.arrays(np.float64, m, elements=st.floats(0.0, 1.0))) + 1e-3
    if draw(st.booleans()):
        mu = weights.sum(axis=1)
    mu = mu / mu.sum() + draw(hnp.arrays(np.float64, m, elements=noise))
    tol = draw(st.sampled_from([1e-300, 1e-16, 1e-12, 1e-9, 1e-3]))
    return matrix, mu, tol


@settings(derandomize=True, deadline=None, max_examples=300)
@given(forged_chain_cases())
def test_every_construction_that_succeeds_holds_what_it_certifies(case):
    matrix, mu, tol = case
    m = matrix.shape[0]
    try:
        kernel = StochasticMatrix(matrix, tol)
    except TiltmatError:
        kernel = None
    if kernel is not None:
        assert kernel.tol == tol and not kernel.matrix.flags.writeable
        assert kernel.matrix.min() >= 0.0
        # A row with dust is renormalized after the clamp, which rounds: to m·eps.
        off = np.abs(kernel.matrix.sum(axis=1) - 1.0)
        clamped = (matrix < 0.0).any(axis=1)
        assert off[~clamped].max(initial=0.0) <= tol
        assert off[clamped].max(initial=0.0) <= max(tol, m * np.finfo(float).eps)
    for given_kernel in [matrix] if kernel is None else [kernel, matrix]:
        try:
            chain = ReversibleChain(given_kernel, mu)
        except TiltmatError:
            continue
        assert chain.kernel is given_kernel or chain.kernel.tol == 1e-9
        assert np.isfinite(chain.stationary).all() and chain.stationary.min() > 0.0
        assert abs(chain.stationary.sum() - 1.0) <= max(chain.kernel.tol, m * np.finfo(float).eps)
        assert chain.defect == reversibility_defect(chain.kernel, chain.stationary)


def test_tilted_stationary_frozen():
    chain = ReversibleChain.from_kernel([[0.9, 0.1], [0.2, 0.8]])
    U, mu_u = tilted_stationary(chain, [1.0, 2.0])
    assert np.allclose(U.matrix, [[9.0 / 11.0, 2.0 / 11.0], [1.0 / 9.0, 8.0 / 9.0]], atol=1e-15)
    assert np.allclose(mu_u, [11.0 / 29.0, 18.0 / 29.0], atol=1e-15)
    assert reversibility_defect(U, mu_u) < 1e-15


def test_tilted_stationary_ones_is_identity():
    chain = random_reversible(5, seed=7)
    U, mu_u = tilted_stationary(chain, np.ones(5))
    assert np.allclose(U.matrix, chain.kernel.matrix, atol=1e-15)
    assert np.allclose(mu_u, chain.stationary, atol=1e-15)


def test_tilted_stationary_matches_eigen_route():
    """The closed form agrees with solving for the tilt's stationary vector."""
    rng = np.random.default_rng(22)
    for m in (2, 4, 6, 9):
        for trial in range(20):
            chain = random_reversible(m, seed=1000 * m + trial)
            u = rng.uniform(0.5, 2.0, size=m)
            U, mu_u = tilted_stationary(chain, u)
            assert np.abs(mu_u @ U.matrix - mu_u).max() < 1e-13
            direct = stationary_distribution(U)
            assert np.abs(mu_u - direct).max() < 1e-10
            assert reversibility_defect(U, mu_u) < 1e-13


def test_tilted_stationary_requires_reversible():
    chain = ReversibleChain.from_kernel(THREE_CYCLE)
    with pytest.raises(NotReversibleError):
        tilted_stationary(chain, [1.0, 2.0, 3.0])


def test_tilted_stationary_length_mismatch():
    chain = random_reversible(3, seed=1)
    with pytest.raises(DimensionError):
        tilted_stationary(chain, [1.0, 2.0])


def test_two_tilt_frozen():
    chain = ReversibleChain.from_kernel([[0.9, 0.1], [0.2, 0.8]])
    W, mu_w = two_tilt_product(chain, [1.0, 2.0], [2.0, 1.0])
    assert np.allclose(mu_w, [22.0 / 31.0, 9.0 / 31.0], atol=1e-15)
    U = tilt(chain.kernel.matrix, [1.0, 2.0])
    V = tilt(chain.kernel.matrix, [2.0, 1.0])
    assert np.allclose(W.matrix, U.matrix @ V.matrix, atol=1e-15)
    assert np.abs(mu_w @ W.matrix - mu_w).max() < 1e-15


def test_two_tilt_ones_gives_square():
    chain = random_reversible(4, seed=11)
    W, mu_w = two_tilt_product(chain, np.ones(4), np.ones(4))
    P = chain.kernel.matrix
    assert np.allclose(W.matrix, P @ P, atol=1e-14)
    assert np.allclose(mu_w, chain.stationary, atol=1e-14)


def test_two_tilt_stationary_and_real_spectrum():
    rng = np.random.default_rng(23)
    for m in (2, 3, 5, 8):
        for trial in range(15):
            chain = random_reversible(m, seed=2000 * m + trial)
            u = rng.uniform(0.5, 2.0, size=m)
            v = rng.uniform(0.5, 2.0, size=m)
            W, mu_w = two_tilt_product(chain, u, v)
            assert np.abs(mu_w @ W.matrix - mu_w).max() < 1e-10
            # the product of two tilts of one reversible kernel is itself
            # reversible under the closed-form vector, and its spectrum is
            # real and non-negative
            assert reversibility_defect(W, mu_w) < 1e-10
            vals = np.linalg.eigvals(W.matrix)
            assert np.abs(vals.imag).max() < 1e-9
            assert vals.real.min() > -1e-9


def test_two_tilt_requires_reversible():
    chain = ReversibleChain.from_kernel(THREE_CYCLE)
    with pytest.raises(NotReversibleError):
        two_tilt_product(chain, np.ones(3), np.ones(3))


def test_two_tilt_length_mismatch_names_the_vector():
    chain = random_reversible(3, seed=1)
    with pytest.raises(DimensionError, match=r"^u has length 2, expected 3$"):
        two_tilt_product(chain, [1.0, 2.0], np.ones(3))
    with pytest.raises(DimensionError, match=r"^v has length 4, expected 3$"):
        two_tilt_product(chain, np.ones(3), np.ones(4))
    with pytest.raises(DimensionError, match=r"^u has length 2, expected 3$"):
        tilted_stationary(chain, [1.0, 2.0])


def exact_closed_form(P, mu, first, last):
    """Normalized ``(P first) o mu o last`` in rational arithmetic on the stored doubles."""
    terms = [
        sum(Fraction(p) * Fraction(f) for p, f in zip(row, first)) * Fraction(w) * Fraction(x)
        for row, w, x in zip(P.tolist(), mu.tolist(), last)
    ]
    total = sum(terms)
    return [t / total for t in terms]


def closed_form_relative_bound(m):
    """Componentwise relative error bound of the computed closed form, all terms non-negative.

    With unit roundoff ``r = 2**-53`` and ``g(k) = k r / (1 - k r)``: a
    component of ``P first`` is a dot product of ``m`` non-negative terms
    (``g(m)`` in any summation order), and the products with ``mu`` and
    ``last`` round twice more, so each term carries ``g(m + 2)``.  Their sum
    adds ``g(m - 1)``, so the normalizer carries ``g(2m + 1)``, and the
    division rounds once.  The power-of-two scaling is exact.  The quotient
    is then within ``(1 + g(m + 3)) / (1 - g(2m + 1)) - 1``, about
    ``(3m + 4) r``.
    """
    r = Fraction(1, 2**53)

    def g(k):
        return k * r / (1 - k * r)

    return (1 + g(m + 3)) / (1 - g(2 * m + 1)) - 1


def assert_matches_exact_closed_form(computed, chain, first, last):
    """Check each component within the relative bound, plus half a subnormal ulp below 2**-1022.

    Below the normal range the final division rounds to a multiple of
    ``2**-1074`` rather than to a relative half ulp.
    """
    P, mu = chain.kernel.matrix, chain.stationary
    bound = closed_form_relative_bound(P.shape[0])
    for got, exact in zip(computed.tolist(), exact_closed_form(P, mu, first, last)):
        assert exact > 0
        slack = Fraction(1, 2**1075) if exact < Fraction(1, 2**1022) else 0
        assert abs(Fraction(got) - exact) <= bound * exact + slack


def slow_climb_chain():
    """13-state birth-death chain, up by 1e-13 and down by 0.5: mu_i is (2e-13)**i, normalized."""
    P = np.zeros((13, 13))
    i = np.arange(12)
    P[i, i + 1] = 1e-13
    P[i + 1, i] = 0.5
    P[np.arange(13), np.arange(13)] = 1.0 - P.sum(axis=1)
    mu = np.cumprod(np.r_[1.0, P[i, i + 1] / P[i + 1, i]])
    mu /= mu.sum()
    return ReversibleChain(validate_stochastic(P), mu)


@pytest.mark.parametrize("u", [[1.0, 1.0, 1e200], [1.0, 1e160, 1.0]])
def test_tilted_stationary_extreme_tilt_matches_exact_closed_form(u):
    # Unscaled, u_i (P u)_i reaches 1e319 or more here and overflows.
    chain = random_reversible(3, seed=1)
    with np.errstate(all="raise"):
        _, mu_u = tilted_stationary(chain, u)
    assert_matches_exact_closed_form(mu_u, chain, u, u)


def test_two_tilt_product_extreme_tilts_match_exact_closed_form():
    chain = random_reversible(3, seed=1)
    u, v = [1.0, 1.0, 1e200], [1e200, 1.0, 1.0]
    # W = tilt(P, u) @ tilt(P, v) sums products of two entries near 1e-200;
    # they flush to zero beside terms of 1e-200 and more, far below W's
    # rounding, so that underflow alone is let through.
    with np.errstate(all="raise", under="ignore"):
        _, mu_w = two_tilt_product(chain, u, v)
    with np.errstate(all="raise"):
        kernel_mu = reversible._tilted_mu(
            chain.kernel.matrix, chain.stationary, np.array(u), np.array(v)
        )
    assert kernel_mu.tobytes() == mu_w.tobytes()
    assert_matches_exact_closed_form(mu_w, chain, u, v)


def spike(state, size):
    """A tilt of the 13-state chain: 1 everywhere but ``size`` at ``state``."""
    u = np.ones(13)
    u[state] = size
    return u


# mu_12 is about 4e-153 and the tilts are 1e160 at one or both ends of the
# path, so the closed forms span about 1e-295 to 1.  A scaling that put each
# end's largest component near 1 on its own would leave the terms of states
# far from the tilts subnormal or zero.
def test_tilted_stationary_keeps_components_far_below_the_tilt_spread():
    chain, u = slow_climb_chain(), spike(12, 1e160)
    with np.errstate(all="raise"):
        _, mu_u = tilted_stationary(chain, u)
    assert_matches_exact_closed_form(mu_u, chain, u, u)


# In the second case (P u)_10 mu_10 is about 1e-427 times max(u), below the
# float range, while its term, times v_10 = 1e300, is the largest: u must be
# scaled up to the top of the range, not down to 1.
@pytest.mark.parametrize(
    "u, v", [(spike(12, 1e160), spike(0, 1e160)), (spike(12, 1e300), spike(10, 1e300))]
)
def test_two_tilt_product_keeps_components_far_below_the_tilt_spread(u, v):
    chain = slow_climb_chain()
    with np.errstate(all="raise", under="ignore"):
        _, mu_w = two_tilt_product(chain, u, v)
    assert_matches_exact_closed_form(mu_w, chain, u, v)


def test_tilted_stationary_subnormal_component_rounds_once():
    # mu_u[0] is about 4.7e-309; only the final division may round it.
    chain = random_reversible(3, seed=1)
    u = [1e-154, 1.0, 1e154]
    with np.errstate(all="raise", under="ignore"):
        _, mu_u = tilted_stationary(chain, u)
    assert 0.0 < mu_u[0] < 2.0**-1022
    assert_matches_exact_closed_form(mu_u, chain, u, u)


def test_closed_form_below_the_float_range_names_the_tilt():
    # mu_u[0] at u = (1e-300, 1e300) is about 2.5e-601, and rounds to 0.
    chain = ReversibleChain.from_kernel([[0.9, 0.1], [0.2, 0.8]])
    wide = np.array([1e-300, 1e300])
    below = "^stationary component 0 of {} is below the float range$"
    with pytest.raises(ZeroStationaryError, match=below.format("the tilt by u")):
        tilted_stationary(chain, wide)
    with pytest.raises(
        ZeroStationaryError, match=below.format("the product of the tilts by u and v")
    ):
        two_tilt_product(chain, np.ones(2), wide)
    # The scan's candidate reports the rounded closed form; it does not raise.
    candidate = reversible._tilted_mu(chain.kernel.matrix, chain.stationary, wide)
    assert candidate.tolist() == [0.0, 1.0]


@pytest.mark.parametrize(
    "bad, error, message",
    [
        ([1.0, np.nan, 1.0], NonFiniteError, "{} contains NaN or infinite entries"),
        ([1.0, np.inf, 1.0], NonFiniteError, "{} contains NaN or infinite entries"),
        ([1.0, 0.0, 1.0], ZeroComponentError, "{} must be strictly positive; component 1 is 0.0"),
        ([1.0, 2.0, -0.5], ZeroComponentError, "{} must be strictly positive; component 2 is -0.5"),
    ],
)
def test_tilt_vector_errors_keep_class_and_message(bad, error, message):
    chain = random_reversible(3, seed=2)
    calls = {
        "u": [
            lambda: tilted_stationary(chain, bad),
            lambda: two_tilt_product(chain, bad, np.ones(3)),
            lambda: tilt(chain.kernel, bad),
        ],
        "v": [lambda: two_tilt_product(chain, np.ones(3), bad)],
    }
    for name, fns in calls.items():
        for fn in fns:
            with pytest.raises(error) as info:
                fn()
            assert str(info.value) == message.format(name)


@pytest.mark.parametrize("m", [1, 2, 5, 16, 64])
def test_tilt_fast_paths_bit_identical_to_public_tilt(m):
    chain = random_reversible(m, seed=50 + m, sparsity=0.3)
    P = chain.kernel.matrix
    rng = np.random.default_rng(m)
    for _ in range(5):
        u = rng.uniform(0.1, 10.0, size=m)
        v = rng.uniform(0.1, 10.0, size=m)
        U = tilt(P, u).matrix
        assert np.array_equal(tilted_stationary(chain, u)[0].matrix, U)
        expected = validate_stochastic(U @ tilt(P, v).matrix).matrix
        assert np.array_equal(two_tilt_product(chain, u, v)[0].matrix, expected)


@st.composite
def reversible_tilt_cases(draw, sizes=(1, 7), spread=(0.01, 100.0)):
    """A reversible chain from symmetric positive weights, and two tilt vectors."""
    m = draw(st.integers(*sizes))
    weights = draw(hnp.arrays(np.float64, (m, m), elements=st.floats(1e-3, 1.0)))
    weights = weights + weights.T
    mass = weights.sum(axis=1)
    kernel = validate_stochastic(weights / mass[:, None])
    mu = mass / mass.sum()
    chain = ReversibleChain(kernel, mu)
    vectors = hnp.arrays(np.float64, m, elements=st.floats(*spread))
    return chain, draw(vectors), draw(vectors)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(reversible_tilt_cases())
def test_two_tilt_product_is_reversible_with_real_nonnegative_spectrum(case):
    chain, u, v = case
    W, mu_w = two_tilt_product(chain, u, v)
    assert relative_defect(W.matrix, mu_w) <= 1e-12
    values = np.linalg.eigvals(W.matrix)
    assert np.abs(values.imag).max() <= 1e-9
    assert values.real.min() >= -1e-9


@settings(derandomize=True, deadline=None, max_examples=200)
@given(reversible_tilt_cases(sizes=(2, 12), spread=(1.0, 1e6)))
def test_closed_form_tilt_stationaries_match_gth(case):
    chain, u, v = case
    for kernel, mu in (tilted_stationary(chain, u), two_tilt_product(chain, u, v)):
        exact = reversible._gth(kernel.matrix[None])[0]
        assert np.all(np.abs(mu - exact) <= 1e-12 * exact)


def circulated_chain(m):
    """A reversible kernel plus a 1e-6 circulation, which keeps the rows
    stochastic and breaks detailed balance by about 1e-7."""
    P = random_reversible(m, seed=5).kernel.matrix
    cycle = np.roll(np.eye(m), 1, axis=1) - np.roll(np.eye(m), -1, axis=1)
    return ReversibleChain.from_kernel(P + 1e-6 * cycle)


def test_two_tilt_certificate_rejects_irreversible_chain():
    chain = circulated_chain(8)
    tol = 1e-6
    chain.require_reversible(tol)
    # Tilts that gather the mass on states 0 and 1 gather the circulation
    # there too: the product's defect (4.3e-6) exceeds the chain's (2.6e-7).
    u = np.array([1e3, 1e3, 1, 1, 1, 1, 1, 1], dtype=float)
    with pytest.raises(NotReversibleError, match=r"^two-tilt product has detailed-balance defect"):
        two_tilt_product(chain, u, u, tol)


def test_two_tilt_certificate_accepts_what_require_reversible_accepts():
    """The certificate gates W on the absolute scale that gates P.

    Relative to its largest flow the product's defect exceeds tol, so a
    relative certificate would refuse a chain that every other row of
    ``bounds`` accepts.
    """
    chain = circulated_chain(8)
    tol = 1e-6
    chain.require_reversible(tol)
    rng = np.random.default_rng(1)
    u, v = rng.uniform(0.5, 2.0, size=(2, 8))
    W, mu_w = two_tilt_product(chain, u, v, tol)
    assert reversibility_defect(W, mu_w) <= tol
    assert relative_defect(W.matrix, mu_w) > tol


def test_three_tilt_products_are_not_reversible():
    """The two-tilt certificate does not carry over to longer products."""
    chain = random_reversible(50, seed=3)
    rng = np.random.default_rng(50)
    us = [rng.uniform(0.5, 2.0, size=50) for _ in range(3)]
    pair = tilted_product(chain.kernel, us[:2])
    triple = tilted_product(chain.kernel, us)
    mu_pair = stationary_distribution(pair)
    mu_triple = stationary_distribution(triple)
    assert relative_defect(pair.matrix, mu_pair) < 1e-12
    assert relative_defect(triple.matrix, mu_triple) > 1e-4
    # On the certificate's own scale the gap is as wide: about 2e-17 against 4e-6.
    assert reversibility_defect(pair, mu_pair) < 1e-15
    assert reversibility_defect(triple, mu_triple) > 1e3 * 1e-9


def test_symmetrize_frozen():
    chain = ReversibleChain.from_kernel([[0.9, 0.1], [0.2, 0.8]])
    S = symmetrize(chain)
    root = np.sqrt(0.02)
    assert np.allclose(S, [[0.9, root], [root, 0.8]], atol=1e-15)


def test_symmetrize_fixed_point_for_symmetric_kernel():
    P = np.array([[0.6, 0.3, 0.1], [0.3, 0.5, 0.2], [0.1, 0.2, 0.7]])
    chain = ReversibleChain.from_kernel(P)
    S = symmetrize(chain)
    assert np.allclose(S, P, atol=1e-13)


def test_symmetrize_preserves_spectrum():
    for seed in range(10):
        chain = random_reversible(8, seed=300 + seed)
        S = symmetrize(chain)
        assert np.abs(S - S.T).max() < 1e-12
        sym_vals = np.sort(np.linalg.eigvalsh(S))
        kernel_vals = np.sort(np.linalg.eigvals(chain.kernel.matrix).real)
        assert np.abs(sym_vals - kernel_vals).max() < 1e-8


def test_symmetrize_requires_reversible():
    chain = ReversibleChain.from_kernel(THREE_CYCLE)
    with pytest.raises(NotReversibleError):
        symmetrize(chain)


def test_random_reversible_single_state():
    chain = random_reversible(1, seed=0)
    assert chain.kernel.matrix.tolist() == [[1.0]]
    assert chain.stationary.tolist() == [1.0]
    assert chain.defect == 0.0


def test_random_reversible_invariants():
    for m in (2, 3, 6, 12):
        for seed in range(10):
            chain = random_reversible(m, seed=seed)
            P = chain.kernel.matrix
            assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
            assert chain.defect < 1e-14
            assert is_irreducible(P)
            assert is_aperiodic(P)
            assert abs(chain.stationary.sum() - 1.0) < 1e-12
            direct = stationary_distribution(P)
            assert np.abs(chain.stationary - direct).max() < 1e-12


def test_random_reversible_deterministic():
    a = random_reversible(6, seed=99)
    b = random_reversible(6, seed=99)
    assert np.array_equal(a.kernel.matrix, b.kernel.matrix)
    assert np.array_equal(a.stationary, b.stationary)
    c = random_reversible(6, seed=100)
    assert not np.array_equal(a.kernel.matrix, c.kernel.matrix)


def test_random_reversible_sparsity():
    for seed in range(8):
        chain = random_reversible(10, seed=seed, sparsity=0.6)
        P = chain.kernel.matrix
        off = P[~np.eye(10, dtype=bool)]
        assert (off == 0.0).sum() > 0
        assert is_irreducible(P)
        assert is_aperiodic(P)
        assert chain.defect < 1e-14


def assert_stochastic_by_construction(kernel):
    # Each entry is one rounded quotient w_ij / s_i and each row sum s_i one
    # rounded sum of m terms, so a row of the kernel sums to 1 within m * eps.
    m = kernel.shape[-1]
    assert np.isfinite(kernel).all() and kernel.min() >= 0.0
    assert np.abs(kernel.sum(axis=-1) - 1.0).max() <= m * np.finfo(np.float64).eps


@st.composite
def scan_draws(draw):
    """Uniforms in [0, 1) as the scan draws them for one m-state chain, often with exact zeros."""
    m = draw(st.integers(1, 60))
    elements = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))
    return m, draw(hnp.arrays(np.float64, m * m + m, elements=elements))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(scan_draws())
def test_weighted_chain_kernel_is_stochastic_by_construction(case):
    m, draws = case
    kernel, mu = reversible._weighted_chain(reversible._reversible_weights(draws, m))
    assert_stochastic_by_construction(kernel)
    assert mu.min() > 0.0


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5]))
def test_random_reversible_kernel_is_stochastic_by_construction(m, seed, sparsity):
    assert_stochastic_by_construction(random_reversible(m, seed, sparsity).kernel.matrix)


def test_random_reversible_rejects_bad_args():
    with pytest.raises(ValueError):
        random_reversible(0, seed=1)
    with pytest.raises(ValueError):
        random_reversible(3, seed=1, sparsity=1.0)
    with pytest.raises(ValueError):
        random_reversible(3, seed=1, sparsity=-0.1)


def test_time_reversal_is_stochastic():
    """D^{-1}(mu) P^T D(mu) has unit row sums whenever mu is stationary."""
    rng = np.random.default_rng(24)
    for m in (2, 4, 7):
        for _ in range(20):
            P = random_chain_kernel(rng, m)
            mu = stationary_distribution(P)
            reversed_kernel = rank1_sandwich(1.0 / mu, P.T, mu)
            assert np.abs(reversed_kernel.sum(axis=1) - 1.0).max() < 1e-12
            validate_stochastic(reversed_kernel, tol=1e-9)


def test_stationary_periodic_two_state_flip():
    # the two-state flip is periodic; the direct solve still finds its fixed point
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    mu = stationary_distribution(P)
    assert np.allclose(mu, [0.5, 0.5], atol=1e-12)
    assert np.abs(mu @ P - mu).max() < 1e-15


def test_stationary_stack_falls_back_per_slice(monkeypatch):
    rng = np.random.default_rng(31)
    good = [random_chain_kernel(rng, 2) for _ in range(3)]
    # rows (P^T - I)[0] and (1, 1) coincide up to scale: LAPACK gesv reports
    # a singular system, which fails the solve of the whole stack
    singular = np.array([[1.25, 0.25], [0.25, 0.75]])
    # the direct solve gives (1, 0), which the positivity gate rejects
    gated = np.array([[1.0, 1e-13], [0.5, 0.5]])
    stack = np.stack([good[0], singular, good[1], gated, good[2]])
    # loose enough that the non-stochastic singular slice passes its gate
    tol = 1.0
    fell_back = []
    gth = reversible._gth

    def spy(arr):
        fell_back.append(arr.copy())
        return gth(arr)

    monkeypatch.setattr(reversible, "_gth", spy)
    mus = reversible._stationary(stack, tol)
    assert len(fell_back) == 1
    assert np.array_equal(fell_back[0], np.stack([singular, gated]))
    expected = np.array([1.0, 2e-13]) / (1.0 + 2e-13)
    assert np.all(np.abs(mus[3] - expected) <= 1e-15 * expected)
    for arr, mu in zip(stack, mus):
        assert np.array_equal(mu, stationary_distribution(arr, tol))
    assert np.array_equal(mus[[0, 2, 4]], reversible._stationary(np.stack(good), tol))


def test_stationary_certifies_a_raw_matrix():
    # the first row sums to 1.5: a row-sum error, not a failed stationary gate
    not_stochastic = [[1.25, 0.25], [0.25, 0.75]]
    with pytest.raises(RowSumError, match=r"^row 0 sums to 1\.5, off by more than tol=1e-09$"):
        stationary_distribution(not_stochastic)
    # a StochasticMatrix is taken as it is, at the tolerance it was certified at
    loose = validate_stochastic(not_stochastic, 1.0)
    assert stationary_distribution(loose, 1.0).tolist() == [0.5, 0.5]
    with pytest.raises(ConvergenceError):
        stationary_distribution(loose)


def test_gth_answer_must_pass_the_stationary_gate():
    # not stochastic: GTH returns (1/2, 1/2), which leaves a residual of 1/4
    singular = np.array([[1.25, 0.25], [0.25, 0.75]])
    message = r"^GTH answer failed the gate: residual 0\.25, tol=1e-09$"
    with pytest.raises(ConvergenceError, match=message):
        reversible._stationary(singular, 1e-9)


@pytest.mark.parametrize("m", [2, 3, 9, 17, 40])
def test_gth_stack_matches_single_matrix(m):
    rng = np.random.default_rng(m)
    kernels = np.stack([random_chain_kernel(rng, m) for _ in range(5)])
    mus = reversible._gth(kernels)
    for arr, mu in zip(kernels, mus):
        assert np.array_equal(mu, reversible._gth(arr[None])[0])
        assert np.allclose(mu, stationary_distribution(arr), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("m", [1, 2, 5, 9])
def test_stationary_and_defect_stacks_match_single_matrix(m):
    rng = np.random.default_rng(m)
    kernels = np.stack(
        [random_reversible(m, seed, 0.5 * (seed % 2)).kernel.matrix for seed in range(6)]
    )
    mus = reversible._stationary(kernels, 1e-9)
    defects = reversible._defect(kernels, mus)
    for arr, mu, defect in zip(kernels, mus, defects):
        assert np.array_equal(mu, stationary_distribution(arr))
        assert defect == reversibility_defect(arr, mu)
    noisy = mus + rng.uniform(0.0, 1e-3, size=mus.shape)
    for arr, mu, defect in zip(kernels, noisy, reversible._defect(kernels, noisy)):
        assert defect == reversibility_defect(arr, mu)


def test_zero_stationary_message_prints_plain_float():
    with pytest.raises(
        ZeroComponentError, match=r"^stationary must be strictly positive; component 1 is 0\.0$"
    ):
        ReversibleChain(validate_stochastic(np.eye(2)), np.array([1.0, 0.0]))


def two_call_random_reversible(m, seed, sparsity):
    """``random_reversible`` drawn in two calls: the off-diagonal draws, then the diagonal."""
    rng = np.random.default_rng(seed)
    draws = rng.random((m, m))
    draws.flat[:: m + 1] = rng.uniform(0.5, 1.5, size=m)
    weights = 0.5 * (draws + draws.T)
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
    row_mass = weights.sum(axis=1)
    return weights / row_mass[:, None], row_mass / row_mass.sum()


@pytest.mark.parametrize("sparsity", [0.0, 0.6])
@pytest.mark.parametrize("m", [1, 2, 3, 8, 16, 64])
def test_random_reversible_matches_two_call_draw(m, sparsity):
    # One rng.random(m*m + m) call leaves the stream where the two calls did.
    for seed in (0, 17, 2**64 + 5):
        chain = random_reversible(m, seed, sparsity)
        kernel, mu = two_call_random_reversible(m, seed, sparsity)
        assert chain.kernel.matrix.tobytes() == kernel.tobytes()
        assert chain.stationary.tobytes() == mu.tobytes()
