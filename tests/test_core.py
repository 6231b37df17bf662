import functools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tiltmat
from tiltmat import core, io, validation
from tiltmat.core import (
    StochasticMatrix,
    is_aperiodic,
    is_irreducible,
    normalize_product,
    rank1_sandwich,
    tilt,
    tilt_detect,
    tilted_product,
    validate_stochastic,
    zero_pattern,
)
from tiltmat.reversible import random_reversible, reversibility_defect, stationary_distribution
from tiltmat.spectral import second_eigenvalue_modulus
from tiltmat.errors import (
    DimensionError,
    FormatError,
    NegativeEntryError,
    NonFiniteError,
    NotIrreducibleError,
    NotSquareError,
    PatternMismatchError,
    RowSumError,
    ZeroComponentError,
    ZeroRowError,
)


def random_nonneg(rng, rows, cols, zero_frac=0.0):
    """Random non-negative matrix with at least one positive entry per row."""
    arr = rng.uniform(0.05, 1.0, size=(rows, cols))
    if zero_frac > 0.0:
        arr[rng.uniform(size=arr.shape) < zero_frac] = 0.0
        # keep one positive entry per row so A u stays positive
        for i in range(rows):
            if arr[i].max() == 0.0:
                arr[i, rng.integers(cols)] = rng.uniform(0.05, 1.0)
    return arr


# ---------------------------------------------------------------- validate


def test_validate_accepts_doubly_stochastic():
    sm = validate_stochastic([[0.5, 0.5], [0.5, 0.5]], tol=1e-12)
    assert isinstance(sm, StochasticMatrix)
    assert sm.shape == (2, 2)


def test_validate_accepts_rectangular_row():
    sm = validate_stochastic([[0.25, 0.5, 0.25]], tol=1e-12)
    assert sm.rows == 1 and sm.cols == 3


def test_validate_rejects_bad_row_sum():
    with pytest.raises(RowSumError, match="row 0"):
        validate_stochastic([[1.0, 0.1], [0.5, 0.5]], tol=1e-12)


def test_validate_rejects_negative_beyond_tol():
    with pytest.raises(NegativeEntryError):
        validate_stochastic([[1.1, -0.1], [0.5, 0.5]], tol=1e-9)


def test_validate_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        validate_stochastic([[np.nan, 1.0]], tol=1e-9)


def test_validate_clamps_dust_and_renormalizes():
    # row sums to 1 within fp while one entry is tiny negative
    sm = validate_stochastic([[0.6, 0.4 + 1e-13, -1e-13]], tol=1e-9)
    assert sm.matrix.min() == 0.0
    assert abs(sm.matrix.sum() - 1.0) < 1e-12


def test_validate_matrix_is_frozen():
    sm = validate_stochastic([[0.5, 0.5]], tol=1e-9)
    with pytest.raises(ValueError):
        sm.matrix[0, 0] = 1.0


def test_validate_requires_positive_tol():
    with pytest.raises(ValueError):
        validate_stochastic([[1.0]], tol=0.0)
    for tol in (-1e-9, np.nan, np.inf):
        with pytest.raises(ValueError):
            validate_stochastic([[1.0]], tol=tol)


def test_validate_certified_matrix_passes_through_but_tol_is_checked():
    loose = validate_stochastic([[0.5, 0.5 + 1e-7]], tol=1e-6)
    # Taken as it is at the tolerance it was certified at, even under a
    # stricter tol that its 1e-7 row-sum error would fail.
    for tol in (1e-3, 1e-6, 1e-9):
        assert validate_stochastic(loose, tol=tol) is loose
    for tol in (0.0, -1e-9, np.nan, np.inf):
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            validate_stochastic(loose, tol=tol)


# ---------------------------------------------------------------- tilt


def test_tilt_two_state_example():
    out = tilt([[0.5, 0.5], [0.5, 0.5]], [1.0, 2.0])
    assert np.abs(out.matrix - [[1 / 3, 2 / 3], [1 / 3, 2 / 3]]).max() < 1e-15


def test_tilt_by_ones_is_identity_on_stochastic():
    rng = np.random.default_rng(0)
    P = rng.uniform(size=(4, 4))
    P /= P.sum(axis=1, keepdims=True)
    out = tilt(P, np.ones(4))
    assert np.abs(out.matrix - P).max() < 1e-15


def test_tilt_rectangular_row():
    out = tilt([[1.0, 2.0, 1.0]], [1.0, 1.0, 1.0])
    assert np.array_equal(out.matrix, [[0.25, 0.5, 0.25]])


def test_tilt_one_by_one():
    assert tilt([[3.7]], [2.0]).matrix[0, 0] == 1.0


def test_tilt_zero_row_rejected():
    with pytest.raises(ZeroRowError, match="row 1"):
        tilt([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0])


def test_tilt_dimension_mismatch():
    with pytest.raises(DimensionError):
        tilt([[1.0, 1.0]], [1.0, 1.0, 1.0])


def test_tilt_rejects_negative_matrix():
    with pytest.raises(NegativeEntryError):
        tilt([[1.0, -0.5]], [1.0, 1.0])


def test_tilt_rejects_nonpositive_u():
    with pytest.raises(ZeroComponentError):
        tilt([[1.0, 1.0]], [1.0, 0.0])


def test_tilt_row_sums_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m, n = rng.integers(1, 9, size=2)
        A = random_nonneg(rng, m, n, zero_frac=0.3)
        u = rng.uniform(0.1, 10.0, size=n)
        out = tilt(A, u)
        assert np.abs(out.matrix.sum(axis=1) - 1.0).max() < 1e-12


def test_tilt_preserves_zero_pattern_random():
    rng = np.random.default_rng(12)
    for _ in range(50):
        m, n = rng.integers(2, 9, size=2)
        A = random_nonneg(rng, m, n, zero_frac=0.4)
        u = rng.uniform(0.1, 10.0, size=n)
        assert zero_pattern(tilt(A, u)) == zero_pattern(A)


def test_tilt_raises_rather_than_change_the_zero_pattern():
    # 0.9e-300 / (0.9e-300 + 0.1e300) is below the float range: the entry rounds to 0.
    message = r"^entry \(0,0\) of A is positive; its tilt by u rounds to 0$"
    with pytest.raises(PatternMismatchError, match=message):
        tilt([[0.9, 0.1], [0.2, 0.8]], [1e-300, 1e300])
    # Dust clamped to 0 is no positive entry, so the first one lost is (1, 0).
    with pytest.raises(PatternMismatchError, match=r"^entry \(1,0\) of A"):
        tilt([[-1e-12, 1.0], [0.5, 0.5]], [1e-300, 1e300])


def test_tilt_checks_u_then_the_sign_of_a_then_the_pattern():
    with pytest.raises(ZeroComponentError):
        tilt([[-1.0, 1.0], [0.5, 0.5]], [0.0, 1e300])
    with pytest.raises(NegativeEntryError):
        tilt([[-1.0, 1.0], [0.5, 0.5]], [1e-300, 1e300])


def test_tilted_product_and_normalize_product_keep_each_factors_zero_pattern():
    # Unchecked, both would return the reducible [[0, 1], [0, 1]].
    P = [[0.9, 0.1], [0.2, 0.8]]
    extreme = [1e-300, 1e300]
    with pytest.raises(
        PatternMismatchError, match=r"^entry \(0,0\) of P is positive; its tilt by us\[0\] rounds to 0$"
    ):
        tilted_product(P, [extreme])
    with pytest.raises(PatternMismatchError, match=r"^entry \(0,0\) of P .* by us\[1\] "):
        tilted_product(P, [[1.0, 1.0], extreme])
    with pytest.raises(
        PatternMismatchError, match=r"^entry \(0,0\) of A_1 is positive; its tilt by u_1 rounds to 0$"
    ):
        normalize_product([(P, extreme)])
    with pytest.raises(PatternMismatchError, match=r"^entry \(0,0\) of A_2 .* by u_2 "):
        normalize_product([(P, [1.0, 1.0]), (P, extreme)])


def test_a_forged_stochastic_matrix_is_refused_where_it_is_made():
    # validate_stochastic passes a StochasticMatrix through, so its constructor certifies.
    with pytest.raises(NegativeEntryError):
        validate_stochastic(StochasticMatrix([[2, -1], [0.5, 0.5]]))
    with pytest.raises(RowSumError):
        StochasticMatrix([[0.5, 0.6]])
    with pytest.raises(NonFiniteError):
        StochasticMatrix([[np.nan, 1.0]])
    with pytest.raises(DimensionError):
        StochasticMatrix([0.5, 0.5])
    with pytest.raises(FormatError, match="^matrix will not convert to float64"):
        StochasticMatrix([[1, 10**400]])
    with pytest.raises(ValueError, match="^tol must be positive"):
        StochasticMatrix([[1.0]], 0.0)
    # Dust is clamped and its row renormalized, as validate_stochastic does.
    assert np.array_equal(StochasticMatrix([[-1e-12, 1.0]]).matrix, [[0.0, 1.0]])


@st.composite
def tilt_group_cases(draw):
    """A non-negative matrix with a positive entry in every row, and two tilt vectors."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    entries = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    A = draw(hnp.arrays(np.float64, (rows, cols), elements=entries))
    A[A.max(axis=1) == 0.0, 0] = 1.0
    vectors = hnp.arrays(np.float64, cols, elements=st.floats(0.01, 100.0))
    return A, draw(vectors), draw(vectors)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(tilt_group_cases())
def test_tilt_group_law(case):
    A, u, v = case
    twice = tilt(tilt(A, u), v).matrix
    once = tilt(A, u * v).matrix
    assert np.abs(twice - once).max() < 1e-12


# ---------------------------------------------------------------- tilted_product


def random_stochastic(rng, m, zero_frac=0.0):
    P = random_nonneg(rng, m, m, zero_frac)
    return P / P.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("m", range(2, 9))
def test_tilted_product_matches_product_of_tilts(m):
    rng = np.random.default_rng(100 + m)
    P = random_stochastic(rng, m, zero_frac=0.3)
    for n in range(1, 12):
        us = [rng.uniform(0.2, 5.0, size=m) for _ in range(n)]
        out = tilted_product(P, us)
        assert isinstance(out, StochasticMatrix)
        expected = functools.reduce(np.matmul, [tilt(P, u).matrix for u in us])
        assert np.abs(out.matrix - expected).max() < 1e-12


def test_tilted_product_single_factor_is_tilt():
    rng = np.random.default_rng(14)
    P = validate_stochastic(random_stochastic(rng, 5, zero_frac=0.3))
    u = rng.uniform(0.2, 5.0, size=5)
    assert np.abs(tilted_product(P, [u]).matrix - tilt(P, u).matrix).max() < 1e-15


def test_tilted_product_input_errors():
    P = [[0.5, 0.5], [0.25, 0.75]]
    with pytest.raises(DimensionError):
        tilted_product(P, [])
    with pytest.raises(DimensionError):
        tilted_product(P, [[1.0, 2.0], [1.0, 2.0, 3.0]])
    with pytest.raises(ZeroComponentError):
        tilted_product(P, [[1.0, 0.0]])
    wide = [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]
    with pytest.raises(NotSquareError):
        tilted_product(wide, [[1.0, 1.0, 1.0]])
    with pytest.raises(NotSquareError):
        tilted_product(validate_stochastic(wide), [[1.0, 1.0, 1.0]])


# ---------------------------------------------------------------- validation boundary


def test_certified_matrix_passes_validation_as_it_is():
    P = validate_stochastic([[0.5, 0.5], [0.25, 0.75]])
    assert validation.as_matrix(P) is P.matrix
    assert validation.as_square_matrix(P, "P") is P.matrix


@pytest.mark.parametrize(
    "values, error, message",
    [
        ([[1.0, np.inf]], NonFiniteError, "A contains NaN or infinite entries"),
        ([1.0, 2.0], DimensionError, "A must be 2-D, got ndim=1"),
        (np.empty((0, 3)), DimensionError, "A must have positive dimensions, got (0, 3)"),
        (np.empty((2, 0)), DimensionError, "A must have positive dimensions, got (2, 0)"),
    ],
)
def test_as_matrix_rejects_non_finite_and_malformed(values, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        validation.as_matrix(values, "A")


@pytest.mark.parametrize("values", [[[1.0, 2.0, 3.0]], [[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0]])
def test_as_vector_flattens_one_row_or_one_column(values):
    vec = validation.as_vector(values, "u")
    assert vec.shape == (3,)
    assert np.array_equal(vec, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("values", [[[1.0, 2.0], [3.0, 4.0]], [], [[]], 5.0])
def test_as_vector_rejects_what_is_not_a_vector(values):
    with pytest.raises(DimensionError, match=r"^u must be a non-empty 1-D vector$"):
        validation.as_vector(values, "u")


# Values that will not become float64: ragged nesting, a string, an int past
# the float range and an object that is no number.
UNCONVERTIBLE = {
    "ragged": [[1.0, 2.0], [3.0]],
    "string": "abc",
    "too-large-int": 10**400,
    "object": object(),
}
TWO = [[0.9, 0.1], [0.2, 0.8]]
ONES = [1.0, 1.0]
MU = [2.0 / 3.0, 1.0 / 3.0]


def two_state_chain():
    return tiltmat.ReversibleChain.from_kernel(TWO)


# Every public function that takes a matrix, vector, schedule, mu or lambda_2
# value, with the bad value in each such argument, and the name its error gives.
BOUNDARY_CALLS = {
    "validate_stochastic": (lambda bad: validate_stochastic(bad), "matrix"),
    "tilt(A)": (lambda bad: tilt(bad, ONES), "matrix"),
    "tilt(u)": (lambda bad: tilt(TWO, bad), "u"),
    "tilted_product(P)": (lambda bad: tilted_product(bad, [ONES]), "matrix"),
    "tilted_product(us)": (lambda bad: tilted_product(TWO, [ONES, bad]), "us[1]"),
    "rank1_sandwich(y)": (lambda bad: rank1_sandwich(bad, TWO, ONES), "y"),
    "rank1_sandwich(A)": (lambda bad: rank1_sandwich(ONES, bad, ONES), "matrix"),
    "rank1_sandwich(x)": (lambda bad: rank1_sandwich(ONES, TWO, bad), "x"),
    "zero_pattern": (lambda bad: zero_pattern(bad), "matrix"),
    "is_irreducible": (lambda bad: is_irreducible(bad), "P"),
    "is_aperiodic": (lambda bad: is_aperiodic(bad), "P"),
    "normalize_product(A)": (lambda bad: normalize_product([(TWO, ONES), (bad, ONES)]), "A_2"),
    "normalize_product(u)": (lambda bad: normalize_product([(TWO, bad)]), "u_1"),
    "tilt_detect(P1)": (lambda bad: tilt_detect(bad, TWO), "matrix"),
    "tilt_detect(P2)": (lambda bad: tilt_detect(TWO, bad), "matrix"),
    "stationary_distribution": (lambda bad: stationary_distribution(bad), "matrix"),
    "ReversibleChain.from_kernel": (lambda bad: tiltmat.ReversibleChain.from_kernel(bad), "matrix"),
    "reversibility_defect(P)": (lambda bad: reversibility_defect(bad, MU), "P"),
    "reversibility_defect(mu)": (lambda bad: reversibility_defect(TWO, bad), "mu"),
    "tilted_stationary(u)": (lambda bad: tiltmat.tilted_stationary(two_state_chain(), bad), "u"),
    "two_tilt_product(u)": (lambda bad: tiltmat.two_tilt_product(two_state_chain(), bad, ONES), "u"),
    "two_tilt_product(v)": (lambda bad: tiltmat.two_tilt_product(two_state_chain(), ONES, bad), "v"),
    "symmetric_eigenvalues": (lambda bad: tiltmat.symmetric_eigenvalues(bad), "S"),
    "general_spectrum": (lambda bad: tiltmat.general_spectrum(bad), "M"),
    "spectrum": (lambda bad: tiltmat.spectrum(bad), "M"),
    "second_eigenvalue_modulus(P)": (lambda bad: second_eigenvalue_modulus(bad), "matrix"),
    "second_eigenvalue_modulus(mu)": (lambda bad: second_eigenvalue_modulus(TWO, bad), "mu"),
    "bound_tilted(lambda2_P)": (lambda bad: tiltmat.bound_tilted(bad, ONES), "lambda2_P"),
    "bound_tilted(u)": (lambda bad: tiltmat.bound_tilted(0.5, bad), "u"),
    "bound_pair(lambda2_1)": (lambda bad: tiltmat.bound_pair(bad, 0.5, MU, MU), "lambda2s"),
    "bound_pair(lambda2_2)": (lambda bad: tiltmat.bound_pair(0.5, bad, MU, MU), "lambda2s"),
    "bound_pair(mu1)": (lambda bad: tiltmat.bound_pair(0.5, 0.5, bad, MU), "mus[0]"),
    "bound_pair(mu2)": (lambda bad: tiltmat.bound_pair(0.5, 0.5, MU, bad), "mus[1]"),
    "bound_chain(lambda2s)": (lambda bad: tiltmat.bound_chain(bad, [MU]), "lambda2s"),
    "bound_chain(mus)": (lambda bad: tiltmat.bound_chain([0.5], [bad]), "mus[0]"),
    "bound_main(lambda2_P)": (lambda bad: tiltmat.bound_main(bad, [ONES]), "lambda2_P"),
    "bound_main(us)": (lambda bad: tiltmat.bound_main(0.5, [bad]), "us[0]"),
    "BoundReport.evaluate(observed)": (
        lambda bad: tiltmat.BoundReport.evaluate(bad, 0.5), "observed_lambda2"
    ),
    "BoundReport.evaluate(bound)": (
        lambda bad: tiltmat.BoundReport.evaluate(0.5, bad), "bound_value"
    ),
    "converge_demo(u_schedule)": (
        lambda bad: tiltmat.converge_demo(two_state_chain(), [bad], n=3), "u_schedule[0]"
    ),
    "format_matrix": (lambda bad: io.format_matrix(bad), "matrix"),
    "format_vector": (lambda bad: io.format_vector(bad), "vector"),
}


@pytest.mark.parametrize("value", sorted(UNCONVERTIBLE))
@pytest.mark.parametrize("call", sorted(BOUNDARY_CALLS))
def test_a_value_that_will_not_convert_is_a_format_error(call, value):
    function, name = BOUNDARY_CALLS[call]
    with pytest.raises(FormatError, match=f"^{re.escape(name)} will not convert to float64: "):
        function(UNCONVERTIBLE[value])


# Every argument that takes a lambda_2 value: one that converts but is not a
# scalar is a DimensionError naming it, not float()'s TypeError.
SCALAR_CALLS = {
    "bound_tilted(lambda2_P)": (lambda bad: tiltmat.bound_tilted(bad, ONES), "lambda2_P"),
    "bound_main(lambda2_P)": (lambda bad: tiltmat.bound_main(bad, [ONES]), "lambda2_P"),
    "BoundReport.evaluate(observed)": (
        lambda bad: tiltmat.BoundReport.evaluate(bad, 0.5), "observed_lambda2"
    ),
    "BoundReport.evaluate(bound)": (
        lambda bad: tiltmat.BoundReport.evaluate(0.5, bad), "bound_value"
    ),
}


@pytest.mark.parametrize("value, shape", [([0.5, 0.4], "(2,)"), ([0.5], "(1,)"), ([[0.5]], "(1, 1)")])
@pytest.mark.parametrize("call", sorted(SCALAR_CALLS))
def test_a_lambda2_that_is_not_a_scalar_is_a_dimension_error(call, value, shape):
    function, name = SCALAR_CALLS[call]
    with pytest.raises(DimensionError, match=f"^{re.escape(name)} must be a scalar, got shape "
                       f"{re.escape(shape)}$"):
        function(value)
    function(np.float64(0.5))
    function(np.array(0.5))


def thin_link_chain():
    """A reversible 3-state chain whose states 0 and 2 are joined by weight 1e-300."""
    weights = np.array([[1.0, 1.0, 1e-300], [1.0, 1.0, 1.0], [1e-300, 1.0, 1.0]])
    mass = weights.sum(axis=1)
    return tiltmat.ReversibleChain(weights / mass[:, None], mass / mass.sum())


# Every public function that tilts, with a tilt by THIN_TILT that rounds the
# thin link's entry (0,2) to 0, and the matrix and vector its error names.
THIN_TILT = [1.0, 1.0, 1e-30]
LOST_ENTRY_CALLS = {
    "tilt": (lambda c: tilt(c.kernel, THIN_TILT), "A", "u"),
    "tilted_product": (lambda c: tilted_product(c.kernel, [np.ones(3), THIN_TILT]), "P", "us[1]"),
    "normalize_product": (
        lambda c: normalize_product([(c.kernel, np.ones(3)), (c.kernel, THIN_TILT)]), "A_2", "u_2"
    ),
    "tilted_stationary": (lambda c: tiltmat.tilted_stationary(c, THIN_TILT), "P", "u"),
    "two_tilt_product(u)": (lambda c: tiltmat.two_tilt_product(c, THIN_TILT, np.ones(3)), "P", "u"),
    "two_tilt_product(v)": (lambda c: tiltmat.two_tilt_product(c, np.ones(3), THIN_TILT), "P", "v"),
    "converge_demo": (
        lambda c: tiltmat.converge_demo(c, [np.ones(3), THIN_TILT], n=3), "P", "u_schedule[1]"
    ),
}


@pytest.mark.parametrize("call", sorted(LOST_ENTRY_CALLS))
def test_every_tilt_keeps_its_zero_pattern_or_raises(call):
    function, a_name, u_name = LOST_ENTRY_CALLS[call]
    message = f"entry (0,2) of {a_name} is positive; its tilt by {u_name} rounds to 0"
    with pytest.raises(PatternMismatchError, match=f"^{re.escape(message)}$"):
        function(thin_link_chain())


HALF = [[0.5, 0.5], [0.5, 0.5]]
# Every public function that tilts a matrix it is given, called on that matrix
# with a tol, and the name its sign and zero-row errors give the matrix.
TILTING_CALLS = {
    "tilt": (lambda a, tol: tilt(a, [1.0, 2.0], tol), "A"),
    "normalize_product": (
        lambda a, tol: normalize_product([(HALF, [1.0, 1.0]), (a, [1.0, 2.0])], tol), "A_2"
    ),
    "tilt_detect": (lambda a, tol: tilt_detect(HALF, a, tol), "P2"),
}


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
@pytest.mark.parametrize("call", sorted(TILTING_CALLS))
def test_tilting_calls_refuse_a_tol_that_is_not_positive_and_finite(call, tol):
    # HALF is not a tilt of this matrix: with tol = inf, tilt_detect would find one.
    function, _ = TILTING_CALLS[call]
    with pytest.raises(ValueError, match="^tol must be positive and finite, got "):
        function([[0.9, 0.1], [0.5, 0.5]], tol)


# Every public function that takes a tol and no matrix it tilts: each refuses a
# tol that is not positive and finite with the same ValueError, through
# validation._check_tol.
SKEW = [[0.9, 0.1, 0.0, 0.0], [0.0, 0.9, 0.1, 0.0], [0.0, 0.0, 0.9, 0.1], [0.1, 0.0, 0.0, 0.9]]
TOL_CALLS = {
    "validate_stochastic": lambda tol: validate_stochastic(SKEW, tol),
    "spectrum(auto)": lambda tol: tiltmat.spectrum(SKEW, "auto", tol),
    "spectrum(general-qr)": lambda tol: tiltmat.spectrum(SKEW, tiltmat.METHOD_QR, tol),
    "symmetric_eigenvalues": lambda tol: tiltmat.symmetric_eigenvalues(np.eye(2), tol),
    "second_eigenvalue_modulus": lambda tol: second_eigenvalue_modulus(SKEW, None, tol),
    "second_eigenvalue_modulus(mu)": lambda tol: second_eigenvalue_modulus(
        validate_stochastic(SKEW), [0.25] * 4, tol
    ),
    "require_reversible": lambda tol: two_state_chain().require_reversible(tol),
}


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
@pytest.mark.parametrize("call", sorted(TOL_CALLS))
def test_one_tol_rule(call, tol):
    with pytest.raises(ValueError, match=f"^tol must be positive and finite, got {tol}$"):
        TOL_CALLS[call](tol)


@pytest.mark.parametrize("call", sorted(TILTING_CALLS))
def test_a_negative_entry_is_named_as_its_argument(call):
    function, name = TILTING_CALLS[call]
    message = f"entry (0,1) of {name} = -0.5 is below -tol"
    with pytest.raises(NegativeEntryError, match=f"^{re.escape(message)}$"):
        function([[1.5, -0.5], [0.5, 0.5]], 1e-9)


@pytest.mark.parametrize("call", ["normalize_product", "tilt"])
def test_a_zero_row_is_named_as_its_argument(call):
    function, name = TILTING_CALLS[call]
    with pytest.raises(ZeroRowError, match=f"^row 1 of {name} has no strictly positive entry$"):
        function([[0.5, 0.5], [0.0, 0.0]], 1e-9)


def test_tilt_detect_raises_where_its_rebuilt_tilt_loses_an_entry():
    # P1 is the exact tilt of P2 by u = (1e-300, 1e-300, 1), but forming that
    # tilt rounds P2's entry (0,1) times u_1 to 0 before the row is normalized:
    # tilt raises on it, and so does the search that recovers u.
    P2 = np.array([[1 - 1e-30, 1e-30, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
    P1 = np.array([[1 - 1e-30, 1e-30, 0.0], [1e-300, 2e-300, 1.0], [0.0, 1e-300, 1.0]])
    with pytest.raises(PatternMismatchError, match=r"^entry \(0,1\) of A is positive; "):
        tilt(P2, [1e-300, 1e-300, 1.0])
    message = "entry (0,1) of P2 is positive; its tilt by u rounds to 0"
    with pytest.raises(PatternMismatchError, match=f"^{re.escape(message)}$"):
        tilt_detect(P1, P2)


def test_stochastic_matrix_array_protocol():
    P = validate_stochastic([[0.5, 0.5], [0.25, 0.75]])
    view = np.asarray(P)
    assert view is P.matrix and not view.flags.writeable
    copied = np.array(P, copy=True)
    assert copied.flags.writeable and not np.shares_memory(copied, P.matrix)
    assert np.array_equal(copied, P.matrix)
    narrowed = np.asarray(P, dtype=np.float32)
    assert narrowed.dtype == np.float32
    assert np.array_equal(narrowed, P.matrix.astype(np.float32))


@pytest.mark.parametrize(
    "call",
    [
        stationary_distribution,
        lambda P: reversibility_defect(P, [0.5, 0.5]),
        is_irreducible,
        second_eigenvalue_modulus,
    ],
    ids=["stationary_distribution", "reversibility_defect", "is_irreducible", "lambda2"],
)
def test_certified_wide_matrix_is_not_square(call):
    wide = validate_stochastic([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
    with pytest.raises(NotSquareError, match=re.escape("P must be square, got (2, 3)")):
        call(wide)


# ---------------------------------------------------------------- rank-1 sandwich


def test_rank1_sandwich_examples():
    assert np.array_equal(
        rank1_sandwich([2.0, 3.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 4.0]),
        [[2.0, 8.0], [3.0, 12.0]],
    )
    assert np.array_equal(
        rank1_sandwich([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [2.0, 2.0]),
        [[2.0, 0.0], [0.0, 2.0]],
    )


def test_rank1_sandwich_identity_diagonals():
    rng = np.random.default_rng(1)
    A = rng.uniform(size=(3, 5))
    assert np.array_equal(rank1_sandwich(np.ones(3), A, np.ones(5)), A)


def test_rank1_sandwich_matches_hadamard_product():
    rng = np.random.default_rng(2)
    for _ in range(25):
        m, n = rng.integers(1, 8, size=2)
        y = rng.uniform(0.1, 5.0, size=m)
        x = rng.uniform(0.1, 5.0, size=n)
        A = rng.uniform(size=(m, n))
        left = rank1_sandwich(y, A, x)
        right = np.outer(y, x) * A
        scale = np.abs(right).max()
        assert np.abs(left - right).max() <= 4.0 * np.finfo(float).eps * scale


def test_rank1_sandwich_dimension_errors():
    with pytest.raises(DimensionError):
        rank1_sandwich([1.0, 1.0], [[1.0, 1.0]], [1.0, 1.0])
    with pytest.raises(DimensionError):
        rank1_sandwich([1.0], [[1.0, 1.0]], [1.0])


# ---------------------------------------------------------------- zero pattern


def test_zero_pattern_identity():
    pat = zero_pattern(np.eye(2), threshold=0.0)
    assert np.array_equal(pat.mask, [[True, False], [False, True]])


def test_zero_pattern_all_positive():
    pat = zero_pattern([[1 / 3, 2 / 3], [1 / 3, 2 / 3]], threshold=0.0)
    assert pat.mask.all()


def test_zero_pattern_default_threshold_kills_dust():
    arr = np.array([[1.0, 1e-16], [0.5, 0.5]])
    assert np.array_equal(zero_pattern(arr).mask, [[True, False], [True, True]])


def test_zero_pattern_equality_and_hash():
    a = zero_pattern(np.eye(2))
    b = zero_pattern(np.eye(2) * 3.0)
    assert a == b and hash(a) == hash(b)
    assert a != zero_pattern(np.ones((2, 2)))
    assert a.__eq__(object()) is NotImplemented


def test_zero_pattern_rejects_negative_threshold():
    with pytest.raises(ValueError):
        zero_pattern(np.eye(2), threshold=-1.0)


# ---------------------------------------------------------------- structure


def test_irreducibility_basics():
    assert is_irreducible(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert is_irreducible(np.array([[0.9, 0.1], [0.2, 0.8]]))
    assert not is_irreducible(np.eye(2))
    assert is_irreducible(np.array([[1.0]]))


def test_irreducibility_requires_square():
    with pytest.raises(NotSquareError):
        is_irreducible(np.ones((2, 3)))


def test_aperiodicity_basics():
    assert is_aperiodic(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert not is_aperiodic(np.array([[0.0, 1.0], [1.0, 0.0]]))
    cycle3 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert not is_aperiodic(cycle3)
    # one self-loop breaks the period
    looped = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert is_aperiodic(looped)


def test_aperiodicity_requires_irreducible():
    with pytest.raises(NotIrreducibleError):
        is_aperiodic(np.eye(2))


def test_structure_agrees_between_matrix_and_tilt():
    rng = np.random.default_rng(3)
    cycle = np.roll(np.eye(5), 1, axis=1)
    lazy = 0.5 * np.eye(5) + 0.5 * cycle
    for P in (cycle, lazy):
        u = rng.uniform(0.2, 5.0, size=5)
        T = tilt(P, u)
        assert is_irreducible(P) == is_irreducible(T)
        assert is_aperiodic(P) == is_aperiodic(T)


def bool_power(A, k):
    """Boolean k-th power of a 0/1 pattern by repeated squaring."""
    result = np.eye(A.shape[0], dtype=np.int64)
    base = A.astype(np.int64)
    while k:
        if k & 1:
            result = (result @ base > 0).astype(np.int64)
        base = (base @ base > 0).astype(np.int64)
        k >>= 1
    return result.astype(bool)


def random_irreducible_pattern(rng, m, period):
    """Random strongly connected pattern whose edges only go from class c to c+1 mod period."""
    classes = rng.permutation(np.arange(m) % period)
    allowed = (classes[None, :] - classes[:, None] - 1) % period == 0
    while True:
        A = allowed & (rng.uniform(size=(m, m)) < 0.6)
        if bool_power(A | np.eye(m, dtype=bool), m - 1).all():
            return A


@pytest.mark.parametrize("m", range(2, 13))
def test_aperiodicity_matches_wielandt_primitivity(m):
    # An irreducible A is aperiodic iff it is primitive, iff A^((m-1)^2+1) > 0
    # (Wielandt); block-cyclic patterns with period >= 2 are never primitive.
    rng = np.random.default_rng(200 + m)
    periodic = 0
    for trial in range(12):
        period = 1 if trial % 2 == 0 else int(rng.integers(2, min(m, 4) + 1))
        A = random_irreducible_pattern(rng, m, period)
        primitive = bool(bool_power(A, (m - 1) ** 2 + 1).all())
        assert is_aperiodic(A * rng.uniform(0.1, 1.0, size=(m, m))) == primitive
        periodic += not primitive
    assert 6 <= periodic < 12


# ---------------------------------------------------------------- normalize_product


def brute_force_product(factors):
    out = None
    for a, u in factors:
        step = np.asarray(a, dtype=float) * np.asarray(u, dtype=float)[None, :]
        out = step if out is None else out @ step
    return out


def test_normalize_product_base_case():
    fact = normalize_product([([[1.0, 1.0], [0.0, 2.0]], [1.0, 1.0])])
    assert np.abs(fact.scale_vector() - [2.0, 2.0]).max() < 1e-15
    assert np.abs(fact.kernel.matrix - [[0.5, 0.5], [0.0, 1.0]]).max() < 1e-15
    assert fact.scale.max() == 1.0


def test_normalize_product_stochastic_ones_gives_power():
    rng = np.random.default_rng(4)
    P = rng.uniform(size=(4, 4))
    P /= P.sum(axis=1, keepdims=True)
    fact = normalize_product([(P, np.ones(4))] * 5)
    assert np.abs(fact.scale_vector() - 1.0).max() < 1e-12
    assert np.abs(fact.kernel.matrix - np.linalg.matrix_power(P, 5)).max() < 1e-12


def test_normalize_product_reconstruction_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 6))
        factors = [
            (random_nonneg(rng, m, m, zero_frac=0.2), rng.uniform(0.5, 2.0, size=m))
            for _ in range(n)
        ]
        fact = normalize_product(factors)
        direct = brute_force_product(factors)
        scale = np.abs(direct).max()
        assert np.abs(fact.reconstruct() - direct).max() <= 1e-12 * scale


@st.composite
def product_cases(draw):
    """Up to five sparse non-negative m x m factors, m <= 7, each with tilt vectors."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 5))
    entries = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
    factors = []
    for _ in range(n):
        A = draw(hnp.arrays(np.float64, (m, m), elements=entries))
        A[A.max(axis=1) == 0.0, 0] = 1.0
        factors.append((A, draw(hnp.arrays(np.float64, m, elements=st.floats(0.01, 100.0)))))
    return factors


@settings(derandomize=True, deadline=None, max_examples=300)
@given(product_cases())
def test_normalize_product_reconstructs_direct_product(factors):
    # D(u) P with P stochastic is the product A_1 D(u_1) ... A_n D(u_n), entry by entry
    direct = brute_force_product(factors)
    rebuilt = normalize_product(factors).reconstruct()
    assert np.all(np.abs(rebuilt - direct) <= 1e-12 * direct)


def test_normalize_product_long_chain_stays_representable():
    # 300 factors would overflow the raw scale vector; the log carries it
    rng = np.random.default_rng(6)
    A = random_nonneg(rng, 3, 3)
    factors = [(A, rng.uniform(0.5, 2.0, size=3)) for _ in range(300)]
    fact = normalize_product(factors)
    assert np.isfinite(fact.log_scale)
    assert fact.scale.max() == 1.0 and fact.scale.min() > 0.0
    assert np.abs(fact.kernel.matrix.sum(axis=1) - 1.0).max() < 1e-9


def test_normalize_product_input_errors():
    with pytest.raises(DimensionError):
        normalize_product([])
    with pytest.raises(NotSquareError):
        normalize_product([(np.ones((2, 3)), np.ones(3))])
    with pytest.raises(DimensionError):
        normalize_product([(np.eye(2), np.ones(2)), (np.eye(3), np.ones(3))])
    with pytest.raises(ZeroRowError):
        normalize_product([(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2))])
    first = (np.ones((2, 2)), np.ones(2))
    with pytest.raises(ZeroRowError):
        normalize_product([first, (np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2))])
    with pytest.raises(NegativeEntryError):
        normalize_product([first, (np.array([[1.0, -1e-6], [0.5, 0.5]]), np.ones(2))])
    with pytest.raises(DimensionError, match=r"^u_2 has length 3, expected 2$"):
        normalize_product([first, (np.ones((2, 2)), np.ones(3))])


def test_normalize_product_clamps_dust_in_later_factors():
    # Entries in [-tol, 0) count as zeros, in the kernel and in the scale alike
    rng = np.random.default_rng(8)
    clean = [(random_nonneg(rng, 4, 4), rng.uniform(0.5, 2.0, size=4)) for _ in range(3)]
    for a, _ in clean[1:]:
        a[0, 1] = a[2, 3] = 0.0
    dusty = [(a.copy(), u) for a, u in clean]
    for a, _ in dusty[1:]:
        a[0, 1] = a[2, 3] = -5e-10
    direct = brute_force_product(clean)
    rebuilt = normalize_product(dusty, tol=1e-9).reconstruct()
    assert np.all(np.abs(rebuilt - direct) <= 1e-12 * direct)


def test_normalize_product_accepts_certified_factors():
    P = validate_stochastic([[0.5, 0.5], [0.25, 0.75]])
    factors = [(P, [1.0, 2.0]), (P, [3.0, 1.0])]
    fact = normalize_product(factors)
    raw = normalize_product([(P.matrix, u) for _, u in factors])
    assert np.array_equal(fact.kernel.matrix, raw.kernel.matrix)
    assert np.array_equal(fact.scale, raw.scale) and fact.log_scale == raw.log_scale
    direct = brute_force_product([(P.matrix, u) for _, u in factors])
    assert np.all(np.abs(fact.reconstruct() - direct) <= 1e-12 * direct)


# ---------------------------------------------------------------- tilt_detect


def test_tilt_detect_recovers_example():
    found = tilt_detect(
        np.array([[1 / 3, 2 / 3], [1 / 3, 2 / 3]]),
        np.array([[0.5, 0.5], [0.5, 0.5]]),
    )
    assert found.found and found.reason == "ok"
    assert np.abs(found.factor - [0.5, 1.0]).max() < 1e-12


def test_tilt_detect_identity_gives_ones():
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    found = tilt_detect(P, P)
    assert found.found
    assert np.abs(found.factor - 1.0).max() < 1e-15


def test_tilt_detect_rejects_full_rank_ratio():
    found = tilt_detect(
        np.array([[0.9, 0.1], [0.2, 0.8]]),
        np.array([[0.5, 0.5], [0.5, 0.5]]),
    )
    assert not found.found
    assert found.reason == "not-rank-1"


def test_tilt_detect_pattern_mismatch():
    with pytest.raises(PatternMismatchError):
        tilt_detect(
            np.array([[1.0, 0.0], [0.5, 0.5]]),
            np.array([[0.5, 0.5], [0.5, 0.5]]),
        )


def test_tilt_detect_dust_against_a_structural_zero_is_a_pattern_mismatch():
    # Patterns are compared exactly: a positive entry far below the relative
    # cut of zero_pattern still differs from an exact zero.
    with pytest.raises(PatternMismatchError):
        tilt_detect(
            np.array([[0.25, 0.75], [1e-16, 1.0]]),
            np.array([[0.5, 0.5], [0.0, 1.0]]),
        )


def test_tilt_detect_disconnected_support():
    # diagonal support never pins the second column offset
    found = tilt_detect(np.eye(2), np.eye(2))
    assert not found.found
    assert found.reason == "support-disconnected"


def test_tilt_detect_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(30):
        m = int(rng.integers(2, 8))
        P = rng.uniform(0.05, 1.0, size=(m, m))
        P /= P.sum(axis=1, keepdims=True)
        u = rng.uniform(0.1, 10.0, size=m)
        tilted = tilt(P, u)
        found = tilt_detect(tilted, validate_stochastic(P))
        assert found.found
        expected = u / u.max()
        assert np.abs(found.factor / expected - 1.0).max() < 1e-10
        back = tilt(P, found.factor)
        assert np.abs(back.matrix - tilted.matrix).max() < 1e-9


@pytest.mark.parametrize(
    "P1, error, message",
    [
        ([[1.5, -0.5], [0.5, 0.5]], NegativeEntryError, r"^entry \(0,1\) = -0\.5 is below -tol$"),
        ([[2.0, 0.0], [0.5, 0.5]], RowSumError, r"^row 0 sums to 2\.0, off by more than "),
    ],
    ids=["negative-entry", "row-sum"],
)
def test_tilt_detect_certifies_P1(P1, error, message):
    # A P1 that is not stochastic is a domain error, not an outcome of the search.
    with pytest.raises(error, match=message):
        tilt_detect(P1, [[1.0, 0.0], [0.5, 0.5]])


def test_tilt_detect_shape_mismatch():
    with pytest.raises(DimensionError):
        tilt_detect(np.ones((1, 2)) / 2.0, np.ones((2, 2)) / 2.0)


@pytest.mark.parametrize("m", [2, 5, 16, 33, 64])
@pytest.mark.parametrize("sparsity", [0.0, 0.8])
def test_tilt_detect_recovers_u_dense_and_sparse(m, sparsity):
    rng = np.random.default_rng(m)
    for seed in range(4):
        P = random_reversible(m, seed, sparsity).kernel
        u = rng.uniform(0.1, 10.0, size=m)
        found = tilt_detect(tilt(P, u), P)
        assert found.reason == "ok"
        assert np.abs(found.factor - u / u.max()).max() <= 1e-12


@st.composite
def spread_tilts(draw):
    """A random reversible kernel, dense or sparse, and a tilt with ``log10 u`` in ``[-d, d]``."""
    m = draw(st.integers(2, 8))
    sparsity = draw(st.sampled_from([0.0, 0.5]))
    P = random_reversible(m, draw(st.integers(0, 2**16)), sparsity).kernel
    d = draw(st.sampled_from([1.0, 7.0, 15.0, 50.0, 100.0]))
    return P, 10.0 ** draw(hnp.arrays(np.float64, m, elements=st.floats(-d, d)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(spread_tilts())
def test_tilt_detect_inverts_tilt_at_any_spread(case):
    # Exact zero patterns survive a tilt until an entry underflows, whatever
    # the spread; a tilt whose pattern changed is skipped.  The factor's log
    # is a sum of logs of entries down to 1e-200 along at most 2m support
    # edges, so it is compared with log(u / max u) within 1e-11 absolute.
    P, u = case
    tilted = tilt(P, u)
    assume(np.array_equal(tilted.matrix > 0.0, P.matrix > 0.0))
    found = tilt_detect(tilted, P)
    assert found.reason == "ok"
    assert np.abs(np.log(found.factor) - np.log(u / u.max())).max() <= 1e-11


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the irreducibility gate cuts entries below 1e-14 of the largest; exact "
    "support must follow GTH as the primary solver (ROADMAP item 2)",
)
def test_tilt_keeps_irreducibility_below_the_relative_cut():
    assert is_irreducible(tilt([[0.9, 0.1], [0.2, 0.8]], [1.0, 1e14]))


# ---------------------------------------------------------------- stacks


def reference_bfs_levels(adj):
    """Breadth-first levels from state 0 of one boolean adjacency matrix, with a queue."""
    level = [-1] * len(adj)
    level[0] = 0
    queue = [0]
    for i in queue:
        for j in np.flatnonzero(adj[i]):
            if level[j] < 0:
                level[j] = level[i] + 1
                queue.append(int(j))
    return level


@pytest.mark.parametrize("density", [1.0, 0.5, 0.15, 0.0])
@pytest.mark.parametrize("m", [1, 2, 5, 9])
def test_bfs_levels_match_reference_on_stacks(m, density):
    # dense stacks are reached in one level; sparse ones mix reached and unreached states
    rng = np.random.default_rng(100 * m + int(100 * density))
    adj = rng.uniform(size=(3, 7, m, m)) < density
    levels = core._bfs_levels(adj)
    assert levels.shape == (3, 7, m)
    for idx in np.ndindex(3, 7):
        assert levels[idx].tolist() == reference_bfs_levels(adj[idx])
        assert levels[idx].tolist() == core._bfs_levels(adj[idx]).tolist()
    if density == 0.0 and m > 1:
        assert (levels[..., 1:] == -1).all()


@pytest.mark.parametrize("m", [1, 2, 5, 9])
def test_stack_kernels_match_single_matrix(m):
    rng = np.random.default_rng(m)
    stack = np.stack([random_nonneg(rng, m, m, zero_frac=0.6) for _ in range(8)])
    stack[0] = np.eye(m)
    stack /= stack.sum(axis=-1, keepdims=True)
    # dust below zero on some rows exercises the clamp
    stack[::3, :, 0] -= 1e-12 * (stack[::3, :, 0] == 0.0)
    certified = validation._certify(stack, 1e-9)
    connected = core._strongly_connected(stack)
    for arr, cert, conn in zip(stack, certified, connected):
        assert np.array_equal(cert, validate_stochastic(arr).matrix)
        assert conn == is_irreducible(arr)
    assert connected[0] == (m == 1) and connected[1:].any()
    us = rng.uniform(0.5, 2.0, size=(len(stack), m))
    tilts = core._tilt(certified, us)
    for arr, u, tilted in zip(certified, us, tilts):
        assert np.array_equal(tilted, tilt(arr, u).matrix)


def test_certify_stack_errors_locate_within_matrix():
    stack = np.stack([np.eye(3), np.eye(3)])
    stack[1, 2, 0] = 0.5
    with pytest.raises(RowSumError, match=r"^row 2 sums to 1\.5, "):
        validation._certify(stack, 1e-9)
    stack[1, 2, 0] = -0.5
    with pytest.raises(NegativeEntryError, match=r"^entry \(2,0\) = -0\.5 is below -tol$"):
        validation._certify(stack, 1e-9)
    stack[1, 2, 0] = np.nan
    with pytest.raises(NonFiniteError):
        validation._certify(stack, 1e-9)


def reference_strongly_connected(adj):
    """Strong connectivity of one boolean adjacency matrix by Warshall's transitive closure."""
    reach = adj | np.eye(len(adj), dtype=bool)
    for k in range(len(adj)):
        reach |= reach[:, k, None] & reach[None, k, :]
    return bool(reach.all())


def mixed_support_stack(rng, m, count):
    """Matrices of four kinds in turn: star-supported, cycle-only, source and sink.

    A star matrix has support to and from state 0 everywhere.  A cycle-only
    matrix joins all states in one random cycle and has ``[0, 0] == 0``, so
    state 0 never certifies it in one step.  For m > 1 a source matrix has
    support from state 0 to every state but no edge out of a random set of
    states without 0, so it is reducible; a sink matrix is a source's
    transpose.
    """
    extra = rng.uniform(size=(count, m, m)) < 0.3
    stack = np.where(extra, rng.uniform(0.5, 1.5, (count, m, m)), 0.0)
    kinds = [("star", "cycle", "source", "sink")[c % (4 if m > 1 else 2)] for c in range(count)]
    for c, kind in enumerate(kinds):
        if kind == "star":
            stack[c, 0] = stack[c, :, 0] = rng.uniform(0.5, 1.5, m)
        elif kind == "cycle":
            order = rng.permutation(m)
            stack[c, order, np.roll(order, -1)] = rng.uniform(0.5, 1.5, m)
            stack[c, 0, 0] = 0.0
        else:
            stack[c, 0] = rng.uniform(0.5, 1.5, m)
            closed = 1 + rng.permutation(m - 1)[: rng.integers(1, m)]
            others = np.setdiff1d(np.arange(m), closed)
            stack[c][np.ix_(closed, others)] = 0.0
            if kind == "sink":
                stack[c] = stack[c].T
    return stack, np.array(kinds)


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_strongly_connected_matches_transitive_closure(m, monkeypatch):
    rng = np.random.default_rng(600 + m)
    stack, kinds = mixed_support_stack(rng, m, 24)
    expected = [reference_strongly_connected(arr > 0.0) for arr in stack]
    connected = np.isin(kinds, ["star", "cycle"])
    assert np.array_equal(expected, connected)
    searched = []
    bfs = core._bfs_levels

    def spy(adj):
        searched.append(adj.shape)
        return bfs(adj)

    monkeypatch.setattr(core, "_bfs_levels", spy)
    assert core._strongly_connected(stack).tolist() == expected
    grid = core._strongly_connected(stack.reshape(4, 6, m, m))
    assert grid.tolist() == np.reshape(expected, (4, 6)).tolist()
    assert [bool(core._strongly_connected(arr)) for arr in stack] == expected
    # Only the matrices without the one-step certificate were searched.
    uncertified = int((kinds != "star").sum())
    assert searched[:2] == [(2, uncertified, m, m)] * 2
    searched.clear()
    assert core._strongly_connected(stack[kinds == "star"]).all()
    assert searched == []
