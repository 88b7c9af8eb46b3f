"""The kernels in `banditstop.linalg` against the library calls they stand
for: `eigvalsh` against numpy's, bit for bit, on small Grams, singular,
badly scaled and non-finite ones included; the Cholesky kernel against scipy's
`cho_factor`/`cho_solve`, within a condition-scaled tolerance, and with
LAPACK's error where the matrix is not positive definite; and the stacked
singularity check against the per-matrix one."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from banditstop import linalg
from banditstop.estimators import StackedSums


@st.composite
def grams(draw, dims=st.integers(1, 3)):
    dim = draw(dims)
    kind = draw(st.sampled_from(["design", "rank_deficient", "duplicate_rows", "zero", "inverse"]))
    scale = draw(st.sampled_from([1e-8, 1e-4, 1.0, 1e4, 1e8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(0, 12))
    if kind == "design":
        x = rng.normal(size=(rows, dim))
    elif kind == "rank_deficient":
        rank = draw(st.integers(0, dim - 1))
        x = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, dim))
    elif kind == "duplicate_rows":
        distinct = rng.normal(size=(draw(st.integers(1, 4)), dim))
        x = distinct[rng.integers(0, distinct.shape[0], size=rows)]
    elif kind == "zero":
        x = np.zeros((rows, dim))
    else:
        x = rng.normal(size=(rows + dim, dim))
    gram = x.T @ x
    if kind == "inverse":
        inv = np.linalg.inv(gram)
        gram = 0.5 * (inv + inv.T)
    return scale * gram, rng.normal(size=dim)


def reference_cholesky(matrix):
    try:
        return scipy.linalg.cho_factor(matrix, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        return exc


def assert_close_to_solution(got, want, gram):
    """Both solves are backward stable, so each is within a few units of
    d * cond * eps of the exact solution, relative to its norm."""
    tol = 8 * gram.shape[0] * np.linalg.cond(gram) * np.finfo(float).eps
    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(grams())
def test_kernels_equal_library_calls(case):
    gram, rhs = case
    eigs = np.linalg.eigvalsh(gram)
    assert np.array_equal(linalg.eigvalsh(gram), eigs)
    invertible = linalg.is_invertible_gram(gram)
    assert invertible == bool(eigs[0] > linalg.GRAM_SINGULARITY_RTOL * max(eigs[-1], 1.0))
    if not invertible:
        # The package solves only Grams that pass the check; below it, rounding
        # decides whether a pivot comes out > 0, differently in each kernel.
        return
    cho = reference_cholesky(gram)
    assert_close_to_solution(linalg.solve_spd(gram, rhs), scipy.linalg.cho_solve(cho, rhs), gram)
    inv = scipy.linalg.cho_solve(cho, np.eye(gram.shape[0]))
    assert_close_to_solution(linalg.inverse_spd(gram), 0.5 * (inv + inv.T), gram)


@st.composite
def not_positive_definite(draw):
    """L D L' with unit lower L and a diagonal D whose entries are positive
    before the k-th, which is negative, or a k-th row and column of zeros:
    the k-th pivot is not > 0 whatever the rounding."""
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(1, dim))
    scale = draw(st.sampled_from([1e-8, 1.0, 1e8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lower = np.tril(rng.uniform(-1.0, 1.0, size=(dim, dim)), -1) + np.eye(dim)
    d = rng.uniform(0.5, 2.0, size=dim)
    d[k - 1] = -d[k - 1]
    m = scale * (lower * d) @ lower.T
    if draw(st.booleans()):
        m[k - 1, :] = m[:, k - 1] = 0.0
    return k, m


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(not_positive_definite())
def test_not_positive_definite_raises_lapacks_error(case):
    k, m = case
    cho = reference_cholesky(m)
    assert isinstance(cho, np.linalg.LinAlgError)
    assert str(cho) == f"{k}-th leading minor of the array is not positive definite"
    stack = np.stack([np.eye(m.shape[0]), m])
    for call in (
        lambda: linalg.solve_spd(m, np.ones(m.shape[0])),
        lambda: linalg.inverse_spd(m),
        lambda: linalg.solve_spd(stack, np.ones(stack.shape[:-1])),
        lambda: linalg.inverse_spd(stack),
    ):
        with pytest.raises(np.linalg.LinAlgError) as raised:
            call()
        assert str(raised.value) == str(cho)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(grams(st.just(d)), min_size=1, max_size=8)))
def test_stacked_singularity_checks_equal_per_matrix(cases):
    stack = np.stack([gram for gram, _ in cases])
    assert np.array_equal(
        np.linalg.eigvalsh(stack), np.stack([linalg.eigvalsh(gram) for gram in stack])
    )
    assert linalg.is_invertible_gram(stack).tolist() == [
        linalg.is_invertible_gram(gram) for gram in stack
    ]


# The strategy draws finite Grams only.
@pytest.mark.parametrize(
    "gram",
    [
        [[np.nan, 0.0], [0.0, 1.0]],  # eigenvalues [0, -0]: no NaN, yet singular
        [[1.0, np.nan], [np.nan, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[-np.inf, 0.0], [0.0, 1.0]],
        [[1.0, np.inf], [np.inf, 1.0]],
        [[2.0, 0.0, 0.0], [0.0, 1.0, -np.inf], [0.0, -np.inf, 1.0]],
    ],
)
def test_non_finite_grams_are_singular(gram):
    gram = np.array(gram)
    assert np.array_equal(linalg.eigvalsh(gram), np.linalg.eigvalsh(gram), equal_nan=True)
    assert not linalg.is_invertible_gram(gram)
    assert linalg.is_invertible_gram(np.stack([np.eye(len(gram)), gram])).tolist() == [True, False]


def test_zero_gram_fails_at_the_first_minor():
    with pytest.raises(np.linalg.LinAlgError, match="^1-th leading minor"):
        linalg.solve_spd(np.zeros((2, 2)), np.ones(2))


def test_nan_pivot_fails():
    # Reference LAPACK's dpotrf2 fails a NaN pivot; OpenBLAS's potrf lets it through.
    m = np.array([[4.0, 1.0], [1.0, np.nan]])
    for call in (lambda: linalg.solve_spd(m, np.ones(2)), lambda: linalg.inverse_spd(m[None])):
        with pytest.raises(np.linalg.LinAlgError, match="^2-th leading minor"):
            call()


def spd_stack(members, dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(members, 2, dim + 3, dim))
    return np.swapaxes(x, -1, -2) @ x, rng.normal(size=(members, 2, dim))


def assert_stacked_equals_lone(matrix, rhs):
    # The stacked kernel against the 2-d float path, member by member, bit for bit.
    solved, inv = linalg.solve_spd(matrix, rhs), linalg.inverse_spd(matrix)
    rhs = np.broadcast_to(rhs, solved.shape)
    assert inv.shape == matrix.shape
    for idx in np.ndindex(matrix.shape[:-2]):
        assert solved[idx].tobytes() == linalg.solve_spd(matrix[idx], rhs[idx]).tobytes()
        assert inv[idx].tobytes() == linalg.inverse_spd(matrix[idx]).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("members", [1, 2, 3])
def test_stacks_of_a_few_equal_the_float_path(members, dim):
    assert_stacked_equals_lone(*spd_stack(members, dim, seed=10 * members + dim))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_non_contiguous_stacks_equal_the_float_path(dim):
    gram, rhs = spd_stack(6, dim, seed=dim)
    assert not gram[::2].flags.c_contiguous
    assert_stacked_equals_lone(gram[::2], rhs[::2])
    assert_stacked_equals_lone(np.swapaxes(gram, -1, -2), rhs[..., ::-1])  # a transposed view
    sums = StackedSums.empty(6, dim)
    sums.gram, sums.weighted = gram, rhs
    kept = sums.take(np.array([True, False, True, True, False, True]))
    assert_stacked_equals_lone(kept.gram, kept.weighted)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_broadcast_rhs_equals_the_float_path(dim):
    gram, rhs = spd_stack(3, dim, seed=dim + 20)
    for shared in (rhs[0, 0], rhs[0], rhs[:, :1]):  # (d,), (2, d), (R, 1, d)
        assert linalg.solve_spd(gram, shared).shape == gram.shape[:-1]
        assert_stacked_equals_lone(gram, shared)


def test_a_stack_fails_at_its_first_failing_pivot():
    # The stacked kernel checks each pivot over the whole stack before the
    # next, so a later member failing at pivot 1 is reported before an
    # earlier one failing at pivot 2.
    second = np.array([[1.0, 2.0], [2.0, 1.0]])  # pivots 1, then 1 - 4
    first = np.array([[-1.0, 0.0], [0.0, 1.0]])
    cases = ((np.stack([second, np.eye(2)]), 2), (np.stack([second, first]), 1), (np.stack([first, second]), 1))
    for stack, k in cases:
        for call in (lambda: linalg.solve_spd(stack, np.ones(2)), lambda: linalg.inverse_spd(stack)):
            with pytest.raises(np.linalg.LinAlgError) as raised:
                call()
            assert str(raised.value) == f"{k}-th leading minor of the array is not positive definite"
