"""The helpers in `banditstop.linalg` against the library calls they stand
for: `eigvalsh` against numpy's, bit for bit, on small Grams, singular,
badly scaled and non-finite ones included; the solves against scipy's
`cho_factor`/`cho_solve`, within a condition-scaled tolerance, and with
LinAlgError on a zero Gram or a NaN entry, alone or in a stack; a stacked
solve against lone ones, bit for bit; and the stacked singularity check
against the per-matrix one."""

import contextlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from banditstop import linalg
from banditstop.estimators import RunningSums


# linalg calls these private gufuncs of numpy directly; each must keep its
# name, its signature and its float64 loop.
GUFUNCS = {
    "eigvalsh_lo": ("(m,m)->(m)", "d->d"),
    "solve1": ("(m,m),(m)->(m)", "dd->d"),
    "inv": ("(m, m)->(m, m)", "d->d"),
}


@pytest.mark.parametrize("name", GUFUNCS)
def test_numpys_private_gufuncs_are_there(name):
    from numpy.linalg import _umath_linalg

    signature, loop = GUFUNCS[name]
    gufunc = getattr(_umath_linalg, name, None)
    found = None if gufunc is None else (gufunc.signature, gufunc.types)
    assert found is not None and found[0] == signature and loop in found[1], (
        f"numpy {np.__version__}: numpy.linalg._umath_linalg.{name} is {found}, "
        f"linalg needs signature {signature} with a {loop} loop"
    )


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
        # decides whether the LU solve or the reference Cholesky factor
        # succeeds at all, and the condition-scaled tolerance bounds nothing.
        return
    cho = reference_cholesky(gram)
    assert_close_to_solution(linalg.solve_spd(gram, rhs), scipy.linalg.cho_solve(cho, rhs), gram)
    inv = scipy.linalg.cho_solve(cho, np.eye(gram.shape[0]))
    assert_close_to_solution(linalg.inverse_spd(gram), 0.5 * (inv + inv.T), gram)


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


# A zero Gram fails LAPACK's LU, and numpy warns of the invalid value before
# the solve raises; a NaN entry leaves NaN in the solution without a warning.
SINGULAR = [
    pytest.param(np.zeros((2, 2)), True, id="zero"),
    pytest.param(np.array([[np.nan, 1.0], [1.0, 4.0]]), False, id="nan_first_pivot"),
    pytest.param(np.array([[4.0, np.nan], [np.nan, 1.0]]), False, id="nan_off_diagonal"),
    pytest.param(np.array([[4.0, 1.0], [1.0, np.nan]]), False, id="nan_last_pivot"),
]


@pytest.mark.parametrize("position", ["alone", "first", "middle", "last"])
@pytest.mark.parametrize("matrix, warns", SINGULAR)
def test_a_singular_matrix_raises_alone_or_in_a_stack(matrix, warns, position):
    if position != "alone":
        stack = [np.eye(2)] * 3
        stack[["first", "middle", "last"].index(position)] = matrix
        matrix = np.stack(stack)
    rhs = np.ones(matrix.shape[:-1])
    for call in (lambda: linalg.solve_spd(matrix, rhs), lambda: linalg.inverse_spd(matrix)):
        with pytest.warns(RuntimeWarning, match="invalid value") if warns else contextlib.nullcontext():
            with pytest.raises(np.linalg.LinAlgError):
                call()


def spd_stack(members, dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(members, 2, dim + 3, dim))
    return np.swapaxes(x, -1, -2) @ x, rng.normal(size=(members, 2, dim))


def assert_stacked_equals_lone(matrix, rhs):
    # A stacked call against lone calls, member by member, bit for bit.
    solved, inv = linalg.solve_spd(matrix, rhs), linalg.inverse_spd(matrix)
    rhs = np.broadcast_to(rhs, solved.shape)
    assert inv.shape == matrix.shape
    for idx in np.ndindex(matrix.shape[:-2]):
        assert solved[idx].tobytes() == linalg.solve_spd(matrix[idx], rhs[idx]).tobytes()
        assert inv[idx].tobytes() == linalg.inverse_spd(matrix[idx]).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("members", [1, 2, 3])
def test_stacks_of_a_few_equal_lone_calls(members, dim):
    assert_stacked_equals_lone(*spd_stack(members, dim, seed=10 * members + dim))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_non_contiguous_stacks_equal_lone_calls(dim):
    gram, rhs = spd_stack(6, dim, seed=dim)
    assert not gram[::2].flags.c_contiguous
    assert_stacked_equals_lone(gram[::2], rhs[::2])
    assert_stacked_equals_lone(np.swapaxes(gram, -1, -2), rhs[..., ::-1])  # a transposed view
    sums = RunningSums.empty(dim, members=6)
    sums.gram, sums.weighted = gram, rhs
    kept = sums.take(np.array([True, False, True, True, False, True]))
    assert_stacked_equals_lone(kept.gram, kept.weighted)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_broadcast_rhs_equals_lone_calls(dim):
    gram, rhs = spd_stack(3, dim, seed=dim + 20)
    for shared in (rhs[0, 0], rhs[0], rhs[:, :1]):  # (d,), (2, d), (R, 1, d)
        assert linalg.solve_spd(gram, shared).shape == gram.shape[:-1]
        assert_stacked_equals_lone(gram, shared)
