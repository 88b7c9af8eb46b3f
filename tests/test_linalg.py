"""The direct LAPACK kernels in `banditstop.linalg` against the library calls
they replace: numpy's `eigvalsh` and scipy's `cho_factor`/`cho_solve`,
compared bit for bit on small Grams, singular and badly scaled ones included;
and the stacked singularity check against the per-matrix one."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from banditstop import linalg


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


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(grams())
def test_kernels_equal_library_calls(case):
    gram, rhs = case
    eigs = np.linalg.eigvalsh(gram)
    assert np.array_equal(linalg.eigvalsh(gram), eigs)
    assert linalg.is_invertible_gram(gram) == bool(
        eigs[0] > linalg.GRAM_SINGULARITY_RTOL * max(eigs[-1], 1.0)
    )

    cho = reference_cholesky(gram)
    if isinstance(cho, np.linalg.LinAlgError):
        for call in (lambda: linalg.solve_spd(gram, rhs), lambda: linalg.inverse_spd(gram)):
            with pytest.raises(np.linalg.LinAlgError) as raised:
                call()
            assert str(raised.value) == str(cho)
        return
    want = scipy.linalg.cho_solve(cho, rhs, check_finite=False)
    assert np.array_equal(linalg.solve_spd(gram, rhs), want)
    inv = scipy.linalg.cho_solve(cho, np.eye(gram.shape[0]), check_finite=False)
    assert np.array_equal(linalg.inverse_spd(gram), 0.5 * (inv + inv.T))


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


def test_zero_gram_fails_at_the_first_minor():
    with pytest.raises(np.linalg.LinAlgError, match="^1-th leading minor"):
        linalg.solve_spd(np.zeros((2, 2)), np.ones(2))
