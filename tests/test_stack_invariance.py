"""The numpy facts the lock-step engines rest on: each form below gives a
member the same bits stacked with others as it gets alone.  The lone side of
each check is the call a lone trajectory makes; the stacked side is the call
`simulate.simulate_ensemble` and the lock-step pilots make.  A numpy or BLAS
upgrade that breaks one of them fails here by name."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from banditstop import linalg
from banditstop.estimators import _dot, _mv, _quad, masked_rss, masked_sums

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def batches(draw):
    """Stacked batches (R, n, d) with per-member arm masks (R, 2, n)."""
    members = draw(st.integers(1, 40))
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 20, 100, 400]))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1.0, 1.0, size=(members, n, dim))
    y = rng.normal(size=(members, n))
    arm1 = rng.random((members, n)) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    w = np.stack([~arm1, arm1], axis=1).astype(float)
    beta = rng.normal(size=(members, 2, dim))
    return x, y, w, beta


@st.composite
def matrices(draw):
    """Stacks (R, 2, d, d) of symmetric matrices and vectors (R, 2, d)."""
    members = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(members, 2, dim, dim)) * 10.0 ** rng.integers(-4, 5, size=(members, 2, 1, 1))
    return a @ np.swapaxes(a, -1, -2), rng.normal(size=(members, 2, dim)), rng.normal(size=(members, 2, dim))


def each(members):
    return ((r, a) for r in range(members) for a in (0, 1))


@SETTINGS
@given(batches())
def test_masked_grams_and_moments(case):
    x, y, w, _ = case
    gram, moment, _ = masked_sums(x[:, None], y[:, None], w)
    for r, a in each(len(x)):
        xm = x[r] * w[r, a][:, None]
        assert np.array_equal(gram[r, a], xm.T @ x[r])
        assert np.array_equal(moment[r, a], xm.T @ y[r])
        assert np.array_equal(masked_sums(x[r], y[r], w[r, a])[1], xm.T @ y[r])


@SETTINGS
@given(batches())
def test_last_axis_reductions(case):
    x, y, w, beta = case
    _, _, sum_sq = masked_sums(x[:, None], y[:, None], w)
    rss = masked_rss(x[:, None], y[:, None], w, beta)
    for r, a in each(len(x)):
        assert sum_sq[r, a] == masked_sums(x[r], y[r], w[r, a])[2]
        assert rss[r, a] == masked_rss(x[r], y[r], w[r, a], beta[r, a])


@SETTINGS
@given(batches())
def test_contexts_times_a_vector(case):
    x, _, _, beta = case
    shared = x @ beta[0, 0]
    own = (x[:, None] @ beta[..., None])[..., 0]
    for r, a in each(len(x)):
        assert np.array_equal(shared[r], x[r] @ beta[0, 0])
        assert np.array_equal(own[r, a], x[r] @ beta[r, a])


@SETTINGS
@given(matrices())
def test_matrix_vector_products(case):
    g, u, v = case
    mv, dot, quad = _mv(g, u), _dot(u, v), _quad(u, g)
    for r, a in each(len(g)):
        assert np.array_equal(mv[r, a], g[r, a] @ u[r, a])
        assert dot[r, a] == u[r, a] @ v[r, a]
        assert quad[r, a] == u[r, a] @ g[r, a] @ u[r, a]


@SETTINGS
@given(matrices())
def test_stacked_eigvalsh_equals_dsyevd(case):
    g, _, _ = case
    eigs = np.linalg.eigvalsh(g)
    for r, a in each(len(g)):
        assert np.array_equal(eigs[r, a], linalg.eigvalsh(g[r, a]))
