"""The numpy facts the lock-step engines rest on: each form below gives a
member the same bits stacked with others as it gets alone.  The lone side of
each check is the call a lone trajectory makes; the stacked side is the call
`simulate.simulate_ensemble` and the lock-step pilots make.  A numpy or BLAS
upgrade that breaks one of them fails here by name.  The forms:

- the zero-masked X'X and X'y (`estimators.masked_sums`);
- last-axis sums: y'y and the residual sum of squares (`masked_rss`);
- contexts times a vector, shared or one per member and arm;
- the UCB and Thompson widths x'mx (`policies._quadratic_forms`);
- small matrix-vector products, dot products and quadratic forms;
- eigenvalues (`linalg.eigvalsh`) and Cholesky solves (`linalg.solve_spd`).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from banditstop import linalg
from banditstop.estimators import _dot, _mv, _quad, masked_rss, masked_sums
from banditstop.policies import _quadratic_forms

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
@given(batches(), st.integers(0, 2**32 - 1))
def test_quadratic_forms(case, seed):
    x, _, _, _ = case
    members, dim = x.shape[0], x.shape[-1]
    a = np.random.default_rng(seed).normal(size=(members, 2, dim, dim))
    inv = a @ np.swapaxes(a, -1, -2)
    # Member views of each arm, as UCB passes them, and the arms' sum, as Thompson does.
    for m in (inv[:, 0], inv[:, 1], inv[:, 0] + inv[:, 1]):
        forms = _quadratic_forms(x, m)
        terms = x[..., :, None] * m[:, None] * x[..., None, :]
        tol = 8 * dim**2 * np.finfo(float).eps * np.abs(terms).sum(axis=(-2, -1))
        assert np.all(np.abs(forms - terms.sum(axis=(-2, -1))) <= tol)
        for r in range(members):
            assert np.array_equal(forms[r], _quadratic_forms(x[r], m[r]))


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


@st.composite
def spd_stacks(draw):
    """Stacks (R, 2, d, d) of Grams at scales 1e-8 to 1e8, the singular ones
    replaced by the identity as the engines replace them, with right-hand
    sides (R, 2, d)."""
    members = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, 2 * dim + 2, size=(members, 2, 1, 1))
    x = rng.normal(size=(members, 2, 2 * dim + 1, dim)) * (np.arange(2 * dim + 1)[:, None] < rows)
    gram = (np.swapaxes(x, -1, -2) @ x) * 10.0 ** rng.integers(-8, 9, size=(members, 2, 1, 1))
    gram = np.where(linalg.is_invertible_gram(gram)[..., None, None], gram, np.eye(dim))
    return gram, rng.normal(size=(members, 2, dim))


@SETTINGS
@given(spd_stacks())
def test_stacked_cholesky_equals_lone(case):
    gram, rhs = case
    solved, inv = linalg.solve_spd(gram, rhs), linalg.inverse_spd(gram)
    for r, a in each(len(gram)):
        assert np.array_equal(solved[r, a], linalg.solve_spd(gram[r, a], rhs[r, a]))
        assert np.array_equal(inv[r, a], linalg.inverse_spd(gram[r, a]))
