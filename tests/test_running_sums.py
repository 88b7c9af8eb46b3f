"""The running sums (combined estimator and policy inputs) against the
from-scratch oracle, over random batch sequences: dimensions 1-3, arms with
fewer units than the dimension, and collinear batches, so that per-arm Grams
are often singular."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ivw_oracle
from banditstop import (
    EstimatorUnavailable,
    KnownSigma,
    ResidualSigma,
    RunningSums,
    fit_batch_ols,
    ivw_combine,
    residual_noise_factors,
    update_state,
)

RTOL = 1e-10


@st.composite
def batch_sequences(draw):
    dim = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    signal = draw(st.sampled_from([0.0, 1.0, 100.0]))  # large signal: residual sums must not cancel
    noise = draw(st.floats(0.5, 2.0))
    layouts = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.booleans()),
            min_size=1,
            max_size=8,
        )
    )
    rng = np.random.default_rng(seed)
    betas = signal * rng.normal(size=(2, dim))
    batches = []
    for n0, n1, collinear in layouts:
        actions = rng.permutation(np.repeat([0, 1], [n0, n1]))
        x = rng.uniform(-1.0, 1.0, size=(n0 + n1, dim))
        if collinear and dim > 1:
            x[:, -1] = x[:, 0]
        y = np.einsum("ij,ij->i", x, betas[actions]) + noise * rng.normal(size=n0 + n1)
        batches.append(ivw_oracle.BatchData(x, actions, y))
    probe = rng.normal(size=(2, dim))
    return dim, batches, probe


def outcome(fn, *args):
    try:
        return fn(*args)
    except EstimatorUnavailable as exc:
        return exc


def assert_same(got, want):
    if isinstance(want, EstimatorUnavailable):
        assert isinstance(got, EstimatorUnavailable) and str(got) == str(want)
        return
    assert not isinstance(got, EstimatorUnavailable), got
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=RTOL, atol=0.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(batch_sequences(), st.sampled_from([KnownSigma(1.3), ResidualSigma()]))
def test_running_sums_match_oracle(case, sigma_mode):
    dim, batches, probe = case
    sums = RunningSums.empty(dim)
    fits = []
    for t, batch in enumerate(batches, start=1):
        fit = fit_batch_ols(batch.contexts, batch.actions, batch.rewards, batch_index=t)
        fits.append(fit)
        update_state(sums, fit)
        assert len(sums) == t
        got = outcome(ivw_combine, sums, sigma_mode, 7)
        want = outcome(ivw_oracle.ivw_combine, fits, sigma_mode, 7, batches[:t])
        if not isinstance(want, EstimatorUnavailable):
            want = (want.beta0, want.beta1, want.var0, want.var1)
            assert got.batches_used == t
            got = (got.beta0, got.beta1, got.var0, got.var1)
        assert_same(got, want)
        for beta0, beta1 in ((probe[0], probe[1]), (-probe[1], 3.0 * probe[0])):
            assert_same(
                outcome(residual_noise_factors, sums, beta0, beta1),
                outcome(ivw_oracle.residual_noise_factors, batches[:t], beta0, beta1),
            )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(batch_sequences())
def test_policy_inputs_match_oracle_bitwise(case):
    # The policy reads X'X, X'y and the counts from the running sums; they
    # equal the raw per-unit sums, from zero in batch order, bit for bit.
    dim, batches, _ = case
    sums = RunningSums.empty(dim)
    for t, batch in enumerate(batches, start=1):
        update_state(sums, fit_batch_ols(batch.contexts, batch.actions, batch.rewards, batch_index=t))
        for arm, want in zip((sums.arm0, sums.arm1), ivw_oracle.policy_sums(batches[:t], dim)):
            assert np.array_equal(arm.xx, want.xx)
            assert np.array_equal(arm.xy, want.xy)
            assert arm.count == want.count
            got_est, want_est = arm.ols_estimate(), ivw_oracle.ols_estimate(want)
            assert (got_est is None) == (want_est is None)
            if want_est is not None:
                assert np.array_equal(got_est, want_est)


def test_single_usable_batch_is_a_bitwise_fixed_point():
    # Singular batches before and after the only usable one leave its
    # estimate untouched, bit for bit.
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, size=(6, 2))
    a = np.array([1, 0, 1, 0, 1, 0])
    y = rng.normal(size=6)
    usable = fit_batch_ols(x, a, y)
    sums = RunningSums.empty(2)
    for fit in (fit_batch_ols(x[:1], a[:1], y[:1]), usable, fit_batch_ols(x[1:3], a[1:3], y[1:3])):
        update_state(sums, fit)
    est = ivw_combine(sums, ResidualSigma(), 6)
    assert np.array_equal(est.beta0, usable.arm0.beta)
    assert np.array_equal(est.beta1, usable.arm1.beta)
