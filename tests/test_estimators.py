import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditstop import (
    ContractError,
    EpsGreedy,
    EstimatorUnavailable,
    KnownSigma,
    ResidualSigma,
    RunningSums,
    Schedule,
    TrueModel,
    constant_clip,
    fit_batch_ols,
    ivw_combine,
    limit_arm_second_moment,
    make_rng,
    realize_rewards,
    residual_noise_factors,
    sample_batch_contexts,
    select_actions,
    spectral_norm,
    uniform_cube_spec,
    update_state,
)
from banditstop.estimators import ArmFit
from banditstop.linalg import gram_check, inverse_spd
from ivw_oracle import of_arms, sums_of


def make_fit(gram1, beta1, gram0=None, beta0=None, count=5):
    """Scalar-friendly constructor for synthetic batch fits."""

    def arm(gram, beta):
        g = np.atleast_2d(np.asarray(gram, dtype=float))
        b = None if beta is None else np.atleast_1d(np.asarray(beta, dtype=float))
        moment = np.zeros(g.shape[0]) if b is None else g @ b
        return ArmFit(
            beta=b,
            gram=g,
            count=count,
            rss=0.0 if b is not None else None,
            moment=moment,
            sum_sq=0.0 if b is None else float(b @ moment),
        )

    gram0 = gram1 if gram0 is None else gram0
    beta0 = beta1 if beta0 is None else beta0
    return of_arms(arm(gram0, beta0), arm(gram1, beta1))


class TestFitBatchOls:
    def test_scalar_mean(self):
        fit = fit_batch_ols(np.array([[1.0], [1.0]]), np.array([1, 1]), np.array([2.0, 4.0]))
        assert fit.arm1.beta[0] == pytest.approx(3.0, abs=1e-12)
        assert fit.arm1.gram[0, 0] == 2.0
        assert fit.arm1.rss == pytest.approx(2.0, abs=1e-12)
        assert fit.arm0.beta is None and fit.arm0.count == 0

    def test_zero_noise_recovers_truth(self):
        rng = make_rng(0)
        model = TrueModel(beta0=[0.5, -1.0, 2.0], beta1=[1.0, 0.0, -0.5], sigma0=0.0, sigma1=0.0)
        x = sample_batch_contexts(uniform_cube_spec(3), 40, rng)
        a = (rng.random(40) < 0.5).astype(int)
        y = realize_rewards(model, x, a, rng)
        fit = fit_batch_ols(x, a, y)
        np.testing.assert_allclose(fit.arm0.beta, model.beta0, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(fit.arm1.beta, model.beta1, rtol=1e-9, atol=1e-9)

    def test_moment_identity(self):
        # gram @ beta reproduces the raw moment vector.
        rng = make_rng(1)
        x = rng.uniform(-1, 1, size=(25, 3))
        a = (rng.random(25) < 0.6).astype(int)
        y = rng.normal(size=25)
        fit = fit_batch_ols(x, a, y)
        for arm in (0, 1):
            mask = a == arm
            moment = x[mask].T @ y[mask]
            got = fit.arm(arm).gram @ fit.arm(arm).beta
            np.testing.assert_allclose(got, moment, rtol=1e-9, atol=1e-12)

    def test_singular_arm_reports_gram(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
        a = np.array([1, 1, 0])  # arm 1 design is rank 1, arm 0 has 1 point
        fit = fit_batch_ols(x, a, np.array([1.0, 2.0, 3.0]))
        assert fit.arm1.beta is None and fit.arm0.beta is None
        np.testing.assert_allclose(fit.arm1.gram, np.array([[2.0, 0.0], [0.0, 0.0]]))
        assert fit.arm1.count == 2


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, float])
@pytest.mark.parametrize("layout", ["mixed", "all_arm1", "all_arm0", "one_arm1"])
@pytest.mark.parametrize("noise", ["gaussian", "bounded_uniform"])
def test_bool_masks_act_as_the_same_actions_of_another_dtype(dtype, layout, noise):
    # `select_actions` hands out arm-1 masks; the same actions as 0/1 of any
    # dtype give the same reward draws and the same fits, bit for bit.
    n = 12
    model = TrueModel(beta0=[0.2, -0.1], beta1=[0.5, 0.3], sigma0=0.7, sigma1=1.3, noise=noise)
    x = sample_batch_contexts(uniform_cube_spec(2), n, make_rng(3))
    mask = {
        "mixed": make_rng(4).random(n) < 0.4,
        "all_arm1": np.ones(n, dtype=bool),
        "all_arm0": np.zeros(n, dtype=bool),
        "one_arm1": np.arange(n) == 5,
    }[layout]
    same = mask.astype(dtype)
    rng_mask, rng_same = make_rng(9), make_rng(9)
    y = realize_rewards(model, x, mask, rng_mask)
    assert y.tobytes() == realize_rewards(model, x, same, rng_same).tobytes()
    assert rng_mask.bit_generator.state == rng_same.bit_generator.state
    for residual in (True, False):
        got, want = fit_batch_ols(x, mask, y, residual=residual), fit_batch_ols(x, same, y, residual=residual)
        for a in (0, 1):
            g, w = got.arm(a), want.arm(a)
            assert type(g.count) is type(w.count) is int and g.count == w.count == np.count_nonzero(mask == a)
            for name in ("beta", "gram", "rss", "moment", "sum_sq"):
                u, v = getattr(g, name), getattr(w, name)
                assert (u is None) == (v is None), name
                assert u is None or np.asarray(u).tobytes() == np.asarray(v).tobytes(), name


@pytest.mark.parametrize("bad", [2, 0.5, -1, np.nan])
def test_non_binary_actions_raise(bad):
    model = TrueModel(beta0=[0.2, -0.1], beta1=[0.5, 0.3])
    x = sample_batch_contexts(uniform_cube_spec(2), 6, make_rng(0))
    actions = np.array([0, 1, 1, 0, 1, 0], dtype=float if isinstance(bad, float) else int)
    actions[2] = bad
    with pytest.raises(ContractError, match="binary"):
        realize_rewards(model, x, actions, make_rng(1))
    with pytest.raises(ContractError, match="binary"):
        fit_batch_ols(x, actions, np.zeros(6))


class TestIvwCombine:
    def test_single_batch_fixed_point(self):
        fit = fit_batch_ols(np.array([[1.0], [2.0]]), np.array([1, 1]), np.array([1.0, 3.0]))
        arm0 = ArmFit(
            beta=np.array([0.5]), gram=np.array([[4.0]]), count=2, rss=0.0,
            moment=np.array([2.0]), sum_sq=1.0,
        )
        fit = of_arms(arm0, fit.arm1)
        est = ivw_combine(sums_of([fit]), KnownSigma(1.0), batch_size=2)
        np.testing.assert_array_equal(est.beta1, fit.arm1.beta)
        np.testing.assert_array_equal(est.beta0, fit.arm0.beta)

    def test_equal_gram_two_batch_mean(self):
        rng = make_rng(2)
        gram = np.array([[2.0, 0.3], [0.3, 1.0]])
        b1, b2 = rng.normal(size=2), rng.normal(size=2)
        fits = [
            make_fit(gram, b1, gram, rng.normal(size=2)),
            make_fit(gram, b2, gram, rng.normal(size=2)),
        ]
        est = ivw_combine(sums_of(fits), KnownSigma(1.0), batch_size=3)
        np.testing.assert_allclose(est.beta1, (b1 + b2) / 2.0, rtol=1e-12, atol=1e-12)

    def test_scalar_weighted_average(self):
        fits = [make_fit(1.0, 2.0), make_fit(3.0, 4.0)]
        est = ivw_combine(sums_of(fits), KnownSigma(1.0), batch_size=1)
        assert est.beta1[0] == 3.5  # (1*2 + 3*4) / 4

    def test_identical_estimates_fixed_point(self):
        rng = make_rng(3)
        b = rng.normal(size=3)
        fits = []
        for _ in range(4):
            m = rng.uniform(-1, 1, size=(6, 3))
            fits.append(make_fit(m.T @ m + 0.5 * np.eye(3), b))
        est = ivw_combine(sums_of(fits), KnownSigma(1.0), batch_size=6)
        np.testing.assert_allclose(est.beta1, b, rtol=1e-12, atol=1e-13)

    def test_singular_batches_excluded(self):
        fits = [
            make_fit(1.0, 2.0),
            make_fit(np.array([[0.0]]), None),  # contributes nothing
            make_fit(3.0, 4.0),
        ]
        est = ivw_combine(sums_of(fits), KnownSigma(1.0), batch_size=1)
        assert est.beta1[0] == 3.5
        # variance uses the same contributing total Gram (1 + 3)
        assert est.var1[0, 0] == pytest.approx(1.0 / 4.0, rel=1e-12)

    def test_all_singular_unavailable(self):
        fits = [make_fit(np.array([[0.0]]), None)]
        with pytest.raises(EstimatorUnavailable):
            ivw_combine(sums_of(fits), KnownSigma(1.0), batch_size=1)

    def test_affine_equivariance(self):
        rng = make_rng(4)
        scale = 2.5
        x = rng.uniform(-1, 1, size=(30, 2))
        a = (rng.random(30) < 0.5).astype(int)
        y = rng.normal(size=30)
        fit = fit_batch_ols(x, a, y)
        fit_s = fit_batch_ols(x, a, scale * y)
        np.testing.assert_allclose(fit_s.arm1.beta, scale * fit.arm1.beta, rtol=1e-9)
        est = ivw_combine(sums_of([fit]), ResidualSigma(), batch_size=30)
        est_s = ivw_combine(sums_of([fit_s]), ResidualSigma(), batch_size=30)
        np.testing.assert_allclose(est_s.beta1, scale * est.beta1, rtol=1e-9)
        np.testing.assert_allclose(est_s.var1, scale**2 * est.var1, rtol=1e-9)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    dim=st.integers(1, 3),
    rows=st.integers(0, 9),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-4.0, 4.0),
    factor=st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
    batch_size=st.integers(1, 1000),
)
def test_variance_norm_is_batch_factor_over_smallest_eigenvalue(dim, rows, seed, log_scale, factor, batch_size):
    # ||n f G^{-1}||_2 = n f / lambda_min(G).  Both sides round: lambda_min is
    # exact to about eps * lambda_max and the inverse to eps * cond(G), so
    # the gap is bounded relative to eps * cond(G).  Over 1e5 random draws of
    # this kind the largest gap was 5.3 eps * cond(G) (7.6e-9 relative).
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(dim + rows, dim))
    gram = 10.0**log_scale * (x.T @ x)
    invertible, smallest = gram_check(gram)
    if not invertible:
        return
    got = batch_size * factor / smallest
    want = spectral_norm(batch_size * inverse_spd(gram) * factor)
    eps_cond = np.finfo(float).eps * np.linalg.cond(gram)
    assert abs(got - want) <= 32.0 * eps_cond * max(abs(got), abs(want))


class TestVarianceEstimators:
    def test_known_sigma_scalar(self):
        fits = [make_fit(5.0, 1.0)]
        v1 = ivw_combine(sums_of(fits), KnownSigma(np.sqrt(2.0)), batch_size=10).var1
        assert v1[0, 0] == pytest.approx(4.0, rel=1e-12)  # 10 * (1/5) * 2

    def test_known_sigma_identity_grams(self):
        t, n, d = 4, 6, 3
        fits = [make_fit(np.eye(d), np.zeros(d)) for _ in range(t)]
        v1 = ivw_combine(sums_of(fits), KnownSigma(1.5), batch_size=n).var1
        np.testing.assert_allclose(v1, (n / t) * 1.5**2 * np.eye(d), rtol=1e-12)

    def test_residual_zero_noise(self):
        rng = make_rng(5)
        model = TrueModel(beta0=[1.0, 0.0], beta1=[0.0, 1.0], sigma0=0.0, sigma1=0.0)
        x = sample_batch_contexts(uniform_cube_spec(2), 30, rng)
        a = (rng.random(30) < 0.5).astype(int)
        y = realize_rewards(model, x, a, rng)
        fit = fit_batch_ols(x, a, y)
        est = ivw_combine(sums_of([fit]), ResidualSigma(), batch_size=30)
        np.testing.assert_allclose(est.var1, 0.0, atol=1e-18)
        np.testing.assert_allclose(est.var0, 0.0, atol=1e-18)

    def _run_batches(self, model, t, n, seed):
        rng = make_rng(seed)
        spec = uniform_cube_spec(model.dim)
        fits = []
        for _ in range(t):
            x = sample_batch_contexts(spec, n, rng)
            a = (rng.random(n) < 0.5).astype(int)
            y = realize_rewards(model, x, a, rng)
            fits.append(fit_batch_ols(x, a, y))
        return sums_of(fits)

    def test_residual_matches_known_sigma(self):
        model = TrueModel(beta0=[0.5, -0.3], beta1=[0.2, 0.8], sigma0=1.0, sigma1=1.0)
        sums = self._run_batches(model, t=50, n=200, seed=6)
        known_est = ivw_combine(sums, KnownSigma(1.0), 200)
        known0, known1 = known_est.var0, known_est.var1
        est = ivw_combine(sums, ResidualSigma(), batch_size=200)
        for resid, known in ((est.var0, known0), (est.var1, known1)):
            rel = np.linalg.norm(resid - known, 2) / np.linalg.norm(known, 2)
            assert rel < 0.10

    def test_residual_heteroskedastic_factors(self):
        model = TrueModel(beta0=[0.5], beta1=[-0.2], sigma0=1.0, sigma1=2.0)
        sums = self._run_batches(model, t=20, n=500, seed=7)
        est = ivw_combine(sums, ResidualSigma(), batch_size=500)
        f0, f1 = residual_noise_factors(sums, est.beta0, est.beta1)
        assert abs(f0 - 1.0) < 0.10
        assert abs(f1 - 4.0) < 0.40

    def test_residual_needs_enough_points(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        a = np.array([1, 1, 1])
        y = np.array([1.0, 2.0, 3.0])
        with pytest.raises(EstimatorUnavailable):
            residual_noise_factors(sums_of([fit_batch_ols(x, a, y)]), np.zeros(2), np.zeros(2))


class TestSufficientStats:
    def test_moment_reconstruction(self):
        # Each batch's stored (beta, gram) pair gives back its moment X'y.
        rng = make_rng(9)
        fits = []
        moments = []
        for _ in range(5):
            x = rng.uniform(-1, 1, size=(30, 3))
            a = (rng.random(30) < 0.5).astype(int)
            y = rng.normal(size=30)
            fits.append(fit_batch_ols(x, a, y))
            moments.append((x[a == 1].T @ y[a == 1], x[a == 0].T @ y[a == 0]))
        for f, (m1, m0) in zip(fits, moments):
            np.testing.assert_allclose(f.arm1.gram @ f.arm1.beta, m1, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(f.arm0.gram @ f.arm0.beta, m0, rtol=1e-9, atol=1e-12)


class TestLimitSecondMoment:
    def test_symmetric_uniform_halves_raw_moment(self):
        # Negation-symmetric contexts: the weighted moment equals E[x x']/2
        # regardless of the clip floor.
        spec = uniform_cube_spec(2)
        model = TrueModel(beta0=[0.0, 0.0], beta1=[1.0, 0.4])
        m = limit_arm_second_moment(spec, model, 0.1, 1, 400_000, make_rng(11))
        np.testing.assert_allclose(m, np.eye(2) / 6.0, atol=0.004)

    def test_scaled_variance_tracks_limit_inverse(self):
        # Long clipped run on the default context family: t times the scaled
        # variance matrix approaches the inverse of the limiting weighted
        # second moment times the noise variance (10% spectral tolerance at
        # t=200, n=500).
        spec = uniform_cube_spec(2)
        model = TrueModel(beta0=[0.2, -0.1], beta1=[0.45, 0.25], sigma0=1.0, sigma1=1.0)
        kind = EpsGreedy(Schedule(0.2))
        sched = constant_clip(0.1)
        rng = make_rng(12)
        t, n = 200, 500
        sums = RunningSums.empty(2)
        for _ in range(t):
            x = sample_batch_contexts(spec, n, rng)
            actions = select_actions(kind, sums, x, sched, rng)
            y = realize_rewards(model, x, actions, rng)
            update_state(sums, fit_batch_ols(x, actions, y))
        v1 = ivw_combine(sums, KnownSigma(1.0), batch_size=n).var1
        limit = limit_arm_second_moment(spec, model, 0.1, 1, 1_000_000, make_rng(13))
        target = np.linalg.inv(limit)  # noise variance 1
        rel = np.linalg.norm(t * v1 - target, 2) / np.linalg.norm(target, 2)
        assert rel < 0.10
