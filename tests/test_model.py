import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditstop import (
    ConfigError,
    ContextSpec,
    ContractError,
    TrueModel,
    TruncatedGaussian,
    UniformBox,
    check_assumptions,
    make_rng,
    realize_rewards,
    sample_batch_contexts,
    uniform_cube_spec,
)


class TestContextSampling:
    def test_point_mass_box(self):
        spec = ContextSpec(dim=1, dist=UniformBox(lower=[1.0], upper=[1.0]), sup_bound=1.0)
        x = sample_batch_contexts(spec, 3, make_rng(0))
        np.testing.assert_array_equal(x, [[1.0], [1.0], [1.0]])

    def test_uniform_square_mean(self):
        # Monte Carlo oracle: coordinate mean 0, sd 1/sqrt(3); 0.05 is ~8 SE.
        spec = uniform_cube_spec(2)
        x = sample_batch_contexts(spec, 10_000, make_rng(1))
        assert np.all(np.abs(x.mean(axis=0)) < 0.05)

    def test_truncated_gaussian_respects_box(self):
        spec = ContextSpec(
            dim=2,
            dist=TruncatedGaussian(mean=[0.5, 0.0], cov=np.eye(2), bound=1.0),
            sup_bound=1.0,
        )
        x = sample_batch_contexts(spec, 5_000, make_rng(2))
        assert np.max(np.abs(x)) <= 1.0

    def test_boundedness_always(self):
        spec = ContextSpec(
            dim=3, dist=UniformBox(lower=[-0.5, -1, 0], upper=[1, 0.5, 1]), sup_bound=1.0
        )
        for seed in range(5):
            x = sample_batch_contexts(spec, 257, make_rng(seed))
            assert np.max(np.abs(x)) <= spec.sup_bound

    def test_determinism(self):
        spec = uniform_cube_spec(4)
        a = sample_batch_contexts(spec, 100, make_rng(33))
        b = sample_batch_contexts(spec, 100, make_rng(33))
        np.testing.assert_array_equal(a, b)

    def test_inverted_box_rejected(self):
        with pytest.raises(ConfigError):
            UniformBox(lower=[1.0], upper=[0.0])

    @pytest.mark.parametrize(
        "lower, upper",
        [([0.0, -np.inf], [1.0, 0.0]), ([0.0], [np.inf]), ([np.nan], [1.0]), ([-1e308], [1e308])],
    )
    def test_non_finite_box_rejected(self, lower, upper):
        with pytest.raises(ConfigError, match="finite"):
            UniformBox(lower=lower, upper=upper)

    def test_non_pd_covariance_rejected(self):
        with pytest.raises(ConfigError):
            TruncatedGaussian(mean=[0.0, 0.0], cov=[[1.0, 2.0], [2.0, 1.0]], bound=1.0)

    def test_box_outside_bound_rejected(self):
        with pytest.raises(ConfigError):
            ContextSpec(dim=1, dist=UniformBox(lower=[-2.0], upper=[2.0]), sup_bound=1.0)


@st.composite
def boxes(draw):
    dim = draw(st.integers(1, 4))
    ends = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e300]),
        st.floats(-1e6, 1e6, allow_subnormal=True),
    )
    # Ascending, with -0.0 before 0.0: numpy refuses a width of -0.0.
    pairs = [
        sorted(draw(st.lists(ends, min_size=2, max_size=2)), key=lambda v: (v, not np.signbit(v)))
        for _ in range(dim)
    ]
    if draw(st.booleans()):  # a point mass in one coordinate, signed zeros included
        i = draw(st.integers(0, dim - 1))
        pairs[i] = [pairs[i][0], pairs[i][0]]
    lower, upper = (np.array(side) for side in zip(*pairs))
    return lower, upper


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(box=boxes(), n=st.integers(1, 50), seed=st.integers(0, 2**63 - 1))
def test_uniform_box_draws_equal_generator_uniform(box, n, seed):
    lower, upper = box
    sup = max(float(np.abs(np.concatenate([lower, upper])).max()), 1.0)
    spec = ContextSpec(dim=lower.size, dist=UniformBox(lower, upper), sup_bound=sup)
    mine, numpys = make_rng(seed), make_rng(seed)
    got = sample_batch_contexts(spec, n, mine)
    want = numpys.uniform(spec.dist.lower, spec.dist.upper, size=(n, lower.size))
    assert got.tobytes() == want.tobytes()  # -0.0 and 0.0 told apart
    assert mine.random() == numpys.random()  # the stream is left at the same place


class TestRewards:
    def test_zero_noise_exact(self):
        model = TrueModel(beta0=[0.0, 0.0], beta1=[1.0, 1.0], sigma0=0.0, sigma1=0.0)
        y = realize_rewards(model, np.array([[1.0, 2.0]]), np.array([1]), make_rng(0))
        assert y[0] == 3.0

    def test_null_model_mean(self):
        model = TrueModel(beta0=[0.0], beta1=[0.0], sigma0=1.0, sigma1=1.0)
        x = np.ones((10_000, 1))
        a = (make_rng(5).random(10_000) < 0.5).astype(int)
        y = realize_rewards(model, x, a, make_rng(6))
        assert abs(y.mean()) < 3.0 / 100.0  # 3 sigma / sqrt(n)

    def test_residual_sd_chi2_band(self):
        model = TrueModel(beta0=[0.5], beta1=[2.0], sigma0=1.0, sigma1=1.0)
        x = np.full((10_000, 1), 0.7)
        a = np.ones(10_000, dtype=int)
        y = realize_rewards(model, x, a, make_rng(7))
        resid = y - 0.7 * 2.0
        assert 0.97 <= resid.std(ddof=1) <= 1.03

    def test_bounded_uniform_noise_scale(self):
        model = TrueModel(beta0=[0.0], beta1=[0.0], sigma0=0.5, sigma1=0.5, noise="bounded_uniform")
        x = np.zeros((20_000, 1))
        y = realize_rewards(model, x, np.zeros(20_000, dtype=int), make_rng(8))
        assert np.max(np.abs(y)) <= 0.5 * np.sqrt(3.0) + 1e-12
        assert abs(y.std(ddof=1) - 0.5) < 0.02

    def test_noise_uncorrelated_with_contexts(self):
        reps = 10_000
        model = TrueModel(beta0=[0.3, -0.2], beta1=[0.1, 0.4], sigma0=1.0, sigma1=1.0)
        x = sample_batch_contexts(uniform_cube_spec(2), reps, make_rng(9))
        a = np.ones(reps, dtype=int)
        y = realize_rewards(model, x, a, make_rng(10))
        e = y - x @ model.beta1
        for j in range(2):
            corr = np.corrcoef(e, x[:, j])[0, 1]
            assert abs(corr) < 3.0 / np.sqrt(reps)

    def test_dimension_mismatch(self):
        model = TrueModel(beta0=[0.0, 0.0], beta1=[1.0, 1.0])
        with pytest.raises(ContractError):
            realize_rewards(model, np.ones((3, 1)), np.zeros(3, dtype=int), make_rng(0))
        with pytest.raises(ContractError):
            realize_rewards(model, np.ones((3, 2)), np.zeros(2, dtype=int), make_rng(0))


class TestAssumptionChecks:
    def test_uniform_square_second_moment(self):
        # E[x x'] = I/3 for iid Uniform[-1,1] coordinates.
        spec = uniform_cube_spec(2)
        model = TrueModel(beta0=[0.0, 0.0], beta1=[1.0, 0.0])
        report = check_assumptions(spec, model, mc_samples=100_000, rng=make_rng(11))
        assert abs(report.lambda_min_hat - 1.0 / 3.0) < 0.05 / 3.0
        assert report.bounded_ok and report.eigenvalue_ok

    def test_margin_fit_linear_case(self):
        # diff = (1, 0), x1 ~ U[-1,1]: P(|x1| <= h) = h, so the fitted
        # exponent and scale should both be 1 within 10%.
        spec = uniform_cube_spec(2)
        model = TrueModel(beta0=[0.0, 0.0], beta1=[1.0, 0.0])
        report = check_assumptions(spec, model, mc_samples=100_000, rng=make_rng(12))
        assert abs(report.margin_exponent_hat - 1.0) < 0.10
        assert abs(report.margin_scale_hat - 1.0) < 0.10
        assert report.margin_ok

    def test_sup_norm_within_bound(self):
        spec = uniform_cube_spec(3)
        model = TrueModel(beta0=np.zeros(3), beta1=np.ones(3))
        report = check_assumptions(spec, model, mc_samples=2_000, rng=make_rng(13))
        assert report.sup_norm_hat <= 1.0

    def test_equal_arms_margin_unsatisfiable(self):
        spec = uniform_cube_spec(2)
        model = TrueModel(beta0=[0.4, 0.1], beta1=[0.4, 0.1])
        report = check_assumptions(spec, model, mc_samples=2_000, rng=make_rng(14))
        assert not report.margin_ok
        assert np.isnan(report.margin_exponent_hat)

    def test_preconditions(self):
        spec = uniform_cube_spec(1)
        model = TrueModel(beta0=[0.0], beta1=[1.0])
        with pytest.raises(ContractError):
            check_assumptions(spec, model, mc_samples=10, rng=make_rng(0))
        with pytest.raises(ContractError):
            check_assumptions(spec, model, mc_samples=2_000, h_grid=[0.2, 0.1], rng=make_rng(0))
