import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regret_oracle
from banditstop import (
    ConfigError,
    ContextSpec,
    ContractError,
    EpsGreedy,
    RunningSums,
    Schedule,
    TrueModel,
    TruncatedGaussian,
    UniformBox,
    check_assumptions,
    constant_clip,
    estimate_policy_regret,
    fit_batch_ols,
    make_rng,
    realize_rewards,
    sample_batch_contexts,
    select_actions,
    uniform_cube_spec,
    update_state,
)
from banditstop.bounds import lock_step_batch
from banditstop.model import stacked_contexts, stacked_rewards


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


def box_spec(box) -> ContextSpec:
    lower, upper = box
    sup = max(float(np.abs(np.concatenate([lower, upper])).max()), 1.0)
    return ContextSpec(dim=lower.size, dist=UniformBox(lower, upper), sup_bound=sup)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(box=boxes(), n=st.integers(1, 50), seed=st.integers(0, 2**63 - 1))
def test_uniform_box_draws_equal_generator_uniform(box, n, seed):
    spec = box_spec(box)
    mine, numpys = make_rng(seed), make_rng(seed)
    got = sample_batch_contexts(spec, n, mine)
    want = numpys.uniform(spec.dist.lower, spec.dist.upper, size=(n, spec.dim))
    assert got.tobytes() == want.tobytes()  # -0.0 and 0.0 told apart
    assert mine.random() == numpys.random()  # the stream is left at the same place


@st.composite
def gaussians(draw):
    """Truncated Gaussians whose acceptance rate stays above about 5%."""
    dim = draw(st.integers(1, 4))
    unit = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.5, 0.5))
    mean = np.array(draw(st.lists(unit, min_size=dim, max_size=dim)))
    lower = np.array(draw(st.lists(unit, min_size=dim * dim, max_size=dim * dim)))
    scales = draw(st.lists(st.floats(0.2, 1.0), min_size=dim, max_size=dim))
    chol = np.tril(lower.reshape(dim, dim), -1) + np.diag(scales)
    bound = draw(st.floats(1.0, 3.0))
    dist = TruncatedGaussian(mean=mean, cov=chol @ chol.T, bound=bound)
    return ContextSpec(dim=dim, dist=dist, sup_bound=bound)


def specs():
    return st.one_of(boxes().map(box_spec), gaussians())


SEEDS = st.integers(0, 2**63 - 1)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=specs(), n=st.integers(1, 40), members=st.integers(1, 4), seed=SEEDS)
def test_stacked_contexts_equal_stacked_lone_draws(spec, n, members, seed):
    mine = [make_rng(seed + i) for i in range(members)]
    lone = [make_rng(seed + i) for i in range(members)]
    got = stacked_contexts(spec, n, mine)
    want = np.stack([sample_batch_contexts(spec, n, rng) for rng in lone])
    assert got.tobytes() == want.tobytes()
    assert [rng.random() for rng in mine] == [rng.random() for rng in lone]


DRAW_SPECS = {
    "box": ContextSpec(dim=2, dist=UniformBox([-1.0, 0.5], [1.0, 2.0]), sup_bound=2.0),
    "truncated_gaussian": ContextSpec(
        dim=2, dist=TruncatedGaussian(mean=[0.2, -0.1], cov=[[1.0, 0.3], [0.3, 0.5]], bound=1.5), sup_bound=1.5
    ),
}


@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("noise", ["gaussian", "bounded_uniform"])
@pytest.mark.parametrize("context", sorted(DRAW_SPECS))
@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
def test_stacked_draws_equal_lone_draws(members, noise, context, seed):
    # Each member's contexts, action uniforms and reward noise, drawn into
    # its row of the stacked buffers, are the bits of the lone per-generator
    # calls, and every generator is left in the lone call's state.
    spec, n = DRAW_SPECS[context], 9
    model = TrueModel(beta0=[0.2, -0.1], beta1=[0.5, 0.3], sigma0=0.5, sigma1=2.0, noise=noise)
    policy, clip = EpsGreedy(Schedule(0.3)), constant_clip(0.1)

    def states(rngs):
        return [rng.bit_generator.state for rng in rngs]

    def fresh():
        return [make_rng(seed + i) for i in range(members)]

    stacked, lone = fresh(), fresh()
    x = stacked_contexts(spec, n, stacked)
    assert x.tobytes() == np.stack([sample_batch_contexts(spec, n, rng) for rng in lone]).tobytes()
    assert states(stacked) == states(lone)
    arm1 = x[..., 0] > 0.3
    y = stacked_rewards(model, x, arm1, stacked)
    want = np.stack([realize_rewards(model, xk, ak.astype(int), rng) for xk, ak, rng in zip(x, arm1, lone)])
    assert y.tobytes() == want.tobytes()
    assert states(stacked) == states(lone)

    # One batch of the lock-step loops at t = 2, after a first batch that
    # gives each member its own estimates.
    sums = []
    for k in range(members):
        rng = make_rng(seed + 100 + k)
        xk = sample_batch_contexts(spec, n, rng)
        first = RunningSums.empty(spec.dim)
        update_state(first, fit_batch_ols(xk, rng.integers(0, 2, size=n), rng.normal(size=n)))
        sums.append(first)
    xx = np.stack([[s.arm0.xx, s.arm1.xx] for s in sums])
    xy = np.stack([[s.arm0.xy, s.arm1.xy] for s in sums])
    stacked, lone = fresh(), fresh()
    x, arm1, y = lock_step_batch(spec, model, policy, clip, n, 2, stacked, xx, xy)
    for k, rng in enumerate(lone):
        xk = sample_batch_contexts(spec, n, rng)
        actions = select_actions(policy, sums[k], xk, clip, rng)
        yk = realize_rewards(model, xk, actions, rng)
        assert x[k].tobytes() == xk.tobytes()
        assert np.array_equal(arm1[k], actions == 1)
        assert y[k].tobytes() == yk.tobytes()
    assert states(stacked) == states(lone)


# With box ends up to 1e300 in size, x . beta and r1 - r0 stay finite.
COEFFICIENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300]), st.floats(-10.0, 10.0, allow_subnormal=True)
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    spec=specs(),
    learned=st.sampled_from(["zero", "difference", "negated", "random"]),
    mc_samples=st.sampled_from([1, 2, 7, 20_000]),
    seed=SEEDS,
)
def test_policy_regret_equals_max_minus_chosen(data, spec, learned, mc_samples, seed):
    vector = st.lists(COEFFICIENTS, min_size=spec.dim, max_size=spec.dim).map(np.array)
    beta0 = data.draw(vector)
    beta1 = beta0.copy() if data.draw(st.booleans()) else data.draw(vector)
    model = TrueModel(beta0=beta0, beta1=beta1)
    difference = beta1 - beta0
    learned_difference = {
        "zero": np.zeros(spec.dim),
        "difference": difference,
        "negated": -difference,
        "random": data.draw(vector),
    }[learned]
    mine, theirs = make_rng(seed), make_rng(seed)
    got = estimate_policy_regret(model, spec, learned_difference, mc_samples, mine)
    want = regret_oracle.policy_regret(model, spec, learned_difference, mc_samples, theirs)
    assert got == want
    assert mine.random() == theirs.random()


def test_policy_regret_is_nan_where_the_gap_overflows():
    # The |r1 - r0| form is exact only while r1 - r0 is finite, which is why
    # COEFFICIENTS above stays small. Here x . beta1 is -inf for every draw and
    # the rule picks the better arm 0: max-minus-chosen gives 0 - 0, while the
    # infinite gap times 0 gives NaN.
    spec = ContextSpec(dim=2, dist=UniformBox([-1e300, 0.0], [-1e299, 1.0]), sup_bound=1e300)
    model = TrueModel(beta0=[0.0, 0.0], beta1=[1e300, 0.0])
    difference = model.arm_difference()
    with np.errstate(over="ignore", invalid="ignore"):
        got = estimate_policy_regret(model, spec, difference, 7, make_rng(3))
        old = regret_oracle.policy_regret(model, spec, difference, 7, make_rng(3))
    assert np.isnan(got)
    assert old == 0.0


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
