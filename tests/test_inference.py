import numpy as np
import pytest

from banditstop import (
    ConditionalSamplerConfig,
    ConfigError,
    ContractError,
    ExperimentConfig,
    InfeasibleConditioning,
    KnownSigma,
    StoppingConfig,
    TrueModel,
    UniformRandom,
    bootstrap_interval,
    constant_clip,
    make_rng,
    run_experiment,
    sample_conditional,
    uniform_cube_spec,
)
from banditstop import test_hypothesis as hypothesis_rejects


def run_small_record(
    k=1.55, n=20, t_max=30, seed=99, beta0=(0.1,), beta1=(0.4,), dim=1, batch_first=False
):
    """One replication of a uniform-policy known-sigma experiment."""
    config = ExperimentConfig(
        context=uniform_cube_spec(dim),
        model=TrueModel(beta0=list(beta0), beta1=list(beta1), sigma0=1.0, sigma1=1.0),
        policy=UniformRandom(),
        clip=constant_clip(0.1),
        batch_size=n,
        stopping=StoppingConfig(kind="online_threshold", t_max=t_max, k=k),
        sigma_mode=KnownSigma(1.0),
        replications=1,
        master_seed=seed,
        regret_mc_samples=1000,
    )
    return config, run_experiment(config, 0)


class TestBootstrapInterval:
    def test_nearest_rank_integers(self):
        lo, hi = bootstrap_interval(np.arange(1.0, 101.0), 0.90)
        assert lo[0] == 5.0 and hi[0] == 95.0

    def test_degenerate_constant(self):
        lo, hi = bootstrap_interval(np.full(200, 3.25), 0.95)
        assert lo[0] == 3.25 and hi[0] == 3.25

    def test_normal_quantiles(self):
        draws = make_rng(0).standard_normal(100_000)
        lo, hi = bootstrap_interval(draws, 0.95)
        assert abs(lo[0] + 1.96) < 0.02
        assert abs(hi[0] - 1.96) < 0.02

    def test_nesting(self):
        draws = make_rng(1).standard_normal((5_000, 3))
        lo90, hi90 = bootstrap_interval(draws, 0.90)
        lo99, hi99 = bootstrap_interval(draws, 0.99)
        assert np.all(lo99 <= lo90) and np.all(hi99 >= hi90)

    def test_too_few_samples(self):
        with pytest.raises(ContractError):
            bootstrap_interval(np.arange(50.0), 0.9)


class TestHypothesisTest:
    def test_interior_point_not_rejected(self):
        rng = make_rng(2)
        s0 = rng.normal(size=(1000, 2))
        s1 = rng.normal(size=(1000, 2)) + 1.0
        med = (np.median(s0, axis=0), np.median(s1, axis=0))
        assert not hypothesis_rejects(s0, s1, med, 0.95)

    def test_exterior_point_rejected(self):
        rng = make_rng(3)
        s0 = rng.normal(size=(1000, 2))
        s1 = rng.normal(size=(1000, 2))
        h0 = np.array([s0[:, 0].max() + 1.0, 0.0])
        assert hypothesis_rejects(s0, s1, (h0, np.zeros(2)), 0.95)

    def test_boundary_inclusive(self):
        s = np.tile(np.arange(1.0, 101.0)[:, None], (1, 1))
        lo, hi = bootstrap_interval(s, 0.90)
        # exactly on the endpoint: no rejection
        assert not hypothesis_rejects(s, s, (np.array([lo[0]]), np.array([hi[0]])), 0.90,
                                   bonferroni=False)
        assert hypothesis_rejects(s, s, (np.array([lo[0] - 1e-9]), np.array([hi[0]])), 0.90,
                               bonferroni=False)

    def test_dimension_mismatch(self):
        s = make_rng(4).normal(size=(500, 2))
        with pytest.raises(ContractError):
            hypothesis_rejects(s, s, (np.zeros(3), np.zeros(2)), 0.95)


class TestShortcutSampler:
    def test_mean_matches_point_estimate(self):
        config, record = run_small_record()
        cfg = ConditionalSamplerConfig(mode="independence_shortcut", n_samples=100_000)
        samples = sample_conditional(record, None, cfg, seed=5)
        for arm, draws in ((0, samples.arm0), (1, samples.arm1)):
            point = record.ivw.beta(arm)
            sd = np.sqrt(np.diag(record.ivw.beta_cov(arm)))
            se = sd / np.sqrt(draws.shape[0])
            assert np.all(np.abs(draws.mean(axis=0) - point) < 3 * se)
        assert samples.acceptance_rate == 1.0

    def test_determinism(self):
        config, record = run_small_record()
        cfg = ConditionalSamplerConfig(n_samples=500)
        a = sample_conditional(record, None, cfg, seed=7)
        b = sample_conditional(record, None, cfg, seed=7)
        np.testing.assert_array_equal(a.arm0, b.arm0)
        np.testing.assert_array_equal(a.arm1, b.arm1)


class TestRejectionSampler:
    def test_acceptance_rate_matches_direct_mc(self):
        # Stop-at-1 probability under the plug-in law, estimated two ways.
        config, record = run_small_record(k=8.0, n=30, seed=0)
        assert record.stop_time == 1
        cfg = ConditionalSamplerConfig(
            mode="resimulation_rejection", n_samples=2_000, max_attempts=50_000
        )
        samples = sample_conditional(record, None, cfg, seed=21)

        # Direct oracle: raw re-simulation of batch 1 (uniform actions, known
        # sigma), checking the same Gram-only statistic.
        rng = make_rng(1234)
        m, n, k = 50_000, 30, 8.0
        x = rng.uniform(-1.0, 1.0, size=(m, n))
        a = rng.random((m, n)) < 0.5
        g1 = np.where(a, x * x, 0.0).sum(axis=1)
        g0 = np.where(a, 0.0, x * x).sum(axis=1)
        p_direct = float(
            np.mean(
                (g1 > 0)
                & (g0 > 0)
                & (n / np.maximum(g1, 1e-300) <= k)
                & (n / np.maximum(g0, 1e-300) <= k)
            )
        )
        p_srs = samples.acceptance_rate
        se = np.sqrt(
            p_direct * (1 - p_direct) / m + p_srs * (1 - p_srs) / samples.attempts
        )
        assert abs(p_srs - p_direct) < 3 * se + 1e-9

    def test_conditional_mean_matches_brute_force(self):
        # d=1, n=20, known sigma, online threshold: compare the rejection
        # sampler's conditional mean against a dense filtered Monte Carlo of
        # full trajectories from the same plug-in law.
        config, record = run_small_record(k=1.55, n=20, seed=99)
        T = record.stop_time
        assert T >= 2
        cfg = ConditionalSamplerConfig(
            mode="resimulation_rejection", n_samples=10_000, max_attempts=200_000
        )
        samples = sample_conditional(record, None, cfg, seed=22)

        beta_plug = float(record.ivw.beta1[0])
        n, k, sigma = 20, 1.55, 1.0
        rng = make_rng(777)
        total = 1_000_000
        chunk = 50_000
        kept_means = []
        for _ in range(total // chunk):
            g1 = np.zeros(chunk)
            g0 = np.zeros(chunk)
            m1 = np.zeros(chunk)
            alive = np.ones(chunk, dtype=bool)  # not yet stopped
            matched = np.zeros(chunk, dtype=bool)
            for t in range(1, T + 1):
                x = rng.uniform(-1.0, 1.0, size=(chunk, n))
                a = rng.random((chunk, n)) < 0.5
                y1 = x * beta_plug + sigma * rng.standard_normal((chunk, n))
                g1 += np.sum(np.where(a, x * x, 0.0), axis=1)
                g0 += np.sum(np.where(a, 0.0, x * x), axis=1)
                m1 += np.sum(np.where(a, x * y1, 0.0), axis=1)
                ok = (g1 > 0) & (g0 > 0)
                stopped = ok & (n * sigma**2 / np.maximum(g1, 1e-300) <= k) & (
                    n * sigma**2 / np.maximum(g0, 1e-300) <= k
                )
                if t < T:
                    alive &= ~stopped
                else:
                    matched = alive & stopped
            kept_means.append(m1[matched] / g1[matched])
        brute = np.concatenate(kept_means)

        srs = samples.arm1[:, 0]
        se = np.sqrt(srs.var(ddof=1) / srs.size + brute.var(ddof=1) / brute.size)
        assert abs(srs.mean() - brute.mean()) < 3 * se

    def test_acceptance_accounting(self):
        config, record = run_small_record(k=6.5, n=30, seed=11)
        cfg = ConditionalSamplerConfig(
            mode="resimulation_rejection", n_samples=200, max_attempts=20_000
        )
        s = sample_conditional(record, None, cfg, seed=9)
        assert s.arm0.shape[0] == s.arm1.shape[0] <= 200
        assert s.acceptance_rate == pytest.approx(s.arm0.shape[0] / s.attempts)
        assert s.acceptance_rate * cfg.max_attempts >= s.arm0.shape[0] - 1e-9

    def test_determinism(self):
        config, record = run_small_record(k=6.5, n=30, seed=11)
        cfg = ConditionalSamplerConfig(
            mode="resimulation_rejection", n_samples=150, max_attempts=20_000
        )
        a = sample_conditional(record, None, cfg, seed=12)
        b = sample_conditional(record, None, cfg, seed=12)
        np.testing.assert_array_equal(a.arm0, b.arm0)
        np.testing.assert_array_equal(a.arm1, b.arm1)

    def test_infeasible_conditioning(self):
        # Force a stop time the plug-in law essentially never reproduces by
        # doctoring the record's stop time.
        config, record = run_small_record(k=6.5, n=30, seed=11)
        record.stop_time = 25  # vastly later than the rule can fire
        record.cap_hit = False
        cfg = ConditionalSamplerConfig(
            mode="resimulation_rejection", n_samples=100, max_attempts=300
        )
        with pytest.raises(InfeasibleConditioning) as err:
            sample_conditional(record, None, cfg, seed=13)
        assert err.value.attempts == 300


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ConditionalSamplerConfig(mode="nope")
        with pytest.raises(ConfigError):
            ConditionalSamplerConfig(n_samples=10)
        with pytest.raises(ConfigError):
            ConditionalSamplerConfig(n_samples=200, max_attempts=100)
        with pytest.raises(ConfigError):
            ConditionalSamplerConfig(level=1.5)

    def test_rule_argument_rejected(self):
        # Surrogates run the record's own rule, so any rule passed in would be ignored.
        config, record = run_small_record()
        with pytest.raises(ContractError, match="rule"):
            sample_conditional(record, record.setup.rule, ConditionalSamplerConfig(), seed=1)
