import math
from unittest import mock

import numpy as np
import pytest

import pilot_oracle
from banditstop import bounds
from banditstop import (
    BoundConstants,
    ConfigError,
    DomainError,
    EpsGreedy,
    Schedule,
    TrueModel,
    calibrate_tail_constant,
    chebyshev_radius,
    constant_clip,
    cost_adjusted_regret,
    cumulative_cost_adjusted_regret,
    make_rng,
    regret_bound_from_radius,
    regret_bound_from_variance,
    regret_bound_time,
    tail_radius,
    uniform_cube_spec,
)


def consts(
    L=1.0, lam=1.0, M=1.0, d=1, delta=0.1, K=1.0, c=0.0, n=1, p=1.0
) -> BoundConstants:
    return BoundConstants(
        context_bound=L,
        margin_exponent=lam,
        margin_const=M,
        dim=d,
        delta=delta,
        tail_const=K,
        unit_cost=c,
        batch_size=n,
        clip_floor=p,
    )


class TestTailRadius:
    def test_non_batched_substitution(self):
        assert tail_radius(4, 0.5, consts(K=1.0), batched=False) == pytest.approx(1.0)

    def test_batched_scaling(self):
        c = consts(K=1.0, n=4)
        nb = tail_radius(5, 0.5, c, batched=False)
        b = tail_radius(5, 0.5, c, batched=True)
        assert b == pytest.approx(nb / 2.0)

    def test_decreasing_in_t(self):
        c = consts(K=2.0, n=3)
        radii = [tail_radius(t, 0.3, c) for t in range(1, 50)]
        assert all(a > b for a, b in zip(radii, radii[1:]))

    def test_zero_clip_rejected(self):
        with pytest.raises(DomainError):
            tail_radius(1, 0.0, consts())


class TestRegretBounds:
    def test_radius_substitution(self):
        assert regret_bound_from_radius(0.5, consts(L=1.0, lam=1.0, M=1.0)) == pytest.approx(1.0)

    def test_zero_radius(self):
        assert regret_bound_from_radius(0.0, consts()) == 0.0

    def test_time_bound_rate_form(self):
        # margin exponent 1, regret_const 4, n=1, p=1: bound(t) = 4 / t.
        c = consts(L=1.0, lam=1.0, M=1.0, K=1.0, n=1, p=1.0)
        assert c.regret_const == pytest.approx(4.0)
        assert regret_bound_time(2, c) == pytest.approx(2.0)

    def test_composition_identity(self):
        rng = make_rng(0)
        for _ in range(1000):
            c = consts(
                L=rng.uniform(0.5, 3),
                lam=rng.uniform(0.3, 2),
                M=rng.uniform(0.2, 5),
                K=rng.uniform(0.1, 10),
                n=int(rng.integers(1, 50)),
                p=rng.uniform(0.05, 0.5),
            )
            t = int(rng.integers(1, 500))
            composed = regret_bound_from_radius(tail_radius(t, c.clip_floor, c), c)
            assert regret_bound_time(t, c) == pytest.approx(composed, rel=1e-12)

    def test_halving_clip_quadruples(self):
        c1 = consts(lam=1.0, p=0.4)
        c2 = consts(lam=1.0, p=0.2)
        assert regret_bound_time(7, c2) == pytest.approx(4.0 * regret_bound_time(7, c1), rel=1e-12)

    def test_decreasing_in_batch_size(self):
        vals = [regret_bound_time(5, consts(lam=0.7, n=n)) for n in (1, 2, 5, 20, 100)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_variance_bound_substitution(self):
        c = consts(L=1.0, lam=1.0, M=1.0, d=1, delta=1.0)
        assert regret_bound_from_variance(1.0, c) == pytest.approx(4.0)
        assert regret_bound_from_variance(0.0, c) == 0.0

    def test_variance_bound_composition(self):
        rng = make_rng(1)
        for _ in range(1000):
            c = consts(
                L=rng.uniform(0.5, 3),
                lam=rng.uniform(0.3, 2),
                M=rng.uniform(0.2, 5),
                d=int(rng.integers(1, 6)),
                delta=rng.uniform(0.01, 0.99),
            )
            k = rng.uniform(0.0, 4.0)
            composed = regret_bound_from_radius(chebyshev_radius(c.dim, k, c.delta), c)
            assert regret_bound_from_variance(k, c) == pytest.approx(composed, rel=1e-12)

    def test_derived_constant_recomputation(self):
        c = consts(L=1.3, lam=0.8, M=2.1, K=3.7)
        expected = (2 * 1.3 * math.sqrt(3.7)) ** 1.8 * 2.1
        assert c.regret_const == pytest.approx(expected, rel=1e-12)


class TestChebyshev:
    def test_substitutions(self):
        assert chebyshev_radius(1, 1.0, 0.25) == pytest.approx(2.0)
        assert chebyshev_radius(4, 1.0, 1.0) == pytest.approx(2.0)

    def test_zero_delta_rejected(self):
        with pytest.raises(DomainError):
            chebyshev_radius(2, 1.0, 0.0)

    def test_gaussian_coverage_conservative(self):
        # d=2 standard Gaussian, delta=0.05: radius 6.3246 covers nearly always.
        radius = chebyshev_radius(2, 1.0, 0.05)
        assert radius == pytest.approx(6.3246, abs=1e-4)
        draws = make_rng(2).standard_normal((10_000, 2))
        coverage = np.mean(np.linalg.norm(draws, axis=1) <= radius)
        assert coverage >= 0.95


class TestCostAdjustedRegret:
    def test_additive(self):
        c = consts(c=0.1, n=10)
        out = cost_adjusted_regret(1.0, 5, c)
        assert out.finite and out.value == pytest.approx(6.0)
        assert out.bound_term == 1.0 and out.cost_term == pytest.approx(5.0)

    def test_threshold_infinite(self):
        c = consts(c=0.1, n=10)
        out = cost_adjusted_regret(2.0, 5, c, 1.0)
        assert not out.finite and math.isinf(out.value)

    def test_threshold_below(self):
        c = consts(c=0.1, n=10)
        out = cost_adjusted_regret(0.5, 5, c, 1.0)
        assert out.finite and out.value == pytest.approx(5.0)

    def test_cumulative_additive_is_bound_series_plus_cost(self):
        c = consts(L=1.0, lam=1.0, M=1.0, K=1.0, n=2, p=0.5, c=0.05)
        t_stop = 7
        direct = sum(regret_bound_time(t, c) for t in range(1, t_stop + 1))
        direct += 0.05 * 2 * t_stop
        assert cumulative_cost_adjusted_regret(c, t_stop) == pytest.approx(direct)

    def test_cumulative_threshold_is_cost(self):
        c = consts(c=0.2, n=5)
        assert cumulative_cost_adjusted_regret(c, 8, 1.0) == pytest.approx(8.0)

    @pytest.mark.parametrize("threshold", [0.0, -1.0])
    def test_a_threshold_that_is_not_positive_is_rejected(self, threshold):
        c = consts()
        with pytest.raises(ConfigError, match="threshold must be positive"):
            cost_adjusted_regret(0.5, 5, c, threshold)
        with pytest.raises(ConfigError, match="threshold must be positive"):
            cumulative_cost_adjusted_regret(c, 5, threshold)


class TestCalibration:
    def _setup(self):
        spec = uniform_cube_spec(2)
        model = TrueModel(beta0=[0.2, -0.1], beta1=[0.5, 0.3], sigma0=1.0, sigma1=1.0)
        policy = EpsGreedy(Schedule(0.2))
        return spec, model, policy, constant_clip(0.1)

    def test_quantile_inversion_matches_independent_replay(self):
        # Re-derive the pilot deviations with the sequential loop and check the
        # returned constant is exactly the nearest-rank quantile inverted
        # through the radius formula.
        spec, model, policy, sched = self._setup()
        n, t_ref, delta, reps, seed = 80, 6, 0.1, 40, 314
        k = calibrate_tail_constant(spec, model, policy, sched, n, t_ref, delta, reps, seed)

        devs = list(
            pilot_oracle.sequential_deviations(spec, model, policy, sched, n, t_ref, reps, seed)
        )
        rank = math.ceil((1 - delta) * reps)
        quantile = sorted(devs)[rank - 1]
        assert k == pytest.approx(quantile**2 * n * t_ref * 0.1**2, rel=1e-12)
        radius = math.sqrt(k / (n * t_ref * 0.1**2))
        covered = sum(1 for d in devs if d <= radius)
        assert covered >= rank  # at least the nominal fraction of pilots covered

    def test_monotone_in_delta(self):
        spec, model, policy, sched = self._setup()
        k_tight = calibrate_tail_constant(spec, model, policy, sched, 80, 6, 0.05, 40, 314)
        k_loose = calibrate_tail_constant(spec, model, policy, sched, 80, 6, 0.5, 40, 314)
        assert k_tight >= k_loose

    def test_rejects_zero_floor(self):
        from banditstop import ClipSchedule

        spec, model, policy, _ = self._setup()
        decaying = ClipSchedule(Schedule(0.3, decay=0.5, floor=0.0))
        with pytest.raises(ConfigError):
            calibrate_tail_constant(spec, model, policy, decaying, 80, 6, 0.1, 40, 314)

    @pytest.mark.parametrize("t_ref", [0, -2])
    def test_rejects_t_ref_below_one(self, t_ref):
        spec, model, policy, sched = self._setup()
        with mock.patch.object(bounds, "pilot_deviations") as pilots:
            with pytest.raises(ConfigError, match="t_ref"):
                calibrate_tail_constant(spec, model, policy, sched, 80, t_ref, 0.1, 40, 314)
        pilots.assert_not_called()
