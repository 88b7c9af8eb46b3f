import math
from unittest import mock

import numpy as np
import pytest

from banditstop import (
    BoundConstants,
    ContractError,
    EpsGreedy,
    KnownSigma,
    OnlineOpportunity,
    OnlineThreshold,
    PredeterminedOpportunity,
    PredeterminedThreshold,
    ResidualSigma,
    Schedule,
    SimulationSetup,
    StoppingRuleSpec,
    TrueModel,
    UnsupportedCaseError,
    closed_form_stop_time,
    constant_clip,
    cumulative_cost_adjusted_regret,
    evaluate,
    linalg,
    make_rng,
    scan_stop_time,
    simulate,
    spectral_norm,
    stopping,
    uniform_cube_spec,
)


def consts(K=625.0, M=1.0, L=1.0, lam=1.0, c=0.01, n=100, p=0.5, delta=0.1, d=2):
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


def diag(*vals):
    return np.diag(np.asarray(vals, dtype=float))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_norm(diag(2.0, 3.0)) == pytest.approx(3.0)

    def test_power_iteration_oracle(self):
        rng = make_rng(0)
        for _ in range(10):
            a = rng.normal(size=(5, 5))
            m = a @ a.T
            v = rng.normal(size=5)
            for _ in range(10_000):
                v = m @ v
                v /= np.linalg.norm(v)
            oracle = float(v @ m @ v)
            assert spectral_norm(m) == pytest.approx(oracle, rel=1e-6)

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            spectral_norm(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestEvaluateOnline:
    def test_threshold_stop(self):
        spec = StoppingRuleSpec(OnlineThreshold(k=1.0), t_max=100)
        d = evaluate(spec, 3, current=(0.7, 0.5))
        assert d.stop and not d.cap_hit
        assert d.diagnostics["var_norm_arm0"] == pytest.approx(0.7)

    def test_threshold_requires_both_arms(self):
        spec = StoppingRuleSpec(OnlineThreshold(k=1.0), t_max=100)
        assert not evaluate(spec, 3, current=(1.4, 0.5)).stop

    def test_opportunity_decrements(self):
        spec = StoppingRuleSpec(OnlineOpportunity(c_prime=0.02), t_max=100)
        prev = (1.0, 1.0)
        stop_case = evaluate(spec, 2, current=(0.99, 0.985), previous=prev)
        assert stop_case.stop  # decrements 0.01 and 0.015
        cont_case = evaluate(spec, 2, current=(0.99, 0.95), previous=prev)
        assert not cont_case.stop  # decrement 0.05 too large

    def test_negative_decrement_counts_as_stop(self):
        spec = StoppingRuleSpec(OnlineOpportunity(c_prime=0.02), t_max=100)
        prev = (1.0, 1.0)
        d = evaluate(spec, 2, current=(1.05, 1.01), previous=prev)
        assert d.stop

    def test_opportunity_needs_history(self):
        spec = StoppingRuleSpec(OnlineOpportunity(c_prime=0.02), t_max=100)
        d = evaluate(spec, 1, current=(1.0, 1.0), previous=None)
        assert not d.stop and "insufficient_history" in d.diagnostics

    def test_missing_estimates_continue_with_flag(self):
        spec = StoppingRuleSpec(OnlineThreshold(k=1.0), t_max=100)
        d = evaluate(spec, 1, current=None)
        assert not d.stop and "estimator_unavailable" in d.diagnostics

    def test_scaled_opportunity_level(self):
        spec = StoppingRuleSpec(
            OnlineOpportunity(c_prime=0.001, scale_by_batch=True, batch_size=100), t_max=50
        )
        prev = (1.0, 1.0)
        d = evaluate(spec, 2, current=(0.95, 0.95), previous=prev)
        assert d.stop  # level 0.1 vs decrements 0.05
        assert d.diagnostics["level"] == pytest.approx(0.1)

    def test_cap(self):
        spec = StoppingRuleSpec(OnlineThreshold(k=1e-9), t_max=4)
        d = evaluate(spec, 4, current=(1.0, 1.0))
        assert d.stop and d.cap_hit


class TestCarriedNorms:
    """The lone loop carries each batch's variance norms to the next, so the
    opportunity rule costs no eigenvalue call that the threshold rule does not."""

    def run(self, rule, sigma_mode):
        setup = SimulationSetup(
            context=uniform_cube_spec(2), policy=EpsGreedy(Schedule(0.2)), clip=constant_clip(0.1),
            batch_size=20, sigma_mode=sigma_mode, rule=StoppingRuleSpec(rule, t_max=25),
        )
        model = TrueModel(beta0=[0.2, -0.1], beta1=[0.45, 0.25])
        eigvalsh = mock.Mock(wraps=linalg.eigvalsh)
        after_batch = []

        def counted_evaluate(*args, **kwargs):
            decision = stopping.evaluate(*args, **kwargs)
            after_batch.append(eigvalsh.call_count)
            return decision

        with mock.patch.object(linalg, "eigvalsh", eigvalsh), mock.patch.object(
            stopping, "eigvalsh", eigvalsh
        ), mock.patch.object(simulate, "evaluate", counted_evaluate):
            traj = simulate.simulate_trajectory(setup, model, make_rng(3))
        return np.diff([0] + after_batch).tolist(), traj

    @pytest.mark.parametrize("sigma_mode", [KnownSigma(1.0), ResidualSigma()])
    def test_same_eigenvalue_calls_per_batch(self, sigma_mode):
        per_threshold, threshold = self.run(OnlineThreshold(k=1e-9), sigma_mode)
        per_opportunity, opportunity = self.run(OnlineOpportunity(c_prime=1e-9), sigma_mode)
        common = min(threshold.stop_time, opportunity.stop_time)
        assert common > 10 and min(per_threshold) > 0
        assert per_opportunity[:common] == per_threshold[:common]

    def test_decrement_is_carried_norm_minus_current(self):
        _, traj = self.run(OnlineOpportunity(c_prime=1e-9), KnownSigma(1.0))
        checked = 0
        for before, now in zip(traj.stop_trace, traj.stop_trace[1:]):
            if "var_norm_arm0" not in before.diagnostics:  # the first batch logs no norms
                continue
            for arm in (0, 1):
                prev, cur = before.diagnostics[f"var_norm_arm{arm}"], now.diagnostics[f"var_norm_arm{arm}"]
                assert now.diagnostics[f"decrement_arm{arm}"] == prev - cur
            checked += 1
        assert checked > 10


class TestEvaluatePredetermined:
    def test_reference_opportunity_scan(self):
        # rate constant 100 and batch cost 1: first stop where t(t+1) >= 100.
        c = consts()
        assert c.rate_const == pytest.approx(100.0)
        spec = StoppingRuleSpec(PredeterminedOpportunity(c), t_max=1000)
        assert not evaluate(spec, 9).stop   # 9*10 = 90 < 100
        assert evaluate(spec, 10).stop      # 10*11 = 110 >= 100
        assert scan_stop_time(spec).t == 10

    def test_data_independence(self):
        c = consts()
        spec = StoppingRuleSpec(PredeterminedOpportunity(c), t_max=1000)
        with_data = evaluate(spec, 10, current=(9.0, 9.0), previous=(9.5, 9.5))
        without = evaluate(spec, 10)
        assert with_data.stop == without.stop
        assert with_data.diagnostics == without.diagnostics

    def test_monotone_once_stopped(self):
        c = consts()
        spec = StoppingRuleSpec(PredeterminedOpportunity(c), t_max=1000)
        first = scan_stop_time(spec).t
        assert all(evaluate(spec, t).stop for t in range(first, first + 50))

    def test_threshold_scan(self):
        c = consts()
        spec = StoppingRuleSpec(PredeterminedThreshold(c, k=8.0), t_max=1000)
        # bound(t) = 100/t <= 8 first at t = 13
        assert scan_stop_time(spec).t == 13


class TestClosedForm:
    def test_opportunity_substitution(self):
        # rate constant 100, unit cost 0.01, batch 100 -> t* = sqrt(100/1) = 10
        pred = closed_form_stop_time(StoppingRuleSpec(PredeterminedOpportunity(consts())))
        assert pred.t_star == pytest.approx(10.0)
        assert pred.creg_star == pytest.approx(100.0 * math.log(10.0) + 10.0)

    def test_threshold_substitution(self):
        # regret_const 50: K=12.5, M=1, L=1 -> 4*12.5 = 50; p=0.5, n=10, k=2 -> t*=10
        c = consts(K=12.5, M=1.0, L=1.0, c=0.01, n=10, p=0.5)
        assert c.regret_const == pytest.approx(50.0)
        pred = closed_form_stop_time(StoppingRuleSpec(PredeterminedThreshold(c, k=2.0)))
        assert pred.t_star == pytest.approx(10.0)
        assert pred.creg_star == pytest.approx(0.01 * 10 * 10.0)

    def test_non_unit_margin_rejected(self):
        c = consts(lam=0.7)
        with pytest.raises(UnsupportedCaseError):
            closed_form_stop_time(StoppingRuleSpec(PredeterminedOpportunity(c)))

    def test_online_rule_rejected(self):
        with pytest.raises(ContractError):
            closed_form_stop_time(StoppingRuleSpec(OnlineThreshold(k=1.0)))

    def test_scan_within_one_of_prediction(self):
        rng = make_rng(1)
        for _ in range(50):
            K = rng.uniform(1.0, 50.0)
            n = int(rng.integers(5, 200))
            p = rng.uniform(0.1, 0.5)
            target = rng.uniform(3.0, 80.0)
            rate = 4.0 * K / (n * p * p)  # regret_const with L=M=1, margin exponent 1
            c_unit = rate / (n * target**2)
            cc = consts(K=K, M=1.0, L=1.0, c=c_unit, n=n, p=p)
            spec = StoppingRuleSpec(PredeterminedOpportunity(cc), t_max=10_000)
            pred = closed_form_stop_time(spec)
            scanned = scan_stop_time(spec).t
            # independent inline oracle: first t with t(t+1) >= rate / (c n)
            ratio = cc.rate_const / (c_unit * n)
            t_oracle = 1
            while t_oracle * (t_oracle + 1) < ratio:
                t_oracle += 1
            assert scanned == t_oracle
            assert abs(scanned - pred.t_star) <= 1.0

    def test_cumulative_creg_tracks_prediction(self):
        # Mirrors the in-module consistency property at moderate horizons.
        rng = make_rng(2)
        for _ in range(100):
            K = rng.uniform(1.0, 40.0)
            n = int(rng.integers(5, 100))
            p = rng.uniform(0.1, 0.5)
            target = rng.uniform(20.0, 60.0)
            rate = 4.0 * K / (n * p * p)
            c_unit = rate / (n * target**2)
            cc = consts(K=K, M=1.0, L=1.0, c=c_unit, n=n, p=p)
            spec = StoppingRuleSpec(PredeterminedOpportunity(cc), t_max=10_000)
            pred = closed_form_stop_time(spec)
            t_stop = scan_stop_time(spec).t
            sim = cumulative_cost_adjusted_regret(cc, t_stop)
            assert abs(sim - pred.creg_star) / pred.creg_star < 0.25

            k_thr = cc.rate_const / target
            spec_thr = StoppingRuleSpec(PredeterminedThreshold(cc, k=k_thr), t_max=10_000)
            pred_thr = closed_form_stop_time(spec_thr)
            t_thr = scan_stop_time(spec_thr).t
            sim_thr = cumulative_cost_adjusted_regret(cc, t_thr, k_thr)
            assert abs(sim_thr - pred_thr.creg_star) / pred_thr.creg_star < 0.25

    def test_one_shot_determinism(self):
        spec = StoppingRuleSpec(PredeterminedOpportunity(consts()), t_max=100)
        a = evaluate(spec, 7)
        b = evaluate(spec, 7)
        assert a.stop == b.stop and a.diagnostics == b.diagnostics
