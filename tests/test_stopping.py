import dataclasses
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from banditstop import (
    BoundConstants,
    ConfigError,
    ContractError,
    EpsGreedy,
    KnownSigma,
    ResidualSigma,
    Schedule,
    SimulationSetup,
    StoppingRule,
    TrueModel,
    UnsupportedCaseError,
    closed_form_stop_time,
    config_from_dict,
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
        spec = StoppingRule("online_threshold", t_max=100, k=1.0)
        d = evaluate(spec, 3, current=(0.7, 0.5))
        assert d.stop and not d.cap_hit
        assert d.diagnostics == {}  # an online rule logs nothing
        assert evaluate(spec, 3, current=(1.0, 1.0)).stop  # a norm at k stops
        assert not evaluate(spec, 3, current=(np.nextafter(1.0, 2.0), 0.5)).stop

    def test_threshold_requires_both_arms(self):
        spec = StoppingRule("online_threshold", t_max=100, k=1.0)
        assert not evaluate(spec, 3, current=(1.4, 0.5)).stop

    def test_opportunity_decrements(self):
        spec = StoppingRule("online_opportunity", t_max=100, c_prime=0.02)
        prev = (1.0, 1.0)
        stop_case = evaluate(spec, 2, current=(0.99, 0.985), previous=prev)
        assert stop_case.stop  # decrements 0.01 and 0.015
        cont_case = evaluate(spec, 2, current=(0.99, 0.95), previous=prev)
        assert not cont_case.stop  # decrement 0.05 too large

    def test_negative_decrement_counts_as_stop(self):
        spec = StoppingRule("online_opportunity", t_max=100, c_prime=0.02)
        prev = (1.0, 1.0)
        d = evaluate(spec, 2, current=(1.05, 1.01), previous=prev)
        assert d.stop

    def test_opportunity_needs_history(self):
        spec = StoppingRule("online_opportunity", t_max=100, c_prime=0.02)
        d = evaluate(spec, 1, current=(1.0, 1.0), previous=None)
        assert not d.stop and d.diagnostics == {}
        assert evaluate(spec, 1, current=(1.0, 1.0), previous=(1.0, 1.0)).stop

    def test_missing_estimates_continue(self):
        spec = StoppingRule("online_threshold", t_max=100, k=1.0)
        d = evaluate(spec, 1, current=None)
        assert not d.stop and d.diagnostics == {}
        opportunity = StoppingRule("online_opportunity", t_max=100, c_prime=0.02)
        assert not evaluate(opportunity, 2, current=None, previous=(1.0, 1.0)).stop

    def test_scaled_opportunity_level(self):
        spec = StoppingRule("online_opportunity", t_max=50, c_prime=0.001, scale_by_batch=True, batch_size=100)
        prev = (1.0, 1.0)
        d = evaluate(spec, 2, current=(0.95, 0.95), previous=prev)
        assert d.stop  # level 0.1 vs decrements 0.05
        assert not evaluate(dataclasses.replace(spec, scale_by_batch=False), 2, (0.95, 0.95), prev).stop
        # Decrements of exactly the level 0.001 * 100 stop, and one just above it does not.
        level = 0.001 * 100
        assert evaluate(spec, 2, current=(0.0, 0.0), previous=(level, level)).stop
        assert not evaluate(spec, 2, current=(0.0, 0.0), previous=(level, np.nextafter(level, 1.0))).stop

    def test_cap(self):
        spec = StoppingRule("online_threshold", t_max=4, k=1e-9)
        d = evaluate(spec, 4, current=(1.0, 1.0))
        assert d.stop and d.cap_hit


class TestCarriedNorms:
    """The lone loop carries each batch's variance norms to the next, so the
    opportunity rule costs no eigenvalue call that the threshold rule does not."""

    def run(self, rule, sigma_mode):
        setup = SimulationSetup(
            context=uniform_cube_spec(2), policy=EpsGreedy(Schedule(0.2)), clip=constant_clip(0.1),
            batch_size=20, sigma_mode=sigma_mode, rule=rule,
        )
        model = TrueModel(beta0=[0.2, -0.1], beta1=[0.45, 0.25])
        eigvalsh = mock.Mock(wraps=linalg.eigvalsh)
        calls = []

        def counted_evaluate(rule, t, current=None, previous=None):
            decision = stopping.evaluate(rule, t, current, previous)
            calls.append((eigvalsh.call_count, t, current, previous))
            return decision

        with mock.patch.object(linalg, "eigvalsh", eigvalsh), mock.patch.object(
            stopping, "eigvalsh", eigvalsh
        ), mock.patch.object(simulate, "evaluate", counted_evaluate):
            traj = simulate.simulate_trajectory(setup, model, make_rng(3))
        return np.diff([0] + [call[0] for call in calls]).tolist(), traj, [call[1:] for call in calls]

    @pytest.mark.parametrize("sigma_mode", [KnownSigma(1.0), ResidualSigma()])
    def test_same_eigenvalue_calls_per_batch(self, sigma_mode):
        per_threshold, threshold, _ = self.run(StoppingRule("online_threshold", t_max=25, k=1e-9), sigma_mode)
        per_opportunity, opportunity, _ = self.run(StoppingRule("online_opportunity", t_max=25, c_prime=1e-9), sigma_mode)
        common = min(threshold.stop_time, opportunity.stop_time)
        assert common > 10 and min(per_threshold) > 0
        assert per_opportunity[:common] == per_threshold[:common]

    def test_decrement_is_carried_norm_minus_current(self):
        _, traj, calls = self.run(StoppingRule("online_opportunity", t_max=25, c_prime=1e-9), KnownSigma(1.0))
        assert [t for t, _, _ in calls] == list(range(1, traj.stop_time + 1))
        assert calls[0][2] is None
        checked = 0
        for (_, before, _), (_, current, previous) in zip(calls, calls[1:]):
            assert (previous is None) == (before is None)
            if before is None:  # no estimate, so no norms, at that batch
                continue
            assert np.array(previous).tobytes() == np.array(before).tobytes()
            checked += 1
        assert checked > 10


class TestEvaluatePredetermined:
    def test_reference_opportunity_scan(self):
        # rate constant 100 and batch cost 1: first stop where t(t+1) >= 100.
        c = consts()
        assert c.rate_const == pytest.approx(100.0)
        spec = StoppingRule("predetermined_opportunity", t_max=1000, consts=c)
        assert not evaluate(spec, 9).stop   # 9*10 = 90 < 100
        assert evaluate(spec, 10).stop      # 10*11 = 110 >= 100
        assert scan_stop_time(spec).t == 10

    def test_data_independence(self):
        c = consts()
        spec = StoppingRule("predetermined_opportunity", t_max=1000, consts=c)
        with_data = evaluate(spec, 10, current=(9.0, 9.0), previous=(9.5, 9.5))
        without = evaluate(spec, 10)
        assert with_data.stop == without.stop
        assert with_data.diagnostics == without.diagnostics

    def test_monotone_once_stopped(self):
        c = consts()
        spec = StoppingRule("predetermined_opportunity", t_max=1000, consts=c)
        first = scan_stop_time(spec).t
        assert all(evaluate(spec, t).stop for t in range(first, first + 50))

    def test_threshold_scan(self):
        c = consts()
        spec = StoppingRule("predetermined_threshold", t_max=1000, k=8.0, consts=c)
        # bound(t) = 100/t <= 8 first at t = 13
        assert scan_stop_time(spec).t == 13


class TestClosedForm:
    def test_opportunity_substitution(self):
        # rate constant 100, unit cost 0.01, batch 100 -> t* = sqrt(100/1) = 10
        pred = closed_form_stop_time(StoppingRule("predetermined_opportunity", t_max=10_000, consts=consts()))
        assert pred.t_star == pytest.approx(10.0)
        assert pred.creg_star == pytest.approx(100.0 * math.log(10.0) + 10.0)

    def test_threshold_substitution(self):
        # regret_const 50: K=12.5, M=1, L=1 -> 4*12.5 = 50; p=0.5, n=10, k=2 -> t*=10
        c = consts(K=12.5, M=1.0, L=1.0, c=0.01, n=10, p=0.5)
        assert c.regret_const == pytest.approx(50.0)
        pred = closed_form_stop_time(StoppingRule("predetermined_threshold", t_max=10_000, k=2.0, consts=c))
        assert pred.t_star == pytest.approx(10.0)
        assert pred.creg_star == pytest.approx(0.01 * 10 * 10.0)

    def test_non_unit_margin_rejected(self):
        c = consts(lam=0.7)
        with pytest.raises(UnsupportedCaseError):
            closed_form_stop_time(StoppingRule("predetermined_opportunity", t_max=10_000, consts=c))

    def test_online_rule_rejected(self):
        with pytest.raises(ContractError):
            closed_form_stop_time(StoppingRule("online_threshold", t_max=10_000, k=1.0))

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
            spec = StoppingRule("predetermined_opportunity", t_max=10_000, consts=cc)
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
            spec = StoppingRule("predetermined_opportunity", t_max=10_000, consts=cc)
            pred = closed_form_stop_time(spec)
            t_stop = scan_stop_time(spec).t
            sim = cumulative_cost_adjusted_regret(cc, t_stop)
            assert abs(sim - pred.creg_star) / pred.creg_star < 0.25

            k_thr = cc.rate_const / target
            spec_thr = StoppingRule("predetermined_threshold", t_max=10_000, k=k_thr, consts=cc)
            pred_thr = closed_form_stop_time(spec_thr)
            t_thr = scan_stop_time(spec_thr).t
            sim_thr = cumulative_cost_adjusted_regret(cc, t_thr, k_thr)
            assert abs(sim_thr - pred_thr.creg_star) / pred_thr.creg_star < 0.25

    def test_one_shot_determinism(self):
        spec = StoppingRule("predetermined_opportunity", t_max=100, consts=consts())
        a = evaluate(spec, 7)
        b = evaluate(spec, 7)
        assert a.stop == b.stop and a.diagnostics == b.diagnostics



# A valid rule of each kind; each case below changes it in one field.
_VALID = {
    "predetermined_opportunity": {},
    "predetermined_threshold": {"k": 1.0},
    "online_threshold": {"k": 1.0},
    "online_opportunity": {"c_prime": 0.1},
}
_THRESHOLD = ("predetermined_threshold", "online_threshold")
_OPPORTUNITY = ("predetermined_opportunity", "online_opportunity")
_INVALID = [
    ("online_threshold", {"kind": "online_treshold"}, "unknown stopping kind 'online_treshold'"),
    ("online_threshold", {"t_max": 0}, "t_max must be >= 1"),
    *((kind, {"k": k}, "threshold rules need k > 0") for kind in _THRESHOLD for k in (None, 0.0, -1.0)),
    *((kind, {"k": math.inf}, "stopping.k must be finite") for kind in _THRESHOLD),
    ("online_opportunity", {"c_prime": 0.0}, "online_opportunity needs c_prime > 0"),
    ("online_opportunity", {"c_prime": math.nan}, "stopping.c_prime must be finite"),
    *((kind, {"k": 1.0}, "stopping.k is not read by stopping kind") for kind in _OPPORTUNITY),
    *((kind, {"c_prime": 0.1}, "stopping.c_prime is not read by stopping kind") for kind in _THRESHOLD),
    *(
        (kind, {"scale_by_batch": True}, "stopping.scale_by_batch is not read by stopping kind")
        for kind in _VALID
        if kind != "online_opportunity"
    ),
    ("online_opportunity", {"batch_size": 0}, "batch_size must be >= 1"),
]


@pytest.mark.parametrize(
    "kind, change, message", [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in _INVALID]
)
def test_invalid_rule_rejected(kind, change, message):
    """Built directly, not read from a config: every check of the rule."""
    StoppingRule(kind, t_max=10, **_VALID[kind])
    with pytest.raises(ConfigError, match=re.escape(message)):
        StoppingRule(**{"kind": kind, "t_max": 10, **_VALID[kind], **change})


@pytest.mark.parametrize("kind", ["predetermined_opportunity", "predetermined_threshold"])
def test_predetermined_rule_without_constants(kind):
    """A pre-determined rule as a config's `stopping` section holds it
    (`config.stopping`), before `prepare` sets its bound constants, names its
    kind instead of failing on None."""
    rule = StoppingRule(kind, t_max=10, **_VALID[kind])
    for call in (lambda: evaluate(rule, 1), lambda: scan_stop_time(rule), lambda: closed_form_stop_time(rule)):
        with pytest.raises(ContractError, match=f"stopping kind '{kind}' reads bound constants"):
            call()



def test_a_config_gives_its_rule_its_batch_size():
    """The rule read from a config carried batch_size 1, so a scaled
    opportunity level read c_prime, where the run used c_prime * batch_size."""
    data = json.loads((Path(__file__).resolve().parents[1] / "configs" / "demo.json").read_text())
    data["stopping"] = {"kind": "online_opportunity", "t_max": 200, "c_prime": 0.001, "scale_by_batch": True}
    config = config_from_dict(data)
    # Under scale_by_batch at demo's batch size 100 a decrement of 0.05
    # stops, as it would not at the unscaled level 0.001; the level is
    # 0.001 * 100 exactly.
    rule, level = config.stopping, 0.001 * 100
    assert evaluate(rule, 2, (0.95, 0.95), (1.0, 1.0)).stop
    assert not evaluate(dataclasses.replace(rule, batch_size=1), 2, (0.95, 0.95), (1.0, 1.0)).stop
    assert evaluate(rule, 2, (0.0, 0.0), (level, level)).stop
    assert not evaluate(rule, 2, (0.0, 0.0), (np.nextafter(level, 1.0), level)).stop
    assert dataclasses.replace(config, batch_size=50).stopping.batch_size == 50


def test_scaled_opportunity_rule_without_batch_size():
    """Built directly, not read from a config, a rule has no batch size to
    scale by, and evaluating it names its kind."""
    rule = StoppingRule("online_opportunity", t_max=10, c_prime=0.001, scale_by_batch=True)
    assert rule.batch_size is None
    with pytest.raises(ContractError, match="stopping kind 'online_opportunity' scales c_prime by the batch size"):
        evaluate(rule, 2, (0.9, 0.9), (1.0, 1.0))
