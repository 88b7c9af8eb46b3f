import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from banditstop import (
    BoundsConfig,
    ConditionalSamplerConfig,
    ConfigError,
    ContractError,
    EpsGreedy,
    ExperimentConfig,
    KnownSigma,
    ResidualSigma,
    Schedule,
    StoppingRule,
    TrueModel,
    UniformRandom,
    config_from_dict,
    config_to_dict,
    constant_clip,
    cost_adjusted_regret,
    emit_reports,
    prepare,
    regret_bound_from_variance,
    regret_bound_time,
    run_experiment,
    run_replications,
    spectral_norm,
    uniform_cube_spec,
)
from banditstop.harness import resolve_constants
from banditstop.rng import derive_seed, mix64, substream_seed
from replay_oracle import batch_stats, replay_stop_decisions

REPO = Path(__file__).resolve().parents[1]


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        context=uniform_cube_spec(2),
        model=TrueModel(beta0=[0.2, -0.1], beta1=[0.5, 0.3], sigma0=1.0, sigma1=1.0),
        policy=EpsGreedy(Schedule(0.2)),
        clip=constant_clip(0.1),
        batch_size=40,
        stopping=StoppingRule(kind="online_threshold", t_max=12, k=0.6),
        sigma_mode=KnownSigma(1.0),
        replications=4,
        master_seed=2024,
        inference=ConditionalSamplerConfig(n_samples=400),
        regret_mc_samples=2_000,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSeedDerivation:
    def test_frozen_vectors(self):
        # Documented test vectors; alternates must reproduce these exactly.
        assert mix64(0x0) == 0x0000000000000000
        assert mix64(0x1) == 0x5692161D100B05E5
        assert mix64(0x2A) == 0xA759EA27D4727622
        assert mix64(0x123456789ABCDEF0) == 0x9629F58E8EC5B906
        assert derive_seed(0, 0) == 0xE220A8397B1DCDAF
        assert derive_seed(0, 1) == 0x6E789E6AA1B965F4
        assert derive_seed(42, 0) == 0xBDD732262FEB6E95
        assert derive_seed(42, 7) == 0xCCF635EE9E9E2FA4
        assert derive_seed(20260810, 3) == 0x0B51CA9B65577DD3
        assert substream_seed(derive_seed(42, 0), 1) == 0x452D3D3CE5D2ED29

    def test_distinct_reps_distinct_seeds(self):
        seeds = {derive_seed(99, r) for r in range(1000)}
        assert len(seeds) == 1000

    def test_forced_identical_seeds_give_identical_records(self, monkeypatch):
        # The record is a function of the derived seed alone: collapsing the
        # derivation makes different replication indices coincide.
        import banditstop.harness as harness_mod

        config = small_config(replications=2, inference=None)
        fixed = derive_seed(config.master_seed, 0)
        monkeypatch.setattr(harness_mod, "derive_seed", lambda master, rep: fixed)
        a = run_experiment(config, 0)
        b = run_experiment(config, 1)
        assert a.seed == b.seed
        assert a.stop_time == b.stop_time
        np.testing.assert_array_equal(a.ivw.beta1, b.ivw.beta1)
        assert a.regret_hat == b.regret_hat


class TestRunExperiment:
    def test_vacuous_threshold_stops_immediately(self):
        config = small_config(
            policy=UniformRandom(),
            stopping=StoppingRule(kind="online_threshold", t_max=50, k=1e9),
        )
        record = run_experiment(config, 0)
        assert record.stop_time == 1 and not record.cap_hit

    def test_reference_predetermined_stop(self):
        # rate constant 100, unit cost 0.01, batch 100: stops at t=10 for any data.
        config = small_config(
            context=uniform_cube_spec(2),
            policy=UniformRandom(),
            batch_size=100,
            clip=constant_clip(0.5),
            stopping=StoppingRule(kind="predetermined_opportunity", t_max=1000),
            bounds=BoundsConfig(
                margin_exponent=1.0,
                margin_const=1.0,
                delta=0.1,
                unit_cost=0.01,
                tail_const=625.0,
                context_bound=1.0,
            ),
        )
        for rep in range(3):
            record = run_experiment(config, rep)
            assert record.stop_time == 10
        assert record.creg is not None and record.creg.finite
        assert record.creg.value == pytest.approx(
            100.0 / 10 + 0.01 * 100 * 10, rel=1e-12
        )

    def test_bit_identical_reruns(self):
        config = small_config(trajectory_json=True)
        a = run_experiment(config, 2)
        b = run_experiment(config, 2)
        assert a.seed == b.seed and a.stop_time == b.stop_time
        np.testing.assert_array_equal(a.ivw.beta1, b.ivw.beta1)
        np.testing.assert_array_equal(a.ivw.var0, b.ivw.var0)
        np.testing.assert_array_equal(a.inference.lo1, b.inference.lo1)
        assert a.regret_hat == b.regret_hat
        for fa, fb in zip(batch_stats(a.trajectory), batch_stats(b.trajectory)):
            np.testing.assert_array_equal(fa[1], fb[1])

    def test_estimator_unavailable_keeps_sampling(self):
        # One unit per batch: the first batch cannot produce both arm fits, so
        # even a huge threshold cannot fire at t=1.
        config = small_config(
            context=uniform_cube_spec(1),
            model=TrueModel(beta0=[0.1], beta1=[0.4], sigma0=1.0, sigma1=1.0),
            policy=UniformRandom(),
            batch_size=1,
            stopping=StoppingRule(kind="online_threshold", t_max=30, k=1e9),
            inference=None,
            trajectory_json=True,
        )
        record = run_experiment(config, 1)
        assert record.stop_time > 1
        assert "estimator_unavailable" in record.trajectory.stop_trace[0].diagnostics

    def test_replay_stop_decisions(self):
        config = small_config(trajectory_json=True)
        record = run_experiment(config, 3)
        replayed = replay_stop_decisions(record)
        assert len(replayed) == len(record.trajectory.stop_trace)
        for got, logged in zip(replayed, record.trajectory.stop_trace):
            assert got.stop == logged.stop
            assert got.cap_hit == logged.cap_hit
            for key, val in logged.diagnostics.items():
                assert got.diagnostics[key] == pytest.approx(val, rel=1e-12)

    def test_residual_mode_runs(self):
        config = small_config(
            sigma_mode=ResidualSigma(),
            stopping=StoppingRule(kind="online_opportunity", t_max=15, c_prime=0.05),
        )
        record = run_experiment(config, 0)
        assert record.ivw is not None
        assert record.ivw.noise_sd is not None
        assert abs(record.ivw.noise_sd[0] - 1.0) < 0.5  # crude scale sanity


BOUNDS = BoundsConfig(margin_exponent=1.0, margin_const=1.0, delta=0.1, unit_cost=0.01, tail_const=1.0)


def _time_bound(rec, consts):
    return regret_bound_time(rec.stop_time, consts)


def _variance_bound(rec, consts):
    return regret_bound_from_variance(max(spectral_norm(rec.ivw.var0), spectral_norm(rec.ivw.var1)), consts)


# The paper's objective per kind: the regret bound at the stop, from the stop
# time or the terminal variance norms, and the threshold (None: bound plus cost).
OBJECTIVES = {
    "predetermined_opportunity": ({}, _time_bound, lambda consts: None),
    "predetermined_threshold": ({"k": 2.0}, _time_bound, lambda consts: 2.0),
    "online_threshold": ({"k": 0.6}, _variance_bound, lambda consts: regret_bound_from_variance(0.6, consts)),
    "online_opportunity": ({"c_prime": 0.02}, _variance_bound, lambda consts: None),
}


@pytest.mark.parametrize("kind", OBJECTIVES)
def test_creg_is_the_kinds_cost_adjusted_regret(kind):
    keys, bound, threshold = OBJECTIVES[kind]
    config = small_config(stopping=StoppingRule(kind=kind, t_max=11, **keys), bounds=BOUNDS, inference=None)
    consts = resolve_constants(config)
    records, _ = run_replications(config)
    for rec in records:
        assert rec.creg == cost_adjusted_regret(bound(rec, consts), rec.stop_time, consts, threshold(consts))


def test_a_threshold_that_underflows_to_zero_fails_in_prepare():
    # The variance threshold's regret bound, (2 * sqrt(2e-297) * sqrt(2))**4, underflows to 0.0.
    bounds = dataclasses.replace(BOUNDS, margin_exponent=3.0)
    config = small_config(stopping=StoppingRule(kind="online_threshold", t_max=12, k=1e-298), bounds=bounds)
    assert regret_bound_from_variance(1e-298, resolve_constants(config)) == 0.0
    with pytest.raises(ConfigError, match="threshold must be positive"):
        prepare(config)


class TestRunReplications:
    def test_order_and_workers_invariance(self):
        config = small_config(replications=6)
        records_a, agg_a = run_replications(config)
        order = [3, 0, 5, 1, 4, 2]
        records_b, agg_b = run_replications(config, execution_order=order)
        assert [r.rep_index for r in records_a] == [r.rep_index for r in records_b]
        assert json.dumps(agg_a, sort_keys=True) == json.dumps(agg_b, sort_keys=True)
        for ra, rb in zip(records_a, records_b):
            np.testing.assert_array_equal(ra.ivw.beta1, rb.ivw.beta1)

    def test_bad_order_rejected(self):
        config = small_config(replications=3)
        with pytest.raises(ConfigError):
            run_replications(config, execution_order=[0, 1, 1])

    def test_per_rep_failures_recorded_not_raised(self):
        # dim 2 with one unit per batch and a tiny cap: no usable estimate by
        # the cap, so the record carries an error instead of raising.
        config = small_config(
            policy=UniformRandom(),
            batch_size=1,
            stopping=StoppingRule(kind="online_threshold", t_max=2, k=1e9),
            inference=None,
            replications=2,
        )
        records, agg = run_replications(config)
        assert agg["error_count"] == 2
        assert all(r.error is not None for r in records)

    # One replication runs the lone loop, several the lock-step engine.
    @pytest.mark.parametrize("replications", [1, 3])
    def test_records_keep_a_trajectory_only_for_trajectory_files(self, tmp_path, replications):
        config = small_config(replications=replications, inference=None)
        records, agg = run_replications(config)
        assert all(rec.trajectory is None for rec in records)
        asked = dataclasses.replace(config, trajectory_json=True)
        with pytest.raises(ContractError, match="replication 0 kept no trajectory"):
            emit_reports(records, str(tmp_path / "out"), ["csv", "json"], asked, aggregates=agg)
        assert not (tmp_path / "out").exists()

        kept, _ = run_replications(asked)
        assert [rec.trajectory.stop_time for rec in kept] == [rec.stop_time for rec in records]


class TestConfigRoundTrip:
    @pytest.mark.parametrize("variant", ["eps", "ucb", "thompson", "uniform"])
    def test_round_trip(self, variant):
        policy = {
            "eps": EpsGreedy(Schedule(0.3, decay=0.2, floor=0.05)),
            "ucb": __import__("banditstop").Ucb(Schedule(1.0, decay=0.5)),
            "thompson": __import__("banditstop").Thompson(1.3),
            "uniform": UniformRandom(),
        }[variant]
        config = small_config(
            policy=policy,
            bounds=BoundsConfig(
                margin_exponent=1.0,
                margin_const=2.0,
                delta=0.1,
                unit_cost=0.01,
                tail_const=3.0,
            ),
            hypothesis=(np.array([0.2, -0.1]), np.array([0.5, 0.3])),
        )
        d = config_to_dict(config)
        rebuilt = config_from_dict(json.loads(json.dumps(d)))
        assert config_to_dict(rebuilt) == d

    def test_missing_key_is_config_error(self):
        d = config_to_dict(small_config())
        del d["batch_size"]
        with pytest.raises(ConfigError, match="^config key 'batch_size' is missing$"):
            config_from_dict(d)

    def test_truncated_gaussian_round_trip(self):
        from banditstop import ContextSpec, TruncatedGaussian

        spec = ContextSpec(
            dim=2,
            dist=TruncatedGaussian(mean=[0.1, -0.2], cov=[[0.3, 0.05], [0.05, 0.2]], bound=1.0),
            sup_bound=1.0,
        )
        config = small_config(context=spec)
        d = config_to_dict(config)
        assert config_to_dict(config_from_dict(d)) == d

    @pytest.mark.parametrize("name", ["demo.json", "predetermined.json"])
    def test_every_leaf_of_the_wrong_type_names_its_key(self, name):
        data = json.loads((REPO / "configs" / name).read_text())

        def leaves(node, path):  # a list is one leaf
            if not isinstance(node, dict):
                yield path
                return
            for key, value in node.items():
                yield from leaves(value, path + (key,))

        paths = list(leaves(data, ()))
        assert len(paths) > 30
        for path in paths:
            bad = json.loads(json.dumps(data))
            node = bad
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = 1 if isinstance(node[path[-1]], str) else "wrong"
            with pytest.raises(ConfigError, match=re.escape(f"config key '{'.'.join(path)}' ")):
                config_from_dict(bad)

    def test_readme_schema_block_round_trips(self):
        readme = (REPO / "README.md").read_text()
        block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
        data = json.loads(re.sub(r"//.*", "", block))
        assert config_to_dict(config_from_dict(data)) == data


class TestReports:
    def test_single_record_csv(self, tmp_path):
        config = small_config(replications=1)
        records, agg = run_replications(config)
        out = emit_reports(records, str(tmp_path), ["csv"], config, aggregates=agg)
        lines = open(out["replications.csv"]).read().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert header[:8] == [
            "rep",
            "seed",
            "stop_time",
            "cap_hit",
            "regret_hat",
            "creg",
            "var_norm_arm0",
            "var_norm_arm1",
        ]
        assert header[8:] == [
            "ci_lo_arm0_c0",
            "ci_hi_arm0_c0",
            "ci_lo_arm0_c1",
            "ci_hi_arm0_c1",
            "ci_lo_arm1_c0",
            "ci_hi_arm1_c0",
            "ci_lo_arm1_c1",
            "ci_hi_arm1_c1",
            "reject",
        ]

    def test_rerun_byte_identical(self, tmp_path):
        config = small_config(replications=3)
        for sub in ("a", "b"):
            records, agg = run_replications(config)
            emit_reports(
                records, str(tmp_path / sub), ["csv", "json"], config, aggregates=agg,
                timestamp="fixed",
            )
        csv_a = (tmp_path / "a" / "replications.csv").read_bytes()
        csv_b = (tmp_path / "b" / "replications.csv").read_bytes()
        assert csv_a == csv_b
        sum_a = (tmp_path / "a" / "summary.json").read_bytes()
        sum_b = (tmp_path / "b" / "summary.json").read_bytes()
        assert sum_a == sum_b

    def test_summary_recomputable_from_csv(self, tmp_path):
        config = small_config(
            replications=5, hypothesis=(np.array([0.2, -0.1]), np.array([0.5, 0.3]))
        )
        records, agg = run_replications(config)
        paths = emit_reports(records, str(tmp_path), ["csv", "json"], config, aggregates=agg)
        summary = json.load(open(paths["summary.json"]))
        rows = [
            line.split(",")
            for line in open(paths["replications.csv"]).read().splitlines()[1:]
        ]
        header = open(paths["replications.csv"]).readline().strip().split(",")
        col = {name: i for i, name in enumerate(header)}

        stop_times = [int(r[col["stop_time"]]) for r in rows]
        assert summary["aggregates"]["stop_time_mean"] == pytest.approx(
            float(np.mean(stop_times)), abs=1e-9
        )
        hist = {}
        for t in stop_times:
            hist[str(t)] = hist.get(str(t), 0) + 1
        assert summary["aggregates"]["stop_time_hist"] == hist

        regrets = [float(r[col["regret_hat"]]) for r in rows if r[col["regret_hat"]]]
        assert summary["aggregates"]["regret_hat_mean"] == pytest.approx(
            float(np.mean(regrets)), abs=1e-9
        )
        assert summary["aggregates"]["regret_hat_sd"] == pytest.approx(
            float(np.std(regrets)), abs=1e-9
        )

        beta0 = summary["config"]["model"]["beta0"]
        beta1 = summary["config"]["model"]["beta1"]
        for arm, betas in ((0, beta0), (1, beta1)):
            for j, beta in enumerate(betas):
                lo = [float(r[col[f"ci_lo_arm{arm}_c{j}"]]) for r in rows]
                hi = [float(r[col[f"ci_hi_arm{arm}_c{j}"]]) for r in rows]
                cov = float(np.mean([l <= beta <= h for l, h in zip(lo, hi)]))
                assert summary["aggregates"][f"ci_coverage_arm{arm}"][j] == pytest.approx(
                    cov, abs=1e-9
                )

        rejects = [r[col["reject"]] == "true" for r in rows if r[col["reject"]]]
        assert summary["aggregates"]["reject_rate"] == pytest.approx(
            float(np.mean(rejects)), abs=1e-9
        )

    def test_unwritable_out_dir_fails_before_summary(self, tmp_path):
        config = small_config(replications=1)
        records, agg = run_replications(config)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        target = blocker / "out"  # cannot exist: parent is a regular file
        with pytest.raises(OSError):
            emit_reports(records, str(target), ["json"], config, aggregates=agg)
        assert not target.exists()

    def test_failed_csv_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        config = small_config(replications=2)
        records, agg = run_replications(config)
        real_fdopen = os.fdopen

        def failing_fdopen(fd, *args, **kwargs):
            fh = real_fdopen(fd, *args, **kwargs)
            real_write = fh.write

            def write(text):
                real_write(text[: len(text) // 2])
                fh.flush()
                raise OSError("disk full")

            fh.write = write
            return fh

        traj_config = small_config(replications=2, trajectory_json=True)
        traj_records, traj_agg = run_replications(traj_config)
        monkeypatch.setattr(os, "fdopen", failing_fdopen)
        with pytest.raises(OSError, match="disk full"):
            emit_reports(records, str(tmp_path), ["csv"], config, aggregates=agg)
        assert list(tmp_path.iterdir()) == []  # neither replications.csv nor a *.tmp
        traj_out = tmp_path / "traj"
        with pytest.raises(OSError, match="disk full"):
            emit_reports(traj_records, str(traj_out), [], traj_config, aggregates=traj_agg)
        assert list((traj_out / "trajectories").iterdir()) == []  # neither rep_*.json nor a *.tmp

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_report_mode_follows_umask(self, tmp_path, umask, mode):
        config = small_config(replications=2, trajectory_json=True)
        records, agg = run_replications(config)
        previous = os.umask(umask)
        try:
            emit_reports(records, str(tmp_path), ["csv", "json"], config, aggregates=agg)
        finally:
            os.umask(previous)
        trajectories = [f"trajectories/rep_{r:05d}.json" for r in range(2)]
        for name in ["replications.csv", "summary.json", *trajectories]:
            assert (tmp_path / name).stat().st_mode & 0o777 == mode, name

    def test_infinite_creg_marker(self, tmp_path):
        # Threshold-mode cost with a cap hit above the threshold serializes as
        # an explicit marker, never a float special value.
        config = small_config(
            policy=UniformRandom(),
            batch_size=30,
            stopping=StoppingRule(kind="predetermined_threshold", t_max=3, k=0.5),
            bounds=BoundsConfig(
                margin_exponent=1.0,
                margin_const=1.0,
                delta=0.1,
                unit_cost=0.01,
                tail_const=625.0,
                context_bound=1.0,
            ),
            clip=constant_clip(0.5),
            inference=None,
            replications=1,
        )
        records, agg = run_replications(config)
        assert records[0].cap_hit and not records[0].creg.finite
        out = emit_reports(records, str(tmp_path), ["csv"], config, aggregates=agg)
        body = open(out["replications.csv"]).read()
        assert "INFINITE" in body
        assert "inf," not in body.lower().replace("INFINITE".lower(), "")
