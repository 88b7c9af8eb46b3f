import json
from pathlib import Path

import numpy as np
import pytest

from banditstop import (
    BoundsConfig,
    ConditionalSamplerConfig,
    EpsGreedy,
    ExperimentConfig,
    KnownSigma,
    Schedule,
    StoppingConfig,
    TrueModel,
    UniformRandom,
    config_to_dict,
    constant_clip,
    run_experiment,
    uniform_cube_spec,
)
from banditstop.cli import main


def write_config(path, **overrides):
    base = dict(
        context=uniform_cube_spec(2),
        model=TrueModel(beta0=[0.2, -0.1], beta1=[0.5, 0.3], sigma0=1.0, sigma1=1.0),
        policy=EpsGreedy(Schedule(0.2)),
        clip=constant_clip(0.1),
        batch_size=30,
        stopping=StoppingConfig(kind="online_threshold", t_max=8, k=0.9),
        sigma_mode=KnownSigma(1.0),
        replications=2,
        master_seed=77,
        inference=ConditionalSamplerConfig(n_samples=300),
        regret_mc_samples=1_000,
    )
    base.update(overrides)
    config = ExperimentConfig(**base)
    path.write_text(json.dumps(config_to_dict(config), indent=2))
    return config


def test_simulate_writes_reports(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path)
    out_dir = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "replications.csv").exists()
    assert (out_dir / "summary.json").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["aggregates"]["replications"] == 2


def test_simulate_reps_and_seed_overrides(tmp_path):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path)
    out_dir = tmp_path / "out"
    rc = main(
        [
            "simulate",
            "--config",
            str(cfg_path),
            "--out",
            str(out_dir),
            "--reps",
            "3",
            "--seed",
            "123",
        ]
    )
    assert rc == 0
    rows = (out_dir / "replications.csv").read_text().splitlines()
    assert len(rows) == 4  # header + 3


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"schema_version\": 1}")
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    rc = main(["simulate", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")])
    assert rc == 2


DEMO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "demo.json"


@pytest.mark.parametrize(
    "path, raw",
    [
        (("sigma_mode", "sigma"), "-1"),  # ran as if valid
        (("sigma_mode", "sigma"), "0"),  # stopped every replication at t=1
        (("stopping", "k"), "NaN"),  # ran every replication to the cap
        (("batch_size",), "null"),  # raw TypeError, exit 3
        (("batch_size",), '"abc"'),  # raw ValueError, exit 3
        (("stopping", "t_max"), "1e400"),  # raw OverflowError, exit 3
        (("batch_size",), "100.7"),  # ran as 100
        (("batch_size",), "true"),  # ran as 1
        (("bounds", "calibration", "t_ref"), "2.5"),  # ran as 2
        (("bounds", "calibration", "replications"), "200.9"),  # ran as 200
        (("bounds", "calibration", "t_ref"), "0"),  # ran every pilot first
        (("bounds", "calibration", "t_ref"), "-2"),
        (("bounds", "calibration", "replications"), "5"),
    ],
)
def test_bad_config_value_exits_2(tmp_path, capsys, path, raw):
    data = json.loads(DEMO_CONFIG.read_text())
    data["replications"] = 1
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@VALUE@"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data).replace('"@VALUE@"', raw))
    out_dir = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err.lower()
    if path != ("sigma_mode", "sigma"):  # KnownSigma checks a value, not a key
        assert ".".join(path) in err
    assert not out_dir.exists()


def test_runtime_error_exit_code_with_per_rep_detail(tmp_path):
    cfg_path = tmp_path / "config.json"
    write_config(
        cfg_path,
        policy=UniformRandom(),
        batch_size=1,
        stopping=StoppingConfig(kind="online_threshold", t_max=2, k=1e9),
        inference=None,
        replications=1,
    )
    out_dir = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 3
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["per_rep_errors"], "per-replication errors should be recorded"


def test_stop_scan(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    write_config(
        cfg_path,
        policy=UniformRandom(),
        batch_size=100,
        clip=constant_clip(0.5),
        stopping=StoppingConfig(kind="predetermined_opportunity", t_max=500),
        bounds=BoundsConfig(
            margin_exponent=1.0,
            margin_const=1.0,
            delta=0.1,
            unit_cost=0.01,
            tail_const=625.0,
            context_bound=1.0,
        ),
        inference=None,
    )
    rc = main(["stop-scan", "--config", str(cfg_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stop_time"] == 10
    assert out["t_star"] == pytest.approx(10.0)


def test_stop_scan_rejects_online_rules(tmp_path):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path)
    assert main(["stop-scan", "--config", str(cfg_path)]) == 2


def test_calibrate_k(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    write_config(
        cfg_path,
        bounds=BoundsConfig(
            margin_exponent=1.0, margin_const=1.0, delta=0.1, unit_cost=0.01
        ),
    )
    rc = main(["calibrate-k", "--config", str(cfg_path), "--t-ref", "4", "--pilot-reps", "20"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tail_const"] > 0


@pytest.mark.parametrize("t_ref", ["0", "-2"])
def test_calibrate_k_rejects_t_ref_below_one(tmp_path, capsys, t_ref):
    cfg_path = tmp_path / "config.json"
    write_config(
        cfg_path,
        bounds=BoundsConfig(
            margin_exponent=1.0, margin_const=1.0, delta=0.1, unit_cost=0.01
        ),
    )
    rc = main(["calibrate-k", "--config", str(cfg_path), "--t-ref", t_ref])
    assert rc == 2
    assert "t_ref" in capsys.readouterr().err


def test_check_assumptions(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path)
    rc = main(["check-assumptions", "--config", str(cfg_path), "--mc-samples", "20000"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bounded_ok"] and out["eigenvalue_ok"]
    assert abs(out["lambda_min_hat"] - 1 / 3) < 0.05


def test_infer_replays_stored_trajectory(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    config = write_config(cfg_path, trajectory_json=True, replications=1)
    out_dir = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    traj = out_dir / "trajectories" / "rep_00000.json"
    assert traj.exists()
    rc = main(["infer", "--config", str(cfg_path), "--trajectory", str(traj)])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    # identical to the in-process inference of the same replication
    record = run_experiment(config, 0)
    np.testing.assert_array_equal(np.asarray(printed["ci_arm1"][0]), record.inference.lo1)
    np.testing.assert_array_equal(np.asarray(printed["ci_arm1"][1]), record.inference.hi1)
    assert printed["stop_time"] == record.stop_time
