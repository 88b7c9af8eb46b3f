import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from banditstop import (
    BoundsConfig,
    CalibrationConfig,
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
from banditstop import bounds
from banditstop.cli import main
from banditstop.harness import load_config, resolve_constants


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
    bad.write_text("[]")  # was exit 3: 'list' object has no attribute 'get'
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
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
        (("trajectory_json",), '"no"'),  # bool("no") wrote the trajectories
        (("inference", "bonferroni"), '"false"'),  # read as true
        (("stopping", "scale_by_batch"), "1"),  # read as true
        (("model", "sigma0"), '"abc"'),  # bare float() message
        (("bounds", "delta"), "null"),  # bare float() message
        (("context", "sup_bound"), "Infinity"),  # ran as if valid
        (("model", "beta0"), "[0.2, NaN]"),  # ran, stop time 124 instead of 125
        (("policy", "eps"), "0.2"),  # 'float' object is not subscriptable
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

    # No closed form beyond margin exponent 1: reported, not an error.
    data = json.loads(cfg_path.read_text())
    data["bounds"]["margin_exponent"] = 2.0
    cfg_path.write_text(json.dumps(data))
    rc = main(["stop-scan", "--config", str(cfg_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert "margin exponent 1" in out["closed_form_unavailable"]
    assert "t_star" not in out


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

    # On a config with a calibration block, the constant a simulation would use.
    config = write_config(
        cfg_path,
        bounds=BoundsConfig(
            margin_exponent=1.0,
            margin_const=1.0,
            delta=0.1,
            unit_cost=0.01,
            calibration=CalibrationConfig(t_ref=4, replications=20),
        ),
    )
    rc = main(["calibrate-k", "--config", str(cfg_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tail_const"] == resolve_constants(config).tail_const


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


def test_infer_calibrates_only_for_predetermined_rules(tmp_path, capsys):
    demo = json.loads((Path(__file__).parents[1] / "configs" / "demo.json").read_text())
    demo["replications"] = 1
    cfg_path = tmp_path / "demo.json"
    cfg_path.write_text(json.dumps(demo))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "demo")]) == 0
    capsys.readouterr()
    traj = tmp_path / "demo" / "trajectories" / "rep_00000.json"
    # The online rule needs no tail constant, so infer must not calibrate.
    refuse = AssertionError("calibrated")
    with mock.patch.object(bounds, "calibrate_tail_constant", side_effect=refuse):
        assert main(["infer", "--config", str(cfg_path), "--trajectory", str(traj)]) == 0
    printed = json.loads(capsys.readouterr().out)
    record = run_experiment(load_config(str(cfg_path)), 0)
    assert printed["stop_time"] == record.stop_time
    assert printed["beta0"] == record.ivw.beta0.tolist() and printed["beta1"] == record.ivw.beta1.tolist()
    assert printed["ci_arm0"] == [record.inference.lo0.tolist(), record.inference.hi0.tolist()]
    assert printed["ci_arm1"] == [record.inference.lo1.tolist(), record.inference.hi1.tolist()]
    assert printed["samples_retained"] == record.inference.samples_retained

    cfg_path = tmp_path / "predetermined.json"
    write_config(
        cfg_path,
        policy=UniformRandom(),
        stopping=StoppingConfig(kind="predetermined_opportunity", t_max=8),
        bounds=BoundsConfig(
            margin_exponent=1.0, margin_const=1.0, delta=0.1, unit_cost=0.01,
            calibration=CalibrationConfig(t_ref=3, replications=10),
        ),
        trajectory_json=True,
        replications=1,
    )
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "pre")]) == 0
    traj = tmp_path / "pre" / "trajectories" / "rep_00000.json"
    with mock.patch.object(bounds, "calibrate_tail_constant", wraps=bounds.calibrate_tail_constant) as cal:
        assert main(["infer", "--config", str(cfg_path), "--trajectory", str(traj)]) == 0
    assert cal.call_count == 1


def stored_trajectory(tmp_path):
    """Config path and trajectory path of one simulated 2-d replication."""
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path, trajectory_json=True, replications=1)
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    return cfg_path, out_dir / "trajectories" / "rep_00000.json"


@pytest.mark.parametrize(
    "case, expected",
    [
        ("3-d config", "must have shape (3,), got (2,)"),  # exit 0, 2-d intervals
        ("no terminal.var0", "'terminal.var0' is missing"),  # runtime error: 'var0'
        ('stop_time "abc"', "'stop_time' must be an integer"),  # exit 3
        ("missing file", "cannot read trajectory file"),  # exit 3
    ],
    ids=["dim_mismatch", "missing_var0", "stop_time_string", "missing_file"],
)
def test_infer_rejects_a_bad_trajectory(tmp_path, capsys, case, expected):
    cfg_path, traj = stored_trajectory(tmp_path)
    payload = json.loads(traj.read_text())
    if case == "3-d config":
        write_config(
            cfg_path,
            context=uniform_cube_spec(3),
            model=TrueModel(beta0=[0.2, -0.1, 0.0], beta1=[0.5, 0.3, 0.1]),
        )
    elif case == "no terminal.var0":
        del payload["terminal"]["var0"]
    elif case == 'stop_time "abc"':
        payload["stop_time"] = "abc"
    else:
        traj = tmp_path / "missing.json"
    if traj.exists():
        traj.write_text(json.dumps(payload))
    capsys.readouterr()
    rc = main(["infer", "--config", str(cfg_path), "--trajectory", str(traj)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and expected in err
