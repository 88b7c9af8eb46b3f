import dataclasses
import json
import os
import shlex
import subprocess
import sys
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
    ResidualSigma,
    Schedule,
    StoppingRule,
    Thompson,
    TrueModel,
    Ucb,
    UniformRandom,
    config_to_dict,
    constant_clip,
    run_experiment,
    uniform_cube_spec,
)
from banditstop import bounds, cli
from banditstop.cli import main
from banditstop.errors import ConfigError
from banditstop.harness import inference_exact, load_config, resolve_constants


def write_config(path, **overrides):
    base = dict(
        context=uniform_cube_spec(2),
        model=TrueModel(beta0=[0.2, -0.1], beta1=[0.5, 0.3], sigma0=1.0, sigma1=1.0),
        policy=EpsGreedy(Schedule(0.2)),
        clip=constant_clip(0.1),
        batch_size=30,
        stopping=StoppingRule(kind="online_threshold", t_max=8, k=0.9),
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


def test_simulate_rejects_an_unknown_format(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path)
    out_dir = tmp_path / "out"
    # Exited 0 and wrote replications.csv alone.
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--format", "csv,jsn"])
    assert rc == 2
    assert "--format entry 'jsn' is not csv or json" in capsys.readouterr().err
    assert not out_dir.exists()
    # Ran every replication, wrote no file and exited 0.
    with mock.patch("banditstop.cli.run_replications") as run:
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--format", ","])
    assert rc == 2
    assert "--format ',' names no format" in capsys.readouterr().err
    run.assert_not_called()
    assert not out_dir.exists()


# Each was masked to 64 bits: --seed -1 ran as 2**64 - 1, and 2**64 as 0.
@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("where", ["--seed", "master_seed"])
def test_a_seed_outside_u64_exits_2(tmp_path, capsys, where, seed):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path)
    args = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    if where == "--seed":
        args += ["--seed", str(seed)]
    else:
        data = json.loads(cfg_path.read_text())
        data["master_seed"] = seed
        cfg_path.write_text(json.dumps(data))
    with mock.patch("banditstop.cli.run_replications") as run:
        assert main(args) == 2
    assert f"master_seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
    run.assert_not_called()


def test_the_u64_seed_range_ends_are_accepted(tmp_path):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path, replications=1)
    for seed in ("0", str(2**64 - 1)):
        args = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / seed), "--seed", seed]
        assert main(args) == 0


def test_banditstop_imports_scipy_only_for_thompson(tmp_path):
    """A fresh process, since this one has scipy loaded already: an
    epsilon-greedy simulate loads no scipy module, and a Thompson one loads
    `scipy.special` when it first needs it."""
    greedy, thompson = tmp_path / "greedy.json", tmp_path / "thompson.json"
    write_config(greedy)
    write_config(thompson, policy=Thompson(1.0), replications=1, inference=None)
    script = """if True:
        import sys
        from banditstop.cli import main
        assert main(["simulate", "--config", sys.argv[1], "--out", sys.argv[3]]) == 0
        loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        assert not loaded, loaded
        assert main(["simulate", "--config", sys.argv[2], "--out", sys.argv[4]]) == 0
        assert "scipy.special" in sys.modules
    """
    src = str(Path(__import__("banditstop").__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = [str(tmp_path / "out_greedy"), str(tmp_path / "out_thompson")]
    done = subprocess.run(
        [sys.executable, "-c", script, str(greedy), str(thompson), *out],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out_thompson" / "summary.json").exists()


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


# Values that the config's types admit and its dataclasses reject.
SECTION_CHECKED = {
    (("sigma_mode", "sigma"), "-1"),
    (("sigma_mode", "sigma"), "0"),
    (("clip", "decay"), "-1"),
    (("policy", "eps", "floor"), "0.5"),
    (("inference", "mode"), '"x"'),
    (("bounds", "margin_const"), "0"),
    (("bounds", "delta"), "0"),
    (("bounds", "delta"), "1"),
    (("bounds", "unit_cost"), "-1"),
}


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
        (("regret_mc_samples",), "0"),  # runtime error: n must be >= 1, exit 3
        (("regret_mc_samples",), "-3"),
        (("stopping", "c_prime"), "0.05"),  # online_threshold never read it
        (("stopping", "scale_by_batch"), "true"),  # online_threshold never read it
        (("policy", "kind"), '"greedy"'),  # an unknown kind of a tagged section
        (("context", "dist", "kind"), '"ball"'),
        (("schema_version",), "true"),  # read as version 1
        # Each named no key.
        (("clip", "decay"), "-1"),
        (("policy", "eps", "floor"), "0.5"),
        (("inference", "mode"), '"x"'),
        # Each named no key.
        (("bounds", "margin_const"), "0"),  # failed only after the 200 pilots
        (("bounds", "delta"), "0"),
        (("bounds", "unit_cost"), "-1"),  # failed only after the 200 pilots
        (("bounds", "delta"), "1"),  # a calibration needs delta < 1
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
    if (path, raw) in SECTION_CHECKED:  # the section's dataclass checks the value, and the message names the section
        assert f"config key '{'.'.join(path[:-1])}': " in err
    else:
        assert ".".join(path) in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "stopping",
    [  # each loaded with demo's k 0.05, which these rules never read
        {"kind": "online_opportunity", "c_prime": 0.05},
        {"kind": "predetermined_opportunity"},
    ],
)
def test_k_under_an_opportunity_rule_exits_2(tmp_path, capsys, stopping):
    data = json.loads(DEMO_CONFIG.read_text())
    data["replications"] = 1
    data["stopping"].update(stopping)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    out_dir = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error: stopping.k is not read by stopping kind {stopping['kind']!r}" in err
    assert not out_dir.exists()


def test_overflowing_rewards_exit_2(tmp_path, capsys):
    # x . beta1 reaches -1e600: the regret Monte Carlo would read NaN.
    data = json.loads(DEMO_CONFIG.read_text())
    data["context"]["sup_bound"] = 1e300
    data["context"]["dist"]["lower"] = [-1e300, -1.0]
    data["model"]["beta1"] = [1e300, 0.0]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    out_dir = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err.lower() and "model.beta1" in err
    assert not out_dir.exists()


def test_runtime_error_exit_code_with_per_rep_detail(tmp_path):
    cfg_path = tmp_path / "config.json"
    write_config(
        cfg_path,
        policy=UniformRandom(),
        batch_size=1,
        stopping=StoppingRule(kind="online_threshold", t_max=2, k=1e9),
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
        stopping=StoppingRule(kind="predetermined_opportunity", t_max=500),
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


# `stop-scan`'s whole stdout, for either pre-determined kind stopping by its
# rule and at the cap: the one place that prints a rule's diagnostics.
_SCAN_STDOUT = {
    ("predetermined_opportunity", 500): """{
  "cap_hit": false,
  "creg_star": 240.25850929940458,
  "diagnostics": {
    "batch_cost": 1.0,
    "bound_t": 10.000000000000002,
    "bound_t_next": 9.090909090909093
  },
  "stop_time": 10,
  "t_star": 10.0
}
""",
    ("predetermined_opportunity", 6): """{
  "cap_hit": true,
  "creg_star": 240.25850929940458,
  "diagnostics": {
    "batch_cost": 1.0,
    "bound_t": 16.666666666666668,
    "bound_t_next": 14.285714285714285,
    "cap": 6.0
  },
  "stop_time": 6,
  "t_star": 10.0
}
""",
    ("predetermined_threshold", 500): """{
  "cap_hit": false,
  "creg_star": 12.5,
  "diagnostics": {
    "bound_t": 7.692307692307692,
    "threshold": 8.0
  },
  "stop_time": 13,
  "t_star": 12.5
}
""",
    ("predetermined_threshold", 6): """{
  "cap_hit": true,
  "creg_star": 12.5,
  "diagnostics": {
    "bound_t": 16.666666666666668,
    "cap": 6.0,
    "threshold": 8.0
  },
  "stop_time": 6,
  "t_star": 12.5
}
""",
}


@pytest.mark.parametrize("kind, t_max", list(_SCAN_STDOUT), ids=[f"{k}-{t}" for k, t in _SCAN_STDOUT])
def test_stop_scan_stdout(tmp_path, capsys, kind, t_max):
    cfg_path = tmp_path / "config.json"
    write_config(
        cfg_path,
        policy=UniformRandom(),
        batch_size=100,
        clip=constant_clip(0.5),
        stopping=StoppingRule(kind=kind, t_max=t_max, k=8.0 if kind.endswith("threshold") else None),
        bounds=BoundsConfig(
            margin_exponent=1.0, margin_const=1.0, delta=0.1, unit_cost=0.01, tail_const=625.0, context_bound=1.0
        ),
        inference=None,
    )
    assert main(["stop-scan", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out == _SCAN_STDOUT[kind, t_max]


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

    # Without a calibration block or --pilot-reps, a calibration block's default count.
    rc = main(["calibrate-k", "--config", str(cfg_path), "--t-ref", "4"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["pilot_replications"] == CalibrationConfig.replications == 200

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


_MARGINS = BoundsConfig(margin_exponent=0.5, margin_const=2.5, delta=0.1, unit_cost=0.01, tail_const=1.0)


@pytest.mark.parametrize("bounds", [None, _MARGINS], ids=["none", "set"])
def test_check_assumptions_shows_the_configs_margin_constants(tmp_path, capsys, bounds):
    # The estimates were printed without the constants the bounds assume.
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path, bounds=bounds)
    assert main(["check-assumptions", "--config", str(cfg_path), "--mc-samples", "20000"]) == 0
    out = json.loads(capsys.readouterr().out)
    want = (None, None) if bounds is None else (2.5, 0.5)
    assert (out["margin_const"], out["margin_exponent"]) == want
    assert out["margin_scale_hat"] > 0 and out["margin_exponent_hat"] > 0


def test_check_assumptions_rejects_too_few_mc_samples(tmp_path, capsys):
    # Exited 3 with a runtime error.
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path)
    rc = main(["check-assumptions", "--config", str(cfg_path), "--mc-samples", "999"])
    assert rc == 2
    assert "config error: --mc-samples must be >= 1000, got 999" in capsys.readouterr().err


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


def test_infer_replays_a_residual_sigma_trajectory_through_resimulation(tmp_path, capsys):
    # The surrogates run under the stored plug-in noise scales, so the
    # intervals equal the in-process ones only if those reach the file intact.
    cfg_path = tmp_path / "config.json"
    config = write_config(
        cfg_path,
        sigma_mode=ResidualSigma(),
        stopping=StoppingRule(kind="online_threshold", t_max=20, k=2.0),
        inference=ConditionalSamplerConfig(mode="resimulation_rejection", n_samples=100, max_attempts=1000),
        trajectory_json=True,
    )
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    traj = out_dir / "trajectories" / "rep_00000.json"
    assert main(["infer", "--config", str(cfg_path), "--trajectory", str(traj)]) == 0
    printed = json.loads(capsys.readouterr().out)
    record = run_experiment(config, 0)
    assert json.loads(traj.read_text())["noise_plugin"] == list(record.ivw.noise_sd)
    assert record.ivw.noise_sd[0] != record.ivw.noise_sd[1]  # residual, not the known scale
    assert not record.cap_hit and printed["stop_time"] == record.stop_time
    assert printed["samples_retained"] == record.inference.samples_retained == 100
    assert printed["acceptance_rate"] == record.inference.acceptance_rate < 1.0
    assert printed["ci_arm0"] == [record.inference.lo0.tolist(), record.inference.hi0.tolist()]
    assert printed["ci_arm1"] == [record.inference.lo1.tolist(), record.inference.hi1.tolist()]


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
        stopping=StoppingRule(kind="predetermined_opportunity", t_max=8),
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


OPPORTUNITY = StoppingRule(kind="online_opportunity", t_max=8, c_prime=0.001, scale_by_batch=True)
# Under `write_config`'s design and the bound constants of the test below, each
# rule fires before its cap (the pre-determined ones at t = 11 and 12).
EVERY_KIND = {
    "predetermined_opportunity": StoppingRule(kind="predetermined_opportunity", t_max=20),
    "predetermined_threshold": StoppingRule(kind="predetermined_threshold", t_max=20, k=1500.0),
    "online_threshold": StoppingRule(kind="online_threshold", t_max=20, k=0.5),
    "online_opportunity": dataclasses.replace(OPPORTUNITY, t_max=20),
}


@pytest.mark.parametrize("sigma_mode", [KnownSigma(1.0), ResidualSigma()], ids=["known", "residual"])
@pytest.mark.parametrize("kind", EVERY_KIND)
def test_infer_takes_every_trajectory_simulate_writes(tmp_path, capsys, kind, sigma_mode):
    cfg_path, out_dir = tmp_path / "config.json", tmp_path / "out"
    bounds_config = BoundsConfig(margin_exponent=1.0, margin_const=1.0, delta=0.1, unit_cost=5.0, tail_const=625.0)
    write_config(
        cfg_path, stopping=EVERY_KIND[kind], sigma_mode=sigma_mode, bounds=bounds_config,
        trajectory_json=True, replications=3,
    )
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    trajectories = sorted((out_dir / "trajectories").glob("*.json"))
    assert len(trajectories) == 3
    assert any(not json.loads(path.read_text())["cap_hit"] for path in trajectories)
    for path in trajectories:
        capsys.readouterr()
        assert main(["infer", "--config", str(cfg_path), "--trajectory", str(path)]) == 0, capsys.readouterr().err


def stored_trajectory(tmp_path, **overrides):
    """Config path and trajectory path of one simulated 2-d replication."""
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path, trajectory_json=True, replications=1, **overrides)
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    return cfg_path, out_dir / "trajectories" / "rep_00000.json"


@pytest.mark.parametrize("kind", ["online_threshold", "predetermined_opportunity"])
def test_a_trajectory_file_stamps_its_set_up(tmp_path, kind):
    # The sections a run reads as its config writes them, and the bound
    # constants where its rule reads them; the stop trace is not stored.
    bounds_config = BoundsConfig(margin_exponent=1.0, margin_const=1.0, delta=0.1, unit_cost=5.0, tail_const=625.0)
    cfg_path, traj = stored_trajectory(tmp_path, stopping=EVERY_KIND[kind], bounds=bounds_config)
    config, payload = load_config(str(cfg_path)), json.loads(traj.read_text())
    sections = {name: config_to_dict(config)[name] for name in ("context", "policy", "clip", "batch_size", "sigma_mode", "stopping")}
    constants = dataclasses.asdict(resolve_constants(config)) if kind.startswith("predetermined") else None
    assert payload["set_up"] == {**sections, "bounds": constants}
    assert payload["format"] == 4 and "stop_trace" not in payload


def set_up_written_under(cfg_path, out_dir):
    """The 'set_up' of a trajectory file that a run under the config at `cfg_path` writes."""
    other = out_dir.with_suffix(".json")
    other.write_text(json.dumps({**json.loads(cfg_path.read_text()), "trajectory_json": True, "replications": 1}))
    assert main(["simulate", "--config", str(other), "--out", str(out_dir)]) == 0
    return json.loads((out_dir / "trajectories" / "rep_00000.json").read_text())["set_up"]


# Set-ups under whose rule the stored statistics stop where the run stopped.
SAME_STOP = (
    "another stopping.k", "another t_max", "pre-determined, another unit_cost", "opportunity, another c_prime",
    "another policy", "another clip.initial",
)


@pytest.mark.parametrize(
    "case, expected",
    [
        ("3-d config", "trajectory key 'set_up.context.dim' is 2; the config reads it under 3"),  # exit 0, 2-d intervals
        ("no terminal.var0", "'terminal.var0' is missing"),  # runtime error: 'var0'
        ('stop_time "abc"', "'stop_time' must be an integer"),  # exit 3
        ("missing file", "cannot read trajectory file"),  # exit 3
        ("one entry short", "'sufficient_stats' must have stop_time"),  # exit 0
        ("cap hit before t_max", "trajectory key 'stop_time' is 7, but the config's stopping rule stops later"),  # exit 0
        ("no terminal", "'terminal.beta0' must be ["),  # exit 3
        ("no noise_plugin for resimulation", "'noise_plugin' must be [1.0, 1.0], as 'sufficient_stats' give, got null"),  # exit 3
        ("negative definite var1", "'terminal.var1' must be [["),  # exit 0, zero-width intervals
        ("asymmetric var0", "'terminal.var0' must be [["),  # read through its lower triangle
        ("zero noise_plugin, known sigma", "'noise_plugin' must be [1.0, 1.0]"),  # exit 0, noiseless surrogates
        ("negative noise_plugin, known sigma", "'noise_plugin' must be [1.0, 1.0]"),  # named no key
        # A known-sigma file under a residual-sigma config.  This named only
        # 'sufficient_stats[0].count0' as missing.
        ("negative noise_plugin, residual sigma", '''trajectory key 'set_up.sigma_mode.kind' is "known"; the config reads it under "residual"'''),
        # Either way round, a file of the other sigma mode is named as such.
        ("residual-sigma config, known file", '''trajectory key 'set_up.sigma_mode.kind' is "known"; the config reads it under "residual"'''),
        ("known-sigma config, residual file", '''trajectory key 'set_up.sigma_mode.kind' is "residual"; the config reads it under "known"'''),
        ("negative noise_plugin, residual file", "'noise_plugin' must be ["),
        # Each of these exited 0: the format was not versioned, and no key was checked
        # outside the stored stop trace.
        ("no format", "trajectory key 'format' is missing; this banditstop reads trajectory format 4"),
        ("format 1", "trajectory key 'format' is 1; this banditstop reads trajectory format 4"),
        ('format "2"', '''trajectory key 'format' is "2"; this banditstop reads trajectory format 4'''),
        ("format 2", "trajectory key 'format' is 2; this banditstop reads trajectory format 4"),
        ("format 3", "trajectory key 'format' is 3; this banditstop reads trajectory format 4"),
        ("another top-level key", "trajectory key 'note' is not in trajectory format 4"),
        ("another key in terminal", "trajectory key 'terminal.note' is not in trajectory format 4"),
        ("another key in a sufficient_stats entry", "trajectory key 'sufficient_stats[0].note' is not in"),
        # Each of these exited 0: the stored seeds and index were not range-checked.
        ("seed -1", "trajectory key 'seed' must be in [0, 2**64), got -1"),
        ("seed 2**70", "trajectory key 'seed' must be in [0, 2**64), got 1180591620717411303424"),
        ("rep -5", "trajectory key 'rep' must be an integer >= 0, got -5"),
        # A file read under another set-up names the first key of 'set_up' that
        # differs, also where the stored statistics stop at the same batch under
        # both (SAME_STOP).  The other policy and clip exited 0: the fold reads neither.
        ("another stopping.k", "trajectory key 'set_up.stopping.k' is 0.9; the config reads it under 0.5"),
        ("another t_max", "trajectory key 'set_up.stopping.t_max' is 20; the config reads it under 30"),
        ("pre-determined, another unit_cost", "trajectory key 'set_up.bounds.unit_cost' is 0.01; the config reads it under 0.02"),
        ("opportunity, another c_prime", "trajectory key 'set_up.stopping.c_prime' is 0.001; the config reads it under 0.002"),
        ("another policy", '''trajectory key 'set_up.policy.kind' is "eps_greedy"; the config reads it under "thompson"'''),
        ("another clip.initial", "trajectory key 'set_up.clip.initial' is 0.1; the config reads it under 0.3"),
        ("another sigma", "trajectory key 'set_up.sigma_mode.sigma' is 1.0; the config reads it under 2.0"),
        ("no set_up", "trajectory key 'set_up' is missing"),
        ("another key in set_up", '''trajectory key 'set_up.note' is "kept"; the config reads it under missing'''),
        ("another batch_size in set_up", "trajectory key 'set_up.batch_size' is 31; the config reads it under 30"),
        # This exited 2 naming 'cap_hit' or 'stop_trace[7].cap_hit'.
        ("no cap hit at t_max", "trajectory key 'cap_hit' must be true, as 'sufficient_stats' give, got false"),
        # A key of the other sigma mode is unknown, and each per-arm key holds a
        # value exactly where the fold reads it: beside a non-null 'beta' or a null one.
        ("count0, known file", "trajectory key 'sufficient_stats[0].count0' is not in trajectory format 4"),
        ("no count0, residual file", "trajectory key 'sufficient_stats[0].count0' is missing"),
        ("rss where beta is null, residual file", "'sufficient_stats[{i}].rss{arm}' must be null, since 'beta{arm}' is null"),
        ("gram where beta is null, known file", "'sufficient_stats[{i}].gram{arm}' must be null, since 'beta{arm}' is null"),
        ("no gram0 beside beta0, known file", "'sufficient_stats[0].gram0' must not be null, since 'beta0' is not null"),
        ("moment0 beside beta0, residual file", "'sufficient_stats[0].moment0' must be null, since 'beta0' is not null"),
    ],
    ids=[
        "dim_mismatch", "missing_var0", "stop_time_string", "missing_file", "stats_count", "early_cap_hit",
        "null_terminal", "null_noise_plugin", "negative_var1", "asymmetric_var0",
        "zero_noise_plugin_known", "negative_noise_plugin_known", "negative_noise_plugin_residual",
        "negative_noise_plugin_residual_file", "sigma_mode_residual_reads_known_file", "sigma_mode_known_reads_residual_file",
        "no_format", "format_1", "format_string", "format_2", "format_3", "top_level_extra_key",
        "terminal_extra_key", "stats_extra_key", "seed_negative", "seed_above_u64", "rep_negative",
        "replay_k", "set_up_t_max", "replay_unit_cost", "opportunity_c_prime", "set_up_policy", "set_up_clip",
        "set_up_sigma", "no_set_up", "set_up_extra_key", "set_up_batch_size_edited",
        "stored_cap_hit_false",
        "known_count", "residual_no_count", "residual_singular_rss", "known_singular_gram", "known_usable_no_gram",
        "residual_usable_moment",
    ],
)
def test_infer_rejects_a_bad_trajectory(tmp_path, capsys, case, expected):
    opportunity = case.startswith("opportunity")
    overrides = {"stopping": OPPORTUNITY} if opportunity else {}
    if case.endswith("residual file"):
        overrides["sigma_mode"] = ResidualSigma()
    if "beta is null" in case:
        overrides["batch_size"] = 3  # at 3 units and d = 2 an arm is often singular
    if case == "another t_max":
        overrides["stopping"] = StoppingRule(kind="online_threshold", t_max=20, k=0.9)
    cfg_path, traj = stored_trajectory(tmp_path, **overrides)
    payload = json.loads(traj.read_text())
    stats = payload["sufficient_stats"]
    if opportunity:  # no stop before the cap
        assert payload["cap_hit"]
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
    elif case == "one entry short":
        del payload["sufficient_stats"][-1]
    elif case == "cap hit before t_max":
        assert payload["cap_hit"] and payload["stop_time"] == 8
        payload["stop_time"] = 7
        del payload["sufficient_stats"][-1]
    elif case == "no terminal":
        payload["terminal"] = None
    elif case == "no noise_plugin for resimulation":
        resimulation = ConditionalSamplerConfig(mode="resimulation_rejection", n_samples=100, max_attempts=1000)
        write_config(cfg_path, trajectory_json=True, replications=1, inference=resimulation)
        payload["noise_plugin"] = None
    elif case == "negative definite var1":
        payload["terminal"]["var1"] = [[-1, 0], [0, -1]]
    elif case == "asymmetric var0":
        payload["terminal"]["var0"][0][1] += 1.0
    elif case == "residual-sigma config, known file":
        write_config(cfg_path, sigma_mode=ResidualSigma())
    elif case == "known-sigma config, residual file":
        write_config(cfg_path, sigma_mode=KnownSigma(1.0))
    elif case == "negative noise_plugin, residual file":
        payload["noise_plugin"] = [-1.0, 1.0]
    elif "noise_plugin," in case:
        resimulation = ConditionalSamplerConfig(mode="resimulation_rejection", n_samples=100, max_attempts=1000)
        sigma_mode = ResidualSigma() if case.endswith("residual sigma") else KnownSigma(1.0)
        write_config(cfg_path, trajectory_json=True, replications=1, inference=resimulation, sigma_mode=sigma_mode)
        assert payload["noise_plugin"] == [1.0, 1.0]
        payload["noise_plugin"] = [0.0, 0.0] if case.startswith("zero") else [-1.0, 1.0]
    elif case == "no format":
        del payload["format"]
    elif case.startswith("format"):
        payload["format"] = json.loads(case.split(" ", 1)[1])
    elif case == "another top-level key":
        payload["note"] = "kept"
    elif case == "another key in terminal":
        payload["terminal"]["note"] = "kept"
    elif case == "another key in a sufficient_stats entry":
        payload["sufficient_stats"][0]["note"] = "kept"
    elif case == "seed -1":
        payload["seed"] = -1
    elif case == "seed 2**70":
        payload["seed"] = 2**70
    elif case == "rep -5":
        payload["rep"] = -5
    elif case == "another stopping.k":
        write_config(cfg_path, stopping=StoppingRule(kind="online_threshold", t_max=8, k=0.5))
    elif case == "another t_max":
        assert not payload["cap_hit"]  # a stop before the cap, which a later cap does not move
        write_config(cfg_path, stopping=StoppingRule(kind="online_threshold", t_max=30, k=0.9))
    elif case == "pre-determined, another unit_cost":
        predetermined = StoppingRule(kind="predetermined_opportunity", t_max=8)
        fixed = BoundsConfig(margin_exponent=1.0, margin_const=1.0, delta=0.1, unit_cost=0.01, tail_const=625.0)
        write_config(cfg_path, stopping=predetermined, bounds=fixed, trajectory_json=True, replications=1)
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "predetermined")]) == 0
        traj = tmp_path / "predetermined" / "trajectories" / "rep_00000.json"
        payload = json.loads(traj.read_text())
        write_config(cfg_path, stopping=predetermined, bounds=dataclasses.replace(fixed, unit_cost=0.02))
    elif case == "opportunity, another c_prime":
        write_config(cfg_path, stopping=dataclasses.replace(OPPORTUNITY, c_prime=2 * OPPORTUNITY.c_prime))
    elif case == "another policy":
        write_config(cfg_path, policy=Thompson(1.0))
    elif case == "another clip.initial":
        write_config(cfg_path, clip=constant_clip(0.3))
    elif case == "another sigma":
        write_config(cfg_path, sigma_mode=KnownSigma(2.0))
    elif case == "no set_up":
        del payload["set_up"]
    elif case == "another key in set_up":
        payload["set_up"]["note"] = "kept"
    elif case == "another batch_size in set_up":
        payload["set_up"]["batch_size"] = 31
    elif case == "no cap hit at t_max":
        payload["cap_hit"] = False
    elif case == "count0, known file":
        stats[0]["count0"] = 15
    elif case == "no count0, residual file":
        del stats[0]["count0"]
    elif "beta is null" in case:
        i, arm = next((i, arm) for i, e in enumerate(stats) for arm in (0, 1) if e[f"beta{arm}"] is None)
        if case.startswith("rss"):
            stats[i][f"rss{arm}"] = 1.0
        else:
            stats[i][f"gram{arm}"] = [[2.0, 0.5], [0.5, 1.0]]  # an unrelated SPD matrix
        expected = expected.format(i=i, arm=arm)
    elif case == "no gram0 beside beta0, known file":
        assert stats[0]["beta0"] is not None
        stats[0]["gram0"] = None
    elif case == "moment0 beside beta0, residual file":
        assert stats[0]["beta0"] is not None
        stats[0]["moment0"] = [0.0, 0.0]
    else:
        traj = tmp_path / "missing.json"
    if traj.exists():
        traj.write_text(json.dumps(payload))
    capsys.readouterr()
    infer = ["infer", "--config", str(cfg_path), "--trajectory", str(traj)]
    assert main(infer) == 2
    err = capsys.readouterr().err
    assert "config error" in err and expected in err
    if case in SAME_STOP:  # under the config's own 'set_up' the file reads
        payload["set_up"] = set_up_written_under(cfg_path, tmp_path / "relabelled")
        traj.write_text(json.dumps(payload))
        assert main(infer) == 0


@pytest.mark.parametrize(
    "sigma, edit, expected",
    [
        ("known", "gram0@3", "'stop_time' is 125, but the config's stopping rule stops later"),
        ("known", "beta1@5", "'terminal.beta1' must be ["),
        ("residual", "gram0@3", "'noise_plugin' must be ["),
        ("residual", "beta1@5", "'stop_time' is 118, but the config's stopping rule stops later"),
        ("residual", "count1@3", "'noise_plugin' must be ["),
        ("residual", "rss0@3", "'noise_plugin' must be ["),
        ("residual", "moment@singular", "'stop_time' is 20, but the config's stopping rule stops at batch 16"),
        ("residual", "sum_sq@singular", "'stop_time' is 20, but the config's stopping rule stops later"),
    ],
    ids=[
        "known-gram0@3", "known-beta1@5", "residual-gram0@3", "residual-beta1@5", "residual-count1@3", "residual-rss0@3",
        "residual-moment@singular", "residual-sum_sq@singular",
    ],
)
def test_infer_refolds_the_stored_statistics(tmp_path, capsys, sigma, edit, expected):
    # Each edit of a residual-sigma file exited 0 before format 3, which
    # stores what the residual fold reads; the known-sigma ones were caught
    # by a known-sigma refold.  The stored statistics give the stop, the
    # noise scales and the terminal estimate, so an edit at any batch moves
    # one of them.
    demo = json.loads(DEMO_CONFIG.read_text())
    if sigma == "residual":
        demo["sigma_mode"] = {"kind": "residual"}
    if edit.endswith("singular"):  # at 3 units and d = 2 an arm is often singular
        demo.update(batch_size=3, stopping={**demo["stopping"], "k": 0.5, "t_max": 60})
    cfg_path, out_dir = tmp_path / "config.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(demo))
    assert main(["simulate", "--config", str(cfg_path), "--reps", "1", "--out", str(out_dir)]) == 0
    traj = out_dir / "trajectories" / "rep_00000.json"
    infer = ["infer", "--config", str(cfg_path), "--trajectory", str(traj)]
    assert main(infer) == 0
    payload = json.loads(traj.read_text())
    stats, key = payload["sufficient_stats"], edit.split("@")[0]
    if edit.endswith("singular"):
        i, arm = next((i, arm) for i, e in enumerate(stats) for arm in (0, 1) if i > 0 and e[f"beta{arm}"] is None)
        key += str(arm)
    else:
        i = int(edit.split("@")[1])
    entry = stats[i]
    assert entry[key] is not None
    if key.startswith("gram"):
        entry[key] = [[1.0, 0.0], [0.0, 1.0]]
    elif key.startswith(("beta", "moment")):
        entry[key] = [9.0, 9.0]
    else:
        entry[key] += 1
    traj.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(infer) == 2
    err = capsys.readouterr().err
    assert f"config error: trajectory key {expected}" in err


def test_infer_rejects_a_run_that_left_no_estimate(tmp_path, capsys):
    # One unit a batch and a cap at t = 2 leave an arm without a usable batch
    # fit, so the run stops at its cap with no estimate, and the file stores none.
    cfg_path, out_dir = tmp_path / "config.json", tmp_path / "out"
    write_config(
        cfg_path, batch_size=1, stopping=StoppingRule(kind="online_threshold", t_max=2, k=0.9),
        trajectory_json=True, replications=1,
    )
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 3  # a record error
    traj = out_dir / "trajectories" / "rep_00000.json"
    payload = json.loads(traj.read_text())
    assert payload["cap_hit"] and payload["terminal"] is None and payload["noise_plugin"] is None
    capsys.readouterr()
    assert main(["infer", "--config", str(cfg_path), "--trajectory", str(traj)]) == 2
    expected = "config error: trajectory key 'terminal': the run left no estimate at its stop to infer from"
    assert expected in capsys.readouterr().err


def test_infer_names_the_draws_kept_when_too_few_are_kept(tmp_path, capsys):
    # This exited 3 saying only "bootstrap_interval needs at least 100 samples".
    cfg_path, traj = stored_trajectory(tmp_path)
    resimulation = ConditionalSamplerConfig(mode="resimulation_rejection", n_samples=100, max_attempts=100)
    write_config(cfg_path, inference=resimulation)
    capsys.readouterr()
    assert main(["infer", "--config", str(cfg_path), "--trajectory", str(traj)]) == 3
    expected = (
        "runtime error: bootstrap_interval needs at least 100 samples; the resimulation_rejection sampler "
        "kept 42 draws in its budget of 100 attempts (inference.max_attempts)"
    )
    assert expected in capsys.readouterr().err


# Each was masked to 64 bits, as --seed was.
@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize(
    "where", ["--inference-seed", "trajectory key 'inference_seed'"], ids=["flag", "stored"]
)
def test_infer_rejects_a_seed_outside_u64(tmp_path, capsys, where, seed):
    cfg_path, traj = stored_trajectory(tmp_path)
    args = ["infer", "--config", str(cfg_path), "--trajectory", str(traj)]
    if where == "--inference-seed":
        args += [where, str(seed)]
    else:
        payload = json.loads(traj.read_text())
        payload["inference_seed"] = seed
        traj.write_text(json.dumps(payload))
    capsys.readouterr()
    with mock.patch("banditstop.cli.run_inference") as run:
        assert main(args) == 2
    run.assert_not_called()
    assert f"config error: {where} must be in [0, 2**64), got {seed}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra",
    [
        ("stop-scan", []),
        ("infer", ["--trajectory", "rep_00000.json"]),
        ("calibrate-k", []),
        ("check-assumptions", []),
    ],
)
def test_only_simulate_takes_reps(capsys, command, extra):
    # Each took --reps and ignored it; --reps 0 exited 2 with "replications must be >= 1".
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(DEMO_CONFIG), *extra, "--reps", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --reps 5" in capsys.readouterr().err


_CALIBRATION = CalibrationConfig(t_ref=3, replications=10)
_PREDETERMINED = StoppingRule(kind="predetermined_opportunity", t_max=8)

# The stopping rule, bounds.tail_const and bounds.calibration of a config,
# and whether `stop-scan` and `infer` then run the pilot calibration, the
# only part of either that reads the master seed.
SEED_CASES = {
    "calibrates": (_PREDETERMINED, None, _CALIBRATION, True),
    "fixed_tail_const": (_PREDETERMINED, 625.0, _CALIBRATION, False),
    "no_calibration_block": (_PREDETERMINED, None, None, False),
    "online_rule": (StoppingRule(kind="online_threshold", t_max=8, k=0.9), None, _CALIBRATION, False),
}


# stop-scan rejects an online rule before it reads --seed.
@pytest.mark.parametrize(
    "command, case", [(c, k) for c in ("stop-scan", "infer") for k in SEED_CASES if (c, k) != ("stop-scan", "online_rule")]
)
def test_seed_is_taken_only_where_the_pilot_calibration_reads_it(tmp_path, capsys, command, case):
    # Each printed the same bytes for --seed 1 and --seed 2 where no calibration ran.
    stopping, tail_const, calibration, reads = SEED_CASES[case]
    bounds_config = BoundsConfig(
        margin_exponent=1.0, margin_const=1.0, delta=0.1, unit_cost=0.01,
        tail_const=tail_const, calibration=calibration,
    )
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path, policy=UniformRandom(), stopping=stopping, bounds=bounds_config, replications=1)
    args = [command, "--config", str(cfg_path)]
    if command == "infer":
        # infer replays the stored stop trace under the calibrated rule, which
        # depends on the seed, so the trajectory is simulated at each seed.
        sim_path = tmp_path / "simulated.json"
        fixed = bounds_config if reads else dataclasses.replace(bounds_config, tail_const=625.0, calibration=None)
        write_config(sim_path, policy=UniformRandom(), stopping=stopping, bounds=fixed, replications=1, trajectory_json=True)
        for seed in ("1", "2"):
            assert main(["simulate", "--config", str(sim_path), "--seed", seed, "--out", str(tmp_path / seed)]) == 0
    capsys.readouterr()
    calibration_seeds = []
    for seed in ("1", "2"):
        trajectory = ["--trajectory", str(tmp_path / seed / "trajectories" / "rep_00000.json")] if command == "infer" else []
        with mock.patch.object(bounds, "calibrate_tail_constant", wraps=bounds.calibrate_tail_constant) as cal:
            rc = main([*args, *trajectory, "--seed", seed])
        calibration_seeds += [call.args[-1] for call in cal.call_args_list]
    err = capsys.readouterr().err
    if reads:
        assert rc == 0 and len(calibration_seeds) == 2 and calibration_seeds[0] != calibration_seeds[1]
    else:
        assert rc == 2 and not calibration_seeds
        assert f"config error: --seed changes nothing here: {command} reads the master seed only" in err


README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_cli_examples_parse():
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert {words[1] for words in commands} == set(cli._COMMANDS)  # every subcommand shown
    for words in commands:
        assert words[0] == "banditstop"
        cli.build_parser().parse_args(words[1:])


_BOUNDS = BoundsConfig(margin_exponent=1.0, margin_const=1.0, delta=0.1, unit_cost=0.01, tail_const=625.0)
_RESIMULATION = ConditionalSamplerConfig(mode="resimulation_rejection", n_samples=100, max_attempts=100)
_SHORTCUT_WARNING = "warning: the independence shortcut is not exact"

# Overrides of `write_config` (ε-greedy, known sigma, online threshold, the
# shortcut) and whether post-stopping inference is then exact.
INFERENCE_EXACT_CASES = {
    "no_inference": (dict(inference=None), None),
    "resimulation": (dict(inference=_RESIMULATION), True),
    "resimulation_residual_thompson": (
        dict(inference=_RESIMULATION, sigma_mode=ResidualSigma(), policy=Thompson(1.0)),
        True,
    ),
    "predetermined_residual_eps_greedy": (
        dict(stopping=StoppingRule(kind="predetermined_opportunity", t_max=8), bounds=_BOUNDS,
             sigma_mode=ResidualSigma()),
        True,
    ),
    "predetermined_threshold_ucb": (
        dict(stopping=StoppingRule(kind="predetermined_threshold", t_max=8, k=0.5), bounds=_BOUNDS,
             policy=Ucb(Schedule(1.0))),
        True,
    ),
    "online_known_uniform": (dict(policy=UniformRandom()), True),
    "online_opportunity_known_uniform": (
        dict(policy=UniformRandom(), stopping=StoppingRule(kind="online_opportunity", t_max=8, c_prime=0.1)),
        True,
    ),
    "online_known_eps_greedy": ({}, False),
    "online_residual_uniform": (dict(policy=UniformRandom(), sigma_mode=ResidualSigma()), False),
    "online_known_thompson": (dict(policy=Thompson(1.0)), False),
    "online_opportunity_residual_ucb": (
        dict(policy=Ucb(Schedule(1.0)), sigma_mode=ResidualSigma(),
             stopping=StoppingRule(kind="online_opportunity", t_max=8, c_prime=0.1)),
        False,
    ),
}


@pytest.mark.parametrize("case", INFERENCE_EXACT_CASES)
def test_inference_exact(tmp_path, case):
    overrides, exact = INFERENCE_EXACT_CASES[case]
    config = write_config(tmp_path / "config.json", **overrides)
    assert inference_exact(config, config.inference) is exact


@pytest.mark.parametrize("case", INFERENCE_EXACT_CASES)
def test_simulate_and_infer_warn_when_inference_is_not_exact(tmp_path, capsys, case):
    overrides, exact = INFERENCE_EXACT_CASES[case]
    cfg_path = tmp_path / "config.json"
    config = write_config(cfg_path, **overrides)
    stub = ConfigError("stub: the run is not under test")
    with mock.patch.object(cli, "run_replications", side_effect=stub):
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count(_SHORTCUT_WARNING) == (exact is False)
    if exact is False:
        kinds = config_to_dict(config)
        assert f"policy {kinds['policy']['kind']!r} with sigma_mode {kinds['sigma_mode']['kind']!r}" in err
        assert "'resimulation_rejection'" in err
    record = mock.Mock(inference_seed=1)
    with mock.patch.object(cli, "load_trajectory", return_value=record), mock.patch.object(
        cli, "run_inference", side_effect=stub
    ):
        assert main(["infer", "--config", str(cfg_path), "--trajectory", "rep_00000.json"]) == 2
    # infer runs the default shortcut when the config has no inference section.
    inexact = exact is False or case == "no_inference"
    assert capsys.readouterr().err.count(_SHORTCUT_WARNING) == inexact


@pytest.mark.parametrize("policy, exact", [(EpsGreedy(Schedule(0.2)), False), (UniformRandom(), True), (None, None)])
def test_summary_records_whether_inference_is_exact(tmp_path, capsys, policy, exact):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path, **(dict(inference=None) if policy is None else dict(policy=policy)))
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["inference_exact"] is exact
    assert "inference_exact" not in summary["aggregates"]
    assert capsys.readouterr().err.count(_SHORTCUT_WARNING) == (exact is False)
