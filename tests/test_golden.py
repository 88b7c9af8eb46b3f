"""The determinism contract as a check: every emitted byte of a set of small
seeded runs against the sha256 digests recorded in `tests/golden.json`.

Each case is a config (a shipped one, a perfbench workload's merge, the
demo config under UCB or Thompson with known or residual sigma, which no
workload runs on the lock-step engine, the demo config at batch size 3, where
an arm's batch Gram is often singular, under either sigma, or a shipped config
under a stopping kind no other case runs) cut to a few replications and a small
Monte Carlo and sampler budget, at seeds 42 and 7.  A `simulate` case digests
`summary.json` without `generated_at`, `replications.csv`, each trajectory
file and, where there are trajectory files, what `infer` prints for the
first; the sampler case digests the resimulation sampler's draws.
Apart from the digests, each case records its exact integer fields (stop
times and cap hits, or the sampler's target, attempts and kept draws), which
must hold on any platform.

Floating-point bits depend on the numpy build and the platform, so the file
records the environment it was made in, and on another one the digest check
fails with a message naming both.  The tier-1 workflow installs that numpy,
and a check holds its pin to the recorded version.  A change that moves a digest on purpose
re-records the file and says which digests moved and why:

    PYTHONPATH=src python tests/test_golden.py

prints, for each case, the digest names that moved against the file it
replaces.  The perfbench `demo` workload has no case of its own: its merge
is `configs/demo.json`, which the `demo` case runs.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import platform
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from banditstop import cli, harness, inference

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
SEEDS = (42, 7)

# Applied to every case: small enough for the whole check to take seconds.
CUT = {"regret_mc_samples": 500}
CALIBRATION_CUT = {"bounds": {"calibration": {"replications": 10}}}
UCB = {"kind": "ucb", "bonus": {"initial": 1.0, "decay": 0.5, "floor": 0.0}, "eps": None}
THOMPSON = {"kind": "thompson", "sigma_prior": 1.0, "eps": None}
RESIDUAL = {"kind": "residual", "sigma": None}
ENGINE = {"replications": 3, "inference": None}
OPPORTUNITY = {"kind": "online_opportunity", "c_prime": 5e-5, "scale_by_batch": True, "k": None}
THRESHOLD = {"kind": "predetermined_threshold", "k": 4.0}
# At 3 units a batch and d = 2 an arm is singular in most batches; k = 0.5
# stops every replication with an estimate well before the cap.
SINGULAR = {**ENGINE, "batch_size": 3, "stopping": {"k": 0.5, "t_max": 60}}
CASES = {
    "demo": ("configs/demo.json", {"replications": 3}),
    "predetermined": ("configs/predetermined.json", {"replications": 3}),
    "perfbench/long_residual": ("perfbench/configs/long_residual.json", {}),
    # A larger k stops the target near t=22, for cheap surrogates.
    "perfbench/rejection": ("perfbench/configs/rejection.json", {"stopping": {"k": 0.3}}),
    "perfbench/short_many": ("perfbench/configs/short_many.json", {"replications": 5}),
    "ucb/known": ("configs/demo.json", {**ENGINE, "policy": UCB}),
    "ucb/residual": ("configs/demo.json", {**ENGINE, "policy": UCB, "sigma_mode": RESIDUAL}),
    "thompson/known": ("configs/demo.json", {**ENGINE, "policy": THOMPSON}),
    "thompson/residual": ("configs/demo.json", {**ENGINE, "policy": THOMPSON, "sigma_mode": RESIDUAL}),
    "opportunity": ("configs/demo.json", {"replications": 3, "stopping": OPPORTUNITY}),
    "threshold": ("configs/predetermined.json", {"replications": 3, "stopping": THRESHOLD}),
    "singular/known": ("configs/demo.json", SINGULAR),
    "singular/residual": ("configs/demo.json", {**SINGULAR, "sigma_mode": RESIDUAL}),
}
SAMPLER_CASE = "perfbench/rejection"


def merge_patch(target, patch):
    """RFC 7396 JSON merge patch: a null deletes a key."""
    if not isinstance(patch, dict):
        return patch
    out = dict(target) if isinstance(target, dict) else {}
    for key, value in patch.items():
        if value is None:
            out.pop(key, None)
        else:
            out[key] = merge_patch(out.get(key), value)
    return out


def case_config(name: str, seed: int) -> dict:
    path, patch = CASES[name]
    data = json.loads((ROOT / path).read_text())
    if set(data) == {"base", "overrides"}:  # a perfbench workload
        data = merge_patch(json.loads((ROOT / data["base"]).read_text()), data["overrides"])
    data = merge_patch(data, {**patch, **CUT, "master_seed": seed})
    if (data.get("bounds") or {}).get("calibration"):
        data = merge_patch(data, CALIBRATION_CUT)
    return data


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_simulate(name: str, seed: int, work: Path) -> dict:
    config_path = work / "config.json"
    config_path.write_text(json.dumps(case_config(name, seed)))
    out = work / "out"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(["simulate", "--config", str(config_path), "--out", str(out)])
    assert rc == 0, err.getvalue()
    summary = json.loads((out / "summary.json").read_text())
    summary.pop("generated_at")
    csv_bytes = (out / "replications.csv").read_bytes()
    digests = {
        "summary.json": sha256(json.dumps(summary, indent=2, sort_keys=True).encode()),
        "replications.csv": sha256(csv_bytes),
    }
    for path in sorted((out / "trajectories").glob("*.json")):
        digests[f"trajectories/{path.name}"] = sha256(path.read_bytes())
    first = out / "trajectories" / "rep_00000.json"
    if first.exists():
        with contextlib.redirect_stdout(io.StringIO()) as printed, contextlib.redirect_stderr(io.StringIO()) as err:
            rc = cli.main(["infer", "--config", str(config_path), "--trajectory", str(first)])
        assert rc == 0, err.getvalue()
        digests["infer/rep_00000.json"] = sha256(printed.getvalue().encode())
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    integers = {
        "stop_times": [int(r["stop_time"]) for r in rows],
        "cap_hits": [r["cap_hit"] == "true" for r in rows],
    }
    return {"integers": integers, "digests": digests}


def run_sampler(seed: int) -> dict:
    """The rejection workload's unit: the resimulation sampler on replication
    0 of its config, the target record run without inference."""
    config = harness.config_from_dict(case_config(SAMPLER_CASE, seed))
    record = harness.run_experiment(dataclasses.replace(config, inference=None), 0)
    samples = inference.sample_conditional(record, None, config.inference, record.inference_seed)
    draws = np.concatenate([samples.arm0, samples.arm1], axis=1)
    integers = {
        "target_stop_time": record.stop_time,
        "attempts": samples.attempts,
        "kept": int(samples.arm0.shape[0]),
    }
    return {"integers": integers, "digests": {"draws": sha256(np.ascontiguousarray(draws, dtype=np.float64).tobytes())}}


def run_case(key: str, work: Path) -> dict:
    name, seed = key.rsplit("@", 1)
    if name == SAMPLER_CASE:
        return run_sampler(int(seed))
    return run_simulate(name, int(seed), work)


def environment() -> dict:
    return {"numpy": np.__version__, "platform": f"{platform.system()}-{platform.machine()}"}


KEYS = [f"{name}@{seed}" for name in CASES for seed in SEEDS]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_outputs_equal_the_recorded_digests(key, golden, tmp_path):
    got, want = run_case(key, tmp_path), golden["cases"][key]
    # Integer outputs hold on any platform; digests only where they were recorded.
    assert got["integers"] == want["integers"]
    here, there = environment(), golden["environment"]
    assert here == there, f"tests/golden.json was recorded under {there}, this is {here}: re-record it here"
    moved = moved_digests(want["digests"], got["digests"])
    assert not moved, f"{key}: digests moved: {moved}"


def test_the_ci_numpy_pin_is_the_recorded_one(golden):
    """The runner installs the numpy that the digests were recorded under, so
    a re-record under another numpy fails here, not only on the runner."""
    pins, recorded = re.findall(r"numpy==(\S+)", WORKFLOW.read_text()), golden["environment"]["numpy"]
    assert pins == [recorded], f"{WORKFLOW.name} pins numpy {pins}; tests/golden.json was recorded under {recorded}"


def moved_digests(want: dict, got: dict) -> list:
    """Names whose digest differs, or that only one side has."""
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def record() -> None:
    """Re-record the file, printing for each case the digests that moved
    against the file it replaces."""
    old = json.loads(GOLDEN.read_text())["cases"] if GOLDEN.exists() else {}
    cases = {}
    for key in KEYS:
        with tempfile.TemporaryDirectory() as work:
            cases[key] = run_case(key, Path(work))
        moved = moved_digests(old[key]["digests"], cases[key]["digests"]) if key in old else ["(new case)"]
        print(f"{key}: {', '.join(moved) or 'unchanged'}", flush=True)
    for key in sorted(old.keys() - cases.keys()):
        print(f"{key}: (dropped)")
    GOLDEN.write_text(json.dumps({"environment": environment(), "cases": cases}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
