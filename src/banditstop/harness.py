"""Experiment harness: the seeded replication runner, aggregation, and
CSV/JSON report emission.  The config and the trajectory files are read
and written through their declarations in `formats`; `config_from_dict`,
`config_to_dict` and `load_config` are also harness names.
`_setup` gives a run its set-up: the config's `stopping` section, the rule
itself, with the bound constants.

Determinism contract: a (config, master_seed) pair fully determines every
emitted byte except the single `generated_at` field in summary.json.
Replication r uses seed derive_seed(master_seed, r); within a replication the
trajectory, the regret oracle, and inference run on independent named
sub-streams.  Replications may execute in any order; the
reducer sorts by replication index.  `run_replications` runs several
replications in lock-step (`simulate.simulate_ensemble`), which gives each
the trajectory it gets alone, bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bounds as bounds_mod
from .bounds import (
    BoundConstants,
    CostAdjustedRegret,
    check_threshold,
    cost_adjusted_regret,
    regret_bound_from_variance,
    regret_bound_time,
)
from .errors import ConfigError, ContractError, InfeasibleConditioning
from .estimators import KnownSigma
from .formats import (
    SCHEMA_VERSION,
    ExperimentConfig,
    _read_json,
    config_from_dict,  # noqa: F401 - also read as a harness name
    config_to_dict,
    load_config,  # noqa: F401 - also read as a harness name
    record_from_trajectory,
    trajectory_payload,
)
from .inference import RESIMULATION_REJECTION, ConditionalSamplerConfig, run_inference
from .model import estimate_policy_regret
from .policies import UniformRandom
from .records import ExperimentRecord, SimulationSetup, Trajectory
from .rng import (
    INFERENCE_STREAM,
    REGRET_STREAM,
    TRAJECTORY_STREAM,
    derive_seed,
    make_rng,
    substream_seed,
)
from .simulate import simulate_ensemble, simulate_trajectory

CALIBRATION_SEED_TAG = 0x5EED_CA11


@dataclass
class PreparedExperiment:
    config: ExperimentConfig
    setup: SimulationSetup
    consts: Optional[BoundConstants]
    threshold: Optional[float]  # of the cost-adjusted regret; None: additive


def calibrated_tail_const(config: ExperimentConfig, t_ref: int, replications: int) -> float:
    """The pilot-calibrated tail constant of `config`'s design at `t_ref`,
    drawn from the calibration sub-stream of the master seed."""
    return bounds_mod.calibrate_tail_constant(
        config.context,
        config.model,
        config.policy,
        config.clip,
        config.batch_size,
        t_ref,
        config.bounds.delta,
        replications,
        substream_seed(config.master_seed, CALIBRATION_SEED_TAG),
    )


def resolve_constants(config: ExperimentConfig) -> Optional[BoundConstants]:
    """Build bound constants, running the pilot calibration when requested."""
    bc = config.bounds
    if bc is None:
        return None
    tail = bc.tail_const
    if tail is None:
        if bc.calibration is None:
            raise ConfigError("bounds section needs tail_const or a calibration block")
        tail = calibrated_tail_const(config, bc.calibration.t_ref, bc.calibration.replications)
    return BoundConstants(
        context_bound=(
            bc.context_bound if bc.context_bound is not None else config.context.euclidean_bound()
        ),
        margin_exponent=bc.margin_exponent,
        margin_const=bc.margin_const,
        dim=config.context.dim,
        delta=bc.delta,
        tail_const=tail,
        unit_cost=bc.unit_cost,
        batch_size=config.batch_size,
        clip_floor=config.clip.floor,
    )


def _setup(config: ExperimentConfig, consts: Optional[BoundConstants]) -> SimulationSetup:
    """The run's setup; its rule is the config's `stopping` section with the
    bound constants."""
    return SimulationSetup(
        context=config.context,
        policy=config.policy,
        clip=config.clip,
        batch_size=config.batch_size,
        sigma_mode=config.sigma_mode,
        rule=replace(config.stopping, consts=consts),
    )


def prepare(config: ExperimentConfig) -> PreparedExperiment:
    consts = resolve_constants(config)
    setup = _setup(config, consts)
    sc = config.stopping
    threshold = None
    if sc.kind == "predetermined_threshold":
        threshold = sc.k
    elif sc.kind == "online_threshold" and consts is not None:
        threshold = regret_bound_from_variance(sc.k, consts)
    return PreparedExperiment(config=config, setup=setup, consts=consts, threshold=check_threshold(threshold))


def _objective(prepared: PreparedExperiment, record: ExperimentRecord) -> Optional[CostAdjustedRegret]:
    """The record's cost-adjusted regret: the regret bound at the stop time
    under a pre-determined rule, or at the larger terminal variance norm
    under an online rule, against the sampling cost and `prepared.threshold`.
    None without bound constants or a terminal estimate."""
    consts = prepared.consts
    if consts is None or record.ivw is None:
        return None
    if prepared.config.stopping.predetermined:
        bound = regret_bound_time(record.stop_time, consts)
    elif all(math.isfinite(v) for v in record.var_norms):
        bound = regret_bound_from_variance(max(record.var_norms), consts)
    else:
        return None
    return cost_adjusted_regret(bound, record.stop_time, consts, prepared.threshold)


def run_experiment(
    config: ExperimentConfig,
    rep_index: int,
    prepared: Optional[PreparedExperiment] = None,
) -> ExperimentRecord:
    """Simulate one seeded replication end to end (trajectory, stopping,
    regret oracle, inference)."""
    prepared = prepared if prepared is not None else prepare(config)
    traj = simulate_trajectory(prepared.setup, config.model, _trajectory_rng(config, rep_index))
    return _record(config, prepared, rep_index, traj)


def _trajectory_rng(config: ExperimentConfig, rep_index: int) -> np.random.Generator:
    return make_rng(substream_seed(derive_seed(config.master_seed, rep_index), TRAJECTORY_STREAM))


def _record(
    config: ExperimentConfig, prepared: PreparedExperiment, rep_index: int, traj: Trajectory
) -> ExperimentRecord:
    """Replication `rep_index`'s record from its trajectory: the regret
    oracle, the objective and inference."""
    seed = derive_seed(config.master_seed, rep_index)
    inference_seed = substream_seed(seed, INFERENCE_STREAM)
    regret_hat: Optional[float] = None
    error: Optional[str] = None

    if traj.ivw is None:
        error = "estimator unavailable at the stop time"
    else:
        rng_regret = make_rng(substream_seed(seed, REGRET_STREAM))
        regret_hat = estimate_policy_regret(
            config.model,
            config.context,
            traj.ivw.beta1 - traj.ivw.beta0,
            config.regret_mc_samples,
            rng_regret,
        )

    record = ExperimentRecord(
        rep_index=rep_index,
        seed=seed,
        setup=prepared.setup,
        stop_time=traj.stop_time,
        cap_hit=traj.cap_hit,
        ivw=traj.ivw,
        regret_hat=regret_hat,
        creg=None,
        inference=None,
        inference_seed=inference_seed,
        error=error,
        trajectory=traj if config.trajectory_json else None,
    )
    record.creg = _objective(prepared, record)

    if config.inference is not None and traj.ivw is not None:
        try:
            record.inference = run_inference(
                record, config.inference, config.hypothesis, inference_seed
            )
        except InfeasibleConditioning as exc:
            record.inference_error = str(exc)
    return record


def run_replications(
    config: ExperimentConfig,
    execution_order: Optional[Sequence[int]] = None,
) -> Tuple[List[ExperimentRecord], Dict]:
    """Run all replications (optionally in a permuted order) and aggregate.

    Several replications run in lock-step through `simulate_ensemble`, in
    chunks, and each chunk's records are built before the next chunk runs;
    a lone replication runs `run_experiment`.  Each replication gets the
    same trajectory either way, so records and aggregates are independent
    of execution order: the reducer sorts by replication index.
    """
    prepared = prepare(config)
    indices = list(range(config.replications))
    if execution_order is not None:
        if sorted(execution_order) != indices:
            raise ConfigError("execution_order must be a permutation of range(replications)")
        indices = list(execution_order)

    if len(indices) == 1:
        records = [run_experiment(config, indices[0], prepared=prepared)]
    else:
        rngs = (_trajectory_rng(config, r) for r in indices)
        trajectories = simulate_ensemble(prepared.setup, config.model, rngs)
        records = [_record(config, prepared, r, traj) for r, traj in zip(indices, trajectories)]
    records.sort(key=lambda rec: rec.rep_index)
    return records, aggregate(records, config)


def _mean_sd(values: List[float]) -> Tuple[Optional[float], Optional[float]]:
    if not values:
        return None, None
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=0))


def aggregate(records: Sequence[ExperimentRecord], config: ExperimentConfig) -> Dict:
    """Order-independent aggregates over per-replication records."""
    ordered = sorted(records, key=lambda rec: rec.rep_index)
    stop_hist: Dict[str, int] = {}
    for rec in ordered:
        key = str(rec.stop_time)
        stop_hist[key] = stop_hist.get(key, 0) + 1

    regrets = [rec.regret_hat for rec in ordered if rec.regret_hat is not None]
    finite_cregs = [rec.creg.value for rec in ordered if rec.creg is not None and rec.creg.finite]
    infinite_cregs = sum(
        1 for rec in ordered if rec.creg is not None and not rec.creg.finite
    )
    violations = [
        1.0 if rec.regret_hat > rec.creg.bound_term else 0.0
        for rec in ordered
        if rec.regret_hat is not None and rec.creg is not None
    ]

    dim = config.model.dim
    cover0 = np.zeros(dim)
    cover1 = np.zeros(dim)
    covered_count = 0
    rejects = []
    for rec in ordered:
        inf = rec.inference
        if inf is None:
            continue
        covered_count += 1
        cover0 += (config.model.beta0 >= inf.lo0) & (config.model.beta0 <= inf.hi0)
        cover1 += (config.model.beta1 >= inf.lo1) & (config.model.beta1 <= inf.hi1)
        if inf.reject is not None:
            rejects.append(1.0 if inf.reject else 0.0)

    regret_mean, regret_sd = _mean_sd(regrets)
    creg_mean, creg_sd = _mean_sd(finite_cregs)
    out = {
        "replications": len(ordered),
        "stop_time_hist": dict(sorted(stop_hist.items(), key=lambda kv: int(kv[0]))),
        "stop_time_mean": float(np.mean([rec.stop_time for rec in ordered])),
        "cap_hit_rate": float(np.mean([1.0 if rec.cap_hit else 0.0 for rec in ordered])),
        "regret_hat_mean": regret_mean,
        "regret_hat_sd": regret_sd,
        "creg_mean": creg_mean,
        "creg_sd": creg_sd,
        "creg_infinite_count": infinite_cregs,
        "bound_violation_rate": float(np.mean(violations)) if violations else None,
        "ci_coverage_arm0": (cover0 / covered_count).tolist() if covered_count else None,
        "ci_coverage_arm1": (cover1 / covered_count).tolist() if covered_count else None,
        "reject_rate": float(np.mean(rejects)) if rejects else None,
        "error_count": sum(1 for rec in ordered if rec.error is not None),
        "inference_error_count": sum(1 for rec in ordered if rec.inference_error is not None),
    }
    if config.hypothesis is not None and out["reject_rate"] is not None:
        h0, h1 = config.hypothesis
        at_truth = np.allclose(h0, config.model.beta0) and np.allclose(h1, config.model.beta1)
        if at_truth:
            out["type_i_error_rate"] = out["reject_rate"]
    return out


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

INFINITE_MARKER = "INFINITE"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def csv_header(dim: int) -> List[str]:
    cols = [
        "rep",
        "seed",
        "stop_time",
        "cap_hit",
        "regret_hat",
        "creg",
        "var_norm_arm0",
        "var_norm_arm1",
    ]
    for arm in (0, 1):
        for j in range(dim):
            cols.append(f"ci_lo_arm{arm}_c{j}")
            cols.append(f"ci_hi_arm{arm}_c{j}")
    cols.append("reject")
    return cols


def _record_row(rec: ExperimentRecord, dim: int) -> List[str]:
    if rec.creg is None:
        creg = ""
    elif rec.creg.finite:
        creg = _fmt(rec.creg.value)
    else:
        creg = INFINITE_MARKER
    norms = rec.var_norms
    row = [
        _fmt(rec.rep_index),
        _fmt(rec.seed),
        _fmt(rec.stop_time),
        _fmt(rec.cap_hit),
        _fmt(rec.regret_hat),
        creg,
        _fmt(norms[0]) if math.isfinite(norms[0]) else "",
        _fmt(norms[1]) if math.isfinite(norms[1]) else "",
    ]
    inf = rec.inference
    for arm in (0, 1):
        for j in range(dim):
            if inf is None:
                row.extend(["", ""])
            else:
                lo = inf.lo0 if arm == 0 else inf.lo1
                hi = inf.hi0 if arm == 0 else inf.hi1
                row.extend([_fmt(float(lo[j])), _fmt(float(hi[j]))])
    row.append("" if (inf is None or inf.reject is None) else _fmt(inf.reject))
    return row


def render_csv(records: Sequence[ExperimentRecord], dim: int) -> str:
    ordered = sorted(records, key=lambda rec: rec.rep_index)
    lines = [",".join(csv_header(dim))]
    lines.extend(",".join(_record_row(rec, dim)) for rec in ordered)
    return "\n".join(lines) + "\n"


def _write_atomic(path: str, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it over
    `path`, so a failed write leaves neither a partial file nor the temporary.
    The file gets the mode that ``open(path, "w")`` would give it: mkstemp
    creates 0600, so the temporary is widened to 0666 less the umask."""
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def inference_exact(config: ExperimentConfig, sampler: Optional[ConditionalSamplerConfig]) -> Optional[bool]:
    """Whether post-stopping inference with `sampler` is exact for `config`:
    None without a sampler, True for the resimulation sampler, and for the
    independence shortcut only where the stop is independent of the
    estimator's fluctuation (`banditstop.inference`): under a pre-determined
    rule, or an online rule with a known noise scale and the uniform policy."""
    if sampler is None:
        return None
    if sampler.mode == RESIMULATION_REJECTION or config.stopping.predetermined:
        return True
    return isinstance(config.sigma_mode, KnownSigma) and isinstance(config.policy, UniformRandom)


def emit_reports(
    records: Sequence[ExperimentRecord],
    out_dir: str,
    formats: Sequence[str],
    config: ExperimentConfig,
    aggregates: Optional[Dict] = None,
    timestamp: Optional[str] = None,
) -> Dict[str, str]:
    """Write replications.csv / summary.json (and optional per-rep trajectories).

    Returns the mapping of artifact name to path.  Every file is written via
    a temporary file and atomic rename, so a failed write leaves no partial
    report.
    """
    if not records:
        raise ConfigError("no records to report")
    bare = [rec.rep_index for rec in records if rec.trajectory is None]
    if config.trajectory_json and bare:
        raise ContractError(f"replication {min(bare)} kept no trajectory to write")
    os.makedirs(out_dir, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise OSError(f"output directory {out_dir!r} is not writable")
    aggregates = aggregates if aggregates is not None else aggregate(records, config)
    written: Dict[str, str] = {}

    if "csv" in formats:
        csv_path = os.path.join(out_dir, "replications.csv")
        _write_atomic(csv_path, render_csv(records, config.model.dim))
        written["replications.csv"] = csv_path

    if "json" in formats:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "generated_at": timestamp if timestamp is not None else time.strftime("%Y-%m-%dT%H:%M:%S"),
            "config": config_to_dict(config),
            "aggregates": aggregates,
            "inference_exact": inference_exact(config, config.inference),
            "per_rep_errors": {
                str(rec.rep_index): rec.error
                for rec in records
                if rec.error is not None
            },
        }
        summary_path = os.path.join(out_dir, "summary.json")
        _write_atomic(summary_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written["summary.json"] = summary_path

    if config.trajectory_json:
        traj_dir = os.path.join(out_dir, "trajectories")
        os.makedirs(traj_dir, exist_ok=True)
        for rec in sorted(records, key=lambda r: r.rep_index):
            # One line, no indent: with `indent` json runs its pure-Python
            # encoder.  A fresh payload has no cycle for json to look for.
            text = json.dumps(trajectory_payload(rec), sort_keys=True, check_circular=False) + "\n"
            _write_atomic(os.path.join(traj_dir, f"rep_{rec.rep_index:05d}.json"), text)
        written["trajectories"] = traj_dir
    return written


def load_trajectory(path: str, config: ExperimentConfig) -> ExperimentRecord:
    """`formats.record_from_trajectory` on a trajectory file, under the
    set-up `config` runs.  Only a pre-determined rule reads the bound
    constants, and they may need the pilot calibration."""
    setup = _setup(config, resolve_constants(config) if config.stopping.predetermined else None)
    return record_from_trajectory(_read_json(path, "trajectory"), setup)
