"""Experiment harness: JSON config ingestion, the seeded replication runner,
aggregation, and CSV/JSON report emission.

Config format: one table (`_CONFIG`) declares every key, its JSON type and,
through the dataclass field defaults, whether it may be left out or null.
Every value is type-checked: booleans are only true/false, reals (array
entries included) must be finite, integers must be integral, and a value
of the wrong type is a ConfigError that names its dotted key.  Unknown keys
and an unknown `sigma_mode.kind` (read as residual) are still tolerated.
The `stopping` section reads as `stopping.StoppingRule`, the rule itself,
which `ExperimentConfig` gives its batch size; `_setup` adds only the bound
constants.

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
import numbers
import os
import tempfile
import time
from dataclasses import MISSING, dataclass, fields, replace
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
from .estimators import IvwEstimate, KnownSigma, ResidualSigma, SigmaMode
from .inference import RESIMULATION_REJECTION, ConditionalSamplerConfig, run_inference
from .linalg import eigvalsh, require_symmetric
from .model import (
    ContextSpec,
    TrueModel,
    TruncatedGaussian,
    UniformBox,
    estimate_policy_regret,
)
from .policies import ClipSchedule, EpsGreedy, PolicyKind, Schedule, Thompson, Ucb, UniformRandom
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
from .stopping import StopDecision, StoppingRule, evaluate

SCHEMA_VERSION = 1
CALIBRATION_SEED_TAG = 0x5EED_CA11


@dataclass(frozen=True)
class CalibrationConfig:
    t_ref: int
    replications: int = 200

    def __post_init__(self):
        # Checked here so that a bad block fails before any pilot runs.
        if self.t_ref < 1:
            raise ConfigError("bounds.calibration.t_ref must be >= 1")
        if self.replications < 10:
            raise ConfigError("bounds.calibration.replications must be >= 10")


@dataclass(frozen=True)
class BoundsConfig:
    margin_exponent: float
    margin_const: float
    delta: float
    unit_cost: float
    tail_const: Optional[float] = None
    context_bound: Optional[float] = None  # None: sqrt(dim) * sup bound of the context spec
    calibration: Optional[CalibrationConfig] = None


@dataclass(frozen=True)
class ExperimentConfig:
    context: ContextSpec
    model: TrueModel
    policy: PolicyKind
    clip: ClipSchedule
    batch_size: int
    stopping: StoppingRule
    sigma_mode: SigmaMode
    replications: int
    master_seed: int
    bounds: Optional[BoundsConfig] = None
    inference: Optional[ConditionalSamplerConfig] = None
    hypothesis: Optional[Tuple[np.ndarray, np.ndarray]] = None
    regret_mc_samples: int = 100_000
    trajectory_json: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        object.__setattr__(self, "stopping", replace(self.stopping, batch_size=self.batch_size))
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.regret_mc_samples < 1:
            raise ConfigError("regret_mc_samples must be >= 1")
        if not 0 <= self.master_seed < 1 << 64:
            raise ConfigError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if self.model.dim != self.context.dim:
            raise ConfigError("model dimension does not match the context spec")
        l1 = sum(abs(v) for v in self.model.beta0.tolist() + self.model.beta1.tolist())
        if not math.isfinite(self.context.sup_bound * l1):  # the bound on |x . beta|
            raise ConfigError("model.beta0 and model.beta1 are too large: x . beta overflows at context.sup_bound")
        if self.stopping.predetermined and self.bounds is None:
            raise ConfigError("pre-determined rules need a bounds section")
        if self.hypothesis is not None:
            h0, h1 = self.hypothesis
            if np.asarray(h0).size != self.model.dim or np.asarray(h1).size != self.model.dim:
                raise ConfigError("hypothesis dimension does not match the model")


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


def _decision_json(d: StopDecision) -> Dict:
    """The JSON form of a stop decision: one entry of a trajectory's `stop_trace`."""
    diagnostics = {k: float(v) for k, v in d.diagnostics.items()}
    return {"t": d.t, "stop": d.stop, "cap_hit": d.cap_hit, "diagnostics": diagnostics}


def trajectory_payload(rec: ExperimentRecord) -> Dict:
    """JSON form of one replication's sufficient statistics and stop trace."""

    def arr(a):
        return None if a is None else np.asarray(a).tolist()

    return {
        "rep": rec.rep_index,
        "seed": rec.seed,
        "inference_seed": rec.inference_seed,
        "stop_time": rec.stop_time,
        "cap_hit": rec.cap_hit,
        "noise_plugin": None if rec.ivw is None else arr(rec.ivw.noise_sd),
        # Batch statistics are always arrays, so they skip `arr`'s np.asarray.
        "sufficient_stats": [
            {
                "batch_index": i + 1,
                "beta1": None if b1 is None else b1.tolist(),
                "gram1": g1.tolist(),
                "beta0": None if b0 is None else b0.tolist(),
                "gram0": g0.tolist(),
            }
            for i, (b1, g1, b0, g0) in enumerate(rec.trajectory.stats)
        ],
        "stop_trace": [_decision_json(d) for d in rec.trajectory.stop_trace],
        "terminal": None
        if rec.ivw is None
        else {
            "beta0": arr(rec.ivw.beta0),
            "beta1": arr(rec.ivw.beta1),
            "var0": arr(rec.ivw.var0),
            "var1": arr(rec.ivw.var1),
            "batch_size": rec.ivw.batch_size,
        },
    }


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
            # One line, no indent: with `indent` json runs its pure-Python encoder.
            text = json.dumps(trajectory_payload(rec), sort_keys=True) + "\n"
            _write_atomic(os.path.join(traj_dir, f"rep_{rec.rep_index:05d}.json"), text)
        written["trajectories"] = traj_dir
    return written


# ---------------------------------------------------------------------------
# Reading a stored trajectory back
# ---------------------------------------------------------------------------


def _stored(obj: Dict, path: str, kind, shape=None, nullable: bool = False):
    """`obj`'s value for the last key of the trajectory's `path`, read as the
    config leaf type `kind`; any other value is a ConfigError naming `path`."""
    label, key = f"trajectory key {path!r}", path.rpartition(".")[2]
    if key not in obj:
        raise ConfigError(f"{label} is missing")
    if obj[key] is None and nullable:
        return None
    value = kind.read(obj[key], label)
    if shape is not None and value.shape != shape:
        raise ConfigError(f"{label} must have shape {shape}, got {value.shape}")
    return value


def _stored_variance(term: Dict, path: str, shape) -> np.ndarray:
    """`_stored` for a variance matrix, which must also be symmetric (as
    `linalg.require_symmetric` checks) and have no negative eigenvalue."""
    var = _stored(term, path, _ARRAY, shape)
    try:
        require_symmetric(var)
    except ContractError:
        raise ConfigError(f"trajectory key {path!r} must be symmetric") from None
    if eigvalsh(var)[0] < 0:
        raise ConfigError(f"trajectory key {path!r} must have no negative eigenvalue")
    return var


def record_from_trajectory(payload: Dict, config: ExperimentConfig) -> ExperimentRecord:
    """Rebuild the slice of an ExperimentRecord that inference needs from a
    stored trajectory JSON payload plus its config.  A payload that is
    malformed, does not fit the config or cannot be inferred from is a
    ConfigError naming the key."""
    payload = _DICT.read(payload, "trajectory")
    vec, mat = (config.model.dim,), (config.model.dim, config.model.dim)
    stop_time = _stored(payload, "stop_time", _INT)
    if not 1 <= stop_time <= config.stopping.t_max:
        raise ConfigError(f"trajectory key 'stop_time' must lie in 1..{config.stopping.t_max}")
    entries = _stored(payload, "sufficient_stats", _LIST)
    for i, e in enumerate(entries):
        path = f"sufficient_stats[{i}]"
        e = _DICT.read(e, f"trajectory key {path!r}")
        if _stored(e, f"{path}.batch_index", _INT) != i + 1:
            raise ConfigError(f"trajectory key '{path}.batch_index' must be {i + 1}")
        for a in (1, 0):
            _stored(e, f"{path}.beta{a}", _ARRAY, vec, nullable=True)
        for a in (1, 0):
            _stored(e, f"{path}.gram{a}", _ARRAY, mat)
    if len(entries) != stop_time:
        raise ConfigError(f"trajectory key 'sufficient_stats' must have stop_time = {stop_time} entries")
    # A cap hit means the rule did not fire by t_max; resimulation conditions on it.
    cap_hit = _stored(payload, "cap_hit", _BOOL)
    # Only a pre-determined rule reads the bound constants, and they may need
    # the pilot calibration.
    setup = _setup(config, resolve_constants(config) if config.stopping.predetermined else None)
    # One decision per batch, each the one the config's rule makes from the
    # norms it stores and those of the entry before, as the loops carry them;
    # the last is the run's only stop.
    trace = _stored(payload, "stop_trace", _LIST)
    if len(trace) != stop_time:
        raise ConfigError(f"trajectory key 'stop_trace' must have stop_time = {stop_time} entries")
    previous = None
    for i, d in enumerate(trace):
        path, last = f"stop_trace[{i}]", i + 1 == stop_time
        diagnostics = _stored(_DICT.read(d, f"trajectory key {path!r}"), f"{path}.diagnostics", _DICT)
        norms = (diagnostics.get("var_norm_arm0"), diagnostics.get("var_norm_arm1"))
        current = norms if all(isinstance(v, float) for v in norms) else None
        again = json.dumps(_decision_json(evaluate(setup.rule, i + 1, current, previous)), sort_keys=True)
        if json.dumps(d, sort_keys=True) != again:
            raise ConfigError(f"trajectory key {path!r} does not follow from the config's stopping rule: {again}")
        want = {"stop": last, "cap_hit": last and cap_hit}
        if {k: d[k] for k in want} != want:
            raise ConfigError(
                f"trajectory key {path!r} must have {json.dumps(want)}, since 'stop_time' is {stop_time} "
                f"and 'cap_hit' is {json.dumps(cap_hit)}"
            )
        previous = current
    # Resimulation draws the surrogates' noise at the stored plug-in scales.
    resimulation = config.inference is not None and config.inference.mode == RESIMULATION_REJECTION
    noise_sd = _stored(payload, "noise_plugin", _ARRAY, (2,), nullable=not resimulation)
    # A known-sigma run stores the known scale for both arms.
    if noise_sd is not None and isinstance(config.sigma_mode, KnownSigma):
        sigma = config.sigma_mode.sigma
        if noise_sd.tolist() != [sigma, sigma]:
            raise ConfigError(f"trajectory key 'noise_plugin' must be [{sigma!r}, {sigma!r}] under a known sigma")
    elif noise_sd is not None and (noise_sd < 0).any():
        raise ConfigError("trajectory key 'noise_plugin' must be nonnegative")
    term = _stored(payload, "terminal", _DICT)  # null: the run left nothing to infer from
    batch_size = _stored(term, "terminal.batch_size", _INT)
    if batch_size != config.batch_size:
        raise ConfigError(f"trajectory key 'terminal.batch_size' must be {config.batch_size}")
    ivw = IvwEstimate(
        beta0=_stored(term, "terminal.beta0", _ARRAY, vec),
        beta1=_stored(term, "terminal.beta1", _ARRAY, vec),
        var0=_stored_variance(term, "terminal.var0", mat),
        var1=_stored_variance(term, "terminal.var1", mat),
        batch_size=batch_size,
        noise_sd=None if noise_sd is None else tuple(noise_sd.tolist()),
    )
    return ExperimentRecord(
        rep_index=_stored(payload, "rep", _INT),
        seed=_stored(payload, "seed", _INT),
        setup=setup,
        stop_time=stop_time,
        cap_hit=cap_hit,
        ivw=ivw,
        regret_hat=None,
        creg=None,
        inference=None,
        inference_seed=_stored(payload, "inference_seed", _INT),
    )


def load_trajectory(path: str, config: ExperimentConfig) -> ExperimentRecord:
    """`record_from_trajectory` on a trajectory JSON file."""
    return record_from_trajectory(_read_json(path, "trajectory"), config)


# ---------------------------------------------------------------------------
# Config (de)serialization
# ---------------------------------------------------------------------------
#
# The config format is one table, `_CONFIG`: each section names its dataclass
# and lists its keys in order, each with its JSON type.  `config_from_dict`
# and `config_to_dict` both walk it, so every key is declared once.  A key may
# be left out when its dataclass field has a default, and may be null only
# when that default is None.  The table checks types only; ranges are checked
# by the dataclasses themselves.


def _describe(value) -> str:
    return json.dumps(value, default=repr)


def _real(value) -> Optional[float]:
    """A finite real number (not a bool), or None."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:
            return None
        if math.isfinite(real):
            return real
    return None


def _integer(value) -> Optional[int]:
    """An int, or a finite float with an integral value; else None."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    real = _real(value)
    return int(real) if real is not None and real.is_integer() else None


def _finite_entries(value) -> bool:
    return isinstance(value, list) and all(
        _finite_entries(v) if isinstance(v, list) else _real(v) is not None for v in value
    )


def _array(value) -> Optional[np.ndarray]:
    """A JSON array, possibly nested, of finite numbers; else None."""
    if _finite_entries(value):
        try:
            return np.asarray(value, dtype=float)
        except ValueError:  # ragged nesting
            pass
    return None


class _Leaf:
    """One JSON value type: `parse` gives the Python value, or None when the
    JSON value is not of this type."""

    def __init__(self, what: str, parse, write=lambda value: value):
        self.what, self.parse, self.write = what, parse, write

    def read(self, value, key: str):
        parsed = self.parse(value)
        if parsed is None:
            raise ConfigError(f"{key} must be {self.what}, got {_describe(value)}")
        return parsed


_INT = _Leaf("an integer", _integer)
_REAL = _Leaf("a finite number", _real)
_BOOL = _Leaf("true or false", lambda v: v if isinstance(v, bool) else None)
_STR = _Leaf("a string", lambda v: v if isinstance(v, str) else None)
_ARRAY = _Leaf("an array of finite numbers", _array, lambda a: np.asarray(a, dtype=float).tolist())
_LIST = _Leaf("an array", lambda v: v if isinstance(v, list) else None)
_DICT = _Leaf("a JSON object", lambda v: v if isinstance(v, dict) else None)


class _Section:
    """A JSON object read as `cls(**values)`; keys it does not list are ignored."""

    def __init__(self, cls, **keys):
        self.cls, self.keys = cls, keys
        self.defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}

    def read(self, value, key: str):
        data = _DICT.read(value, key)
        values = {}
        for name, kind in self.keys.items():
            path = f"{key}.{name}" if key else name
            if name not in data:
                if name not in self.defaults:
                    raise ConfigError(f"config is missing required key {path!r}")
            # null stands for a None default; anything else is read by type.
            elif data[name] is not None or self.defaults.get(name, MISSING) is not None:
                values[name] = kind.read(data[name], path)
        return self.cls(**values)

    def write(self, obj) -> Dict:
        out = {}
        for name, kind in self.keys.items():
            value = getattr(obj, name)
            out[name] = None if value is None else kind.write(value)
        return out


class _Tagged:
    """A JSON object whose `kind` key selects the section that reads the rest.
    A kind not in `kinds` reads as `fallback`, or is an error without one."""

    def __init__(self, kinds: Dict[str, _Section], fallback: Optional[str] = None):
        self.kinds, self.fallback = kinds, fallback

    def read(self, value, key: str):
        data = _DICT.read(value, key)
        if "kind" not in data:
            raise ConfigError(f"config is missing required key '{key}.kind'")
        kind = _STR.read(data["kind"], f"{key}.kind")
        section = self.kinds.get(kind, self.kinds.get(self.fallback))
        if section is None:
            raise ConfigError(f"{key}.kind must be one of {', '.join(self.kinds)}, got {kind!r}")
        return section.read(data, key)

    def write(self, obj) -> Dict:
        kind = next(k for k, section in self.kinds.items() if section.cls is type(obj))
        return {"kind": kind, **self.kinds[kind].write(obj)}


class _Wrapped:
    """A value stored as the JSON form of `unwrap(value)`."""

    def __init__(self, inner, wrap, unwrap):
        self.inner, self.wrap, self.unwrap = inner, wrap, unwrap

    def read(self, value, key: str):
        return self.wrap(self.inner.read(value, key))

    def write(self, obj):
        return self.inner.write(self.unwrap(obj))


@dataclass(frozen=True)
class _Hypothesis:
    beta0: np.ndarray
    beta1: np.ndarray


_SCHEDULE = _Section(Schedule, initial=_REAL, decay=_REAL, floor=_REAL)

_CONFIG = _Section(
    ExperimentConfig,
    context=_Section(
        ContextSpec,
        dim=_INT,
        sup_bound=_REAL,
        dist=_Tagged(
            {
                "uniform_box": _Section(UniformBox, lower=_ARRAY, upper=_ARRAY),
                "truncated_gaussian": _Section(
                    TruncatedGaussian, mean=_ARRAY, cov=_ARRAY, bound=_REAL
                ),
            }
        ),
    ),
    model=_Section(TrueModel, beta0=_ARRAY, beta1=_ARRAY, sigma0=_REAL, sigma1=_REAL, noise=_STR),
    policy=_Tagged(
        {
            "uniform": _Section(UniformRandom),
            "eps_greedy": _Section(EpsGreedy, eps=_SCHEDULE),
            "ucb": _Section(Ucb, bonus=_SCHEDULE),
            "thompson": _Section(Thompson, sigma_prior=_REAL),
        }
    ),
    clip=_Wrapped(_SCHEDULE, ClipSchedule, lambda clip: clip.schedule),
    batch_size=_INT,
    stopping=_Section(
        StoppingRule, kind=_STR, t_max=_INT, k=_REAL, c_prime=_REAL, scale_by_batch=_BOOL
    ),
    # Any other kind reads as residual: perfbench/test_perfbench.py
    # (test_round_trip_rejects_keys_the_package_would_drop) expects the
    # benchmark's round trip, not this reader, to reject a misspelt kind.
    sigma_mode=_Tagged(
        {"known": _Section(KnownSigma, sigma=_REAL), "residual": _Section(ResidualSigma)},
        fallback="residual",
    ),
    bounds=_Section(
        BoundsConfig,
        margin_exponent=_REAL,
        margin_const=_REAL,
        delta=_REAL,
        unit_cost=_REAL,
        tail_const=_REAL,
        context_bound=_REAL,
        calibration=_Section(CalibrationConfig, t_ref=_INT, replications=_INT),
    ),
    inference=_Section(
        ConditionalSamplerConfig,
        mode=_STR,
        n_samples=_INT,
        max_attempts=_INT,
        level=_REAL,
        bonferroni=_BOOL,
    ),
    hypothesis=_Wrapped(
        _Section(_Hypothesis, beta0=_ARRAY, beta1=_ARRAY),
        lambda h: (h.beta0, h.beta1),
        lambda pair: _Hypothesis(*pair),
    ),
    replications=_INT,
    master_seed=_INT,
    regret_mc_samples=_INT,
    trajectory_json=_BOOL,
)


def config_to_dict(config: ExperimentConfig) -> Dict:
    """The JSON form of `config`; `config_from_dict` reads it back."""
    return {"schema_version": SCHEMA_VERSION, **_CONFIG.write(config)}


def config_from_dict(data: Dict) -> ExperimentConfig:
    """Read a JSON config; any malformed value is a ConfigError."""
    try:
        version = _DICT.read(data, "config").get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        return _CONFIG.read(data, "")
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    return config_from_dict(_read_json(path, "config"))
