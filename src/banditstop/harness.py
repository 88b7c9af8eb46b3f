"""Experiment harness: JSON config ingestion, the seeded replication runner,
aggregation, and CSV/JSON report emission.

Determinism contract: a (config, master_seed) pair fully determines every
emitted byte except the single `generated_at` field in summary.json.
Replication r uses seed derive_seed(master_seed, r); within a replication the
trajectory, the regret oracle, and inference run on independent named
sub-streams.  Replications may execute in any order; the
reducer sorts by replication index.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bounds as bounds_mod
from .bounds import (
    AdditiveCost,
    BoundConstants,
    CostAdjustedRegret,
    CostMode,
    ThresholdCost,
    cost_adjusted_regret,
    regret_bound_from_variance,
    regret_bound_time,
)
from .errors import ConfigError, EstimatorUnavailable, InfeasibleConditioning
from .estimators import (
    KnownSigma,
    ResidualSigma,
    SigmaMode,
    residual_noise_factors,
    sufficient_statistics,
)
from .inference import ConditionalSamplerConfig, run_inference
from .model import (
    ContextSpec,
    TrueModel,
    TruncatedGaussian,
    UniformBox,
    estimate_policy_regret,
)
from .policies import ClipSchedule, EpsGreedy, PolicyKind, Schedule, Thompson, Ucb, UniformRandom
from .records import ExperimentRecord, SimulationSetup
from .rng import (
    INFERENCE_STREAM,
    REGRET_STREAM,
    TRAJECTORY_STREAM,
    derive_seed,
    make_rng,
    substream_seed,
)
from .simulate import simulate_trajectory
from .stopping import (
    OnlineOpportunity,
    OnlineThreshold,
    PredeterminedOpportunity,
    PredeterminedThreshold,
    StoppingRuleSpec,
)

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
    noise_sd: Optional[float] = None  # None: taken from the sigma mode / model
    calibration: Optional[CalibrationConfig] = None


@dataclass(frozen=True)
class StoppingConfig:
    kind: str  # predetermined_opportunity | predetermined_threshold | online_threshold | online_opportunity
    t_max: int
    k: Optional[float] = None
    c_prime: Optional[float] = None
    scale_by_batch: bool = False

    _KINDS = (
        "predetermined_opportunity",
        "predetermined_threshold",
        "online_threshold",
        "online_opportunity",
    )

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigError(f"unknown stopping kind {self.kind!r}")
        if self.kind.endswith("threshold") and (self.k is None or self.k <= 0):
            raise ConfigError("threshold rules need k > 0")
        if self.kind == "online_opportunity" and (self.c_prime is None or self.c_prime <= 0):
            raise ConfigError("online_opportunity needs c_prime > 0")
        if self.t_max < 1:
            raise ConfigError("t_max must be >= 1")
        for name, value in (("k", self.k), ("c_prime", self.c_prime)):
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"stopping.{name} must be finite")


@dataclass(frozen=True)
class ExperimentConfig:
    context: ContextSpec
    model: TrueModel
    policy: PolicyKind
    clip: ClipSchedule
    batch_size: int
    stopping: StoppingConfig
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
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.model.dim != self.context.dim:
            raise ConfigError("model dimension does not match the context spec")
        if self.stopping.kind.startswith("predetermined") and self.bounds is None:
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
    cost_mode: Optional[CostMode]


def _nominal_noise_sd(config: ExperimentConfig) -> float:
    if isinstance(config.sigma_mode, KnownSigma):
        return config.sigma_mode.sigma
    return max(config.model.sigma0, config.model.sigma1)


def resolve_constants(config: ExperimentConfig) -> Optional[BoundConstants]:
    """Build bound constants, running the pilot calibration when requested."""
    bc = config.bounds
    if bc is None:
        return None
    tail = bc.tail_const
    if tail is None:
        if bc.calibration is None:
            raise ConfigError("bounds section needs tail_const or a calibration block")
        tail = bounds_mod.calibrate_tail_constant(
            config.context,
            config.model,
            config.policy,
            config.clip,
            config.batch_size,
            bc.calibration.t_ref,
            bc.delta,
            bc.calibration.replications,
            substream_seed(config.master_seed, CALIBRATION_SEED_TAG),
        )
    return BoundConstants(
        context_bound=(
            bc.context_bound if bc.context_bound is not None else config.context.euclidean_bound()
        ),
        margin_exponent=bc.margin_exponent,
        margin_const=bc.margin_const,
        dim=config.context.dim,
        noise_sd=bc.noise_sd if bc.noise_sd is not None else _nominal_noise_sd(config),
        delta=bc.delta,
        tail_const=tail,
        unit_cost=bc.unit_cost,
        batch_size=config.batch_size,
        clip_floor=config.clip.floor,
    )


def build_rule(config: ExperimentConfig, consts: Optional[BoundConstants]) -> StoppingRuleSpec:
    sc = config.stopping
    if sc.kind == "predetermined_opportunity":
        return StoppingRuleSpec(PredeterminedOpportunity(consts), t_max=sc.t_max)
    if sc.kind == "predetermined_threshold":
        return StoppingRuleSpec(PredeterminedThreshold(consts, sc.k), t_max=sc.t_max)
    if sc.kind == "online_threshold":
        return StoppingRuleSpec(OnlineThreshold(sc.k), t_max=sc.t_max)
    return StoppingRuleSpec(
        OnlineOpportunity(
            sc.c_prime, scale_by_batch=sc.scale_by_batch, batch_size=config.batch_size
        ),
        t_max=sc.t_max,
    )


def prepare(config: ExperimentConfig) -> PreparedExperiment:
    consts = resolve_constants(config)
    rule = build_rule(config, consts)
    setup = SimulationSetup(
        context=config.context,
        policy=config.policy,
        clip=config.clip,
        batch_size=config.batch_size,
        sigma_mode=config.sigma_mode,
        rule=rule,
    )
    cost_mode: Optional[CostMode]
    if config.stopping.kind == "predetermined_threshold":
        cost_mode = ThresholdCost(config.stopping.k)
    elif config.stopping.kind == "online_threshold" and consts is not None:
        cost_mode = ThresholdCost(regret_bound_from_variance(config.stopping.k, consts))
    elif consts is not None:
        cost_mode = AdditiveCost()
    else:
        cost_mode = None
    return PreparedExperiment(config=config, setup=setup, consts=consts, cost_mode=cost_mode)


def _terminal_bound(
    prepared: PreparedExperiment, stop_time: int, var_norms: Tuple[float, float]
) -> Optional[float]:
    consts = prepared.consts
    if consts is None:
        return None
    if prepared.config.stopping.kind.startswith("predetermined"):
        return regret_bound_time(stop_time, consts)
    if not all(math.isfinite(v) for v in var_norms):
        return None
    return regret_bound_from_variance(max(var_norms), consts)


def run_experiment(
    config: ExperimentConfig,
    rep_index: int,
    prepared: Optional[PreparedExperiment] = None,
) -> ExperimentRecord:
    """Simulate one seeded replication end to end (trajectory, stopping,
    regret oracle, inference)."""
    prepared = prepared if prepared is not None else prepare(config)
    seed = derive_seed(config.master_seed, rep_index)
    rng_traj = make_rng(substream_seed(seed, TRAJECTORY_STREAM))
    inference_seed = substream_seed(seed, INFERENCE_STREAM)

    traj = simulate_trajectory(prepared.setup, config.model, rng_traj)

    stats = sufficient_statistics(traj.fits)
    noise_plugin: Optional[Tuple[float, float]] = None
    regret_hat: Optional[float] = None
    creg: Optional[CostAdjustedRegret] = None
    error: Optional[str] = None

    if traj.ivw is None:
        error = "estimator unavailable at the stop time"
    else:
        if isinstance(config.sigma_mode, KnownSigma):
            noise_plugin = (config.sigma_mode.sigma, config.sigma_mode.sigma)
        else:
            try:
                f0, f1 = residual_noise_factors(traj.sums, traj.ivw.beta0, traj.ivw.beta1)
                noise_plugin = (math.sqrt(f0), math.sqrt(f1))
            except EstimatorUnavailable as exc:
                error = str(exc)
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
        stats=stats,
        stop_trace=traj.stop_trace,
        stop_time=traj.stop_time,
        cap_hit=traj.cap_hit,
        ivw=traj.ivw,
        noise_plugin=noise_plugin,
        regret_hat=regret_hat,
        creg=None,
        inference=None,
        inference_seed=inference_seed,
        error=error,
    )

    if prepared.cost_mode is not None and traj.ivw is not None:
        bound = _terminal_bound(prepared, traj.stop_time, record.var_norms)
        if bound is not None:
            record.creg = cost_adjusted_regret(
                bound, traj.stop_time, prepared.consts, prepared.cost_mode
            )

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

    The reducer sorts by replication index, so aggregates are independent of
    execution order.
    """
    prepared = prepare(config)
    indices = list(range(config.replications))
    if execution_order is not None:
        if sorted(execution_order) != indices:
            raise ConfigError("execution_order must be a permutation of range(replications)")
        indices = list(execution_order)

    records = [run_experiment(config, r, prepared=prepared) for r in indices]
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
        "noise_plugin": arr(rec.noise_plugin),
        "sufficient_stats": [
            {
                "batch_index": i + 1,
                "beta1": arr(b1),
                "gram1": arr(g1),
                "beta0": arr(b0),
                "gram0": arr(g0),
            }
            for i, (b1, g1, b0, g0) in enumerate(rec.stats.entries)
        ],
        "stop_trace": [
            {
                "t": d.t,
                "stop": d.stop,
                "cap_hit": d.cap_hit,
                "diagnostics": {k: float(v) for k, v in d.diagnostics.items()},
            }
            for d in rec.stop_trace
        ],
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


def emit_reports(
    records: Sequence[ExperimentRecord],
    out_dir: str,
    formats: Sequence[str],
    config: ExperimentConfig,
    aggregates: Optional[Dict] = None,
    timestamp: Optional[str] = None,
) -> Dict[str, str]:
    """Write replications.csv / summary.json (and optional per-rep trajectories).

    Returns the mapping of artifact name to path.  The CSV and the summary are
    each written via a temporary file and atomic rename, so a failed write
    leaves no partial report.
    """
    if not records:
        raise ConfigError("no records to report")
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
            path = os.path.join(traj_dir, f"rep_{rec.rep_index:05d}.json")
            with open(path, "w") as fh:
                json.dump(trajectory_payload(rec), fh, indent=2, sort_keys=True)
                fh.write("\n")
        written["trajectories"] = traj_dir
    return written


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay_stop_decisions(record: ExperimentRecord) -> List:
    """Recompute every batch's stopping decision from the stored sufficient
    statistics alone.

    Valid for pre-determined rules (no data involved) and for online rules in
    known-sigma mode, whose stopping statistic is a function of the Gram
    matrices; residual-based statistics are not recoverable from the
    statistics list.
    """
    from .errors import ContractError
    from .linalg import inverse_spd, is_invertible_gram
    from .stopping import evaluate

    setup = record.setup
    if not setup.rule.is_predetermined and not isinstance(setup.sigma_mode, KnownSigma):
        raise ContractError("replay from sufficient statistics needs a known noise scale")

    decisions = []
    dim = record.setup.context.dim
    totals = {0: np.zeros((dim, dim)), 1: np.zeros((dim, dim))}
    prev = None
    for t, (beta1, gram1, beta0, gram0) in enumerate(record.stats.entries, start=1):
        if beta1 is not None:
            totals[1] = totals[1] + gram1
        if beta0 is not None:
            totals[0] = totals[0] + gram0
        current = None
        if isinstance(setup.sigma_mode, KnownSigma):
            sig2 = setup.sigma_mode.sigma ** 2
            if is_invertible_gram(totals[0]) and is_invertible_gram(totals[1]):
                current = (
                    setup.batch_size * inverse_spd(totals[0]) * sig2,
                    setup.batch_size * inverse_spd(totals[1]) * sig2,
                )
        decisions.append(evaluate(setup.rule, t, current=current, previous=prev))
        prev = current
    return decisions


def record_from_trajectory(payload: Dict, config: ExperimentConfig) -> ExperimentRecord:
    """Rebuild the slice of an ExperimentRecord that inference needs from a
    stored trajectory JSON payload plus its config."""
    from .estimators import IvwEstimate, SufficientStats

    prepared = prepare(config)
    entries = [
        (
            None if e["beta1"] is None else np.asarray(e["beta1"], dtype=float),
            np.asarray(e["gram1"], dtype=float),
            None if e["beta0"] is None else np.asarray(e["beta0"], dtype=float),
            np.asarray(e["gram0"], dtype=float),
        )
        for e in payload["sufficient_stats"]
    ]
    term = payload.get("terminal")
    ivw = None
    if term is not None:
        ivw = IvwEstimate(
            beta0=np.asarray(term["beta0"], dtype=float),
            beta1=np.asarray(term["beta1"], dtype=float),
            var0=np.asarray(term["var0"], dtype=float),
            var1=np.asarray(term["var1"], dtype=float),
            batches_used=len(entries),
            batch_size=int(term["batch_size"]),
            sigma_mode=config.sigma_mode,
        )
    noise_plugin = payload.get("noise_plugin")
    return ExperimentRecord(
        rep_index=int(payload["rep"]),
        seed=int(payload["seed"]),
        setup=prepared.setup,
        stats=SufficientStats(entries=entries),
        stop_trace=[],
        stop_time=int(payload["stop_time"]),
        cap_hit=bool(payload["cap_hit"]),
        ivw=ivw,
        noise_plugin=None if noise_plugin is None else (float(noise_plugin[0]), float(noise_plugin[1])),
        regret_hat=None,
        creg=None,
        inference=None,
        inference_seed=int(payload["inference_seed"]),
    )


# ---------------------------------------------------------------------------
# Config (de)serialization
# ---------------------------------------------------------------------------


def _schedule_to_dict(s: Schedule) -> Dict:
    return {"initial": s.initial, "decay": s.decay, "floor": s.floor}


def _schedule_from_dict(d: Dict) -> Schedule:
    return Schedule(
        initial=float(d["initial"]),
        decay=float(d.get("decay", 0.0)),
        floor=float(d.get("floor", 0.0)),
    )


def config_to_dict(config: ExperimentConfig) -> Dict:
    ctx = config.context
    if isinstance(ctx.dist, UniformBox):
        dist = {
            "kind": "uniform_box",
            "lower": ctx.dist.lower.tolist(),
            "upper": ctx.dist.upper.tolist(),
        }
    else:
        dist = {
            "kind": "truncated_gaussian",
            "mean": ctx.dist.mean.tolist(),
            "cov": ctx.dist.cov.tolist(),
            "bound": ctx.dist.bound,
        }

    policy = config.policy
    if isinstance(policy, UniformRandom):
        pol = {"kind": "uniform"}
    elif isinstance(policy, EpsGreedy):
        pol = {"kind": "eps_greedy", "eps": _schedule_to_dict(policy.eps)}
    elif isinstance(policy, Ucb):
        pol = {"kind": "ucb", "bonus": _schedule_to_dict(policy.bonus)}
    else:
        pol = {"kind": "thompson", "sigma_prior": policy.sigma_prior}

    sig = (
        {"kind": "known", "sigma": config.sigma_mode.sigma}
        if isinstance(config.sigma_mode, KnownSigma)
        else {"kind": "residual"}
    )

    bc = config.bounds
    bounds = None
    if bc is not None:
        bounds = {
            "margin_exponent": bc.margin_exponent,
            "margin_const": bc.margin_const,
            "delta": bc.delta,
            "unit_cost": bc.unit_cost,
            "tail_const": bc.tail_const,
            "context_bound": bc.context_bound,
            "noise_sd": bc.noise_sd,
            "calibration": None
            if bc.calibration is None
            else {"t_ref": bc.calibration.t_ref, "replications": bc.calibration.replications},
        }

    inf = config.inference
    inference = None
    if inf is not None:
        inference = {
            "mode": inf.mode,
            "n_samples": inf.n_samples,
            "max_attempts": inf.max_attempts,
            "level": inf.level,
            "bonferroni": inf.bonferroni,
        }

    hyp = None
    if config.hypothesis is not None:
        hyp = {
            "beta0": np.asarray(config.hypothesis[0], dtype=float).tolist(),
            "beta1": np.asarray(config.hypothesis[1], dtype=float).tolist(),
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "context": {"dim": ctx.dim, "sup_bound": ctx.sup_bound, "dist": dist},
        "model": {
            "beta0": config.model.beta0.tolist(),
            "beta1": config.model.beta1.tolist(),
            "sigma0": config.model.sigma0,
            "sigma1": config.model.sigma1,
            "noise": config.model.noise,
        },
        "policy": pol,
        "clip": _schedule_to_dict(config.clip.schedule),
        "batch_size": config.batch_size,
        "stopping": {
            "kind": config.stopping.kind,
            "t_max": config.stopping.t_max,
            "k": config.stopping.k,
            "c_prime": config.stopping.c_prime,
            "scale_by_batch": config.stopping.scale_by_batch,
        },
        "sigma_mode": sig,
        "bounds": bounds,
        "inference": inference,
        "hypothesis": hyp,
        "replications": config.replications,
        "master_seed": config.master_seed,
        "regret_mc_samples": config.regret_mc_samples,
        "trajectory_json": config.trajectory_json,
    }


def _integer(value, key: str) -> int:
    """An integer config value: an int, or a finite float with an integral
    value.  Anything else (a bool, a fraction, inf, null, a string) is a
    ConfigError naming the dotted key."""
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer():
            return int(value)
    raise ConfigError(f"{key} must be an integer, got {json.dumps(value, default=repr)}")


def config_from_dict(data: Dict) -> ExperimentConfig:
    try:
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        ctx = data["context"]
        dist_d = ctx["dist"]
        if dist_d["kind"] == "uniform_box":
            dist = UniformBox(
                lower=np.asarray(dist_d["lower"], dtype=float),
                upper=np.asarray(dist_d["upper"], dtype=float),
            )
        elif dist_d["kind"] == "truncated_gaussian":
            dist = TruncatedGaussian(
                mean=np.asarray(dist_d["mean"], dtype=float),
                cov=np.asarray(dist_d["cov"], dtype=float),
                bound=float(dist_d["bound"]),
            )
        else:
            raise ConfigError(f"unknown context dist {dist_d['kind']!r}")
        context = ContextSpec(
            dim=_integer(ctx["dim"], "context.dim"),
            dist=dist,
            sup_bound=float(ctx["sup_bound"]),
        )

        md = data["model"]
        model = TrueModel(
            beta0=np.asarray(md["beta0"], dtype=float),
            beta1=np.asarray(md["beta1"], dtype=float),
            sigma0=float(md.get("sigma0", 1.0)),
            sigma1=float(md.get("sigma1", 1.0)),
            noise=md.get("noise", "gaussian"),
        )

        pd = data["policy"]
        if pd["kind"] == "uniform":
            policy: PolicyKind = UniformRandom()
        elif pd["kind"] == "eps_greedy":
            policy = EpsGreedy(eps=_schedule_from_dict(pd["eps"]))
        elif pd["kind"] == "ucb":
            policy = Ucb(bonus=_schedule_from_dict(pd["bonus"]))
        elif pd["kind"] == "thompson":
            policy = Thompson(sigma_prior=float(pd["sigma_prior"]))
        else:
            raise ConfigError(f"unknown policy kind {pd['kind']!r}")

        clip = ClipSchedule(_schedule_from_dict(data["clip"]))

        sd = data["stopping"]
        stopping = StoppingConfig(
            kind=sd["kind"],
            t_max=_integer(sd["t_max"], "stopping.t_max"),
            k=None if sd.get("k") is None else float(sd["k"]),
            c_prime=None if sd.get("c_prime") is None else float(sd["c_prime"]),
            scale_by_batch=bool(sd.get("scale_by_batch", False)),
        )

        sg = data["sigma_mode"]
        sigma_mode: SigmaMode = (
            KnownSigma(float(sg["sigma"])) if sg["kind"] == "known" else ResidualSigma()
        )

        bounds = None
        bd = data.get("bounds")
        if bd is not None:
            cal = bd.get("calibration")
            bounds = BoundsConfig(
                margin_exponent=float(bd["margin_exponent"]),
                margin_const=float(bd["margin_const"]),
                delta=float(bd["delta"]),
                unit_cost=float(bd["unit_cost"]),
                tail_const=None if bd.get("tail_const") is None else float(bd["tail_const"]),
                context_bound=(
                    None if bd.get("context_bound") is None else float(bd["context_bound"])
                ),
                noise_sd=None if bd.get("noise_sd") is None else float(bd["noise_sd"]),
                calibration=None
                if cal is None
                else CalibrationConfig(
                    t_ref=_integer(cal["t_ref"], "bounds.calibration.t_ref"),
                    replications=_integer(
                        cal.get("replications", 200), "bounds.calibration.replications"
                    ),
                ),
            )

        inference = None
        idm = data.get("inference")
        if idm is not None:
            inference = ConditionalSamplerConfig(
                mode=idm.get("mode", "independence_shortcut"),
                n_samples=_integer(idm.get("n_samples", 1000), "inference.n_samples"),
                max_attempts=_integer(
                    idm.get("max_attempts", 100_000), "inference.max_attempts"
                ),
                level=float(idm.get("level", 0.95)),
                bonferroni=bool(idm.get("bonferroni", True)),
            )

        hypothesis = None
        hd = data.get("hypothesis")
        if hd is not None:
            hypothesis = (
                np.asarray(hd["beta0"], dtype=float),
                np.asarray(hd["beta1"], dtype=float),
            )

        return ExperimentConfig(
            context=context,
            model=model,
            policy=policy,
            clip=clip,
            batch_size=_integer(data["batch_size"], "batch_size"),
            stopping=stopping,
            sigma_mode=sigma_mode,
            replications=_integer(data["replications"], "replications"),
            master_seed=_integer(data["master_seed"], "master_seed"),
            bounds=bounds,
            inference=inference,
            hypothesis=hypothesis,
            regret_mc_samples=_integer(
                data.get("regret_mc_samples", 100_000), "regret_mc_samples"
            ),
            trajectory_json=bool(data.get("trajectory_json", False)),
        )
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"config is missing required key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(data)
