"""Command-line harness.

Subcommands:
  simulate          run seeded replications and emit reports
  stop-scan         evaluate pre-determined rules and closed-form stop times
  infer             re-run inference on a stored trajectory JSON
  calibrate-k       pilot calibration of the tail constant
  check-assumptions Monte Carlo check of the model's regularity conditions

Exit codes: 0 success, 2 configuration error, 3 runtime error (per-replication
detail is still written to the summary when possible).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional

from . import bounds as bounds_mod
from .errors import ConfigError
from .harness import (
    CALIBRATION_SEED_TAG,
    ExperimentConfig,
    emit_reports,
    load_config,
    prepare,
    record_from_trajectory,
    run_replications,
)
from .inference import ConditionalSamplerConfig, run_inference
from .model import check_assumptions
from .rng import make_rng, substream_seed
from .stopping import closed_form_stop_time, scan_stop_time


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["master_seed"] = args.seed
    if getattr(args, "reps", None) is not None:
        updates["replications"] = args.reps
    return dataclasses.replace(config, **updates) if updates else config


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config(args.config), args)
    formats = [f.strip() for f in args.format.split(",") if f.strip()]
    records, aggregates = run_replications(config)
    emit_reports(records, args.out, formats, config, aggregates=aggregates)
    fatal = [rec for rec in records if rec.error is not None]
    print(
        f"simulate: {len(records)} replications, "
        f"mean stop time {aggregates['stop_time_mean']:.3f}, "
        f"{len(fatal)} with errors -> {args.out}"
    )
    return 3 if fatal else 0


def _cmd_stop_scan(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config(args.config), args)
    if not config.stopping.kind.startswith("predetermined"):
        raise ConfigError("stop-scan applies to pre-determined stopping rules")
    prepared = prepare(config)
    decision = scan_stop_time(prepared.setup.rule)
    out = {
        "stop_time": decision.t,
        "cap_hit": decision.cap_hit,
        "diagnostics": decision.diagnostics,
    }
    try:
        predicted = closed_form_stop_time(prepared.setup.rule)
        out["t_star"] = predicted.t_star
        out["creg_star"] = predicted.creg_star
    except Exception as exc:  # closed form only exists for margin exponent 1
        out["closed_form_unavailable"] = str(exc)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config(args.config), args)
    with open(args.trajectory) as fh:
        payload = json.load(fh)
    record = record_from_trajectory(payload, config)
    cfg = config.inference if config.inference is not None else ConditionalSamplerConfig()
    seed = args.inference_seed if args.inference_seed is not None else record.inference_seed
    result = run_inference(record, cfg, config.hypothesis, seed)
    print(
        json.dumps(
            {
                "stop_time": record.stop_time,
                "level": result.level,
                "beta0": result.beta0.tolist(),
                "beta1": result.beta1.tolist(),
                "ci_arm0": [result.lo0.tolist(), result.hi0.tolist()],
                "ci_arm1": [result.lo1.tolist(), result.hi1.tolist()],
                "reject": result.reject,
                "acceptance_rate": result.acceptance_rate,
                "samples_retained": result.samples_retained,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config(args.config), args)
    if config.bounds is None:
        raise ConfigError("config has no bounds section to calibrate")
    cal = config.bounds.calibration
    t_ref = args.t_ref if args.t_ref is not None else (cal.t_ref if cal else None)
    if t_ref is None:
        raise ConfigError("provide --t-ref or a calibration block in the config")
    reps = args.pilot_reps if args.pilot_reps is not None else (cal.replications if cal else 200)
    k = bounds_mod.calibrate_tail_constant(
        config.context,
        config.model,
        config.policy,
        config.clip,
        config.batch_size,
        t_ref,
        config.bounds.delta,
        reps,
        substream_seed(config.master_seed, CALIBRATION_SEED_TAG),
    )
    print(json.dumps({"tail_const": k, "t_ref": t_ref, "pilot_replications": reps}))
    return 0


def _cmd_check_assumptions(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config(args.config), args)
    report = check_assumptions(
        config.context,
        config.model,
        mc_samples=args.mc_samples,
        rng=make_rng(config.master_seed),
    )
    print(
        json.dumps(
            {
                "sup_norm_hat": report.sup_norm_hat,
                "lambda_min_hat": report.lambda_min_hat,
                "margin_scale_hat": report.margin_scale_hat,
                "margin_exponent_hat": report.margin_exponent_hat,
                "mc_samples": report.mc_samples,
                "bounded_ok": report.bounded_ok,
                "eigenvalue_ok": report.eigenvalue_ok,
                "margin_ok": report.margin_ok,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banditstop",
        description="Batched two-arm linear bandit simulation with early stopping",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_out=False):
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--reps", type=int, default=None, help="override the replication count")
        if with_out:
            p.add_argument("--out", required=True, help="output directory")
            p.add_argument("--format", default="csv,json", help="comma-separated: csv,json")

    common(sub.add_parser("simulate", help="run replications and emit reports"), with_out=True)
    common(sub.add_parser("stop-scan", help="pre-determined stop times without simulation"))
    p_inf = sub.add_parser("infer", help="re-run inference on a stored trajectory")
    common(p_inf)
    p_inf.add_argument("--trajectory", required=True, help="trajectory JSON path")
    p_inf.add_argument("--inference-seed", type=int, default=None)
    p_cal = sub.add_parser("calibrate-k", help="pilot calibration of the tail constant")
    common(p_cal)
    p_cal.add_argument("--t-ref", type=int, default=None)
    p_cal.add_argument("--pilot-reps", type=int, default=None)
    p_chk = sub.add_parser("check-assumptions", help="Monte Carlo regularity checks")
    common(p_chk)
    p_chk.add_argument("--mc-samples", type=int, default=100_000)
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "stop-scan": _cmd_stop_scan,
    "infer": _cmd_infer,
    "calibrate-k": _cmd_calibrate,
    "check-assumptions": _cmd_check_assumptions,
}


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
