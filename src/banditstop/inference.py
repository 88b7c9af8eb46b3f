"""Post-stopping inference: draw arm-parameter samples from the combined
estimator's asymptotic law conditioned on the realized stopping time, build
empirical confidence intervals, and test point hypotheses.

Two samplers are provided.  The independence shortcut draws unconditionally
from the Gaussian limit; it is exact when the stopping statistic depends on
the Gram matrices alone (known-sigma variance mode) and the policy does not
feed estimates back into assignment, because the stop event is then
independent of the estimator's Gaussian fluctuation, and under a
pre-determined rule, whose stop time is fixed in advance
(`harness.inference_exact`; the CLI warns outside these cases).  The resimulation
sampler makes no such assumption: it replays surrogate trajectories under
plug-in parameters and the observed run's rule, with the rule's cap lowered to
the observed stop time, keeps those that stop at that time the way the
observed run did (by the rule, or at the cap), and returns their terminal
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import math

import numpy as np

from .errors import ConfigError, ContractError, InfeasibleConditioning
from .linalg import draw_gaussian
from .model import TrueModel
from .records import ExperimentRecord, InferenceResult
from .rng import derive_seed, make_rng
from .simulate import simulate_trajectory
from .stopping import StoppingRule

INDEPENDENCE_SHORTCUT = "independence_shortcut"
RESIMULATION_REJECTION = "resimulation_rejection"
MIN_SAMPLES = 100  # the fewest draws an interval is read from


@dataclass(frozen=True)
class ConditionalSamplerConfig:
    mode: str = INDEPENDENCE_SHORTCUT
    n_samples: int = 1000
    max_attempts: int = 100_000
    level: float = 0.95
    bonferroni: bool = True

    def __post_init__(self):
        if self.mode not in (INDEPENDENCE_SHORTCUT, RESIMULATION_REJECTION):
            raise ConfigError(f"unknown sampler mode {self.mode!r}")
        if self.n_samples < MIN_SAMPLES:
            raise ConfigError(f"n_samples must be >= {MIN_SAMPLES}")
        if self.max_attempts < self.n_samples:
            raise ConfigError("max_attempts must be >= n_samples")
        if not 0.0 < self.level < 1.0:
            raise ConfigError("level must lie in (0, 1)")


@dataclass
class ConditionalSamples:
    arm0: np.ndarray  # (n_retained, dim)
    arm1: np.ndarray
    acceptance_rate: float
    attempts: int
    batches: int = 0  # surrogate batches simulated: the sum of their stop times


def sample_conditional(
    record: ExperimentRecord,
    rule: Optional[StoppingRule],
    cfg: ConditionalSamplerConfig,
    seed: int,
) -> ConditionalSamples:
    """Draw (arm0, arm1) parameter samples conditioned on the stop time.

    Rejection attempts are keyed by attempt index to independent sub-streams
    of `seed`, so results do not depend on evaluation order.  Surrogates run
    `record.setup.rule` capped at the record's stop time; `rule` must be None.
    """
    if rule is not None:
        raise ContractError("surrogates run the record's own rule; pass rule=None")
    if record.ivw is None:
        raise ContractError("record has no terminal combined estimate")

    if cfg.mode == INDEPENDENCE_SHORTCUT:
        rng = make_rng(derive_seed(seed, 0))
        draws0 = draw_gaussian(rng, record.ivw.beta0, record.ivw.beta_cov(0), cfg.n_samples)
        draws1 = draw_gaussian(rng, record.ivw.beta1, record.ivw.beta_cov(1), cfg.n_samples)
        return ConditionalSamples(arm0=draws0, arm1=draws1, acceptance_rate=1.0, attempts=cfg.n_samples)

    plug_model = TrueModel(
        beta0=record.ivw.beta0,
        beta1=record.ivw.beta1,
        sigma0=record.ivw.noise_sd[0],
        sigma1=record.ivw.noise_sd[1],
        noise="gaussian",
    )
    # Surrogates run the record's rule with its cap lowered to the target
    # stop time: none runs past it, and one that reaches it without the rule
    # firing stops there with cap_hit set.  A surrogate matches when it
    # stopped at that time the way the record did, by the rule or at the cap.
    cap = min(record.setup.rule.t_max, record.stop_time)
    setup = replace(record.setup, rule=replace(record.setup.rule, t_max=cap))
    target = (record.stop_time, record.cap_hit)

    kept0, kept1 = [], []
    attempts = batches = 0
    for attempt in range(1, cfg.max_attempts + 1):
        attempts = attempt
        rng = make_rng(derive_seed(seed, attempt))
        surrogate = simulate_trajectory(setup, plug_model, rng)
        batches += surrogate.stop_time
        if surrogate.ivw is None or (surrogate.stop_time, surrogate.cap_hit) != target:
            continue
        kept0.append(surrogate.ivw.beta0)
        kept1.append(surrogate.ivw.beta1)
        if len(kept0) >= cfg.n_samples:
            break

    if not kept0:
        raise InfeasibleConditioning(attempts)
    return ConditionalSamples(
        arm0=np.asarray(kept0),
        arm1=np.asarray(kept1),
        acceptance_rate=len(kept0) / attempts,
        attempts=attempts,
        batches=batches,
    )


def bootstrap_interval(samples: np.ndarray, level: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per-coordinate nearest-rank interval: with alpha = 1 - level, the lower
    endpoint is the ceil(alpha/2 * N)-th order statistic and the upper endpoint
    the ceil((1 - alpha/2) * N)-th (1-based)."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    n = samples.shape[0]
    if n < MIN_SAMPLES:
        raise ContractError(f"bootstrap_interval needs at least {MIN_SAMPLES} samples")
    if not 0.0 < level < 1.0:
        raise ContractError("level must lie in (0, 1)")
    alpha = 1.0 - level
    lo_rank = max(math.ceil(alpha / 2.0 * n), 1)
    hi_rank = min(math.ceil((1.0 - alpha / 2.0) * n), n)
    ordered = np.sort(samples, axis=0)
    return ordered[lo_rank - 1].copy(), ordered[hi_rank - 1].copy()


def test_hypothesis(
    samples0: np.ndarray,
    samples1: np.ndarray,
    hypothesis: Tuple[np.ndarray, np.ndarray],
    level: float,
    bonferroni: bool = True,
) -> bool:
    """Reject when any coordinate of the hypothesized pair falls strictly
    outside its per-coordinate interval (interval endpoints do not reject).

    With `bonferroni`, per-coordinate intervals are widened so the overall
    level across all 2*dim coordinates is `level`.
    """
    h0 = np.atleast_1d(np.asarray(hypothesis[0], dtype=float))
    h1 = np.atleast_1d(np.asarray(hypothesis[1], dtype=float))
    samples0 = np.asarray(samples0, dtype=float)
    samples1 = np.asarray(samples1, dtype=float)
    if samples0.ndim == 1:
        samples0 = samples0[:, None]
    if samples1.ndim == 1:
        samples1 = samples1[:, None]
    if h0.size != samples0.shape[1] or h1.size != samples1.shape[1]:
        raise ContractError("hypothesis dimension does not match the samples")

    dim = h0.size
    per_coord_level = 1.0 - (1.0 - level) / (2.0 * dim) if bonferroni else level
    lo0, hi0 = bootstrap_interval(samples0, per_coord_level)
    lo1, hi1 = bootstrap_interval(samples1, per_coord_level)
    outside = np.any((h0 < lo0) | (h0 > hi0)) or np.any((h1 < lo1) | (h1 > hi1))
    return bool(outside)


def run_inference(
    record: ExperimentRecord,
    cfg: ConditionalSamplerConfig,
    hypothesis: Optional[Tuple[np.ndarray, np.ndarray]],
    seed: int,
) -> InferenceResult:
    """Sampler + intervals + optional hypothesis test, bundled for the harness."""
    samples = sample_conditional(record, None, cfg, seed)
    kept = samples.arm0.shape[0]
    if kept < MIN_SAMPLES:  # the resimulation sampler ran out of attempts
        raise ContractError(
            f"bootstrap_interval needs at least {MIN_SAMPLES} samples; the {cfg.mode} sampler kept {kept} "
            f"draws in its budget of {cfg.max_attempts} attempts (inference.max_attempts)"
        )
    lo0, hi0 = bootstrap_interval(samples.arm0, cfg.level)
    lo1, hi1 = bootstrap_interval(samples.arm1, cfg.level)
    reject = None
    if hypothesis is not None:
        reject = test_hypothesis(
            samples.arm0, samples.arm1, hypothesis, cfg.level, bonferroni=cfg.bonferroni
        )
    return InferenceResult(
        beta0=record.ivw.beta0.copy(),
        beta1=record.ivw.beta1.copy(),
        lo0=lo0,
        hi0=hi0,
        lo1=lo1,
        hi1=hi1,
        level=cfg.level,
        reject=reject,
        acceptance_rate=samples.acceptance_rate,
        samples_retained=kept,
        attempts=samples.attempts,
    )
