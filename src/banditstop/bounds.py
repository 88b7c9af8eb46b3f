"""Closed-form regret upper bounds, tail and Chebyshev radii, and the
cost-adjusted regret objectives that the stopping rules optimize.

The tail constant is an existence constant in the underlying concentration
bound; `calibrate_tail_constant` pins it empirically on pilot replications so
the bounds are usable at finite sample sizes.  The pilots run in lock-step:
all of them advance one batch at a time together.  Each pilot draws from its
own stream in the order a lone trajectory would, so the constant is the same,
bit for bit, as pilots run one after another would give.  `CHUNK_BYTES`
bounds the pilots of one lock-step chunk, and the replications of one chunk
of `simulate.simulate_ensemble`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DomainError
from .estimators import arm_masks, masked_sums
from .model import ContextSpec, TrueModel, stacked_contexts, stacked_rewards, stacked_uniforms
from .policies import ClipSchedule, PolicyKind, stacked_estimates, stacked_probabilities
from .rng import derive_seed, make_rng

# Not called here: perfbench/tracing.py rebinds these names in this module,
# so they stay bound.
from .model import realize_rewards, sample_batch_contexts  # noqa: F401
from .policies import select_actions, update_state  # noqa: F401

# Memory budget of one chunk of lock-step members: the pilots here, and the
# replications of `simulate.simulate_ensemble`.  It bounds their stacked
# per-unit arrays (see `chunk_members`); further members run in later
# chunks, so memory stays of this order whatever the number of members.
CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class BoundConstants:
    """Constants feeding the regret bounds.

    `context_bound` is the Euclidean norm bound on contexts (sqrt(dim) times
    the sup-norm bound when built from a ContextSpec).  `regret_const` is
    derived: (2 * context_bound * sqrt(tail_const))**(1 + margin_exponent)
    * margin_const.
    """

    context_bound: float
    margin_exponent: float
    margin_const: float
    dim: int
    delta: float
    tail_const: float
    unit_cost: float
    batch_size: int
    clip_floor: float
    regret_const: float = field(init=False)

    def __post_init__(self):
        if min(self.context_bound, self.margin_exponent, self.margin_const) <= 0:
            raise ConfigError("context_bound, margin_exponent, margin_const must be positive")
        if self.tail_const <= 0:
            raise ConfigError("tail_const must be positive")
        if not 0.0 < self.delta <= 1.0:
            raise ConfigError("delta must lie in (0, 1]")
        if self.unit_cost < 0:
            raise ConfigError("unit_cost must be nonnegative")
        if self.batch_size < 1 or self.dim < 1:
            raise ConfigError("batch_size and dim must be >= 1")
        # Clip schedules live in (0, 1/2]; the constant itself only needs to be
        # a valid probability so substitution formulas stay evaluable.
        if not 0.0 < self.clip_floor <= 1.0:
            raise ConfigError("clip_floor must lie in (0, 1]")
        object.__setattr__(
            self,
            "regret_const",
            (2.0 * self.context_bound * math.sqrt(self.tail_const))
            ** (1.0 + self.margin_exponent)
            * self.margin_const,
        )

    @property
    def rate_const(self) -> float:
        """With margin_exponent 1 and constant clipping, the bound is rate_const / t."""
        return self.regret_const / (self.batch_size * self.clip_floor**2)


@dataclass(frozen=True)
class CostAdjustedRegret:
    """Bound-plus-cost objective; `finite` is False for the infinite-penalty case."""

    finite: bool
    value: float  # math.inf when not finite; serialization uses an explicit marker
    bound_term: float
    cost_term: float


def tail_radius(t: int, clip_prob: float, consts: BoundConstants, batched: bool = True) -> float:
    """High-probability deviation radius sqrt(tail_const / (n t p^2)) (batched)
    or sqrt(tail_const / (t p^2)) (non-batched)."""
    if t < 1:
        raise ContractError("t must be >= 1")
    if not 0.0 < clip_prob <= 1.0:
        raise DomainError("clip_prob must lie in (0, 1]")
    denom = t * clip_prob**2
    if batched:
        denom *= consts.batch_size
    return math.sqrt(consts.tail_const / denom)


def regret_bound_from_radius(radius: float, consts: BoundConstants) -> float:
    """(2 * radius * context_bound)**(1 + margin_exponent) * margin_const."""
    if radius < 0:
        raise ContractError("radius must be nonnegative")
    return (2.0 * radius * consts.context_bound) ** (1.0 + consts.margin_exponent) * consts.margin_const


def regret_bound_time(t: int, consts: BoundConstants) -> float:
    """Batched regret bound at batch t with the constant clip floor."""
    return regret_bound_from_radius(tail_radius(t, consts.clip_floor, consts, batched=True), consts)


def chebyshev_radius(dim: int, v_norm: float, delta: float) -> float:
    """Deviation radius sqrt(dim * v_norm / delta) for an unbiased estimator
    whose covariance has spectral norm v_norm."""
    if v_norm < 0:
        raise ContractError("v_norm must be nonnegative")
    if not 0.0 < delta <= 1.0:
        raise DomainError("delta must lie in (0, 1]")
    return math.sqrt(dim * v_norm / delta)


def regret_bound_from_variance(k: float, consts: BoundConstants) -> float:
    """Regret bound when both arms' estimator covariances have spectral norm <= k."""
    if k < 0:
        raise ContractError("k must be nonnegative")
    return regret_bound_from_radius(chebyshev_radius(consts.dim, k, consts.delta), consts)


def check_threshold(threshold: Optional[float]) -> Optional[float]:
    """`threshold`, which must be positive when given."""
    if threshold is not None and threshold <= 0:
        raise ConfigError("threshold must be positive")
    return threshold


def cost_adjusted_regret(
    bound: float, t: int, consts: BoundConstants, threshold: Optional[float] = None
) -> CostAdjustedRegret:
    """Combine a regret bound with the cumulative sampling cost through batch t.

    Without a threshold the objective is bound + cost (the Opportunity Cost
    rules).  With one it is the cost alone, or an infinite penalty when the
    bound exceeds the threshold (the Threshold Method).
    """
    check_threshold(threshold)
    if t < 1:
        raise ContractError("t must be >= 1")
    cost = consts.unit_cost * consts.batch_size * t
    penalized = threshold is not None and bound > threshold
    if penalized:
        value = math.inf
    elif threshold is None:
        value = bound + cost
    else:
        value = cost  # below the threshold the bound counts as zero
    return CostAdjustedRegret(finite=not penalized, value=value, bound_term=bound, cost_term=cost)


def cumulative_cost_adjusted_regret(
    consts: BoundConstants, t_stop: int, threshold: Optional[float] = None
) -> float:
    """In-experiment objective accumulated to the stop time.

    Without a threshold it sums the per-batch bound values plus the total
    cost; with one (valid at a stop where the bound is below the threshold)
    it is the total cost alone.
    """
    check_threshold(threshold)
    if t_stop < 1:
        raise ContractError("t_stop must be >= 1")
    cost = consts.unit_cost * consts.batch_size * t_stop
    if threshold is not None:
        return cost
    return sum(regret_bound_time(t, consts) for t in range(1, t_stop + 1)) + cost


def calibrate_tail_constant(
    spec: ContextSpec,
    model: TrueModel,
    policy: PolicyKind,
    clip_schedule: ClipSchedule,
    batch_size: int,
    t_ref: int,
    delta: float,
    replications: int,
    seed: int,
) -> float:
    """Smallest tail constant whose radius covers the realized l1 estimation
    error of both arms in a (1 - delta) fraction of pilot replications at the
    reference batch count.

    The pilot deviation is measured on the cumulative OLS estimates at t_ref
    (`pilot_deviations`) and inverted through radius = sqrt(K / (n t p^2))
    with p the clip floor.
    """
    if replications < 10:
        raise ConfigError("calibration needs at least 10 pilot replications")
    if t_ref < 1:
        raise ConfigError("calibration needs t_ref >= 1")
    if not 0.0 < delta < 1.0:
        raise ConfigError("delta must lie in (0, 1)")
    p = clip_schedule.floor
    if p <= 0:
        raise ConfigError("calibration requires a positive clip floor")

    deviations = pilot_deviations(
        spec, model, policy, clip_schedule, batch_size, t_ref, replications, seed
    )
    order = np.sort(deviations)
    rank = nearest_rank(1.0 - delta, replications)
    quantile = float(order[rank - 1])
    if not math.isfinite(quantile):
        raise ConfigError(
            "pilot replications left an arm without a usable estimate; "
            "increase t_ref or batch_size"
        )
    return quantile**2 * batch_size * t_ref * p**2


def nearest_rank(fraction: float, count: int) -> int:
    """The 1-based nearest rank ceil(fraction * count), the product rounded to 9 decimals
    first: a float just past an integer, as (1 - 0.18) * 150, is not pushed up a rank."""
    return math.ceil(round(fraction * count, 9))


def pilot_deviations(
    spec: ContextSpec,
    model: TrueModel,
    policy: PolicyKind,
    clip_schedule: ClipSchedule,
    batch_size: int,
    t_ref: int,
    replications: int,
    seed: int,
) -> np.ndarray:
    """Each pilot's larger l1 error of the two arms' cumulative OLS estimates
    after t_ref batches of the policy; inf where an arm's X'X is singular.

    Pilot r runs on ``make_rng(derive_seed(seed, r))`` and draws contexts,
    action uniforms and reward noise in the order of a lone trajectory.  The
    pilots advance in lock-step, in chunks of `chunk_members` pilots.  Within
    a batch, the draws from each pilot's stream run per pilot; the arms' X'X
    and X'y (zero-masked products, `estimators.masked_sums`), the
    singularity checks, the linear solves, the policy formulas, the
    clipping and the l1 errors run once over the stacked pilots.
    """
    members = chunk_members(batch_size, model.dim)
    deviations = np.empty(replications)
    for start in range(0, replications, members):
        rngs = [
            make_rng(derive_seed(seed, r))
            for r in range(start, min(start + members, replications))
        ]
        deviations[start : start + len(rngs)] = _lock_step_deviations(
            spec, model, policy, clip_schedule, batch_size, t_ref, rngs
        )
    return deviations


def chunk_members(batch_size: int, dim: int) -> int:
    """Members per chunk of a lock-step run: as many as CHUNK_BYTES holds of
    8 * batch_size * (dim + 4) bytes each, and at least one."""
    return max(1, CHUNK_BYTES // (8 * batch_size * (dim + 4)))


def lock_step_batch(spec, model, policy, clip_schedule, batch_size, t, rngs, xx, xy):
    """Batch t of stacked members whose per-arm X'X and X'y are xx and xy:
    their contexts (R, n, d), arm-1 masks (R, n) and rewards (R, n).  Each
    member draws contexts, action uniforms and reward noise from its own
    generator, in the order of a lone trajectory."""
    x = stacked_contexts(spec, batch_size, rngs)
    pre = stacked_probabilities(policy, t, x, xx, xy)
    level = clip_schedule.value(t)
    post = np.minimum(np.maximum(pre, level), 1.0 - level)
    arm1 = stacked_uniforms(rngs, (batch_size,)) < post
    return x, arm1, stacked_rewards(model, x, arm1, rngs)


def _lock_step_deviations(
    spec: ContextSpec,
    model: TrueModel,
    policy: PolicyKind,
    clip_schedule: ClipSchedule,
    batch_size: int,
    t_ref: int,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    dim = model.dim
    # Per pilot and arm, X'X and X'y over all units so far, summed batch by
    # batch from `masked_sums` as `fit_arms` and stacked `RunningSums.add` sum them.
    xx = np.zeros((len(rngs), 2, dim, dim))
    xy = np.zeros((len(rngs), 2, dim))
    for t in range(1, t_ref + 1):
        x, arm1, y = lock_step_batch(spec, model, policy, clip_schedule, batch_size, t, rngs, xx, xy)
        w = arm_masks(arm1).astype(float)
        gram, moment, _ = masked_sums(x[:, None], y[:, None], w, squares=False)
        xx = xx + gram
        xy = xy + moment

    usable, b, _ = stacked_estimates(xx, xy, False)
    errors = np.add.reduce(np.abs(b - np.stack([model.beta0, model.beta1])), axis=-1)
    return np.where(usable, errors.max(axis=-1), math.inf)
