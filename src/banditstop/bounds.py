"""Closed-form regret upper bounds, tail and Chebyshev radii, and the
cost-adjusted regret objectives that the stopping rules optimize.

The tail constant is an existence constant in the underlying concentration
bound; `calibrate_tail_constant` pins it empirically on pilot replications so
the bounds are usable at finite sample sizes.  The pilots run in lock-step:
all of them advance one batch at a time together.  Each pilot draws from its
own stream in the order a lone trajectory would, so the constant is the same,
bit for bit, as pilots run one after another would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, ContractError, DomainError
from .linalg import inverse_spd, invertible_grams, solve_spd
from .model import ContextSpec, TrueModel, sample_batch_contexts, realize_rewards
from .policies import (
    ClipSchedule,
    PolicyKind,
    UniformRandom,
    needs_inverses,
    probabilities_from_estimates,
)
from .rng import derive_seed, make_rng

# Not called here: perfbench/tracing.py rebinds both names in this module (as
# it does `sample_batch_contexts` and `realize_rewards`), so they stay bound.
from .policies import select_actions, update_state  # noqa: F401

# Memory budget of one chunk of lock-step pilots: their stacked contexts and
# per-unit arrays.  Further pilots run in later chunks, so memory stays of
# this order whatever the number of pilots.
PILOT_CHUNK_BYTES = 1 << 22


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
    noise_sd: float
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
class AdditiveCost:
    pass


@dataclass(frozen=True)
class ThresholdCost:
    k: float

    def __post_init__(self):
        if self.k <= 0:
            raise ConfigError("threshold must be positive")


CostMode = Union[AdditiveCost, ThresholdCost]


@dataclass(frozen=True)
class CostAdjustedRegret:
    """Bound-plus-cost objective; `finite` is False for the infinite-penalty case."""

    finite: bool
    value: float  # math.inf when not finite; serialization uses an explicit marker
    bound_term: float
    cost_term: float
    mode: str  # "additive" | "threshold"
    threshold: Optional[float] = None


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


def cost_adjusted_regret(
    bound: float, t: int, consts: BoundConstants, mode: CostMode
) -> CostAdjustedRegret:
    """Combine a regret bound with the cumulative sampling cost."""
    if t < 1:
        raise ContractError("t must be >= 1")
    cost = consts.unit_cost * consts.batch_size * t
    if isinstance(mode, AdditiveCost):
        return CostAdjustedRegret(
            finite=True,
            value=bound + cost,
            bound_term=bound,
            cost_term=cost,
            mode="additive",
        )
    if bound > mode.k:
        return CostAdjustedRegret(
            finite=False,
            value=math.inf,
            bound_term=bound,
            cost_term=cost,
            mode="threshold",
            threshold=mode.k,
        )
    # Below the threshold the bound counts as zero; only the cost remains.
    return CostAdjustedRegret(
        finite=True,
        value=cost,
        bound_term=bound,
        cost_term=cost,
        mode="threshold",
        threshold=mode.k,
    )


def cumulative_cost_adjusted_regret(
    consts: BoundConstants, t_stop: int, mode: CostMode
) -> float:
    """In-experiment objective accumulated to the stop time.

    Additive mode sums the per-batch bound values plus total cost; threshold
    mode (valid at a stop where the bound is below the threshold) is the total
    cost alone.
    """
    if t_stop < 1:
        raise ContractError("t_stop must be >= 1")
    cost = consts.unit_cost * consts.batch_size * t_stop
    if isinstance(mode, ThresholdCost):
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
    rank = math.ceil((1.0 - delta) * replications)  # 1-based nearest rank
    quantile = float(order[rank - 1])
    if not math.isfinite(quantile):
        raise ConfigError(
            "pilot replications left an arm without a usable estimate; "
            "increase t_ref or batch_size"
        )
    return quantile**2 * batch_size * t_ref * p**2


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
    pilots advance in lock-step, in chunks of at most PILOT_CHUNK_BYTES of
    stacked arrays.  Within a batch, the draws from each pilot's stream, its
    arms' X'X and X'y and its Cholesky solves run per pilot; the singularity
    checks, the policy formulas and the clipping run once over the stacked
    pilots.
    """
    members = max(1, PILOT_CHUNK_BYTES // (8 * batch_size * (model.dim + 4)))
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
    # Per arm and pilot, X'X and X'y over all units so far, summed batch by
    # batch in the order `ArmSums.add` sums them.
    xx = np.zeros((2, len(rngs), dim, dim))
    xy = np.zeros((2, len(rngs), dim))
    for t in range(1, t_ref + 1):
        x = np.stack([sample_batch_contexts(spec, batch_size, rng) for rng in rngs])
        if isinstance(policy, UniformRandom):
            pre = np.full(x.shape[:2], 0.5)
        else:
            usable, b, inv = _estimates(xx, xy, needs_inverses(policy))
            probs = probabilities_from_estimates(policy, t, x, b[0], b[1], inv[0], inv[1])
            pre = np.where(usable[:, None], probs, 0.5)
        level = clip_schedule.value(t)
        post = np.minimum(np.maximum(pre, level), 1.0 - level)
        uniforms = np.stack([rng.random(batch_size) for rng in rngs])
        actions = (uniforms < post).astype(np.int64)
        masks = (actions == 0, actions == 1)
        # From each pilot's own rows, as `fit_batch_ols` forms them: a zero-
        # masked stacked product rounds differently (X'y at any d, X'X at d=1).
        for r, rng in enumerate(rngs):
            y = realize_rewards(model, x[r], actions[r], rng)
            for arm, mask in enumerate(masks):
                xa = x[r][mask[r]]
                xx[arm, r] += xa.T @ xa
                xy[arm, r] += xa.T @ y[mask[r]]

    usable, b, _ = _estimates(xx, xy, False)
    deviations = np.full(len(rngs), math.inf)
    for r in np.flatnonzero(usable):
        worst = 0.0
        for arm, beta in ((0, model.beta0), (1, model.beta1)):
            worst = max(worst, float(np.sum(np.abs(b[arm, r] - beta))))
        deviations[r] = worst
    return deviations


def _estimates(xx: np.ndarray, xy: np.ndarray, with_inverses: bool):
    """Which pilots have both arms' X'X invertible, and for those the
    cumulative OLS estimates (2, R, d) and, if asked, the inverses of X'X
    (2, R, d, d), else (None, None); zeros for the other pilots."""
    arms, members, dim = xy.shape
    usable = invertible_grams(xx.reshape(-1, dim, dim)).reshape(arms, members).all(axis=0)
    b = np.zeros_like(xy)
    inv = np.zeros_like(xx) if with_inverses else (None, None)
    for r in np.flatnonzero(usable):
        for arm in (0, 1):
            b[arm, r] = solve_spd(xx[arm, r], xy[arm, r])
            if with_inverses:
                inv[arm, r] = inverse_spd(xx[arm, r])
    return usable, b, inv


def constants_from_context(
    spec: ContextSpec,
    *,
    margin_exponent: float,
    margin_const: float,
    noise_sd: float,
    delta: float,
    tail_const: float,
    unit_cost: float,
    batch_size: int,
    clip_floor: float,
) -> BoundConstants:
    """Build bound constants with the Euclidean context bound derived from the spec."""
    return BoundConstants(
        context_bound=spec.euclidean_bound(),
        margin_exponent=margin_exponent,
        margin_const=margin_const,
        dim=spec.dim,
        noise_sd=noise_sd,
        delta=delta,
        tail_const=tail_const,
        unit_cost=unit_cost,
        batch_size=batch_size,
        clip_floor=clip_floor,
    )
