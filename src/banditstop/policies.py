"""Action selection for the two-arm bandit: uniform, epsilon-greedy, UCB, and
Thompson sampling, all frozen within a batch and clipped away from 0 and 1.

Probabilities are computed in closed form (Thompson included), so every
per-unit assignment probability can be logged and replayed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError, ContractError
from .linalg import inverse_spd, is_invertible_gram, solve_spd


@dataclass(frozen=True)
class Schedule:
    """Non-increasing sequence value(t) = max(initial * t**(-decay), floor), t >= 1."""

    initial: float
    decay: float = 0.0
    floor: float = 0.0

    def __post_init__(self):
        if self.decay < 0:
            raise ConfigError("decay must be >= 0 (schedules must be non-increasing)")
        if self.floor < 0 or self.floor > self.initial:
            raise ConfigError("floor must lie in [0, initial]")

    def value(self, t: int) -> float:
        if t < 1:
            raise ContractError("schedules are defined for t >= 1")
        if self.decay == 0.0:
            return self.initial
        return max(self.initial * float(t) ** (-self.decay), self.floor)


@dataclass(frozen=True)
class ClipSchedule:
    """Exploration floor p_t in (0, 1/2]; assignment probabilities are forced
    into [p_t, 1 - p_t]."""

    schedule: Schedule

    def __post_init__(self):
        if not (0.0 < self.schedule.initial <= 0.5):
            raise ConfigError("clip levels must lie in (0, 1/2]")

    def value(self, t: int) -> float:
        return self.schedule.value(t)

    @property
    def floor(self) -> float:
        """Limit value of the clip sequence."""
        return self.schedule.floor if self.schedule.decay > 0 else self.schedule.initial


def constant_clip(level: float) -> ClipSchedule:
    return ClipSchedule(Schedule(initial=level))


@dataclass(frozen=True)
class UniformRandom:
    pass


@dataclass(frozen=True)
class EpsGreedy:
    eps: Schedule

    def __post_init__(self):
        if not 0.0 < self.eps.initial <= 1.0:
            raise ConfigError("exploration levels must lie in (0, 1]")


@dataclass(frozen=True)
class Ucb:
    bonus: Schedule  # multiplier of the per-arm width sqrt(x' G_a^{-1} x)


@dataclass(frozen=True)
class Thompson:
    sigma_prior: float

    def __post_init__(self):
        if self.sigma_prior <= 0:
            raise ConfigError("sigma_prior must be positive")


PolicyKind = Union[UniformRandom, EpsGreedy, Ucb, Thompson]


@dataclass
class PolicyState:
    """Cumulative per-arm sufficient statistics; updated only between batches."""

    gram0: np.ndarray
    gram1: np.ndarray
    moment0: np.ndarray
    moment1: np.ndarray
    count0: int
    count1: int
    t: int  # number of completed batches

    @classmethod
    def empty(cls, dim: int) -> "PolicyState":
        return cls(
            gram0=np.zeros((dim, dim)),
            gram1=np.zeros((dim, dim)),
            moment0=np.zeros(dim),
            moment1=np.zeros(dim),
            count0=0,
            count1=0,
            t=0,
        )

    @property
    def dim(self) -> int:
        return self.moment0.size

    def gram(self, arm: int) -> np.ndarray:
        return self.gram1 if arm == 1 else self.gram0

    def arm_estimate(self, arm: int) -> Optional[np.ndarray]:
        """Cumulative OLS estimate for one arm, or None while the Gram is singular."""
        gram = self.gram(arm)
        if not is_invertible_gram(gram):
            return None
        moment = self.moment1 if arm == 1 else self.moment0
        return solve_spd(gram, moment)


def clip(prob: float, p_t: float) -> float:
    """Force an assignment probability into [p_t, 1 - p_t]."""
    if not 0.0 <= prob <= 1.0:
        raise ContractError("prob must lie in [0, 1]")
    if not 0.0 < p_t <= 0.5:
        raise ConfigError("clip level must lie in (0, 1/2]")
    return min(max(prob, p_t), 1.0 - p_t)


def action_probabilities(
    kind: PolicyKind, state: PolicyState, contexts: np.ndarray
) -> np.ndarray:
    """Pre-clip probability of arm 1 for each row of `contexts`.

    Schedules are evaluated at the upcoming batch index state.t + 1.  Any
    policy that needs an estimate it cannot form (singular Gram) falls back
    to probability 1/2, forcing exploration instead of raising.
    """
    contexts = np.asarray(contexts, dtype=float)
    if contexts.ndim != 2 or contexts.shape[1] != state.dim:
        raise ContractError("contexts do not match the state dimension")
    n = contexts.shape[0]
    if isinstance(kind, UniformRandom):
        return np.full(n, 0.5)

    b0 = state.arm_estimate(0)
    b1 = state.arm_estimate(1)
    if b0 is None or b1 is None:
        return np.full(n, 0.5)
    t_next = state.t + 1

    if isinstance(kind, EpsGreedy):
        p_t = kind.eps.value(t_next)
        gap = contexts @ (b1 - b0)
        return np.where(gap > 0, 1.0 - p_t / 2.0, np.where(gap < 0, p_t / 2.0, 0.5))

    if isinstance(kind, Ucb):
        c_t = kind.bonus.value(t_next)
        inv0 = inverse_spd(state.gram0)
        inv1 = inverse_spd(state.gram1)
        w0 = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", contexts, inv0, contexts), 0.0))
        w1 = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", contexts, inv1, contexts), 0.0))
        gap = (contexts @ b1 + c_t * w1) - (contexts @ b0 + c_t * w0)
        return np.where(gap > 0, 1.0, np.where(gap < 0, 0.0, 0.5))

    if isinstance(kind, Thompson):
        inv0 = inverse_spd(state.gram0)
        inv1 = inverse_spd(state.gram1)
        gap = contexts @ (b1 - b0)
        spread = kind.sigma_prior * np.sqrt(
            np.maximum(
                np.einsum("ij,jk,ik->i", contexts, inv0 + inv1, contexts), 0.0
            )
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            probs = ndtr(np.where(spread > 0, gap / spread, 0.0))
        degenerate = spread == 0
        if degenerate.any():
            probs = np.where(
                degenerate,
                np.where(gap > 0, 1.0, np.where(gap < 0, 0.0, 0.5)),
                probs,
            )
        return probs

    raise ConfigError(f"unknown policy kind {type(kind).__name__}")


def action_probability(kind: PolicyKind, state: PolicyState, x: np.ndarray) -> float:
    """Scalar form of `action_probabilities` for a single context."""
    return float(action_probabilities(kind, state, np.atleast_2d(np.asarray(x, float)))[0])


def thompson_sampled_probability(
    state: PolicyState,
    x: np.ndarray,
    sigma_prior: float,
    rng: np.random.Generator,
    draws: int = 100_000,
) -> float:
    """Posterior-sampling estimate of P(x'b1_draw > x'b0_draw); cross-checks the
    closed form used by the Thompson policy."""
    b0 = state.arm_estimate(0)
    b1 = state.arm_estimate(1)
    if b0 is None or b1 is None:
        return 0.5
    x = np.asarray(x, dtype=float)
    mean_gap = float(x @ (b1 - b0))
    var = sigma_prior**2 * float(
        x @ inverse_spd(state.gram0) @ x + x @ inverse_spd(state.gram1) @ x
    )
    if var <= 0:
        return 1.0 if mean_gap > 0 else (0.0 if mean_gap < 0 else 0.5)
    gaps = mean_gap + np.sqrt(var) * rng.standard_normal(draws)
    return float(np.mean(gaps > 0))


@dataclass
class BatchActions:
    """One batch of assignments with the per-unit propensity log."""

    actions: np.ndarray
    prob_pre_clip: np.ndarray
    prob_post_clip: np.ndarray
    batch_index: int
    clip_level: float


def select_actions(
    kind: PolicyKind,
    state: PolicyState,
    contexts: np.ndarray,
    clip_schedule: ClipSchedule,
    rng: np.random.Generator,
) -> BatchActions:
    """Draw one batch of actions with the state frozen; probabilities are logged."""
    t_next = state.t + 1
    level = clip_schedule.value(t_next)
    pre = action_probabilities(kind, state, contexts)
    post = np.minimum(np.maximum(pre, level), 1.0 - level)
    actions = (rng.random(pre.shape[0]) < post).astype(np.int64)
    return BatchActions(
        actions=actions,
        prob_pre_clip=pre,
        prob_post_clip=post,
        batch_index=t_next,
        clip_level=level,
    )


def update_state(
    state: PolicyState,
    contexts: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
) -> PolicyState:
    """Fold one completed batch into the cumulative statistics (t advances by 1)."""
    contexts = np.asarray(contexts, dtype=float)
    actions = np.asarray(actions)
    rewards = np.asarray(rewards, dtype=float)
    n = contexts.shape[0]
    if contexts.ndim != 2 or contexts.shape[1] != state.dim:
        raise ContractError("contexts do not match the state dimension")
    if actions.shape != (n,) or rewards.shape != (n,):
        raise ContractError("actions/rewards must align with contexts")
    if not ((actions == 0) | (actions == 1)).all():
        raise ContractError("actions must be binary")

    mask1 = actions == 1
    x0, x1 = contexts[~mask1], contexts[mask1]
    y0, y1 = rewards[~mask1], rewards[mask1]
    return PolicyState(
        gram0=state.gram0 + x0.T @ x0,
        gram1=state.gram1 + x1.T @ x1,
        moment0=state.moment0 + x0.T @ y0,
        moment1=state.moment1 + x1.T @ y1,
        count0=state.count0 + x0.shape[0],
        count1=state.count1 + x1.shape[0],
        t=state.t + 1,
    )
