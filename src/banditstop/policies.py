"""Action selection for the two-arm bandit: uniform, epsilon-greedy, UCB, and
Thompson sampling, all frozen within a batch and clipped away from 0 and 1.

The policies read a trajectory's running sums (`estimators.RunningSums`):
both arms' cumulative OLS estimates and X'X over all units so far, each
solved or inverted by one LAPACK call over the arm axis.
`update_state` folds one batch's fit into those sums.  Probabilities are
computed in closed form (Thompson included), so they are a pure function of
the sums and the contexts.  `probabilities_from_estimates` holds the
formulas once, for one trajectory or broadcast over stacked ones, which
each get a lone call's bits; `select_actions` clips them.
`stacked_probabilities` gives those of many members at once, for the
lock-step loops of `bounds` and `simulate`.  The tests cross-check the
Thompson closed form by posterior sampling (`tests/policy_oracle.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, ContractError
from .estimators import RunningSums, StackedFit, select

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


def action_probabilities(
    kind: PolicyKind, sums: RunningSums, contexts: np.ndarray
) -> np.ndarray:
    """Pre-clip probability of arm 1 for each row of `contexts`.

    Schedules are evaluated at the upcoming batch index len(sums) + 1.  Any
    policy that needs an estimate it cannot form (singular Gram) falls back
    to probability 1/2, forcing exploration instead of raising.
    """
    contexts = np.asarray(contexts, dtype=float)
    if contexts.ndim != 2 or contexts.shape[1] != sums.dim:
        raise ContractError("contexts do not match the dimension of the sums")
    n = contexts.shape[0]
    if isinstance(kind, UniformRandom):
        return np.full(n, 0.5)

    # While X'X is the combined Gram, `ivw_combine` has checked it already.
    checked, invertible = sums.checked
    if checked is not sums.xx:
        invertible = is_invertible_gram(sums.xx)
    if np.count_nonzero(invertible) < 2:
        return np.full(n, 0.5)
    b = solve_spd(sums.xx, sums.xy)
    inv = inverse_spd(sums.xx) if needs_inverses(kind) else (None, None)
    return probabilities_from_estimates(kind, sums.t + 1, contexts, b[0], b[1], inv[0], inv[1])


def stacked_probabilities(
    kind: PolicyKind, t_next: int, contexts: np.ndarray, xx: np.ndarray, xy: np.ndarray
) -> np.ndarray:
    """`action_probabilities` of stacked members at batch index `t_next`:
    contexts (R, n, d) and each member's X'X (R, 2, d, d) and X'y (R, 2, d)
    give (R, n), equal member by member to the lone call's."""
    if isinstance(kind, UniformRandom):
        return np.full(contexts.shape[:2], 0.5)
    usable, b, inv = stacked_estimates(xx, xy, needs_inverses(kind))
    inv0, inv1 = (None, None) if inv is None else (inv[:, 0], inv[:, 1])
    probs = probabilities_from_estimates(kind, t_next, contexts, b[:, 0], b[:, 1], inv0, inv1)
    return select(usable[:, None], probs, 0.5)


def stacked_estimates(xx: np.ndarray, xy: np.ndarray, with_inverses: bool):
    """Which members have both arms' X'X invertible (R,), their cumulative
    OLS estimates (R, 2, d) and, if asked, the inverses of X'X (R, 2, d, d),
    else None; zeros for the other members.  The singularity check, the
    solves and the inverses run once over the stack, with the identity in
    place of the other members' X'X."""
    usable = is_invertible_gram(xx).all(axis=-1)
    keep = usable[:, None, None, None]
    xx = select(keep, xx, np.eye(xx.shape[-1]))
    inv = select(keep, inverse_spd(xx), 0.0) if with_inverses else None
    return usable, select(keep[..., 0], solve_spd(xx, xy), 0.0), inv


def needs_inverses(kind: PolicyKind) -> bool:
    """Whether `probabilities_from_estimates` reads the inverses of X'X."""
    return isinstance(kind, (Ucb, Thompson))


def probabilities_from_estimates(
    kind: PolicyKind,
    t_next: int,
    contexts: np.ndarray,
    b0: np.ndarray,
    b1: np.ndarray,
    inv0: Optional[np.ndarray] = None,
    inv1: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Pre-clip probability of arm 1 for each context under the ε-greedy,
    UCB or Thompson rule, given both arms' cumulative OLS estimates and, for
    UCB and Thompson, the inverses of their X'X.

    Broadcasts over leading axes: contexts (..., n, d), estimates (..., d)
    and inverses (..., d, d) give (..., n).  `stacked_probabilities` passes a
    leading member axis; each member's probabilities equal, bit for bit,
    those of a call with its arrays alone.
    """
    if isinstance(kind, EpsGreedy):
        p_t = kind.eps.value(t_next)
        gap = _rows_dot(contexts, b1 - b0)
        return np.where(gap > 0, 1.0 - p_t / 2.0, np.where(gap < 0, p_t / 2.0, 0.5))

    if isinstance(kind, Ucb):
        c_t = kind.bonus.value(t_next)
        w0 = np.sqrt(np.maximum(_quadratic_forms(contexts, inv0), 0.0))
        w1 = np.sqrt(np.maximum(_quadratic_forms(contexts, inv1), 0.0))
        gap = (_rows_dot(contexts, b1) + c_t * w1) - (_rows_dot(contexts, b0) + c_t * w0)
        return np.where(gap > 0, 1.0, np.where(gap < 0, 0.0, 0.5))

    if isinstance(kind, Thompson):
        gap = _rows_dot(contexts, b1 - b0)
        spread = kind.sigma_prior * np.sqrt(
            np.maximum(_quadratic_forms(contexts, inv0 + inv1), 0.0)
        )
        positive = spread > 0
        if np.count_nonzero(positive) == positive.size:
            return _ndtr()(gap / spread)
        # Some spread is zero (or NaN): there the sign of the gap decides.
        probs = _ndtr()(np.divide(gap, spread, out=np.zeros(gap.shape), where=positive))
        return np.where(spread == 0, np.where(gap > 0, 1.0, np.where(gap < 0, 0.0, 0.5)), probs)

    raise ConfigError(f"unknown policy kind {type(kind).__name__}")


@lru_cache(maxsize=None)
def _ndtr():
    """scipy's standard normal CDF, imported at the first Thompson call: only
    Thompson needs scipy, which is slow to import."""
    from scipy.special import ndtr

    return ndtr


def _rows_dot(contexts: np.ndarray, v: np.ndarray) -> np.ndarray:
    """x_i'v for each row x_i of `contexts` (..., n, d), with v (..., d)."""
    return np.matmul(contexts, v[..., None])[..., 0]


def _quadratic_forms(contexts: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x_i'm x_i for each row x_i of `contexts` (..., n, d), with m (..., d, d):
    one BLAS call per member, so stacked or alone the bits are the same."""
    return np.add.reduce((contexts @ m) * contexts, axis=-1)


def select_actions(
    kind: PolicyKind,
    sums: RunningSums,
    contexts: np.ndarray,
    clip_schedule: ClipSchedule,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one batch of actions with the sums frozen, as an arm-1 mask: a
    bool vector, True where the unit gets arm 1 (`model.split_arms`)."""
    level = clip_schedule.value(sums.t + 1)
    pre = action_probabilities(kind, sums, contexts)
    post = np.minimum(np.maximum(pre, level), 1.0 - level)
    return rng.random(pre.shape[0]) < post


def update_state(sums: RunningSums, fit: StackedFit) -> None:
    """Fold one completed batch's fit into the running sums (t advances by 1)."""
    if fit.gram.shape != sums.gram.shape:
        raise ContractError("the fit does not match the dimension of the sums")
    sums.add(fit)
