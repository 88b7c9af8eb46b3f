"""From-scratch reference for the combined estimator and the policy's inputs.

Every call re-sums all per-batch fits and rescans all raw units, the way the
running sums in `banditstop.estimators` avoid doing; tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from banditstop import EstimatorUnavailable, IvwEstimate, KnownSigma, RunningSums, update_state
from banditstop.estimators import ArmFit, StackedFit
from banditstop.linalg import inverse_spd, is_invertible_gram, solve_spd


@dataclass
class BatchData:
    """Raw per-unit data for one batch."""

    contexts: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray


def of_arms(arm0: ArmFit, arm1: ArmFit) -> StackedFit:
    """The lone batch fit whose arms' fits are `arm0` and `arm1`; it has
    residual terms if both arms have y'y."""
    arms = (arm0, arm1)
    residual = arm0.sum_sq is not None and arm1.sum_sq is not None
    beta = np.stack([np.zeros(a.gram.shape[-1]) if a.beta is None else a.beta for a in arms])
    sum_sq = np.array([a.sum_sq for a in arms]) if residual else None
    rss = np.array([0.0 if a.rss is None else a.rss for a in arms]) if residual else None
    usable, count = np.array([a.beta is not None for a in arms]), np.array([a.count for a in arms])
    return StackedFit(np.stack([a.gram for a in arms]), np.stack([a.moment for a in arms]), count, sum_sq, usable, beta, rss)


def sums_of(fits: Sequence[StackedFit]) -> RunningSums:
    """Running sums of `fits`, added in order."""
    sums = RunningSums.empty(fits[0].arm0.gram.shape[0])
    for fit in fits:
        update_state(sums, fit)
    return sums


@dataclass
class PolicySums:
    """One arm's X'X, X'y and unit count, summed from zero in batch order."""

    xx: np.ndarray
    xy: np.ndarray
    count: int


def policy_sums(batch_data: Sequence[BatchData], dim: int) -> tuple[PolicySums, PolicySums]:
    """The cumulative per-arm sums the policy reads, straight from the raw units."""
    arms = tuple(PolicySums(np.zeros((dim, dim)), np.zeros(dim), 0) for _ in (0, 1))
    for batch in batch_data:
        mask1 = batch.actions == 1
        for arm, mask in ((arms[0], ~mask1), (arms[1], mask1)):
            # Zero-masked full-length products, as `fit_batch_ols` forms them.
            xm = batch.contexts * mask.astype(float)[:, None]
            arm.xx = arm.xx + xm.T @ batch.contexts
            arm.xy = arm.xy + xm.T @ batch.rewards
            arm.count += int(mask.sum())
    return arms


def ols_estimate(arm: PolicySums) -> Optional[np.ndarray]:
    """Cumulative OLS estimate, or None while X'X is singular."""
    return solve_spd(arm.xx, arm.xy) if is_invertible_gram(arm.xx) else None


def contributing(fits: Sequence[StackedFit], arm: int) -> List[ArmFit]:
    # Batches with a singular arm-Gram contribute neither Gram nor estimate.
    return [f.arm(arm) for f in fits if f.arm(arm).beta is not None]


def combined_gram(fits: Sequence[StackedFit], arm: int) -> np.ndarray:
    parts = contributing(fits, arm)
    if not parts:
        raise EstimatorUnavailable(f"no batch with a usable arm-{arm} fit")
    total = parts[0].gram.copy()
    for p in parts[1:]:
        total = total + p.gram
    if not is_invertible_gram(total):
        raise EstimatorUnavailable(f"combined arm-{arm} Gram matrix is singular")
    return total


def combine_arm(fits: Sequence[StackedFit], arm: int) -> np.ndarray:
    parts = contributing(fits, arm)
    if not parts:
        raise EstimatorUnavailable(f"no batch with a usable arm-{arm} fit")
    if len(parts) == 1:
        return parts[0].beta.copy()
    total = combined_gram(fits, arm)
    weighted = np.zeros_like(parts[0].beta)
    for p in parts:
        weighted = weighted + p.gram @ p.beta
    return solve_spd(total, weighted)


def residual_noise_factors(
    batch_data: Sequence[BatchData], beta0: np.ndarray, beta1: np.ndarray
) -> tuple[float, float]:
    """Per-arm mean squared residuals over all units, against the supplied estimates."""
    dim = np.asarray(beta0).size
    factors = []
    for a, beta in ((0, np.asarray(beta0, float)), (1, np.asarray(beta1, float))):
        sq_sum = 0.0
        count = 0
        for batch in batch_data:
            mask = batch.actions == a
            if not np.any(mask):
                continue
            resid = batch.rewards[mask] - batch.contexts[mask] @ beta
            sq_sum += float(resid @ resid)
            count += int(mask.sum())
        if count < dim + 1:
            raise EstimatorUnavailable(
                f"arm {a} has {count} observations; need at least dim + 1 for residuals"
            )
        factors.append(sq_sum / count)
    return factors[0], factors[1]


def ivw_combine(
    fits: Sequence[StackedFit],
    sigma_mode,
    batch_size: int,
    batch_data: Optional[Sequence[BatchData]] = None,
) -> IvwEstimate:
    """The combined estimate and its scaled variance, from all fits (and, for
    residual sigma, all raw units) at once."""
    if not fits:
        raise EstimatorUnavailable("no batch fits supplied")
    beta0 = combine_arm(fits, 0)
    beta1 = combine_arm(fits, 1)
    if isinstance(sigma_mode, KnownSigma):
        factors = (sigma_mode.sigma**2, sigma_mode.sigma**2)
        noise_sd = (sigma_mode.sigma, sigma_mode.sigma)
    else:
        factors = residual_noise_factors(batch_data, beta0, beta1)
        noise_sd = (float(np.sqrt(factors[0])), float(np.sqrt(factors[1])))
    var0, var1 = (batch_size * inverse_spd(combined_gram(fits, a)) * f for a, f in zip((0, 1), factors))
    return IvwEstimate(
        beta0=beta0,
        beta1=beta1,
        var0=var0,
        var1=var1,
        batch_size=batch_size,
        noise_sd=noise_sd,
    )
