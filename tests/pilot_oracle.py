"""The sequential pilot loop: each pilot replication runs alone, batch after
batch, through the single-trajectory path (`select_actions`,
`fit_batch_ols`, `update_state`).  `bounds.pilot_deviations` advances all
pilots in lock-step; tests require the two to agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from banditstop import (
    RunningSums,
    fit_batch_ols,
    realize_rewards,
    sample_batch_contexts,
    select_actions,
    update_state,
)
from banditstop.rng import derive_seed, make_rng


def sequential_deviations(spec, model, policy, clip_schedule, batch_size, t_ref, replications, seed):
    """Each pilot's larger l1 error of the two arms' cumulative OLS estimates
    after t_ref batches; inf where an arm's X'X is singular."""
    deviations = np.empty(replications)
    for r in range(replications):
        rng = make_rng(derive_seed(seed, r))
        sums = RunningSums.empty(model.dim)
        for _ in range(t_ref):
            x = sample_batch_contexts(spec, batch_size, rng)
            actions = select_actions(policy, sums, x, clip_schedule, rng)
            y = realize_rewards(model, x, actions, rng)
            update_state(sums, fit_batch_ols(x, actions, y))
        worst = 0.0
        for arm, beta in ((0, model.beta0), (1, model.beta1)):
            est = sums.arm(arm).ols_estimate()
            if est is None:
                worst = math.inf
                break
            worst = max(worst, float(np.sum(np.abs(est - beta))))
        deviations[r] = worst
    return deviations


def nearest_rank_quantile(deviations, delta):
    """The (1 - delta) nearest-rank quantile of the deviations."""
    rank = math.ceil((1 - delta) * len(deviations))
    return sorted(deviations)[rank - 1]
