"""Broadcast reference form of the regret Monte Carlo.

`banditstop.model` scales uniform-box context draws one coordinate column at
a time, and `estimate_policy_regret` computes the value gap as |r1 - r0|
where the learned rule picks the worse arm.  These are the whole-array forms
those replaced; tests require equal bits from both.
"""

from __future__ import annotations

import numpy as np

from banditstop import ContextSpec, TrueModel, UniformBox, sample_batch_contexts


def contexts(spec: ContextSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """`sample_batch_contexts` with the box scaled by one broadcast."""
    dist = spec.dist
    if isinstance(dist, UniformBox):
        return dist.lower + (dist.upper - dist.lower) * rng.random((n, spec.dim))
    return sample_batch_contexts(spec, n, rng)


def policy_regret(
    model: TrueModel,
    spec: ContextSpec,
    learned_difference: np.ndarray,
    mc_samples: int,
    rng: np.random.Generator,
) -> float:
    """Mean of max(r0, r1) minus the reward of the arm the learned rule picks."""
    x = contexts(spec, mc_samples, rng)
    picks_arm1 = x @ np.asarray(learned_difference, dtype=float) > 0
    chosen = np.where(picks_arm1, x @ model.beta1, x @ model.beta0)
    best = np.maximum(x @ model.beta0, x @ model.beta1)
    return float(np.mean(best - chosen))

