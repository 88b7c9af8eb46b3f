"""Stopping decisions recomputed from a record's stored per-batch statistics
alone, the way a reader of the trajectory JSON would; tests compare them
with the stop trace the simulation logged.  `batch_stats` gives the tests
each batch's estimates and Grams from the fits a trajectory holds.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from banditstop import ContractError, ExperimentRecord, KnownSigma, StopDecision, Trajectory, evaluate, spectral_norm
from banditstop.linalg import inverse_spd, is_invertible_gram


def batch_stats(trajectory: Trajectory) -> List[Tuple[Optional[np.ndarray], np.ndarray, Optional[np.ndarray], np.ndarray]]:
    """Each batch's (beta1, gram1, beta0, gram0), sliced from the fit and row
    that `trajectory.stats` holds; a beta is None where its arm's batch Gram
    is singular."""
    stats = []
    for fit, row in trajectory.stats:
        usable, beta, gram = fit.usable[row], fit.beta[row], fit.gram[row]
        stats.append((beta[1] if usable[1] else None, gram[1], beta[0] if usable[0] else None, gram[0]))
    return stats


def replay_stop_decisions(record: ExperimentRecord) -> List[StopDecision]:
    """Recompute every batch's stopping decision from the per-batch
    statistics of `record.trajectory`.

    Valid for pre-determined rules (no data involved) and for online rules in
    known-sigma mode, whose stopping statistic is a function of the Gram
    matrices; residual-based statistics are not recoverable from the
    statistics list.  The norms the rule reads come from the replayed
    variance matrices by `spectral_norm`, independently of the n f / lambda_min
    form the simulation uses.
    """
    setup = record.setup
    if not setup.rule.predetermined and not isinstance(setup.sigma_mode, KnownSigma):
        raise ContractError("replay from sufficient statistics needs a known noise scale")

    decisions = []
    dim = record.setup.context.dim
    totals = {0: np.zeros((dim, dim)), 1: np.zeros((dim, dim))}
    prev = None
    for t, (beta1, gram1, beta0, gram0) in enumerate(batch_stats(record.trajectory), start=1):
        if beta1 is not None:
            totals[1] = totals[1] + gram1
        if beta0 is not None:
            totals[0] = totals[0] + gram0
        current = None
        if isinstance(setup.sigma_mode, KnownSigma):
            sig2 = setup.sigma_mode.sigma ** 2
            if is_invertible_gram(totals[0]) and is_invertible_gram(totals[1]):
                current = tuple(
                    spectral_norm(setup.batch_size * inverse_spd(g) * sig2) for g in (totals[0], totals[1])
                )
        decisions.append(evaluate(setup.rule, t, current=current, previous=prev))
        prev = current
    return decisions
