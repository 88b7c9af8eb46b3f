"""Stopping decisions recomputed from a record's stored per-batch statistics
alone, the way a reader of the trajectory JSON would; tests compare them
with the calls of the stopping rule that the simulation made, which
`recorded_evaluations` records.  `batch_stats` gives the tests each batch's
estimates and Grams from the fits a trajectory holds.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, NamedTuple, Optional, Tuple
from unittest import mock

import numpy as np

from banditstop import ContractError, ExperimentRecord, KnownSigma, StopDecision, Trajectory, evaluate, simulate
from banditstop import spectral_norm
from banditstop.linalg import inverse_spd, is_invertible_gram
from banditstop.stopping import NormPair


class Evaluation(NamedTuple):
    """One call of the stopping rule: the batch, the variance norms it read
    (this batch's and the carried previous batch's, None where there was no
    estimate) and its decision."""

    t: int
    current: Optional[NormPair]
    previous: Optional[NormPair]
    decision: StopDecision

    def bits(self):
        """(t, current, previous) with each norm pair as its bytes, and the decision's (stop, cap_hit)."""
        return (self.t, bits(self.current), bits(self.previous), self.decision.stop, self.decision.cap_hit)


def bits(pair) -> Optional[bytes]:
    return None if pair is None else np.asarray(pair, float).tobytes()


@contextmanager
def recorded_evaluations() -> Iterator[List[Evaluation]]:
    """Every call of the stopping rule that `banditstop.simulate` makes in
    the block (both loops and the trajectory reader), in call order."""
    calls: List[Evaluation] = []

    def recording(rule, t, current=None, previous=None):
        decision = evaluate(rule, t, current, previous)
        calls.append(Evaluation(t, current, previous, decision))
        return decision

    with mock.patch.object(simulate, "evaluate", recording):
        yield calls


def batch_stats(trajectory: Trajectory) -> List[Tuple[Optional[np.ndarray], np.ndarray, Optional[np.ndarray], np.ndarray]]:
    """Each batch's (beta1, gram1, beta0, gram0), sliced from the fit and row
    that `trajectory.stats` holds; a beta is None where its arm's batch Gram
    is singular."""
    stats = []
    for fit, row in trajectory.stats:
        usable, beta, gram = fit.usable[row], fit.beta[row], fit.gram[row]
        stats.append((beta[1] if usable[1] else None, gram[1], beta[0] if usable[0] else None, gram[0]))
    return stats


def replay_stop_decisions(record: ExperimentRecord) -> List[Evaluation]:
    """Recompute every batch's call of the stopping rule from the per-batch
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
        decisions.append(Evaluation(t, current, prev, evaluate(setup.rule, t, current=current, previous=prev)))
        prev = current
    return decisions
