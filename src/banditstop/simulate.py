"""Core batch protocol: sample contexts, assign with the frozen policy,
observe rewards, fit per-batch OLS, update the variance estimates, and test
the stopping rule — shared by the experiment harness and the conditional
rejection sampler.

`simulate_trajectory` runs one trajectory.  `simulate_ensemble` runs many in
lock-step: a chunk of members advances one batch at a time, and stopped
members leave the stack.  Each member draws its contexts, action uniforms
and reward noise from its own generator in the order of a lone trajectory;
every other step, the Cholesky solves included (`linalg.solve_spd`), runs
once over a (members, arms) stack, in forms that round the same stacked or
alone (`tests/test_stack_invariance.py`).  So each member's trajectory
equals, bit for bit, the one `simulate_trajectory` gives its generator.

Both loops compute per batch only what the policy and the stopping rule
read: the running sums (with residual terms only under residual sigma), the
combined estimate and the spectral norms of its scaled variances,
n f / lambda_min(G) (`estimators.ivw_combine`), carried one batch for the
opportunity rule.  The variance matrices are formed once, at the stop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, List, Optional

import numpy as np

from .bounds import chunk_members, lock_step_batch
from .errors import EstimatorUnavailable
from .estimators import IvwEstimate, KnownSigma, RunningSums, StackedFit, StackedSums, fit_arms
from .estimators import fit_batch_ols, ivw_combine
from .model import TrueModel, realize_rewards, sample_batch_contexts
from .policies import select_actions, update_state
from .records import BatchStats, SimulationSetup
from .stopping import NormPair, StopDecision, evaluate


@dataclass
class Trajectory:
    stats: List[BatchStats]  # per batch (beta1, gram1, beta0, gram0), as ExperimentRecord.stats
    stop_trace: List[StopDecision]
    stop_time: int
    cap_hit: bool
    ivw: Optional[IvwEstimate]
    rule_fired: bool  # False when only the hard cap ended the run


def simulate_trajectory(
    setup: SimulationSetup,
    model: TrueModel,
    rng: np.random.Generator,
    *,
    t_limit: Optional[int] = None,
) -> Trajectory:
    """Run the batch protocol until the stopping rule fires (or a cap is hit).

    `t_limit` optionally truncates the scan below the rule's own cap — the
    rejection sampler uses it to abandon surrogates that outlive the target
    stop time.  When truncated at `t_limit` without the rule firing, the
    trajectory reports stop_time = t_limit with rule_fired=False.
    """
    rule = setup.rule
    horizon = rule.t_max if t_limit is None else min(rule.t_max, t_limit)

    stats: List[BatchStats] = []
    residual = not isinstance(setup.sigma_mode, KnownSigma)
    sums = RunningSums.empty(model.dim, residual)
    stop_trace: List[StopDecision] = []
    norms: Optional[NormPair] = None
    ivw = None
    fired = False
    capped = False
    t = 0

    while t < horizon:
        t += 1
        x = sample_batch_contexts(setup.context, setup.batch_size, rng)
        actions = select_actions(setup.policy, sums, x, setup.clip, rng)
        y = realize_rewards(model, x, actions, rng)
        fit = fit_batch_ols(x, actions, y, batch_index=t, residual=residual)
        stats.append((fit.arm1.beta, fit.arm1.gram, fit.arm0.beta, fit.arm0.gram))
        update_state(sums, fit)

        previous = norms
        try:
            ivw = ivw_combine(sums, setup.sigma_mode, setup.batch_size)
            norms = ivw.var_norms
        except EstimatorUnavailable:
            ivw = norms = None

        decision = evaluate(rule, t, current=norms, previous=previous)
        stop_trace.append(decision)
        if decision.stop:
            fired = not decision.cap_hit
            capped = decision.cap_hit
            break

    return Trajectory(
        stats=stats,
        stop_trace=stop_trace,
        stop_time=t,
        cap_hit=capped,
        ivw=None if ivw is None else ivw.estimate(),
        rule_fired=fired,
    )


def simulate_ensemble(
    setup: SimulationSetup,
    model: TrueModel,
    rngs: Iterable[np.random.Generator],
    *,
    t_limit: Optional[int] = None,
) -> Iterator[Trajectory]:
    """`simulate_trajectory` for each generator of `rngs`, in order, with the
    members run in lock-step.

    Members run in chunks of `bounds.chunk_members`; a chunk takes its
    generators and is simulated when its first trajectory is asked for, so a
    caller that uses each trajectory as it comes holds one chunk at a time.  A chunk of one member
    runs `simulate_trajectory`, which is faster alone.
    """
    size, rngs = chunk_members(setup.batch_size, model.dim), iter(rngs)
    while chunk := list(islice(rngs, size)):
        if len(chunk) == 1:
            yield simulate_trajectory(setup, model, chunk[0], t_limit=t_limit)
        else:
            yield from _lock_step(setup, model, chunk, t_limit)


def _lock_step(setup: SimulationSetup, model: TrueModel, rngs, t_limit) -> Iterator[Trajectory]:
    rule, n = setup.rule, setup.batch_size
    horizon = rule.t_max if t_limit is None else min(rule.t_max, t_limit)
    online = not rule.is_predetermined
    traces: List[List[StopDecision]] = [[] for _ in rngs]
    prev: List[Optional[NormPair]] = [None] * len(rngs)
    ivws: List[Optional[IvwEstimate]] = [None] * len(rngs)  # each member's estimate at its stop
    batches: List[StackedFit] = []
    rows = []  # per batch, each member's row in its stack
    live = np.arange(len(rngs))  # the member of each row
    residual = not isinstance(setup.sigma_mode, KnownSigma)
    sums = StackedSums.empty(len(rngs), model.dim, residual)
    t = 0
    while live.size:
        t += 1
        members = [rngs[i] for i in live]
        x, arm1, y = lock_step_batch(
            setup.context, model, setup.policy, setup.clip, n, t, members, sums.xx, sums.xy
        )
        fit = fit_arms(x, y, np.stack([~arm1, arm1], axis=1), residual)
        sums.add(fit)
        batches.append(fit)
        rows.append(np.full(len(rngs), -1))
        rows[-1][live] = np.arange(live.size)

        # Through `ivw_combine` (which hands stacked sums to `StackedSums.combine`)
        # and every batch, as a lone trajectory does: perfbench's tracer
        # wraps this name, and its growth metric needs the early batches too.
        combined = ivw_combine(sums, setup.sigma_mode, n)
        ok, norms = combined.ok, combined.norms.tolist()
        fixed = None if online else evaluate(rule, t)  # a pre-determined rule reads no data
        stop = np.zeros(live.size, dtype=bool)
        for k, i in enumerate(live):
            cur = tuple(norms[k]) if online and ok[k] else None
            traces[i].append(evaluate(rule, t, cur, prev[i]) if online else fixed)
            prev[i] = cur
            stop[k] = traces[i][-1].stop or t == horizon
        for k in np.flatnonzero(stop & ok):
            ivws[live[k]] = combined.estimate(k)
        live, sums = live[~stop], sums.take(~stop)

    # Each member's stats are built as its trajectory is handed out, so a
    # caller that uses each trajectory as it comes holds one member's at a time.
    for i, own in enumerate(np.array(rows).T.tolist()):
        last = traces[i][-1]
        yield Trajectory(
            stats=[_member_stats(batches[b], own[b]) for b in range(last.t)],
            stop_trace=traces[i], stop_time=last.t, ivw=ivws[i],
            cap_hit=last.stop and last.cap_hit, rule_fired=last.stop and not last.cap_hit,
        )


def _member_stats(fit: StackedFit, k: int) -> BatchStats:
    """Row k's (beta1, gram1, beta0, gram0) of a stacked batch fit."""
    (u0, u1), beta, gram = fit.usable[k].tolist(), fit.beta[k], fit.gram[k]
    return (beta[1] if u1 else None, gram[1], beta[0] if u0 else None, gram[0])
