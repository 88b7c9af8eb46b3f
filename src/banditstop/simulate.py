"""Core batch protocol: sample contexts, assign with the frozen policy,
observe rewards, fit per-batch OLS, update the variance estimates, and test
the stopping rule — shared by the experiment harness and the conditional
rejection sampler.

`simulate_trajectory` runs one trajectory.  `simulate_ensemble` runs many in
lock-step: a chunk of members advances one batch at a time, and stopped
members leave the stack.  Each member draws its contexts, action uniforms
and reward noise from its own generator in the order of a lone trajectory,
and its Cholesky solves run alone; every other step runs once over a
(members, arms) stack, in forms that round the same stacked or alone
(`tests/test_stack_invariance.py`).  So each member's trajectory equals,
bit for bit, the one `simulate_trajectory` gives its generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .bounds import chunk_members, lock_step_batch
from .errors import EstimatorUnavailable
from .estimators import BatchOlsFit, IvwEstimate, RunningSums, StackedFit, StackedSums, fit_arms
from .estimators import fit_batch_ols, ivw_combine
from .model import TrueModel, realize_rewards, sample_batch_contexts
from .policies import select_actions, update_state
from .records import SimulationSetup
from .stopping import StopDecision, decide, evaluate


@dataclass
class Trajectory:
    fits: List[BatchOlsFit]
    sums: RunningSums
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

    fits: List[BatchOlsFit] = []
    sums = RunningSums.empty(model.dim)
    stop_trace: List[StopDecision] = []
    prev_vars: Optional[Tuple[np.ndarray, np.ndarray]] = None
    ivw: Optional[IvwEstimate] = None
    fired = False
    capped = False
    t = 0

    while t < horizon:
        t += 1
        x = sample_batch_contexts(setup.context, setup.batch_size, rng)
        actions = select_actions(setup.policy, sums, x, setup.clip, rng)
        y = realize_rewards(model, x, actions, rng)
        fit = fit_batch_ols(x, actions, y, batch_index=t)
        fits.append(fit)
        update_state(sums, fit)

        cur_vars: Optional[Tuple[np.ndarray, np.ndarray]] = None
        try:
            ivw = ivw_combine(sums, setup.sigma_mode, setup.batch_size)
            cur_vars = (ivw.var0, ivw.var1)
        except EstimatorUnavailable:
            ivw = None

        decision = evaluate(rule, t, current=cur_vars, previous=prev_vars)
        stop_trace.append(decision)
        prev_vars = cur_vars
        if decision.stop:
            fired = not decision.cap_hit
            capped = decision.cap_hit
            break

    return Trajectory(
        fits=fits,
        sums=sums,
        stop_trace=stop_trace,
        stop_time=t,
        cap_hit=capped,
        ivw=ivw,
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
    prev: List[Optional[Tuple[float, float]]] = [None] * len(rngs)
    ends: List[tuple] = [()] * len(rngs)  # each member's sums and estimate at its stop
    batches: List[StackedFit] = []
    rows = []  # per batch, each member's row in its stack
    live = np.arange(len(rngs))  # the member of each row
    sums = StackedSums.empty(len(rngs), model.dim)
    t = 0
    while live.size:
        t += 1
        members = [rngs[i] for i in live]
        x, arm1, y = lock_step_batch(
            setup.context, model, setup.policy, setup.clip, n, t, members, sums.xx, sums.xy
        )
        fit = fit_arms(x, y, np.stack([~arm1, arm1], axis=1))
        sums.add(fit)
        batches.append(fit)
        rows.append(np.full(len(rngs), -1))
        rows[-1][live] = np.arange(live.size)

        # Through `ivw_combine` (which hands stacked sums to `StackedSums.combine`)
        # and every batch, as a lone trajectory does: perfbench's tracer
        # wraps this name, and its growth metric needs the early batches too.
        ok, beta, var = ivw_combine(sums, setup.sigma_mode, n)
        if online:
            norms = np.linalg.eigvalsh(var)[..., -1].tolist()
        stop = np.zeros(live.size, dtype=bool)
        for k, i in enumerate(live):
            cur = tuple(norms[k]) if online and ok[k] else None
            traces[i].append(decide(rule, t, cur, prev[i]))
            prev[i] = cur
            stop[k] = traces[i][-1].stop or t == horizon
        for k in np.flatnonzero(stop):
            ivw = None
            if ok[k]:
                ivw = IvwEstimate(beta[k, 0], beta[k, 1], var[k, 0], var[k, 1], t, n, setup.sigma_mode)
            ends[live[k]] = (sums.member(k), ivw)
        live, sums = live[~stop], sums.take(~stop)

    # Each member's fits are built as its trajectory is handed out, so a
    # caller that uses each trajectory as it comes holds one member's at a time.
    for i, own in enumerate(np.array(rows).T.tolist()):
        last = traces[i][-1]
        yield Trajectory(
            fits=[batches[b].member(b + 1, own[b]) for b in range(last.t)],
            sums=ends[i][0], stop_trace=traces[i], stop_time=last.t, ivw=ends[i][1],
            cap_hit=last.stop and last.cap_hit, rule_fired=last.stop and not last.cap_hit,
        )
