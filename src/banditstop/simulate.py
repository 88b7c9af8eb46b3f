"""Core batch protocol: sample contexts, assign with the frozen policy,
observe rewards, fit per-batch OLS, update the variance estimates, and test
the stopping rule — shared by the experiment harness and the conditional
rejection sampler.

`simulate_trajectory` runs one trajectory, which ends on its one stopping
decision: the rule fires, or its cap `t_max` stops the run (the rejection
sampler lowers the cap to the target stop time).  `simulate_ensemble` runs
many in lock-step: a chunk of members, or of one, advances one batch at a
time, and stopped members leave the stack.  Each member draws its contexts,
action uniforms and reward noise from its own generator in the order of a
lone trajectory, into its own row of the stacked buffers
(`model.stacked_uniforms`); every other step, the policy formulas and
the LAPACK solves included, runs once over a (members, arms) stack, in forms
that round the same stacked or alone (`tests/test_stack_invariance.py`).
So each member's trajectory equals, bit for bit, the one
`simulate_trajectory` gives its generator.

Both loops compute per batch only what the policy and the stopping rule
read: the batch fits, the running sums and the spectral norms of the
scaled variances, n f / lambda_min(G) (`estimators.ivw_combine`), carried
one batch for the opportunity rule.  Under residual sigma the fits and sums
also keep the residual terms, and the combined estimate is solved every
batch for the noise factors; under a known noise scale neither is.  The
combined estimate and the variance matrices are formed once, at the stop,
by `IvwCombination.estimate` in both loops: a stopping member reads the
combination its lone trajectory would hold (`StackedSums.combination`).
The stack shrinks only on a batch where some member stops.

The lone loop's fixed cost per batch is a few dozen numpy calls, so it
makes none it can skip with the same bits: actions pass from
`select_actions` as an arm-1 bool mask, which `realize_rewards` and
`fit_batch_ols` take as binary by its dtype, and until an arm's first
singular batch its X'X and combined Gram are one array, whose singularity
verdict `ivw_combine` takes once for the policy to read at the next batch
(`estimators.ArmSums`): four eigendecompositions per batch, not six.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, List, Optional

import numpy as np

from .bounds import chunk_members, lock_step_batch
from .errors import EstimatorUnavailable
from .estimators import IvwEstimate, KnownSigma, RunningSums, StackedSums, arm_masks, fit_arms
from .estimators import fit_batch_ols, ivw_combine
from .model import TrueModel, realize_rewards, sample_batch_contexts
from .policies import select_actions, update_state
from .records import BatchStats, SimulationSetup, Trajectory
from .stopping import NormPair, StopDecision, evaluate


def simulate_trajectory(setup: SimulationSetup, model: TrueModel, rng: np.random.Generator) -> Trajectory:
    """Run the batch protocol until the stopping rule fires, or its cap
    `t_max` stops the run with cap_hit set."""
    rule = setup.rule
    stats: List[BatchStats] = []
    residual = not isinstance(setup.sigma_mode, KnownSigma)
    sums = RunningSums.empty(model.dim, residual)
    stop_trace: List[StopDecision] = []
    norms: Optional[NormPair] = None
    ivw = None

    for t in range(1, rule.t_max + 1):
        x = sample_batch_contexts(setup.context, setup.batch_size, rng)
        actions = select_actions(setup.policy, sums, x, setup.clip, rng)
        y = realize_rewards(model, x, actions, rng)
        fit = fit_batch_ols(x, actions, y, residual=residual)
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
            break

    return Trajectory(stats, stop_trace, None if ivw is None else ivw.estimate())


def simulate_ensemble(
    setup: SimulationSetup, model: TrueModel, rngs: Iterable[np.random.Generator]
) -> Iterator[Trajectory]:
    """`simulate_trajectory` for each generator of `rngs`, in order, with the
    members run in lock-step.

    Members run in chunks of `bounds.chunk_members`, the last of one member
    too; a chunk is simulated when its first trajectory is asked for, so a
    caller that uses each trajectory as it comes holds one chunk at a time.
    """
    size, rngs = chunk_members(setup.batch_size, model.dim), iter(rngs)
    while chunk := list(islice(rngs, size)):
        yield from _lock_step(setup, model, chunk)


def _lock_step(setup: SimulationSetup, model: TrueModel, rngs) -> Iterator[Trajectory]:
    rule, n = setup.rule, setup.batch_size
    online = not rule.predetermined
    stats: List[List[BatchStats]] = [[] for _ in rngs]
    traces: List[List[StopDecision]] = [[] for _ in rngs]
    prev: List[Optional[NormPair]] = [None] * len(rngs)
    ivws: List[Optional[IvwEstimate]] = [None] * len(rngs)  # each member's estimate at its stop
    live, members = list(range(len(rngs))), list(rngs)  # the member and generator of each row
    residual = not isinstance(setup.sigma_mode, KnownSigma)
    sums = StackedSums.empty(len(rngs), model.dim, residual)
    t = 0
    while live:
        t += 1
        x, arm1, y = lock_step_batch(
            setup.context, model, setup.policy, setup.clip, n, t, members, sums.xx, sums.xy
        )
        fit = fit_arms(x, y, arm_masks(arm1), residual)
        sums.add(fit)

        # Through `ivw_combine` (which hands stacked sums to `StackedSums.combine`)
        # and every batch, as a lone trajectory does: perfbench's tracer
        # wraps this name, and its growth metric needs the early batches too.
        combined = ivw_combine(sums, setup.sigma_mode, n)
        ok, norms, usable = combined.ok.tolist(), combined.norms.tolist(), fit.usable.tolist()
        fixed = None if online else evaluate(rule, t)  # a pre-determined rule reads no data
        stop = [False] * len(live)
        for k, i in enumerate(live):
            (u0, u1), beta, gram = usable[k], fit.beta[k], fit.gram[k]
            stats[i].append((beta[1] if u1 else None, gram[1], beta[0] if u0 else None, gram[0]))
            cur = tuple(norms[k]) if online and ok[k] else None
            decision = evaluate(rule, t, cur, prev[i]) if online else fixed
            traces[i].append(decision)
            prev[i] = cur
            if decision.stop:
                stop[k] = True
                if ok[k]:
                    ivws[i] = sums.combination(k, combined, n).estimate()
        if any(stop):
            sums = sums.take(~np.array(stop))
            live = [i for i, s in zip(live, stop) if not s]
            members = [rngs[i] for i in live]

    yield from map(Trajectory, stats, traces, ivws)
