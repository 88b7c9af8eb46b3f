"""Core batch protocol: sample contexts, assign with the frozen policy,
observe rewards, fit per-batch OLS, update the variance estimates, and test
the stopping rule — shared by the experiment harness and the conditional
rejection sampler.

`simulate_trajectory` runs one trajectory, which ends on its one stopping
decision: the rule fires, or its cap `t_max` stops the run (the rejection
sampler lowers the cap to the target stop time) in `fold_to_stop`, the
stopping step that the trajectory reader runs on a file's stored fits.
`simulate_ensemble` runs many in lock-step: a chunk of members, or of one,
advances one batch at a time, and stopped members leave the stack.  Each
member draws its contexts, action uniforms and reward noise from its own
generator in the order of a lone trajectory, into its own row of the
stacked buffers (`model.stacked_uniforms`); every other step, the policy
formulas and the LAPACK solves included, runs once over a (members, arms)
stack, in forms that round the same stacked or alone
(`tests/test_stack_invariance.py`).  So each member's trajectory equals,
bit for bit, the one `simulate_trajectory` gives its generator.

Both loops compute per batch only what the policy and the stopping rule
read: the batch fits, the running sums and the spectral norms of the
scaled variances, n f / lambda_min(G) (`estimators.ivw_combine`), carried
one batch for the opportunity rule.  Under residual sigma the fits and sums
also keep the residual terms, and the combined estimate is solved every
batch for the noise factors; under a known noise scale neither is.  The
combined estimate and the variance matrices are formed once, at the stop,
by `estimators.ivw_estimate` in both loops, in the engine by one call over
the members that stop in a batch, each one's the bits of its lone
trajectory's.  The stack shrinks only on a batch where some member stops.
A trajectory keeps each batch's fit by reference (`Trajectory.stats`: the
lone fit, or the stack's fit and the member's row), which only the file
writer slices, and of its stopping decisions only the last
(`Trajectory.stop`).

The lone loop's fixed cost per batch is a few dozen numpy calls, so it
makes none it can skip with the same bits.  Its sums hold both arms as one
(2, ...) stack (`estimators.RunningSums`), so the batch fit, the fold, the
combined Grams' check and solve and the policy's solve each make one call
over the arm axis.  Actions pass from `select_actions` as an arm-1 bool
mask, which `realize_rewards` and `fit_batch_ols` take as binary by its
dtype, and until either arm's first singular batch X'X and the combined
Grams are one array, whose singularity verdict `ivw_combine` takes once for
the policy to read at the next batch: two eigendecompositions per batch,
and at most four solves or inverses.
"""

from __future__ import annotations

from itertools import compress, islice
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .bounds import chunk_members, lock_step_batch
from .errors import EstimatorUnavailable
from .estimators import IvwEstimate, KnownSigma, RunningSums, StackedFit, arm_masks, fit_arms
from .estimators import fit_batch_ols, ivw_combine, ivw_estimate
from .model import TrueModel, realize_rewards, sample_batch_contexts
from .policies import select_actions, update_state
from .records import SimulationSetup, Trajectory
from .stopping import NormPair, StopDecision, evaluate


def simulate_trajectory(setup: SimulationSetup, model: TrueModel, rng: np.random.Generator) -> Trajectory:
    """Run the batch protocol until the stopping rule fires, or its cap
    `t_max` stops the run with cap_hit set."""
    residual = not isinstance(setup.sigma_mode, KnownSigma)
    sums = RunningSums.empty(model.dim, residual)
    stats: List[Tuple[StackedFit, Tuple[()]]] = []

    def fits() -> Iterator[StackedFit]:  # drawn as `fold_to_stop` asks: the policy reads the sums so far
        for _ in range(setup.rule.t_max):
            x = sample_batch_contexts(setup.context, setup.batch_size, rng)
            actions = select_actions(setup.policy, sums, x, setup.clip, rng)
            y = realize_rewards(model, x, actions, rng)
            stats.append((fit_batch_ols(x, actions, y, residual=residual), ()))
            yield stats[-1][0]

    return Trajectory(stats, *fold_to_stop(setup, sums, fits()))


def fold_to_stop(
    setup: SimulationSetup, sums: RunningSums, fits: Iterable[StackedFit]
) -> Tuple[StopDecision, Optional[IvwEstimate]]:
    """A trajectory's stopping step on its batch fits, in order: fold each
    into `sums`, combine, and evaluate the rule, until it stops or the fits
    run out.  Gives the last decision and the terminal estimate, None where
    the last batch left none."""
    norms: Optional[NormPair] = None
    for t, fit in enumerate(fits, 1):
        update_state(sums, fit)
        previous = norms
        try:
            norms = ivw_combine(sums, setup.sigma_mode, setup.batch_size)
        except EstimatorUnavailable:
            norms = None
        decision = evaluate(setup.rule, t, current=norms, previous=previous)
        if decision.stop:
            break
    return decision, None if norms is None else ivw_estimate(sums, setup.sigma_mode, setup.batch_size)


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
    stats: List[List[Tuple[StackedFit, int]]] = [[] for _ in rngs]
    decisions: List[Optional[StopDecision]] = [None] * len(rngs)  # each member's decision at its stop
    prev: List[Optional[NormPair]] = [None] * len(rngs)
    ivws: List[Optional[IvwEstimate]] = [None] * len(rngs)  # each member's estimate at its stop
    live, members = list(range(len(rngs))), list(rngs)  # the member and generator of each row
    residual = not isinstance(setup.sigma_mode, KnownSigma)
    sums = RunningSums.empty(model.dim, residual, members=len(rngs))
    t = 0
    while live:
        t += 1
        x, arm1, y = lock_step_batch(
            setup.context, model, setup.policy, setup.clip, n, t, members, sums.xx, sums.xy
        )
        fit = fit_arms(x, y, arm_masks(arm1), residual)
        sums.add(fit)

        # Through `ivw_combine` and every batch, as a lone trajectory does:
        # perfbench's tracer wraps this name, and its growth metric needs the
        # early batches too.
        combined = ivw_combine(sums, setup.sigma_mode, n)
        ok, norms = combined.ok.tolist(), combined.norms.tolist()
        fixed = None if online else evaluate(rule, t)  # a pre-determined rule reads no data
        stop = [False] * len(live)
        for k, i in enumerate(live):
            stats[i].append((fit, k))
            cur = tuple(norms[k]) if online and ok[k] else None
            decision = evaluate(rule, t, cur, prev[i]) if online else fixed
            prev[i] = cur
            if decision.stop:
                stop[k], decisions[i] = True, decision
        if any(stop):
            ended = combined.ok & stop  # the stopping members with an estimate
            if ended.any():  # one stacked call, each member's estimate its lone trajectory's
                for i, ivw in zip(compress(live, ended), ivw_estimate(sums.take(ended), setup.sigma_mode, n)):
                    ivws[i] = ivw
            sums = sums.take(~np.array(stop))
            live = [i for i, s in zip(live, stop) if not s]
            members = [rngs[i] for i in live]

    yield from map(Trajectory, stats, decisions, ivws)
