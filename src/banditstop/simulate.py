"""Core batch protocol: sample contexts, assign with the frozen policy,
observe rewards, fit per-batch OLS, update the variance estimates, and test
the stopping rule — shared by the experiment harness and the conditional
rejection sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import EstimatorUnavailable
from .estimators import BatchOlsFit, IvwEstimate, RunningSums, fit_batch_ols, ivw_combine
from .model import TrueModel, realize_rewards, sample_batch_contexts
from .policies import select_actions, update_state
from .records import SimulationSetup
from .stopping import StopDecision, evaluate


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
