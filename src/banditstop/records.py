"""Value types tying a full seeded trajectory together: the simulation setup,
per-batch fits, the stopping decision, terminal estimates, and inference
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple, Union

import numpy as np

from .bounds import CostAdjustedRegret
from .estimators import IvwEstimate, SigmaMode, StackedFit
from .model import ContextSpec
from .policies import ClipSchedule, PolicyKind
from .stopping import StopDecision, StoppingRule, spectral_norm


@dataclass(frozen=True)
class SimulationSetup:
    """Everything needed to re-run the batch protocol (used by the rejection
    sampler to simulate surrogate trajectories under plug-in parameters)."""

    context: ContextSpec
    policy: PolicyKind
    clip: ClipSchedule
    batch_size: int
    sigma_mode: SigmaMode
    rule: StoppingRule


@dataclass
class Trajectory:
    # Per batch, its fit held by reference and the trajectory's row of it: a
    # lone fit and (), or a lock-step stack's fit and the member's index.
    stats: List[Tuple[StackedFit, Union[int, Tuple[()]]]]
    stop: StopDecision  # the run's one stopping decision
    ivw: Optional[IvwEstimate]

    @property
    def stop_time(self) -> int:
        return self.stop.t

    @property
    def cap_hit(self) -> bool:
        return self.stop.cap_hit


@dataclass
class InferenceResult:
    beta0: np.ndarray
    beta1: np.ndarray
    lo0: np.ndarray
    hi0: np.ndarray
    lo1: np.ndarray
    hi1: np.ndarray
    level: float
    reject: Optional[bool]
    acceptance_rate: float
    samples_retained: int
    attempts: int


@dataclass
class ExperimentRecord:
    rep_index: int
    seed: int
    setup: SimulationSetup
    stop_time: int
    cap_hit: bool
    ivw: Optional[IvwEstimate]
    regret_hat: Optional[float]
    creg: Optional[CostAdjustedRegret]
    inference: Optional[InferenceResult]
    inference_seed: int
    error: Optional[str] = None
    inference_error: Optional[str] = None
    trajectory: Optional[Trajectory] = None  # kept only for a trajectory file

    @cached_property
    def var_norms(self) -> Tuple[float, float]:
        """Spectral norms of the terminal variance matrices (NaN without an
        estimate), computed on first read: the objective of an online rule
        and the CSV row read them."""
        if self.ivw is None:
            return (float("nan"), float("nan"))
        return (spectral_norm(self.ivw.var0), spectral_norm(self.ivw.var1))
