"""Value types tying a full seeded trajectory together: the simulation setup,
per-batch statistics, the stop trace, terminal estimates, and inference output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .bounds import CostAdjustedRegret
from .estimators import IvwEstimate, SigmaMode, SufficientStats
from .model import ContextSpec
from .policies import ClipSchedule, PolicyKind
from .stopping import StopDecision, StoppingRuleSpec


@dataclass(frozen=True)
class SimulationSetup:
    """Everything needed to re-run the batch protocol (used by the rejection
    sampler to simulate surrogate trajectories under plug-in parameters)."""

    context: ContextSpec
    policy: PolicyKind
    clip: ClipSchedule
    batch_size: int
    sigma_mode: SigmaMode
    rule: StoppingRuleSpec


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
    stats: SufficientStats
    stop_trace: List[StopDecision]
    stop_time: int
    cap_hit: bool
    ivw: Optional[IvwEstimate]
    noise_plugin: Optional[Tuple[float, float]]  # per-arm noise sd for resimulation
    regret_hat: Optional[float]
    creg: Optional[CostAdjustedRegret]
    inference: Optional[InferenceResult]
    inference_seed: int
    error: Optional[str] = None
    inference_error: Optional[str] = None

    @property
    def var_norms(self) -> Tuple[float, float]:
        from .stopping import spectral_norm

        if self.ivw is None:
            return (float("nan"), float("nan"))
        return (spectral_norm(self.ivw.var0), spectral_norm(self.ivw.var1))
