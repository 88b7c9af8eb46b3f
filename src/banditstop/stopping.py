"""The four stopping rules (pre-determined opportunity-cost and threshold,
online variance-threshold and variance-opportunity-cost) plus the closed-form
stop-time approximations available when the margin exponent is 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import math

import numpy as np

from .bounds import BoundConstants, regret_bound_time
from .errors import ConfigError, ContractError, UnsupportedCaseError
from .linalg import eigvalsh, require_symmetric

DEFAULT_T_MAX = 10_000


@dataclass(frozen=True)
class PredeterminedOpportunity:
    """Stop when the bound's one-batch decrease no longer exceeds the batch cost."""

    consts: BoundConstants


@dataclass(frozen=True)
class PredeterminedThreshold:
    """Stop when the regret bound falls to the threshold."""

    consts: BoundConstants
    k: float

    def __post_init__(self):
        if self.k <= 0:
            raise ConfigError("threshold must be positive")


@dataclass(frozen=True)
class OnlineThreshold:
    """Stop when both arms' variance-matrix spectral norms are at most k."""

    k: float

    def __post_init__(self):
        if self.k <= 0:
            raise ConfigError("threshold must be positive")


@dataclass(frozen=True)
class OnlineOpportunity:
    """Stop when both arms' variance-norm decrements are at most the transformed
    cost (scale_by_batch multiplies the comparison level by the batch size)."""

    c_prime: float
    scale_by_batch: bool = False
    batch_size: int = 1

    def __post_init__(self):
        if self.c_prime <= 0:
            raise ConfigError("c_prime must be positive")
        if self.scale_by_batch and self.batch_size < 1:
            raise ConfigError("scale_by_batch needs the batch size")


RuleVariant = Union[
    PredeterminedOpportunity, PredeterminedThreshold, OnlineThreshold, OnlineOpportunity
]


@dataclass(frozen=True)
class StoppingRuleSpec:
    rule: RuleVariant
    t_max: int = DEFAULT_T_MAX

    def __post_init__(self):
        if self.t_max < 1:
            raise ConfigError("t_max must be >= 1")

    @property
    def is_predetermined(self) -> bool:
        return isinstance(self.rule, (PredeterminedOpportunity, PredeterminedThreshold))


@dataclass
class StopDecision:
    stop: bool
    t: int
    cap_hit: bool
    diagnostics: Dict[str, float] = field(default_factory=dict)


VariancePair = Tuple[np.ndarray, np.ndarray]  # (arm0 matrix, arm1 matrix)


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric PSD matrix."""
    m = require_symmetric(matrix, "spectral_norm input")
    return float(eigvalsh(m)[-1])


def evaluate(
    spec: StoppingRuleSpec,
    t: int,
    current: Optional[VariancePair] = None,
    previous: Optional[VariancePair] = None,
) -> StopDecision:
    """Evaluate the stopping rule at batch t.

    Online rules need the current per-arm variance matrices (and the previous
    ones for the opportunity variant); missing inputs yield "continue" with a
    diagnostic flag rather than an error.  The hard cap always stops with
    cap_hit set.
    """
    norms = prev = None
    if not spec.is_predetermined and current is not None:
        norms = (spectral_norm(current[0]), spectral_norm(current[1]))
        if isinstance(spec.rule, OnlineOpportunity) and previous is not None:
            prev = (spectral_norm(previous[0]), spectral_norm(previous[1]))
    return decide(spec, t, norms, prev)


def decide(
    spec: StoppingRuleSpec,
    t: int,
    norms: Optional[Tuple[float, float]] = None,
    previous: Optional[Tuple[float, float]] = None,
) -> StopDecision:
    """`evaluate` given the spectral norms of the variance matrices instead
    of the matrices, for callers that compute the norms of many at once."""
    if t < 1:
        raise ContractError("t must be >= 1")
    rule = spec.rule
    diagnostics: Dict[str, float] = {}
    stop = False

    if isinstance(rule, PredeterminedOpportunity):
        bound_now = regret_bound_time(t, rule.consts)
        bound_next = regret_bound_time(t + 1, rule.consts)
        batch_cost = rule.consts.unit_cost * rule.consts.batch_size
        diagnostics.update(bound_t=bound_now, bound_t_next=bound_next, batch_cost=batch_cost)
        stop = (bound_now - bound_next) <= batch_cost
    elif isinstance(rule, PredeterminedThreshold):
        bound_now = regret_bound_time(t, rule.consts)
        diagnostics.update(bound_t=bound_now, threshold=rule.k)
        stop = bound_now <= rule.k
    elif isinstance(rule, OnlineThreshold):
        if norms is None:
            diagnostics["estimator_unavailable"] = 1.0
        else:
            norm0, norm1 = norms
            diagnostics.update(var_norm_arm0=norm0, var_norm_arm1=norm1, threshold=rule.k)
            stop = norm0 <= rule.k and norm1 <= rule.k
    elif isinstance(rule, OnlineOpportunity):
        if norms is None:
            diagnostics["estimator_unavailable"] = 1.0
        elif previous is None:
            diagnostics["insufficient_history"] = 1.0
        else:
            level = rule.c_prime * (rule.batch_size if rule.scale_by_batch else 1.0)
            norm0, norm1 = norms
            dec0 = previous[0] - norm0
            dec1 = previous[1] - norm1
            diagnostics.update(
                var_norm_arm0=norm0,
                var_norm_arm1=norm1,
                decrement_arm0=dec0,
                decrement_arm1=dec1,
                level=level,
            )
            # Negative decrements (variance rising) count as satisfied.
            stop = dec0 <= level and dec1 <= level
    else:
        raise ConfigError(f"unknown stopping rule {type(rule).__name__}")

    cap_hit = False
    if t >= spec.t_max and not stop:
        stop = True
        cap_hit = True
        diagnostics["cap"] = float(spec.t_max)
    return StopDecision(stop=stop, t=t, cap_hit=cap_hit, diagnostics=diagnostics)


def scan_stop_time(spec: StoppingRuleSpec) -> StopDecision:
    """First batch at which a pre-determined rule fires (no data involved)."""
    if not spec.is_predetermined:
        raise ContractError("scan_stop_time applies to pre-determined rules only")
    for t in range(1, spec.t_max + 1):
        decision = evaluate(spec, t)
        if decision.stop:
            return decision
    raise AssertionError("unreachable: the cap stops the scan")


@dataclass(frozen=True)
class StopTimePrediction:
    t_star: float
    creg_star: float


def closed_form_stop_time(spec: StoppingRuleSpec) -> StopTimePrediction:
    """Approximate stop time and objective for pre-determined rules when the
    margin exponent is 1 and the clip level is constant.

    Opportunity rule: t* = sqrt(rate_const / (unit_cost * batch_size)) with
    objective rate_const * ln(t*) + cost * t*.  Threshold rule: t* =
    rate_const / k with objective equal to the total sampling cost at t*.
    """
    rule = spec.rule
    if isinstance(rule, PredeterminedOpportunity):
        consts = rule.consts
        if consts.margin_exponent != 1.0:
            raise UnsupportedCaseError("closed form is derived for margin exponent 1 only")
        batch_cost = consts.unit_cost * consts.batch_size
        if batch_cost <= 0:
            raise UnsupportedCaseError("opportunity closed form needs a positive unit cost")
        t_star = math.sqrt(consts.rate_const / batch_cost)
        creg_star = consts.rate_const * math.log(t_star) + batch_cost * t_star
        return StopTimePrediction(t_star=t_star, creg_star=creg_star)
    if isinstance(rule, PredeterminedThreshold):
        consts = rule.consts
        if consts.margin_exponent != 1.0:
            raise UnsupportedCaseError("closed form is derived for margin exponent 1 only")
        t_star = consts.rate_const / rule.k
        creg_star = consts.unit_cost * consts.batch_size * t_star
        return StopTimePrediction(t_star=t_star, creg_star=creg_star)
    raise ContractError("closed-form stop times exist for pre-determined rules only")
