"""The four stopping rules (pre-determined opportunity-cost and threshold,
online variance-threshold and variance-opportunity-cost) as one value,
`StoppingRule`, which is also the config's `stopping` section, plus the
closed-form stop-time approximations available when the margin exponent is 1.

The online rules read each arm's spectral norm of the scaled variance
n f G^{-1}, which the simulation loops take as n f / lambda_min(G) from
`estimators.ivw_combine` without forming the matrix; `spectral_norm`
reduces a formed matrix (a record's terminal variances).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .bounds import BoundConstants, regret_bound_time
from .errors import ConfigError, ContractError, UnsupportedCaseError
from .linalg import eigvalsh, require_symmetric


@dataclass(frozen=True)
class StoppingRule:
    """A stopping rule with the hard cap `t_max`.  By `kind`, stop when:
    - predetermined_opportunity: the regret bound's one-batch decrease no
      longer exceeds the batch cost;
    - predetermined_threshold: the regret bound falls to `k`;
    - online_threshold: both arms' variance norms are at most `k`;
    - online_opportunity: both arms' variance-norm decrements are at most
      `c_prime` (times `batch_size` under `scale_by_batch`).
    An `ExperimentConfig` gives its rule its `batch_size`, and
    `harness._setup` sets `consts`, which the pre-determined kinds read."""

    kind: str
    t_max: int
    k: Optional[float] = None
    c_prime: Optional[float] = None
    scale_by_batch: bool = False
    consts: Optional[BoundConstants] = None
    batch_size: Optional[int] = None

    # Each kind and the keys its rule reads besides t_max.
    _KINDS = {
        "predetermined_opportunity": (),
        "predetermined_threshold": ("k",),
        "online_threshold": ("k",),
        "online_opportunity": ("c_prime", "scale_by_batch"),
    }

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigError(f"unknown stopping kind {self.kind!r}")
        for name, unset in (("k", None), ("c_prime", None), ("scale_by_batch", False)):
            if getattr(self, name) is not unset and name not in self._KINDS[self.kind]:
                raise ConfigError(
                    f"stopping.{name} is not read by stopping kind {self.kind!r}; leave it {json.dumps(unset)}"
                )
        if self.kind.endswith("threshold") and (self.k is None or self.k <= 0):
            raise ConfigError("threshold rules need k > 0")
        if self.kind == "online_opportunity" and (self.c_prime is None or self.c_prime <= 0):
            raise ConfigError("online_opportunity needs c_prime > 0")
        if self.t_max < 1:
            raise ConfigError("t_max must be >= 1")
        for name, value in (("k", self.k), ("c_prime", self.c_prime)):
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"stopping.{name} must be finite")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")

    @property
    def predetermined(self) -> bool:
        """Whether the rule is pre-determined: it reads the bound constants, not the data."""
        return self.kind.startswith("predetermined")


def _bound_constants(rule: StoppingRule) -> BoundConstants:
    if rule.consts is None:
        raise ContractError(f"stopping kind {rule.kind!r} reads bound constants, and the rule has none")
    return rule.consts


@dataclass
class StopDecision:
    stop: bool
    t: int
    cap_hit: bool
    diagnostics: Dict[str, float] = field(default_factory=dict)


NormPair = Tuple[float, float]  # (arm 0, arm 1) spectral norms of the scaled variances


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric PSD matrix."""
    return float(eigvalsh(require_symmetric(matrix, "spectral_norm input"))[-1])


def evaluate(
    rule: StoppingRule,
    t: int,
    current: Optional[NormPair] = None,
    previous: Optional[NormPair] = None,
) -> StopDecision:
    """Evaluate the stopping rule at batch t.

    Online rules read the spectral norms of the current per-arm scaled
    variance matrices (`estimators.ivw_combine`), and the opportunity
    variant those of the previous batch too, which the caller carries from
    one batch to the next; missing inputs yield "continue" rather than an
    error.  Pre-determined rules read neither, and log the bound they read in
    `diagnostics` (`stop-scan` prints them); online rules log nothing.  A
    pre-determined rule without bound constants, or a rule with
    `scale_by_batch` and no batch size, is a ContractError.  The hard cap
    always stops with cap_hit set, and logs `cap`.
    """
    if t < 1:
        raise ContractError("t must be >= 1")
    if rule.scale_by_batch and rule.batch_size is None:
        raise ContractError(f"stopping kind {rule.kind!r} scales c_prime by the batch size, and the rule has none")
    kind = rule.kind
    diagnostics: Dict[str, float] = {}
    stop = False

    if kind == "predetermined_opportunity":
        consts = _bound_constants(rule)
        bound_now = regret_bound_time(t, consts)
        bound_next = regret_bound_time(t + 1, consts)
        batch_cost = consts.unit_cost * consts.batch_size
        diagnostics.update(bound_t=bound_now, bound_t_next=bound_next, batch_cost=batch_cost)
        stop = (bound_now - bound_next) <= batch_cost
    elif kind == "predetermined_threshold":
        bound_now = regret_bound_time(t, _bound_constants(rule))
        diagnostics.update(bound_t=bound_now, threshold=rule.k)
        stop = bound_now <= rule.k
    elif current is None:  # an online rule without an estimate
        pass
    elif kind == "online_threshold":
        stop = current[0] <= rule.k and current[1] <= rule.k
    elif previous is not None:  # online_opportunity: construction rejects any other kind
        level = rule.c_prime * (rule.batch_size if rule.scale_by_batch else 1.0)
        # Negative decrements (variance rising) count as satisfied.
        stop = previous[0] - current[0] <= level and previous[1] - current[1] <= level

    cap_hit = False
    if t >= rule.t_max and not stop:
        stop = True
        cap_hit = True
        diagnostics["cap"] = float(rule.t_max)
    return StopDecision(stop=stop, t=t, cap_hit=cap_hit, diagnostics=diagnostics)


def scan_stop_time(rule: StoppingRule) -> StopDecision:
    """First batch at which a pre-determined rule fires (no data involved)."""
    if not rule.predetermined:
        raise ContractError("scan_stop_time applies to pre-determined rules only")
    for t in range(1, rule.t_max + 1):
        decision = evaluate(rule, t)
        if decision.stop:
            return decision
    raise AssertionError("unreachable: the cap stops the scan")


@dataclass(frozen=True)
class StopTimePrediction:
    t_star: float
    creg_star: float


def closed_form_stop_time(rule: StoppingRule) -> StopTimePrediction:
    """Approximate stop time and objective for pre-determined rules when the
    margin exponent is 1 and the clip level is constant.

    Opportunity rule: t* = sqrt(rate_const / (unit_cost * batch_size)) with
    objective rate_const * ln(t*) + cost * t*.  Threshold rule: t* =
    rate_const / k with objective equal to the total sampling cost at t*.
    """
    if not rule.predetermined:
        raise ContractError("closed-form stop times exist for pre-determined rules only")
    consts = _bound_constants(rule)
    if consts.margin_exponent != 1.0:
        raise UnsupportedCaseError("closed form is derived for margin exponent 1 only")
    batch_cost = consts.unit_cost * consts.batch_size
    if rule.kind == "predetermined_threshold":
        t_star = consts.rate_const / rule.k
        return StopTimePrediction(t_star=t_star, creg_star=batch_cost * t_star)
    if batch_cost <= 0:
        raise UnsupportedCaseError("opportunity closed form needs a positive unit cost")
    t_star = math.sqrt(consts.rate_const / batch_cost)
    creg_star = consts.rate_const * math.log(t_star) + batch_cost * t_star
    return StopTimePrediction(t_star=t_star, creg_star=creg_star)
