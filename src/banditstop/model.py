"""Simulated environment: context distributions, the two-arm linear reward
model, and empirical checks of the regularity conditions the analysis relies
on (bounded contexts, well-conditioned second moment, margin behavior near
the decision boundary).

The stacked helpers (`stacked_contexts`, `stacked_uniforms`,
`stacked_rewards`) serve the lock-step loops: per batch, each member's
generator fills its own row of one preallocated buffer with the draws of
the lone call, in the lone order, and the rest runs once over the stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ConfigError, ContractError

# Grid used by default when fitting the margin curve P(|diff . x| <= h).
DEFAULT_MARGIN_GRID = tuple(0.01 * 2.0**j for j in range(7))

_TRUNCATION_MAX_ROUNDS = 1000


@dataclass(frozen=True)
class UniformBox:
    """Independent uniform coordinates on [lower_i, upper_i] (point masses allowed)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.atleast_1d(np.asarray(self.lower, dtype=float)))
        object.__setattr__(self, "upper", np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if self.lower.shape != self.upper.shape:
            raise ConfigError("box lower/upper must have matching shapes")
        if np.any(self.lower > self.upper):
            raise ConfigError("inverted box: lower > upper in some coordinate")
        # `sample_batch_contexts` scales uniform draws by the width.
        with np.errstate(over="ignore", invalid="ignore"):
            width = self.upper - self.lower
        if not np.isfinite(width).all():
            raise ConfigError("box bounds and their widths must be finite")


@dataclass(frozen=True)
class TruncatedGaussian:
    """Gaussian resampled until every coordinate lies in [-bound, bound]."""

    mean: np.ndarray
    cov: np.ndarray
    bound: float

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, dtype=float)))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        if self.bound <= 0:
            raise ConfigError("truncation bound must be positive")
        cov = self.cov
        if cov.ndim != 2 or cov.shape != (self.mean.size, self.mean.size):
            raise ConfigError("covariance shape must match mean")
        if np.max(np.abs(cov - cov.T)) > 1e-9 * max(1.0, float(np.max(np.abs(cov)))):
            raise ConfigError("covariance must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ConfigError("covariance must be positive definite") from None


ContextDist = Union[UniformBox, TruncatedGaussian]


@dataclass(frozen=True)
class ContextSpec:
    """Context distribution plus the sup-norm bound every draw must satisfy."""

    dim: int
    dist: ContextDist
    sup_bound: float

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.sup_bound <= 0:
            raise ConfigError("sup_bound must be positive")
        if isinstance(self.dist, UniformBox):
            if self.dist.lower.size != self.dim:
                raise ConfigError("box dimension does not match dim")
            if np.max(np.abs(self.dist.lower)) > self.sup_bound or np.max(
                np.abs(self.dist.upper)
            ) > self.sup_bound:
                raise ConfigError("box exceeds the declared sup-norm bound")
        else:
            if self.dist.mean.size != self.dim:
                raise ConfigError("Gaussian dimension does not match dim")
            if self.dist.bound > self.sup_bound:
                raise ConfigError("truncation box exceeds the declared sup-norm bound")

    def euclidean_bound(self) -> float:
        """Euclidean norm bound implied by the sup-norm bound: sqrt(dim) * sup_bound."""
        return float(np.sqrt(self.dim) * self.sup_bound)


def uniform_cube_spec(dim: int, half_width: float = 1.0) -> ContextSpec:
    """Default context family: i.i.d. Uniform[-w, w]^dim."""
    w = float(half_width)
    return ContextSpec(
        dim=dim,
        dist=UniformBox(lower=-w * np.ones(dim), upper=w * np.ones(dim)),
        sup_bound=w,
    )


@dataclass(frozen=True)
class TrueModel:
    """Ground-truth arm parameters and noise scales of the simulated environment."""

    beta0: np.ndarray
    beta1: np.ndarray
    sigma0: float = 1.0
    sigma1: float = 1.0
    noise: str = "gaussian"  # "gaussian" | "bounded_uniform"

    def __post_init__(self):
        object.__setattr__(self, "beta0", np.atleast_1d(np.asarray(self.beta0, dtype=float)))
        object.__setattr__(self, "beta1", np.atleast_1d(np.asarray(self.beta1, dtype=float)))
        if self.beta0.shape != self.beta1.shape:
            raise ConfigError("beta0 and beta1 must have the same length")
        if self.sigma0 < 0 or self.sigma1 < 0:
            raise ConfigError("noise scales must be nonnegative")
        if self.noise not in ("gaussian", "bounded_uniform"):
            raise ConfigError(f"unknown noise family {self.noise!r}")

    @property
    def dim(self) -> int:
        return self.beta0.size

    def arm_difference(self) -> np.ndarray:
        return self.beta1 - self.beta0


@dataclass(frozen=True)
class AssumptionReport:
    """Empirical verification of the boundedness / eigenvalue / margin conditions."""

    sup_norm_hat: float
    lambda_min_hat: float
    margin_scale_hat: float  # multiplicative constant of the fitted power law
    margin_exponent_hat: float  # exponent of the fitted power law
    mc_samples: int
    bounded_ok: bool
    eigenvalue_ok: bool
    margin_ok: bool
    margin_probs: tuple = field(default=(), repr=False)  # (h, P_hat(h)) pairs


def sample_batch_contexts(spec: ContextSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (n, dim) matrix of i.i.d. contexts from the spec's distribution."""
    if n < 1:
        raise ContractError("n must be >= 1")
    dist = spec.dist
    if isinstance(dist, UniformBox):
        # Scaled in place one coordinate column at a time: a broadcast against
        # the trailing length-dim axis makes numpy's inner loop dim elements
        # long, while each column is one loop over all n draws.
        return _scale_to_box(rng.random((n, spec.dim)), dist)
    chol = np.linalg.cholesky(dist.cov)
    out = np.empty((n, spec.dim))
    filled = 0
    for _ in range(_TRUNCATION_MAX_ROUNDS):
        need = n - filled
        draws = dist.mean + rng.standard_normal((max(need * 2, 16), spec.dim)) @ chol.T
        keep = draws[np.max(np.abs(draws), axis=1) <= dist.bound]
        take = min(keep.shape[0], need)
        out[filled : filled + take] = keep[:take]
        filled += take
        if filled == n:
            return out
    raise ConfigError(
        "truncated Gaussian acceptance rate too low; widen the truncation box"
    )


def realize_rewards(
    model: TrueModel,
    contexts: np.ndarray,
    actions: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Observed rewards: x . beta_arm plus centered noise with the arm's scale,
    for binary `actions` (`split_arms`)."""
    contexts = np.asarray(contexts, dtype=float)
    actions = np.asarray(actions)
    if contexts.ndim != 2 or contexts.shape[1] != model.dim:
        raise ContractError("context matrix does not match model dimension")
    if actions.shape != (contexts.shape[0],):
        raise ContractError("actions must be a vector aligned with contexts")
    arm1 = actions if actions.dtype == bool else split_arms(actions)[0][1]
    return _rewards(model, contexts, arm1, _unit_noise(rng, actions.shape, model.noise))


def split_arms(actions: np.ndarray):
    """The masks (arm 0, arm 1) of a vector of binary actions, and each arm's
    unit count.  A bool vector is an arm-1 mask by its dtype, as
    `policies.select_actions` draws it; any other must hold only 0s and 1s."""
    if actions.dtype == bool:
        n1 = int(np.count_nonzero(actions))
        return (~actions, actions), (actions.size - n1, n1)
    masks = (actions == 0, actions == 1)
    counts = (int(np.count_nonzero(masks[0])), int(np.count_nonzero(masks[1])))
    if counts[0] + counts[1] != actions.size:
        raise ContractError("actions must be binary")
    return masks, counts


def stacked_rewards(model: TrueModel, contexts: np.ndarray, arm1: np.ndarray, rngs) -> np.ndarray:
    """`realize_rewards` of stacked members: contexts (R, n, d) and arm-1
    masks (R, n), with one generator each.  Each member draws its noise from
    its own generator as a lone call does, into its own row of one (R, n)
    buffer; the rest runs once over the stack."""
    noise = np.empty(arm1.shape)
    for row, rng in zip(noise, rngs):
        if model.noise == "gaussian":
            rng.standard_normal(out=row)
        else:  # `Generator.uniform` takes no `out`
            row[...] = _unit_noise(rng, row.shape, model.noise)
    return _rewards(model, contexts, arm1, noise)


def stacked_uniforms(rngs, shape) -> np.ndarray:
    """``rng.random(shape)`` of each generator, stacked as (R, *shape): each
    fills its own row of one buffer, with the draws of the lone call."""
    out = np.empty((len(rngs),) + tuple(shape))
    for row, rng in zip(out, rngs):
        rng.random(out=row)
    return out


def stacked_contexts(spec: ContextSpec, n: int, rngs) -> np.ndarray:
    """`sample_batch_contexts` from each generator, stacked as (R, n, dim):
    box draws fill one buffer (`stacked_uniforms`), truncated-Gaussian ones
    are drawn alone and stacked."""
    dist = spec.dist
    if isinstance(dist, UniformBox):
        return _scale_to_box(stacked_uniforms(rngs, (n, spec.dim)), dist)
    return np.stack([sample_batch_contexts(spec, n, rng) for rng in rngs])


def _scale_to_box(u: np.ndarray, box: UniformBox) -> np.ndarray:
    """Map uniform [0, 1) draws u (..., dim) to the box in place, one column at
    a time: u * width + lower, which is what `rng.uniform(lower, upper, size)`
    computes, draw for draw, since IEEE + and * commute."""
    width = box.upper - box.lower
    for j in range(u.shape[-1]):
        col = u[..., j]
        col *= width[j]
        col += box.lower[j]
    return u


def _unit_noise(rng: np.random.Generator, shape, family: str) -> np.ndarray:
    if family == "gaussian":
        return rng.standard_normal(shape)
    return rng.uniform(-1.0, 1.0, size=shape)


def _rewards(model: TrueModel, contexts: np.ndarray, arm1: np.ndarray, noise: np.ndarray) -> np.ndarray:
    means = np.where(arm1, contexts @ model.beta1, contexts @ model.beta0)
    scales = np.where(arm1, model.sigma1, model.sigma0)
    if model.noise != "gaussian":
        # Uniform on [-a, a] with a = sqrt(3) * sd has mean 0 and the requested sd.
        scales = np.sqrt(3.0) * scales
    return means + noise * scales


def estimate_policy_regret(
    model: TrueModel,
    spec: ContextSpec,
    learned_difference: np.ndarray,
    mc_samples: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo value gap of the plug-in policy sign(learned_difference . x).

    Averages, over fresh contexts, the reward the best arm earns minus the
    reward of the arm the learned rule picks: max(r0, r1) - chosen, with
    r_a = x . beta_a.  That is |r1 - r0| where the rule picks the worse arm
    and 0 where it picks the better one (or the arms tie), which is how it
    is computed: three matrix-vector products, no masked select.  The
    identity is exact in IEEE arithmetic while r1 - r0 is finite, since
    a - b = -(b - a) and v * 1.0 = v; only the sign of an all-zero mean can
    differ (0.0 against -0.0, which compare equal).  Where x . beta
    overflows, an infinite gap times 0 is NaN where max-minus-chosen can be 0.
    """
    x = sample_batch_contexts(spec, mc_samples, rng)
    gap = x @ model.beta1
    gap -= x @ model.beta0
    wrong = (x @ np.asarray(learned_difference, dtype=float) > 0) != (gap > 0)
    np.abs(gap, out=gap)
    gap *= wrong
    return float(np.mean(gap))


def check_assumptions(
    spec: ContextSpec,
    model: TrueModel,
    mc_samples: int,
    h_grid=DEFAULT_MARGIN_GRID,
    rng: np.random.Generator | None = None,
) -> AssumptionReport:
    """Monte Carlo report on boundedness, minimum eigenvalue, and the margin law.

    The margin constants are estimated by least squares of log P_hat(h) on
    log h over grid points with 0 < P_hat(h) < 1.  Identical arms make the
    margin condition unsatisfiable (the probability is 1 for every h), which
    is reported rather than raised.
    """
    if mc_samples < 1000:
        raise ContractError("mc_samples must be >= 1000")
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid.size == 0 or np.any(h_grid <= 0) or np.any(np.diff(h_grid) <= 0):
        raise ContractError("h_grid must be positive and sorted ascending")
    rng = rng if rng is not None else np.random.default_rng(0)

    x = sample_batch_contexts(spec, mc_samples, rng)
    sup_hat = float(np.max(np.abs(x)))
    second_moment = x.T @ x / mc_samples
    lambda_min = float(np.linalg.eigvalsh(second_moment)[0])

    diff = model.arm_difference()
    margin_pairs: list[tuple[float, float]] = []
    if np.all(diff == 0):
        scale_hat, exponent_hat, margin_ok = float("nan"), float("nan"), False
    else:
        gaps = np.abs(x @ diff)
        probs = np.array([np.mean(gaps <= h) for h in h_grid])
        margin_pairs = list(zip(h_grid.tolist(), probs.tolist()))
        usable = (probs > 0) & (probs < 1)
        if np.count_nonzero(usable) >= 2:
            slope, intercept = np.polyfit(np.log(h_grid[usable]), np.log(probs[usable]), 1)
            scale_hat = float(np.exp(intercept))
            exponent_hat = float(slope)
            margin_ok = bool(exponent_hat > 0 and np.isfinite(scale_hat))
        else:
            scale_hat, exponent_hat, margin_ok = float("nan"), float("nan"), False

    return AssumptionReport(
        sup_norm_hat=sup_hat,
        lambda_min_hat=lambda_min,
        margin_scale_hat=scale_hat,
        margin_exponent_hat=exponent_hat,
        mc_samples=mc_samples,
        bounded_ok=bool(sup_hat <= spec.sup_bound + 1e-12),
        eigenvalue_ok=bool(lambda_min > 0),
        margin_ok=margin_ok,
        margin_probs=tuple(margin_pairs),
    )
