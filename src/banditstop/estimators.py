"""Per-batch OLS fits, the Gram-weighted combined estimator, and its variance
estimators (known noise scale or residual-based).

Scaling convention: the stored per-arm variance matrix is
``batch_size * (sum of contributing Grams)^{-1} * noise_variance``, i.e. the
covariance of the combined estimate multiplied by the batch size.  Use
:meth:`IvwEstimate.beta_cov` wherever the covariance of the estimate itself
is needed (confidence intervals, posterior draws).

Running sums: a trajectory folds each batch's fit into one
:class:`RunningSums` in O(d^2) (``policies.update_state``), so
:func:`ivw_combine` and :func:`residual_noise_factors` cost the same at every
batch index.  The same sums feed the policy: each arm's X'X and raw X'y over
all units give the cumulative OLS estimate (:meth:`ArmSums.ols_estimate`),
and a trajectory keeps no other store of them.  The
squared residual over all units has the closed form
``sum (y - x'b)^2 = sum y^2 - 2 b'X'y + b'X'X b``; the sums keep e = y - x'ref
in place of y, centred at the first usable batch estimate ref, so that the
three terms do not cancel down to a small residual and lose its digits.

Stacking: a batch's per-arm sums are zero-masked full-length products
(:func:`masked_sums`, :func:`masked_rss`), which numpy rounds the same for
one batch alone or for a stack of members' batches.  The lock-step engine of
``simulate.simulate_ensemble`` fits a stack with :func:`fit_arms` and folds
it into :class:`StackedSums`, whose fold and combined estimate mirror
:meth:`ArmSums.add` and :func:`ivw_combine` member by member, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import ConfigError, ContractError, EstimatorUnavailable
from .linalg import inverse_spd, is_invertible_gram, solve_spd
from .model import ContextSpec, TrueModel, sample_batch_contexts


@dataclass(frozen=True)
class KnownSigma:
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError("a known noise scale must be finite and > 0")


@dataclass(frozen=True)
class ResidualSigma:
    pass


SigmaMode = Union[KnownSigma, ResidualSigma]


@dataclass
class ArmFit:
    """One arm's OLS output in one batch; `beta` and `rss` are None when the
    Gram is singular.  `moment` (X'y) and `sum_sq` (y'y) carry such an arm's
    units into the running residual sums."""

    beta: Optional[np.ndarray]
    gram: np.ndarray
    count: int
    rss: Optional[float]
    moment: np.ndarray
    sum_sq: float


@dataclass
class BatchOlsFit:
    batch_index: int
    arm0: ArmFit
    arm1: ArmFit

    def arm(self, a: int) -> ArmFit:
        return self.arm1 if a == 1 else self.arm0


@dataclass
class ArmSums:
    """One arm's running sums.  `gram`, `weighted` (Gram @ beta) and `usable`
    count only batches whose own Gram is invertible; `xx`, `xy` (X'y),
    `count`, `xe` (X'e) and `ee` (e'e) cover all units, with e = y - x'ref.
    `ref` is zero until the first usable batch, then its estimate: the
    combined one while it is alone.
    """

    gram: np.ndarray
    weighted: np.ndarray
    usable: int
    xx: np.ndarray
    xy: np.ndarray
    count: int
    ref: np.ndarray
    xe: np.ndarray
    ee: float

    @classmethod
    def empty(cls, dim: int) -> "ArmSums":
        return cls(
            gram=np.zeros((dim, dim)),
            weighted=np.zeros(dim),
            usable=0,
            xx=np.zeros((dim, dim)),
            xy=np.zeros(dim),
            count=0,
            ref=np.zeros(dim),
            xe=np.zeros(dim),
            ee=0.0,
        )

    def add(self, fit: ArmFit) -> None:
        if fit.beta is None:
            ref = self.ref
            self.xe = self.xe + fit.moment - fit.gram @ ref
            self.ee += fit.sum_sq - 2.0 * (ref @ fit.moment) + ref @ fit.gram @ ref
        else:
            if self.usable == 0:
                # Recentre the sums of earlier singular batches at this estimate.
                shift = fit.beta - self.ref
                self.ee += shift @ self.xx @ shift - 2.0 * (shift @ self.xe)
                self.xe = self.xe - self.xx @ shift
                self.ref = fit.beta
            # OLS orthogonality: the batch's residuals against ref are its own
            # residuals plus X (beta_b - ref), with X' resid = 0.
            gd = fit.gram @ (fit.beta - self.ref)
            self.xe = self.xe + gd
            self.ee += fit.rss + (fit.beta - self.ref) @ gd
            self.gram = self.gram + fit.gram
            self.weighted = self.weighted + fit.gram @ fit.beta
            self.usable += 1
        self.xx = self.xx + fit.gram
        self.xy = self.xy + fit.moment
        self.count += fit.count

    def ols_estimate(self) -> Optional[np.ndarray]:
        """Cumulative OLS estimate over all units, or None while X'X is singular."""
        if not is_invertible_gram(self.xx):
            return None
        return solve_spd(self.xx, self.xy)

    def squared_residual(self, beta: np.ndarray) -> float:
        """Sum of (y - x'beta)^2 over all units of this arm."""
        delta = beta - self.ref
        # Rounding can leave a residual of (near) zero slightly negative.
        return max(float(self.ee - 2.0 * (delta @ self.xe) + delta @ self.xx @ delta), 0.0)


@dataclass
class RunningSums:
    """Both arms' running sums over a trajectory; `len()` is the number of
    batches added."""

    arm0: ArmSums
    arm1: ArmSums
    t: int = 0

    @classmethod
    def empty(cls, dim: int) -> "RunningSums":
        return cls(arm0=ArmSums.empty(dim), arm1=ArmSums.empty(dim))

    @property
    def dim(self) -> int:
        return self.arm0.xy.size

    def arm(self, a: int) -> ArmSums:
        return self.arm1 if a == 1 else self.arm0

    def __len__(self) -> int:
        return self.t


@dataclass
class StackedSums:
    """The `ArmSums` of many members at once: each field gains leading
    (member, arm) axes.  `add` folds one batch per member the way
    `ArmSums.add` does; each of its products is a stacked matmul that rounds
    as the 1-d/2-d one there does (`tests/test_stack_invariance.py`), so
    every member's sums equal, bit for bit, those of its lone trajectory."""

    gram: np.ndarray
    weighted: np.ndarray
    usable: np.ndarray
    xx: np.ndarray
    xy: np.ndarray
    count: np.ndarray
    ref: np.ndarray
    xe: np.ndarray
    ee: np.ndarray
    t: int = 0

    @classmethod
    def empty(cls, members: int, dim: int) -> "StackedSums":
        lone = (np.asarray(getattr(ArmSums.empty(dim), f.name)) for f in fields(ArmSums))
        return cls(*(np.zeros((members, 2) + z.shape, z.dtype) for z in lone))

    def __len__(self) -> int:
        return self.t

    def add(self, fit: StackedFit) -> None:
        # Both branches of `ArmSums.add` for every arm; `usable` picks one.
        u, beta, gram = fit.usable, fit.beta, fit.gram
        first = u & (self.usable == 0)
        shift = beta - self.ref
        ee = np.where(first, self.ee + (_quad(shift, self.xx) - 2.0 * _dot(shift, self.xe)), self.ee)
        xe = np.where(first[..., None], self.xe - _mv(self.xx, shift), self.xe)
        ref = np.where(first[..., None], beta, self.ref)
        diff = beta - ref
        gd = _mv(gram, diff)
        self.xe = np.where(u[..., None], xe + gd, self.xe + fit.moment - _mv(gram, self.ref))
        self.ee = np.where(
            u,
            ee + (fit.rss + _dot(diff, gd)),
            self.ee + (fit.sum_sq - 2.0 * _dot(self.ref, fit.moment) + _quad(self.ref, gram)),
        )
        self.ref = ref
        self.gram = np.where(u[..., None, None], self.gram + gram, self.gram)
        self.weighted = np.where(u[..., None], self.weighted + _mv(gram, beta), self.weighted)
        self.usable = self.usable + u
        self.xx = self.xx + gram
        self.xy = self.xy + fit.moment
        self.count = self.count + fit.count
        self.t += 1

    def take(self, keep: np.ndarray) -> "StackedSums":
        """The members where `keep` is True."""
        return StackedSums(*(getattr(self, f.name)[keep] for f in fields(ArmSums)), t=self.t)

    def member(self, k: int) -> RunningSums:
        """Member k's sums, as one trajectory's RunningSums."""
        arm0, arm1 = (ArmSums(**{f.name: getattr(self, f.name)[k, a] for f in fields(ArmSums)}) for a in (0, 1))
        return RunningSums(arm0, arm1, self.t)

    def combine(self, sigma_mode: SigmaMode, batch_size: int):
        """`ivw_combine` of every member (which calls this for a StackedSums):
        whether it has the estimate (R,),
        and the estimates (R, 2, d) and scaled variances (R, 2, d, d), zero
        where it has not.  The Cholesky solves and inverses run per member."""
        ok = ((self.usable > 0) & is_invertible_gram(self.gram)).all(axis=-1)
        known = isinstance(sigma_mode, KnownSigma)
        if not known:
            ok &= (self.count > self.xy.shape[-1]).all(axis=-1)
        beta = np.where((self.usable == 1)[..., None], self.ref, 0.0)
        inv = np.zeros_like(self.gram)
        for r in np.flatnonzero(ok):
            for a in (0, 1):
                if self.usable[r, a] > 1:
                    beta[r, a] = solve_spd(self.gram[r, a], self.weighted[r, a])
                inv[r, a] = inverse_spd(self.gram[r, a])
        if known:
            factor = np.full(ok.shape + (2,), sigma_mode.sigma**2)
        else:
            # `ArmSums.squared_residual` over the count, max(., 0) as Python's;
            # members without the estimate get a finite stand-in.
            delta = beta - self.ref
            sq = self.ee - 2.0 * _dot(delta, self.xe) + _quad(delta, self.xx)
            factor = np.where(0.0 > sq, 0.0, sq) / np.maximum(self.count, 1)
        return ok, beta, batch_size * inv * factor[..., None, None]


# m @ v, u @ v and v @ m @ v over stacks of vectors (..., d) and matrices (..., d, d).
def _mv(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (m @ v[..., None])[..., 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _quad(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    return (v[..., None, :] @ m @ v[..., :, None])[..., 0, 0]


@dataclass
class IvwEstimate:
    """Gram-weighted combination of the per-batch OLS estimates."""

    beta0: np.ndarray
    beta1: np.ndarray
    var0: np.ndarray  # batch-size-scaled variance matrix, see module docstring
    var1: np.ndarray
    batches_used: int
    batch_size: int
    sigma_mode: SigmaMode

    def beta(self, arm: int) -> np.ndarray:
        return self.beta1 if arm == 1 else self.beta0

    def var(self, arm: int) -> np.ndarray:
        return self.var1 if arm == 1 else self.var0

    def beta_cov(self, arm: int) -> np.ndarray:
        """Covariance matrix of the combined estimate for one arm."""
        return self.var(arm) / self.batch_size


def fit_batch_ols(
    contexts: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    batch_index: int = 0,
) -> BatchOlsFit:
    """Per-arm OLS on one batch.

    Solves the normal equations by Cholesky factorization; an arm whose Gram
    matrix is singular gets beta=None (the Gram and count are still reported).
    Each arm's sums are zero-masked full-length products (`masked_sums`), so
    they round the same whether the batch is fitted alone or stacked with
    others.
    """
    contexts = np.asarray(contexts, dtype=float)
    actions = np.asarray(actions)
    rewards = np.asarray(rewards, dtype=float)
    n = contexts.shape[0]
    if contexts.ndim != 2:
        raise ContractError("contexts must be a 2-d matrix")
    if actions.shape != (n,) or rewards.shape != (n,):
        raise ContractError("actions/rewards must align with contexts")
    masks = (actions == 0, actions == 1)
    if not (masks[0] | masks[1]).all():
        raise ContractError("actions must be binary")

    arms = []
    for mask in masks:
        w = mask.astype(float)
        gram, moment, sum_sq = masked_sums(contexts, rewards, w)
        beta, rss = None, None
        if is_invertible_gram(gram):
            beta = solve_spd(gram, moment)
            rss = float(masked_rss(contexts, rewards, w, beta))
        arms.append(ArmFit(beta, gram, int(np.count_nonzero(mask)), rss, moment, float(sum_sq)))
    return BatchOlsFit(batch_index=batch_index, arm0=arms[0], arm1=arms[1])


class StackedFit(NamedTuple):
    """Both arms' batch fits for any leading (member) axes: gram (..., 2, d, d),
    moment (..., 2, d), count, sum_sq, usable (..., 2), and beta (..., 2, d)
    and rss (..., 2), zero where the arm's Gram is singular."""

    gram: np.ndarray
    moment: np.ndarray
    count: np.ndarray
    sum_sq: np.ndarray
    usable: np.ndarray
    beta: np.ndarray
    rss: np.ndarray

    def member(self, batch_index: int, k: int) -> BatchOlsFit:
        """Member k's BatchOlsFit."""
        usable, count, rss, sum_sq = (a[k].tolist() for a in (self.usable, self.count, self.rss, self.sum_sq))
        gram, moment, beta = self.gram[k], self.moment[k], self.beta[k]
        arm0, arm1 = (
            ArmFit(
                beta[a] if usable[a] else None, gram[a], count[a],
                rss[a] if usable[a] else None, moment[a], sum_sq[a],
            )
            for a in (0, 1)
        )
        return BatchOlsFit(batch_index, arm0, arm1)


def fit_arms(contexts: np.ndarray, rewards: np.ndarray, masks: np.ndarray) -> StackedFit:
    """Per-arm OLS of one batch, or of one batch per member of a stack:
    contexts (..., n, d), rewards (..., n) and the arms' masks (..., 2, n)
    (bool).
    The sums, the singularity checks and the residuals run once over the
    stack; the Cholesky solves run per member and arm."""
    x, y, w = contexts[..., None, :, :], rewards[..., None, :], masks.astype(float)
    gram, moment, sum_sq = masked_sums(x, y, w)
    usable = is_invertible_gram(gram)
    beta = np.zeros(moment.shape)
    for i in zip(*np.nonzero(usable)):
        beta[i] = solve_spd(gram[i], moment[i])
    rss = masked_rss(x, y, w, beta)
    return StackedFit(gram, moment, np.add.reduce(masks, axis=-1), sum_sq, usable, beta, rss)


def masked_sums(contexts: np.ndarray, rewards: np.ndarray, w: np.ndarray):
    """X'X, X'y and y'y over the rows where the 0/1 weights `w` are 1, as
    zero-masked full-length products: ``xm.T @ x`` and ``xm.T @ y`` with
    ``xm = x * w[:, None]``, and a last-axis ``np.add.reduce`` of the masked
    squares.  Leading axes broadcast: contexts (..., n, d), rewards (..., n)
    and w (..., n) give (..., d, d), (..., d) and (...).  numpy runs the same
    BLAS call per member of a stack, so each member's sums equal, bit for
    bit, those of a call with its arrays alone (`tests/test_stack_invariance.py`).
    """
    xm_t = np.swapaxes(contexts * w[..., None], -1, -2)
    ym = rewards * w
    return xm_t @ contexts, (xm_t @ rewards[..., None])[..., 0], np.add.reduce(ym * ym, axis=-1)


def masked_rss(contexts: np.ndarray, rewards: np.ndarray, w: np.ndarray, beta: np.ndarray):
    """Sum of squared residuals against `beta` over the rows where `w` is 1,
    zero-masked like `masked_sums`; beta (..., d) gives (...)."""
    resid = (rewards - (contexts @ beta[..., None])[..., 0]) * w
    return np.add.reduce(resid * resid, axis=-1)


def _arm_estimate(sums: RunningSums, arm: int) -> np.ndarray:
    s = sums.arm(arm)
    if s.usable == 0:
        raise EstimatorUnavailable(f"no batch with a usable arm-{arm} fit")
    if not is_invertible_gram(s.gram):
        raise EstimatorUnavailable(f"combined arm-{arm} Gram matrix is singular")
    return s.ref.copy() if s.usable == 1 else solve_spd(s.gram, s.weighted)


def residual_noise_factors(
    sums: RunningSums, beta0: np.ndarray, beta1: np.ndarray
) -> tuple[float, float]:
    """Per-arm mean squared residuals over all units, against the supplied estimates."""
    dim = np.asarray(beta0).size
    factors = []
    for a, beta in ((0, beta0), (1, beta1)):
        s = sums.arm(a)
        if s.count < dim + 1:
            raise EstimatorUnavailable(
                f"arm {a} has {s.count} observations; need at least dim + 1 for residuals"
            )
        factors.append(s.squared_residual(np.asarray(beta, float)) / s.count)
    return factors[0], factors[1]


def ivw_combine(sums: RunningSums, sigma_mode: SigmaMode, batch_size: int) -> IvwEstimate:
    """The Gram-weighted estimate of the batches summed so far, with its
    scaled variance ``batch_size * (sum of contributing Grams)^{-1} * factor``:
    sigma^2 with a known noise scale, else the arm's mean squared residual
    against its combined estimate.  Stacked sums give `StackedSums.combine`
    of all members at once."""
    if isinstance(sums, StackedSums):
        return sums.combine(sigma_mode, batch_size)
    if not sums:
        raise EstimatorUnavailable("no batch fits supplied")
    beta0 = _arm_estimate(sums, 0)
    beta1 = _arm_estimate(sums, 1)
    if isinstance(sigma_mode, KnownSigma):
        factors = (sigma_mode.sigma**2, sigma_mode.sigma**2)
    else:
        factors = residual_noise_factors(sums, beta0, beta1)
    return IvwEstimate(
        beta0=beta0,
        beta1=beta1,
        var0=batch_size * inverse_spd(sums.arm0.gram) * factors[0],
        var1=batch_size * inverse_spd(sums.arm1.gram) * factors[1],
        batches_used=len(sums),
        batch_size=batch_size,
        sigma_mode=sigma_mode,
    )


def limit_arm_second_moment(
    spec: ContextSpec,
    model: TrueModel,
    clip_floor: float,
    arm: int,
    mc_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte Carlo estimate of the asymptotic per-unit design second moment
    E[w(x) x x'] under the limiting clipped policy, where w(x) is 1-p on the
    region where the arm is truly better, p where it is worse, and 1/2 on the
    boundary."""
    x = sample_batch_contexts(spec, mc_samples, rng)
    gap = x @ model.arm_difference()
    favors_arm = gap > 0 if arm == 1 else gap < 0
    against = gap < 0 if arm == 1 else gap > 0
    w = np.where(favors_arm, 1.0 - clip_floor, np.where(against, clip_floor, 0.5))
    return (x * w[:, None]).T @ x / mc_samples
