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
batch index.  They hold both arms as one (2, ...) stack, so each step of a
batch (the fit, the fold, the combined Grams' check and solve) is one call
over the arm axis.  The same sums feed the policy: each arm's X'X and raw
X'y over all units give its cumulative OLS estimate, and a trajectory keeps
no other store of them.  Under residual sigma the sums
also keep the squared residual over all units, in the closed form
``sum (y - x'b)^2 = sum y^2 - 2 b'X'y + b'X'X b``; they keep e = y - x'ref
in place of y, centred at the first usable batch estimate ref, so that the
three terms do not cancel down to a small residual and lose its digits.
Sums made for a known noise scale fold no residual terms: only
:func:`residual_noise_factors` reads them.

Per batch, :func:`ivw_combine` forms no variance matrix.  A stopping rule
reads only the spectral norm of each arm's scaled variance, and
``||n f G^{-1}||_2 = n f / lambda_min(G)`` for the combined Gram G: the
singularity check of G already computes lambda_min (`linalg.gram_check`).
With a known noise scale f = sigma^2 needs no estimate, so the combined
estimate is not solved either; under residual sigma f is the mean squared
residual against it, so it is solved every batch.  The estimates and the
matrices ``n * inverse_spd(G) * f`` are formed when read, once per
trajectory at its stop, by :meth:`IvwCombination.estimate` alone: a
lock-step member reads the combination its lone trajectory would hold
(:meth:`StackedSums.combination`).  Fits made for a known noise scale skip
y'y and the RSS, which only residual-sigma sums read.

Stacking: a batch's per-arm sums are zero-masked full-length products
(:func:`masked_sums`, :func:`masked_rss`), which numpy rounds the same for
one batch alone or for a stack of members' batches.  A lone batch is fitted
by :func:`fit_arms` over its arm axis (:func:`fit_batch_ols`); the lock-step
engine of ``simulate.simulate_ensemble`` fits a stack of members with it too
and folds it into :class:`StackedSums` by the fold of :class:`RunningSums`,
whose combined estimate mirrors :func:`ivw_combine` member by member, bit
for bit.
Where a stacked select (``np.where``) would pick the same branch for every
member, as it mostly does once every arm has a usable batch, only that
branch is computed (:func:`select`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import ConfigError, ContractError, EstimatorUnavailable
from .linalg import gram_check, inverse_spd, is_invertible_gram, solve_spd
from .model import ContextSpec, TrueModel, sample_batch_contexts, split_arms


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

_NO_RESIDUAL_TERMS = "a fit made without residual terms cannot be folded into residual-sigma sums"


class ArmFit(NamedTuple):
    """One arm's OLS output in one lone batch (`StackedFit.arm`); `beta` and
    `rss` are None when the Gram is singular.  `moment` (X'y) and `sum_sq`
    (y'y) carry such an arm's units into the running residual sums.  A fit
    made without residual terms has None for both `rss` and `sum_sq`."""

    beta: Optional[np.ndarray]
    gram: np.ndarray
    count: int
    rss: Optional[float]
    moment: np.ndarray
    sum_sq: Optional[float]


def _fold(sums, fit: StackedFit) -> None:
    """Fold a batch's fit into running or stacked sums: `usable` picks, per
    arm, whether its Gram and estimate count.  Where every arm takes the
    same branch, only that one is computed.  X'X that starts as the combined
    Grams' array (`RunningSums.empty`) stays that array while every arm has
    been usable at every batch."""
    u, beta, gram = fit.usable, fit.beta, fit.gram
    first = None
    if np.count_nonzero(sums.usable) < u.size:  # some arm's first usable batch may come now
        first = u & (sums.usable == 0)
        first = first if np.count_nonzero(first) else None
    every = np.count_nonzero(u) == u.size
    ref = sums.ref if first is None else np.where(first[..., None], beta, sums.ref)
    if sums.ee is not None:
        _fold_residual(sums, fit, ref, first, every)
    sums.ref = ref
    shared = sums.xx is sums.gram
    summed = sums.gram + gram
    sums.gram = summed if every else np.where(u[..., None, None], summed, sums.gram)
    summed = sums.weighted + _mv(gram, beta)
    sums.weighted = summed if every else np.where(u[..., None], summed, sums.weighted)
    sums.usable = sums.usable + u
    sums.xx = sums.gram if shared and every else sums.xx + gram
    sums.xy = sums.xy + fit.moment
    sums.count = sums.count + fit.count
    sums.t += 1


def _fold_residual(sums, fit: StackedFit, ref: np.ndarray, first: Optional[np.ndarray], every: bool) -> None:
    """The residual terms of `_fold`, against the new `ref`: OLS
    orthogonality makes a usable batch's residuals against ref its own
    residuals plus X (beta_b - ref), with X' resid = 0."""
    if fit.sum_sq is None:
        raise ContractError(_NO_RESIDUAL_TERMS)
    u, beta, gram = fit.usable, fit.beta, fit.gram
    ee, xe = sums.ee, sums.xe
    if first is not None:  # some arm's first usable batch: recentre its earlier sums
        shift = beta - sums.ref
        ee = np.where(first, ee + (_quad(shift, sums.xx) - 2.0 * _dot(shift, xe)), ee)
        xe = np.where(first[..., None], xe - _mv(sums.xx, shift), xe)
    diff = beta - ref
    gd = _mv(gram, diff)
    xe, ee = xe + gd, ee + (fit.rss + _dot(diff, gd))
    if not every:  # singular arms fold their raw terms against the unchanged ref
        xe = np.where(u[..., None], xe, sums.xe + fit.moment - _mv(gram, sums.ref))
        ee = np.where(
            u, ee, sums.ee + (fit.sum_sq - 2.0 * _dot(sums.ref, fit.moment) + _quad(sums.ref, gram))
        )
    sums.xe, sums.ee = xe, ee


@dataclass
class RunningSums:
    """A trajectory's running sums, both arms stacked on a leading axis of 2:
    `gram` and `xx` (2, d, d); `weighted`, `xy`, `ref` and `xe` (2, d);
    `usable`, `count` and `ee` (2,).  `gram`, `weighted` (Gram @ beta) and
    `usable` count only batches whose own Gram is invertible; `xx`, `xy`
    (X'y) and `count` cover all units.  An arm's `ref` is zero until its
    first usable batch, then that batch's estimate: the combined one while it
    is alone.  `xe` (X'e) and `ee` (e'e), with e = y - x'ref, are the
    residual terms over all units; sums made without them (``residual=False``)
    hold None in both.  `len()` is the number of batches added.

    Until an arm's first singular batch, `gram` and `xx` receive the same
    additions in the same order, so while neither arm has had one they are
    one array: one sum per batch, and the policy reads the singularity
    verdict that :func:`ivw_combine` took of it (:meth:`check_gram`) instead
    of a second eigendecomposition.
    """

    gram: np.ndarray
    weighted: np.ndarray
    usable: np.ndarray
    xx: np.ndarray
    xy: np.ndarray
    count: np.ndarray
    ref: np.ndarray
    xe: Optional[np.ndarray]
    ee: Optional[np.ndarray]
    t: int = 0
    # Not a field: the last combined Gram `check_gram` checked, and its
    # verdict, which the policy reads while X'X is that array.
    checked = (None, None)

    @classmethod
    def empty(cls, dim: int, residual: bool = True) -> "RunningSums":
        """Sums with the residual terms, or without them (`residual` False)
        for a known noise scale, which never reads them."""
        gram = np.zeros((2, dim, dim))
        xe, ee = (np.zeros((2, dim)), np.zeros(2)) if residual else (None, None)
        ints, vec = np.zeros(2, dtype=int), np.zeros((2, dim))
        return cls(gram, vec, ints, gram, vec.copy(), ints.copy(), vec.copy(), xe, ee)

    @property
    def dim(self) -> int:
        return self.xy.shape[-1]

    def __len__(self) -> int:
        return self.t

    add = _fold  # fold one batch's fit in; t advances by 1

    def check_gram(self):
        """`linalg.gram_check` of both combined Grams, kept for the policy
        while X'X is that array."""
        invertible, smallest = gram_check(self.gram)
        self.checked = (self.gram, invertible)
        return invertible, smallest


@dataclass
class StackedSums:
    """The `RunningSums` of many members at once: each field gains a leading
    member axis.  `add` folds one batch per member as `RunningSums.add` does
    (`_fold`); each of its products is a stacked matmul that rounds as it
    does for one member (`tests/test_stack_invariance.py`), so every
    member's sums equal, bit for bit, those of its lone trajectory."""

    gram: np.ndarray
    weighted: np.ndarray
    usable: np.ndarray
    xx: np.ndarray
    xy: np.ndarray
    count: np.ndarray
    ref: np.ndarray
    xe: Optional[np.ndarray]
    ee: Optional[np.ndarray]
    t: int = 0

    @classmethod
    def empty(cls, members: int, dim: int, residual: bool = True) -> "StackedSums":
        lone = RunningSums.empty(dim, residual)
        arrays = (getattr(lone, f.name) for f in fields(RunningSums)[:-1])
        return cls(*(None if z is None else np.zeros((members,) + z.shape, z.dtype) for z in arrays))

    def __len__(self) -> int:
        return self.t

    add = _fold  # one batch per member, as `RunningSums.add` folds one

    def take(self, keep: np.ndarray) -> "StackedSums":
        """The members where `keep` is True."""
        kept = (getattr(self, f.name) for f in fields(self)[:-1])
        return StackedSums(*(None if z is None else z[keep] for z in kept), t=self.t)

    def combine(self, sigma_mode: SigmaMode, batch_size: int) -> "StackedEstimate":
        """`ivw_combine` of every member (which calls this for a StackedSums).
        The singularity checks, which give the norms' lambda_min, run once
        over the stack.  Under residual sigma the noise factors need the
        estimates, solved by one LAPACK call over the stack with the
        identity in place of the Grams of members without the estimate;
        under a known noise scale they are solved only for a member read
        at its stop (`combination`)."""
        invertible, smallest = gram_check(self.gram)
        ok = ((self.usable > 0) & invertible).all(axis=-1)
        if isinstance(sigma_mode, KnownSigma):
            factor = np.full(ok.shape + (2,), sigma_mode.sigma**2)
            sd = np.full(ok.shape + (2,), sigma_mode.sigma)
        else:
            ok &= (self.count > self.xy.shape[-1]).all(axis=-1)
            gram = select(ok[:, None, None, None], self.gram, _identity(self.xy.shape[-1]))
            beta = select(ok[:, None, None] & (self.usable > 1)[..., None], solve_spd(gram, self.weighted), self.ref)
            # `_noise_factors` over the stack; members without the estimate
            # get a finite stand-in.
            delta = beta - self.ref
            sq = self.ee - 2.0 * _dot(delta, self.xe) + _quad(delta, self.xx)
            factor = np.where(0.0 > sq, 0.0, sq) / np.maximum(self.count, 1)
            sd = np.sqrt(factor)
        norms = batch_size * factor / select(ok[:, None], smallest, 1.0)
        return StackedEstimate(ok, norms, sd, factor)

    def combination(self, k: int, combined: "StackedEstimate", batch_size: int) -> "IvwCombination":
        """The `ivw_combine` that member k's lone trajectory holds at this
        batch, from the member's rows of these sums and of their `combine`."""
        norms, sd, factor = (tuple(z[k].tolist()) for z in (combined.norms, combined.sd, combined.factor))
        single = tuple(ref if u == 1 else None for ref, u in zip(self.ref[k], self.usable[k].tolist()))
        return IvwCombination(norms, batch_size, sd, self.gram[k], factor, self.weighted[k], single)


class StackedEstimate(NamedTuple):
    """`StackedSums.combine` of R members: whether each has the estimate (R,),
    the spectral norms of the scaled variances (R, 2), and the noise scales
    and factors (R, 2)."""

    ok: np.ndarray
    norms: np.ndarray
    sd: np.ndarray
    factor: np.ndarray


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
    batch_size: int
    # Per-arm noise sd the variances were scaled with: the known sigma, or the
    # root mean squared residual (a trajectory file's reader derives it too).
    noise_sd: tuple[float, float]

    def beta(self, arm: int) -> np.ndarray:
        return self.beta1 if arm == 1 else self.beta0

    def var(self, arm: int) -> np.ndarray:
        return self.var1 if arm == 1 else self.var0

    def beta_cov(self, arm: int) -> np.ndarray:
        """Covariance matrix of the combined estimate for one arm."""
        return self.var(arm) / self.batch_size


class IvwCombination(NamedTuple):
    """`ivw_combine` of one trajectory's sums: the spectral norms of both
    arms' scaled variances, n f / lambda_min(G), which is all a stopping rule
    reads, and what the rest is formed from when read: per arm the combined
    Gram G, the weighted sum G beta (`weighted`), the estimate of the only
    usable batch where there is just one (`single`, else None) and the noise
    factor f.  The estimates solve G beta = weighted, and the variance matrices are
    n f G^{-1}.  A named tuple, as `StackedEstimate`: one is made every batch,
    and a tuple is built in about a quarter of a frozen dataclass's time."""

    var_norms: tuple[float, float]
    batch_size: int
    noise_sd: tuple[float, float]
    grams: np.ndarray  # (2, d, d)
    factors: tuple[float, float]
    weighted: np.ndarray  # (2, d)
    single: tuple[Optional[np.ndarray], Optional[np.ndarray]]

    @property
    def beta0(self) -> np.ndarray:
        return _combined_estimate(self.grams[0], self.weighted[0], self.single[0])

    @property
    def beta1(self) -> np.ndarray:
        return _combined_estimate(self.grams[1], self.weighted[1], self.single[1])

    @property
    def var0(self) -> np.ndarray:
        return self.batch_size * inverse_spd(self.grams[0]) * self.factors[0]

    @property
    def var1(self) -> np.ndarray:
        return self.batch_size * inverse_spd(self.grams[1]) * self.factors[1]

    def estimate(self) -> IvwEstimate:
        """The terminal estimate, with its estimates and variance matrices formed now."""
        return IvwEstimate(self.beta0, self.beta1, self.var0, self.var1, self.batch_size, self.noise_sd)


def fit_batch_ols(
    contexts: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    *,
    residual: bool = True,
) -> StackedFit:
    """Per-arm OLS on one batch: `fit_arms` of a lone batch, whose arms'
    sums, singularity checks, solves and residuals each run once over the
    arm axis.  `StackedFit.arm` reads back one arm's fit: beta=None where its
    Gram matrix is singular (the Gram and count are still reported).  With
    `residual` False the residual terms, y'y and the residual sums of
    squares, which only residual-sigma running sums read, are not computed.
    """
    contexts = np.asarray(contexts, dtype=float)
    actions = np.asarray(actions)
    rewards = np.asarray(rewards, dtype=float)
    n = contexts.shape[0]
    if contexts.ndim != 2:
        raise ContractError("contexts must be a 2-d matrix")
    if actions.shape != (n,) or rewards.shape != (n,):
        raise ContractError("actions/rewards must align with contexts")
    (arm0, arm1), counts = split_arms(actions)
    w = np.empty((2, n))
    w[0], w[1] = arm0, arm1
    return _fit(contexts[None], rewards[None], w, np.array(counts), residual)


class StackedFit(NamedTuple):
    """Both arms' batch fits for any leading (member) axes: gram (..., 2, d, d),
    moment (..., 2, d), count, sum_sq, usable (..., 2), and beta (..., 2, d)
    and rss (..., 2), zero where the arm's Gram is singular (sum_sq and rss
    are None for a fit made without residual terms)."""

    gram: np.ndarray
    moment: np.ndarray
    count: np.ndarray
    sum_sq: Optional[np.ndarray]
    usable: np.ndarray
    beta: np.ndarray
    rss: Optional[np.ndarray]

    def arm(self, a: int) -> ArmFit:
        """Arm a's fit, of a lone batch's fit."""
        usable = bool(self.usable[a])
        rss = float(self.rss[a]) if usable and self.rss is not None else None
        sum_sq = None if self.sum_sq is None else float(self.sum_sq[a])
        return ArmFit(self.beta[a] if usable else None, self.gram[a], int(self.count[a]), rss, self.moment[a], sum_sq)

    arm0 = property(lambda self: self.arm(0))
    arm1 = property(lambda self: self.arm(1))


def fit_arms(
    contexts: np.ndarray, rewards: np.ndarray, masks: np.ndarray, residual: bool = True
) -> StackedFit:
    """Per-arm OLS of one batch, or of one batch per member of a stack:
    contexts (..., n, d), rewards (..., n) and the arms' masks (..., 2, n)
    (bool, `arm_masks`), with the residual terms (y'y and the residual sums
    of squares) if `residual`.  The sums, the singularity checks, the
    solves and the residuals run once over the stack; singular
    Grams are solved as the identity and their estimates zeroed."""
    x, y = contexts[..., None, :, :], rewards[..., None, :]
    return _fit(x, y, masks.astype(float), np.add.reduce(masks, axis=-1), residual)


def _fit(x: np.ndarray, y: np.ndarray, w: np.ndarray, count: np.ndarray, residual: bool) -> StackedFit:
    """`fit_arms` of contexts x (..., 1, n, d) and rewards y (..., 1, n),
    given the arms' 0/1 weights w (..., 2, n) and unit counts (..., 2)."""
    gram, moment, sum_sq = masked_sums(x, y, w, residual)
    usable = is_invertible_gram(gram)
    solved = solve_spd(select(usable[..., None, None], gram, _identity(gram.shape[-1])), moment)
    beta = select(usable[..., None], solved, 0.0)
    rss = masked_rss(x, y, w, beta) if residual else None
    return StackedFit(gram, moment, count, sum_sq, usable, beta, rss)


def arm_masks(arm1: np.ndarray) -> np.ndarray:
    """The masks (..., 2, n) of arm 0 and arm 1 from arm-1 masks (..., n)."""
    masks = np.empty(arm1.shape[:-1] + (2,) + arm1.shape[-1:], dtype=bool)
    np.logical_not(arm1, out=masks[..., 0, :])
    masks[..., 1, :] = arm1
    return masks


@lru_cache(maxsize=None)
def _identity(dim: int) -> np.ndarray:
    """``np.eye(dim)``, made once and read-only: `select`'s stand-in."""
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


def select(mask: np.ndarray, a: np.ndarray, b) -> np.ndarray:
    """``np.where(mask, a, b)`` for `a` of the result's shape: `a` itself,
    uncopied, where `mask` holds everywhere, as it mostly does in the
    lock-step loops."""
    return a if np.count_nonzero(mask) == mask.size else np.where(mask, a, b)


def masked_sums(contexts: np.ndarray, rewards: np.ndarray, w: np.ndarray, squares: bool = True):
    """X'X, X'y and y'y over the rows where the 0/1 weights `w` are 1, as
    zero-masked full-length products: ``xm.T @ x`` and ``xm.T @ y`` with
    ``xm = x * w[:, None]``, and a last-axis ``np.add.reduce`` of the masked
    squares (None, not computed, with `squares` False).  Leading axes
    broadcast: contexts (..., n, d), rewards (..., n) and w (..., n) give
    (..., d, d), (..., d) and (...).  numpy runs the same BLAS call per
    member of a stack, so each member's sums equal, bit for bit, those of a
    call with its arrays alone (`tests/test_stack_invariance.py`).
    """
    xm_t = (contexts * w[..., None]).mT
    moment = (xm_t @ rewards[..., None])[..., 0]
    if not squares:
        return xm_t @ contexts, moment, None
    ym = rewards * w
    return xm_t @ contexts, moment, np.add.reduce(ym * ym, axis=-1)


def masked_rss(contexts: np.ndarray, rewards: np.ndarray, w: np.ndarray, beta: np.ndarray):
    """Sum of squared residuals against `beta` over the rows where `w` is 1,
    zero-masked like `masked_sums`; beta (..., d) gives (...)."""
    resid = (rewards - (contexts @ beta[..., None])[..., 0]) * w
    return np.add.reduce(resid * resid, axis=-1)


def _combined_estimate(gram: np.ndarray, weighted: np.ndarray, single: Optional[np.ndarray]) -> np.ndarray:
    """The Gram-weighted estimate: the only usable batch's own estimate, or
    the solution of gram @ beta = weighted."""
    return single.copy() if single is not None else solve_spd(gram, weighted)


def _noise_factors(sums: RunningSums, beta: np.ndarray, dim: int) -> tuple[float, float]:
    """Each arm's mean squared residual over all its units against its row
    of `beta` (2, d), once each arm has more units than the dimension: from
    the residual sums, sum (y - x'beta)^2 = e'e - 2 delta'X'e + delta'X'X delta
    with delta = beta - ref, floored at zero, which rounding can undershoot.
    The last steps run on Python floats, the same IEEE operations as numpy's."""
    counts = sums.count.tolist()
    for a, count in enumerate(counts):
        if count < dim + 1:
            raise EstimatorUnavailable(f"arm {a} has {count} observations; need at least dim + 1 for residuals")
    delta = beta - sums.ref
    terms = zip(sums.ee.tolist(), _dot(delta, sums.xe).tolist(), _quad(delta, sums.xx).tolist(), counts)
    f0, f1 = (max(ee - 2.0 * dot + quad, 0.0) / count for ee, dot, quad, count in terms)
    return f0, f1


def residual_noise_factors(
    sums: RunningSums, beta0: np.ndarray, beta1: np.ndarray
) -> tuple[float, float]:
    """Per-arm mean squared residuals over all units, against the supplied estimates."""
    if sums.ee is None:
        raise ContractError("these running sums keep no residual terms (made for a known noise scale)")
    beta = np.stack([np.asarray(beta0, float), np.asarray(beta1, float)])
    return _noise_factors(sums, beta, beta.shape[-1])


def ivw_combine(sums: RunningSums, sigma_mode: SigmaMode, batch_size: int) -> IvwCombination:
    """The Gram-weighted estimate of the batches summed so far.  Its scaled
    variance is ``batch_size * (sum of contributing Grams)^{-1} * factor``:
    sigma^2 with a known noise scale, else the arm's mean squared residual
    against its combined estimate.  Only the residual factors need the
    estimates now; otherwise they are solved when read.  Both arms' Grams
    are checked by one eigendecomposition call, and their estimates solved
    by one LAPACK call.  Stacked sums give `StackedSums.combine` of all
    members at once."""
    if isinstance(sums, StackedSums):
        return sums.combine(sigma_mode, batch_size)
    if not sums:
        raise EstimatorUnavailable("no batch fits supplied")
    usable = sums.usable.tolist()
    if usable[0] == 0:
        raise EstimatorUnavailable("no batch with a usable arm-0 fit")
    invertible, smallest = sums.check_gram()
    for arm, (u, ok) in enumerate(zip(usable, invertible.tolist())):
        if u == 0:
            raise EstimatorUnavailable(f"no batch with a usable arm-{arm} fit")
        if not ok:
            raise EstimatorUnavailable(f"combined arm-{arm} Gram matrix is singular")
    single = (sums.ref[0] if usable[0] == 1 else None, sums.ref[1] if usable[1] == 1 else None)
    if isinstance(sigma_mode, KnownSigma):
        factors = (sigma_mode.sigma**2, sigma_mode.sigma**2)
        noise_sd = (sigma_mode.sigma, sigma_mode.sigma)
    else:
        beta = sums.ref
        if usable[0] > 1 or usable[1] > 1:
            beta = solve_spd(sums.gram, sums.weighted)
            if 1 in usable:  # an arm's only usable batch is its estimate
                beta = np.where((sums.usable == 1)[:, None], sums.ref, beta)
        factors = _noise_factors(sums, beta, sums.dim)
        noise_sd = (math.sqrt(factors[0]), math.sqrt(factors[1]))
    low0, low1 = smallest.tolist()
    return IvwCombination(
        var_norms=(batch_size * factors[0] / low0, batch_size * factors[1] / low1),
        batch_size=batch_size,
        noise_sd=noise_sd,
        grams=sums.gram,
        factors=factors,
        weighted=sums.weighted,
        single=single,
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
