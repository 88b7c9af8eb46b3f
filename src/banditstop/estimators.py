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

Per batch, :func:`ivw_combine` gives only what a stopping rule reads: the
spectral norm of each arm's scaled variance,
``||n f G^{-1}||_2 = n f / lambda_min(G)`` for the combined Gram G, whose
lambda_min the singularity check of G already computes (`linalg.gram_check`).
With a known noise scale f = sigma^2 needs no estimate, so the combined
estimate is not solved either; under residual sigma f is the mean squared
residual against it, so it is solved every batch.  The estimates and the
matrices ``n * inverse_spd(G) * f`` are formed once per trajectory, at its
stop, by :func:`ivw_estimate`: a lock-step member's from its own sums
(:meth:`RunningSums.member`), by the lone formula.  Fits made for a known
noise scale skip y'y and the RSS, which only residual-sigma sums read.

Stacking: a batch's per-arm sums are zero-masked full-length products
(:func:`masked_sums`, :func:`masked_rss`), which numpy rounds the same for
one batch alone or for a stack of members' batches.  A lone batch is fitted
by :func:`fit_arms` over its arm axis (:func:`fit_batch_ols`); the lock-step
engine of ``simulate.simulate_ensemble`` fits a stack of members with it too
and folds it into stacked :class:`RunningSums`, whose norms
:func:`ivw_combine` gives for every member at once, equal member by member,
bit for bit, to a lone trajectory's.
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


def _fold_residual(sums, fit: StackedFit, ref: np.ndarray, first: Optional[np.ndarray], every: bool) -> None:
    """The residual terms of `RunningSums.add`, against the new `ref`: OLS
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

    Stacked sums (``empty(..., members=R)``) give each field a leading axis
    of R members.  `add` folds one batch per member as it folds one, each
    product a stacked matmul that rounds as for one member, so each member's
    sums (`member`) equal its lone trajectory's bit for bit.

    Until an arm's first singular batch, `gram` and `xx` receive the same
    additions in the same order, so while no arm has had one they are one
    array: one sum per batch, and the lone policy reads the singularity
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
    def empty(cls, dim: int, residual: bool = True, members: Optional[int] = None) -> "RunningSums":
        """Sums with the residual terms, or without them (`residual` False)
        for a known noise scale, which never reads them; of one trajectory,
        or of `members` stacked on a leading axis."""
        lead = (2,) if members is None else (members, 2)
        gram = np.zeros(lead + (dim, dim))
        xe, ee = (np.zeros(lead + (dim,)), np.zeros(lead)) if residual else (None, None)
        ints, vec = np.zeros(lead, dtype=int), np.zeros(lead + (dim,))
        return cls(gram, vec, ints, gram, vec.copy(), ints.copy(), vec.copy(), xe, ee)

    @property
    def dim(self) -> int:
        return self.xy.shape[-1]

    def __len__(self) -> int:
        return self.t

    def add(self, fit: StackedFit) -> None:
        """Fold in a batch's fit, or one per member of stacked sums; t
        advances by 1.  `usable` picks, per arm, whether its Gram and
        estimate count.  Where every arm takes the same branch, only that
        one is computed."""
        u, beta, gram = fit.usable, fit.beta, fit.gram
        first = None
        if np.count_nonzero(self.usable) < u.size:  # some arm's first usable batch may come now
            first = u & (self.usable == 0)
            first = first if np.count_nonzero(first) else None
        every = np.count_nonzero(u) == u.size
        ref = self.ref if first is None else np.where(first[..., None], beta, self.ref)
        if self.ee is not None:
            _fold_residual(self, fit, ref, first, every)
        self.ref = ref
        shared = self.xx is self.gram
        summed = self.gram + gram
        self.gram = summed if every else np.where(u[..., None, None], summed, self.gram)
        summed = self.weighted + _mv(gram, beta)
        self.weighted = summed if every else np.where(u[..., None], summed, self.weighted)
        self.usable = self.usable + u
        self.xx = self.gram if shared and every else self.xx + gram
        self.xy = self.xy + fit.moment
        self.count = self.count + fit.count
        self.t += 1

    def check_gram(self):
        """`linalg.gram_check` of both combined Grams, kept for the policy
        while X'X is that array."""
        invertible, smallest = gram_check(self.gram)
        self.checked = (self.gram, invertible)
        return invertible, smallest

    def take(self, keep) -> "RunningSums":
        """Of stacked sums, the members where the mask `keep` holds, or with an
        index that member's sums; X'X stays the combined Grams' array where it is."""
        kept = (getattr(self, f.name) for f in fields(self)[:-1])
        taken = RunningSums(*(None if z is None else z[keep] for z in kept), t=self.t)
        if self.xx is self.gram:
            taken.xx = taken.gram
        return taken

    def member(self, k: int) -> "RunningSums":
        """Member k's sums, of stacked sums: those of its lone trajectory."""
        return self.take(k)


class StackedEstimate(NamedTuple):
    """`ivw_combine` of R members' stacked sums: whether each has the
    estimate (R,), and the spectral norms of the scaled variances (R, 2)."""

    ok: np.ndarray
    norms: np.ndarray


def _combine_stack(sums: RunningSums, sigma_mode: SigmaMode, batch_size: int) -> StackedEstimate:
    """`ivw_combine` of every member of stacked sums.  The singularity
    checks, which give the norms' lambda_min, run once over the stack.
    Under residual sigma the noise factors need the estimates, solved by one
    LAPACK call over the stack with the identity in place of the Grams of
    members without the estimate; under a known noise scale they are not
    solved."""
    invertible, smallest = gram_check(sums.gram)
    ok = ((sums.usable > 0) & invertible).all(axis=-1)
    if isinstance(sigma_mode, KnownSigma):
        factor = np.full(ok.shape + (2,), sigma_mode.sigma**2)
    else:
        ok &= (sums.count > sums.dim).all(axis=-1)
        gram = select(ok[:, None, None, None], sums.gram, _identity(sums.dim))
        beta = select(ok[:, None, None] & (sums.usable > 1)[..., None], solve_spd(gram, sums.weighted), sums.ref)
        # `_noise_factors` over the stack; members without the estimate
        # get a finite stand-in.
        delta = beta - sums.ref
        sq = sums.ee - 2.0 * _dot(delta, sums.xe) + _quad(delta, sums.xx)
        factor = np.where(0.0 > sq, 0.0, sq) / np.maximum(sums.count, 1)
    return StackedEstimate(ok, batch_size * factor / select(ok[:, None], smallest, 1.0))


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


def _combined(sums: RunningSums, sigma_mode: SigmaMode, solve: bool):
    """What `ivw_combine` and `ivw_estimate` share: the availability checks,
    each arm's smallest combined-Gram eigenvalue and noise factor f (sigma^2
    with a known noise scale, else the arm's mean squared residual against
    its combined estimate), and both arms' combined estimates (2, d) where
    the factors read them or `solve` asks for them, else None.  An arm's
    estimate is its only usable batch's, or solves G beta = weighted; both
    arms' Grams are checked by one eigendecomposition call and solved by
    one LAPACK call."""
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
    known = isinstance(sigma_mode, KnownSigma)
    beta = None
    if solve or not known:
        beta = sums.ref
        if usable[0] > 1 or usable[1] > 1:
            beta = solve_spd(sums.gram, sums.weighted)
            if 1 in usable:  # an arm's only usable batch is its estimate
                beta = np.where((sums.usable == 1)[:, None], sums.ref, beta)
    factors = (sigma_mode.sigma**2,) * 2 if known else _noise_factors(sums, beta, sums.dim)
    return smallest.tolist(), factors, beta


def ivw_combine(sums: RunningSums, sigma_mode: SigmaMode, batch_size: int) -> tuple[float, float] | StackedEstimate:
    """The spectral norms of both arms' scaled variances of the Gram-weighted
    estimate of the batches summed so far, n f / lambda_min(G): all a
    stopping rule reads.  Raises EstimatorUnavailable where either arm has
    no estimate.  Stacked sums, told by their shape, give the
    `StackedEstimate` of all members at once (`_combine_stack`)."""
    if sums.gram.ndim > 3:
        return _combine_stack(sums, sigma_mode, batch_size)
    (low0, low1), factors, _ = _combined(sums, sigma_mode, solve=False)
    return (batch_size * factors[0] / low0, batch_size * factors[1] / low1)


def ivw_estimate(sums: RunningSums, sigma_mode: SigmaMode, batch_size: int) -> IvwEstimate:
    """The terminal estimate of a trajectory's sums, formed once, at its stop:
    the combined estimates and the variance matrices
    ``batch_size * (sum of contributing Grams)^{-1} * factor``, both arms'
    inverted by one LAPACK call.  Raises EstimatorUnavailable as
    `ivw_combine` does."""
    _, (f0, f1), beta = _combined(sums, sigma_mode, solve=True)
    inverse = inverse_spd(sums.gram)
    noise_sd = (sigma_mode.sigma,) * 2 if isinstance(sigma_mode, KnownSigma) else (math.sqrt(f0), math.sqrt(f1))
    beta0, beta1 = beta.copy()
    return IvwEstimate(beta0, beta1, batch_size * inverse[0] * f0, batch_size * inverse[1] * f1, batch_size, noise_sd)


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
