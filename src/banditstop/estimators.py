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
and a trajectory keeps no other store of them.  Under residual sigma the sums
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
one batch alone or for a stack of members' batches.  The lock-step engine of
``simulate.simulate_ensemble`` fits a stack with :func:`fit_arms` and folds
it into :class:`StackedSums`, whose fold and combined estimate mirror
:meth:`ArmSums.add` and :func:`ivw_combine` member by member, bit for bit.
Where a stacked select (``np.where``) would pick the same branch for every
member, as it mostly does once every arm has a usable batch, only that
branch is computed (:func:`select`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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


@dataclass
class ArmFit:
    """One arm's OLS output in one batch; `beta` and `rss` are None when the
    Gram is singular.  `moment` (X'y) and `sum_sq` (y'y) carry such an arm's
    units into the running residual sums.  A fit made without residual terms
    has None for both `rss` and `sum_sq`."""

    beta: Optional[np.ndarray]
    gram: np.ndarray
    count: int
    rss: Optional[float]
    moment: np.ndarray
    sum_sq: Optional[float]


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
    count only batches whose own Gram is invertible; `xx`, `xy` (X'y) and
    `count` cover all units.  `ref` is zero until the first usable batch, then
    its estimate: the combined one while it is alone.  `xe` (X'e) and `ee`
    (e'e), with e = y - x'ref, are the residual terms over all units; sums
    made without them (``residual=False``) hold None in both.

    Until the arm's first singular batch, `gram` and `xx` receive the same
    additions in the same order, so they are one array: one sum per batch,
    and :meth:`ols_estimate` reads the singularity verdict that
    :func:`ivw_combine` took of it (:meth:`check_gram`) instead of a second
    eigendecomposition.
    """

    gram: np.ndarray
    weighted: np.ndarray
    usable: int
    xx: np.ndarray
    xy: np.ndarray
    count: int
    ref: np.ndarray
    xe: Optional[np.ndarray]
    ee: Optional[float]
    # Not a field: the last combined Gram `check_gram` checked, and its verdict.
    _checked = (None, False)

    @classmethod
    def empty(cls, dim: int, residual: bool = True) -> "ArmSums":
        gram = np.zeros((dim, dim))
        return cls(
            gram=gram,
            weighted=np.zeros(dim),
            usable=0,
            xx=gram,
            xy=np.zeros(dim),
            count=0,
            ref=np.zeros(dim),
            xe=np.zeros(dim) if residual else None,
            ee=0.0 if residual else None,
        )

    def add(self, fit: ArmFit) -> None:
        if self.ee is not None:
            self._add_residual(fit)
        shared = self.xx is self.gram
        if fit.beta is not None:
            if self.usable == 0:
                self.ref = fit.beta
            self.gram = self.gram + fit.gram
            self.weighted = self.weighted + fit.gram @ fit.beta
            self.usable += 1
        self.xx = self.gram if shared and fit.beta is not None else self.xx + fit.gram
        self.xy = self.xy + fit.moment
        self.count += fit.count

    def _add_residual(self, fit: ArmFit) -> None:
        if fit.sum_sq is None:
            raise ContractError(_NO_RESIDUAL_TERMS)
        ref = self.ref
        if fit.beta is None:
            self.xe = self.xe + fit.moment - fit.gram @ ref
            self.ee += fit.sum_sq - 2.0 * (ref @ fit.moment) + ref @ fit.gram @ ref
            return
        if self.usable == 0:
            # Recentre the sums of earlier singular batches at this estimate.
            shift = fit.beta - ref
            self.ee += shift @ self.xx @ shift - 2.0 * (shift @ self.xe)
            self.xe = self.xe - self.xx @ shift
            ref = fit.beta
        # OLS orthogonality: the batch's residuals against ref are its own
        # residuals plus X (beta_b - ref), with X' resid = 0.
        gd = fit.gram @ (fit.beta - ref)
        self.xe = self.xe + gd
        self.ee += fit.rss + (fit.beta - ref) @ gd

    def check_gram(self):
        """`linalg.gram_check` of the combined Gram, kept for `ols_estimate`
        while X'X is that array."""
        invertible, smallest = gram_check(self.gram)
        self._checked = (self.gram, invertible)
        return invertible, smallest

    def ols_estimate(self) -> Optional[np.ndarray]:
        """Cumulative OLS estimate over all units, or None while X'X is singular."""
        checked, invertible = self._checked
        if checked is not self.xx:
            invertible = is_invertible_gram(self.xx)
        if not invertible:
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
    def empty(cls, dim: int, residual: bool = True) -> "RunningSums":
        """Sums with the residual terms, or without them (`residual` False)
        for a known noise scale, which never reads them."""
        return cls(arm0=ArmSums.empty(dim, residual), arm1=ArmSums.empty(dim, residual))

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
    xe: Optional[np.ndarray]
    ee: Optional[np.ndarray]
    t: int = 0

    @classmethod
    def empty(cls, members: int, dim: int, residual: bool = True) -> "StackedSums":
        def stack(z):
            return None if z is None else np.zeros((members, 2) + np.shape(z), np.result_type(z))

        lone = ArmSums.empty(dim, residual)
        return cls(*(stack(getattr(lone, f.name)) for f in fields(ArmSums)))

    def __len__(self) -> int:
        return self.t

    def add(self, fit: StackedFit) -> None:
        # Both branches of `ArmSums.add` for every arm; `usable` picks one.
        # Where every arm takes the same branch, only that one is computed.
        u, beta, gram = fit.usable, fit.beta, fit.gram
        first = u & (self.usable == 0)
        first = first if np.count_nonzero(first) else None
        every = np.count_nonzero(u) == u.size
        ref = self.ref if first is None else np.where(first[..., None], beta, self.ref)
        if self.ee is not None:
            self._add_residual(fit, ref, first, every)
        self.ref = ref
        summed = self.gram + gram
        self.gram = summed if every else np.where(u[..., None, None], summed, self.gram)
        summed = self.weighted + _mv(gram, beta)
        self.weighted = summed if every else np.where(u[..., None], summed, self.weighted)
        self.usable = self.usable + u
        self.xx = self.xx + gram
        self.xy = self.xy + fit.moment
        self.count = self.count + fit.count
        self.t += 1

    def _add_residual(self, fit: StackedFit, ref: np.ndarray, first: Optional[np.ndarray], every: bool) -> None:
        if fit.sum_sq is None:
            raise ContractError(_NO_RESIDUAL_TERMS)
        u, beta, gram = fit.usable, fit.beta, fit.gram
        ee, xe = self.ee, self.xe
        if first is not None:  # some arm's first usable batch: recentre its earlier sums
            shift = beta - self.ref
            ee = np.where(first, ee + (_quad(shift, self.xx) - 2.0 * _dot(shift, xe)), ee)
            xe = np.where(first[..., None], xe - _mv(self.xx, shift), xe)
        diff = beta - ref
        gd = _mv(gram, diff)
        xe, ee = xe + gd, ee + (fit.rss + _dot(diff, gd))
        if not every:  # singular arms fold their raw terms against the unchanged ref
            xe = np.where(u[..., None], xe, self.xe + fit.moment - _mv(gram, self.ref))
            ee = np.where(
                u, ee, self.ee + (fit.sum_sq - 2.0 * _dot(self.ref, fit.moment) + _quad(self.ref, gram))
            )
        self.xe, self.ee = xe, ee

    def take(self, keep: np.ndarray) -> "StackedSums":
        """The members where `keep` is True."""
        kept = (getattr(self, f.name) for f in fields(ArmSums))
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
            gram = select(ok[:, None, None, None], self.gram, np.eye(self.xy.shape[-1]))
            beta = select(ok[:, None, None] & (self.usable > 1)[..., None], solve_spd(gram, self.weighted), self.ref)
            # `ArmSums.squared_residual` over the count, max(., 0) as Python's;
            # members without the estimate get a finite stand-in.
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
        return IvwCombination(norms, batch_size, sd, tuple(self.gram[k]), factor, tuple(self.weighted[k]), single)


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
    # root mean squared residual.  None only when read from a trajectory file
    # that stored none.
    noise_sd: Optional[tuple[float, float]]

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
    grams: tuple[np.ndarray, np.ndarray]
    factors: tuple[float, float]
    weighted: tuple[np.ndarray, np.ndarray]
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
    batch_index: int = 0,
    *,
    residual: bool = True,
) -> BatchOlsFit:
    """Per-arm OLS on one batch.

    Solves the normal equations by LU (`linalg.solve_spd`); an arm whose Gram
    matrix is singular gets beta=None (the Gram and count are still reported).
    Each arm's sums are zero-masked full-length products (`masked_sums`), so
    they round the same whether the batch is fitted alone or stacked with
    others.  With `residual` False the residual terms, y'y and the residual
    sums of squares, which only residual-sigma running sums read, are not
    computed: both are None.
    """
    contexts = np.asarray(contexts, dtype=float)
    actions = np.asarray(actions)
    rewards = np.asarray(rewards, dtype=float)
    n = contexts.shape[0]
    if contexts.ndim != 2:
        raise ContractError("contexts must be a 2-d matrix")
    if actions.shape != (n,) or rewards.shape != (n,):
        raise ContractError("actions/rewards must align with contexts")
    masks, counts = split_arms(actions)

    arms = []
    for mask, count in zip(masks, counts):
        w = mask.astype(float)
        gram, moment, sum_sq = masked_sums(contexts, rewards, w, residual)
        beta, rss = None, None
        if is_invertible_gram(gram):
            beta = solve_spd(gram, moment)
            if residual:
                rss = float(masked_rss(contexts, rewards, w, beta))
        sum_sq = None if sum_sq is None else float(sum_sq)
        arms.append(ArmFit(beta, gram, count, rss, moment, sum_sq))
    return BatchOlsFit(batch_index=batch_index, arm0=arms[0], arm1=arms[1])


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


def fit_arms(
    contexts: np.ndarray, rewards: np.ndarray, masks: np.ndarray, residual: bool = True
) -> StackedFit:
    """Per-arm OLS of one batch, or of one batch per member of a stack:
    contexts (..., n, d), rewards (..., n) and the arms' masks (..., 2, n)
    (bool, `arm_masks`), with the residual terms (y'y and the residual sums
    of squares) if `residual`.  The sums, the singularity checks, the
    solves and the residuals run once over the stack; singular
    Grams are solved as the identity and their estimates zeroed."""
    x, y, w = contexts[..., None, :, :], rewards[..., None, :], masks.astype(float)
    gram, moment, sum_sq = masked_sums(x, y, w, residual)
    usable = is_invertible_gram(gram)
    solved = solve_spd(select(usable[..., None, None], gram, np.eye(gram.shape[-1])), moment)
    beta = select(usable[..., None], solved, 0.0)
    rss = masked_rss(x, y, w, beta) if residual else None
    return StackedFit(gram, moment, np.add.reduce(masks, axis=-1), sum_sq, usable, beta, rss)


def arm_masks(arm1: np.ndarray) -> np.ndarray:
    """The masks (..., 2, n) of arm 0 and arm 1 from arm-1 masks (..., n)."""
    masks = np.empty(arm1.shape[:-1] + (2,) + arm1.shape[-1:], dtype=bool)
    np.logical_not(arm1, out=masks[..., 0, :])
    masks[..., 1, :] = arm1
    return masks


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


def _smallest_eigenvalue(sums: RunningSums, arm: int) -> float:
    """The smallest eigenvalue of the arm's combined Gram, once it has the estimate."""
    s = sums.arm(arm)
    if s.usable == 0:
        raise EstimatorUnavailable(f"no batch with a usable arm-{arm} fit")
    invertible, smallest = s.check_gram()
    if not invertible:
        raise EstimatorUnavailable(f"combined arm-{arm} Gram matrix is singular")
    return smallest


def _combined_estimate(gram: np.ndarray, weighted: np.ndarray, single: Optional[np.ndarray]) -> np.ndarray:
    """The Gram-weighted estimate: the only usable batch's own estimate, or
    the solution of gram @ beta = weighted."""
    return single.copy() if single is not None else solve_spd(gram, weighted)


def residual_noise_factors(
    sums: RunningSums, beta0: np.ndarray, beta1: np.ndarray
) -> tuple[float, float]:
    """Per-arm mean squared residuals over all units, against the supplied estimates."""
    if sums.arm0.ee is None:
        raise ContractError("these running sums keep no residual terms (made for a known noise scale)")
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


def ivw_combine(sums: RunningSums, sigma_mode: SigmaMode, batch_size: int) -> IvwCombination:
    """The Gram-weighted estimate of the batches summed so far.  Its scaled
    variance is ``batch_size * (sum of contributing Grams)^{-1} * factor``:
    sigma^2 with a known noise scale, else the arm's mean squared residual
    against its combined estimate.  Only the residual factors need the
    estimates now; otherwise they are solved when read.  Stacked sums give
    `StackedSums.combine` of all members at once."""
    if isinstance(sums, StackedSums):
        return sums.combine(sigma_mode, batch_size)
    if not sums:
        raise EstimatorUnavailable("no batch fits supplied")
    low0, low1 = _smallest_eigenvalue(sums, 0), _smallest_eigenvalue(sums, 1)
    grams = (sums.arm0.gram, sums.arm1.gram)
    weighted = (sums.arm0.weighted, sums.arm1.weighted)
    single = tuple(s.ref if s.usable == 1 else None for s in (sums.arm0, sums.arm1))
    if isinstance(sigma_mode, KnownSigma):
        factors = (sigma_mode.sigma**2, sigma_mode.sigma**2)
        noise_sd = (sigma_mode.sigma, sigma_mode.sigma)
    else:
        factors = residual_noise_factors(sums, *map(_combined_estimate, grams, weighted, single))
        noise_sd = (math.sqrt(factors[0]), math.sqrt(factors[1]))
    return IvwCombination(
        var_norms=(float(batch_size * factors[0] / low0), float(batch_size * factors[1] / low1)),
        batch_size=batch_size,
        noise_sd=noise_sd,
        grams=grams,
        factors=factors,
        weighted=weighted,
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
