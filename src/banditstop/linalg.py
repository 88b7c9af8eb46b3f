"""Small dense symmetric-matrix helpers shared by policies and estimators.

The batch loop factors and decomposes a handful of d×d matrices per batch,
so the library wrappers around LAPACK (argument checks, array conversion,
routine lookup, batching over leading dimensions) cost several times the
arithmetic. The kernels here call the LAPACK routines directly:

- `solve_spd` and `inverse_spd` call ``dpotrf(m, lower=1, clean=0)`` and
  ``dpotrs(c, b, lower=1)``, the routines and arguments that
  ``scipy.linalg.cho_factor(m, lower=True, check_finite=False)`` and
  ``scipy.linalg.cho_solve`` end in;
- `eigvalsh` calls ``dsyevd(m, compute_v=0, lower=1)``, the routine that
  ``numpy.linalg.eigvalsh`` ends in (jobz ``'N'``, lower triangle).

`is_invertible_gram` also takes a stack of Grams, for the lock-step engines;
a stack goes through one ``numpy.linalg.eigvalsh`` call, which runs that same
``dsyevd`` per matrix.

Each wrapper copies its input to a Fortran-ordered buffer and passes it to
the same routine with the same arguments, which does the same floating-point
operations, so the results equal scipy's and numpy's bit for bit. numpy
links its own OpenBLAS build, not scipy's, so `tests/test_linalg.py` checks
the equality against both libraries as installed. Failures raise what scipy
raises: `np.linalg.LinAlgError` with the leading-minor message when the
matrix is not positive definite, and `ValueError` for an illegal argument.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dsyevd

from .errors import ContractError

# A Gram matrix counts as singular when its smallest eigenvalue is at most
# RTOL times its largest eigenvalue (floored at 1), so all-zero and
# rank-deficient designs are both caught.
GRAM_SINGULARITY_RTOL = 1e-10


def eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix in ascending order, from its lower triangle."""
    w, _, info = dsyevd(matrix, compute_v=0, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevd failed with info={info}")
    return w


def _invertible(smallest, largest):
    """The singularity rule, smallest > RTOL * max(largest, 1), for numpy
    scalars or arrays alike.  Rounding is monotone, so RTOL * max(l, 1) equals
    max(RTOL * l, RTOL) exactly and the rule splits into two comparisons."""
    return (smallest > GRAM_SINGULARITY_RTOL * largest) & (smallest > GRAM_SINGULARITY_RTOL)


def is_invertible_gram(gram: np.ndarray):
    """The singularity rule for one (d, d) Gram matrix (a bool) or for each
    matrix of a stack (..., d, d) (a bool array).  A stack takes one
    ``numpy.linalg.eigvalsh`` call, which runs the same ``dsyevd`` per
    matrix as `eigvalsh` (`tests/test_linalg.py` checks the equality)."""
    if gram.ndim == 2:
        eigs = eigvalsh(gram)
        return bool(_invertible(eigs[0], eigs[-1]))
    eigs = np.linalg.eigvalsh(gram)
    return _invertible(eigs[..., 0], eigs[..., -1])


def solve_spd(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` for symmetric positive definite input via Cholesky."""
    c, info = dpotrf(matrix, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(
            f"LAPACK reported an illegal value in {-info}-th argument "
            f'on entry to "POTRF".'
        )
    x, info = dpotrs(c, rhs, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def inverse_spd(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, via factorization."""
    inv = solve_spd(matrix, np.eye(matrix.shape[0]))
    return 0.5 * (inv + inv.T)


def require_symmetric(matrix: np.ndarray, what: str = "matrix") -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractError(f"{what} must be square, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()) if m.size else 1.0)
    if float(np.abs(m - m.T).max()) > 1e-9 * scale:
        raise ContractError(f"{what} is not symmetric within 1e-9")
    return m


def draw_gaussian(
    rng: np.random.Generator, mean: np.ndarray, cov: np.ndarray, size: int
) -> np.ndarray:
    """Multivariate normal draws with a Cholesky factor (eigendecomposition fallback)."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # PSD but numerically semi-definite: clamp tiny negative eigenvalues.
        vals, vecs = np.linalg.eigh(cov)
        factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    z = rng.standard_normal((size, mean.shape[0]))
    return mean + z @ factor.T
