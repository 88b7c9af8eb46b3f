"""Small dense symmetric-matrix helpers shared by policies and estimators.

Each helper is one call of a numpy LAPACK gufunc, for one (d, d) matrix or
each of a stack (..., d, d) alike: `eigvalsh` of the lower-triangle
``dsyevd`` one that ``numpy.linalg.eigvalsh`` ends in, `solve_spd` and
`inverse_spd` of the ``dgesv`` ones behind ``numpy.linalg.solve`` and
``inv``, without those wrappers' cost.  A gufunc runs LAPACK on each matrix
of a stack in turn, so a matrix gets the same bits stacked as alone, in any
layout (`tests/test_stack_invariance.py`, `tests/test_linalg.py`).  A matrix
LAPACK cannot solve, or one with a NaN entry, leaves NaN in its result, and
the solves raise LinAlgError for it, alone or anywhere in a stack.  Callers
solve only Grams that pass `is_invertible_gram`; an indefinite but
nonsingular matrix is solved too.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg._umath_linalg import eigvalsh_lo, inv, solve1

from .errors import ContractError

# A Gram matrix counts as singular when its smallest eigenvalue is at most
# RTOL times its largest eigenvalue (floored at 1), so all-zero and
# rank-deficient designs are both caught.
GRAM_SINGULARITY_RTOL = 1e-10


def eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues in ascending order, from the lower triangle, of a symmetric
    (d, d) matrix or of each of a stack (..., d, d): the bits of
    ``numpy.linalg.eigvalsh``, except that where LAPACK fails to converge
    that raises and this returns NaNs."""
    return eigvalsh_lo(matrix, signature="d->d")


def is_invertible_gram(gram: np.ndarray):
    """The singularity rule, smallest > RTOL * max(largest, 1), for one (d, d)
    Gram matrix (a numpy bool) or for each of a stack (..., d, d) (a bool
    array); a NaN eigenvalue fails it."""
    return gram_check(gram)[0]


def gram_check(gram: np.ndarray):
    """`is_invertible_gram` together with the smallest eigenvalue it read, for
    one Gram (numpy scalars) or a stack (arrays): the spectral norm of
    c * gram^{-1} is c / smallest, so a caller that needs both makes one
    eigendecomposition."""
    eigs = eigvalsh(gram)  # [()] makes a lone matrix's values numpy scalars, faster than 0-d arrays
    smallest, largest = eigs[..., 0][()], eigs[..., -1][()]
    return smallest > GRAM_SINGULARITY_RTOL * np.maximum(largest, 1.0), smallest


def _checked(out: np.ndarray) -> np.ndarray:
    # A NaN entry makes the sum NaN.  For the few entries of a lone solve,
    # summing Python floats costs about half of any numpy check.
    total = sum(out.ravel().tolist())
    if total != total:
        raise np.linalg.LinAlgError("Singular matrix")
    return out


def solve_spd(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` for one (d, d) matrix with rhs (d,), or for
    each of a stack (..., d, d) with rhs broadcasting against (..., d)."""
    return _checked(solve1(matrix, rhs, signature="dd->d"))


def inverse_spd(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric matrix, or of each of a stack: X = inv(matrix),
    symmetrized as (X + X') / 2."""
    x = _checked(inv(matrix, signature="d->d"))
    return 0.5 * (x + x.mT)


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
