"""Small dense symmetric-matrix helpers shared by policies and estimators.

`solve_spd` and `inverse_spd` are one Cholesky kernel, generated per
dimension as straight-line code in the textbook loop order using only +, -,
*, / and sqrt.  It runs on floats for one (d, d) matrix and on numpy arrays,
one per entry, for a stack (..., d, d): it reads the entries as views
``m[..., i, j]`` and ``rhs[..., i]`` and writes each result entry into one
preallocated array.  IEEE 754 rounds each operation the same either way,
so a matrix gets the same bits stacked as alone, in any layout
(`tests/test_stack_invariance.py`, `tests/test_linalg.py`).  It agrees with
scipy's ``cho_solve`` to rounding and raises LAPACK's LinAlgError at the
first pivot that is not > 0, NaN included; a stack fails at the first pivot
that fails in any of its matrices (`tests/test_linalg.py`).  Only `eigvalsh` calls LAPACK:
numpy's lower-triangle ``dsyevd`` gufunc, which ``numpy.linalg.eigvalsh``
ends in, without that wrapper's cost.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.linalg._umath_linalg import eigvalsh_lo

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
    array); a NaN eigenvalue fails it.  Rounding is monotone, so RTOL * max(l, 1)
    equals max(RTOL * l, RTOL) exactly and the rule splits into two comparisons."""
    return gram_check(gram)[0]


def gram_check(gram: np.ndarray):
    """`is_invertible_gram` together with the smallest eigenvalue it read, for
    one Gram (numpy scalars) or a stack (arrays): the spectral norm of
    c * gram^{-1} is c / smallest, so a caller that needs both makes one
    eigendecomposition."""
    eigs = eigvalsh(gram)  # [()] makes a lone matrix's values numpy scalars, faster than 0-d arrays
    smallest, largest = eigs[..., 0][()], eigs[..., -1][()]
    return (smallest > GRAM_SINGULARITY_RTOL * largest) & (smallest > GRAM_SINGULARITY_RTOL), smallest


@lru_cache(maxsize=None)
def _kernel(dim: int, stacked: bool):
    """For dimension `dim`, on floats or on arrays: `factor(m)`, from A to
    L's entries in row-major order; `solve(l, b0, ..)`, from those and b's
    entries to x's (``L z = b``, then ``L' x = z``); and `inverse`, the
    entries of ``(X + X') / 2`` for X solved against the identity.  On
    floats, `factor` unpacks a list of A's entries in row-major order and
    `inverse(l)` returns X's; on arrays, `factor` reads views ``m[..., i, j]``
    of a stack and `inverse(l, out)` writes into the stack `out`."""

    def assign(target, first, pairs, divisor=None):  # first - u0 * v0 - ..., left to right
        value = first + "".join(f" - {u} * {v}" for u, v in pairs)
        return f"    {target} = " + (f"({value}) / {divisor}" if divisor else value)

    l, z = [[f"l{i}_{j}" for j in range(i + 1)] for i in range(dim)], [f"z{i}" for i in range(dim)]
    lower, zs = ", ".join(sum(l, [])), ", ".join(z)
    lines = ["def factor(m):"]
    if stacked:
        lines += [f"    a{i}_{j} = m[..., {i}, {j}]" for i in range(dim) for j in range(i + 1)]
    else:
        lines.append("    " + ", ".join(f"a{i}_{j}" for i in range(dim) for j in range(dim)) + ", = m")
    for j in range(dim):
        lines += [
            assign("p", f"a{j}_{j}", zip(l[j], l[j][:j])),
            "    if _count(p > 0) < p.size:" if stacked else "    if not p > 0:",
            f"        raise _error('{j + 1}-th leading minor of the array is not positive definite')",
            f"    {l[j][j]} = _sqrt(p)",
        ]
        lines += [assign(l[i][j], f"a{i}_{j}", zip(l[i], l[j][:j]), l[j][j]) for i in range(j + 1, dim)]
    lines += [f"    return {lower},", f"def solve(l, {zs}):", f"    {lower}, = l"]
    lines += [assign(z[i], z[i], zip(l[i], z[:i]), l[i][i]) for i in range(dim)]
    lines += [assign(z[i], z[i], [(l[k][i], z[k]) for k in range(i + 1, dim)], l[i][i]) for i in reversed(range(dim))]
    lines += [f"    return {zs},", "def inverse(l, out=None):"]
    lines += [f"    x{c} = solve(l, {', '.join(str(float(i == c)) for i in range(dim))})" for c in range(dim)]
    if stacked:  # one value per pair i <= j, since a + b == b + a
        lines += [f"    out[..., {i}, {j}] = out[..., {j}, {i}] = 0.5 * (x{j}[{i}] + x{i}[{j}])" for i in range(dim) for j in range(i, dim)]
    else:
        lines.append("    return " + "".join(f"0.5 * (x{j}[{i}] + x{i}[{j}]), " for i in range(dim) for j in range(dim)))
    names = {"_error": np.linalg.LinAlgError, "_sqrt": np.sqrt if stacked else math.sqrt, "_count": np.count_nonzero}
    exec("\n".join(lines), names)
    return names["factor"], names["solve"], names["inverse"]


def solve_spd(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` for symmetric positive definite input via
    Cholesky: one (d, d) matrix with rhs (d,), or a stack (..., d, d) with
    rhs broadcasting against (..., d)."""
    dim = matrix.shape[-1]
    factor, solve, _ = _kernel(dim, matrix.ndim > 2)
    if matrix.ndim == 2:
        return np.array(solve(factor(matrix.ravel().tolist()), *rhs.tolist()))
    solved = solve(factor(matrix), *(rhs[..., i] for i in range(dim)))
    out = np.empty(solved[0].shape + (dim,))  # each entry has the broadcast shape
    for i, x in enumerate(solved):
        out[..., i] = x
    return out


def inverse_spd(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, or of each of a
    stack: the solves against the identity, X, symmetrized as (X + X') / 2."""
    dim = matrix.shape[-1]
    factor, _, inverse = _kernel(dim, matrix.ndim > 2)
    if matrix.ndim == 2:
        return np.array(inverse(factor(matrix.ravel().tolist()))).reshape(matrix.shape)
    out = np.empty(matrix.shape)
    inverse(factor(matrix), out)
    return out


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
