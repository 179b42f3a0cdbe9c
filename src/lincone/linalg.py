"""Dense linear-algebra primitives.

Everything in here is desk scale: matrices are small and dense, clarity wins
over asymptotics. Factorizations are recomputed eagerly rather than updated.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .errors import ContractViolationError, DegenerateColumnError

# Rank decisions discard pivots below this fraction of the largest pivot seen.
TAU_RANK_FACTOR = 1e-9

__all__ = [
    "SymPosDef",
    "as_matrix",
    "independent_rows",
    "pivoted_rank",
    "kernel_projector",
    "orthocomplement_basis",
    "column_norms",
    "normalize_columns",
]


def as_matrix(entries) -> np.ndarray:
    """Validate and return a dense 2-d float array with finite entries."""
    mat = np.asarray(entries, dtype=float)
    if mat.ndim != 2:
        raise ContractViolationError(f"expected a 2-d array, got ndim={mat.ndim}")
    if mat.shape[0] < 1 or mat.shape[1] < 1:
        raise ContractViolationError(f"empty matrix of shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ContractViolationError("matrix has non-finite entries")
    return mat


def column_norms(mat: np.ndarray) -> np.ndarray:
    return np.linalg.norm(mat, axis=0)


def normalize_columns(mat: np.ndarray) -> np.ndarray:
    """Scale every column to unit euclidean length. Zero columns are rejected."""
    norms = column_norms(mat)
    if np.any(norms == 0.0):
        bad = int(np.nonzero(norms == 0.0)[0][0])
        raise DegenerateColumnError(f"column {bad} is zero and cannot be normalized")
    return mat / norms


class SymPosDef:
    """A symmetric positive definite matrix R, held by its inverse Cholesky factor.

    With R = L L^T, the inverse lower factor W = L^{-1} (``inv_factor``) and
    the log-determinant are computed once at construction. W R W^T = I, so W
    maps to coordinates where R is the identity. The solvers build one per
    rescale, for the step R', whose condition number is at most 2.

    Raises
    ------
    ContractViolationError
        If the matrix is not square, not symmetric to 1e-12 relative, or not
        positive definite.
    """

    __slots__ = ("inv_factor", "logdet")

    def __init__(self, entries):
        mat = as_matrix(entries)
        m, n = mat.shape
        if m != n:
            raise ContractViolationError(f"matrix of shape {mat.shape} is not square")
        scale = np.abs(mat).max()
        if scale == 0.0 or np.abs(mat - mat.T).max() > 1e-12 * scale:
            raise ContractViolationError("matrix is not symmetric")
        try:
            lower = cholesky(0.5 * (mat + mat.T), lower=True)
        except np.linalg.LinAlgError as exc:
            raise ContractViolationError("matrix is not positive definite") from exc
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(lower))))
        self.inv_factor = solve_triangular(lower, np.eye(n), lower=True)


def independent_rows(mat: np.ndarray) -> list[int]:
    """Indices of a maximal set of linearly independent rows.

    Gaussian elimination with full pivoting; a pivot counts only if its
    magnitude exceeds ``TAU_RANK_FACTOR`` times the largest pivot seen.
    """
    work = as_matrix(mat).copy()
    m, _ = work.shape
    remaining = list(range(m))
    chosen: list[int] = []
    first_pivot = None
    while remaining:
        sub = np.abs(work[remaining, :])
        flat = int(np.argmax(sub))
        i_local, j = divmod(flat, work.shape[1])
        pivot = sub[i_local, j]
        if first_pivot is None:
            first_pivot = pivot
        if pivot == 0.0 or (first_pivot > 0 and pivot <= TAU_RANK_FACTOR * first_pivot):
            break
        i = remaining[i_local]
        chosen.append(i)
        remaining.remove(i)
        if remaining:
            factors = work[remaining, j] / work[i, j]
            work[remaining, :] -= np.outer(factors, work[i, :])
    return sorted(chosen)


def pivoted_rank(mat: np.ndarray) -> int:
    """Numerical rank via pivoted elimination with the shared rank tolerance."""
    return len(independent_rows(np.atleast_2d(np.asarray(mat, dtype=float))))


def kernel_projector(mat: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the kernel (nullspace) of ``mat``.

    Built from an orthonormal basis V of the row space, the Q factor of a QR
    decomposition of the linearly independent rows: the kernel projector is
    ``I - V V^T``. Unlike ``B^T (B B^T)^{-1} B`` this does not square the
    condition number of the rows. Idempotency is checked on the factor,
    ``|V^T V - I| <= 1e-9`` in O(n r^2), not on the n x n product.

    Parameters
    ----------
    mat : array, shape (m, n)

    Returns
    -------
    The symmetric (n, n) array ``I - V V^T``, of rank ``n - rank(mat)``.

    Raises
    ------
    ContractViolationError
        If the QR basis is not orthonormal.
    """
    mat = as_matrix(mat)
    rows = independent_rows(mat)
    n = mat.shape[1]
    if not rows:
        return np.eye(n)
    basis, _ = np.linalg.qr(mat[rows, :].T)
    if np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() > 1e-9:
        raise ContractViolationError("kernel projector basis is not orthonormal")
    proj = np.eye(n) - basis @ basis.T
    return 0.5 * (proj + proj.T)


def orthocomplement_basis(vector: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to ``vector``.

    Returns an ``(r, r-1)`` matrix with orthonormal columns spanning
    ``vector^perp``, built from a Householder reflector so the result is
    deterministic. For ``r == 1`` the result has zero columns.
    """
    v = np.asarray(vector, dtype=float).ravel()
    r = v.size
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise DegenerateColumnError("cannot take the orthocomplement of the zero vector")
    if r == 1:
        return np.zeros((1, 0))
    unit = v / nrm
    sign = 1.0 if unit[0] >= 0.0 else -1.0
    w = unit.copy()
    w[0] += sign
    hh = np.eye(r) - 2.0 * np.outer(w, w) / (w @ w)
    # Column 0 of the reflector is parallel to the input; the rest span its
    # orthocomplement.
    return hh[:, 1:]
