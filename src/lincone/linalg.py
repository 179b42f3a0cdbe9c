"""Dense linear-algebra primitives.

Everything in here is desk scale: matrices are small and dense, clarity wins
over asymptotics. Factorizations are recomputed eagerly rather than updated.
Every rank decision reads one column-pivoted QR (LAPACK's xGEQP3) of the
transposed matrix on unit rows, cut at ``TAU_RANK_FACTOR`` of the largest
pivot, so scaling rows changes no rank and no kernel projector.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack, qr

from .errors import ContractViolationError, DegenerateColumnError

# Rank and independence decisions discard pivots below this fraction of the largest.
TAU_RANK_FACTOR = 1e-9

__all__ = [
    "SymPosDef",
    "as_matrix",
    "pivoted_rank",
    "kernel_projector",
    "orthocomplement_basis",
    "column_norms",
    "normalize_columns",
    "raw_weights",
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


def _pow2_scaled(mat: np.ndarray):
    """(mat 2^-e, e) by column, e putting each largest |entry| in [1/2, 1): an exact step.

    A zero, NaN or infinite column keeps e = 0; a 1-d array is one column.
    """
    _, exps = np.frexp(np.abs(mat).max(axis=0))
    return np.ldexp(mat, -exps), exps


def normalize_columns(mat: np.ndarray) -> np.ndarray:
    """Scale every column to unit euclidean length. Zero columns are rejected.

    After ``_pow2_scaled`` this is mat / |a_j| bit for bit wherever |a_j|^2
    is in float range, and it stays right outside that range.
    """
    scaled, _ = _pow2_scaled(mat)
    norms = column_norms(scaled)
    if not norms.all():
        raise DegenerateColumnError(f"column {int(norms.argmin())} is zero and cannot be normalized")
    return scaled / norms


def raw_weights(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x_j / |a_j|: x on the unit columns as weights on A's own; a zero column keeps x_j.

    Read as (x_j / |2^-e_j a_j|) 2^-e_j, so no norm leaves float range.
    """
    scaled, exps = _pow2_scaled(mat)
    norms = column_norms(scaled)
    return np.ldexp(x / np.where(norms > 0.0, norms, 1.0), -exps)


class SymPosDef:
    """A symmetric positive definite matrix R, held by its inverse Cholesky factor.

    With R = L L^T, potrf on (R + R^T) / 2 gives L (strict upper triangle
    zeroed) and the log-determinant from its diagonal, and trtri the inverse
    lower factor W = L^{-1} (``inv_factor``), once at construction. W R W^T = I,
    so W maps to coordinates where R is the identity. The solvers build one
    per rescale, for the step R', whose condition number is at most 2.

    Raises
    ------
    ContractViolationError
        If the matrix is not square and nonempty, if its largest |entry| is 0,
        NaN or infinite, if it is not symmetric to 1e-12 of that entry, or if
        potrf finds it not positive definite.
    """

    __slots__ = ("inv_factor", "logdet")

    def __init__(self, entries):
        mat = np.asarray(entries, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
            raise ContractViolationError(f"expected a nonempty square matrix, got shape {mat.shape}")
        scale = np.abs(mat).max()
        if not 0.0 < scale < np.inf:  # a NaN fails too
            raise ContractViolationError("matrix is zero or has non-finite entries")
        if np.abs(mat - mat.T).max() > 1e-12 * scale:
            raise ContractViolationError("matrix is not symmetric")
        sym = 0.5 * (mat + mat.T)  # exactly symmetric: sym.T is sym in the Fortran order potrf factors in place
        lower, info = lapack.dpotrf(sym.T, lower=1, clean=1, overwrite_a=1)
        if info != 0:
            raise ContractViolationError("matrix is not positive definite")
        self.logdet = 2.0 * float(np.log(lower.diagonal()).sum())
        self.inv_factor, _ = lapack.dtrtri(lower, lower=1, overwrite_c=1)


def _pivoted_qr(mat: np.ndarray, mode: str):
    """Column-pivoted QR of ``mat^T`` and the numerical rank of ``mat``, on its nonzero rows scaled to unit length.

    That keeps the kernel and the rank. The rank counts the pivots with
    |R_kk| > ``TAU_RANK_FACTOR`` |R_00|; a zero ``mat`` has rank 0.
    Returns (first factor, rank): Q for ``mode="economic"``, R for ``mode="r"``.
    """
    unit = normalize_columns(mat[mat.any(axis=1)].T)  # a fresh array, which qr may overwrite
    *factors, _ = qr(unit, mode=mode, pivoting=True, overwrite_a=True, check_finite=False)
    pivots = np.abs(np.diag(factors[-1]))
    return factors[0], int(np.count_nonzero(pivots > TAU_RANK_FACTOR * pivots[:1]))


def pivoted_rank(mat: np.ndarray) -> int:
    """Numerical rank: ``_pivoted_qr`` of unit rows, then unit columns; no small row or column falls under the cut."""
    mat = as_matrix(np.atleast_2d(mat))
    rows, cols = mat.any(axis=1), mat.any(axis=0)  # either branch gives C order, which the bits below read
    mat = np.ascontiguousarray(mat) if rows.all() and cols.all() else mat[np.ix_(rows, cols)]
    return _pivoted_qr(normalize_columns(normalize_columns(mat.T).T), "r")[1] if mat.size else 0


def kernel_projector(mat: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the kernel (nullspace) of ``mat``.

    One column-pivoted QR of ``mat^T`` on unit rows gives the rank r, and its
    first r Q columns are an orthonormal basis V of the row space: the kernel
    projector is ``I - V V^T``. Unlike ``B^T (B B^T)^{-1} B`` this does not
    square the condition number of the rows. Idempotency is checked on the
    factor, ``|V^T V - I| <= 1e-9`` in O(n r^2), not on the n x n product.

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
    n = mat.shape[1]
    basis, rank = _pivoted_qr(mat, "economic")
    basis = basis[:, :rank]
    if np.abs(basis.T @ basis - np.eye(rank)).max(initial=0.0) > 1e-9:
        raise ContractViolationError("kernel projector basis is not orthonormal")
    proj = np.eye(n) - basis @ basis.T
    return 0.5 * (proj + proj.T)


def orthocomplement_basis(vector: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to ``vector``.

    Returns an ``(r, r-1)`` matrix with orthonormal columns spanning
    ``vector^perp``: columns 1 to r-1 of the Householder reflector that QR
    applies to the single column ``vector`` (its column 0 is parallel to
    the input), so the result is deterministic. For ``r == 1`` the result
    has zero columns.
    """
    # + 0.0 turns a leading -0.0 into +0.0, which LAPACK would read as negative.
    v = np.asarray(vector, dtype=float).ravel() + 0.0
    if not v.any():
        raise DegenerateColumnError("cannot take the orthocomplement of the zero vector")
    reflector, _ = qr(v[:, None])
    return reflector[:, 1:]
