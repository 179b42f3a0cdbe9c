"""Dense linear-algebra primitives.

Everything in here is desk scale: matrices are small and dense, clarity wins
over asymptotics. Factorizations are recomputed eagerly rather than updated.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ContractViolationError, DegenerateColumnError

# Rank decisions discard pivots below this fraction of the largest pivot seen.
TAU_RANK_FACTOR = 1e-9

__all__ = [
    "SymPosDef",
    "Projector",
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
    """A symmetric positive definite matrix with cached factorization.

    The Cholesky factor, the explicit inverse, and the log-determinant are
    computed once at construction. Instances are treated as immutable: solver
    state updates build a fresh ``SymPosDef`` from the updated entries.

    Raises
    ------
    ContractViolationError
        If the matrix is not square, not symmetric to 1e-12 relative, or not
        positive definite.
    """

    __slots__ = ("mat", "dim", "_cho", "inv", "logdet")

    def __init__(self, entries):
        mat = as_matrix(entries)
        m, n = mat.shape
        if m != n:
            raise ContractViolationError(f"matrix of shape {mat.shape} is not square")
        scale = np.abs(mat).max()
        if scale == 0.0 or np.abs(mat - mat.T).max() > 1e-12 * scale:
            raise ContractViolationError("matrix is not symmetric")
        self.mat = 0.5 * (mat + mat.T)
        self.dim = n
        try:
            self._cho = cho_factor(self.mat, lower=True)
        except np.linalg.LinAlgError as exc:
            raise ContractViolationError("matrix is not positive definite") from exc
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(self._cho[0]))))
        self.inv = cho_solve(self._cho, np.eye(n))
        self.inv = 0.5 * (self.inv + self.inv.T)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Return ``self.mat^{-1} rhs`` via the cached factorization."""
        return cho_solve(self._cho, rhs)

    def norm(self, v: np.ndarray) -> float:
        """Norm of ``v`` in the metric defined by this matrix."""
        return float(np.sqrt(max(self.quad(v), 0.0)))

    def quad(self, v: np.ndarray) -> float:
        """Quadratic form ``v^T M v``."""
        return float(v @ self.mat @ v)

    def inner(self, v: np.ndarray, w: np.ndarray) -> float:
        return float(v @ self.mat @ w)

    def embed(self, mat: np.ndarray) -> np.ndarray:
        """Return ``L^T mat`` where ``self.mat = L L^T``.

        The columns of the result have the euclidean geometry that the columns
        of ``mat`` have in this metric: ``embed(A).T @ embed(A) = A^T M A``.
        """
        # cho_factor leaves the upper triangle filled with stale entries.
        return np.tril(self._cho[0]).T @ mat

    def __repr__(self):
        return f"SymPosDef(dim={self.dim}, logdet={self.logdet:.6g})"


class Projector:
    """An orthogonal projector, as ``kernel_projector`` builds it.

    Construction validates symmetry, idempotency, and that the trace is an
    integer (the rank of the target subspace) within tolerance.
    """

    __slots__ = ("mat", "dim", "rank")

    def __init__(self, mat):
        mat = as_matrix(mat)
        if mat.shape[0] != mat.shape[1]:
            raise ContractViolationError("projector must be square")
        scale = max(1.0, np.abs(mat).max())
        if np.abs(mat - mat.T).max() > 1e-12 * scale:
            raise ContractViolationError("projector is not symmetric")
        if np.abs(mat @ mat - mat).max() > 1e-9:
            raise ContractViolationError("projector is not idempotent")
        trace = float(np.trace(mat))
        if abs(trace - round(trace)) > 1e-9 * mat.shape[0]:
            raise ContractViolationError(f"projector trace {trace} is not near an integer")
        self.mat = 0.5 * (mat + mat.T)
        self.dim = mat.shape[0]
        self.rank = int(round(trace))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.mat @ v

    def __repr__(self):
        return f"Projector(dim={self.dim}, rank={self.rank})"


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


def kernel_projector(mat: np.ndarray) -> Projector:
    """Orthogonal projector onto the kernel (nullspace) of ``mat``.

    Built from a basis B of linearly independent rows: the row-space projector
    is ``B^T (B B^T)^{-1} B`` and the kernel projector is its complement.

    Parameters
    ----------
    mat : array, shape (m, n)

    Returns
    -------
    Projector, an (n, n) matrix of rank ``n - rank(mat)``.
    """
    mat = as_matrix(mat)
    rows = independent_rows(mat)
    n = mat.shape[1]
    if not rows:
        return Projector(np.eye(n))
    basis = mat[rows, :]
    gram = SymPosDef(basis @ basis.T)
    row_proj = basis.T @ gram.solve(basis)
    proj = np.eye(n) - row_proj
    return Projector(0.5 * (proj + proj.T))


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
