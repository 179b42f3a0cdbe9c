"""Condition measures for conic feasibility instances.

The central quantity is the signed margin of the normalized column set: the
largest value rho such that some unit vector y in the column space has
``a_hat_j . y >= rho`` for every normalized column. Negative rho means the
origin is interior to the convex hull of the normalized columns (kernel
feasible), positive rho means a strictly separating direction exists (image
feasible).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ContractViolationError, UnsupportedInstanceError
from .linalg import as_matrix, column_norms

__all__ = [
    "ConditionReport",
    "hadamard_delta",
    "hadamard_delta_sq_exact",
    "theta",
    "encoding_length",
    "goffin_oracle",
    "condition_report",
]

# Independence test tolerance for the greedy column-subset scan.
_INDEP_TOL = 1e-9

# Hierarchical refinement of the sphere stops expanding past this many cells.
_MAX_CELLS = 400_000


def _require_integral(mat: np.ndarray) -> np.ndarray:
    if not np.all(mat == np.round(mat)):
        raise UnsupportedInstanceError("operation requires integral entries")
    return np.round(mat).astype(np.int64)


def _greedy_independent(mat: np.ndarray, norms: np.ndarray) -> list[int]:
    """Greedy max-product independent column subset, largest norms first.

    Independence of column sets is a matroid, so the greedy scan over
    descending norms is exact. Columns of norm <= 1 never help the product
    and are skipped.
    """
    order = np.argsort(-norms, kind="stable")
    basis: list[np.ndarray] = []
    chosen: list[int] = []
    for j in order:
        if norms[j] <= 1.0:
            break
        col = mat[:, j].astype(float)
        resid = col.copy()
        for b in basis:
            resid -= (b @ resid) * b
        rnorm = np.linalg.norm(resid)
        if rnorm > _INDEP_TOL * norms[j]:
            basis.append(resid / rnorm)
            chosen.append(int(j))
    return chosen


def hadamard_delta(mat) -> float:
    """Largest product of column norms over independent column subsets.

    The empty subset counts with product 1, so the result is always >= 1.
    """
    mat = as_matrix(mat)
    norms = column_norms(mat)
    chosen = _greedy_independent(mat, norms)
    prod = 1.0
    for j in chosen:
        prod *= float(norms[j])
    return prod


def hadamard_delta_sq_exact(mat) -> int:
    """Exact squared value of ``hadamard_delta`` for an integral matrix.

    Squared column norms of an integer matrix are integers, so the squared
    product is computed without rounding. Independence is still decided in
    floating point, which is reliable at desk scale.
    """
    mat = as_matrix(mat)
    ints = _require_integral(mat)
    norms = column_norms(mat)
    chosen = _greedy_independent(mat, norms)
    prod = 1
    for j in chosen:
        prod *= sum(int(v) * int(v) for v in ints[:, j])
    return prod


def theta(mat) -> float:
    """Lower bound ``1 / (m^2 delta^2)`` on the margin magnitude.

    For integral input the squared delta is computed exactly.
    """
    mat = as_matrix(mat)
    m = mat.shape[0]
    if np.all(mat == np.round(mat)):
        return float(Fraction(1, m * m * hadamard_delta_sq_exact(mat)))
    d = hadamard_delta(mat)
    return 1.0 / (m * m * d * d)


def encoding_length(mat) -> int:
    """Total bit size ``sum_ij (1 + ceil(log2(|a_ij| + 1)))`` of an integral matrix."""
    mat = as_matrix(mat)
    ints = _require_integral(mat)
    total = 0
    for v in ints.ravel():
        total += 1 + int(abs(int(v))).bit_length()
    return total


def _sphere_points(angles: np.ndarray, r: int) -> np.ndarray:
    """Map hyperspherical angles (r-1, k) to unit vectors (r, k)."""
    k = angles.shape[1]
    pts = np.empty((r, k))
    sin_prod = np.ones(k)
    for i in range(r - 1):
        pts[i] = sin_prod * np.cos(angles[i])
        sin_prod = sin_prod * np.sin(angles[i])
    pts[r - 1] = sin_prod
    return pts


def goffin_oracle(mat, tol: float = 1e-6) -> float:
    """Signed margin of the normalized columns, to additive accuracy ``tol``.

    Maximizes ``min_j a_hat_j . y`` over unit vectors ``y`` in the column
    space. The search runs over an orthonormal basis of the column space, so
    rank-deficient inputs cost only as much as their rank. Ranks up to 5 are
    supported by hierarchical refinement with a Lipschitz pruning bound; the
    objective is 1-Lipschitz on the sphere, so a cell of angular radius h can
    beat the incumbent by at most h.

    Zero columns are allowed and contribute a constant 0 term (their
    normalization is taken to be the zero vector), which caps the result at 0.
    """
    mat = as_matrix(mat)
    if tol <= 0:
        raise ContractViolationError("tol must be positive")
    if not np.any(mat):
        raise ContractViolationError("margin of the zero matrix is undefined")
    norms = column_norms(mat)
    nz = norms > 0.0
    hat = mat[:, nz] / norms[nz]

    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    r = int(np.sum(s > 1e-9 * s[0]))
    basis = u[:, :r]
    # Coordinates of the normalized columns in the column-space basis; these
    # are still unit vectors because each lies in the span of the basis.
    gt = (basis.T @ hat).T  # (n_nonzero, r)
    has_zero_col = bool(np.any(~nz))

    if r == 1:
        vals = gt[:, 0]
        best = max(float(np.min(vals)), float(np.min(-vals)))
        return min(best, 0.0) if has_zero_col else best

    if r > 5:
        raise UnsupportedInstanceError(f"column space of rank {r} exceeds the rank-5 search limit")

    k = r - 1
    # Angle grid: the last angle spans a full turn, the others half turns.
    half = np.pi / 4.0
    axes = [np.arange(1, 4, 2) * (np.pi / 4.0) for _ in range(k - 1)]
    axes.append(np.arange(1, 8, 2) * (np.pi / 4.0))
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=0)

    best = -np.inf
    while True:
        pts = _sphere_points(centers, r)
        vals = gt @ pts  # (n, cells)
        f = vals.min(axis=0)
        if has_zero_col:
            f = np.minimum(f, 0.0)
        best = max(best, float(f.max()))
        radius = half * np.sqrt(k)
        if radius <= tol:
            return best + 0.5 * radius
        keep = f + radius > best
        if not np.any(keep):
            # Every cell is certified no better than the incumbent.
            return best
        centers = centers[:, keep]
        # Split every surviving cell in half along every axis.
        half *= 0.5
        offsets = np.stack(
            [m.ravel() for m in np.meshgrid(*([np.array([-half, half])] * k), indexing="ij")],
            axis=0,
        )
        centers = (centers[:, :, None] + offsets[:, None, :]).reshape(k, -1)
        if centers.shape[1] > _MAX_CELLS:
            raise UnsupportedInstanceError("sphere refinement exceeded its cell budget")


@dataclass
class ConditionReport:
    """Bundle of condition measures for one instance."""

    rho: float
    rho_accuracy: float
    delta: float
    theta: float
    encoding_length: int | None

    @property
    def kernel_feasible_hint(self) -> bool:
        return self.rho < 0.0


def condition_report(mat, tol: float = 1e-6) -> ConditionReport:
    """Compute the full set of condition measures for a desk-scale instance."""
    mat = as_matrix(mat)
    bits = None
    if np.all(mat == np.round(mat)):
        bits = encoding_length(mat)
    return ConditionReport(
        rho=goffin_oracle(mat, tol),
        rho_accuracy=tol,
        delta=hadamard_delta(mat),
        theta=theta(mat),
        encoding_length=bits,
    )
