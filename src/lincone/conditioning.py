"""Condition measures for conic feasibility instances.

The central quantity is the signed margin of the normalized column set: the
largest value rho such that some unit vector y in the column space has
``a_hat_j . y >= rho`` for every normalized column. Negative rho means the
origin is interior to the convex hull of the normalized columns (kernel
feasible), positive rho means a strictly separating direction exists (image
feasible). ``goffin_oracle`` computes it exactly up to rounding: a positive
rho is the distance from 0 to that hull (a least-distance problem, solved by
nonnegative least squares), and a negative rho is minus the distance from 0
to the nearest hull facet (from the convex hull, up to rank 7). delta and
theta are defined on integral input only, and computed in Python ints by
``_insert``, the one exact elimination, which ``certify`` shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, UnsupportedInstanceError
from .linalg import _pivoted_qr, as_matrix, normalize_columns

__all__ = [
    "ConditionReport",
    "hadamard_delta",
    "hadamard_delta_sq_exact",
    "theta",
    "encoding_length",
    "goffin_oracle",
    "condition_report",
]

# Margins within this of 0 are rounding in unit-vector arithmetic, reported as 0.
_ROUNDING = 1e-12

# Largest column-space rank whose convex hull the rho <= 0 branch builds.
_MAX_HULL_RANK = 7


def _is_integral(mat: np.ndarray) -> bool:
    """Whether every entry of ``mat`` is a finite integer, read on the floats without a Python int."""
    return bool(np.isfinite(mat).all() and (mat == np.rint(mat)).all())


def _require_integral(mat: np.ndarray) -> list[list[int]]:
    """The rows of the finite ``mat`` as exact Python ints, which int64 would wrap past 2^63."""
    rows = mat.tolist()
    ints = [list(map(int, row)) for row in rows]
    if ints != rows:  # int and float compare exactly
        raise UnsupportedInstanceError("operation requires integral entries")
    return ints


def _insert(basis: list[tuple[int, list[int]]], v: list[int]) -> bool:
    """Add the int row ``v`` to the reduced echelon ``basis`` of (pivot, row) pairs; False if v depends on it.

    Fraction-free (Bareiss): v is reduced at each pivot, v <- b_p v - v_p b;
    a remainder becomes a row, divided by its gcd and positive at its first
    nonzero, the new pivot, where every other row is reduced in turn.
    """
    for p, b in basis:
        if vp := v[p]:
            bp = b[p]
            v = [bp * a - vp * c for a, c in zip(v, b)]
    g = math.gcd(*v)
    if not g:
        return False
    p = v.index(next(filter(None, v)))  # the first nonzero
    g = g if v[p] > 0 else -g
    v = [a // g for a in v]
    vp = v[p]
    for k, (q, b) in enumerate(basis):
        if bp := b[p]:
            b = [vp * a - bp * c for a, c in zip(b, v)]
            g = math.gcd(*b)
            basis[k] = (q, [a // g for a in b])
    basis.append((p, v))
    return True


def hadamard_delta_sq_exact(mat) -> int:
    """Exact delta^2 of an integral matrix: the most a product of squared norms of independent columns reaches.

    Independent sets are a matroid, so one greedy scan by decreasing squared
    norm, an integer, is exact, each test one ``_insert``; the empty set counts 1.
    """
    mat = as_matrix(mat)
    cols = _require_integral(mat.T)
    sq_norms = [sum([a * a for a in col]) for col in cols]
    basis: list[tuple[int, list[int]]] = []
    delta_sq = 1
    for j in sorted(range(len(cols)), key=sq_norms.__getitem__, reverse=True):  # ties keep index order
        if sq_norms[j] <= 1 or len(basis) == mat.shape[0]:
            break
        if _insert(basis, cols[j]):
            delta_sq *= sq_norms[j]
    return delta_sq


def hadamard_delta(mat) -> float:
    """The float square root of ``hadamard_delta_sq_exact``: inf past float range."""
    sq = hadamard_delta_sq_exact(mat)
    try:  # float(sq) overflows from 2^1024 on, sqrt(sq) only from 2^2048
        return math.sqrt(sq) if sq < 2**1000 else float(math.isqrt(sq))
    except OverflowError:
        return math.inf


def theta(mat) -> float:
    """Lower bound ``1 / (m^2 delta^2)`` on the margin magnitude of an integral matrix, correctly rounded."""
    mat = as_matrix(mat)
    return 1 / (mat.shape[0] ** 2 * hadamard_delta_sq_exact(mat))


def encoding_length(mat) -> int:
    """Total bit size ``sum_ij (1 + ceil(log2(|a_ij| + 1)))`` of an integral matrix."""
    mat = as_matrix(mat)
    return sum(1 + abs(v).bit_length() for row in _require_integral(mat) for v in row)


def goffin_oracle(mat) -> float:
    """Signed margin ``max_{|y|=1} min_j a_hat_j . y`` of the normalized columns.

    Works in an orthonormal basis of the column space (rank r, from the shared
    pivoted QR), where the normalized columns become unit vectors g_j. When the
    margin is positive it is the distance from 0 to conv(g), found exactly by
    the least-distance problem min |y| subject to g_j . y >= 1 (rho = 1/|y*|),
    which Lawson and Hanson reduce to nonnegative least squares. When that
    system is infeasible, 0 lies in conv(g), the hull is full-dimensional, and
    rho is minus the distance from 0 to the nearest hull facet. Only that branch
    builds a hull, and it rejects ranks above 7, where qhull's facet count
    grows too fast. Values within rounding of 0 are returned as exactly 0.0.

    Zero columns are allowed and contribute a constant 0 term (their
    normalization is taken to be the zero vector), which caps the result at 0.
    """
    mat = as_matrix(mat)
    if not np.any(mat):
        raise ContractViolationError("margin of the zero matrix is undefined")
    nz = mat.any(axis=0)
    hat = normalize_columns(mat[:, nz])

    basis, r = _pivoted_qr(hat.T, "economic")
    basis = basis[:, :r]
    # Coordinates of the normalized columns in the column-space basis; these
    # are still unit vectors because each lies in the span of the basis.
    gt = (basis.T @ hat).T  # (n_nonzero, r)
    has_zero_col = bool(np.any(~nz))

    if r == 1:
        vals = gt[:, 0]
        best = max(float(np.min(vals)), float(np.min(-vals)))
        return min(best, 0.0) if has_zero_col else best

    from scipy.optimize import nnls

    # LDP as NNLS: min |E w - f| over w >= 0 with E = [G^T; 1^T], f = e_{r+1}.
    # The residual (G^T w, sum(w) - 1) gives y* = -G^T w / (sum(w) - 1), and
    # complementarity |G^T w|^2 = sum(w) (1 - sum(w)) turns 1/|y*| into
    # |G^T w| / sum(w), read without the cancellation in sum(w) - 1.
    lhs = np.vstack([gt.T, np.ones(gt.shape[0])])
    rhs = np.zeros(r + 1)
    rhs[r] = 1.0
    w, _ = nnls(lhs, rhs)
    rho = float(np.linalg.norm(gt.T @ w)) / float(w.sum())
    if rho > _ROUNDING:
        return 0.0 if has_zero_col else rho

    if r > _MAX_HULL_RANK:
        raise UnsupportedInstanceError(f"hull of rank {r} exceeds the rank-{_MAX_HULL_RANK} limit")
    from scipy.spatial import ConvexHull

    # Facet equations read normal . p + offset <= 0 inside, with unit
    # normals, so -offset is the distance from 0 to that facet.
    rho = float(ConvexHull(gt).equations[:, -1].max())
    return 0.0 if rho > -_ROUNDING else rho


@dataclass
class ConditionReport:
    """Bundle of condition measures for one instance."""

    rho: float
    delta: float | None
    theta: float | None
    encoding_length: int | None

    @property
    def kernel_feasible_hint(self) -> bool:
        return self.rho < 0.0


def condition_report(mat) -> ConditionReport:
    """Compute the full set of condition measures for a desk-scale instance."""
    mat = as_matrix(mat)
    rep = ConditionReport(goffin_oracle(mat), None, None, None)
    if _is_integral(mat):  # the bit-size measures are defined on integral input only
        rep.delta, rep.theta, rep.encoding_length = hadamard_delta(mat), theta(mat), encoding_length(mat)
    return rep
