"""Condition measures for conic feasibility instances.

The central quantity is the signed margin of the normalized column set: the
largest value rho such that some unit vector y in the column space has
``a_hat_j . y >= rho`` for every normalized column. Negative rho means the
origin is interior to the convex hull of the normalized columns (kernel
feasible), positive rho means a strictly separating direction exists (image
feasible). ``goffin_oracle`` computes it exactly up to rounding: a positive
rho is the distance from 0 to that hull (a least-distance problem, solved by
nonnegative least squares), and a negative rho is minus the distance from 0
to the nearest hull facet (from the convex hull, up to rank 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ContractViolationError, UnsupportedInstanceError
from .linalg import TAU_RANK_FACTOR, _pow2_scaled, as_matrix, column_norms, normalize_columns, pivoted_rank

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


def _require_integral(mat: np.ndarray) -> list[list[int]]:
    """The rows of ``mat`` as exact Python ints, which int64 would wrap past 2^63."""
    if not np.all(mat == np.round(mat)):
        raise UnsupportedInstanceError("operation requires integral entries")
    return [[int(v) for v in row] for row in mat.tolist()]


def _greedy_independent(mat: np.ndarray, keys) -> list[int]:
    """Greedy max-product independent column subset, largest norms first.

    ``keys`` order the columns as their norms do, positive exactly where the
    norm is above 1 (no other column helps the product). Independence of
    column sets is a matroid, so the greedy scan is exact; it is decided on
    the unit columns by the shared pivoted-QR rank rule, skipped once m are chosen.
    """
    chosen: list[int] = []
    for j in sorted(range(len(keys)), key=lambda j: -keys[j]):
        if keys[j] > 0 and len(chosen) < mat.shape[0] and pivoted_rank(normalize_columns(mat[:, chosen + [j]])) > len(chosen):
            chosen.append(j)
    return chosen


def hadamard_delta(mat) -> float:
    """Largest product of column norms over independent column subsets.

    The empty subset counts with product 1, so the result is always >= 1.
    Norms are read as |2^-e_j a_j| 2^e_j, so none leaves float range.
    """
    mat = as_matrix(mat)
    scaled, exps = _pow2_scaled(mat)
    norms = column_norms(scaled)
    with np.errstate(divide="ignore", over="ignore"):  # a zero column ranks at -inf; past float range reads inf
        chosen = _greedy_independent(mat, np.log(norms) + exps * math.log(2.0))
        return float(np.ldexp(np.prod(norms[chosen]), exps[chosen].sum()))


def hadamard_delta_sq_exact(mat) -> int:
    """Exact squared value of ``hadamard_delta`` for an integral matrix.

    Squared column norms of an integer matrix are integers, so the greedy
    scan of ``hadamard_delta`` ranks the columns by them and decides
    independence by fraction-free elimination in Python ints: each chosen
    column is kept reduced, zero at every earlier one's pivot, and a
    candidate v reduced by each (v <- b_p v - v_p b) is independent exactly
    when something is left. The squared product is computed without rounding.
    """
    mat = as_matrix(mat)
    cols = _require_integral(mat.T)
    sq_norms = [sum(v * v for v in col) for col in cols]
    basis: list[tuple[int, list[int]]] = []  # (pivot, reduced column), each divided by its gcd
    delta_sq = 1
    for j in sorted(range(len(cols)), key=lambda j: -sq_norms[j]):
        if sq_norms[j] <= 1 or len(basis) == mat.shape[0]:
            break
        v = cols[j]
        for p, b in basis:
            if v[p]:
                v = [b[p] * a - v[p] * c for a, c in zip(v, b)]
        g = math.gcd(*v)
        if g:
            basis.append((next(i for i, a in enumerate(v) if a), [a // g for a in v]))
            delta_sq *= sq_norms[j]
    return delta_sq


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
    return sum(1 + abs(v).bit_length() for row in _require_integral(mat) for v in row)


def goffin_oracle(mat) -> float:
    """Signed margin ``max_{|y|=1} min_j a_hat_j . y`` of the normalized columns.

    Works in an orthonormal basis of the column space (rank r), where the
    normalized columns become unit vectors g_j. When the margin is positive it
    is the distance from 0 to conv(g), found exactly by the least-distance
    problem min |y| subject to g_j . y >= 1 (rho = 1/|y*|), which Lawson and
    Hanson reduce to nonnegative least squares. When that system is
    infeasible, 0 lies in conv(g), the hull is full-dimensional, and rho is
    minus the distance from 0 to the nearest hull facet. Only that branch
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

    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    r = int(np.sum(s > TAU_RANK_FACTOR * s[0]))
    basis = u[:, :r]
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
    delta: float
    theta: float
    encoding_length: int | None

    @property
    def kernel_feasible_hint(self) -> bool:
        return self.rho < 0.0


def condition_report(mat) -> ConditionReport:
    """Compute the full set of condition measures for a desk-scale instance."""
    mat = as_matrix(mat)
    bits = None
    if np.all(mat == np.round(mat)):
        bits = encoding_length(mat)
    return ConditionReport(
        rho=goffin_oracle(mat),
        delta=hadamard_delta(mat),
        theta=theta(mat),
        encoding_length=bits,
    )
