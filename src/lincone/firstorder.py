"""Inner loops shared by the solvers.

The von Neumann loop drives a convex combination ``y`` of the normalized
columns toward either a strict separator or a short vector; its perceptron
and coordinate-descent variants keep the same output contract. All of them
are euclidean loops on the columns they are given: a solver working in a
metric Q = W^T W passes the whitened columns W A, and then every euclidean
quantity of the loop is the Q-quantity of the original columns.

Cost model of the three loops (``von_neumann``, ``perceptron_inner``,
``dv_inner``): one O(mn) normalization per call, and each step is one O(mn)
matrix-vector product. No n x n Gram matrix is ever formed, so memory stays
O(mn).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DegenerateColumnError
from .linalg import as_matrix, column_norms

__all__ = [
    "FOState",
    "FOOutcome",
    "SEPARATED",
    "SMALL_NORM",
    "BUDGET_EXHAUSTED",
    "von_neumann",
    "dv_inner",
    "perceptron_inner",
]

SEPARATED = "separated"
SMALL_NORM = "small_norm"
BUDGET_EXHAUSTED = "budget_exhausted"

# Incremental quantities are recomputed from scratch this often.
_DRIFT_INTERVAL = 10_000


@dataclass(frozen=True)
class FOState:
    """Coefficient vector x and aggregate y for one first-order run.

    x is a convex combination and ``y = sum_i x_i a_i / |a_i|``.
    """

    mat: np.ndarray
    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class FOOutcome:
    status: str
    iterations: int


def _normalized(mat, eps: float):
    """Shared set-up of the inner loops: validate and normalize the columns.

    Returns ``(mat, bhat, norms)`` with ``bhat = A / |a_j|``, so that
    ``bhat_i . bhat_j`` is the cosine of a_i and a_j, and ``norms`` holds
    the |a_j|. O(mn) work, no n x n array.
    """
    mat = as_matrix(mat)
    if eps <= 0:
        raise ContractViolationError("eps must be positive")
    norms = column_norms(mat)
    if np.any(norms == 0.0):
        raise DegenerateColumnError("all columns must be nonzero")
    return mat, mat / norms, norms


def _vn_cap(eps: float, budget: int | None) -> int:
    cap = math.ceil(1.0 / (eps * eps))
    return cap if budget is None else min(cap, int(budget))


def _vn_step(ynorm2: float, z: float) -> float:
    """Step length minimizing |(1-l) y + l a| over l in [0, 1].

    ``ynorm2`` is |y|^2 and ``z`` the inner product of y with the unit
    vector a; the von Neumann loops of the image and oracle solvers both take
    this step.
    """
    lam = (ynorm2 - z) / (ynorm2 - 2.0 * z + 1.0)
    assert -1e-12 <= lam <= 1.0 + 1e-12
    return min(max(lam, 0.0), 1.0)


def _result(mat, x, norms, status, iterations):
    state = FOState(mat=mat, x=x, y=mat @ (x / norms))
    return state, FOOutcome(status=status, iterations=iterations)


def von_neumann(mat, eps: float, budget: int | None = None):
    """Drive a convex combination of normalized columns toward 0 or a separator.

    Starts from the first column. Each iteration either certifies
    ``A^T y > 0`` strictly (status ``separated``), moves y to the nearest
    point of the segment toward the worst column, or stops with
    ``|y| <= eps`` (status ``small_norm``). At most ``ceil(1/eps^2)``
    iterations are ever needed; a smaller ``budget`` may stop the loop early
    with status ``budget_exhausted``.

    The loop keeps ``w = A_hat x``, so ``|y|^2 = w . w`` and the cosines of
    y with the columns are one matrix-vector product with the normalized
    columns. Set-up and each step cost O(mn); no n x n array is formed.

    Parameters
    ----------
    mat : array (m, n), nonzero columns, already whitened for a non-euclidean
        metric
    eps : target norm, > 0
    budget : optional iteration cap below the intrinsic bound

    Returns
    -------
    (FOState, FOOutcome)
    """
    mat, bhat, norms = _normalized(mat, eps)
    cap = _vn_cap(eps, budget)
    x = np.zeros(mat.shape[1])
    x[0] = 1.0
    w = bhat[:, 0].copy()
    fresh = True  # w equals bhat @ x as recomputed, not updated
    iterations = 0
    while True:
        if iterations % _DRIFT_INTERVAL == 0 and not fresh:
            w, fresh = bhat @ x, True
        z = bhat.T @ w
        k = int(z.argmin())  # lowest index among ties
        zk = float(z[k])
        ynorm2 = float(w @ w)
        if ynorm2 <= eps * eps or zk > 0.0:
            # Verdicts are taken on a freshly recomputed w only.
            if not fresh:
                w, fresh = bhat @ x, True
                continue
            status = SMALL_NORM if ynorm2 <= eps * eps else SEPARATED
            break
        if iterations >= cap:
            status = BUDGET_EXHAUSTED
            break
        lam = _vn_step(ynorm2, zk)
        x *= 1.0 - lam
        x[k] += lam
        w *= 1.0 - lam
        w += lam * bhat[:, k]
        fresh = False
        iterations += 1
    return _result(mat, x, norms, status, iterations)


def perceptron_inner(mat, eps, budget=None):
    """Perceptron analogue of ``von_neumann`` with the same output contract.

    Accumulates unit steps instead of taking convex combinations; the
    returned x and y are scaled down by the step count so x stays convex.
    Same set-up and per-step cost as ``von_neumann``.
    """
    mat, bhat, norms = _normalized(mat, eps)
    cap = _vn_cap(eps, budget)
    counts = np.zeros(mat.shape[1])
    counts[0] = 1.0
    w = bhat[:, 0].copy()
    fresh = True
    iterations = 0
    while True:
        if iterations % _DRIFT_INTERVAL == 0 and not fresh:
            w, fresh = bhat @ counts, True
        z = bhat.T @ w
        k = int(z.argmin())
        separated = float(z[k]) > 0.0
        short = float(w @ w) <= (eps * (iterations + 1)) ** 2
        if separated or short:
            if not fresh:
                w, fresh = bhat @ counts, True
                continue
            status = SEPARATED if separated else SMALL_NORM
            break
        if iterations >= cap:
            status = BUDGET_EXHAUSTED
            break
        counts[k] += 1.0
        w += bhat[:, k]
        fresh = False
        iterations += 1
    return _result(mat, counts / (iterations + 1), norms, status, iterations)


def dv_inner(mat, eps, budget=None):
    """Coordinate-descent analogue of ``von_neumann``; heuristic budget.

    Runs unguarded DV steps on the normalized columns and stops when the
    aggregate is strictly separated or short relative to the accumulated
    coefficient mass. No iteration bound like the von Neumann one applies,
    so the default budget is a generous multiple of it. Same set-up and
    per-step cost as ``von_neumann``.
    """
    mat, bhat, norms = _normalized(mat, eps)
    cap = 16 * math.ceil(1.0 / (eps * eps)) if budget is None else int(budget)
    x = np.zeros(mat.shape[1])
    x[0] = 1.0
    w = bhat[:, 0].copy()
    fresh = True
    iterations = 0
    while True:
        if iterations % _DRIFT_INTERVAL == 0 and not fresh:
            w, fresh = bhat @ x, True
        z = bhat.T @ w
        k = int(z.argmin())
        c = float(z[k])
        ynorm2 = float(w @ w)
        # A DV step pins z_k to 0 up to rounding, so a worst margin this
        # close to 0 is float noise: the method has stalled.
        noise = 1e-12 * (math.sqrt(ynorm2) + 1e-300)
        short = ynorm2 <= (eps * float(x.sum())) ** 2
        if c > -noise or short:
            if not fresh:
                w, fresh = bhat @ x, True
                continue
            if c > noise:
                status = SEPARATED
            elif short and c <= 0.0:
                status = SMALL_NORM
            else:
                status = BUDGET_EXHAUSTED
            break
        if iterations >= cap:
            status = BUDGET_EXHAUSTED
            break
        x[k] -= c
        w -= c * bhat[:, k]
        fresh = False
        iterations += 1
    return _result(mat, x / float(x.sum()), norms, status, iterations)
