"""The von Neumann loop, the image solvers' first-order method.

It drives a convex combination ``y`` of the normalized columns toward either
a strict separator or a short vector. It is a euclidean loop on the columns it
is given: the image solvers pass their columns in coordinates where the
metric is the identity, and then every euclidean quantity of the loop is the
Q-quantity of the original columns. The oracle solver's loop,
``oracle_von_neumann``, is the same euclidean loop in whitened coordinates on
the answers the oracle returns one query at a time, and takes the same step
through ``_vn_step``.

Cost model: one O(mn) normalization per call, and each step is one O(mn)
matrix-vector product. No n x n Gram matrix is ever formed, so memory stays
O(mn).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError, DegenerateColumnError
from .linalg import as_matrix, column_norms

__all__ = [
    "SEPARATED",
    "SMALL_NORM",
    "BUDGET_EXHAUSTED",
    "von_neumann",
]

SEPARATED = "separated"
SMALL_NORM = "small_norm"
BUDGET_EXHAUSTED = "budget_exhausted"

# Incremental quantities are recomputed from scratch this often.
_DRIFT_INTERVAL = 10_000


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


def von_neumann(mat, eps: float, budget: int | None = None):
    """Drive a convex combination of normalized columns toward 0 or a separator.

    Starts from the first column. Each iteration either certifies
    ``A^T y > 0`` strictly (status ``separated``), moves y to the nearest
    point of the segment toward the worst column, or stops with
    ``|y| <= eps`` (status ``small_norm``). At most ``ceil(1/eps^2)``
    iterations are ever needed; a smaller ``budget`` may stop the loop early
    with status ``budget_exhausted``.

    The loop keeps ``w = A_hat x`` for the normalized columns
    ``A_hat = A / |a_j|``, so ``|y|^2 = w . w`` and the cosines of y with the
    columns are one matrix-vector product. Set-up and each step cost O(mn);
    no n x n array is formed.

    Parameters
    ----------
    mat : array (m, n), nonzero columns, already whitened for a non-euclidean
        metric
    eps : target norm, > 0
    budget : optional iteration cap below the intrinsic bound

    Returns
    -------
    (x, y, status, iterations): x is the convex combination and
    ``y = sum_i x_i a_i / |a_i|``.
    """
    mat = as_matrix(mat)
    if eps <= 0:
        raise ContractViolationError("eps must be positive")
    norms = column_norms(mat)
    if np.any(norms == 0.0):
        raise DegenerateColumnError("all columns must be nonzero")
    bhat = mat / norms
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
    return x, mat @ (x / norms), status, iterations
