"""The von Neumann loop, the image solvers' first-order method.

It drives a convex combination ``y`` of the normalized columns toward either
a strict separator or a short vector. It is a euclidean loop on the columns it
is given: the image solvers pass their columns in coordinates where the
metric is the identity, and then every euclidean quantity of the loop is the
Q-quantity of the original columns. The oracle solver's loop,
``oracle_von_neumann``, is the same euclidean loop in whitened coordinates on
the answers the oracle has returned, querying only when none is violated
enough. Both loops keep their coefficients and w in one lazy scale and step
through ``_vn_step``, which gives the step, the new scale and |y|^2.

Cost model: one O(mn) normalization per call, and each step is one O(mn)
matrix-vector product plus O(m) work: x and w = A_hat x share one lazy scale,
so a step touches one entry of x, and |y|^2 follows the step's own formula.
The product is one BLAS gemv into a preallocated n-vector and the w update
one in-place strided BLAS daxpy, so at m = 25, n = 500 a step costs about
4.2 us, 2.3 us of it the gemv, on a 2-vCPU x86 box with one BLAS thread.
No n x n Gram matrix is ever formed, so memory stays O(mn).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import daxpy

from .errors import ContractViolationError
from .linalg import as_matrix, column_norms, normalize_columns

__all__ = [
    "SEPARATED",
    "SMALL_NORM",
    "BUDGET_EXHAUSTED",
    "von_neumann",
]

SEPARATED = "separated"
SMALL_NORM = "small_norm"
BUDGET_EXHAUSTED = "budget_exhausted"

# The image and kernel loops recompute their incremental quantities this often.
_DRIFT_INTERVAL = 10_000


def _vn_cap(eps: float, budget: int | None) -> int:
    if not 0.0 < eps < math.inf:
        raise ContractViolationError(f"eps must be positive and finite, got {eps!r}")
    cap = math.ceil(1.0 / (eps * eps))
    return cap if budget is None else min(cap, int(budget))


def _vn_step(ynorm2: float, z: float, scale: float) -> tuple[float, float, float]:
    """One von Neumann step y' = (1-l) y + l a, l minimizing |y'| over [0, 1].

    ``ynorm2`` is |y|^2 and ``z`` <= 0 the inner product of y with the unit
    vector a, so the minimizer already lies in [0, 1]. Both callers pass
    z <= 0: the image loop steps only on a column with z <= 0, and the
    oracle loop clamps its z, which rounding can leave just above 0, to 0.
    The caller keeps its coefficients and w as ``scale`` times a vector.
    Returns (l / scale', scale' = (1-l) scale, |y'|^2): the increment of a's
    coefficient and of w's vector per unit of a, the new scale and |y'|^2.
    """
    lam = (ynorm2 - z) / (ynorm2 - 2.0 * z + 1.0)
    assert -1e-12 <= lam <= 1.0 + 1e-12
    lam = min(max(lam, 0.0), 1.0)
    scale *= 1.0 - lam
    return lam / scale, scale, (1.0 - lam) ** 2 * ynorm2 + 2.0 * lam * (1.0 - lam) * z + lam * lam


def von_neumann(mat, eps: float, budget: int | None = None):
    """Drive a convex combination of normalized columns toward 0 or a separator.

    Starts from the first column. Each iteration either certifies
    ``A^T y > 0`` strictly (status ``separated``), moves y to the nearest
    point of the segment toward the worst column, or stops with
    ``|y| <= eps`` (status ``small_norm``). At most ``ceil(1/eps^2)``
    iterations are ever needed; a smaller ``budget`` may stop the loop early
    with status ``budget_exhausted``.

    The loop keeps ``w = A_hat x`` for the normalized columns
    ``A_hat = A / |a_j|``, held as one C-ordered m x n array whatever the
    caller's layout, so the cosines z of y with the columns are one BLAS
    gemv into a preallocated n-vector. Besides it a step costs O(m): x and
    w are one shared scale times a vector, ``_vn_step`` updates the scale
    and |y|^2, and the step one entry of x and one column's worth of w, the
    latter by one in-place strided ``daxpy`` (column k starts at offset k,
    stride n). At m = 25, n = 500 that is about 4.2 us per step, the gemv
    2.3 us and the daxpy 0.3 us. daxpy may fuse the multiply-add, so w can
    differ from the two-op update in the last bit. Every ``_DRIFT_INTERVAL``
    steps, and before every verdict, w and |y|^2 are recomputed from x.
    Set-up and each step cost O(mn); no n x n array is formed.

    Parameters
    ----------
    mat : array (m, n), nonzero columns, already whitened for a non-euclidean
        metric
    eps : target norm, positive and finite
    budget : optional iteration cap below the intrinsic bound

    Returns
    -------
    (x, y, status, iterations): x is the convex combination and
    ``y = sum_i x_i a_i / |a_i|``.
    """
    # C order whatever the caller's layout, so the column norms, the gemv and
    # the daxpy offsets below (column k starts at k, stride n) are the same.
    mat = np.ascontiguousarray(as_matrix(mat))
    cap = _vn_cap(eps, budget)
    with np.errstate(over="ignore"):  # |a_j|^2 past float range reads inf
        norms = column_norms(mat)
    if not np.all((norms > 0.0) & (norms < math.inf)):
        # Normalize exactly (a zero column raises) and read y on the unit columns.
        mat, norms = normalize_columns(mat), np.ones(mat.shape[1])
    m, n = mat.shape
    bhat = mat / norms
    bhat_flat = bhat.ravel()
    eps2 = eps * eps
    # x = scale * xs and w = scale * ws, so a step rescales one float instead
    # of the n-vector x and the m-vector w. With z <= 0 a step gives
    # 1 - lam >= |y'|^2 / |y|^2, so the factors telescope and scale stays
    # >= |y|^2 / |y at the last refresh|^2: it falls only as far as |y|^2
    # does, which the eps target bounds, and cannot leave float range. Each
    # refresh folds it back into xs, which is needed against drift only.
    xs = np.zeros(n)
    xs[0] = scale = 1.0
    ws = bhat[:, 0].copy()
    ynorm2 = float(ws @ ws)
    z = np.empty(n)
    cosines = bhat.T.dot  # z = bhat^T ws, one gemv into z
    fresh = True  # ws and |y|^2 are recomputed from x, not updated
    verdict = False
    iterations = 0
    while True:
        # Verdicts are taken on a freshly recomputed w only.
        if not fresh and (verdict or iterations % _DRIFT_INTERVAL == 0):
            xs *= scale
            scale, ws = 1.0, bhat @ xs
            ynorm2, fresh = float(ws @ ws), True
        cosines(ws, out=z)
        k = int(z.argmin())  # lowest index among ties
        zk = z.item(k) * scale
        verdict = ynorm2 <= eps2 or zk > 0.0
        if verdict:
            if not fresh:
                continue
            status = SMALL_NORM if ynorm2 <= eps2 else SEPARATED
            break
        if iterations >= cap:
            status = BUDGET_EXHAUSTED
            break
        step, scale, ynorm2 = _vn_step(ynorm2, zk, scale)
        xs[k] += step
        daxpy(bhat_flat, ws, m, step, k, n)  # ws += step * bhat[:, k], in place
        fresh = False
        iterations += 1
    x = xs * scale
    return x, mat @ (x / norms), status, iterations
