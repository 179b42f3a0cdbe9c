"""The von Neumann loop, the image solvers' first-order method.

It drives a convex combination ``y`` of unit columns, from the first column or
a given convex start, toward either a strict separator or a short vector. It is
a euclidean loop on the columns as given: the image solvers keep theirs as unit
vectors in coordinates where the metric is the identity, so every euclidean
quantity of the loop is the Q-quantity of the original columns. The oracle
solver's loop, ``oracle_von_neumann``, is the same euclidean loop in whitened
coordinates on the answers the oracle has returned, querying only when none is
violated enough. Both loops keep their coefficients and w in one lazy scale and
step through ``_vn_step``, which gives the step, the new scale and |y|^2.

Cost model: per call one O(mn) pass checks that the columns are unit and one
gemv gives w = B x0; a w no longer than eps ends the call before any cosine
gemv, with y = w. A step is one O(mn) BLAS gemv plus O(m) work, about 4.2 us
at m = 25, n = 500 (2.3 us of it the gemv) on a 2-vCPU x86 box with one BLAS
thread. No n x n Gram matrix is formed, so memory stays O(mn).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import daxpy

from .errors import ContractViolationError

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
# A unit column b has | |b|^2 - 1 | <= _UNIT_ULPS m (the rounding of its
# normalization and of the check); a cosine reads positive only above that.
_UNIT_ULPS = 4.0 * np.finfo(float).eps


def _vn_cap(eps: float, budget: int | None) -> int:
    if not 0.0 < eps < math.inf:
        raise ContractViolationError(f"eps must be positive and finite, got {eps!r}")
    cap = math.ceil(1.0 / (eps * eps))
    return cap if budget is None else min(cap, int(budget))


def _is_convex(weights: np.ndarray) -> bool:
    """Every weight >= 0 and |sum - 1| <= 1e-10: the simplex rule of x0 and rescale weights. A NaN fails."""
    return weights.min(initial=0.0) >= 0.0 and abs(weights.sum() - 1.0) <= 1e-10


def _vn_step(ynorm2: float, z: float, scale: float) -> tuple[float, float, float]:
    """One von Neumann step y' = (1-l) y + l a, l minimizing |y'| over [0, 1].

    ``ynorm2`` is |y|^2 and ``z`` the inner product of y with the unit
    vector a, at most rounding above 0, so the minimizer lies in [0, 1]: the
    image loop steps only on a z not above its rounding bound, and the
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


def von_neumann(mat, eps: float, budget: int | None = None, x0=None):
    """Drive a convex combination of unit columns toward 0 or a separator.

    Starts from the convex combination ``x0``, by default the first column.
    Each iteration either certifies ``B^T y > 0`` strictly (status
    ``separated``), moves y to the nearest point of the segment toward the
    worst column, or stops with ``|y| <= eps`` (status ``small_norm``). A
    cosine reads positive only above 4 m ulps, the slack its column is
    checked to, so no separation rests on rounding. A step gives
    1/|y'|^2 >= 1/|y|^2 + 1 and any start has |y| <= 1, so at most
    ``ceil(1/eps^2)`` iterations are ever needed; a smaller ``budget`` may
    stop the loop early (``budget_exhausted``).

    The columns must be unit vectors (``linalg.normalize_columns`` makes
    them), held as one C-ordered m x n array B whatever the caller's layout.
    One O(mn) pass checks them: each |b_j|^2 within 4 m ulps of 1, which a
    zero, NaN or infinite column fails too (``ContractViolationError``).
    The loop keeps ``w = B x``, so the cosines z of y with the columns are
    one BLAS gemv into a preallocated n-vector. Besides it a step costs
    O(m): x and w are one shared scale times a vector, ``_vn_step`` updates
    the scale and |y|^2, and the step one entry of x and one column's worth
    of w, the latter by one in-place strided ``daxpy`` (column k starts at
    offset k, stride n), which may fuse the multiply-add, so w can differ
    from the two-op update in the last bit. Every ``_DRIFT_INTERVAL`` steps,
    and before every verdict, w and |y|^2 are recomputed from x; a short w
    is the verdict before any cosine is taken, and y is the w it was taken on.

    Parameters
    ----------
    mat : array (m, n) of unit columns, whitened for a non-euclidean metric
    eps : target norm, positive and finite
    budget : optional iteration cap below the intrinsic bound
    x0 : optional start, n weights >= 0 summing to 1 within 1e-10

    Returns
    -------
    (x, y, status, iterations): x is the convex combination and ``y = B x``.
    """
    mat = np.ascontiguousarray(mat, dtype=float)  # the daxpy offsets read C order
    cap = _vn_cap(eps, budget)
    if mat.ndim != 2 or mat.size == 0:
        raise ContractViolationError(f"expected a nonempty 2-d array, got shape {mat.shape}")
    m, n = mat.shape
    tol = _UNIT_ULPS * m
    norms2 = np.einsum("ij,ij->j", mat, mat)
    if not (1.0 - tol <= norms2.min() and norms2.max() <= 1.0 + tol):  # a NaN fails both
        raise ContractViolationError("von_neumann needs unit columns (see linalg.normalize_columns)")
    mat_flat = mat.ravel()
    eps2 = eps * eps
    # x = scale * xs and w = scale * ws, so a step rescales one float instead
    # of the n-vector x and the m-vector w. With z <= 0 (up to rounding) a
    # step gives 1 - lam >= |y'|^2 / |y|^2, so the factors telescope and scale
    # stays >= |y|^2 / |y at the last refresh|^2: it falls only as far as
    # |y|^2 does, which the eps target bounds, and cannot leave float range.
    # Each refresh folds it back into xs, which is needed against drift only.
    xs = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x0 is None:
        xs[0] = 1.0
    elif xs.shape != (n,) or not _is_convex(xs):
        raise ContractViolationError("x0 must be a convex combination of the n columns")
    scale, ws = 1.0, mat @ xs
    ynorm2 = float(ws @ ws)
    z = np.empty(n)
    cosines = mat.T.dot  # z = mat^T ws, one gemv into z
    fresh = True  # ws and |y|^2 are recomputed from x, not updated
    verdict = False
    iterations = 0
    while True:
        # Verdicts are taken on a freshly recomputed w only; a short w needs no cosines.
        if not fresh and (verdict or iterations % _DRIFT_INTERVAL == 0):
            xs *= scale
            scale, ws = 1.0, mat @ xs
            ynorm2, fresh = float(ws @ ws), True
        if ynorm2 > eps2:
            cosines(ws, out=z)
            k = int(z.argmin())  # lowest index among ties
            zk = z.item(k) * scale
        verdict = ynorm2 <= eps2 or zk > tol
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
        daxpy(mat_flat, ws, m, step, k, n)  # ws += step * mat[:, k], in place
        fresh = False
        iterations += 1
    x = xs * scale
    return x, ws if fresh else mat @ x, status, iterations  # fresh: scale = 1 and ws = B x
