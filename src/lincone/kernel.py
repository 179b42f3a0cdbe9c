"""Rescaled coordinate-descent solvers for Ax = 0, x > 0 and its max-support form.

Both solvers run one loop, ``_rescaling_loop``, over the active columns A_hat_S
(unit columns of A) with the metric held as a factor, Q = U^T U. While some
column makes an angle of more than roughly 90 + eps degrees with y = A_hat_S x
in the Q metric, a DV step moves x; otherwise ``kernel_rescale`` stretches U
along Uy. The columns never move, the metric does.

The two entry points differ only in the policy passed to the loop. Full
support passes no theta: every column stays active, and a y that strictly
separates all of them is reported as the image witness Qy once
``check_image_certificate`` accepts it. Max support passes theta: a column
whose Q-norm outgrows 1/theta provably lies outside the maximum support and is
marked, and marked columns are deleted once dropping them lowers the rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import check_image_certificate
from .conditioning import encoding_length, theta
from .errors import ContractViolationError
from .image import ImageCertificate
from .linalg import as_matrix, column_norms, kernel_projector, normalize_columns, pivoted_rank
from .report import (
    INFEASIBLE_DETECTED,
    NO_CONVERGE,
    SOLVED,
    Limits,
    SolveReport,
    default_limits,
    rescale_epsilon,
    rescaling_bound,
    timed,
)

__all__ = [
    "KernelCertificate",
    "full_support_kernel",
    "kernel_rescale",
    "max_support_kernel",
]

# Incremental caches are rebuilt from scratch this often.
_DV_REFRESH = 10_000
_RESCALE_REFRESH = 25
# The loop ends before max(F_kk, 1) * max(|y|_Q^2, 1) passes this.
_FLOAT_CEILING = 1e300


@dataclass(frozen=True)
class KernelCertificate:
    x: np.ndarray
    support: np.ndarray
    residual: float
    min_support_value: float


def _no_certificate(n: int) -> KernelCertificate:
    return KernelCertificate(x=np.zeros(n), support=np.arange(0), residual=0.0, min_support_value=0.0)


def _certificate(ahat, active: np.ndarray, xbar: np.ndarray, zero_cols: np.ndarray) -> KernelCertificate:
    """Kernel point xbar on the active columns, ones on the zero columns."""
    x = np.zeros(ahat.shape[1])
    x[active] = xbar
    x[zero_cols] = 1.0
    support = np.sort(np.concatenate([active, zero_cols])).astype(int)
    residual = float(np.abs(ahat @ x).max())
    min_val = float(x[support].min()) if support.size else 0.0
    return KernelCertificate(x=x, support=support, residual=residual, min_support_value=min_val)


def kernel_rescale(ufac, fmat, z, ynorm_q2, y, eps):
    """Q-form rescale Q' = (Q + 3 Qy y^T Q / |y|_Q^2) / (1+3 eps)^2 on the factor.

    With Q = U^T U and w = Uy, sqrt(I + 3 w_hat w_hat^T) = I + w_hat w_hat^T,
    so U' = (I + w_hat w_hat^T) U / (1+3 eps). The caches F = A_hat^T Q A_hat
    and z = A_hat^T Q y follow by the matching rank-1 formulas, so the columns
    are never touched; y stays put while its Q-norm grows by 2/(1+3 eps).
    Returns (U', F', z', |y|_Q'^2).
    """
    w = ufac @ y
    wn = float(np.linalg.norm(w))
    if ynorm_q2 <= 0.0 or wn == 0.0:
        raise ContractViolationError("rescale with y = 0: termination should have fired")
    what = w / wn
    ufac = (ufac + np.outer(what, what @ ufac)) / (1.0 + 3.0 * eps)
    fmat = (fmat + 3.0 * np.outer(z, z) / ynorm_q2) / (1.0 + 3.0 * eps) ** 2
    scale = 4.0 / (1.0 + 3.0 * eps) ** 2
    return ufac, fmat, z * scale, ynorm_q2 * scale


def _positive_beyond_noise(v: np.ndarray) -> bool:
    """All components positive by more than projection round-off.

    Components that are exactly zero in real arithmetic come back from the
    projector as +-1e-16 noise, so a strict > 0 test on them is a coin flip;
    anything below 1e-12 of the largest component is treated as zero.
    """
    if v.size == 0:
        return True
    mx = float(np.abs(v).max())
    return mx > 0.0 and bool(np.all(v > 1e-12 * mx))


def _rescaling_loop(ahat, active, limits: Limits, report: SolveReport, *, th=None, hook=None):
    """DV steps and rescales over the columns ``ahat[:, active]``.

    ``th=None`` is the full-support policy: no marking or removal, and a
    worst cosine that stays positive after a refresh ends the run with
    INFEASIBLE_DETECTED. A theta value turns on marking and removal instead.
    Counters go to ``report``. Returns (status, S, v) with S the final active
    set; v is the kernel point Pi x on S when SOLVED, the witness Qy when
    INFEASIBLE_DETECTED, None otherwise.
    """
    m = ahat.shape[0]
    eps = rescale_epsilon(m, limits)
    ufac = np.eye(m)
    S = np.asarray(active, dtype=int)
    marked: set = set()
    # Per-S data, set by rebuild(); F and Pi are symmetric, so row k is column k.
    cols = x = pimat = None
    rank_s = 0
    # Caches, set by refresh(): F = cols^T Q cols, z = F x, |y|_Q^2 = x^T F x, xbar = Pi x.
    fmat = fdiag = qnorms = z = xbar = None
    ynorm_q2 = 0.0
    dv_since_refresh = rescales_since_refresh = 0

    def diagonal():
        nonlocal fdiag, qnorms
        fdiag = fmat.diagonal().copy()
        qnorms = np.sqrt(np.maximum(fdiag, 1e-300))

    def refresh():
        """Recompute the caches from (U, x) without touching S."""
        nonlocal fmat, z, ynorm_q2, xbar, dv_since_refresh, rescales_since_refresh
        wcols = ufac @ cols
        fmat = wcols.T @ wcols
        diagonal()
        wy = wcols @ x
        z = wcols.T @ wy
        ynorm_q2 = float(wy @ wy)
        xbar = pimat @ x
        dv_since_refresh = rescales_since_refresh = 0

    def rebuild():
        """Restart from x = ones on a new active set S."""
        nonlocal cols, x, pimat, rank_s, xbar
        cols = ahat[:, S]
        x = np.ones(S.size)
        xbar = np.zeros(0)
        if S.size:
            pimat = kernel_projector(cols).mat
            if th is not None:
                rank_s = pivoted_rank(cols)
            refresh()

    rebuild()
    while True:
        if S.size == 0:
            return SOLVED, S, xbar
        if xbar.min() > 0.0 and _positive_beyond_noise(xbar):
            refresh()
            # Positivity alone admits float-noise vectors like 1e-16 * e; a
            # genuine kernel point also has a residual tiny relative to its
            # own scale, which noise around Pi x = 0 never does.
            scale_ok = np.abs(cols @ xbar).max() <= 1e-10 * S.size * np.abs(xbar).max()
            if _positive_beyond_noise(xbar) and scale_ok:
                return SOLVED, S, xbar
        ratios = z / qnorms
        k = int(np.argmin(ratios))
        if th is None and z[k] > 0.0:
            refresh()
            if z.min() > 0.0:
                return INFEASIBLE_DETECTED, S, ufac.T @ (ufac @ (cols @ x))
            continue
        if report.fo_iters >= limits.max_iterations:
            break
        if ynorm_q2 <= 0.0:
            refresh()
            if ynorm_q2 <= 0.0:
                break
            continue
        v = ratios[k] / math.sqrt(ynorm_q2)
        if v < -eps:
            c = z[k] / fdiag[k]
            before = ynorm_q2
            x[k] -= c
            z -= c * fmat[k]
            ynorm_q2 = max(ynorm_q2 - c * c * fdiag[k], 0.0)
            xbar -= c * pimat[k]
            report.fo_iters += 1
            dv_since_refresh += 1
            if hook is not None:
                hook("dv", ynorm_q2_before=before, ynorm_q2_after=ynorm_q2, cos=v)
            if dv_since_refresh >= _DV_REFRESH:
                refresh()
            continue

        if report.rescalings >= limits.max_rescalings:
            break
        # |z_k|^2 <= F_kk |y|_Q^2, and a rescale multiplies F and |y|_Q^2 by
        # at most 4 each: stop while the next one still stays in float range.
        if max(float(fdiag.max()), 1.0) * max(ynorm_q2, 1.0) > _FLOAT_CEILING:
            break
        y = cols @ x
        if not y.any():
            refresh()
            continue
        before = ynorm_q2
        if hook is not None:
            w, mat_before = ufac @ y, ufac @ cols
        ufac, fmat, z, ynorm_q2 = kernel_rescale(ufac, fmat, z, ynorm_q2, y, eps)
        diagonal()
        report.rescalings += 1
        rescales_since_refresh += 1
        if hook is not None:
            hook(
                "rescale",
                ynorm_q2_before=before,
                ynorm_q2_after=ynorm_q2,
                y=w,
                mat_before=mat_before,
                mat_after=ufac @ cols,
            )
        if rescales_since_refresh >= _RESCALE_REFRESH:
            refresh()
        if th is None:
            continue

        # Mark columns whose Q-norm has outgrown the theta bound.
        new_marks = [int(j) for j in S[fdiag > 1.0 / (th * th)] if j not in marked]
        if not new_marks:
            continue
        marked.update(new_marks)
        if hook is not None:
            hook("mark", marked=new_marks)
        keep = np.array([i for i, j in enumerate(S) if j not in marked], dtype=int)
        kept_rank = pivoted_rank(ahat[:, S[keep]]) if keep.size else 0
        if kept_rank < rank_s:
            removed = sorted(marked)
            S = S[keep]
            marked = set()
            report.removals += 1
            rebuild()
            if hook is not None:
                hook("remove", removed=removed)
    return NO_CONVERGE, S, None


@timed
def full_support_kernel(mat, limits: Limits | None = None, *, known_rho: float | None = None, hook=None):
    """Find x > 0 with Ax = 0 by DV steps plus rescaling.

    Columns are normalized up front; the kernel projector of the normalized
    matrix never changes, so the positivity test Pi x > 0 is exact bookkeeping.
    Returns (KernelCertificate, SolveReport). Status is ``infeasible_detected``
    when some iterate y strictly separates all columns and the witness Qy
    passes ``check_image_certificate`` (then A^T y > 0 is feasible instead),
    ``no_converge`` when budgets run out, the metric nears float range, or the
    witness fails the check.
    ``hook(event, **data)`` observes dv and rescale events.
    """
    mat = as_matrix(mat)
    m, n = mat.shape
    ahat = normalize_columns(mat)
    if limits is None:
        limits = default_limits(m, n)

    report = SolveReport(status=NO_CONVERGE)
    status, support, v = _rescaling_loop(ahat, np.arange(n), limits, report, hook=hook)
    cert = _no_certificate(n)
    if status == SOLVED:
        cert = _certificate(ahat, support, v, np.arange(0))
        report.residual = cert.residual
        report.margin = cert.min_support_value
    elif status == INFEASIBLE_DETECTED:
        # A DV step leaves its pivot at cosine 0 and a rescale keeps it there,
        # so strict separation can be float noise; only a checked witness counts.
        wn = float(np.linalg.norm(v))
        status = NO_CONVERGE
        if math.isfinite(wn) and wn > 0.0:
            witness = v / wn
            margin = float((ahat.T @ witness).min())
            claim = ImageCertificate(y=witness, support=np.arange(n), min_margin=margin, residual_zero=0.0)
            if check_image_certificate(ahat, claim).valid:
                status = INFEASIBLE_DETECTED
                report.margin = margin
    report.status = status

    if known_rho is not None and known_rho < 0.0:
        bound = rescaling_bound(m, known_rho) + m
        report.add_bound_check("rescalings_vs_rho", bound, float(report.rescalings))
    return cert, report


@timed
def max_support_kernel(mat, limits: Limits | None = None, *, hook=None):
    """Find x >= 0 with Ax = 0 whose support is the largest possible.

    Integral A. Runs the shared loop with theta: a column whose Q-norm
    exceeds 1/theta provably lies outside the maximum support (its Goffin
    bound is violated otherwise) and is marked; marked columns are deleted in
    bulk the moment dropping them lowers the rank, with x reset to ones on
    the survivors. Zero columns trivially belong to the support and are
    filtered up front.

    The metric is held as a factor U with Q = U^T U: the column norms that
    drive marking reach 1/theta, so Q itself would need condition 1/theta^2
    (past float range for m >= 4) while U stays at 1/theta.

    Returns (KernelCertificate, support array, SolveReport).
    """
    mat = as_matrix(mat)
    m, n = mat.shape
    enc = encoding_length(mat)  # also enforces integrality
    th = theta(mat)
    if limits is None:
        limits = default_limits(m, n, encoding_estimate=float(enc))

    norms = column_norms(mat)
    nz = norms > 0.0
    ahat = np.zeros_like(mat, dtype=float)
    ahat[:, nz] = mat[:, nz] / norms[nz]

    report = SolveReport(status=NO_CONVERGE)
    status, support, xbar = _rescaling_loop(ahat, np.flatnonzero(nz), limits, report, th=th, hook=hook)
    if status != SOLVED:
        return _no_certificate(n), np.arange(0), report
    cert = _certificate(ahat, support, xbar, np.flatnonzero(~nz))
    report.status = SOLVED
    report.residual = cert.residual
    report.margin = cert.min_support_value
    return cert, cert.support, report
