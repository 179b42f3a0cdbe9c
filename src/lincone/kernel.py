"""Rescaled coordinate-descent solvers for Ax = 0, x > 0 and its max-support form.

Both solvers run one loop, ``_rescaling_loop``, over the active columns A_hat_S
(unit columns of A) with the metric held as a factor, Q = U^T U. While some
column makes an angle of more than roughly 90 + eps degrees with y = A_hat_S x
in the Q metric, a DV step moves x; otherwise ``kernel_rescale`` stretches U
along Uy. The columns never move, the metric does.

U is the metric's only state. At each rescale the loop derives from it the
log Q-norms ell_k = log |U a_hat_k|, the unit columns
B_hat = U A_hat_S diag(e^-ell) and F_hat = B_hat^T B_hat, which has a unit
diagonal, and works on x_hat = x e^ell up to one common scale, reset so that
|y|_Q = |B_hat x_hat| = 1. Then z = F_hat x_hat is |y|_Q times the Q-cosines
with y, and a DV step on x_hat_k has length -z_k. F_hat and Pi, the kernel
projector with its rows divided by the Q-norms, sit side by side in one
n x 2n array, rows = [F_hat | Pi_hat], and z and xbar = Pi x (same scale) in
one vector, zx = [z | xbar], so a DV step is the single row update
zx -= z_k rows[k], one in-place BLAS daxpy of 2n floats. Consecutive DV
steps run in one inner loop with their scalar state in locals, so a step
costs that daxpy, one argmin of z and a few scalar reads: about 1.7 us at
n = 80 on a 2-vCPU x86 box. Every ``firstorder._DRIFT_INTERVAL`` DV steps
z, |y|^2 and xbar are recomputed from x_hat.

DV steps can zig-zag between two columns k and j whose cosine c = F_hat_kj
is near -1 or 1 (Wolfe 1976): each step shrinks |y|^2 only by the factor
1 - cos^2 of a pivot that stays just below -eps, for thousands of steps.
When the pivot k is the one two steps back, with j != k in between, and
1e-8 < 1 - c^2 < eps, the loop takes instead one exact step on the pair,
the limit of that zig-zag: the minimizer (alpha, beta) of
|y + alpha b_hat_k + beta b_hat_j|, from [[1, c], [c, 1]] (alpha, beta) =
-(z_k, z_j), if alpha, beta >= 0. (alpha, beta) = (-z_k, 0) is a
candidate, so the step lowers |y|^2 at least as far as the DV step it
replaces, and x_hat stays positive and only grows. It counts as one DV step.

The two entry points share one preamble, ``_solve``, which puts zero
columns in the support, and differ only in the policy passed to the loop.
Full support passes ``accept``: every nonzero column stays active, and a y
that strictly separates all of them is returned as the image certificate Qy
once ``certify.certified`` accepts it on the caller's matrix. Max support
passes log(1/theta): a column whose log Q-norm passes it provably lies outside
the maximum support and is marked, and marked columns are deleted once
dropping them lowers the rank. Either solver keeps a kernel certificate as
``solved`` only once ``certified`` accepts it on the caller's matrix.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import daxpy

from .certify import ImageCertificate, KernelCertificate, certified
from .conditioning import encoding_length, theta
from .errors import ContractViolationError
from .firstorder import _DRIFT_INTERVAL
from .image import _NORM_RANGE
from .linalg import _pow2_scaled, as_matrix, column_norms, kernel_projector, normalize_columns, pivoted_rank
from .report import (
    INFEASIBLE_DETECTED,
    NO_CONVERGE,
    SOLVED,
    Limits,
    SolveReport,
    default_limits,
    rescale_epsilon,
    timed,
)

__all__ = [
    "KernelCertificate",
    "full_support_kernel",
    "kernel_rescale",
    "max_support_kernel",
]

# The loop ends once a log Q-norm passes this, so that |U a_k|^2 stays in
# float range through the next rescale, which at most doubles |U a_k|.
_LOG_CEILING = math.log(_NORM_RANGE)
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
_PAIR_DET_FLOOR = 1e-8


def kernel_rescale(ufac, w, eps):
    """Q-form rescale Q' = (Q + 3 Qy y^T Q / |y|_Q^2) / (1+3 eps)^2 on the factor.

    With Q = U^T U and w = Uy (any positive multiple of it),
    sqrt(I + 3 w_hat w_hat^T) = I + w_hat w_hat^T, so
    U' = (I + w_hat w_hat^T) U / (1+3 eps). y stays put while its Q-norm
    grows by 2/(1+3 eps). Returns U'.
    """
    wn = float(np.linalg.norm(w))
    if wn == 0.0:
        raise ContractViolationError("rescale with y = 0: termination should have fired")
    what = w / wn
    return (ufac + np.outer(what, what @ ufac)) / (1.0 + 3.0 * eps)


def _unit_metric(ufac, cols, fmat):
    """Log Q-norms ell and unit columns B_hat = U cols diag(e^-ell), derived from U.

    Writes F_hat = B_hat^T B_hat into ``fmat`` (which may be a view), with
    its diagonal set to exactly 1. Returns (ell, B_hat), or (None, None)
    before any division when a Q-norm reads 0 or not finite.
    """
    wcols = ufac @ cols
    qnorms = column_norms(wcols)
    if not (qnorms.min() > 0.0 and qnorms.max() < math.inf):  # a NaN fails too
        return None, None
    bhat = wcols / qnorms
    np.matmul(bhat.T, bhat, out=fmat)
    np.fill_diagonal(fmat, 1.0)
    return np.log(qnorms), bhat


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


def _rescaling_loop(ahat, active, limits: Limits, report: SolveReport, *, log_inv_theta=None, accept=None,
                    hook=None):
    """DV steps and rescales over the columns ``ahat[:, active]``.

    Full support passes ``accept``, a check of a witness Qy that returns its
    certificate or None: when every cosine stays positive after a refresh,
    an accepted witness ends the run INFEASIBLE_DETECTED and a rejected one
    is rescaled past. Max support passes ``log_inv_theta`` = log(1/theta),
    which turns on marking and removal. Counters go to ``report``. Returns (status, S, v) with S the
    final active set; v is the kernel point Pi x on S (up to scale) when
    SOLVED, the certificate ``accept`` returned when INFEASIBLE_DETECTED,
    None otherwise.

    ``refresh`` writes into the views z and xbar, never rebinding them. The
    gate min xbar > 0 is read at ``low``, the last scanned argmin of xbar:
    min xbar <= xbar[low], so it rescans only when xbar[low] > 0 (a NaN there
    fails the gate, as the minimum would). The run ends ``no_converge``
    early when a log Q-norm passes ``_LOG_CEILING`` before a rescale, reads
    0 or not finite (ell None), or when after a refresh |y| is at its
    rounding floor 4 n u |x_hat|_1, where the unit columns' cosines read noise.

    Consecutive DV steps run in one inner loop, hook or no hook. It hands
    back to the outer loop, with ``report.fo_iters`` written back, once
    xbar[low] > 0, the next pivot is no DV step (cos >= -eps or |y|^2 <= 0),
    the budget is spent or a refresh is due. Each step is one in-place
    ``daxpy`` on zx (``rowlist`` holds the row views): about 1.7 us at
    n = 80 on a 2-vCPU x86 box. A pair step is two, with
    |y'|^2 = |y|^2 + alpha z_k + beta z_j. Its pivots k, j are the last two
    since the last rescale (``back``, ``last``), so an alternation that the
    outer loop interrupts still counts. The guard 1 - c^2 < eps leaves
    alternations that shrink |y| fast to single steps, and 1 - c^2 > 1e-8,
    tested before dividing, keeps the 2 x 2 solve well posed (c = +-1 would
    divide by 0). daxpy may fuse the multiply-add, so z and
    xbar can differ from the two-op update zx -= z_k rows[k] in the last
    bit; on draws at the rounding floor that moves the step count. zx must
    stay one contiguous float64 array, or f2py hands back a copy and the
    update is lost.
    """
    m = ahat.shape[0]
    eps = rescale_epsilon(m)
    ufac = np.eye(m)
    S = np.asarray(active, dtype=int)
    # Per-S data, set by rebuild(); ``marked`` flags the positions in S marked
    # for removal, ``low`` is the position of the last scanned minimum of xbar.
    cols = x = rows = rowlist = fmat = pimat = zx = z = xbar = marked = ell = bhat = None
    low = 0
    back = last = -1  # the pivots of the last two DV steps since the last rescale
    ynorm_q2 = 0.0
    dv_since_refresh = 0

    def refresh(drifted=True):
        """Recompute z, |y|^2 and xbar; True when |y| is at its rounding floor.

        ``drifted`` is False after a rebuild or rescale, which leave zx stale.
        """
        nonlocal ynorm_q2, dv_since_refresh
        drifted = zx.copy() if hook is not None and drifted else None
        w = bhat @ x
        np.matmul(w, bhat, out=z)
        ynorm_q2 = float(w @ w)
        np.matmul(x, pimat, out=xbar)
        xnorm1 = float(x.sum())
        dv_since_refresh = 0
        if hook is not None:
            hook("refresh", active=S, ufac=ufac, xhat=x, rows=rows, zx=zx, zx_drifted=drifted)
        return ynorm_q2 <= (4.0 * S.size * _UNIT_ROUNDOFF * xnorm1) ** 2

    def rebuild():
        """Restart from x = ones on a new active set S, nothing marked."""
        nonlocal cols, x, rows, rowlist, fmat, pimat, zx, z, xbar, low, marked, ell, bhat
        rows = rowlist = fmat = pimat = None  # free the old rows before the new projector
        n = S.size
        cols = ahat[:, S]
        marked = np.zeros(n, dtype=bool)
        low = 0
        zx = np.zeros(2 * n)
        z, xbar = zx[:n], zx[n:]
        if n:
            proj = kernel_projector(cols)
            rows = np.empty((n, 2 * n))
            rowlist = list(rows)
            fmat, pimat = rows[:, :n], rows[:, n:]
            ell, bhat = _unit_metric(ufac, cols, fmat)
            if ell is None:
                return
            np.multiply(proj, np.exp(-ell)[:, None], out=pimat)
            x = np.exp(ell - ell.max())
            refresh(drifted=False)

    # rank(A_S) for the removal test; a removal takes the rank that test computed.
    rank_s = pivoted_rank(ahat[:, S]) if log_inv_theta is not None and S.size else 0
    rebuild()
    while True:
        if S.size == 0:
            return SOLVED, S, xbar
        if xbar[low] > 0.0:
            low = int(xbar.argmin())
            if xbar[low] > 0.0 and _positive_beyond_noise(xbar):
                refresh()
                # Positivity alone admits float-noise vectors like 1e-16 * e; a
                # genuine kernel point also has a residual tiny relative to its
                # own scale, which noise around Pi x = 0 never does.
                scale_ok = np.abs(cols @ xbar).max() <= 1e-10 * S.size * np.abs(xbar).max()
                if _positive_beyond_noise(xbar) and scale_ok:
                    return SOLVED, S, xbar
        k = int(z.argmin())
        zk = float(z[k])
        if accept is not None and zk > 0.0:
            refresh()
            if z.min() <= 0.0:
                continue
            claim = accept(ufac.T @ (bhat @ x))
            if claim is not None:
                return INFEASIBLE_DETECTED, S, claim
        if report.fo_iters >= limits.max_iterations:
            break
        if ynorm_q2 <= 0.0:
            if refresh():
                break
            continue
        v = zk / math.sqrt(ynorm_q2)
        if v < -eps:
            # Step while the outer loop would step again; on any exit it
            # re-reads the handed-back state in its own order.
            steps, since, y2 = report.fo_iters, dv_since_refresh, ynorm_q2
            cap, size = limits.max_iterations, zx.size
            while True:
                # k was the pivot two steps back, with another since: step
                # to the minimizer of |y| over the pair when they are nearly
                # (anti)parallel and it moves both weights up.
                pair = False
                if k == back != last:
                    c = fmat.item(k, last)
                    det = 1.0 - c * c
                    if _PAIR_DET_FLOOR < det < eps:
                        zj = z.item(last)
                        alpha, beta = (c * zj - zk) / det, (c * zk - zj) / det
                        pair = alpha >= 0.0 and beta >= 0.0
                before = y2
                if pair:
                    x[k] += alpha
                    x[last] += beta
                    daxpy(rowlist[k], zx, size, alpha)
                    daxpy(rowlist[last], zx, size, beta)
                    y2 = max(y2 + alpha * zk + beta * zj, 0.0)
                else:
                    x[k] -= zk
                    daxpy(rowlist[k], zx, size, -zk)
                    y2 = max(y2 - zk * zk, 0.0)
                steps += 1
                since += 1
                if hook is not None:
                    hook("dv", ynorm_q2_before=before, ynorm_q2_after=y2, cos=v, pivots=(k, last) if pair else (k,))
                back, last = last, k
                if since >= _DRIFT_INTERVAL or steps >= cap or xbar.item(low) > 0.0 or y2 <= 0.0:
                    break
                k = int(z.argmin())
                zk = z.item(k)
                v = zk / math.sqrt(y2)
                if not v < -eps:
                    break
            report.fo_iters, dv_since_refresh, ynorm_q2 = steps, since, y2
            if since >= _DRIFT_INTERVAL and refresh():
                break
            continue

        if report.rescalings >= limits.max_rescalings or float(ell.max()) > _LOG_CEILING:
            break
        w = bhat @ x
        if not w.any():
            break
        mat_before = ufac @ cols if hook is not None else None
        ufac = kernel_rescale(ufac, w, eps)
        back = last = -1
        old_ell = ell
        ell, bhat = _unit_metric(ufac, cols, fmat)
        if ell is None:
            break
        grow = np.exp(ell - old_ell)
        x *= grow
        pimat /= grow[:, None]
        after = bhat @ x
        ynorm_q2_after = float(after @ after)
        x /= math.sqrt(ynorm_q2_after)
        at_floor = refresh(drifted=False)
        report.rescalings += 1
        if hook is not None:
            hook(
                "rescale",
                ynorm_q2_before=float(w @ w),
                ynorm_q2_after=ynorm_q2_after,
                y=w,
                mat_before=mat_before,
                mat_after=ufac @ cols,
            )
        if at_floor:
            break
        if log_inv_theta is None:
            continue

        # Mark columns whose Q-norm has outgrown the theta bound.
        new_marks = (ell > log_inv_theta) & ~marked
        if not new_marks.any():
            continue
        marked |= new_marks
        if hook is not None:
            hook("mark", marked=S[new_marks].tolist())
        keep = S[~marked]
        kept_rank = pivoted_rank(ahat[:, keep]) if keep.size else 0
        if kept_rank < rank_s:
            removed = S[marked].tolist()
            S, rank_s = keep, kept_rank
            report.removals += 1
            rebuild()
            if hook is not None:
                hook("remove", removed=removed)
            if ell is None:
                break
    return NO_CONVERGE, S, None


def _solve(mat, limits: Limits, hook, log_inv_theta=None):
    """Both entry points' preamble and outcome: zero columns take x_j = 1, the loop runs on the rest.

    Full support (no ``log_inv_theta``) passes ``accept``: a witness Qy with
    a_j^T y > 0 on every nonzero column rules out x > 0 with Ax = 0 whatever
    the zero columns (Gordan), once ``certified`` accepts it on ``mat``. A
    ``solved`` run's kernel point, v on the surviving columns and ones on the
    zero ones, counts only once ``certified`` accepts it too. Otherwise the
    certificate is an empty KernelCertificate and ``report`` keeps its
    ``no_converge``. Returns (certificate, report).
    """
    nz = mat.any(axis=0)
    active = np.flatnonzero(nz)
    ahat = np.zeros_like(mat)
    ahat[:, nz] = normalize_columns(mat[:, nz])
    report = SolveReport(status=NO_CONVERGE)

    def accept(v):
        # A DV step leaves its pivot at cosine 0 and a rescale keeps it there,
        # so strict separation can be float noise; only a witness that the
        # checker accepts on the caller's matrix, margin > 0 included, counts.
        v = _pow2_scaled(v)[0]  # |Qy| can pass float range where Qy does not
        wn = float(np.linalg.norm(v))
        if not (math.isfinite(wn) and wn > 0.0):
            return None
        return certified(mat, ImageCertificate(v / wn, active))

    status, support, v = _rescaling_loop(ahat, active, limits, report, log_inv_theta=log_inv_theta,
                                         accept=accept if log_inv_theta is None else None, hook=hook)
    if status == SOLVED:
        x = (~nz).astype(float)
        x[support] = v
        v = certified(mat, KernelCertificate(x, np.union1d(support, np.flatnonzero(~nz))))
    if v is None:
        return KernelCertificate(np.zeros(mat.shape[1]), np.arange(0)), report
    report.status = status
    if status == SOLVED:
        report.margin, report.residual = v.min_support_value, v.residual
    else:
        report.margin, report.residual = v.min_margin, v.residual_zero
    return v, report


@timed
def full_support_kernel(mat, limits: Limits | None = None, *, hook=None):
    """Find x > 0 with Ax = 0 by DV steps plus rescaling.

    Columns are normalized up front; the kernel projector of the normalized
    matrix never changes, so the positivity test Pi x > 0 is exact bookkeeping.
    A zero column takes x_j = 1 and the loop runs on the others.
    Returns (certificate, SolveReport): a KernelCertificate, checked by
    ``check_kernel_certificate`` on ``mat`` when ``solved``. Status is
    ``infeasible_detected``, with the ImageCertificate of Qy on the nonzero
    columns instead, when some iterate y strictly separates them and that
    certificate passes ``check_image_certificate`` on ``mat``; a witness that
    fails the check is dropped and the loop rescales on. ``no_converge`` when
    budgets run out, the metric nears float range, |y| sinks to its rounding
    floor, or the kernel certificate fails its check.
    ``hook(event, **data)`` observes the loop's events.
    """
    mat = as_matrix(mat)
    m, n = mat.shape
    return _solve(mat, default_limits(m, n, given=limits), hook)


@timed
def max_support_kernel(mat, limits: Limits | None = None, *, hook=None):
    """Find x >= 0 with Ax = 0 whose support is the largest possible.

    Integral A. Runs the shared loop with log(1/theta): a column whose
    Q-norm exceeds 1/theta provably lies outside the maximum support (its
    Goffin bound is violated otherwise) and is marked; marked columns are
    deleted in bulk the moment dropping them lowers the rank, with x reset
    to ones on the survivors. Zero columns trivially belong to the support
    and are filtered up front.

    The metric is held as a factor U with Q = U^T U: the column norms that
    drive marking reach 1/theta, so Q itself would need condition 1/theta^2
    (past float range for m >= 4) while U stays at 1/theta. Marking compares
    logs; a theta that underflows to 0 reads log(1/theta) = inf, above any
    log Q-norm the loop reaches (at most ``_LOG_CEILING`` + log 2).

    Returns (KernelCertificate, support array, SolveReport); ``solved`` only
    once ``check_kernel_certificate`` accepts the certificate on ``mat``.
    """
    mat = as_matrix(mat)
    m, n = mat.shape
    enc = encoding_length(mat)  # also enforces integrality
    th = theta(mat)
    log_inv_theta = -math.log(th) if th > 0.0 else math.inf
    limits = default_limits(m, n, encoding_estimate=float(enc), given=limits)
    cert, report = _solve(mat, limits, hook, log_inv_theta)
    return cert, cert.support, report
