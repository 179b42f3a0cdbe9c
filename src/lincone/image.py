"""Multi-rank rescaling solvers for A^T y > 0 and its max-support form.

Both solvers run one loop, ``_rescaling_loop``. The metric R grows by the
convex combination the inner loop returns whenever that combination is short,
which inflates det(R) geometrically while the feasible cap stays inside the
ellipsoid E(R). R is never stored: each rescale moves it into the coordinates,
so in the current ones R = I and a column's Q-norm is its euclidean length,
and each step factors only R' = (I + sum x_i c_i c_i^T / |c_i|^2) / (1+eps),
of condition at most 2. The max-support solver passes theta and the
full-support solver passes 0: after each rescale the loop projects out every
column whose Q-norm dropped below theta (such a column can never be strictly
positive), so with theta = 0 no column is ever scanned or removed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .conditioning import encoding_length, theta
from .errors import ContractViolationError
from .firstorder import BUDGET_EXHAUSTED, SEPARATED, von_neumann
from .linalg import (
    SymPosDef,
    as_matrix,
    column_norms,
    normalize_columns,
    orthocomplement_basis,
    pivoted_rank,
)
from .report import (
    NO_CONVERGE,
    SOLVED,
    BoundCheck,
    Limits,
    SolveReport,
    default_limits,
    rescale_epsilon,
    rescaling_bound,
    timed,
)

__all__ = [
    "ImageState",
    "ImageCertificate",
    "full_support_image",
    "image_rescale",
    "max_support_image",
    "short_column_scan",
]

# Determinant growth floor per rescale and its float slack, for every solver
# that rescales through ``_grow_metric``.
_DET_GROWTH = 16.0 / 9.0
_LEDGER_SLACK = 1e-8
_DROP_FACTOR = 1e-9


@dataclass
class ImageState:
    """The projected problem the rescaling loop works on, in coordinates where R = I.

    E (r x |T|, r = m until a removal) holds the surviving columns in
    euclidean coordinates of the subspace left by the removals; A_cur = W E
    holds them in the current coordinates (W the accumulated whitening, R =
    W^-1 W^-T), so |A_cur_j| is a Q-norm. M maps a current point back, y =
    M y_cur. gamma and alpha track alpha W W^T + sum gamma_i c_i c_i^T / |E_i|^2
    = I over the current columns c_i for invariant checking, up to ``slack``:
    the mass of the terms removals dropped, zero in exact arithmetic, but the
    rounding a column shrunk to Q-norm q keeps is magnified by gamma_i ~ 1/q^2.
    """

    M: np.ndarray
    E: np.ndarray
    gamma: np.ndarray
    alpha: float
    A_cur: np.ndarray
    T: np.ndarray
    theta: float
    eps: float
    slack: float = 0.0


@dataclass(frozen=True)
class ImageCertificate:
    y: np.ndarray
    support: np.ndarray
    min_margin: float
    residual_zero: float


def _grow_metric(cols: np.ndarray, w: np.ndarray, eps: float):
    """The ledgered growth step R' = (I + sum_i w_i c_i c_i^T) / (1+eps).

    Shared by the image and oracle solvers, in coordinates where the metric
    so far is I. Each passes weights that make the sum a convex combination of
    outer products of unit vectors, so R' has its eigenvalues in
    [1/(1+eps), 2/(1+eps)]. det R' is the metric's growth and must be at least
    16/9; anything less means the caller rescaled on a combination that was
    not short, and raises. Returns (W' = L'^-1 for R' = L' L'^T, det R'): W'
    maps to the next coordinates, where the metric is I again.
    """
    new_r = SymPosDef((np.eye(cols.shape[0]) + (cols * w) @ cols.T) / (1.0 + eps))
    ratio = math.exp(new_r.logdet)
    if ratio < _DET_GROWTH * (1.0 - _LEDGER_SLACK):
        raise ContractViolationError(f"determinant grew only by {ratio}, below 16/9")
    return new_r.inv_factor, ratio


def _growth_check(min_ratio: float) -> BoundCheck:
    """Ledger report: the least determinant growth seen over a run's rescales."""
    return BoundCheck(
        name="det_growth_per_rescale_min",
        bound=_DET_GROWTH,
        observed=min_ratio,
        passed=min_ratio >= _DET_GROWTH * (1.0 - _LEDGER_SLACK),
    )


def image_rescale(state: ImageState, x: np.ndarray):
    """Grow the metric by the weighted outer products of the active columns.

    R' = (R + sum_i x_i a_i a_i^T / |a_i|_Q^2) / (1+eps) for convex x reads
    (I + sum_i x_i c_i c_i^T / |c_i|^2) / (1+eps) in the current coordinates;
    det grows by at least 2/(1+eps)^r >= 16/9. Its factor W' re-bases,
    A_cur <- W' A_cur and M <- M W'^T; gamma and alpha keep the decomposition
    exact. Returns (new state, det growth).
    """
    x = np.asarray(x, dtype=float)
    if abs(float(x.sum()) - 1.0) > 1e-8 or np.any(x < -1e-12):
        raise ContractViolationError("rescale weights must be a convex combination")
    cols = state.A_cur
    qnorm2 = column_norms(cols) ** 2
    if np.any(qnorm2 <= 0.0):
        raise ContractViolationError("zero Q-norm column in rescale")
    wfac, ratio = _grow_metric(cols, x / qnorm2, state.eps)
    eucl2 = column_norms(state.E) ** 2
    gamma = (state.gamma + x * eucl2 / qnorm2) / (1.0 + state.eps)
    alpha = state.alpha / (1.0 + state.eps)
    return replace(state, M=state.M @ wfac.T, gamma=gamma, alpha=alpha, A_cur=wfac @ cols), ratio


def _check_decomposition(state: ImageState) -> float:
    """Max entrywise error of alpha W W^T + sum gamma_i c_i c_i^T / |E_i|^2 = I beyond the slack.

    W = A_cur E^+, as E keeps full row rank: a removal drops only columns in
    the span of the removed one.
    """
    cols = state.A_cur
    wfac = cols @ np.linalg.pinv(state.E)
    scaled = cols / column_norms(state.E)
    recon = state.alpha * (wfac @ wfac.T) + (scaled * state.gamma) @ scaled.T
    return max(float(np.abs(recon - np.eye(cols.shape[0])).max()) - state.slack, 0.0)


def _rescaling_loop(ahat, active, limits: Limits, report: SolveReport, th: float, *, fo, debug: bool, hook):
    """Inner-loop phases and rescales over the columns ``ahat[:, active]``.

    ``th = 0`` is the full-support policy: no column scan and no removal.
    A positive theta projects out every active column whose Q-norm drops
    below it after a rescale. Counters and ledger bound checks go to
    ``report``. Returns (ImageCertificate, support).
    """
    m, n = ahat.shape
    eps = rescale_epsilon(m, limits)
    if fo is None:
        fo = von_neumann

    state = ImageState(
        M=np.eye(m),
        E=ahat[:, active].copy(),
        gamma=np.zeros(len(active)),
        alpha=1.0,
        A_cur=ahat[:, active].copy(),
        T=np.asarray(active, dtype=int),
        theta=th,
        eps=eps,
    )
    min_growth = math.inf
    min_removal = math.inf
    removal_floor = th * th / (2.0 * (n + 1.0))
    max_phase_iters = 0
    status = NO_CONVERGE
    ybar = np.zeros(m)

    def ledger_checks():
        gammas = state.gamma
        if th > 0.0 and gammas.size and float(gammas.max()) > 2.0 / (th * th) * (1.0 + _LEDGER_SLACK):
            raise ContractViolationError("gamma exceeded 2/theta^2")
        if debug:
            err = _check_decomposition(state)
            if err > 1e-8:
                raise ContractViolationError(f"gamma decomposition drifted: {err}")

    while True:
        if len(state.T) == 0:
            status = SOLVED
            break
        fstate, outcome = fo(state.A_cur, eps)
        report.fo_iters += outcome.iterations
        max_phase_iters = max(max_phase_iters, outcome.iterations)
        if outcome.status == SEPARATED:
            # a_hat_j^T (M y) = c_j^T y, so y_bar = M y satisfies the strict
            # inequalities the inner loop checked.
            ybar = state.M @ fstate.y
            ybar = ybar / np.linalg.norm(ybar)
            status = SOLVED
            break
        if outcome.status == BUDGET_EXHAUSTED:
            break
        if report.rescalings >= limits.max_rescalings or report.fo_iters >= limits.max_iterations:
            break
        state, ratio = image_rescale(state, fstate.x)
        min_growth = min(min_growth, ratio)
        report.rescalings += 1
        ledger_checks()
        if hook is not None:
            hook("rescale", state=state, x=fstate.x, y=fstate.y, ratio=ratio)
        if th == 0.0:
            continue
        # Project out short columns one at a time, re-scanning after each.
        while True:
            short = short_column_scan(state)
            if short.size == 0:
                break
            pos = int(np.flatnonzero(state.T == short[0])[0])
            state, ratio, dropped = _remove_column(state, pos)
            report.removals += 1
            min_removal = min(min_removal, ratio)
            if ratio < removal_floor * (1.0 - _LEDGER_SLACK):
                raise ContractViolationError(f"removal det ratio {ratio} below theta^2/(2(n+1))")
            if hook is not None:
                hook("remove", state=state, ratio=ratio, dropped=dropped)
            # Projecting out the last dimension drops every column with it.
            if len(state.T) == 0:
                break
            ledger_checks()

    if status == SOLVED:
        support = np.asarray(state.T, dtype=int)
        report.status = SOLVED
        margins = ahat[:, support].T @ ybar if support.size else np.zeros(0)
        off = np.setdiff1d(np.arange(n), support)
        residual = float(np.abs(ahat[:, off].T @ ybar).max()) if off.size else 0.0
        cert = ImageCertificate(
            y=ybar,
            support=support,
            min_margin=float(margins.min()) if margins.size else 0.0,
            residual_zero=residual,
        )
        report.margin = cert.min_margin
        report.residual = residual
    else:
        support = np.arange(0)
        cert = ImageCertificate(y=np.zeros(m), support=support, min_margin=0.0, residual_zero=0.0)

    if report.rescalings > 0:
        report.bound_checks.append(_growth_check(min_growth))
    if report.removals > 0:
        report.bound_checks.append(
            BoundCheck(
                name="removal_det_ratio_min",
                bound=removal_floor,
                observed=min_removal,
                passed=min_removal >= removal_floor * (1.0 - _LEDGER_SLACK),
            )
        )
    report.add_bound_check("fo_iters_per_phase", float(math.ceil(1.0 / (eps * eps))), float(max_phase_iters))
    return cert, support


@timed
def full_support_image(
    mat,
    limits: Limits | None = None,
    *,
    known_rho: float | None = None,
    fo=None,
    debug: bool = False,
    hook=None,
):
    """Find y with A^T y > 0 strictly, assuming full row rank.

    Alternates the inner first-order loop (von Neumann by default, or
    ``fo(cols, eps)``) on the columns in the current coordinates with
    multi-rank rescales of the metric: the shared loop with theta = 0, so no
    column is ever removed. A separated outcome hands back y_bar = M y, the
    paper's Qy.
    Returns (ImageCertificate, SolveReport).
    """
    mat = as_matrix(mat)
    m, n = mat.shape
    if pivoted_rank(mat) != m:
        raise ContractViolationError("image solver requires full row rank")
    ahat = normalize_columns(mat)
    if limits is None:
        limits = default_limits(m, n)

    report = SolveReport(status=NO_CONVERGE)
    cert, _ = _rescaling_loop(ahat, np.arange(n), limits, report, 0.0, fo=fo, debug=debug, hook=hook)
    if known_rho is not None and known_rho > 0.0:
        report.add_bound_check(
            "rescalings_vs_rho", rescaling_bound(m, known_rho, image=True), float(report.rescalings)
        )
    return cert, report


def short_column_scan(state: ImageState) -> np.ndarray:
    """Original indices of active columns with |a_hat_k|_Q = |c_k| / |E_k| below theta."""
    short = column_norms(state.A_cur) / column_norms(state.E) < state.theta
    return state.T[short]


def _remove_column(state: ImageState, pos: int):
    """Project out the short column at position pos and drop everything in its span.

    a_k^T y = 0 reads c_k^T y_cur = 0, so the current coordinates restrict to
    c_k^perp, where the metric stays I, and E to E_k^perp; columns whose E copy
    is in the span of E_k drop out. det shrinks by |c_k|^2 / |E_k|^2 =
    |a_hat_k|_Q^2. Returns (new_state, det_ratio, dropped_original_indices).
    """
    c_k = state.A_cur[:, pos]
    e_k = state.E[:, pos]
    ratio = float(c_k @ c_k) / float(e_k @ e_k)
    v = orthocomplement_basis(c_k)
    w = orthocomplement_basis(e_k)
    cur = v.T @ state.A_cur
    proj = w.T @ state.E
    old_norms = column_norms(state.E)
    new_norms = column_norms(proj)
    keep = new_norms > _DROP_FACTOR * old_norms
    keep[pos] = False
    dropped = state.T[~keep]
    shrink = (new_norms / old_norms) ** 2
    lost = state.gamma * (column_norms(cur) / old_norms) ** 2

    new_state = replace(
        state,
        M=state.M @ v,
        E=proj[:, keep],
        gamma=(state.gamma * shrink)[keep],
        A_cur=cur[:, keep],
        T=state.T[keep],
        slack=state.slack + float(lost[~keep].sum()),
    )
    return new_state, ratio, dropped


@timed
def max_support_image(mat, limits: Limits | None = None, *, fo=None, debug: bool = False, hook=None):
    """Find y maximizing the set of strict inequalities a_i^T y > 0.

    Integral full-row-rank input. Runs the shared loop with theta: columns
    whose Q-norm falls below theta are provably zero in every image vector;
    each such column is projected out, shrinking the working dimension, until
    the inner loop separates whatever is left. Returns (ImageCertificate,
    support, SolveReport).
    """
    mat = as_matrix(mat)
    m, n = mat.shape
    ell = encoding_length(mat)  # also the integrality gate
    if pivoted_rank(mat) != m:
        raise ContractViolationError("image solver requires full row rank")
    th = theta(mat)
    if limits is None:
        limits = default_limits(m, n, encoding_estimate=float(ell))

    norms = column_norms(mat)
    active = np.flatnonzero(norms > 0.0)
    ahat = np.zeros_like(mat, dtype=float)
    ahat[:, active] = mat[:, active] / norms[active]

    report = SolveReport(status=NO_CONVERGE)
    cert, support = _rescaling_loop(ahat, active, limits, report, th, fo=fo, debug=debug, hook=hook)
    return cert, support, report
