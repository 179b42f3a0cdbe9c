"""Multi-rank rescaling solvers for A^T y > 0 and its max-support form.

Both solvers run one loop, ``_rescaling_loop``. The metric R grows by the
convex combination the inner loop returns whenever that combination is short,
which inflates det(R) geometrically while the feasible cap stays inside the
ellipsoid E(R). R is never stored: each rescale moves it into the coordinates,
so in the current ones R = I and a column's Q-norm is its euclidean length,
and each step factors only R' = (I + sum x_i b_i b_i^T) / (1+eps) on the
unit columns b_i, of condition at most 2. The max-support solver passes theta
and the full-support solver None: after each rescale the loop projects out
every column whose Q-norm dropped below theta (such a column can never be
strictly positive), so with None no column is ever scanned or removed.
Either solver reports ``solved`` only once ``certify.certified`` accepts its
certificate on the caller's matrix, and ``no_converge`` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .certify import ImageCertificate, certified
from .conditioning import encoding_length, theta
from .errors import ContractViolationError
from .firstorder import BUDGET_EXHAUSTED, SEPARATED, _is_convex, _vn_cap, von_neumann
from .linalg import (
    TAU_RANK_FACTOR,
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
# Every rescaling loop ends ``no_converge`` once the metric has moved a
# column's norm by this factor (the kernel's Q-norms up, the image solver's
# Q-norms and the oracle's answers down), so their squares stay in float range.
_NORM_RANGE = 1e150


@dataclass
class ImageState:
    """The projected problem the rescaling loop works on, in coordinates where R = I.

    E (r x |T|, r = m until a removal) holds the surviving columns in
    euclidean coordinates of the subspace left by the removals, E_norms their
    lengths. The current coordinates hold them as c_j = W E_j (R = W^-1 W^-T):
    C-ordered unit columns B_hat and log Q-norms log_q = log |c_j|. M maps a
    current point back, y = M y_cur. gamma and alpha track alpha W W^T + sum
    gamma_i c_i c_i^T / |E_i|^2 = I for invariant checking, up to ``slack``:
    the mass of the terms removals dropped, zero in exact arithmetic, but the
    rounding a column shrunk to Q-norm q keeps is magnified by gamma_i ~ 1/q^2.
    """

    M: np.ndarray
    E: np.ndarray
    E_norms: np.ndarray
    gamma: np.ndarray
    alpha: float
    B_hat: np.ndarray
    log_q: np.ndarray
    T: np.ndarray
    theta: float | None
    eps: float
    slack: float = 0.0


def _grow_metric(cols: np.ndarray, weights: np.ndarray, eps: float):
    """The ledgered growth step R' = (I + sum_i x_i c_i c_i^T) / (1+eps).

    The one rescale step of the image and oracle solvers, in coordinates where
    the metric so far is I. Its columns c_i are unit vectors: the image
    solver passes those in supp(x), the oracle solver its active set, since a
    zero weight adds nothing. Its weights x must pass ``_is_convex``, or it
    raises. Then R' has its eigenvalues in [1/(1+eps), 2/(1+eps)]. det R' is
    the metric's growth and must be at least 16/9; anything less means the
    caller rescaled on a combination that was not short, and raises. Returns
    (W' = L'^-1 for R' = L' L'^T, det R'): W' maps to the next coordinates,
    where the metric is I again.
    """
    if not _is_convex(weights):
        raise ContractViolationError("rescale weights must be a convex combination")
    new_r = (cols * weights) @ cols.T  # a fresh C-ordered array, which R' is built in
    new_r.ravel()[:: len(new_r) + 1] += 1.0
    new_r = SymPosDef(np.divide(new_r, 1.0 + eps, out=new_r))
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


def _phase_check(eps: float, most: int) -> BoundCheck:
    """The most first-order steps any phase took, against the ceil(1/eps^2) bound."""
    return BoundCheck("fo_iters_per_phase", float(_vn_cap(eps, None)), float(most), most <= _vn_cap(eps, None))


def image_rescale(state: ImageState, x: np.ndarray):
    """Grow the metric by the weighted outer products of the active columns.

    R' = (R + sum_i x_i a_i a_i^T / |a_i|_Q^2) / (1+eps) for convex x reads
    (I + sum_i x_i b_i b_i^T) / (1+eps) in the current coordinates:
    ``_grow_metric`` on the unit columns b_i and the weights x_i of supp(x),
    which it checks; a zero weight adds nothing to R' or to the check. Its
    factor W' re-bases, B_hat <- W' B_hat (O(m^2 n)) rescaled to unit columns
    whose norms' logs add to log_q, and M <- M W'^T; gamma and alpha keep the
    decomposition exact: gamma_i grows on supp(x), then every gamma_i and
    alpha is divided by 1+eps. Returns (new state, det growth).
    """
    x = np.asarray(x, dtype=float)
    used = np.flatnonzero(x)
    wfac, ratio = _grow_metric(state.B_hat[:, used], x[used], state.eps)
    cur = wfac @ state.B_hat
    nu2 = np.einsum("ij,ij->j", cur, cur)
    if not nu2.min() > 0.0:
        raise ContractViolationError("zero Q-norm column in rescale")
    cur *= 1.0 / np.sqrt(nu2)
    gamma = state.gamma.copy()
    gamma[used] += x[used] * (state.E_norms[used] * np.exp(-state.log_q[used])) ** 2
    gamma /= 1.0 + state.eps
    alpha = state.alpha / (1.0 + state.eps)
    log_q = state.log_q + 0.5 * np.log(nu2)
    return replace(state, M=state.M @ wfac.T, gamma=gamma, alpha=alpha, B_hat=cur, log_q=log_q), ratio


def _check_decomposition(state: ImageState) -> float:
    """Max entrywise error of alpha W W^T + sum gamma_i c_i c_i^T / |E_i|^2 = I beyond the slack.

    c = B_hat e^log_q and W = c E^+, as E keeps A's full row rank: a removal
    drops only columns in the span of the removed one.
    """
    cols = state.B_hat * np.exp(state.log_q)
    wfac = cols @ np.linalg.pinv(state.E)
    scaled = cols / state.E_norms
    recon = state.alpha * (wfac @ wfac.T) + (scaled * state.gamma) @ scaled.T
    return max(float(np.abs(recon - np.eye(cols.shape[0])).max()) - state.slack, 0.0)


def _rescaling_loop(ahat, active, limits: Limits, report: SolveReport, th: float | None, *, hook):
    """Inner-loop phases and rescales over the columns ``ahat[:, active]``.

    ``th = None`` is the full-support policy: no scan, no removal, and each
    phase after the first starts where the last one ended. A theta projects out
    each active column whose Q-norm drops below it after a rescale (none at
    theta = 0), and its phases start cold. The run ends ``no_converge`` before
    a rescale on columns of Q-norm below 1 / ``_NORM_RANGE``, where those of an
    image-infeasible cone end up and the gamma ledger nears float range.
    Counters and bound checks go to ``report``. Returns (y, support) with
    support the surviving columns: y = M y_cur, of unit length, once the inner
    loop separates them, 0 once none survive, else None.
    """
    m, n = ahat.shape
    eps = rescale_epsilon(m)

    bhat = ahat.take(active, axis=1)  # C-ordered, unlike ahat[:, active]
    state = ImageState(
        M=np.eye(m),
        E=bhat.copy(),
        E_norms=column_norms(bhat),
        gamma=np.zeros(len(active)),
        alpha=1.0,
        B_hat=bhat,
        log_q=np.zeros(len(active)),
        T=np.asarray(active, dtype=int),
        theta=th,
        eps=eps,
    )
    min_growth = math.inf
    min_removal = math.inf
    # The gamma cap 2/theta^2 and the removal floor theta^2/(2(n+1)) are held
    # as logs: theta^2 underflows for theta below 1e-154.
    log_theta = math.log(th) if th else -math.inf
    log_gamma_cap = math.log(2.0) - 2.0 * log_theta + math.log1p(_LEDGER_SLACK)
    log_removal_floor = 2.0 * log_theta - math.log(2.0 * (n + 1.0))
    max_phase_iters = 0
    ybar = x0 = None

    def ledger_checks():
        gmax = float(state.gamma.max(initial=0.0))
        if gmax > 0.0 and math.log(gmax) > log_gamma_cap:
            raise ContractViolationError("gamma exceeded 2/theta^2")

    def above_removal_floor(ratio):
        return ratio > 0.0 and math.log(ratio) >= log_removal_floor + math.log1p(-_LEDGER_SLACK)

    while True:
        if len(state.T) == 0:
            ybar = np.zeros(m)
            break
        x, y, fo_status, iters = von_neumann(state.B_hat, eps, limits.max_iterations - report.fo_iters, x0)
        report.fo_iters += iters
        max_phase_iters = max(max_phase_iters, iters)
        if fo_status == SEPARATED:
            # a_hat_j^T (M y) = c_j^T y, so y_bar = M y satisfies the strict
            # inequalities the inner loop checked.
            ybar = state.M @ y
            ybar /= np.linalg.norm(ybar)
            break
        if fo_status == BUDGET_EXHAUSTED:
            break
        if report.rescalings >= limits.max_rescalings or report.fo_iters >= limits.max_iterations:
            break
        if state.log_q.min(where=x > 0.0, initial=math.inf) < -math.log(_NORM_RANGE):
            break
        log_q = state.log_q
        state, ratio = image_rescale(state, x)
        min_growth = min(min_growth, ratio)
        report.rescalings += 1
        ledger_checks()
        if hook is not None:
            hook("rescale", state=state, x=x, y=y, ratio=ratio)
        if th is None:  # the point x ended on, on B_hat' = W' B_hat diag(e^(log_q - log_q'))
            x0 = x * np.exp(state.log_q - log_q)
            x0 /= x0.sum()
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
            if not above_removal_floor(ratio):
                raise ContractViolationError(f"removal det ratio {ratio} below theta^2/(2(n+1))")
            if hook is not None:
                hook("remove", state=state, ratio=ratio, dropped=dropped)
            # Projecting out the last dimension drops every column with it.
            if len(state.T) == 0:
                break
            ledger_checks()

    if report.rescalings > 0:
        report.bound_checks.append(_growth_check(min_growth))
    if report.removals > 0:
        floor, passed = math.exp(log_removal_floor), above_removal_floor(min_removal)
        report.bound_checks.append(BoundCheck("removal_det_ratio_min", floor, min_removal, passed))
    report.bound_checks.append(_phase_check(eps, max_phase_iters))
    return ybar, state.T


def _outcome(mat, y, support, report: SolveReport) -> ImageCertificate:
    """The certificate of a separating y, if ``certified`` accepts it on ``mat``, its numbers in ``report``.

    Otherwise an empty certificate, and ``report`` keeps its ``no_converge``.
    """
    cert = certified(mat, ImageCertificate(y, support)) if y is not None else None
    if cert is None:
        return ImageCertificate(np.zeros(mat.shape[0]), np.arange(0))
    report.status, report.margin, report.residual = SOLVED, cert.min_margin, cert.residual_zero
    return cert


@timed
def full_support_image(mat, limits: Limits | None = None, *, hook=None):
    """Find y with A^T y > 0 strictly, for any A with no zero column.

    Alternates von Neumann phases on the columns in the current coordinates
    with multi-rank rescales of the metric: the shared loop with no theta, so
    no column is ever removed, and each phase after the first starts from the
    point the last one ended on. Nothing in it reads rank(A): each rescale
    grows det R by at least 16/9 at any rank. A separated outcome hands back
    y_bar = M y, the paper's Qy. An image-infeasible cone ends
    ``no_converge``, at a budget or at the loop's float-range stop, as does a
    separation the checker rejects, such as one read from rounding outside
    the columns' span. A zero column, never strictly positive, raises
    ``DegenerateColumnError``. Returns (ImageCertificate, SolveReport).
    """
    mat = as_matrix(mat)
    m, n = mat.shape
    ahat = normalize_columns(mat)
    limits = default_limits(m, n, given=limits)

    report = SolveReport(status=NO_CONVERGE)
    y, support = _rescaling_loop(ahat, np.arange(n), limits, report, None, hook=hook)
    return _outcome(mat, y, support, report), report


def short_column_scan(state: ImageState) -> np.ndarray:
    """Original indices of active columns with |a_hat_k|_Q = |c_k| / |E_k| below theta."""
    short = np.exp(state.log_q) / state.E_norms < state.theta
    return state.T[short]


def _remove_column(state: ImageState, pos: int):
    """Project out the short column at position pos and drop everything in its span.

    a_k^T y = 0 reads c_k^T y_cur = 0, so the current coordinates restrict to
    c_k^perp, where the metric stays I, and E to E_k^perp; columns whose E copy
    is in the span of E_k drop out; only the kept ones are renormalized, as
    a dropped one's projection is rounding. det shrinks by |c_k|^2 / |E_k|^2 =
    |a_hat_k|_Q^2. Returns (new_state, det_ratio, dropped_original_indices).
    """
    ratio = math.exp(2.0 * state.log_q[pos]) / state.E_norms[pos] ** 2
    v = orthocomplement_basis(state.B_hat[:, pos])
    w = orthocomplement_basis(state.E[:, pos])
    cur = v.T @ state.B_hat
    proj = w.T @ state.E
    nu = column_norms(cur)
    new_norms = column_norms(proj)
    keep = new_norms > TAU_RANK_FACTOR * state.E_norms
    keep[pos] = False
    lost = state.gamma[~keep] * (np.exp(state.log_q[~keep]) * nu[~keep] / state.E_norms[~keep]) ** 2

    new_state = replace(
        state,
        M=state.M @ v,
        E=proj[:, keep],
        E_norms=new_norms[keep],
        gamma=(state.gamma * (new_norms / state.E_norms) ** 2)[keep],
        B_hat=cur.compress(keep, axis=1) / nu[keep],
        log_q=state.log_q[keep] + np.log(nu[keep]),
        T=state.T[keep],
        slack=state.slack + float(lost.sum()),
    )
    return new_state, ratio, state.T[~keep]


@timed
def max_support_image(mat, limits: Limits | None = None, *, hook=None):
    """Find y maximizing the set of strict inequalities a_i^T y > 0.

    Integral input of full row rank (else ``ContractViolationError``): the
    gamma ledger reads W = c E^+, which needs E of full row rank. Zero
    columns are never in the support. Runs the shared loop with theta: columns
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
    active = np.flatnonzero(mat.any(axis=0))
    ahat = np.zeros_like(mat)
    ahat[:, active] = normalize_columns(mat[:, active])
    limits = default_limits(m, n, encoding_estimate=float(ell), given=limits)

    report = SolveReport(status=NO_CONVERGE)
    y, support = _rescaling_loop(ahat, active, limits, report, th, hook=hook)
    cert = _outcome(mat, y, support, report)
    return cert, cert.support, report
