"""The kernel loop against a reference copy of its earlier step logic.

``_reference_loop`` keeps F = A_hat^T Q A_hat and Pi as separate n x n
arrays, updates F and z by rank-1 terms at each rescale and recomputes them
every 25 rescales, scans min xbar at every step and marks on F's diagonal.
The loop under test derives unit columns and log-norms from U at every
rescale instead. Both must reach the same verdicts: equal status, final
active set, removals and marked sets on every draw, and equal DV-step and
rescale counts on the full-support and planted draws.
"""

import math

import numpy as np
import pytest

from helpers import exact_rank_wrapper, narrow_kernel_cone
from lincone import kernel as kernel_module
from lincone.instances import gen_degenerate
from lincone.kernel import full_support_kernel, max_support_kernel
from lincone.certify import check_kernel_certificate
from lincone.linalg import normalize_columns
from lincone.report import INFEASIBLE_DETECTED, NO_CONVERGE, SOLVED, SolveReport, default_limits, rescale_epsilon

# The reference's refresh cadences.
_DV_REFRESH = 10_000
_RESCALE_REFRESH = 25

def _reference_rescale(ufac, fmat, z, y, eps):
    w = ufac @ y
    wn = float(np.linalg.norm(w))
    ynorm_q2 = wn * wn
    what = w / wn
    ufac = (ufac + np.outer(what, what @ ufac)) / (1.0 + 3.0 * eps)
    fmat = (fmat + 3.0 * np.outer(z, z) / ynorm_q2) / (1.0 + 3.0 * eps) ** 2
    scale = 4.0 / (1.0 + 3.0 * eps) ** 2
    return ufac, fmat, z * scale, ynorm_q2 * scale


def _reference_loop(ahat, active, limits, report, *, log_inv_theta=None, accept=None, hook=None):
    """The earlier loop, under the loop's policy arguments; it never calls ``accept``."""
    km = kernel_module
    th = None if log_inv_theta is None else math.exp(-log_inv_theta)
    m = ahat.shape[0]
    eps = rescale_epsilon(m)
    ufac = np.eye(m)
    S = np.asarray(active, dtype=int)
    cols = x = pimat = marked = None
    rank_s = 0
    fmat = fdiag = qnorms = z = xbar = None
    ynorm_q2 = 0.0
    dv_since_refresh = rescales_since_refresh = 0

    def diagonal():
        nonlocal fdiag, qnorms
        fdiag = fmat.diagonal().copy()
        qnorms = np.sqrt(np.maximum(fdiag, 1e-300))

    def refresh():
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
        nonlocal cols, x, pimat, rank_s, xbar, marked
        cols = ahat[:, S]
        x = np.ones(S.size)
        marked = np.zeros(S.size, dtype=bool)
        xbar = np.zeros(0)
        if S.size:
            pimat = km.kernel_projector(cols)
            if th is not None:
                rank_s = km.pivoted_rank(cols)
            refresh()

    rebuild()
    while True:
        if S.size == 0:
            return SOLVED, S, xbar
        if xbar.min() > 0.0 and km._positive_beyond_noise(xbar):
            refresh()
            scale_ok = np.abs(cols @ xbar).max() <= 1e-10 * S.size * np.abs(xbar).max()
            if km._positive_beyond_noise(xbar) and scale_ok:
                return SOLVED, S, xbar
        ratios = z / qnorms
        k = int(ratios.argmin())
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
        y = cols @ x
        if not y.any():
            refresh()
            continue
        w, mat_before = ufac @ y, ufac @ cols
        ufac, fmat, z, ynorm_q2 = _reference_rescale(ufac, fmat, z, y, eps)
        diagonal()
        report.rescalings += 1
        rescales_since_refresh += 1
        if hook is not None:
            hook("rescale", ynorm_q2_before=float(w @ w), ynorm_q2_after=ynorm_q2, y=w,
                 mat_before=mat_before, mat_after=ufac @ cols)
        if rescales_since_refresh >= _RESCALE_REFRESH:
            refresh()
        if th is None:
            continue
        new_marks = (fdiag > 1.0 / (th * th)) & ~marked
        if not new_marks.any():
            continue
        marked |= new_marks
        if hook is not None:
            hook("mark", marked=S[new_marks].tolist())
        keep = S[~marked]
        kept_rank = km.pivoted_rank(ahat[:, keep]) if keep.size else 0
        if kept_rank < rank_s:
            removed = S[marked].tolist()
            S = keep
            report.removals += 1
            rebuild()
            if hook is not None:
                hook("remove", removed=removed)
    return NO_CONVERGE, S, None


def _run(loop, ahat, active, limits, **policy):
    events = []
    report = SolveReport(status=NO_CONVERGE)
    status, S, v = loop(ahat, active, limits, report, **policy, hook=lambda kind, **d: events.append((kind, d)))
    return status, S, v, report, events


def _assert_same_verdicts(ahat, active, limits, th=None, *, counts=True):
    """Run both loops; returns the reports and the event kinds of the loop under test."""
    policy = {"accept": lambda v: True} if th is None else {"log_inv_theta": -math.log(th)}
    got = _run(kernel_module._rescaling_loop, ahat, active, limits, **policy)
    ref = _run(_reference_loop, ahat, active, limits, **policy)
    assert got[0] == ref[0]
    assert np.array_equal(got[1], ref[1])
    assert (got[2] is None) == (ref[2] is None)
    assert got[3].removals == ref[3].removals
    marks = [[d["marked"] for kind, d in run[4] if kind == "mark"] for run in (got, ref)]
    assert marks[0] == marks[1]
    if counts:
        assert (got[3].fo_iters, got[3].rescalings) == (ref[3].fo_iters, ref[3].rescalings)
    return got[3], ref[3], [kind for kind, _ in got[4]]


def _reference_certificate(monkeypatch, solve, mat):
    with monkeypatch.context() as patch:
        patch.setattr(kernel_module, "_rescaling_loop", _reference_loop)
        return solve(mat)[0]


def test_full_support_matches_reference(monkeypatch):
    rng = np.random.default_rng(8)
    steps = rescales = 0
    for _ in range(5):
        mat = narrow_kernel_cone(rng, 6, 80, 0.03, 0.8)
        ahat = normalize_columns(mat)
        report, _, _ = _assert_same_verdicts(ahat, np.arange(80), default_limits(6, 80))
        steps += report.fo_iters
        rescales += report.rescalings
        cert = full_support_kernel(mat)[0]
        ref = _reference_certificate(monkeypatch, full_support_kernel, mat)
        assert np.array_equal(cert.support, ref.support)
        assert check_kernel_certificate(mat, cert).valid
    assert steps > 1000 and rescales >= 5


def _rounded_fan(seed):
    """Integral 4 x 16 instance that keeps stepping and rescaling after removals.

    Columns 0-11 are a narrow 3-d kernel fan scaled by 20 and rounded, with
    row 3 zero; columns 12-15 have a positive row 3, so e_3 separates them
    and they are marked and removed. Rounding can push 0 out of the fan's
    hull, which only adds removals.
    """
    rng = np.random.default_rng(seed)
    fan = np.rint(20 * narrow_kernel_cone(rng, 3, 12, 0.1, 0.8)).astype(int)
    rest = np.vstack([rng.integers(-3, 4, (3, 4)), rng.integers(1, 3, (1, 4))])
    return np.hstack([np.vstack([fan, np.zeros((1, 12), dtype=int)]), rest])


def _assert_max_support_matches(monkeypatch, mat, *, counts=True):
    m, n = mat.shape
    ahat = mat / np.linalg.norm(mat, axis=0)
    limits = default_limits(m, n, encoding_estimate=float(kernel_module.encoding_length(mat)))
    got = _assert_same_verdicts(ahat, np.arange(n), limits, kernel_module.theta(mat), counts=counts)
    cert = max_support_kernel(mat)[0]
    ref = _reference_certificate(monkeypatch, max_support_kernel, mat)
    assert np.array_equal(cert.support, ref.support)
    assert check_kernel_certificate(mat, cert).valid
    return got


@pytest.mark.parametrize("seed", range(6))
def test_max_support_with_removals_matches_reference(monkeypatch, seed):
    # Every rank the removal tests read, in both loops, must be the exact
    # integer rank of the columns they hand over.
    mat = gen_degenerate(6, 40, 20, seed).mat
    monkeypatch.setattr(kernel_module, "pivoted_rank", exact_rank_wrapper(kernel_module.pivoted_rank, mat))
    report, _, _ = _assert_max_support_matches(monkeypatch, mat)
    assert report.removals >= 1


@pytest.mark.parametrize("seed", [0, 2, 4])
def test_steps_after_removal_match_reference(monkeypatch, seed):
    # The rounded fans keep rescaling near the marking threshold, where the
    # reference's rank-1 F drifts from F_hat derived afresh, so only the
    # verdicts must agree: 109, 106 and 116 rescalings here against the
    # reference's 97, 95 and 104.
    report, _, kinds = _assert_max_support_matches(monkeypatch, _rounded_fan(seed), counts=False)
    after = kinds[kinds.index("remove") + 1:]
    assert report.removals >= 2 and after.count("dv") >= 50 and after.count("rescale") >= 10


def test_stacked_views_after_removal(monkeypatch):
    # Each refresh must see [F_hat | Pi_hat] as one n x 2n array and
    # [z | xbar] as one 2n vector, built for the current active set, with
    # Pi_hat the projector built for that set, its rows divided by the
    # Q-norms, before and after removals.
    projectors, sizes = [], []
    build = kernel_module.kernel_projector

    def recording_projector(cols):
        projectors.append(build(cols))
        return projectors[-1]

    def hook(kind, **d):
        if kind != "refresh":
            return
        rows, zx, n = d["rows"], d["zx"], d["active"].size
        assert rows.shape == (n, 2 * n) and zx.shape == (2 * n,)
        qnorms = np.linalg.norm(d["ufac"] @ ahat[:, d["active"]], axis=0)
        assert np.allclose(rows[:, n:] * qnorms[:, None], projectors[-1], rtol=1e-12, atol=1e-14)
        sizes.append(n)

    mat = _rounded_fan(0)
    ahat = mat / np.linalg.norm(mat, axis=0)
    monkeypatch.setattr(kernel_module, "kernel_projector", recording_projector)
    _, support, report = max_support_kernel(mat, hook=hook)
    assert report.removals >= 2 and len(projectors) == report.removals + 1
    assert sizes[0] == 16 and len(set(sizes)) >= 2
