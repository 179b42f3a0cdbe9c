import math
import time
import warnings

import numpy as np
import pytest

from conebench.families import narrow_kernel, planted_partition
from helpers import (
    exact_rank_wrapper,
    flat_image_cone,
    integer_draw,
    integer_row_mix,
    narrow_kernel_cone,
    symmetric_hull_intersection_area,
)
from lincone import certify as certify_module
from lincone import kernel as kernel_module
from lincone.certify import check_image_certificate, check_kernel_certificate
from lincone.conditioning import theta
from lincone.errors import ContractViolationError, UnsupportedInstanceError
from lincone.firstorder import _DRIFT_INTERVAL
from lincone.image import ImageCertificate, max_support_image
from lincone.instances import gen_degenerate
from lincone.kernel import KernelCertificate, full_support_kernel, kernel_rescale, max_support_kernel
from lincone.linalg import normalize_columns
from lincone.report import INFEASIBLE_DETECTED, NO_CONVERGE, SOLVED, Limits, default_limits, rescaling_bound


def feasible_instance(rng, m, n):
    """Random unit columns with 0 strictly inside their convex hull."""
    while True:
        cols = rng.standard_normal((m, n - 1))
        cols /= np.linalg.norm(cols, axis=0)
        last = -cols.sum(axis=1)
        if np.linalg.norm(last) < 1e-6:
            continue
        mat = np.hstack([cols, (last / np.linalg.norm(last)).reshape(-1, 1)])
        if np.linalg.matrix_rank(mat) == m:
            return mat


def narrow_instance(rng, n):
    """m=2 instance where 0 sits barely inside the hull, forcing rescales."""
    spread = rng.uniform(0.1, 0.3)
    angles = np.concatenate([rng.uniform(-spread, spread, n - 1), [np.pi + rng.uniform(-0.02, 0.02)]])
    return np.vstack([np.cos(angles), np.sin(angles)])


class TestRescalePrimitives:
    def test_q_form_example(self):
        eps = 1.0 / 22.0
        # A_hat = I and Q = I, so w = Uy = y.
        y = np.array([1.0, 0.0])
        ufac = kernel_rescale(np.eye(2), y, eps)
        expect = np.diag([4.0, 1.0]) / (1.0 + 3.0 * eps) ** 2
        assert np.allclose(ufac.T @ ufac, expect, rtol=1e-12)
        ell, bhat = kernel_module._unit_metric(ufac, np.eye(2), np.empty((2, 2)))
        assert np.allclose(np.exp(2.0 * ell), np.diag(expect), rtol=1e-12)
        assert np.allclose(bhat, np.eye(2), rtol=1e-12)

    def test_q_form_f_update_matches_definition(self):
        # U' from the rescale gives the paper's Q', and the unit metric derived
        # from U' is F_hat = D^-1 A_hat^T Q' A_hat D^-1 with D the Q'-norms.
        rng = np.random.default_rng(1)
        mat = normalize_columns(rng.standard_normal((3, 6)))
        b = rng.standard_normal((3, 3))
        q = b @ b.T + 3 * np.eye(3)
        ufac = np.linalg.cholesky(q).T  # Q = U^T U
        x = rng.uniform(1, 2, 6)
        y = mat @ x
        eps = 1.0 / 33.0
        out_u = kernel_rescale(ufac, 7.0 * (ufac @ y), eps)  # any positive multiple of Uy
        qy = q @ y
        new_q = out_u.T @ out_u
        expect_q = (q + 3.0 * np.outer(qy, qy) / (y @ qy)) / (1.0 + 3.0 * eps) ** 2
        assert np.allclose(new_q, expect_q, atol=1e-10)
        fmat = np.empty((6, 6))
        ell, bhat = kernel_module._unit_metric(out_u, mat, fmat)
        gram = mat.T @ new_q @ mat
        qnorms = np.sqrt(np.diag(gram))
        assert np.allclose(ell, np.log(qnorms), atol=1e-12)
        assert np.allclose(fmat, gram / np.outer(qnorms, qnorms), atol=1e-12)
        assert np.array_equal(np.diag(fmat), np.ones(6))
        assert np.allclose(fmat, bhat.T @ bhat, atol=1e-12)
        # y is untouched in the Q-form; its Q-norm grows by 2/(1+3 eps)
        before = np.sqrt(y @ q @ y)
        after = np.sqrt(y @ new_q @ y)
        assert after / before == pytest.approx(2.0 / (1.0 + 3.0 * eps), rel=1e-12)

    def test_q_form_zero_y_rejected(self):
        with pytest.raises(ContractViolationError):
            kernel_rescale(np.eye(2), np.zeros(2), 1.0 / 22.0)

    def test_updates_stacked_views_in_place(self):
        # The loop holds F_hat as the left half of [F_hat | Pi_hat]. The
        # derivation must write that half in place, bit for bit as the
        # out-of-place product of the unit columns, and leave the Pi half alone.
        rng = np.random.default_rng(3)
        n = 150
        mat = normalize_columns(rng.standard_normal((4, n)))
        ufac = np.triu(rng.standard_normal((4, 4))) + 3.0 * np.eye(4)
        rows = rng.standard_normal((n, 2 * n))
        rows0 = rows.copy()
        ell, bhat = kernel_module._unit_metric(ufac, mat, rows[:, :n])
        wcols = ufac @ mat
        assert np.allclose(bhat * np.exp(ell), wcols, rtol=1e-13)
        expect = bhat.T @ bhat
        np.fill_diagonal(expect, 1.0)
        assert np.array_equal(rows[:, :n], expect)
        assert np.array_equal(rows[:, n:], rows0[:, n:])


class TestUnitMetricCache:
    def test_cache_matches_fresh_values(self):
        # At every refresh, a rescale's included, F_hat has a unit diagonal
        # and equals B_hat^T B_hat for B_hat the unit columns of U A_hat_S,
        # and Pi_hat is the projector with its rows divided by the Q-norms.
        # z and xbar, updated by one row per DV step since the last refresh,
        # must match their fresh values. The mixed draw runs past the
        # 10,000-step refresh.
        checked = drifted = 0

        def run(solve, mat, *args):
            nonlocal checked, drifted
            ahat = mat / np.linalg.norm(mat, axis=0)

            def hook(kind, **d):
                nonlocal checked, drifted
                if kind != "refresh":
                    return
                rows, zx, xhat, n = d["rows"], d["zx"], d["xhat"], d["active"].size
                cols = ahat[:, d["active"]]
                wcols = d["ufac"] @ cols
                qnorms = np.linalg.norm(wcols, axis=0)
                bhat = wcols / qnorms
                assert np.array_equal(np.diag(rows[:, :n]), np.ones(n))
                assert np.abs(rows[:, :n] - bhat.T @ bhat).max() <= 1e-12
                pihat = np.linalg.pinv(cols) @ cols
                pihat = (np.eye(n) - pihat) / qnorms[:, None]
                assert np.allclose(rows[:, n:], pihat, rtol=1e-9, atol=1e-12 * np.abs(pihat).max())
                assert np.allclose(zx[:n], bhat.T @ (bhat @ xhat), rtol=0.0, atol=1e-12)
                checked += 1
                if d["zx_drifted"] is not None:
                    old = d["zx_drifted"]
                    assert np.abs(old[:n] - zx[:n]).max() <= 1e-12 * max(1.0, float(xhat.sum()))
                    assert np.abs(old[n:] - zx[n:]).max() <= 1e-12 * np.abs(zx[n:]).max()
                    drifted += 1

            return solve(mat, *args, hook=hook)

        rng = np.random.default_rng(8)
        for _ in range(3):
            run(full_support_kernel, narrow_kernel_cone(rng, 6, 80, 0.03, 0.8))
        steps = run(max_support_kernel, integer_row_mix(gen_degenerate(6, 40, 20, 4).mat, 4),
                    Limits(max_rescalings=200, max_iterations=300_000))[-1].fo_iters
        assert steps > 2 * _DRIFT_INTERVAL
        assert checked >= 60 and drifted >= 5


# (status, fo_iters, rescalings) of the kernel benchmark's first four
# instances, narrow_kernel(6, 80, 0.03, 0.8, seed), run with no hook. Single
# DV steps alone took 4,832, 4,014, 4,118 and 4,988 steps, almost all of them
# alternating between column 0 and its near-antipode 79; one pair step ends that.
@pytest.mark.parametrize(
    "seed, counts",
    [
        (0, (SOLVED, 4, 2)),
        (1, (SOLVED, 4, 2)),
        (2, (SOLVED, 4, 2)),
        (3, (SOLVED, 4, 2)),
    ],
)
def test_benchmark_counts(seed, counts):
    mat = narrow_kernel(6, 80, 0.03, 0.8, seed)
    cert, report = full_support_kernel(mat)
    assert (report.status, report.fo_iters, report.rescalings) == counts
    assert check_kernel_certificate(mat, cert).valid


@pytest.mark.parametrize(
    "solve, make",
    [
        (full_support_kernel, lambda: narrow_kernel(6, 80, 0.03, 0.8, 5)),
        (full_support_kernel, lambda: narrow_kernel(6, 80, 0.03, 0.8, 6)),
        (max_support_kernel, lambda: planted_partition(6, 40, 20, 3)[0]),
    ],
    ids=["narrow5", "narrow6", "partition3"],
)
def test_hook_does_not_change_the_run(solve, make):
    # The DV steps run in one loop whether or not a hook listens: a recording
    # hook sees one "dv" event per step and leaves status, counts and the
    # certificate bit for bit as they are without it.
    mat = make()
    kinds = []
    hooked = solve(mat, hook=lambda kind, **d: kinds.append(kind))
    plain = solve(mat)
    assert hooked[-1].status == plain[-1].status == SOLVED
    assert (hooked[-1].fo_iters, hooked[-1].rescalings) == (plain[-1].fo_iters, plain[-1].rescalings)
    assert hooked[0].x.tobytes() == plain[0].x.tobytes()
    assert kinds.count("dv") == plain[-1].fo_iters > 0


def test_pair_step_ends_a_slow_alternation():
    # A narrow 3-d fan, columns 0-3, and column 4 near the antipode of column
    # 0 (cosine -0.99934, so 1 - c^2 < eps = 1/33). After the first DV step
    # the pivots alternate between columns 0 and 4: single steps alone took
    # 1,408 steps and a rescale. The third step is one exact step on the
    # pair; the loop refreshes right after it, so the refresh event holds the
    # pair step's incremental z and xbar next to their fresh values.
    mat = np.array([
        [-0.53, -0.67, -0.58, -0.46, 0.55],
        [0.82, 0.58, 0.62, 0.85, -0.81],
        [-0.2, -0.46, -0.53, -0.27, 0.23],
    ])
    events = []

    def hook(kind, **d):
        events.append((kind, {key: v.copy() if isinstance(v, np.ndarray) else v for key, v in d.items()}))

    cert, report = full_support_kernel(mat, hook=hook)
    assert (report.status, report.fo_iters, report.rescalings) == (SOLVED, 3, 0)
    assert check_kernel_certificate(mat, cert).valid
    steps = [(i, d) for i, (kind, d) in enumerate(events) if kind == "dv"]
    assert [d["pivots"] for _, d in steps] == [(4,), (0,), (4, 0)]
    at, step = steps[-1]
    kind, fresh = events[at + 1]
    assert kind == "refresh"
    n, xhat = 5, fresh["xhat"]
    z, xbar = fresh["zx_drifted"][:n], fresh["zx_drifted"][n:]
    tol = 8 * n * np.finfo(float).eps * xhat.sum()
    assert step["ynorm_q2_after"] <= step["ynorm_q2_before"] * (1.0 - step["cos"] ** 2)
    assert np.all(xhat > 0.0)
    assert abs(z[4]) <= tol and abs(z[0]) <= tol
    assert np.abs(z - fresh["zx"][:n]).max() <= tol
    assert np.abs(xbar - fresh["zx"][n:]).max() <= tol
    assert step["ynorm_q2_after"] == pytest.approx(float(xhat @ fresh["zx"][:n]), rel=0.0, abs=tol)


def test_huge_witness_is_normalized_without_overflow(monkeypatch):
    # integer_draw(2) with rows 0, 2 and 4 times 1e12: late witnesses Qy have
    # entries past 2^512, where |Qy|^2 overflows. ``accept`` scales each by a
    # power of two before taking its norm, so the checker sees unit vectors
    # and no RuntimeWarning is raised.
    base = integer_draw(2)
    mat = base * np.where(np.arange(base.shape[0]) % 2 == 0, 1e12, 1.0)[:, None]
    largest, norms = [], []
    scaled, check = kernel_module._pow2_scaled, kernel_module.certified

    def recording_scale(v):
        largest.append(float(np.abs(v).max()))
        return scaled(v)

    def recording_check(a, c):
        if isinstance(c, ImageCertificate):
            norms.append(float(np.linalg.norm(c.y)))
        return check(a, c)

    monkeypatch.setattr(kernel_module, "_pow2_scaled", recording_scale)
    monkeypatch.setattr(kernel_module, "certified", recording_check)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cert, report = full_support_kernel(mat)
    assert max(largest) > 2.0**512
    assert len(norms) == len(largest) and np.allclose(norms, 1.0, rtol=1e-14)
    assert report.status == NO_CONVERGE and cert.support.size == 0


class TestFullSupportKernel:
    def test_antipodal_pair_is_immediate(self):
        cert, report = full_support_kernel(np.array([[1.0, -1.0]]))
        assert report.status == SOLVED
        assert report.fo_iters == 0
        assert report.rescalings == 0
        assert np.allclose(cert.x, [1.0, 1.0])

    def test_cross_columns_immediate(self):
        mat = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        cert, report = full_support_kernel(mat)
        assert report.status == SOLVED
        assert np.allclose(cert.x, np.ones(4))

    def test_identity_detected_infeasible(self):
        cert, report = full_support_kernel(np.eye(2))
        assert report.status == INFEASIBLE_DETECTED
        assert report.margin > 0

    def test_budget_fires_no_converge(self):
        mat = feasible_instance(np.random.default_rng(5), 3, 7)
        # A budget of zero DV steps and rescalings cannot solve a non-trivial instance.
        cert, report = full_support_kernel(mat, Limits(max_rescalings=0, max_iterations=0))
        assert report.status in (NO_CONVERGE, SOLVED, INFEASIBLE_DETECTED)
        if report.status == NO_CONVERGE:
            assert cert.support.size == 0

    def test_random_feasible_instances_solve(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(m + 2, m + 8))
            mat = feasible_instance(rng, m, n)
            cert, report = full_support_kernel(mat)
            assert report.status == SOLVED
            assert np.all(cert.x > 0)
            assert cert.residual <= 1e-8 * n
            ahat = normalize_columns(mat)
            assert np.abs(ahat @ cert.x).max() <= 1e-8 * n

    def test_norm_ledger_and_guard(self):
        rng = np.random.default_rng(31)
        eps = 1.0 / 22.0
        events = []
        for _ in range(8):
            mat = narrow_instance(rng, 5)
            full_support_kernel(mat, hook=lambda kind, **d: events.append((kind, d)))
        dv = [d for kind, d in events if kind == "dv"]
        rs = [d for kind, d in events if kind == "rescale"]
        pairs = sum(len(d["pivots"]) == 2 for d in dv)
        assert rs and 0 < pairs < len(dv)
        for d in dv:
            expect = d["ynorm_q2_before"] * (1.0 - d["cos"] ** 2)
            if len(d["pivots"]) == 1:
                assert d["ynorm_q2_after"] == pytest.approx(expect, rel=1e-10, abs=1e-12)
            else:
                # a pair step lowers |y|^2 at least as far as the DV step it replaces
                assert d["ynorm_q2_after"] <= expect * (1.0 + 1e-10) + 1e-12
            # the DV branch only fires strictly below the guard
            assert d["cos"] < -eps
        for d in rs:
            # |y|_Q^2 is re-synced at each rescale: the cache the DV steps
            # update incrementally does not carry its drift into the rescale.
            assert d["ynorm_q2_before"] == pytest.approx(float(d["y"] @ d["y"]), rel=1e-12)
            scale = 4.0 / (1.0 + 3.0 * eps) ** 2
            assert d["ynorm_q2_after"] == pytest.approx(scale * d["ynorm_q2_before"], rel=1e-10)
            # guard: no column is more than eps below the y hyperplane (both whitened)
            hat = normalize_columns(d["mat_before"])
            yhat = d["y"] / np.linalg.norm(d["y"])
            assert (hat.T @ yhat).min() >= -eps - 1e-9

    def test_polygon_area_grows_on_rescale(self):
        rng = np.random.default_rng(37)
        grown = 0
        for _ in range(8):
            mat = narrow_instance(rng, 5)
            events = []
            full_support_kernel(mat, hook=lambda kind, **d: events.append((kind, d)))
            for kind, d in events:
                if kind != "rescale":
                    continue
                before = symmetric_hull_intersection_area(d["mat_before"])
                after = symmetric_hull_intersection_area(d["mat_after"])
                if before > 0:
                    assert after / before >= 1.5 - 1e-9
                    grown += 1
        assert grown >= 3

    def test_known_rho_bound_check(self):
        mat = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        cert, report = full_support_kernel(mat)
        assert report.status == SOLVED
        assert report.rescalings <= rescaling_bound(2, -0.5)

    def test_infeasible_verdict_is_checked(self):
        # These cones are image feasible and flat. A DV step leaves its pivot
        # at cosine 0, so a strictly separating y can be float noise; the
        # verdict must come with a witness whose margins are really positive,
        # returned as the image certificate the checker accepted.
        rng = np.random.default_rng(0)
        for m in (3, 5):
            for _ in range(4):
                mat, _ = flat_image_cone(rng, m, 40, 1e-3)
                cert, report = full_support_kernel(mat)
                assert report.status in (INFEASIBLE_DETECTED, NO_CONVERGE)
                if report.status == INFEASIBLE_DETECTED:
                    assert isinstance(cert, ImageCertificate)
                    assert report.margin == cert.min_margin > 0
                    assert np.array_equal(cert.support, np.arange(40))
                    assert check_image_certificate(mat, cert).valid
                else:
                    assert isinstance(cert, KernelCertificate) and cert.support.size == 0

    def test_ill_conditioned_flat_cones_do_not_crash(self, monkeypatch):
        # At rho = 1e-5 the rows are nearly dependent; a projector built as
        # B^T (B B^T)^-1 B squares their condition number and fails its own
        # idempotency check. Every accepted witness must pass the checker on
        # the raw matrix, not only on the normalized one the solver sees. The
        # projector is built before the first step, so a small budget keeps
        # the m = 10 draws, which never converge, from running for seconds.
        witnesses = []

        def recording_check(mat, claim, tol=None):
            rep = check_image_certificate(mat, claim, tol)
            if rep.valid:
                witnesses.append(claim.y)
            return rep

        # Every certificate a solver returns is built by certify.certified, which
        # calls the checker by its name in lincone.certify.
        monkeypatch.setattr(certify_module, "check_image_certificate", recording_check)
        rng = np.random.default_rng(0)
        for i in range(20):
            mat, _ = flat_image_cone(rng, (3, 5, 10)[i % 3], 50, 1e-5)
            witnesses.clear()
            cert, report = full_support_kernel(mat, Limits(max_rescalings=500, max_iterations=20_000))
            assert report.status in (INFEASIBLE_DETECTED, NO_CONVERGE)
            if report.status == INFEASIBLE_DETECTED:
                claim = ImageCertificate(y=witnesses[-1], support=np.arange(50), min_margin=0.0, residual_zero=0.0)
                assert check_image_certificate(mat, claim).valid

    def test_metric_stops_before_float_overflow(self):
        # Draw 5 (m = 10) of the flat rho = 1e-5 batch above is image
        # feasible. Each rescale can double the Q-norms, and under default
        # limits the cached F and |y|_Q^2 used to overflow at about rescale
        # 268, after which the loop kept iterating on inf and nan. The loop
        # keeps only unit columns and log-norms and reads exact cosines at
        # every rescale, so it ends with a witness checked on the raw matrix,
        # well inside its budgets and without a float warning.
        rng = np.random.default_rng(0)
        for i in range(6):
            mat, _ = flat_image_cone(rng, (3, 5, 10)[i % 3], 50, 1e-5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cert, report = full_support_kernel(mat)
        assert mat.shape[0] == 10
        assert report.status == INFEASIBLE_DETECTED and report.margin > 0.0
        limits = default_limits(*mat.shape)
        assert 0 < report.rescalings < limits.max_rescalings
        assert report.fo_iters < limits.max_iterations

    def test_float_guard_reads_fresh_metric(self):
        # theta = 1.05e-185 on this integral instance, so no column is marked
        # before its Q-norm passes 1e185 and the loop rescales until the guard
        # binds. The guard compares the log Q-norms derived from U at the last
        # rescale with _LOG_CEILING: every rescale must start inside the
        # ceiling, with |U a_k| taken afresh from the hooked U A_hat, and the
        # run must end no_converge there without a float warning.
        mat = gen_degenerate(20, 30, 15, 0).mat.copy()
        mat[:, 20:] *= 1e7
        worst = -math.inf

        def hook(kind, **d):
            nonlocal worst
            if kind == "rescale":
                log_norms = np.log(np.linalg.norm(d["mat_before"], axis=0))
                worst = max(worst, float(log_norms.max()))

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cert, support, report = max_support_kernel(mat, hook=hook)
        assert report.status == NO_CONVERGE and report.removals == 0
        assert 0 < report.rescalings < default_limits(*mat.shape).max_rescalings
        assert kernel_module._LOG_CEILING - math.log(2.0) < worst <= kernel_module._LOG_CEILING


class TestMaxSupportKernel:
    def test_collapsed_q_norm_ends_no_converge(self, monkeypatch):
        # Integral, rows scaled by 1e12, 2^38, 1e12 and 2^41. At the rebuild
        # after the third removal (rescale 1,000) a survivor's |U a_hat| reads
        # 0. The loop stops there, before dividing by it, instead of running
        # on NaN through its whole rescale budget.
        mat = integer_draw(19) * np.array([1e12, 2.0**38, 1e12, 2.0**41])[:, None]
        collapsed = []
        metric = kernel_module._unit_metric

        def recording(*args):
            out = metric(*args)
            collapsed.append(out[0] is None)
            return out

        monkeypatch.setattr(kernel_module, "_unit_metric", recording)
        kinds = []
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cert, support, report = max_support_kernel(mat, hook=lambda kind, **d: kinds.append(kind))
        assert time.perf_counter() - t0 < 2.0
        assert (report.status, report.rescalings, report.removals) == (NO_CONVERGE, 1_000, 3)
        assert collapsed[-1] and not any(collapsed[:-1]) and kinds[-1] == "remove"
        assert support.size == 0 and not cert.x.any()

    def test_unequal_row_scales_solve_past_their_removals(self):
        # Integral, rows scaled by 1e12, 2^39, 1e12, 2^40 and 1e12. Single DV
        # steps alone collapsed a Q-norm here at the rebuild after the fourth
        # removal (rescale 1,390); with pair steps the run keeps its metric
        # and proves the unscaled draw's support.
        scales = np.array([1e12, 2.0**39, 1e12, 2.0**40, 1e12])
        mat = integer_draw(22) * scales[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cert, support, report = max_support_kernel(mat)
        assert (report.status, report.rescalings, report.removals) == (SOLVED, 1_513, 4)
        assert check_kernel_certificate(mat, cert).valid
        assert np.array_equal(support, max_support_kernel(integer_draw(22))[1])

    def test_partial_support_example(self):
        mat = np.array([[1, -1, 1], [0, 0, 1]])
        cert, support, report = max_support_kernel(mat)
        assert report.status == SOLVED
        assert list(support) == [0, 1]
        assert cert.x[2] == 0.0
        assert cert.x[0] > 0 and cert.x[1] > 0
        assert cert.x[0] == pytest.approx(cert.x[1], rel=1e-9)
        assert cert.residual <= 1e-8 * 3

    def test_identity_empty_support(self):
        cert, support, report = max_support_kernel(np.eye(2, dtype=int))
        assert report.status == SOLVED
        assert support.size == 0
        assert np.all(cert.x == 0)

    def test_full_support_pair(self):
        cert, support, report = max_support_kernel(np.array([[1, -1]]))
        assert list(support) == [0, 1]
        assert np.all(cert.x > 0)

    def test_scaled_pair_full_support(self):
        cert, support, report = max_support_kernel(np.array([[2, -3]]))
        assert list(support) == [0, 1]
        assert cert.residual <= 1e-10

    def test_single_column_empty_support(self):
        cert, support, report = max_support_kernel(np.array([[1, 2]]))
        assert support.size == 0
        assert np.all(cert.x == 0)

    def test_zero_column_always_in_support(self):
        mat = np.array([[0, 1, -1]])
        cert, support, report = max_support_kernel(mat)
        assert list(support) == [0, 1, 2]
        assert cert.x[0] > 0

    def test_zero_column_with_empty_rest(self):
        mat = np.array([[0, 1], [0, 1]])
        cert, support, report = max_support_kernel(mat)
        assert list(support) == [0]
        assert cert.x[1] == 0.0

    def test_marks_stay_outside_true_support(self):
        mat = np.array([[1, -1, 1], [0, 0, 1]])
        marked = []
        max_support_kernel(mat, hook=lambda kind, **d: marked.extend(d.get("marked", [])))
        assert set(marked) <= {2}

    def test_rejects_fractional_input(self):
        with pytest.raises(UnsupportedInstanceError):
            max_support_kernel(np.array([[0.5, -1.0]]))

    def test_mixed_instance_medley(self):
        # A kernel pair on coordinates 1-2; columns 3-4 have a strictly
        # positive second row and can never appear in a nonneg kernel vector.
        mat = np.array(
            [
                [1, -1, 3, 0],
                [0, 0, 1, 1],
            ]
        )
        cert, support, report = max_support_kernel(mat)
        assert list(support) == [0, 1]
        ahat = normalize_columns(mat.astype(float))
        assert np.abs(ahat @ cert.x).max() <= 1e-8 * 4


@pytest.mark.parametrize("solver", [max_support_kernel, max_support_image])
def test_theta_below_float_square_does_not_crash(solver):
    # Integral, with theta = 1.05e-185: theta^2 underflows to 0, and both
    # max-support solvers used to divide by it. Whatever they return must
    # come without a float warning, and a solved support with a checked
    # certificate.
    mat = gen_degenerate(20, 30, 15, 0).mat.copy()
    mat[:, 20:] *= 1e7
    assert 0.0 < theta(mat) < 1e-154
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cert, support, report = solver(mat, Limits(max_rescalings=40, max_iterations=20_000))
    assert report.status in (SOLVED, NO_CONVERGE)
    if report.status == SOLVED:
        check = check_kernel_certificate if solver is max_support_kernel else check_image_certificate
        assert check(mat, cert).valid


@pytest.mark.parametrize("solver", [max_support_kernel, max_support_image])
@pytest.mark.parametrize("seed", range(3))
def test_theta_underflow_marks_nothing(solver, seed):
    # Every entry times 2^300 puts theta below the least subnormal, so it
    # reads 0.0: neither solver may remove a column, and both end at their
    # float-range stop without a float warning. The unscaled draw returns
    # its planted support.
    inst = gen_degenerate(4, 12, 6, seed)
    planted = inst.known_supports[0 if solver is max_support_kernel else 1]
    cert, support, report = solver(inst.mat)
    assert report.status == SOLVED and np.array_equal(support, planted)
    scaled = inst.mat * 2.0**300
    assert theta(scaled) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cert, support, report = solver(scaled)
    assert report.status == NO_CONVERGE and report.removals == 0


@pytest.mark.parametrize("seed", range(16))
def test_mixed_draws_never_return_a_wrong_support(monkeypatch, seed):
    # A unimodular integer row mix keeps gen_degenerate's planted partition
    # but takes it out of axis-aligned blocks; theta falls to about 1e-20.
    # The run may end no_converge, but never solved with a support other than
    # the planted one, and never by spinning on rounding noise. Every rank
    # the removal test reads must be the exact integer rank.
    inst = gen_degenerate(6, 40, 20, seed)
    mat = integer_row_mix(inst.mat, seed)
    monkeypatch.setattr(kernel_module, "pivoted_rank", exact_rank_wrapper(kernel_module.pivoted_rank, mat))
    budget = default_limits(6, 40, encoding_estimate=float(kernel_module.encoding_length(mat)))
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cert, support, report = max_support_kernel(mat, Limits(budget.max_rescalings, 300_000))
    assert time.perf_counter() - start < 2.0
    assert report.status in (SOLVED, NO_CONVERGE)
    if report.status == SOLVED:
        assert np.array_equal(support, inst.known_supports[0])
        assert check_kernel_certificate(mat, cert).valid


def test_rank_read_once_per_mark_event(monkeypatch):
    # The active set's rank is computed once up front; a removal takes the
    # rank its test has just computed for the survivors instead of ranking
    # the new set again.
    calls, marks = [], []
    rank = kernel_module.pivoted_rank
    monkeypatch.setattr(kernel_module, "pivoted_rank", lambda cols: calls.append(cols.shape) or rank(cols))
    _, _, report = max_support_kernel(gen_degenerate(6, 40, 20, 0).mat,
                                      hook=lambda kind, **d: marks.append(kind) if kind == "mark" else None)
    assert report.removals >= 1
    assert len(calls) == 1 + len(marks)


@pytest.mark.parametrize(
    "solve, mat",
    [
        (lambda a: full_support_kernel(a), np.array([[1.0, -1.0]])),
        (lambda a: max_support_kernel(a)[::2], np.array([[1, -1, 1], [0, 0, 1]])),
    ],
    ids=["full", "max"],
)
def test_rejected_certificate_is_no_converge(monkeypatch, solve, mat):
    # A kernel point the checker rejects on the caller's matrix must not come
    # back as solved.
    cert, report = solve(mat)
    assert report.status == SOLVED and check_kernel_certificate(mat, cert).valid
    real = kernel_module._rescaling_loop

    def negated(*args, **kwargs):
        status, support, xbar = real(*args, **kwargs)
        return status, support, -xbar

    monkeypatch.setattr(kernel_module, "_rescaling_loop", negated)
    cert, report = solve(mat)
    assert report.status == NO_CONVERGE
    assert cert.support.size == 0 and not cert.x.any()
