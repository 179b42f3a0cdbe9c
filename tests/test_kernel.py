import warnings

import numpy as np
import pytest

from helpers import flat_image_cone, symmetric_hull_intersection_area
from lincone import kernel as kernel_module
from lincone.certify import check_image_certificate
from lincone.errors import ContractViolationError, UnsupportedInstanceError
from lincone.image import ImageCertificate
from lincone.kernel import full_support_kernel, kernel_rescale, max_support_kernel
from lincone.linalg import normalize_columns
from lincone.report import INFEASIBLE_DETECTED, NO_CONVERGE, SOLVED, Limits, default_limits


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
        y = np.array([1.0, 0.0])
        # A_hat = I and Q = I, so F = I and z = A_hat^T Q y = y.
        ufac, fmat, z, ynorm_q2 = kernel_rescale(np.eye(2), np.eye(2), y.copy(), 1.0, y, eps)
        expect = np.diag([4.0, 1.0]) / (1.0 + 3.0 * eps) ** 2
        assert np.allclose(ufac.T @ ufac, expect, rtol=1e-12)
        assert np.allclose(fmat, expect, rtol=1e-12)
        assert np.allclose(z, expect @ y, rtol=1e-12)
        assert ynorm_q2 == pytest.approx(4.0 / (1.0 + 3.0 * eps) ** 2, rel=1e-12)

    def test_q_form_f_update_matches_definition(self):
        rng = np.random.default_rng(1)
        mat = normalize_columns(rng.standard_normal((3, 6)))
        b = rng.standard_normal((3, 3))
        q = b @ b.T + 3 * np.eye(3)
        ufac = np.linalg.cholesky(q).T  # Q = U^T U
        x = rng.uniform(1, 2, 6)
        y = mat @ x
        eps = 1.0 / 33.0
        fmat = mat.T @ q @ mat
        out_u, out_f, out_z, out_yq2 = kernel_rescale(ufac, fmat, fmat @ x, float(y @ q @ y), y, eps)
        qy = q @ y
        new_q = out_u.T @ out_u
        expect_q = (q + 3.0 * np.outer(qy, qy) / (y @ qy)) / (1.0 + 3.0 * eps) ** 2
        assert np.allclose(new_q, expect_q, atol=1e-10)
        assert np.allclose(out_f, mat.T @ new_q @ mat, atol=1e-10)
        assert np.allclose(out_z, mat.T @ new_q @ y, atol=1e-10)
        assert out_yq2 == pytest.approx(float(y @ new_q @ y), rel=1e-12)
        # y is untouched in the Q-form; its Q-norm grows by 2/(1+3 eps)
        before = np.sqrt(y @ q @ y)
        after = np.sqrt(y @ new_q @ y)
        assert after / before == pytest.approx(2.0 / (1.0 + 3.0 * eps), rel=1e-12)

    def test_q_form_zero_y_rejected(self):
        with pytest.raises(ContractViolationError):
            kernel_rescale(np.eye(2), np.eye(2), np.zeros(2), 0.0, np.zeros(2), 1.0 / 22.0)


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
        assert dv and rs
        for d in dv:
            expect = d["ynorm_q2_before"] * (1.0 - d["cos"] ** 2)
            assert d["ynorm_q2_after"] == pytest.approx(expect, rel=1e-10, abs=1e-12)
            # the DV branch only fires strictly below the guard
            assert d["cos"] < -eps
        for d in rs:
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
        cert, report = full_support_kernel(mat, known_rho=-0.5)
        assert report.bound_checks
        check = report.bound_checks[-1]
        assert check.passed
        assert report.rescalings <= check.bound

    def test_infeasible_verdict_is_checked(self):
        # These cones are image feasible and flat. A DV step leaves its pivot
        # at cosine 0, so a strictly separating y can be float noise; the
        # verdict must come with a witness whose margins are really positive.
        rng = np.random.default_rng(0)
        for m in (3, 5):
            for _ in range(4):
                mat, _ = flat_image_cone(rng, m, 40, 1e-3)
                cert, report = full_support_kernel(mat)
                assert report.status in (INFEASIBLE_DETECTED, NO_CONVERGE)
                if report.status == INFEASIBLE_DETECTED:
                    assert report.margin > 0
                assert cert.support.size == 0

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

        monkeypatch.setattr(kernel_module, "check_image_certificate", recording_check)
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
        # Draw 5 (m = 10) of the flat rho = 1e-5 batch above never converges.
        # Each rescale can multiply F, z and |y|_Q^2 by 4, and under default
        # limits they used to overflow at about rescale 268, after which the
        # loop kept iterating on inf and nan. It must end no_converge with
        # every cached quantity still finite, well inside its budgets.
        rng = np.random.default_rng(0)
        for i in range(6):
            mat, _ = flat_image_cone(rng, (3, 5, 10)[i % 3], 50, 1e-5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cert, report = full_support_kernel(mat)
        assert mat.shape[0] == 10
        assert report.status == NO_CONVERGE
        limits = default_limits(*mat.shape)
        assert 0 < report.rescalings < limits.max_rescalings
        assert report.fo_iters < limits.max_iterations


class TestMaxSupportKernel:
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
