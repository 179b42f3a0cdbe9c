import numpy as np
import pytest

import lincone
from lincone.certify import (
    certified,
    check_complementary_pair,
    check_image_certificate,
    check_kernel_certificate,
)
from lincone.errors import ContractViolationError
from lincone.image import ImageCertificate, full_support_image, max_support_image
from lincone.instances import gen_degenerate, gen_image_feasible, gen_kernel_feasible
from lincone.kernel import KernelCertificate, full_support_kernel, max_support_kernel
from lincone.report import INFEASIBLE_DETECTED, SOLVED


def kcert(x, support):
    x = np.asarray(x, dtype=float)
    return KernelCertificate(
        x=x, support=np.asarray(support, dtype=int), residual=0.0, min_support_value=0.0
    )


def icert(y, support):
    return ImageCertificate(
        y=np.asarray(y, dtype=float),
        support=np.asarray(support, dtype=int),
        min_margin=0.0,
        residual_zero=0.0,
    )


class TestKernelCertificate:
    def test_antipodal_valid(self):
        rep = check_kernel_certificate(np.array([[1.0, -1.0]]), kcert([1, 1], [0, 1]))
        assert rep.valid
        assert rep.residual == 0.0
        assert rep.margin == 1.0

    def test_unbalanced_invalid(self):
        rep = check_kernel_certificate(np.array([[1.0, -1.0]]), kcert([1, 0], [0]))
        assert not rep.valid
        assert rep.residual == pytest.approx(1.0)

    def test_nonzero_off_support(self):
        rep = check_kernel_certificate(np.array([[1.0, -1.0]]), kcert([1, 1e-14], [0]))
        assert not rep.valid
        assert "off the support" in rep.message

    def test_nonpositive_on_support(self):
        rep = check_kernel_certificate(np.array([[1.0, -1.0]]), kcert([1, 0], [0, 1]))
        assert not rep.valid

    def test_empty_support_zero_vector(self):
        rep = check_kernel_certificate(np.eye(2), kcert([0, 0], []))
        assert rep.valid

    def test_zero_column_in_support(self):
        mat = np.array([[0.0, 1.0, -1.0]])
        rep = check_kernel_certificate(mat, kcert([2, 1, 1], [0, 1, 2]))
        assert rep.valid

    def test_residual_on_columns_past_float_range(self):
        # |a_j|^2 overflows here; read as inf, both unit columns came out 0
        # and x = (1, 1) passed with residual 0, though A x != 0.
        mat = np.array([[1e200, 1e200], [0.0, 1e200]])
        rep = check_kernel_certificate(mat, kcert([1, 1], [0, 1]))
        assert not rep.valid
        assert rep.residual == pytest.approx(1.0 + np.sqrt(0.5))
        assert check_kernel_certificate(2.0**600 * np.array([[1.0, -1.0]]), kcert([1, 1], [0, 1])).valid

    def test_small_row_cannot_hide_under_the_others(self):
        # Row 1 reads 3e-12, far below tol * max|x| = 2e-8, yet x is no kernel
        # point of that row: each row is judged against its own terms.
        mat = np.array([[1.0, -1.0], [1e-12, 2e-12]])
        rep = check_kernel_certificate(mat, kcert([1, 1], [0, 1]))
        assert not rep.valid and rep.message.startswith("row 1 residual")
        assert rep.residual < 2e-8
        assert check_kernel_certificate(np.array([[1.0, -1.0], [1e-12, -1e-12]]), kcert([1, 1], [0, 1])).valid

    def test_scaled_down_vector_rejected(self):
        # No nonzero x >= 0 has x_1 + x_2 = 0; a tiny x must not pass on scale alone.
        rep = check_kernel_certificate(np.array([[1.0, 1.0]]), kcert([1e-12, 1e-12], [0, 1]))
        assert not rep.valid
        assert check_kernel_certificate(np.array([[1.0, -1.0]]), kcert([1e-12, 1e-12], [0, 1])).valid

    def test_nan_rejected(self):
        # NaN fails neither the positivity test nor the residual test.
        rep = check_kernel_certificate(np.array([[1.0, -1.0]]), kcert([np.nan, np.nan], [0, 1]))
        assert not rep.valid

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError):
            check_kernel_certificate(np.eye(2), kcert([1, 1, 1], [0]))
        with pytest.raises(ContractViolationError):
            check_kernel_certificate(np.eye(2), kcert([1, 1], [5]))

    def test_solver_outputs_validate(self):
        for seed in range(5):
            inst = gen_kernel_feasible(2, 4, 0.05, seed=seed)
            cert, report = full_support_kernel(inst.mat)
            rep = check_kernel_certificate(inst.mat, cert)
            assert rep.valid, rep.message


class TestImageCertificate:
    def test_scaled_down_vector_rejected(self):
        # a_2^T y = -a_1^T y, so T* is empty and no y separates column 0 alone.
        rep = check_image_certificate(np.array([[1.0, -1.0]]), icert([1e-12], [0]))
        assert not rep.valid
        assert check_image_certificate(np.array([[1.0, 0.0]]), icert([1e-12], [0])).valid

    def test_small_column_cannot_hide_under_the_others(self):
        # a_1^T y = -1e-12 is far below tol * |y| = 1.4e-8, yet y is nowhere
        # near orthogonal to column 1: each column is judged by its cosine.
        mat = np.array([[1.0, 0.0], [0.0, 1e-12]])
        rep = check_image_certificate(mat, icert([1.0, -1.0], [0]))
        assert not rep.valid and rep.message.startswith("off-support |a_j^T y| / |a_j|")
        assert rep.residual < 1.4e-8
        assert check_image_certificate(mat, icert([1.0, 0.0], [0])).valid
        assert check_image_certificate(mat, icert([1.0, 1.0], [0, 1])).valid

    def test_identity_valid(self):
        rep = check_image_certificate(np.eye(2), icert([0.5, 0.5], [0, 1]))
        assert rep.valid
        assert rep.margin == pytest.approx(0.5)

    def test_antipodal_invalid(self):
        rep = check_image_certificate(np.array([[1.0, -1.0]]), icert([1.0], [0]))
        assert not rep.valid
        assert rep.residual == pytest.approx(1.0)

    def test_strictness_has_no_epsilon(self):
        rep = check_image_certificate(np.eye(2), icert([0.5, 0.0], [0, 1]))
        assert not rep.valid

    def test_nan_rejected(self):
        rep = check_image_certificate(np.eye(2), icert([np.nan, np.nan], [0, 1]))
        assert not rep.valid

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError):
            check_image_certificate(np.eye(2), icert([1.0], [0]))

    def test_solver_outputs_validate(self):
        mat = np.array([[1, -1, 1], [0, 0, 1]])
        cert, support, report = max_support_image(mat)
        rep = check_image_certificate(mat, cert)
        assert rep.valid, rep.message


class TestComplementaryPair:
    def test_valid_partition(self):
        rep = check_complementary_pair([0, 1], [2], 3)
        assert rep.valid

    def test_overlap(self):
        rep = check_complementary_pair([0], [0, 1], 2)
        assert not rep.valid
        assert "overlap" in rep.message

    def test_uncovered(self):
        rep = check_complementary_pair([0], [1], 3)
        assert not rep.valid
        assert "uncovered" in rep.message

    def test_degenerate_corpus_end_to_end(self):
        for seed in range(4):
            inst = gen_degenerate(2, 5, 2, seed=seed)
            cert_k, s_sup, _ = max_support_kernel(inst.mat)
            cert_i, t_sup, _ = max_support_image(inst.mat)
            pair = check_complementary_pair(s_sup, t_sup, 5)
            assert pair.valid, pair.message
            assert check_kernel_certificate(inst.mat, cert_k).valid
            assert check_image_certificate(inst.mat, cert_i).valid


def test_certificate_types_have_one_home():
    assert lincone.image.ImageCertificate is lincone.certify.ImageCertificate is lincone.ImageCertificate
    assert lincone.kernel.KernelCertificate is lincone.certify.KernelCertificate is lincone.KernelCertificate


def test_certified_keeps_only_what_the_checker_accepts():
    mat = np.array([[2.0, -4.0]])
    cert = certified(mat, kcert([1, 1], [0, 1]))
    assert (cert.residual, cert.min_support_value) == (0.0, 1.0)
    assert certified(mat, kcert([1, 0], [0])) is None
    assert certified(mat, icert([1.0], [0])) is None
    cert = certified(np.array([[2.0, 3.0]]), icert([0.5], [0, 1]))
    assert (cert.min_margin, cert.residual_zero) == (1.0, 0.0)


_COLUMN_SCALES = np.arange(1.0, 13.0)

# One run of each matrix entry point on columns of unequal, non-unit length,
# and of full_support_kernel's infeasible verdict.
_SOLVES = {
    "full_support_kernel": (
        lambda: gen_kernel_feasible(3, 8, 0.1, 0).mat * _COLUMN_SCALES[:8],
        full_support_kernel,
    ),
    "full_support_kernel_infeasible": (lambda: np.array([[6.0, 1.0, 2.0], [2.0, 2.0, -1.0]]), full_support_kernel),
    "max_support_kernel": (lambda: gen_degenerate(4, 10, 5, 0).mat, lambda a: max_support_kernel(a)[::2]),
    "full_support_image": (lambda: gen_image_feasible(4, 12, 0.1, 0).mat * _COLUMN_SCALES, full_support_image),
    "max_support_image": (lambda: gen_degenerate(4, 10, 5, 0).mat, lambda a: max_support_image(a)[::2]),
}


@pytest.mark.parametrize("name", list(_SOLVES))
def test_reported_margin_and_residual_are_the_checkers(name):
    make, solve = _SOLVES[name]
    mat = make()
    assert np.ptp(np.linalg.norm(mat, axis=0)) > 1.0
    cert, report = solve(mat)
    assert report.status in (SOLVED, INFEASIBLE_DETECTED)
    if isinstance(cert, KernelCertificate):
        rep, numbers = check_kernel_certificate(mat, cert), (cert.min_support_value, cert.residual)
    else:
        rep, numbers = check_image_certificate(mat, cert), (cert.min_margin, cert.residual_zero)
    assert rep.valid
    assert numbers == (report.margin, report.residual) == (rep.margin, rep.residual)
