"""The solvers and checkers work on unit columns, so the input's scale does not reach them.

A power-of-two multiple of A has the same unit columns as A, bit for bit;
2^600 and 2^-600 put every |a_j|^2 past float range, one each way. Row
scaling changes the unit columns, but not the rank or the kernel projector,
which ``linalg`` reads on unit rows. On integral input ``certify.certified``
proves each certificate exactly, so neither max-support solver can pass off
a wrong support on such rows as solved.
"""

import functools

import numpy as np
import pytest

from helpers import integer_draw
from lincone.certify import check_image_certificate, check_kernel_certificate
from lincone.image import ImageCertificate, full_support_image, max_support_image
from lincone.instances import gen_image_feasible, gen_kernel_feasible
from lincone.kernel import KernelCertificate, full_support_kernel, max_support_kernel
from lincone.oracle import MatrixSeparationOracle, strict_conic_feasibility
from lincone.report import NO_CONVERGE, SOLVED

INSTANCES = {
    "image_feasible": lambda: gen_image_feasible(4, 12, 0.1, 0).mat,
    "kernel_feasible": lambda: gen_kernel_feasible(3, 8, 0.1, 0).mat,
    "integer_draw_0": lambda: integer_draw(0),
    "integer_draw_1": lambda: integer_draw(1),
}


def _oracle_solve(mat):
    """The matrix-oracle solver, its y stated as an image certificate on every column."""
    y, report = strict_conic_feasibility(MatrixSeparationOracle(mat), mat.shape[0])
    return ImageCertificate(y=y, support=np.arange(mat.shape[1]), min_margin=0.0, residual_zero=0.0), report


@functools.lru_cache(maxsize=None)
def _runs(name, scale):
    mat = scale * INSTANCES[name]()
    return mat, [solve(mat) for solve in (full_support_image, full_support_kernel, _oracle_solve)]


def _vector(cert):
    return cert.x if isinstance(cert, KernelCertificate) else cert.y


@pytest.mark.parametrize("scale", [2.0**600, 2.0**-600], ids=["2^600", "2^-600"])
@pytest.mark.parametrize("name", list(INSTANCES))
def test_scaled_copy_runs_as_the_instance(name, scale):
    _, base = _runs(name, 1.0)
    mat, runs = _runs(name, scale)
    for (cert, report), (base_cert, base_report) in zip(runs, base):
        counts = (report.status, report.fo_iters, report.rescalings, report.oracle_calls)
        assert counts == (base_report.status, base_report.fo_iters, base_report.rescalings, base_report.oracle_calls)
        assert np.array_equal(_vector(cert), _vector(base_cert))
        if report.status != NO_CONVERGE:
            check = check_kernel_certificate if isinstance(cert, KernelCertificate) else check_image_certificate
            assert check(mat, cert).valid


@pytest.mark.parametrize("seed", range(10))
def test_row_scaled_draws_pass_the_rank_test(seed):
    # Rows alternately times 1e6 and 1e-6: still rank m, but a pivoted QR of
    # the raw matrix cuts the small rows at 1e-9 of the largest pivot.
    mat = integer_draw(seed)
    mat = mat * np.where(np.arange(mat.shape[0]) % 2 == 0, 1e6, 1e-6)[:, None]
    runs = [full_support_image(mat), _oracle_solve(mat)]
    assert runs[0][1].status == runs[1][1].status
    for cert, report in runs:
        if report.status == SOLVED:
            assert check_image_certificate(mat, cert).valid


@pytest.mark.parametrize("seed", [5, 10, 14, 16])
def test_row_scaled_max_support_image_solves_only_with_the_support(seed):
    # Rows alternately times 1e12 and 1 leave the max support unchanged; on
    # these draws a row-scale-free rank test alone let through a wrong support,
    # which only the exact proof rejects.
    mat = integer_draw(seed)
    _, support, report = max_support_image(mat)
    assert report.status == SOLVED
    scaled = mat * np.where(np.arange(mat.shape[0]) % 2 == 0, 1e12, 1.0)[:, None]
    cert, scaled_support, scaled_report = max_support_image(scaled)
    assert scaled_report.status in (SOLVED, NO_CONVERGE)
    if scaled_report.status == SOLVED:
        assert np.array_equal(scaled_support, support)
        assert check_image_certificate(scaled, cert).valid


@pytest.mark.parametrize("seed", [2, 3, 19, 22, 25, 34, 35, 36, 39])
def test_row_scaled_max_support_kernel_solves_only_with_the_support(seed):
    # Rows alternately times 1e12 and 1 leave the max support unchanged. On
    # these draws a wrong support came back solved, its certificate's small
    # rows far below the max|x| bound though not zero against their own terms.
    mat = integer_draw(seed)
    _, support, report = max_support_kernel(mat)
    assert report.status == SOLVED
    scaled = mat * np.where(np.arange(mat.shape[0]) % 2 == 0, 1e12, 1.0)[:, None]
    cert, scaled_support, scaled_report = max_support_kernel(scaled)
    assert scaled_report.status in (SOLVED, NO_CONVERGE)
    if scaled_report.status == SOLVED:
        assert np.array_equal(scaled_support, support)
        assert check_kernel_certificate(scaled, cert).valid
