"""The four matrix entry points on inputs of any rank and with zero columns.

The paper states both problems for any A in R^{m x n}. Each draw below is
padded with a zero row, given a duplicated row, rotated after padding, or
given zero columns; every run must end with a status or raise only the
contract its entry point documents, and every ``solved`` or
``infeasible_detected`` certificate must pass ``certified`` on the caller's
matrix.
"""

import numpy as np
import pytest

from helpers import flat_image_cone, integer_draw
from lincone import image as image_module
from lincone.certify import ImageCertificate, KernelCertificate, certified
from lincone.cli import run
from lincone.errors import ContractViolationError, DegenerateColumnError, UnsupportedInstanceError
from lincone.image import full_support_image, max_support_image
from lincone.instances import ConicInstance, write_instance
from lincone.kernel import full_support_kernel, max_support_kernel
from lincone.report import INFEASIBLE_DETECTED, NO_CONVERGE, SOLVED


def _max(solver):
    def solve(mat):
        cert, support, report = solver(mat)
        assert np.array_equal(support, cert.support)
        return cert, report

    return solve


# Entry point -> (solve, the errors its docstring allows on a finite matrix).
ENTRY_POINTS = {
    # a zero column is never strictly positive
    "full_support_image": (full_support_image, (DegenerateColumnError,)),
    # integral input of full row rank
    "max_support_image": (_max(max_support_image), (UnsupportedInstanceError, ContractViolationError)),
    "full_support_kernel": (full_support_kernel, ()),
    # integral input
    "max_support_kernel": (_max(max_support_kernel), (UnsupportedInstanceError,)),
}


def _shapes(mat, seed):
    """(name, matrix): a zero row appended, a row duplicated, the padded matrix rotated, two zero columns inserted."""
    m, n = mat.shape
    padded = np.vstack([mat, np.zeros((1, n))])
    rot, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((m + 1, m + 1)))
    return [
        ("zero_row", padded),
        ("duplicate_row", np.vstack([mat, mat[-1:]])),
        ("rotated", rot @ padded),
        ("zero_columns", np.hstack([mat[:, :1], np.zeros((m, 2)), mat[:, 1:]])),
    ]


def _flat(seed):
    return flat_image_cone(np.random.default_rng(seed), 3, 8, 0.05)[0]


DRAWS = [("flat", seed, _flat(seed)) for seed in range(3)] + [("int", seed, integer_draw(seed)) for seed in (2, 5, 9)]
CASES = [(f"{kind}{seed}-{shape}", mat) for kind, seed, base in DRAWS for shape, mat in _shapes(base, seed)]


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("name, mat", CASES, ids=[name for name, _ in CASES])
def test_every_input_ends_with_a_status_or_its_contract(entry, name, mat):
    solve, contracts = ENTRY_POINTS[entry]
    try:
        cert, report = solve(mat)
    except contracts:
        return
    if report.status == NO_CONVERGE:
        assert cert.support.size == 0
        return
    infeasible = entry.endswith("kernel") and isinstance(cert, ImageCertificate)
    assert report.status == (INFEASIBLE_DETECTED if infeasible else SOLVED)
    assert certified(mat, cert) is not None


@pytest.mark.parametrize("shape", ["zero_row", "duplicate_row", "rotated"])
@pytest.mark.parametrize("seed", range(3))
def test_rank_deficient_flat_cones_solve(seed, shape):
    # No step of the full-support image loop reads rank(A).
    mat = dict(_shapes(_flat(seed), seed))[shape]
    cert, report = full_support_image(mat)
    assert report.status == SOLVED
    assert np.array_equal(cert.support, np.arange(mat.shape[1]))
    assert certified(mat, cert) is not None


@pytest.mark.parametrize("seed", [1, 8])
def test_no_rank_deficient_verdict_rests_on_rounding(monkeypatch, seed):
    # With twice its first row appended, rounding outside the columns' span
    # lets the loop read a separation of an image-infeasible draw; the checker
    # rejects it, and the run ends no_converge long before the full-rank one.
    base = integer_draw(seed)
    mat = np.vstack([base, 2.0 * base[:1]])
    rejected = []

    def recording(a, c):
        out = certified(a, c)
        rejected.append(out is None)
        return out

    monkeypatch.setattr(image_module, "certified", recording)
    cert, report = full_support_image(mat)
    assert report.status == NO_CONVERGE
    assert rejected == [True]
    assert cert.support.size == 0 and not cert.y.any()
    assert report.rescalings < full_support_image(base)[1].rescalings


def test_zero_column_takes_one_in_the_kernel_point():
    mat = np.array([[1.0, 0.0, -1.0], [2.0, 0.0, -2.0]])
    cert, report = full_support_kernel(mat)
    assert report.status == SOLVED
    assert isinstance(cert, KernelCertificate)
    assert cert.x[1] == 1.0 and cert.x[0] > 0.0 and cert.x[2] > 0.0
    assert np.array_equal(cert.support, [0, 1, 2])


def test_zero_column_infeasible_witness_is_on_the_nonzero_columns(tmp_path, capsys):
    # Gordan: y with a_j^T y > 0 on every nonzero column rules out x > 0 with
    # Ax = 0, whatever the zero columns; the witness goes through the CLI.
    mat = np.array([[1.0, 0.0, 2.0], [1.0, 0.0, 1.0]])
    cert, report = full_support_kernel(mat)
    assert report.status == INFEASIBLE_DETECTED
    assert np.array_equal(cert.support, [0, 2])
    inst, cert_path = tmp_path / "inst.txt", tmp_path / "out.cert"
    inst.write_text(write_instance(ConicInstance(mat, True, "test")))
    assert run(["solve", "--mode", "kernel", "--input", str(inst), "--cert-out", str(cert_path)]) == 0
    assert run(["certify", "--input", str(inst), "--cert", str(cert_path)]) == 0
    assert '"valid": true' in capsys.readouterr().out
