"""The four matrix entry points on ``integer_draw`` seeds, at default limits.

Every ``solved`` and ``infeasible_detected`` certificate is proved again here
in rationals, without ``certify``: the kernel side by ``fraction_kernel_point``
(the exact x_S with A_S x_S = 0), the image side by ``Fraction`` dot products
A_T^T y, with y rebuilt so that A_S^T y = 0 off the support T. Draw 127 is
the regression case: its kernel-side witness once came back
``infeasible_detected`` with margins of 1.1e-16 in floats that are exactly 0.

Rows alternately times 1e12 and 1 keep the kernel, the image sign patterns
and so every verdict: on such a copy an entry point may stop ``no_converge``,
but any verdict it returns is the unscaled draw's.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest

from helpers import fraction_kernel_point, integer_draw
from lincone.image import full_support_image, max_support_image
from lincone.kernel import KernelCertificate, full_support_kernel, max_support_kernel
from lincone.report import NO_CONVERGE

ENTRY_POINTS = {
    "full_support_kernel": full_support_kernel,
    "max_support_kernel": max_support_kernel,
    "full_support_image": full_support_image,
    "max_support_image": max_support_image,
}


def row_scaled(mat, scale):
    return mat * np.where(np.arange(mat.shape[0]) % 2 == 0, scale, 1.0)[:, None]


@functools.lru_cache(maxsize=None)
def _runs(seed, scale=1.0):
    """(mat, {entry point: (certificate, report)}) on ``integer_draw(seed)`` with rows scaled."""
    mat = row_scaled(integer_draw(seed), scale)
    runs = {}
    for name, solve in ENTRY_POINTS.items():
        out = solve(mat)
        runs[name] = (out[0], out[-1])
    return mat, runs


def _exact_values(mat, cert):
    """The values ``cert`` claims positive, in Fractions: x_S, or A_T^T y."""
    ints = [[int(v) for v in row] for row in mat]
    on = sorted(set(np.asarray(cert.support, dtype=int).tolist()))
    if isinstance(cert, KernelCertificate):
        # Kernel certificates are stated on unit columns: x_j / |a_j| on A's own.
        hint = (np.asarray(cert.x)[on] / np.linalg.norm(mat[:, on], axis=0)).tolist()
        return fraction_kernel_point([[row[j] for j in on] for row in ints], hint)
    off = [j for j in range(mat.shape[1]) if j not in on]
    y = fraction_kernel_point([[row[j] for row in ints] for j in off], np.asarray(cert.y).tolist())
    return [sum(Fraction(row[j]) * yi for row, yi in zip(ints, y)) for j in on]


def _verdicts(seed, scale=1.0):
    mat, runs = _runs(seed, scale)
    for name, (cert, report) in runs.items():
        if report.status != NO_CONVERGE:
            values = _exact_values(mat, cert)
            assert all(v > 0 for v in values), (name, report.status, min(values))
    return runs


@pytest.mark.parametrize("seed", range(150))
def test_integral_verdicts_are_proved_exactly(seed):
    _verdicts(seed)


def test_row_scaling_changes_no_verdict():
    kept = dict.fromkeys(ENTRY_POINTS, 0)
    for seed in range(40):
        base, scaled = _verdicts(seed), _verdicts(seed, 1e12)
        for name, (cert, report) in scaled.items():
            base_cert, base_report = base[name]
            if report.status == NO_CONVERGE:
                continue
            assert report.status == base_report.status, (seed, name)
            assert np.array_equal(cert.support, base_cert.support), (seed, name)
            kept[name] += 1
    assert kept["max_support_kernel"] >= 34 and kept["max_support_image"] >= 32, kept
