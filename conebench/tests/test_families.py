import numpy as np
import pytest

from conebench import families
from conebench.workloads import WORKLOADS
from lincone import full_support_kernel

NARROW = WORKLOADS["kernel_narrow"].sizes


def _narrow(seed):
    return families.narrow_kernel(NARROW["m"], NARROW["n"], NARROW["spread"], NARROW["u"], seed)


@pytest.mark.parametrize("seed", range(5))
def test_flat_margins_lie_in_rho_band(seed):
    rho = 1e-3
    mat, ystar = families.flat_image(20, 300, rho, seed)
    assert np.allclose(np.linalg.norm(mat, axis=0), 1.0)
    assert np.isclose(np.linalg.norm(ystar), 1.0)
    margins = mat.T @ ystar
    assert margins.min() >= rho * (1 - 1e-9)
    assert margins.max() <= 2 * rho * (1 + 1e-9)
    assert np.linalg.matrix_rank(mat) == 20


def test_flat_is_seeded():
    a, _ = families.flat_image(5, 30, 1e-2, 7)
    b, _ = families.flat_image(5, 30, 1e-2, 7)
    c, _ = families.flat_image(5, 30, 1e-2, 8)
    assert np.array_equal(a, b) and not np.array_equal(a, c)


@pytest.mark.parametrize("seed", range(5))
def test_narrow_is_kernel_feasible(seed):
    mat = _narrow(seed)
    assert mat.shape == (NARROW["m"], NARROW["n"])
    assert np.allclose(np.linalg.norm(mat, axis=0), 1.0)
    # Columns positively spanning R^m is the same as an x > 0 with A x = 0.
    assert families.positively_spans(mat, NARROW["m"])


def test_narrow_median_draw_rescales():
    rescalings = [full_support_kernel(_narrow(s))[1].rescalings for s in range(7)]
    assert np.median(rescalings) >= 1


def test_positive_spanning_check():
    basis = np.eye(3)
    assert not families.positively_spans(basis, 3)
    assert families.positively_spans(np.hstack([basis, -basis]), 3)
    assert not families.positively_spans(np.hstack([basis, -basis])[:, :5], 3)


def test_planted_partition_is_exact():
    mat, s_idx, t_idx = families.planted_partition(6, 40, 20, 0)
    assert np.abs(mat[:, s_idx].sum(axis=1)).max() == 0
    h = next(i for i in range(mat.shape[0]) if np.all(mat[i, t_idx] > 0))
    assert np.all(mat[h, s_idx] == 0)
