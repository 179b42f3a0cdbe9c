import numpy as np
import pytest

from lincone import (
    MatrixSeparationOracle,
    full_support_image,
    full_support_kernel,
    max_support_image,
    max_support_kernel,
    strict_conic_feasibility,
)

DEGENERATE = np.array([[1, -1, 1], [0, 0, 1]])

ENTRY_POINTS = {
    "full_support_kernel": lambda: full_support_kernel(np.array([[1.0, -1.0]])),
    "max_support_kernel": lambda: max_support_kernel(DEGENERATE),
    "full_support_image": lambda: full_support_image(np.eye(2)),
    "max_support_image": lambda: max_support_image(DEGENERATE),
    "strict_conic_feasibility": lambda: strict_conic_feasibility(MatrixSeparationOracle(np.eye(2)), 2),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_fills_wall_ms(name):
    report = ENTRY_POINTS[name]()[-1]
    assert report.status == "solved"
    assert report.wall_ms > 0.0
    assert report.as_dict()["wall_ms"] == report.wall_ms
