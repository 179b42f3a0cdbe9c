import numpy as np
import pytest

from helpers import flat_image_cone, narrow_kernel_cone, record_completion
from lincone import (
    MatrixSeparationOracle,
    encoding_length,
    full_support_image,
    full_support_kernel,
    max_support_image,
    max_support_kernel,
    strict_conic_feasibility,
)
from lincone import image as image_module
from lincone import kernel as kernel_module
from lincone import oracle as oracle_module
from lincone.errors import ContractViolationError
from lincone.instances import gen_degenerate
from lincone.report import NO_CONVERGE, Limits, default_limits, default_oracle_limits

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


@pytest.mark.parametrize("complete", [
    lambda given: default_limits(3, 8, encoding_estimate=12.0, given=given),
    lambda given: default_oracle_limits(3, given=given),
], ids=["default_limits", "default_oracle_limits"])
def test_each_unset_field_is_completed_independently(complete):
    full = complete(None)
    assert complete(Limits()) == full
    assert complete(Limits(max_rescalings=5)) == Limits(5, full.max_iterations)
    assert complete(Limits(max_iterations=7)) == Limits(full.max_rescalings, 7)
    # zero is a budget, not an unset field
    assert complete(Limits(0, 0)) == Limits(0, 0)


@pytest.mark.parametrize("fields", [(-1, None), (None, -5), (-1, -1)])
def test_negative_budget_rejected(fields):
    with pytest.raises(ContractViolationError, match="must be at least 0"):
        Limits(*fields)


def _partial_budget_cases():
    deg = gen_degenerate(3, 8, 4, 0).mat
    own_deg = default_limits(3, 8, encoding_estimate=float(encoding_length(deg)))
    flat, _ = flat_image_cone(np.random.default_rng(0), 3, 30, 1e-2)
    narrow = narrow_kernel_cone(np.random.default_rng(0), 3, 20, 0.1, 0.9)
    # name -> (run with limits, module whose completion it calls, that completion's name, own defaults)
    return {
        "full_support_kernel": (lambda lim: full_support_kernel(narrow, lim), kernel_module,
                                "default_limits", default_limits(3, 20)),
        "max_support_kernel": (lambda lim: max_support_kernel(deg, lim), kernel_module,
                               "default_limits", own_deg),
        "full_support_image": (lambda lim: full_support_image(flat, lim), image_module,
                               "default_limits", default_limits(3, 30)),
        "max_support_image": (lambda lim: max_support_image(deg, lim), image_module,
                              "default_limits", own_deg),
        "strict_conic_feasibility": (
            lambda lim: strict_conic_feasibility(MatrixSeparationOracle(flat), 3, lim), oracle_module,
            "default_oracle_limits", default_oracle_limits(3)),
    }


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_iteration_budget_alone_keeps_the_solvers_rescale_budget(name, monkeypatch):
    # Each draw needs more than 50 first-order steps under default limits.
    solve, module, completion, own = _partial_budget_cases()[name]
    seen = record_completion(monkeypatch, module, completion)
    report = solve(Limits(max_iterations=50))[-1]
    assert report.status == NO_CONVERGE
    assert report.fo_iters <= 50
    assert seen == [(Limits(max_iterations=50), Limits(own.max_rescalings, 50))]
