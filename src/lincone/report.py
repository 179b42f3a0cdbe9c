"""Solve outcome bookkeeping: statuses, counters, limits, bound checks."""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, field

from .errors import ContractViolationError

__all__ = [
    "SOLVED",
    "NO_CONVERGE",
    "INFEASIBLE_DETECTED",
    "BoundCheck",
    "SolveReport",
    "Limits",
    "default_limits",
    "default_oracle_limits",
    "rescale_epsilon",
    "rescaling_bound",
    "timed",
]

SOLVED = "solved"
NO_CONVERGE = "no_converge"
INFEASIBLE_DETECTED = "infeasible_detected"


@dataclass(frozen=True)
class BoundCheck:
    """One counter-versus-theory comparison, e.g. rescalings against the rho bound."""

    name: str
    bound: float
    observed: float
    passed: bool


@dataclass
class SolveReport:
    status: str
    fo_iters: int = 0
    rescalings: int = 0
    removals: int = 0
    residual: float = 0.0
    margin: float = 0.0
    wall_ms: float = 0.0
    oracle_calls: int = 0  # every query, the seeding one of each phase included
    bound_checks: list[BoundCheck] = field(default_factory=list)

    def as_dict(self) -> dict:
        out = asdict(self)
        for check in out["bound_checks"]:
            check["pass"] = check.pop("passed")
        return out


@dataclass(frozen=True)
class Limits:
    """Iteration and rescale budgets, none negative; a field left None takes the solver's default."""

    max_rescalings: int | None = None
    max_iterations: int | None = None

    def __post_init__(self):
        if any(budget is not None and budget < 0 for budget in (self.max_rescalings, self.max_iterations)):
            raise ContractViolationError(f"budgets must be at least 0, got {self}")


def _complete(given: Limits | None, max_rescalings: int, max_iterations: int) -> Limits:
    """``given`` with each unset field filled in, independently of the other."""
    given = given or Limits()
    return Limits(
        max_rescalings if given.max_rescalings is None else given.max_rescalings,
        max_iterations if given.max_iterations is None else given.max_iterations,
    )


def default_limits(
    m: int, n: int, encoding_estimate: float | None = None, given: Limits | None = None
) -> Limits:
    """Budgets generous enough for any instance the bit-length bound admits.

    Rescale budget scales like m times the encoding length; the iteration
    budget multiplies the per-phase contraction bound (about 1/eps^2 steps
    with eps = 1/(11m)) by the number of phases. Fields that ``given`` sets
    are kept.
    """
    if encoding_estimate is None:
        encoding_estimate = 8.0 * max(m, 1)
    max_rescalings = int(10 * m * (math.log2(max(n, 2)) + 4.0 * encoding_estimate))
    per_phase = math.ceil(300.0 * m * m * (math.log2(max(n, 2)) + 4.0))
    return _complete(given, max_rescalings, per_phase * (max_rescalings + 1))


def default_oracle_limits(m: int, given: Limits | None = None) -> Limits:
    """The oracle solver's budgets: 64m rescalings, ceil(1/eps^2) steps per phase.

    An oracle gives no encoding length to scale by, so the rescale budget is
    a fixed multiple of m, and the step budget, lazy steps on stored answers
    included, covers all 64m + 1 phases. Fields that ``given`` sets are kept.
    """
    per_phase = int(math.ceil(1.0 / rescale_epsilon(m) ** 2))
    return _complete(given, 64 * m, per_phase * (64 * m + 1))


def rescale_epsilon(m: int) -> float:
    """The paper's rescaling threshold eps = 1/(11m)."""
    return 1.0 / (11.0 * m)


def rescaling_bound(m: int, rho: float, image: bool = False) -> float:
    """Theory cap on the rescale count given a known Goffin value.

    Kernel form: ceil(m log_{3/2} 1/|rho|) plus m of slack. Image form:
    ceil(m log_{3/2} 2/rho). A caller that built its instance with a known rho
    compares a report's ``rescalings`` with this; no solver takes rho.
    """
    if rho == 0.0:
        return math.inf
    ratio = 2.0 / rho if image else 1.0 / abs(rho)
    slack = 0 if image else m
    return float(math.ceil(m * math.log(max(ratio, 1.0)) / math.log(1.5)) + slack)


def timed(solver):
    """Fill ``wall_ms`` of the SolveReport a solver returns last in its tuple."""

    @functools.wraps(solver)
    def run(*args, **kwargs):
        start = time.perf_counter()
        out = solver(*args, **kwargs)
        out[-1].wall_ms = (time.perf_counter() - start) * 1000.0
        return out

    return run
