"""Solve outcome bookkeeping: statuses, counters, limits, bound checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "SOLVED",
    "NO_CONVERGE",
    "INFEASIBLE_DETECTED",
    "BoundCheck",
    "SolveReport",
    "Limits",
    "default_limits",
    "rescale_epsilon",
    "rescaling_bound",
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
    bound_checks: list[BoundCheck] = field(default_factory=list)

    def add_bound_check(self, name: str, bound: float, observed: float) -> BoundCheck:
        check = BoundCheck(name=name, bound=bound, observed=observed, passed=observed <= bound)
        self.bound_checks.append(check)
        return check

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "fo_iters": self.fo_iters,
            "rescalings": self.rescalings,
            "removals": self.removals,
            "residual": self.residual,
            "margin": self.margin,
            "wall_ms": self.wall_ms,
            "bound_checks": [
                {"name": c.name, "bound": c.bound, "observed": c.observed, "pass": c.passed}
                for c in self.bound_checks
            ],
        }


@dataclass(frozen=True)
class Limits:
    """Iteration and rescale budgets; epsilon override is clamped by the solvers."""

    max_rescalings: int
    max_iterations: int
    epsilon: float | None = None


def default_limits(m: int, n: int, encoding_estimate: float | None = None) -> Limits:
    """Budgets generous enough for any instance the bit-length bound admits.

    Rescale budget scales like m times the encoding length; the iteration
    budget multiplies the per-phase contraction bound (about 1/eps^2 steps
    with eps = 1/(11m)) by the number of phases.
    """
    if encoding_estimate is None:
        encoding_estimate = 8.0 * max(m, 1)
    max_rescalings = int(10 * m * (math.log2(max(n, 2)) + 4.0 * encoding_estimate))
    per_phase = math.ceil(300.0 * m * m * (math.log2(max(n, 2)) + 4.0))
    max_iterations = per_phase * (max_rescalings + 1)
    return Limits(max_rescalings=max_rescalings, max_iterations=max_iterations)


def rescale_epsilon(m: int, limits: Limits | None = None) -> float:
    """The rescaling threshold eps = 1/(11m), lowered by ``limits.epsilon`` if smaller."""
    eps = 1.0 / (11.0 * m)
    if limits is not None and limits.epsilon is not None:
        eps = min(limits.epsilon, eps)
    return eps


def rescaling_bound(m: int, rho: float, image: bool = False) -> float:
    """Theory cap on the rescale count given a known Goffin value.

    Kernel form: ceil(m log_{3/2} 1/|rho|). Image form: ceil(m log_{3/2} 2/rho).
    """
    if rho == 0.0:
        return math.inf
    ratio = 2.0 / rho if image else 1.0 / abs(rho)
    if ratio <= 1.0:
        return 0.0
    return float(math.ceil(m * math.log(ratio) / math.log(1.5)))
