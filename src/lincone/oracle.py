"""Strict conic feasibility when the cone is known only through an oracle.

The solver here never sees a matrix. It talks to a strict separation oracle:
given a query point v, the oracle either certifies v is interior to the cone
or hands back a vector a with a^T v <= 0. The von Neumann step, the rescale
and its determinant ledger are the explicit-matrix image solver's own, with
all bookkeeping restricted to the set of vectors the oracle has actually
returned. Since the oracle answers in its own coordinates, the metric is kept
as a whitening map G (Q = G^T G), the product of the per-step factors W' of
the image solver's growth step, and queries go out at Qy = G^T G y.

Two adapters are provided: one wrapping an explicit matrix (each column is a
constraint a_i^T y >= 0) and one driving an external program over a text
line protocol.
"""

from __future__ import annotations

import math
import shlex
import subprocess
from dataclasses import dataclass, field
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from .errors import ContractViolationError, OracleFaultError
from .firstorder import BUDGET_EXHAUSTED, SMALL_NORM, _vn_cap, _vn_step
from .image import _grow_metric, _growth_check
from .linalg import SymPosDef, as_matrix
from .report import NO_CONVERGE, SOLVED, Limits, SolveReport, rescale_epsilon, timed

__all__ = [
    "INTERIOR",
    "SMALL_NORM",
    "SeparationOracle",
    "MatrixSeparationOracle",
    "SubprocessOracle",
    "ActiveSet",
    "oracle_von_neumann",
    "strict_conic_feasibility",
]

INTERIOR = "interior"


@runtime_checkable
class SeparationOracle(Protocol):
    """Strict separation oracle for a full-dimensional cone.

    ``query(v)`` returns None when v lies in the cone's interior, otherwise
    a vector a with a^T v <= 0. Implementations must be deterministic for a
    given query point; the solvers re-query and rely on stable answers.
    """

    dim: int

    def query(self, v: np.ndarray) -> Optional[np.ndarray]: ...


class MatrixSeparationOracle:
    """Oracle for the polyhedral cone {v : A^T v >= 0}.

    Returns the most violated constraint, measured against unit column
    norms so the pick does not depend on row scaling; ties go to the lowest
    index. Interior requires every margin strictly positive.
    """

    def __init__(self, mat):
        mat = as_matrix(mat)
        norms = np.linalg.norm(mat, axis=0)
        if np.any(norms == 0.0):
            raise ContractViolationError(
                "zero column: the cone has empty interior and no valid oracle"
            )
        self.mat = mat
        self.dim = mat.shape[0]
        self._norms = norms
        self.calls = 0

    def query(self, v: np.ndarray) -> Optional[np.ndarray]:
        self.calls += 1
        margins = (self.mat.T @ v) / self._norms
        k = int(np.argmin(margins))
        if margins[k] > 0.0:
            return None
        return self.mat[:, k].copy()


class SubprocessOracle:
    """Oracle implemented by an external program.

    Protocol: one query per line, the components of v as whitespace
    separated decimals. The program answers with a single line, either
    ``YES`` or the components of a violating vector. The child process is
    kept alive across queries.
    """

    def __init__(self, cmd, dim: int):
        if isinstance(cmd, str):
            cmd = shlex.split(cmd)
        self.dim = int(dim)
        self.calls = 0
        self._proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )

    def query(self, v: np.ndarray) -> Optional[np.ndarray]:
        if self._proc.poll() is not None:
            raise OracleFaultError("oracle process exited")
        self.calls += 1
        line = " ".join(repr(float(c)) for c in v)
        try:
            self._proc.stdin.write(line + "\n")
            self._proc.stdin.flush()
            answer = self._proc.stdout.readline()
        except (BrokenPipeError, OSError) as exc:
            raise OracleFaultError("oracle process pipe broke") from exc
        if answer == "":
            raise OracleFaultError("oracle process closed its output")
        answer = answer.strip()
        if answer == "YES":
            return None
        parts = answer.split()
        if len(parts) != self.dim:
            raise OracleFaultError(
                f"oracle answer has {len(parts)} fields, expected {self.dim}"
            )
        try:
            return np.array([float(p) for p in parts])
        except ValueError as exc:
            raise OracleFaultError(f"unparseable oracle answer: {answer!r}") from exc

    def close(self):
        if self._proc.poll() is None:
            self._proc.stdin.close()
            self._proc.terminate()
            self._proc.wait(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


@dataclass
class ActiveSet:
    """Oracle-returned vectors with convex coefficients over them.

    Vectors are deduplicated by exact bit pattern; re-returned vectors fold
    into the existing slot. Coefficients stay on the simplex.
    """

    vectors: list = field(default_factory=list)
    coeffs: list = field(default_factory=list)
    _index: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.vectors)

    def slot(self, vec: np.ndarray) -> int:
        """Index of vec in the set, appending a zero-weight slot if new."""
        key = vec.tobytes()
        pos = self._index.get(key)
        if pos is None:
            pos = len(self.vectors)
            self._index[key] = pos
            self.vectors.append(vec.copy())
            self.coeffs.append(0.0)
        return pos

    def mix(self, pos: int, lam: float):
        """Scale all weights by (1-lam) and add lam at pos."""
        for i in range(len(self.coeffs)):
            self.coeffs[i] *= 1.0 - lam
        self.coeffs[pos] += lam

    def check_simplex(self):
        total = math.fsum(self.coeffs)
        if any(c < 0.0 for c in self.coeffs) or abs(total - 1.0) > 1e-10:
            raise ContractViolationError("active-set coefficients left the simplex")


def _fault_check(a: np.ndarray, v: np.ndarray):
    if float(a @ v) > 0.0:
        raise OracleFaultError("oracle returned a vector with a^T v > 0")
    if not np.any(a):
        raise OracleFaultError("oracle returned a zero vector")


def _query_point(gmap: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Qy = G^T (G y): the point the oracle is asked about, and the point returned."""
    return gmap.T @ (gmap @ y)


def oracle_von_neumann(oracle: SeparationOracle, gmap: np.ndarray, eps: float, budget=None):
    """Von Neumann iteration driven by a separation oracle.

    ``gmap`` is the whitening map G of the metric Q = G^T G: it takes the
    oracle's coordinates to ones where the metric is the identity. Maintains
    y as a convex combination of the Q-normalized vectors the oracle has
    returned. Each round checks ``|y|_Q = |G y| <= eps``, then queries the
    oracle at Qy. A YES answer stops with status interior; a returned vector
    updates y by the usual line-search step.

    Returns ``(active, y, status, iterations)``. ``iterations`` counts
    oracle queries after the seeding call at 0.
    """
    if eps <= 0.0:
        raise ContractViolationError("eps must be positive")
    m = oracle.dim
    cap = _vn_cap(eps, budget)
    size_cap = _vn_cap(eps, None)

    active = ActiveSet()
    first = oracle.query(np.zeros(m))
    if first is None:
        # the cone is all of R^m; 0 itself is interior
        return active, np.zeros(m), INTERIOR, 0
    _fault_check(first, np.zeros(m))
    y = first / np.linalg.norm(gmap @ first)
    pos = active.slot(y)
    active.coeffs[pos] = 1.0

    status = None
    iters = 0
    for _ in range(cap + 1):
        wy = gmap @ y
        ynorm = float(np.linalg.norm(wy))
        if ynorm <= eps:
            status = SMALL_NORM
            break
        if iters >= cap:
            break
        v = _query_point(gmap, y)
        answer = oracle.query(v)
        iters += 1
        if answer is None:
            status = INTERIOR
            break
        _fault_check(answer, v)
        wa = gmap @ answer
        anorm = float(np.linalg.norm(wa))
        ahat = answer / anorm
        lam = _vn_step(ynorm * ynorm, float(wa @ wy) / anorm)
        pos = active.slot(ahat)
        active.mix(pos, lam)
        y = (1.0 - lam) * y + lam * ahat
        active.check_simplex()
        if len(active) > size_cap:
            raise ContractViolationError("active set outgrew its ceiling")
    if status is None:
        # the norm decays like 1/sqrt(t), so the intrinsic cap ends small
        status = SMALL_NORM if np.linalg.norm(gmap @ y) <= eps else BUDGET_EXHAUSTED
    return active, y, status, iters


@timed
def strict_conic_feasibility(oracle: SeparationOracle, m: int, limits: Limits | None = None):
    """Find an interior point of a full-dimensional cone given by an oracle.

    Alternates oracle-driven von Neumann phases with rescalings built from
    the phase's active set. Returns ``(y, report)``; on success the oracle
    approved y itself, so ``oracle.query(y) is None`` by construction.
    """
    if limits is None:
        per_phase = int(math.ceil(1.0 / rescale_epsilon(m) ** 2))
        limits = Limits(max_rescalings=64 * m, max_iterations=per_phase * (64 * m + 1))
    eps = rescale_epsilon(m, limits)

    report = SolveReport(status=NO_CONVERGE)
    # G is the product of the per-step factors W' of ``_grow_metric``, so
    # Q = G^T G. It starts as the factor of I built through ``SymPosDef``,
    # which keeps a linalg span on the traced benchmark's rescale-free runs
    # until the solvers report their own timings (ROADMAP item 4).
    gmap = SymPosDef(np.eye(m)).inv_factor
    ybar = np.zeros(m)
    min_ratio = math.inf
    while report.rescalings <= limits.max_rescalings:
        fo_budget = limits.max_iterations - report.fo_iters
        if fo_budget <= 0:
            break
        active, y, status, iters = oracle_von_neumann(oracle, gmap, eps, budget=fo_budget)
        report.fo_iters += iters
        if status == INTERIOR:
            # The very expression of the approved query, so the bits match.
            ybar = _query_point(gmap, y)
            report.status = SOLVED
            break
        if status != SMALL_NORM:
            break
        if report.rescalings == limits.max_rescalings:
            break
        # The active vectors are stored Q-normalized, so mapped by G they are
        # unit vectors and their coefficients are the weights of the rescale.
        cols = gmap @ np.stack(active.vectors, axis=1)
        wfac, ratio = _grow_metric(cols, np.asarray(active.coeffs), eps)
        gmap = wfac @ gmap
        min_ratio = min(min_ratio, ratio)
        report.rescalings += 1
        ybar = _query_point(gmap, y)

    if report.rescalings > 0:
        report.bound_checks.append(_growth_check(min_ratio))
    return ybar, report
