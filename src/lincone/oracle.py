"""Strict conic feasibility when the cone is known only through an oracle.

The solver here never sees a matrix. It talks to a strict separation oracle:
given a query point v, the oracle either certifies v is interior to the cone
or hands back a vector a with a^T v <= 0. The von Neumann step, the rescale
and its determinant ledger are the explicit-matrix image solver's own, with
all bookkeeping restricted to the set of vectors the oracle has actually
returned. Since the oracle answers in its own coordinates, the metric is kept
as a whitening map G (Q = G^T G), the product of the growth steps' factors
W'. A phase runs in G's coordinates: it stores each answer a as the unit
vector G a / |G a|, keeps w = G y and queries at G^T w = Qy, so a rescale
reads its columns straight from the active set.

Two adapters are provided: one wrapping an explicit matrix (each column is a
constraint a_i^T y >= 0) and one driving an external program over a text
line protocol.
"""

from __future__ import annotations

import math
import shlex
import subprocess
from typing import Optional, Protocol, runtime_checkable

import numpy as np
from scipy.linalg.blas import ddot

from .errors import ContractViolationError, OracleFaultError
from .firstorder import BUDGET_EXHAUSTED, SMALL_NORM, _vn_cap, _vn_step
from .image import _NORM_RANGE, _grow_metric, _growth_check
from .linalg import SymPosDef, _pow2_scaled, as_matrix, normalize_columns
from .report import NO_CONVERGE, SOLVED, Limits, SolveReport, default_oracle_limits, rescale_epsilon, timed

__all__ = [
    "INTERIOR",
    "OUT_OF_RANGE",
    "SMALL_NORM",
    "SeparationOracle",
    "MatrixSeparationOracle",
    "SubprocessOracle",
    "oracle_von_neumann",
    "strict_conic_feasibility",
]

INTERIOR = "interior"
# |G a| fell to 1 / _NORM_RANGE of |a|: the whitened answer nears underflow.
OUT_OF_RANGE = "out_of_range"
# Seconds SubprocessOracle.close waits on SIGTERM before it kills the child.
_CLOSE_GRACE_S = 5.0


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

    Returns the most violated constraint, measured against the unit columns
    kept from construction, so the pick does not depend on row scaling and a
    query is one product and one argmin; ties go to the lowest index.
    Interior requires every margin strictly positive, on the unit columns and
    then on the raw ones; an approving query pays that second product.
    """

    def __init__(self, mat):
        mat = as_matrix(mat)
        if not mat.any(axis=0).all():
            raise ContractViolationError("zero column: the cone has empty interior and no valid oracle")
        self.mat = mat
        self.dim = mat.shape[0]
        self._unit_t = normalize_columns(mat).T
        self.calls = 0

    def query(self, v: np.ndarray) -> Optional[np.ndarray]:
        self.calls += 1
        margins = self._unit_t.dot(v)
        k = int(margins.argmin())
        if margins[k] > 0.0:
            # A unit margin can read positive by rounding alone where the raw
            # one is 0: confirm on the raw products, the ones a certificate
            # check takes.
            raw = self.mat.T @ v
            k = int(raw.argmin())
            if raw[k] > 0.0:
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
        try:
            self._proc = subprocess.Popen(
                cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
            )
        except OSError as exc:
            raise OracleFaultError(f"cannot start the oracle process: {exc}") from exc

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
        """Stop the child: SIGTERM, then SIGKILL if it is still running after a grace period."""
        if self._proc.poll() is None:
            self._proc.stdin.close()
            self._proc.terminate()
            try:
                self._proc.wait(timeout=_CLOSE_GRACE_S)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def oracle_von_neumann(oracle: SeparationOracle, gmap: np.ndarray, eps: float, budget=None):
    """Von Neumann iteration driven by a separation oracle.

    ``gmap`` is the whitening map G of the metric Q = G^T G: it takes the
    oracle's coordinates to ones where the metric is the identity, and the
    loop runs there. It stores each returned a as the unit vector G a / |G a|,
    once per distinct bit pattern, and keeps w = G y, a convex combination
    of those. Each round checks ``|w| <= eps``, a verdict taken only on w
    recomputed from the stored vectors, then queries the oracle at
    G^T w = Qy. A YES answer stops with status interior; a returned vector
    moves w by the usual line-search step.

    Each answer is checked once, before any other arithmetic on it: 0 < a^T a
    < inf rejects zero, NaN and infinite answers (one whose a^T a only left
    float range is scaled back by a power of two, which keeps G a / |G a|),
    then a^T v <= 0 up to the rounding of an m-term dot product, 2 u m |a| |v|
    with u the unit roundoff (else ``OracleFaultError``), computed only when
    a^T v reads positive. The phase stops with status ``out_of_range`` once
    |G a| <= |a| / ``_NORM_RANGE``, where G a nears underflow. The step
    takes z = (Ga)^T w / |Ga| as a^T v / |Ga|, clamped to at most 0, since
    its rounding grows with cond(G); steps lie in [0, 1], and
    ``_grow_metric`` checks that the coefficients are convex when a rescale
    consumes them.

    Cost model: a step is the oracle's own call plus O(m^2) arithmetic: the
    two m x m products G a and G^T w, three m-vector dots (one BLAS
    ``ddot``, two ``ndarray.dot``) and four elementwise m-vector
    operations. As x in ``von_neumann``, the coefficients are one lazy scale times a vector, so
    a step updates one float and one entry of them, not all k, and |w|^2
    follows the step's own formula between verdicts.

    Returns ``(vectors, coeffs, w, status, iterations)``: the stored unit
    vectors, one per row, their convex coefficients, and w, which is
    whitened. On status interior the oracle approved ``gmap.T.dot(w)``, bit
    for bit: the loop forms each query point by that expression.
    ``iterations`` counts oracle queries after the seeding call at 0.
    """
    if not 0.0 < eps < math.inf:
        raise ContractViolationError(f"eps must be positive and finite, got {eps!r}")
    cap = _vn_cap(eps, budget)
    size_cap = _vn_cap(eps, None)
    dot_rounding = oracle.dim * float(np.finfo(float).eps)  # 2 u m
    query_point = gmap.T.dot  # bound once: gmap.T is a new view per call
    floor2 = _NORM_RANGE**-2

    # The first k rows and entries hold the stored vectors and their
    # coefficients, which are scale * cs[:k]; both arrays double when full.
    # scale is the product of the steps' 1 - lam, and with z <= 0 the step
    # formula gives both 1 - lam >= 1/2 and 1 - lam >= |w'|^2 / |w|^2. Since
    # the seeding step or the last fold, each at |w| <= 1, scale >= |w|^2 >
    # eps^2 until a step ends at |w| <= eps, and that step keeps scale >
    # eps^2 / 2. So scale cannot underflow, cs sums to 1 / scale < 2 / eps^2,
    # and the scale is folded back only before a verdict recompute and on
    # return.
    vecs, cs = np.empty((16, oracle.dim)), np.zeros(16)
    rows = {}  # a stored vector's bits -> its row
    v, w = np.zeros(oracle.dim), np.zeros(oracle.dim)
    answer = oracle.query(v)
    status = INTERIOR  # unless the loop below ends otherwise
    iters = k = 0
    scale = 1.0
    while answer is not None:
        anorm2 = ddot(answer, answer)  # BLAS: past float range it reads inf, with no warning
        if not 0.0 < anorm2 < math.inf:
            answer = _pow2_scaled(answer)[0]
            anorm2 = ddot(answer, answer)
            if not 0.0 < anorm2 < math.inf:
                raise OracleFaultError(f"oracle answer has a^T a = {anorm2}, not in (0, inf)")
        av = float(answer.dot(v))
        if av > 0.0 and av > dot_rounding * math.sqrt(anorm2 * float(v.dot(v))):
            raise OracleFaultError("oracle returned a vector with a^T v > 0")
        u = gmap.dot(answer)
        unorm2 = float(u.dot(u))
        if unorm2 <= anorm2 * floor2:
            status = OUT_OF_RANGE
            break
        unorm = math.sqrt(unorm2)
        u /= unorm
        pos = rows.setdefault(u.tobytes(), k)
        if pos == k:
            if k == cs.size:
                vecs = np.concatenate([vecs, np.empty_like(vecs)])
                cs = np.concatenate([cs, np.zeros_like(cs)])
            vecs[k] = u
            k += 1
        if iters:
            # z = (Ga)^T w / |Ga| = a^T v / |Ga|, the product the fault test read
            z = min(av / unorm, 0.0)
            lam = _vn_step(ynorm2, z)
            scale *= 1.0 - lam
            cs[pos] += lam / scale
            ynorm2 = (1.0 - lam) ** 2 * ynorm2 + 2.0 * lam * (1.0 - lam) * z + lam * lam
        else:  # the seeding answer becomes w itself
            lam = cs[pos] = 1.0
            ynorm2 = float(u.dot(u))
        w *= 1.0 - lam
        w += lam * u
        if k > size_cap:
            raise ContractViolationError("active set outgrew its ceiling")
        if ynorm2 <= eps * eps:
            # Verdicts are taken on a freshly recomputed w only.
            cs[:k] *= scale
            scale = 1.0
            w = cs[:k].dot(vecs[:k])
            ynorm2 = float(w.dot(w))
            if ynorm2 <= eps * eps:
                status = SMALL_NORM
                break
        if iters >= cap:
            status = BUDGET_EXHAUSTED
            break
        v = query_point(w)
        answer = oracle.query(v)
        iters += 1
    return vecs[:k], cs[:k] * scale, w, status, iters


@timed
def strict_conic_feasibility(oracle: SeparationOracle, m: int, limits: Limits | None = None, *, hook=None):
    """Find an interior point of a full-dimensional cone given by an oracle.

    Alternates oracle-driven von Neumann phases with rescalings built from
    the phase's active set. Returns ``(y, report)``; on success the oracle
    approved y itself, so ``oracle.query(y) is None`` by construction.
    ``no_converge`` when a budget runs out or a phase ends ``out_of_range``.
    ``hook(event, **data)`` observes each rescale.
    """
    limits = default_oracle_limits(m, given=limits)
    eps = rescale_epsilon(m)

    report = SolveReport(status=NO_CONVERGE)
    # G is the product of the per-step factors W' of ``_grow_metric``, so
    # Q = G^T G. It starts as the factor of I built through ``SymPosDef``,
    # which keeps a linalg span on the traced benchmark's rescale-free runs
    # until the solvers report their own timings (ROADMAP item 6).
    gmap = SymPosDef(np.eye(m)).inv_factor
    ybar = np.zeros(m)
    min_ratio = math.inf
    while report.rescalings <= limits.max_rescalings:
        fo_budget = limits.max_iterations - report.fo_iters
        if fo_budget <= 0:
            break
        vectors, coeffs, w, status, iters = oracle_von_neumann(oracle, gmap, eps, budget=fo_budget)
        report.fo_iters += iters
        report.oracle_calls += iters + 1
        if status == INTERIOR:
            # The very expression of the approved query, so the bits match.
            ybar = gmap.T.dot(w)
            report.status = SOLVED
            break
        if status != SMALL_NORM:
            break
        if report.rescalings == limits.max_rescalings:
            break
        # Whitened unit vectors and their coefficients, which ``_grow_metric`` checks.
        wfac, ratio = _grow_metric(vectors.T, coeffs, eps)
        gmap = wfac @ gmap
        min_ratio = min(min_ratio, ratio)
        report.rescalings += 1
        ybar = gmap.T @ (wfac @ w)
        if hook is not None:
            hook("rescale", ratio=ratio, active=len(coeffs), iterations=iters)

    if report.rescalings > 0:
        report.bound_checks.append(_growth_check(min_ratio))
    return ybar, report
