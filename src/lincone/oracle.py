"""Strict conic feasibility when the cone is known only through an oracle.

The solver here never sees a matrix. It talks to a strict separation oracle:
given a query point v, the oracle either certifies v is interior to the cone
or hands back a vector a with a^T v <= 0. The von Neumann step, the rescale
and its determinant ledger are the explicit-matrix image solver's own, with
all bookkeeping restricted to the set of vectors the oracle has actually
returned. Since the oracle answers in its own coordinates, the metric is kept
as a whitening map G (Q = G^T G), the product of the growth steps' factors
W'. A phase runs in G's coordinates: it stores each answer a as the unit
vector G a / |G a|, keeps w = G y and steps on the stored answers, querying
at G^T w = Qy only when none is violated enough; a rescale reads its columns
straight from the active set.

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
from scipy.linalg.blas import daxpy, ddot

from .errors import ContractViolationError, OracleFaultError
from .firstorder import BUDGET_EXHAUSTED, SMALL_NORM, _vn_cap, _vn_step
from .image import _NORM_RANGE, _grow_metric, _growth_check, _phase_check
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
# A phase steps on a stored row, not a fresh answer, while the row's cosine
# with w is below this fraction of the oracle's last answer's. On the oracle
# benchmark 1/4 saved a fifth of the queries of 1/2 but took a third more steps.
_LAZY_FRACTION = 0.5


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
    """Von Neumann iteration driven by a separation oracle, lazily.

    ``gmap`` is the whitening map G of the metric Q = G^T G: it takes the
    oracle's coordinates to ones where the metric is the identity, and the
    loop runs there. It stores each returned a as the unit vector G a / |G a|,
    once per distinct bit pattern, and keeps w = G y, a convex combination
    of those. It steps on the most violated row while u^T w <
    ``_LAZY_FRACTION`` c |w|, c <= 0 the cosine of the last answer with w
    when asked, and else queries at G^T w = Qy: a step with u^T w <= 0 gives
    1/|w'|^2 >= 1/|w|^2 + 1, so ceil(1/eps^2) steps still bound a phase. A
    YES answer stops with status interior; ``|w| <= eps`` is a verdict
    taken only on w recomputed from the stored vectors.

    Each answer is checked once, before any other arithmetic on it: 0 < a^T a
    < inf rejects zero, NaN and infinite answers (one whose a^T a only left
    float range is scaled back by a power of two, which keeps G a / |G a|),
    then a^T v <= 0 up to the rounding of an m-term dot product, 2 u m |a| |v|
    with u the unit roundoff (else ``OracleFaultError``), computed only when
    a^T v reads positive. The phase stops with status ``out_of_range`` once
    |G a| <= |a| / ``_NORM_RANGE``, where G a nears underflow. The answer's
    step takes z = (Ga)^T w / |Ga| as a^T v / |Ga|, clamped to at most 0,
    since its rounding grows with cond(G); steps lie in [0, 1], and
    ``_grow_metric`` checks that the coefficients are convex when a rescale
    consumes them.

    Cost model: a lazy step is one k x m product on the stored rows, an
    argmin and O(m) work; a query step adds the oracle's call, the m x m
    products G a and G^T w and three m-vector dots. As in ``von_neumann``,
    the coefficients and w are one lazy scale times a vector: a step is
    ``_vn_step``, one entry of the coefficients and one in-place BLAS
    ``daxpy`` on w, with no separate scaling of w.

    Returns ``(vectors, coeffs, w, status, steps, queries)``: the stored unit
    vectors, one per row, their convex coefficients, and w, which is
    whitened. On status interior the oracle approved ``gmap.T.dot(w)``, bit
    for bit: the loop forms each query point by that expression. ``steps``
    counts steps after the seeding answer became w, lazy ones included, and
    ``queries`` every oracle call, the seeding one at 0 included.
    """
    cap = _vn_cap(eps, budget)
    size_cap = _vn_cap(eps, None)
    m = oracle.dim
    dot_rounding = m * float(np.finfo(float).eps)  # 2 u m
    query_point = gmap.T.dot  # bound once: gmap.T is a new view per call
    floor2 = _NORM_RANGE**-2

    # The first k rows and entries hold the stored vectors and their
    # coefficients, which are scale * cs[:k]; both arrays double when full.
    # w = scale * ws is formed only for a query and the return. scale is the
    # product of the steps' 1 - lam, and with z <= 0 the step formula gives
    # both 1 - lam >= 1/2 and 1 - lam >= |w'|^2 / |w|^2. Since the seeding
    # step or the last fold, each at |w| <= 1, scale >= |w|^2 > eps^2 until a
    # step ends at |w| <= eps, and that step keeps scale > eps^2 / 2. So
    # scale cannot underflow, cs sums to 1 / scale < 2 / eps^2, |ws| is at
    # most that, and the scale is folded back only before a verdict recompute.
    vecs, cs = np.empty((16, m)), np.zeros(16)
    rows = {}  # a stored vector's bits -> its row
    v, ws = np.zeros(m), np.zeros(m)
    answer = oracle.query(v)
    queries, steps, k, scale = 1, 0, 0, 1.0
    status = INTERIOR  # unless the loop below ends otherwise
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
            stored = vecs[:k]  # bound once per stored answer, not once per step
        if k > size_cap:
            raise ContractViolationError("active set outgrew its ceiling")
        if queries > 1:
            # z = (Ga)^T w / |Ga| = a^T v / |Ga|, the product the fault test read
            z = min(av / unorm, 0.0)
            bar = _LAZY_FRACTION * z / math.sqrt(ynorm2)
        else:  # the seeding answer becomes w itself, with no step to take
            cs[pos], ws, ynorm2 = 1.0, u, float(u.dot(u))
            z, bar = math.inf, 0.0
        while True:  # the answer's step, then lazy ones
            if z <= 0.0:
                step, scale, ynorm2 = _vn_step(ynorm2, z, scale)
                cs[pos] += step
                daxpy(vecs[pos], ws, m, step)  # ws += step * u, in place; n and a positional, the cheaper call
                steps += 1
            if ynorm2 <= eps * eps:
                # Verdicts are taken on a freshly recomputed w only.
                cs[:k] *= scale
                scale, ws = 1.0, cs[:k].dot(stored)
                ynorm2 = float(ws.dot(ws))
                if ynorm2 <= eps * eps:
                    status = SMALL_NORM
                    break
            if steps >= cap:
                status = BUDGET_EXHAUSTED
                break
            zs = stored.dot(ws)
            pos = int(zs.argmin())  # the most violated stored row, lowest index among ties
            z = zs.item(pos) * scale
            if not z < bar * math.sqrt(ynorm2):  # not violated enough for a lazy step
                break
        if status != INTERIOR:
            break
        v = query_point(ws * scale)
        answer = oracle.query(v)
        queries += 1
    return vecs[:k], cs[:k] * scale, ws * scale, status, steps, queries


@timed
def strict_conic_feasibility(oracle: SeparationOracle, m: int, limits: Limits | None = None, *, hook=None):
    """Find an interior point of a full-dimensional cone given by an oracle.

    Alternates oracle-driven von Neumann phases with rescalings built from
    the phase's active set. Returns ``(y, report)``; on success the oracle
    approved y itself, so ``oracle.query(y) is None`` by construction.
    ``no_converge`` when a budget runs out or a phase ends ``out_of_range``.
    ``hook(event, **data)`` observes each rescale. Needs ``m == oracle.dim >= 1``.
    """
    if not m == oracle.dim >= 1:
        raise ContractViolationError(f"m = {m} must equal oracle.dim = {oracle.dim} and be at least 1")
    limits = default_oracle_limits(m, given=limits)
    eps = rescale_epsilon(m)

    report = SolveReport(status=NO_CONVERGE)
    # G is the product of the per-step factors W' of ``_grow_metric``, so
    # Q = G^T G. It starts as the factor of I built through ``SymPosDef``,
    # which keeps a linalg span on the traced benchmark's rescale-free runs
    # until the solvers report their own timings (ROADMAP item 3).
    gmap = SymPosDef(np.eye(m)).inv_factor
    ybar = np.zeros(m)
    min_ratio = math.inf
    max_phase_steps = 0
    while True:
        fo_budget = limits.max_iterations - report.fo_iters
        if fo_budget <= 0:
            break
        vectors, coeffs, w, status, steps, queries = oracle_von_neumann(oracle, gmap, eps, budget=fo_budget)
        report.fo_iters += steps
        report.oracle_calls += queries
        max_phase_steps = max(max_phase_steps, steps)
        if status == INTERIOR:
            # The very expression of the approved query, so the bits match.
            ybar = gmap.T.dot(w)
            report.status = SOLVED
            break
        if status != SMALL_NORM or report.rescalings == limits.max_rescalings:
            break
        # Whitened unit vectors and their coefficients, which ``_grow_metric`` checks.
        wfac, ratio = _grow_metric(vectors.T, coeffs, eps)
        gmap = wfac @ gmap
        min_ratio = min(min_ratio, ratio)
        report.rescalings += 1
        ybar = gmap.T @ (wfac @ w)
        if hook is not None:
            hook("rescale", ratio=ratio, active=len(coeffs), iterations=steps, queries=queries)

    if report.rescalings > 0:
        report.bound_checks.append(_growth_check(min_ratio))
    report.bound_checks.append(_phase_check(eps, max_phase_steps))
    return ybar, report
