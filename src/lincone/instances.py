"""Instance generation, the LP reduction, and file formats.

Generators produce matrices with certified condition properties: kernel
feasible (0 interior to the column hull), image feasible (a known strict
separator), or degenerate (a prescribed split into kernel support and image
support). The certifications come from independent oracles and witnesses,
not from the solvers under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditioning import _is_integral, goffin_oracle
from .errors import ContractViolationError, ParseError, UnsupportedInstanceError
from .linalg import as_matrix, normalize_columns, pivoted_rank, raw_weights

__all__ = [
    "ConicInstance",
    "LPFeasibilityProblem",
    "gen_kernel_feasible",
    "gen_image_feasible",
    "gen_degenerate",
    "reduce_lp_feasibility",
    "recover_lp_point",
    "parse_instance",
    "write_instance",
    "parse_certificate",
    "write_certificate",
]

_RESAMPLE_BUDGET = 300


@dataclass(frozen=True)
class ConicInstance:
    """A conic feasibility instance plus whatever the generator certified.

    known_rho is a generator-certified value or bound on the Goffin measure
    (sign convention: negative means kernel feasible). known_supports, when
    present, is the exact (S*, T*) partition.
    """

    mat: np.ndarray
    is_integer: bool
    provenance: str
    known_rho: float | None = None
    known_supports: tuple | None = None

    @property
    def shape(self):
        return self.mat.shape


@dataclass(frozen=True)
class LPFeasibilityProblem:
    """Ax <= b with integral data, for homogenization into a kernel problem."""

    mat: np.ndarray
    rhs: np.ndarray


def gen_kernel_feasible(m: int, n: int, rho_target: float, seed) -> ConicInstance:
    """Instance with 0 strictly inside the hull of the unit columns.

    Samples n-1 unit columns and appends the normalized negative of their
    sum, so the all-ones-style combination witnesses interiority. For m <= 3
    the Goffin oracle must confirm rho <= -rho_target or the draw is
    rejected; beyond that the witness alone certifies feasibility and
    known_rho stays unset.
    """
    if n < m + 1:
        raise ContractViolationError("need n >= m+1 for an interior instance")
    if not 0.0 < rho_target < 1.0:
        raise ContractViolationError("rho_target must be in (0, 1)")
    rng = np.random.default_rng(seed)
    for _ in range(_RESAMPLE_BUDGET):
        cols = normalize_columns(rng.standard_normal((m, n - 1)))
        total = cols.sum(axis=1)
        scale = np.linalg.norm(total)
        if scale < 1e-9:
            continue
        mat = np.hstack([cols, (-total / scale)[:, None]])
        if pivoted_rank(mat) < m:
            continue
        if m <= 3:
            rho = goffin_oracle(mat)
            if rho <= -rho_target:
                return ConicInstance(mat, False, "generated", known_rho=rho)
            continue
        return ConicInstance(mat, False, "generated")
    raise UnsupportedInstanceError(
        f"no draw reached rho <= -{rho_target} within {_RESAMPLE_BUDGET} attempts"
    )


def gen_image_feasible(m: int, n: int, rho_target: float, seed) -> ConicInstance:
    """Instance with a known unit separator at margin rho_target.

    Every unit column satisfies a^T y* >= rho_target against a hidden unit
    y*, the first one with equality (for m >= 2), so rho_target is a
    certified lower bound on the Goffin measure.
    """
    if not 0.0 < rho_target < 1.0:
        raise ContractViolationError("rho_target must be in (0, 1)")
    rng = np.random.default_rng(seed)
    for _ in range(_RESAMPLE_BUDGET):
        ystar = rng.standard_normal(m)
        ystar /= np.linalg.norm(ystar)
        cols = np.empty((m, n))
        for j in range(n):
            if m == 1:
                # margins on the line are +-1; everything sits at 1
                cols[:, j] = ystar
                continue
            c = rho_target if j == 0 else float(rng.uniform(rho_target, 1.0))
            w = rng.standard_normal(m)
            w -= (w @ ystar) * ystar
            nw = np.linalg.norm(w)
            if nw < 1e-12:
                w = np.zeros(m)
                nw = 1.0
            cols[:, j] = c * ystar + math.sqrt(max(1.0 - c * c, 0.0)) * (w / nw)
        if n >= m and pivoted_rank(cols) < m:
            continue
        return ConicInstance(cols, False, "generated", known_rho=rho_target)
    raise UnsupportedInstanceError("image sampling budget exceeded")


def gen_degenerate(m: int, n: int, s: int, seed) -> ConicInstance:
    """Integer instance with prescribed supports: s kernel columns, n-s image.

    The kernel block lives in the span of the first h = min(m-1, s-1)
    coordinates and its rows sum to zero, so x = 1_S gives A x = 0 and S
    lies in S*. The image block has a strictly positive entry in coordinate
    h, where the kernel block is zero, so y = e_h gives A_S^T y = 0 and
    A_T^T y >= 1, and T lies in T*. S* and T* partition the columns, so the
    planted split is exact. Both witnesses are checked in integers.
    """
    if not 1 <= s < n:
        raise ContractViolationError("need 1 <= s < n")
    rng = np.random.default_rng(seed)
    h = min(m - 1, s - 1)
    for _ in range(_RESAMPLE_BUDGET):
        block_s = np.zeros((m, s), dtype=int)
        if h > 0:
            base = rng.integers(-5, 6, size=(h, s - 1))
            block = np.hstack([base, -base.sum(axis=1)[:, None]])
            if pivoted_rank(block.astype(float)) < h:
                continue
            block_s[:h, :] = block
        block_t = np.empty((m, n - s), dtype=int)
        block_t[:h, :] = rng.integers(-3, 4, size=(h, n - s))
        block_t[h, :] = rng.integers(1, 5, size=n - s)
        if h + 1 < m:
            block_t[h + 1 :, :] = rng.integers(-3, 4, size=(m - h - 1, n - s))
        ints = np.hstack([block_s, block_t])
        mat = ints.astype(float)
        if pivoted_rank(mat) < m:
            continue
        if np.any(ints[:, :s].sum(axis=1)) or np.any(ints[h, :s]) or np.any(ints[h, s:] < 1):
            raise ContractViolationError("planted support witnesses fail their integer check")
        return ConicInstance(
            mat, True, "generated", known_supports=(np.arange(s), np.arange(s, n))
        )
    raise UnsupportedInstanceError("degenerate sampling budget exceeded")


def reduce_lp_feasibility(problem: LPFeasibilityProblem):
    """Homogenize Ax <= b into a kernel instance M = [A | -A | I | -b].

    Columns are the positive part, negative part, slacks, and the
    homogenizing column; Ax <= b is feasible exactly when the last column's
    index lands in S*_M.
    """
    a = as_matrix(problem.mat)
    b = np.asarray(problem.rhs, dtype=float).reshape(-1)
    m, d = a.shape
    if b.shape[0] != m:
        raise ContractViolationError("rhs length does not match row count")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ContractViolationError("LP data must be finite")
    big = np.hstack([a, -a, np.eye(m), -b[:, None]])
    return big, 2 * d + m


def recover_lp_point(problem: LPFeasibilityProblem, cert) -> np.ndarray:
    """Pull an LP point out of a max-support kernel certificate on M.

    The certificate's x applies to unit-normalized columns, so it is
    unscaled first; then x = (x+ - x-)/t.
    """
    a = as_matrix(problem.mat)
    m, d = a.shape
    big, t_index = reduce_lp_feasibility(problem)
    # a zero column is an unconstrained variable; any coefficient works
    raw = raw_weights(big, cert.x)
    t = raw[t_index]
    if t <= 0:
        raise ContractViolationError("certificate has t = 0: system is infeasible")
    return (raw[:d] - raw[d : 2 * d]) / t


# ---------------------------------------------------------------------------
# file formats


def parse_instance(text: str) -> ConicInstance:
    """Parse the dense text format: header "m n", then m rows of n numbers.

    Comment lines start with '#'; blank lines are skipped. Malformed input
    raises a parse error carrying the offending line number.
    """
    header = None
    rows = []
    data_done = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("header must be 'm n'", line=lineno)
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise ParseError("header must hold two integers", line=lineno)
            if header[0] < 1 or header[1] < 1:
                raise ParseError("dimensions must be positive", line=lineno)
            continue
        if data_done:
            raise ParseError("data after the final matrix row", line=lineno)
        parts = line.split()
        if len(parts) != header[1]:
            raise ParseError(
                f"expected {header[1]} entries, found {len(parts)}", line=lineno
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ParseError("non-numeric entry", line=lineno)
        if len(rows) == header[0]:
            data_done = True
    if header is None:
        raise ParseError("empty input")
    if len(rows) < header[0]:
        raise ParseError(f"expected {header[0]} rows, found {len(rows)}")
    mat = np.array(rows)
    return ConicInstance(mat, _is_integral(mat), "parsed")


def write_instance(inst: ConicInstance) -> str:
    """Canonical text form; integer instances print as integers."""
    m, n = inst.mat.shape
    lines = [f"{m} {n}"]
    for row in inst.mat:
        if inst.is_integer:
            lines.append(" ".join(str(int(v)) for v in row))
        else:
            lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def write_certificate(kind: str, vector: np.ndarray, support) -> str:
    """Certificate text: kind, the vector, then 1-based support indices."""
    if kind not in ("kernel", "image"):
        raise ContractViolationError("kind must be 'kernel' or 'image'")
    vec_line = " ".join(repr(float(v)) for v in np.asarray(vector).reshape(-1))
    sup_line = " ".join(str(int(i) + 1) for i in support)
    return f"{kind}\n{vec_line}\n{sup_line}\n"


def parse_certificate(text: str):
    """Inverse of write_certificate: returns (kind, vector, 0-based support)."""
    lines = [l for l in text.splitlines() if l.strip() and not l.strip().startswith("#")]
    if len(lines) < 2:
        raise ParseError("certificate needs a kind line and a vector line")
    kind = lines[0].strip()
    if kind not in ("kernel", "image"):
        raise ParseError(f"unknown certificate kind {kind!r}", line=1)
    try:
        vector = np.array([float(t) for t in lines[1].split()])
    except ValueError:
        raise ParseError("non-numeric vector entry", line=2)
    support = np.array([], dtype=int)
    if len(lines) >= 3 and lines[2].strip():
        try:
            support = np.array([int(t) - 1 for t in lines[2].split()], dtype=int)
        except ValueError:
            raise ParseError("non-integer support index", line=3)
        if np.any(support < 0):
            raise ParseError("support indices are 1-based", line=3)
    return kind, vector, support
