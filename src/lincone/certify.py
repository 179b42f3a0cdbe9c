"""Solver-independent checks of kernel and image certificates.

Everything here works from the instance and the certificate alone, so a
bug in a solver cannot vouch for itself. Kernel residuals are measured
against unit-normalized columns (the scale the certificates are stated
in); image margins use the raw columns with a tolerance scaled to the
matrix. Each residual is judged relative to the certificate's own scale,
max|x| or |y|, so scaling a vector down cannot make it pass. On integral
input ``check_partition_exact`` proves a max-support pair in rational
arithmetic, with the float certificates as mere hints.
``certified`` is where every solver turns a vector and its support into a
certificate, which carries the residual and margin its checker measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .conditioning import _require_integral
from .errors import ContractViolationError
from .linalg import as_matrix, normalize_columns, raw_weights

__all__ = [
    "CertReport",
    "ImageCertificate",
    "KernelCertificate",
    "certified",
    "check_kernel_certificate",
    "check_image_certificate",
    "check_complementary_pair",
    "check_partition_exact",
]


@dataclass(frozen=True)
class CertReport:
    valid: bool
    residual: float
    margin: float
    message: str


@dataclass(frozen=True)
class KernelCertificate:
    """x > 0 on ``support``, 0 off it, Ax = 0; ``certified`` fills in its checker's numbers."""

    x: np.ndarray
    support: np.ndarray
    residual: float = 0.0
    min_support_value: float = 0.0


@dataclass(frozen=True)
class ImageCertificate:
    """a_j^T y > 0 on ``support``, 0 off it; ``certified`` fills in its checker's numbers."""

    y: np.ndarray
    support: np.ndarray
    min_margin: float = 0.0
    residual_zero: float = 0.0


def certified(mat, cert):
    """``cert`` with the residual and margin its type's checker measured on ``mat``, or None if rejected."""
    if isinstance(cert, KernelCertificate):
        rep = check_kernel_certificate(mat, cert)
        return replace(cert, residual=rep.residual, min_support_value=rep.margin) if rep.valid else None
    rep = check_image_certificate(mat, cert)
    return replace(cert, min_margin=rep.margin, residual_zero=rep.residual) if rep.valid else None


def _support_mask(support, n):
    mask = np.zeros(n, dtype=bool)
    support = np.asarray(support, dtype=int).reshape(-1)
    if support.size:
        if support.min() < 0 or support.max() >= n:
            raise ContractViolationError("support index out of range")
        mask[support] = True
    return mask


def check_kernel_certificate(mat, cert, tol: float | None = None) -> CertReport:
    """Validate x > 0 on the support, zero off it, and a tiny residual.

    The residual is the sup norm of A_hat x, with A_hat the normalized
    columns restricted to the support. It must be at most tol * max|x|, and
    each row's |(A_hat x)_i| at most tol * sum_j |a_hat_ij x_j|, so a row
    of small entries cannot hide under the others' scale; default tol is
    1e-8 per column.
    """
    mat = as_matrix(mat)
    n = mat.shape[1]
    x = np.asarray(cert.x, dtype=float).reshape(-1)
    if x.shape[0] != n:
        raise ContractViolationError(f"certificate length {x.shape[0]} != n = {n}")
    # NaN compares false both ways, so it would slip through every test below.
    if not np.isfinite(x).all():
        return CertReport(False, math.nan, math.nan, "certificate has non-finite entries")
    if tol is None:
        tol = 1e-8 * n
    mask = _support_mask(cert.support, n)
    used = mask & mat.any(axis=0)  # a zero column adds nothing
    ahat = normalize_columns(mat[:, used])
    rows = np.abs(ahat @ x[used])
    residual = float(rows.max())
    margin = float(x[mask].min()) if mask.any() else 0.0
    if not (math.isfinite(residual) and math.isfinite(margin)):
        return CertReport(False, residual, margin, "residual or margin is not finite")
    if np.any(x[~mask] != 0.0):
        return CertReport(False, residual, margin, "nonzero entries off the support")
    if mask.any() and margin <= 0.0:
        return CertReport(False, residual, margin, "support entries must be positive")
    bound = tol * float(np.abs(x).max())
    if residual > bound:
        return CertReport(False, residual, margin, f"residual {residual:.3e} > {bound:.3e}")
    row_bounds = tol * (np.abs(ahat) @ np.abs(x[used]))
    over = np.flatnonzero(rows > row_bounds)
    if over.size:
        i = int(over[0])
        return CertReport(False, residual, margin, f"row {i} residual {rows[i]:.3e} > {row_bounds[i]:.3e}")
    return CertReport(True, residual, margin, "ok")


def check_image_certificate(mat, cert, tol: float | None = None) -> CertReport:
    """Validate a_i^T y > 0 on the support and |a_i^T y| <= tol * |y| off it.

    Default tol is 1e-8 times the largest entry of the matrix. Off the support
    each column also needs |a_j^T y| <= tol |a_j| |y| / max|a_ij|, so a column
    of small entries cannot hide under the others' scale.
    """
    mat = as_matrix(mat)
    m, n = mat.shape
    y = np.asarray(cert.y, dtype=float).reshape(-1)
    if y.shape[0] != m:
        raise ContractViolationError(f"certificate length {y.shape[0]} != m = {m}")
    if not np.isfinite(y).all():
        return CertReport(False, math.nan, math.nan, "certificate has non-finite entries")
    if tol is None:
        tol = 1e-8 * float(np.abs(mat).max())
    mask = _support_mask(cert.support, n)
    margins = mat.T @ y
    residual = float(np.abs(margins[~mask]).max()) if (~mask).any() else 0.0
    margin = float(margins[mask].min()) if mask.any() else 0.0
    if not (math.isfinite(residual) and math.isfinite(margin)):
        return CertReport(False, residual, margin, "residual or margin is not finite")
    if mask.any() and margin <= 0.0:
        return CertReport(False, residual, margin, "support margin not strictly positive")
    bound = tol * float(np.linalg.norm(y))
    if residual > bound:
        return CertReport(
            False, residual, margin, f"off-support margin {residual:.3e} > {bound:.3e}"
        )
    off = ~mask & mat.any(axis=0)  # a zero column adds nothing
    if off.any():
        cosine = float(np.abs(normalize_columns(mat[:, off]).T @ y).max())
        cos_bound = bound / float(np.abs(mat).max())
        if cosine > cos_bound:
            return CertReport(False, residual, margin, f"off-support |a_j^T y| / |a_j| {cosine:.3e} > {cos_bound:.3e}")
    return CertReport(True, residual, margin, "ok")


def check_complementary_pair(s_support, t_support, n: int) -> CertReport:
    """The two supports must partition the column indices exactly.

    Only the indices are checked; ``check_partition_exact`` proves the pair.
    """
    s = set(int(i) for i in np.asarray(s_support, dtype=int).reshape(-1))
    t = set(int(i) for i in np.asarray(t_support, dtype=int).reshape(-1))
    overlap = s & t
    if overlap:
        return CertReport(False, float(len(overlap)), 0.0, f"overlap at {sorted(overlap)}")
    missing = set(range(n)) - s - t
    if missing:
        return CertReport(False, float(len(missing)), 0.0, f"uncovered indices {sorted(missing)}")
    stray = (s | t) - set(range(n))
    if stray:
        return CertReport(False, float(len(stray)), 0.0, f"indices out of range {sorted(stray)}")
    return CertReport(True, 0.0, 1.0, "ok")


def _exact_kernel_point(rows, hint):
    """The rational v with rows v = 0 equal to ``hint`` on the free columns (Gauss-Jordan)."""
    rows = [[Fraction(c) for c in row] for row in rows]
    pivots = []
    for col in range(len(hint)):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        lead = rows[r][col]
        rows[r] = [c / lead for c in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = [a - row[col] * b for a, b in zip(row, rows[r])]
        pivots.append(col)
    v = [Fraction(h) for h in hint]
    for row, col in zip(rows, pivots):
        v[col] -= sum(c * h for c, h in zip(row, v) if c)  # row[col] = 1, row = 0 at the other pivots
    return v


def check_partition_exact(mat, kernel_cert, image_cert) -> CertReport:
    """Prove in rational arithmetic that the two certificates' supports are (S*, T*).

    Integral input only, else UnsupportedInstanceError. Once
    ``check_complementary_pair`` accepts (S, T), the floats are only hints:
    the exact x on S with A_S x = 0 and y with A_S^T y = 0 take the hint's
    values (x_j / |a_j|, as kernel certificates are stated on unit columns,
    and y) on the free columns of A_S and A_S^T and solve for the pivots.
    x_S > 0 and A_T^T y > 0 put S in S* and T in T*, which are disjoint,
    so (S, T) = (S*, T*). residual is 0; margin is the least of x_S and A_T^T y.
    """
    mat = as_matrix(mat)
    m, n = mat.shape
    cols = _require_integral(mat.T)
    x = np.asarray(kernel_cert.x, dtype=float).reshape(-1)
    y = np.asarray(image_cert.y, dtype=float).reshape(-1)
    if x.shape[0] != n or y.shape[0] != m:
        raise ContractViolationError(f"certificate lengths {x.shape[0]}, {y.shape[0]} != n, m = {n}, {m}")
    pair = check_complementary_pair(kernel_cert.support, image_cert.support, n)
    if not pair.valid:
        return pair
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return CertReport(False, math.nan, math.nan, "certificate has non-finite entries")
    s_idx = sorted(set(np.asarray(kernel_cert.support, dtype=int).reshape(-1).tolist()))
    t_idx = sorted(set(range(n)) - set(s_idx))
    a_s = [cols[j] for j in s_idx]
    x_s = _exact_kernel_point(list(zip(*a_s)), raw_weights(mat[:, s_idx], x[s_idx]).tolist())
    y_q = _exact_kernel_point(a_s, y.tolist())
    margins = [sum(a * b for a, b in zip(cols[j], y_q) if a) for j in t_idx]
    margin = float(min(x_s + margins, default=0))
    bad = [f"x_{j}" for j, v in zip(s_idx, x_s) if v <= 0]
    bad += [f"a_{j}^T y" for j, v in zip(t_idx, margins) if v <= 0]
    if bad:
        return CertReport(False, 0.0, margin, f"exact {bad[0]} is not positive")
    return CertReport(True, 0.0, margin, "ok")
