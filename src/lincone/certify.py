"""Solver-independent checks of kernel and image certificates.

Everything here works from the instance and the certificate alone, so a
bug in a solver cannot vouch for itself. Kernel residuals are measured
against unit-normalized columns (the scale the certificates are stated
in); image margins use the raw columns with a tolerance scaled to the
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .linalg import as_matrix, column_norms

__all__ = [
    "CertReport",
    "check_kernel_certificate",
    "check_image_certificate",
    "check_complementary_pair",
]


@dataclass(frozen=True)
class CertReport:
    valid: bool
    residual: float
    margin: float
    message: str


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

    The residual is the sup norm of the normalized columns restricted to
    the support, applied to x. Default tol is 1e-8 per column.
    """
    mat = as_matrix(mat)
    m, n = mat.shape
    x = np.asarray(cert.x, dtype=float).reshape(-1)
    if x.shape[0] != n:
        raise ContractViolationError(f"certificate length {x.shape[0]} != n = {n}")
    # NaN compares false both ways, so it would slip through every test below.
    if not np.isfinite(x).all():
        return CertReport(False, math.nan, math.nan, "certificate has non-finite entries")
    if tol is None:
        tol = 1e-8 * n
    mask = _support_mask(cert.support, n)
    norms = column_norms(mat)
    ahat = mat / np.where(norms > 0.0, norms, 1.0)
    residual = float(np.abs(ahat @ np.where(mask, x, 0.0)).max()) if m else 0.0
    margin = float(x[mask].min()) if mask.any() else 0.0
    if not (math.isfinite(residual) and math.isfinite(margin)):
        return CertReport(False, residual, margin, "residual or margin is not finite")
    if np.any(x[~mask] != 0.0):
        return CertReport(False, residual, margin, "nonzero entries off the support")
    if mask.any() and margin <= 0.0:
        return CertReport(False, residual, margin, "support entries must be positive")
    if residual > tol:
        return CertReport(False, residual, margin, f"residual {residual:.3e} > {tol:.3e}")
    return CertReport(True, residual, margin, "ok")


def check_image_certificate(mat, cert, tol: float | None = None) -> CertReport:
    """Validate a_i^T y > 0 on the support and |a_i^T y| <= tol off it."""
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
    if residual > tol:
        return CertReport(
            False, residual, margin, f"off-support margin {residual:.3e} > {tol:.3e}"
        )
    return CertReport(True, residual, margin, "ok")


def check_complementary_pair(s_support, t_support, n: int) -> CertReport:
    """The two supports must partition the column indices exactly."""
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
