"""Solver-independent checks of kernel and image certificates.

Everything here works from the instance and the certificate alone, so a
bug in a solver cannot vouch for itself. Kernel residuals are measured
against unit-normalized columns (the scale the certificates are stated
in); image margins use the raw columns with a tolerance scaled to the
matrix. Each residual is judged relative to the certificate's own scale,
max|x| or |y|, so scaling a vector down cannot make it pass.
``certified`` is where every solver turns a vector and its support into a
certificate, which carries the residual and margin its checker measured. On
integral input it also proves the certificate exactly, in Python ints, with
the floats as mere hints, as ``check_partition_exact`` does for both sides
of a max-support pair: no integral verdict rests on rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .conditioning import _insert, _is_integral, _require_integral
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
    """``cert`` with the residual and margin its type's checker measured on ``mat``, or None if rejected.

    On integral ``mat`` it is also rejected unless all its ``_exact_values`` are positive.
    """
    mat = as_matrix(mat)
    kernel = isinstance(cert, KernelCertificate)
    rep = (check_kernel_certificate if kernel else check_image_certificate)(mat, cert)
    if not rep.valid or (_is_integral(mat) and min(_exact_values(mat, _require_integral(mat.T), cert)[1], default=1) <= 0):
        return None
    if kernel:
        return replace(cert, residual=rep.residual, min_support_value=rep.margin)
    return replace(cert, min_margin=rep.margin, residual_zero=rep.residual)


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


def _kernel_point(rows, hint):
    """(int numerators, one denominator > 0) of the v with rows v = 0 equal to ``hint`` off the pivots."""
    basis = []
    for row in rows:
        _insert(basis, row)
    ratios = [h.as_integer_ratio() for h in hint]
    den = max((q for _, q in ratios), default=1) * math.lcm(*(b[p] for p, b in basis))
    nums = [a * (den // q) for a, q in ratios]
    for p, b in basis:  # b is zero at the other pivots
        nums[p] -= sum(c * v for c, v in zip(b, nums) if c) // b[p]
    return nums, den


def _exact_values(mat, cols, cert):
    """(indices, int numerators, denominator > 0) of the values ``cert`` claims positive; ``cols`` are A's, as ints.

    The exact point takes the float hint's values on the free columns and
    solves for the pivots: x_S with A_S x_S = 0 from x_j / |a_j| for a kernel
    certificate on S; for an image certificate on T, A_T^T y with A_S^T y = 0, S the rest.
    """
    on = sorted(set(np.asarray(cert.support, dtype=int).reshape(-1).tolist()))
    if isinstance(cert, KernelCertificate):
        x = np.asarray(cert.x, dtype=float).reshape(-1)
        return (on, *_kernel_point(list(zip(*(cols[j] for j in on))), raw_weights(mat[:, on], x[on]).tolist()))
    off = sorted(set(range(len(cols))) - set(on))
    y, den = _kernel_point([cols[j] for j in off], np.asarray(cert.y, dtype=float).reshape(-1).tolist())
    return on, [sum(a * b for a, b in zip(cols[j], y) if a) for j in on], den


def check_partition_exact(mat, kernel_cert, image_cert) -> CertReport:
    """Prove exactly, in Python ints, that the two certificates' supports are (S*, T*).

    Integral input only, else UnsupportedInstanceError. Once
    ``check_complementary_pair`` accepts (S, T), ``_exact_values`` rebuilds
    x_S and A_T^T y from the float hints. Both positive put S in S* and T in
    T*, which are disjoint, so (S, T) = (S*, T*). residual is 0; margin is
    the least of x_S and A_T^T y.
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
    sides = [("x_{}", *_exact_values(mat, cols, kernel_cert)), ("a_{}^T y", *_exact_values(mat, cols, image_cert))]
    # Rounding is monotone, so the least of the two rounded minima is the least value rounded.
    margin = min((min(v) / den for _, _, v, den in sides if v), default=0.0)
    bad = [label.format(j) for label, idx, v, _ in sides for j, a in zip(idx, v) if a <= 0]
    if bad:
        return CertReport(False, 0.0, margin, f"exact {bad[0]} is not positive")
    return CertReport(True, 0.0, margin, "ok")
