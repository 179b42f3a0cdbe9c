"""Seeded instance families for the benchmark.

Every generator takes an integer seed and returns the same instance for the
same seed. The expected answer of each family holds by construction; the
reason is stated next to each generator, and the solver outputs are checked
against it (or against ``lincone.certify``) after every solve.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from lincone import gen_degenerate

_RESAMPLE = 50


def _unit_orthogonal(rng, vec, count):
    """``count`` independent unit vectors orthogonal to the unit vector ``vec``."""
    g = rng.standard_normal((vec.size, count))
    g -= np.outer(vec, vec @ g)
    return g / np.linalg.norm(g, axis=0)


def flat_image(m: int, n: int, rho: float, seed: int):
    """Unit columns whose margins against a hidden unit y* lie in [rho, 2 rho].

    Column j is ``c_j y* + sqrt(1 - c_j^2) w_j`` with ``c_j`` uniform in
    [rho, 2 rho] and ``w_j`` a unit vector orthogonal to y*. Then
    ``a_j . y* = c_j >= rho > 0`` for every j, so y* strictly separates all
    columns and the instance is image feasible; the cone is flat (every
    column lies within angle ~2 rho of the hyperplane y*-perp), which forces
    the image solvers to rescale. Draws without full row rank are redrawn.
    Returns ``(mat, ystar)``; the solvers see only ``mat``.
    """
    rng = np.random.default_rng(seed)
    for _ in range(_RESAMPLE):
        ystar = rng.standard_normal(m)
        ystar /= np.linalg.norm(ystar)
        c = rng.uniform(rho, 2.0 * rho, size=n)
        mat = np.outer(ystar, c) + np.sqrt(1.0 - c * c) * _unit_orthogonal(rng, ystar, n)
        if np.linalg.matrix_rank(mat) == m:
            return mat, ystar
    raise RuntimeError(f"flat_image: no full-rank draw for seed {seed}")


def positively_spans(vectors: np.ndarray, rank: int) -> bool:
    """True when the columns of ``vectors`` positively span a ``rank``-dim space.

    Positive spanning means rank ``rank`` plus a combination with every
    coefficient >= 1 that sums to zero (by scaling, the same as one with
    every coefficient > 0). The second part is a feasibility LP.
    """
    if np.linalg.matrix_rank(vectors) != rank:
        return False
    n = vectors.shape[1]
    res = linprog(
        np.zeros(n), A_eq=vectors, b_eq=np.zeros(vectors.shape[0]), bounds=[(1.0, None)] * n, method="highs"
    )
    return res.status == 0


def narrow_kernel(m: int, n: int, spread: float, u: float, seed: int) -> np.ndarray:
    """A narrow cone of n-1 unit columns around d plus a near-antipode.

    Columns 0..n-2 are ``normalize(d + spread g_j)`` with unit ``g_j``
    orthogonal to d; the last column is ``-normalize(d + u spread g_0)``.

    Why it is kernel feasible with full support: the g_j are checked to
    positively span d-perp, so 0 is in the relative interior of
    conv{g_j}. For 0 < u < 1, ``u g_0`` lies on the open segment from the
    vertex g_0 to that interior point, hence in the relative interior too,
    and ``p = d + u spread g_0`` is interior to the cone spanned by the
    first n-1 columns. An interior point of a cone with spanning generators
    is a combination with every coefficient strictly positive, so
    ``sum nu_j a_j + |p| a_last = 0`` with all weights positive. As u -> 1
    the antipode approaches the boundary, the origin sits barely inside the
    hull, and the kernel solver must rescale.
    """
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    for _ in range(_RESAMPLE):
        d = rng.standard_normal(m)
        d /= np.linalg.norm(d)
        g = _unit_orthogonal(rng, d, n - 1)
        if not positively_spans(g, m - 1):
            continue
        cols = d[:, None] + spread * g
        anti = d + u * spread * g[:, 0]
        mat = np.hstack([cols / np.linalg.norm(cols, axis=0), (-anti / np.linalg.norm(anti))[:, None]])
        return mat
    raise RuntimeError(f"narrow_kernel: g_j never positively spanned d-perp for seed {seed}")


def planted_partition(m: int, n: int, s: int, seed: int):
    """``gen_degenerate`` with its planted (S, T) = (0..s-1, s..n-1).

    Why the split is exact: the kernel block's columns sum to zero, so the
    all-ones vector on S is a kernel witness and S lies in S*; e_h has
    margin 0 on S and a positive entry on every column of T, so T lies in
    T*. S* and T* partition the columns, hence S = S* and T = T*.
    """
    inst = gen_degenerate(m, n, s, seed)
    s_idx, t_idx = inst.known_supports
    return inst.mat, s_idx, t_idx
