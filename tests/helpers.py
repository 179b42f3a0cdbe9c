"""Independent reference implementations used to check the library.

Everything here is deliberately written from first principles (Gram-Schmidt,
exhaustive enumeration, direct geometry) rather than by calling the package,
so the two routes to each value stay independent.
"""

import itertools
from fractions import Fraction

import numpy as np


def gs_kernel_projector(mat):
    """Kernel projector built from an explicit Gram-Schmidt kernel basis."""
    mat = np.asarray(mat, dtype=float)
    m, n = mat.shape
    # Orthonormalize the rows to get a row-space basis.
    row_basis = []
    for i in range(m):
        v = mat[i].astype(float).copy()
        for b in row_basis:
            v -= (b @ v) * b
        nv = np.linalg.norm(v)
        if nv > 1e-10 * max(1.0, np.linalg.norm(mat[i])):
            row_basis.append(v / nv)
    # Project the standard basis onto the orthocomplement of the row space.
    kernel_basis = []
    for j in range(n):
        v = np.zeros(n)
        v[j] = 1.0
        for b in row_basis:
            v -= (b @ v) * b
        for b in kernel_basis:
            v -= (b @ v) * b
        nv = np.linalg.norm(v)
        if nv > 1e-10:
            kernel_basis.append(v / nv)
    if not kernel_basis:
        return np.zeros((n, n))
    nb = np.stack(kernel_basis, axis=1)
    return nb @ nb.T


def brute_force_delta(mat):
    """Exhaustive max product of column norms over independent subsets."""
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[1]
    norms = np.linalg.norm(mat, axis=0)
    best = 1.0
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            sub = mat[:, subset]
            if np.linalg.matrix_rank(sub, tol=1e-9) == size:
                best = max(best, float(np.prod(norms[list(subset)])))
    return best


def sampled_width(metric_mat, direction, rng, samples=20000):
    """Monte-Carlo lower bound on max { direction . z : z^T R z <= 1 }."""
    m = metric_mat.shape[0]
    z = rng.standard_normal((samples, m))
    lengths = np.sqrt(np.einsum("ij,jk,ik->i", z, metric_mat, z))
    z = z / lengths[:, None]
    return float((z @ direction).max())


def convex_hull_2d(points):
    """Andrew monotone chain. Returns hull vertices in counterclockwise order."""
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    if len(pts) <= 2:
        return [np.array(p) for p in pts]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return [np.array(p) for p in lower[:-1] + upper[:-1]]


def clip_polygon(subject, clip):
    """Sutherland-Hodgman clip of a convex polygon by a convex polygon."""
    output = list(subject)
    k = len(clip)
    for i in range(k):
        a, b = clip[i], clip[(i + 1) % k]
        edge = np.array([b[0] - a[0], b[1] - a[1]])

        def inside(p):
            return edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0]) >= -1e-14

        def intersect(p, q):
            d = np.array([q[0] - p[0], q[1] - p[1]])
            denom = edge[0] * d[1] - edge[1] * d[0]
            t = (edge[0] * (a[1] - p[1]) - edge[1] * (a[0] - p[0])) / denom
            return np.array([p[0] + t * d[0], p[1] + t * d[1]])

        current, output = output, []
        if not current:
            return []
        for j, q in enumerate(current):
            p = current[j - 1]
            if inside(q):
                if not inside(p):
                    output.append(intersect(p, q))
                output.append(q)
            elif inside(p):
                output.append(intersect(p, q))
    return output


def polygon_area(vertices):
    """Shoelace area of a polygon given in order."""
    if len(vertices) < 3:
        return 0.0
    area = 0.0
    k = len(vertices)
    for i in range(k):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % k]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2.0


def symmetric_hull_intersection_area(mat):
    """Area of conv(normalized columns) intersected with its reflection.

    Only meaningful for m = 2 instances whose columns span the plane.
    """
    mat = np.asarray(mat, dtype=float)
    norms = np.linalg.norm(mat, axis=0)
    hat = mat[:, norms > 0] / norms[norms > 0]
    hull = convex_hull_2d(hat.T)
    neg = convex_hull_2d([-p for p in hull])
    inter = clip_polygon(hull, neg)
    return polygon_area(inter)


def margin_on_grid(mat, count=200000, rng=None):
    """Crude sampled lower bound on the signed margin (rank 2 and 3 inputs)."""
    mat = np.asarray(mat, dtype=float)
    norms = np.linalg.norm(mat, axis=0)
    hat = mat[:, norms > 0] / norms[norms > 0]
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    r = int(np.sum(s > 1e-9 * s[0]))
    basis = u[:, :r]
    if rng is None:
        rng = np.random.default_rng(0)
    if r == 1:
        dirs = np.array([[1.0], [-1.0]]).T
    else:
        dirs = rng.standard_normal((r, count))
        dirs /= np.linalg.norm(dirs, axis=0)
    vals = (basis.T @ hat).T @ dirs
    return float(vals.min(axis=0).max())


def flat_image_cone(rng, m, n, rho):
    """Unit columns whose margins against a hidden unit y* lie in [rho, 2 rho].

    Column j is ``c_j y* + sqrt(1 - c_j^2) w_j`` with ``c_j`` uniform in
    [rho, 2 rho] and ``w_j`` a unit vector orthogonal to y*. Every column has
    margin ``a_j . y* = c_j >= rho`` against the unit vector y*, so the cone
    is image feasible with rho_A >= rho; every column also lies within angle
    ~2 rho of the hyperplane y*-perp, so the cone is flat and the image
    solvers must rescale. Draws without full row rank are redrawn. Returns
    ``(mat, ystar)``.
    """
    while True:
        ystar = rng.standard_normal(m)
        ystar /= np.linalg.norm(ystar)
        w = rng.standard_normal((m, n))
        w -= np.outer(ystar, ystar @ w)
        w /= np.linalg.norm(w, axis=0)
        c = rng.uniform(rho, 2.0 * rho, size=n)
        mat = np.outer(ystar, c) + np.sqrt(1.0 - c * c) * w
        if np.linalg.matrix_rank(mat) == m:
            return mat, ystar


def narrow_kernel_cone(rng, m, n, spread, u):
    """n-1 unit columns ``normalize(d + spread g_j)`` plus ``-normalize(d + u spread g_0)``.

    The g_j are unit vectors orthogonal to the unit vector d. The last column
    is a near-antipode of the narrow fan around d, so 0 lies barely inside the
    hull and the kernel solvers must rescale. Nothing here certifies kernel
    feasibility; ``goffin_oracle`` does.
    """
    d = rng.standard_normal(m)
    d /= np.linalg.norm(d)
    g = rng.standard_normal((m, n - 1))
    g -= np.outer(d, d @ g)
    g /= np.linalg.norm(g, axis=0)
    cols = d[:, None] + spread * g
    anti = d + u * spread * g[:, 0]
    return np.hstack([cols / np.linalg.norm(cols, axis=0), (-anti / np.linalg.norm(anti))[:, None]])



def integer_row_mix(mat, seed):
    """U A for a unimodular U made of 2m row operations A[i] += c A[j].

    Each operation draws i != j by ``default_rng(seed).choice(m, 2,
    replace=False)`` and c from {-2, -1, 1, 2}. det U = 1 and U is integral,
    so the mix keeps integrality, the kernel and the sign patterns of the
    image: a planted (S*, T*) partition is unchanged, but no longer sits in
    axis-aligned blocks.
    """
    mixed = np.array(mat, dtype=np.int64)
    m = mixed.shape[0]
    rng = np.random.default_rng(seed)
    for _ in range(2 * m):
        i, j = rng.choice(m, 2, replace=False)
        mixed[i] += int(rng.choice([-2, -1, 1, 2])) * mixed[j]
    return mixed.astype(float)


def bareiss_rank(mat):
    """Exact rank of an integer matrix by fraction-free (Bareiss) elimination.

    After k pivots every remaining entry is a (k+1) x (k+1) minor of the
    input, so each division by the previous pivot is exact and the
    arithmetic stays in Python integers.
    """
    rows = [[int(v) for v in row] for row in np.asarray(mat)]
    ncols = len(rows[0])
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            a = rows[i][col]
            rows[i] = [(p * rows[i][j] - a * rows[rank][j]) // prev for j in range(ncols)]
        prev = p
        rank += 1
    return rank


def fraction_kernel_point(rows, hint):
    """The rational v with rows v = 0 equal to ``hint`` on the free columns, by Gauss-Jordan in Fractions."""
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


def exact_rank_wrapper(rank, mat):
    """Wrap ``rank`` to check each call on unit columns of the integral ``mat``.

    Each column handed to the wrapper is matched by its exact bits to a
    column of ``mat / |mat|`` (the normalization the solvers apply), and the
    result must equal ``bareiss_rank`` of the matching integer columns.
    """
    mat = np.asarray(mat)
    norms = np.linalg.norm(mat, axis=0)
    index = {(mat[:, j] / norms[j]).tobytes(): j for j in range(mat.shape[1]) if norms[j] > 0.0}

    def wrapped(cols):
        picked = [index[col.tobytes()] for col in cols.T]
        got = rank(cols)
        assert got == bareiss_rank(mat[:, picked]), picked
        return got

    return wrapped


def householder_orthocomplement(v):
    """Columns 1..r-1 of the reflector I - 2 w w^T / w^T w, w = v/|v| + sign(v_0) e_0."""
    v = np.asarray(v, dtype=float)
    w = v / np.linalg.norm(v)
    w[0] += 1.0 if w[0] >= 0.0 else -1.0
    return (np.eye(v.size) - 2.0 * np.outer(w, w) / (w @ w))[:, 1:]


def record_completion(monkeypatch, module, name):
    """Wrap the budget completion ``module.name``; returns the list of (given, completed) pairs it sees."""
    seen = []
    complete = getattr(module, name)

    def wrapper(*args, given=None, **kwargs):
        out = complete(*args, given=given, **kwargs)
        seen.append((given, out))
        return out

    monkeypatch.setattr(module, name, wrapper)
    return seen


def integer_draw(seed):
    """An m x n matrix, m in [2, 5] and n in [m+1, 3m+5], entries in {-3, ..., 3}.

    A zero column is set to ones. Most draws are image infeasible.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    n = int(rng.integers(m + 1, 3 * m + 6))
    mat = rng.integers(-3, 4, size=(m, n)).astype(float)
    mat[:, ~mat.any(axis=0)] = 1.0
    return mat
