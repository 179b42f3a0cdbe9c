"""Host-speed reference: solve times expressed at a fixed machine speed.

On a shared VM the speed of this process drifts by up to +-50% over spells
of minutes, and every workload slows by the same factor at the same moment.
So each timed solve is bracketed by two runs of a fixed reference loop, and
its wall time is scaled by ``REF_S / mean(reference before, reference after)``.
The result is the solve time the host would have shown had it run the
reference loop in ``REF_S``: a solver change moves it, host load cancels out.

The reference is the benchmark's own code and never calls ``lincone``. Its mix
matches the solvers': one small Gram product, then a Python loop of
von-Neumann-style steps on a 25 x 500 matrix, single-threaded BLAS.
"""

from __future__ import annotations

import time

import numpy as np

# Reference-loop wall time on a 2-vCPU Intel Xeon VM (2.1 GHz) in a quiet
# spell, Python 3.11, numpy 2.4 with one OpenBLAS thread. Fixed: it only sets
# the scale of the reported seconds, never their run-to-run spread.
REF_S = 0.007
_STEPS = 800

_rng = np.random.default_rng(20161119)
_A = _rng.standard_normal((25, 500))
_A /= np.linalg.norm(_A, axis=0)


def reference_work(steps: int = _STEPS) -> float:
    """The fixed reference loop; the same arithmetic on every call."""
    a = _A
    q = np.eye(a.shape[0]) + 0.1 * np.outer(a[:, 0], a[:, 0])
    gram = a.T @ (q @ a)
    x = np.full(a.shape[1], 1.0 / a.shape[1])
    y = a @ x
    for _ in range(steps):
        v = a.T @ y
        j = int(np.argmin(v))
        lam = 1.0 / (2.0 + abs(v[j]))
        x *= 1.0 - lam
        x[j] += lam
        y = (1.0 - lam) * y + lam * a[:, j]
    return float(gram[0, 1] + y @ y)


def reference_s() -> float:
    """Wall time of one run of the reference loop."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that takes a wall time measured between two references to REF_S speed."""
    return 2.0 * REF_S / (before + after)
