import math

import numpy as np
import pytest

from lincone.errors import ContractViolationError
from lincone.firstorder import (
    _DRIFT_INTERVAL,
    BUDGET_EXHAUSTED,
    SEPARATED,
    SMALL_NORM,
    von_neumann,
)
from lincone.instances import gen_image_feasible
from lincone.linalg import SymPosDef, normalize_columns


def random_spd(rng, m):
    b = rng.standard_normal((m, m))
    return b @ b.T + m * np.eye(m)


def whiten(rmat, mat):
    """W mat for the inverse Cholesky factor W of rmat, so (W a)^T (W b) = a^T rmat^-1 b."""
    return SymPosDef(rmat).inv_factor @ mat


def gram_von_neumann(mat, q, eps):
    """The von Neumann loop on the normalized n x n Gram matrix, as a reference.

    Runs in the metric q (an m x m positive definite array). Keeps
    z = G-hat x and |y|_q^2 incrementally; verdicts are re-checked from
    scratch. Returns (x, status, iterations).
    """
    gram = mat.T @ q @ mat
    qnorms = np.sqrt(np.diag(gram))
    ghat = gram / np.outer(qnorms, qnorms)
    x = np.zeros(mat.shape[1])
    x[0] = 1.0
    z, ynorm2, iterations = ghat[:, 0].copy(), 1.0, 0
    while True:
        if ynorm2 <= eps * eps or z.min() > 0.0:
            z = ghat @ x
            ynorm2 = float(x @ z)
            if ynorm2 <= eps * eps:
                return x, SMALL_NORM, iterations
            if z.min() > 0.0:
                return x, SEPARATED, iterations
        k = int(np.argmin(z))
        zk = z[k]
        lam = (ynorm2 - zk) / (ynorm2 - 2.0 * zk + 1.0)
        x *= 1.0 - lam
        x[k] += lam
        ynorm2 = (1.0 - lam) ** 2 * ynorm2 + 2.0 * lam * (1.0 - lam) * zk + lam * lam
        z = (1.0 - lam) * z + lam * ghat[:, k]
        iterations += 1


class TestVonNeumannTraces:
    def test_antipodal_pair_collapses_in_one_step(self):
        x, y, status, iterations = von_neumann(np.array([[1.0, -1.0]]), 0.1)
        assert status == SMALL_NORM
        assert iterations == 1
        assert np.allclose(x, [0.5, 0.5])
        assert np.allclose(y, [0.0])

    def test_identity_loose_eps_stops_short(self):
        x, y, status, iterations = von_neumann(np.eye(2), 0.8)
        assert status == SMALL_NORM
        assert iterations == 1
        assert np.allclose(y, [0.5, 0.5])

    def test_identity_tight_eps_separates(self):
        x, y, status, iterations = von_neumann(np.eye(2), 0.1)
        assert status == SEPARATED
        assert iterations == 1
        z = np.eye(2) @ y
        assert np.all(z > 0)

    def test_single_positive_column_separates_at_start(self):
        x, y, status, iterations = von_neumann(normalize_columns(np.array([[2.0]])), 0.5)
        assert status == SEPARATED
        assert iterations == 0
        assert x[0] == 1.0

    def test_no_separation_on_a_rounding_margin(self):
        # The first step lands on y with a_2^T y = 0 exactly (a_0 and a_1
        # are antipodal in the coordinates a_2 reads), which rounding puts
        # at +5e-18. That is no separation: the loop steps on a_2 and
        # separates with a clear margin.
        mat = normalize_columns(np.array([[1.0, -3.0, 3.0], [-1.0, 3.0, 3.0], [4.0, 1.0, 0.0]]))
        x, y, status, iterations = von_neumann(mat, 1 / 33)
        assert (status, iterations) == (SEPARATED, 2)
        assert np.all(mat.T @ y > 0.3)

    def test_tie_break_lowest_index(self):
        # Columns 1 and 2 are identical; the minimizer must be column 1.
        mat = np.array([[1.0, -1.0, -1.0]])
        x, y, status, iterations = von_neumann(mat, 0.9)
        assert iterations == 1
        assert x[1] > 0.0
        assert x[2] == 0.0


class TestVonNeumannInvariants:
    def test_convexity_and_reconstruction(self):
        rng = np.random.default_rng(11)
        for trial in range(120):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 9))
            mat = rng.standard_normal((m, n))
            if trial % 3 == 0:
                mat = whiten(random_spd(rng, m), mat)
            eps = float(rng.uniform(0.05, 0.5))
            x, y, status, iterations = von_neumann(normalize_columns(mat), eps)
            assert abs(x.sum() - 1.0) <= 1e-10
            assert np.all(x >= -1e-15)
            recon = mat @ (x / np.linalg.norm(mat, axis=0))
            assert np.linalg.norm(recon - y) <= 1e-8 * max(1.0, np.linalg.norm(y))
            assert iterations <= int(np.ceil(1.0 / eps**2))
            if status == SEPARATED:
                assert np.all(mat.T @ y > 0)
            elif status == SMALL_NORM:
                assert np.linalg.norm(y) <= eps * (1 + 1e-9)
            else:
                pytest.fail("intrinsic cap should never exhaust")

    def test_budget_cuts_off(self):
        mat = np.array([[1.0, -1.0, -1.0], [0.0, 0.1, -0.13]])
        mat = mat / np.linalg.norm(mat, axis=0)
        x, y, status, iterations = von_neumann(mat, 1e-3, budget=5)
        assert status == BUDGET_EXHAUSTED
        assert iterations == 5
        # Unconstrained, the same instance converges in a few hundred steps.
        x, y, status, iterations = von_neumann(mat, 1e-3)
        assert status == SMALL_NORM
        assert np.linalg.norm(y) <= 1e-3 * (1 + 1e-9)

    def test_matches_gram_reference_trajectory(self):
        # The loop must retrace the Gram-based loop step for step, also on
        # columns whitened by a metric R, where the reference runs in Q = R^-1.
        # m >= 2: at m = 1 every normalized column is +-1, so the reference's
        # rounded Gram breaks exact ties by noise (see the tie-break tests).
        rng = np.random.default_rng(13)
        seen = set()
        for trial in range(100):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(1, 31))
            mat = rng.standard_normal((m, n))
            metric = random_spd(rng, m) if trial % 2 else None
            eps = float(rng.uniform(0.05, 0.5))
            if metric is None:
                x, y, status, iterations = von_neumann(normalize_columns(mat), eps)
                x_ref, status_ref, iters_ref = gram_von_neumann(mat, np.eye(m), eps)
            else:
                x, y, status, iterations = von_neumann(normalize_columns(whiten(metric, mat)), eps)
                x_ref, status_ref, iters_ref = gram_von_neumann(mat, np.linalg.inv(metric), eps)
            assert status == status_ref
            assert iterations == iters_ref
            assert np.max(np.abs(x - x_ref)) <= 1e-9
            seen.add(status)
        assert seen == {SEPARATED, SMALL_NORM}

    def test_long_phase_across_drift_refreshes(self):
        # The hull of these unit columns lies at distance about 0.003 from the
        # origin, its nearest point on the edge of the last two, so the loop
        # zigzags for more than two refresh intervals before it separates.
        # x is kept as a lazy scale times a vector, folded at each refresh.
        d = 0.003
        mat = np.array([[0.1, 0.3, 1.0], [d, 1.0, 0.0], [d, -1.0, 0.0]]).T
        mat /= np.linalg.norm(mat, axis=0)
        x, y, status, iterations = von_neumann(mat, d / 2)
        x_ref, status_ref, iters_ref = gram_von_neumann(mat, np.eye(3), d / 2)
        assert iterations > 2 * _DRIFT_INTERVAL
        assert status == status_ref == SEPARATED
        assert iterations == iters_ref
        assert abs(x.sum() - 1.0) <= 1e-10
        assert np.all(x >= 0.0)
        assert np.linalg.norm(mat @ x - y) <= 1e-12
        assert np.max(np.abs(x - x_ref)) <= 1e-9
        assert np.all(mat.T @ y > 0.0)

    def test_layout_does_not_change_the_run(self):
        # The step reads column k of the unit columns at offset k, stride n,
        # of a C-ordered copy, whatever order or strides the caller's array has.
        big = np.random.default_rng(3).standard_normal((6, 160))
        big[0] = np.abs(big[0]) * 0.05
        view = normalize_columns(big)[:, ::2]
        runs = [von_neumann(a, 1e-3, 400) for a in (np.ascontiguousarray(view), np.asfortranarray(view), view)]
        assert not view.flags.c_contiguous and not view.flags.f_contiguous
        assert runs[0][3] > 50
        for x, y, status, iterations in runs[1:]:
            assert (status, iterations) == runs[0][2:]
            assert x.tobytes() == runs[0][0].tobytes()
            assert y.tobytes() == runs[0][1].tobytes()

    def test_first_column_start_retraces_the_default(self):
        # x0 = e_0 is the default start: on the trajectory tests' matrices the
        # run is the default one bit for bit, x, y, status and iterations.
        rng = np.random.default_rng(13)
        cases = []
        for trial in range(100):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(1, 31))
            mat = rng.standard_normal((m, n))
            if trial % 2:
                mat = whiten(random_spd(rng, m), mat)
            cases.append((normalize_columns(mat), float(rng.uniform(0.05, 0.5))))
        d = 0.003
        long_phase = np.array([[0.1, 0.3, 1.0], [d, 1.0, 0.0], [d, -1.0, 0.0]]).T
        cases.append((long_phase / np.linalg.norm(long_phase, axis=0), d / 2))
        seen = set()
        for mat, eps in cases:
            start = np.zeros(mat.shape[1])
            start[0] = 1.0
            x, y, status, iterations = von_neumann(mat, eps)
            got = von_neumann(mat, eps, x0=start)
            assert (got[2], got[3]) == (status, iterations)
            assert got[0].tobytes() == x.tobytes()
            assert got[1].tobytes() == y.tobytes()
            seen.add(status)
        assert seen == {SEPARATED, SMALL_NORM}
        assert iterations > 2 * _DRIFT_INTERVAL

    def test_short_start_is_small_norm_at_once(self):
        # A start with |B x0| <= eps is already the verdict: no step is taken.
        mat = normalize_columns(np.array([[1.0, -1.0, 0.0], [0.0, 0.05, 1.0]]))
        x0 = np.array([0.5, 0.5, 0.0])
        x, y, status, iterations = von_neumann(mat, 0.1, x0=x0)
        assert (status, iterations) == (SMALL_NORM, 0)
        assert np.array_equal(x, x0)
        assert np.linalg.norm(y) <= 0.1
        # y is the w the verdict was taken on, B x0 bit for bit (and not 0).
        assert np.array_equal(y, mat @ x0) and y.any()

    def test_warm_start_keeps_the_step_bound(self):
        # From any convex start |y| <= 1, so ceil(1/eps^2) steps still bound a run.
        rng = np.random.default_rng(5)
        for _ in range(40):
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 20))
            mat = normalize_columns(rng.standard_normal((m, n)))
            x0 = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.5)
            x0[int(rng.integers(n))] += 0.1
            x0 /= x0.sum()
            eps = float(rng.uniform(0.05, 0.5))
            x, y, status, iterations = von_neumann(mat, eps, x0=x0)
            assert status in (SEPARATED, SMALL_NORM)
            assert iterations <= math.ceil(1.0 / eps**2)
            assert abs(x.sum() - 1.0) <= 1e-10 and np.all(x >= 0.0)
            assert np.linalg.norm(mat @ x - y) <= 1e-12

    @pytest.mark.parametrize(
        "x0",
        [
            [1.0, 0.0],
            [0.5, 0.25, 0.25, 0.0],
            [0.5, np.nan, 0.5],
            [1.5, -0.5, 0.0],
            [0.5, 0.5, 1e-9],
            np.full((3, 1), 1.0 / 3.0),
        ],
        ids=["short", "long", "nan", "negative", "sum-off", "2-d"],
    )
    def test_rejects_a_start_that_is_not_convex(self, x0):
        with pytest.raises(ContractViolationError, match="x0"):
            von_neumann(np.eye(3), 0.1, x0=np.array(x0))

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_eps_outside_positive_reals(self, eps):
        for budget in (None, 10):
            with pytest.raises(ContractViolationError, match="eps"):
                von_neumann(np.eye(2), eps, budget=budget)

    @pytest.mark.parametrize("exponent", [600, -600])
    def test_columns_past_float_range_run_as_the_unscaled(self, exponent):
        # |a_j|^2 overflows at 2^600 and underflows to 0 at 2^-600, but the
        # exact normalization gives the unscaled unit columns, so the loop
        # runs on them bit for bit as on the unscaled ones.
        mat = gen_image_feasible(4, 12, 0.1, 0).mat
        x, y, status, iterations = von_neumann(normalize_columns(mat), 1 / 44)
        got = von_neumann(normalize_columns(np.ldexp(mat, exponent)), 1 / 44)
        assert (got[2], got[3]) == (status, iterations) == (SEPARATED, 6)
        assert got[0].tobytes() == x.tobytes()
        assert got[1].tobytes() == y.tobytes()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ContractViolationError):
            von_neumann(np.eye(2), 0.0)
        # Columns must be unit vectors: a zero, a non-unit, a NaN or an
        # infinite column breaks the contract, and so does no column at all.
        bad = {
            "zero": [[1.0, 0.0]],
            "non-unit": [[1.0, 0.0], [0.0, 1.0 + 1e-9]],
            "nan": [[1.0, np.nan], [0.0, 0.0]],
            "inf": [[1.0, np.inf], [0.0, 0.0]],
            "empty": np.zeros((2, 0)),
            "1-d": [1.0],
        }
        for mat in bad.values():
            with pytest.raises(ContractViolationError):
                von_neumann(np.array(mat), 0.1)
        # Past float range too, where |b|^2 overflows.
        with pytest.raises(ContractViolationError, match="unit columns"):
            von_neumann(np.ldexp(np.eye(2), 600), 0.1)
