import numpy as np
import pytest

from lincone.errors import ContractViolationError, DegenerateColumnError
from lincone.firstorder import (
    BUDGET_EXHAUSTED,
    SEPARATED,
    SMALL_NORM,
    dv_inner,
    perceptron_inner,
    von_neumann,
)
from lincone.linalg import SymPosDef


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
        state, outcome = von_neumann(np.array([[1.0, -1.0]]), 0.1)
        assert outcome.status == SMALL_NORM
        assert outcome.iterations == 1
        assert np.allclose(state.x, [0.5, 0.5])
        assert np.allclose(state.y, [0.0])

    def test_identity_loose_eps_stops_short(self):
        state, outcome = von_neumann(np.eye(2), 0.8)
        assert outcome.status == SMALL_NORM
        assert outcome.iterations == 1
        assert np.allclose(state.y, [0.5, 0.5])

    def test_identity_tight_eps_separates(self):
        state, outcome = von_neumann(np.eye(2), 0.1)
        assert outcome.status == SEPARATED
        assert outcome.iterations == 1
        z = state.mat.T @ state.y
        assert np.all(z > 0)

    def test_single_positive_column_separates_at_start(self):
        state, outcome = von_neumann(np.array([[2.0]]), 0.5)
        assert outcome.status == SEPARATED
        assert outcome.iterations == 0
        assert state.x[0] == 1.0

    def test_tie_break_lowest_index(self):
        # Columns 1 and 2 are identical; the minimizer must be column 1.
        mat = np.array([[1.0, -1.0, -1.0]])
        state, outcome = von_neumann(mat, 0.9)
        assert outcome.iterations == 1
        assert state.x[1] > 0.0
        assert state.x[2] == 0.0


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
            state, outcome = von_neumann(mat, eps)
            assert abs(state.x.sum() - 1.0) <= 1e-10
            assert np.all(state.x >= -1e-15)
            recon = mat @ (state.x / np.linalg.norm(mat, axis=0))
            assert np.linalg.norm(recon - state.y) <= 1e-8 * max(1.0, np.linalg.norm(state.y))
            assert outcome.iterations <= int(np.ceil(1.0 / eps**2))
            if outcome.status == SEPARATED:
                assert np.all(mat.T @ state.y > 0)
            elif outcome.status == SMALL_NORM:
                assert np.linalg.norm(state.y) <= eps * (1 + 1e-9)
            else:
                pytest.fail("intrinsic cap should never exhaust")

    def test_budget_cuts_off(self):
        mat = np.array([[1.0, -1.0, -1.0], [0.0, 0.1, -0.13]])
        mat = mat / np.linalg.norm(mat, axis=0)
        state, outcome = von_neumann(mat, 1e-3, budget=5)
        assert outcome.status == BUDGET_EXHAUSTED
        assert outcome.iterations == 5
        # Unconstrained, the same instance converges in a few hundred steps.
        state, outcome = von_neumann(mat, 1e-3)
        assert outcome.status == SMALL_NORM
        assert np.linalg.norm(state.y) <= 1e-3 * (1 + 1e-9)

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
                state, outcome = von_neumann(mat, eps)
                x_ref, status_ref, iters_ref = gram_von_neumann(mat, np.eye(m), eps)
            else:
                state, outcome = von_neumann(whiten(metric, mat), eps)
                x_ref, status_ref, iters_ref = gram_von_neumann(mat, np.linalg.inv(metric), eps)
            assert outcome.status == status_ref
            assert outcome.iterations == iters_ref
            assert np.max(np.abs(state.x - x_ref)) <= 1e-9
            seen.add(outcome.status)
        assert seen == {SEPARATED, SMALL_NORM}

    def test_rejects_bad_inputs(self):
        with pytest.raises(ContractViolationError):
            von_neumann(np.eye(2), 0.0)
        with pytest.raises(DegenerateColumnError):
            von_neumann(np.array([[1.0, 0.0]]), 0.1)


class TestInnerAlternatives:
    @pytest.mark.parametrize("inner", [perceptron_inner, dv_inner])
    def test_same_output_contract(self, inner):
        rng = np.random.default_rng(17)
        for trial in range(60):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 7))
            mat = rng.standard_normal((m, n))
            if trial % 2:
                mat = whiten(random_spd(rng, m), mat)
            eps = float(rng.uniform(0.1, 0.5))
            state, outcome = inner(mat, eps)
            if outcome.status == BUDGET_EXHAUSTED:
                continue
            assert abs(state.x.sum() - 1.0) <= 1e-10
            assert np.all(state.x >= -1e-12)
            recon = mat @ (state.x / np.linalg.norm(mat, axis=0))
            assert np.linalg.norm(recon - state.y) <= 1e-8 * max(1.0, np.linalg.norm(state.y))
            if outcome.status == SEPARATED:
                assert np.all(mat.T @ state.y > 0)
            else:
                assert np.linalg.norm(state.y) <= eps * (1 + 1e-9)

    def test_perceptron_on_identity(self):
        state, outcome = perceptron_inner(np.eye(2), 0.9)
        assert outcome.status in (SEPARATED, SMALL_NORM)
