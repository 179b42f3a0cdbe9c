import math
import sys

import numpy as np
import pytest

from helpers import flat_image_cone
from lincone.conditioning import goffin_oracle
from lincone.errors import ContractViolationError, OracleFaultError
from lincone.image import full_support_image
from lincone.oracle import (
    INTERIOR,
    SMALL_NORM,
    ActiveSet,
    MatrixSeparationOracle,
    SubprocessOracle,
    oracle_von_neumann,
    strict_conic_feasibility,
)
from lincone.report import NO_CONVERGE, SOLVED, Limits


class HalfLineOracle:
    """The cone v >= 0 on the real line."""

    dim = 1

    def query(self, v):
        if v[0] > 0:
            return None
        return np.array([1.0])


class OrthantOracle:
    """Componentwise oracle for the nonnegative orthant, lowest axis first."""

    def __init__(self, m):
        self.dim = m

    def query(self, v):
        for i in range(self.dim):
            if v[i] <= 0:
                out = np.zeros(self.dim)
                out[i] = 1.0
                return out
        return None


class AlternatingOracle:
    """Adversarial: +e1 at the origin, then the sign opposing v."""

    dim = 2

    def query(self, v):
        if v[0] > 0:
            return np.array([-1.0, 0.0])
        return np.array([1.0, 0.0])


class LyingOracle:
    """Always claims e1 separates, even when it does not."""

    dim = 2

    def query(self, v):
        return np.array([1.0, 0.0])


class ZeroOracle:
    dim = 2

    def query(self, v):
        return np.zeros(2)


def identity_metric(m):
    """The whitening map G of the euclidean metric Q = G^T G = I."""
    return np.eye(m)


class TestOracleVonNeumann:
    def test_half_line_interior_after_one_query(self):
        active, y, status, iters = oracle_von_neumann(
            HalfLineOracle(), identity_metric(1), eps=1.0 / 11.0
        )
        assert status == INTERIOR
        assert iters == 1
        assert y[0] == pytest.approx(1.0)

    def test_orthant_mirrors_matrix_trace(self):
        # same trajectory as the identity-matrix von Neumann run at eps=0.8
        oracle = MatrixSeparationOracle(np.eye(2))
        active, y, status, iters = oracle_von_neumann(oracle, identity_metric(2), eps=0.8)
        assert status == SMALL_NORM
        assert np.allclose(y, [0.5, 0.5])
        assert len(active) == 2
        assert active.coeffs == pytest.approx([0.5, 0.5])

    def test_alternating_oracle_hits_zero(self):
        active, y, status, iters = oracle_von_neumann(
            AlternatingOracle(), identity_metric(2), eps=0.1
        )
        assert status == SMALL_NORM
        assert iters == 1
        assert np.allclose(y, 0.0)

    def test_fault_detected(self):
        with pytest.raises(OracleFaultError):
            oracle_von_neumann(LyingOracle(), identity_metric(2), eps=0.1)

    def test_zero_vector_is_a_fault(self):
        with pytest.raises(OracleFaultError):
            oracle_von_neumann(ZeroOracle(), identity_metric(2), eps=0.1)

    def test_duplicates_merge(self):
        # three distinct answers ever, so the active set stays at three
        # entries however long the iteration runs
        mat = np.array([[1.0, -1.0, -1.0], [0.0, 0.1, -0.13]])
        mat /= np.linalg.norm(mat, axis=0)
        oracle = MatrixSeparationOracle(mat)
        active, y, status, iters = oracle_von_neumann(oracle, identity_metric(2), eps=0.005)
        assert status == SMALL_NORM
        assert iters > 3
        assert len(active) <= 3
        active.check_simplex()
        # y really is the stored combination
        recon = sum(c * v for c, v in zip(active.coeffs, active.vectors))
        assert np.abs(recon - y).max() <= 1e-8

    def test_metric_changes_normalization(self):
        # G = diag(2, 1), so the vectors are normalized in Q = G^T G = diag(4, 1).
        g = np.diag([2.0, 1.0])
        q = np.diag([4.0, 1.0])
        oracle = MatrixSeparationOracle(np.eye(2))
        active, y, status, iters = oracle_von_neumann(oracle, g, eps=0.05)
        # every stored vector has unit Q-norm
        for vec in active.vectors:
            assert np.sqrt(vec @ q @ vec) == pytest.approx(1.0)


class TestActiveSet:
    def test_slot_dedup_by_bits(self):
        s = ActiveSet()
        a = np.array([1.0, 2.0])
        assert s.slot(a) == 0
        assert s.slot(a.copy()) == 0
        assert s.slot(np.array([1.0, 2.0 + 1e-17])) == 0  # same bits
        assert s.slot(np.array([1.0, 2.5])) == 1
        assert len(s) == 2

    def test_simplex_violation_raises(self):
        s = ActiveSet()
        s.slot(np.array([1.0]))
        s.coeffs[0] = 0.5
        with pytest.raises(ContractViolationError):
            s.check_simplex()


class TestStrictConicFeasibility:
    def test_orthant(self):
        y, report = strict_conic_feasibility(OrthantOracle(2), 2)
        assert report.status == SOLVED
        assert np.all(y > 0)

    def test_matrix_cross_check(self):
        rng = np.random.default_rng(55)
        for _ in range(8):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(m, m + 5))
            ystar = rng.standard_normal(m)
            ystar /= np.linalg.norm(ystar)
            cols = []
            for _ in range(n):
                c = float(rng.uniform(0.1, 1.0))
                w = rng.standard_normal(m)
                w -= (w @ ystar) * ystar
                nw = np.linalg.norm(w)
                w = w / nw if nw > 1e-12 else np.zeros(m)
                cols.append(c * ystar + math.sqrt(max(1 - c * c, 0.0)) * w)
            mat = np.stack(cols, axis=1)
            if np.linalg.matrix_rank(mat) < m:
                continue
            y_o, rep_o = strict_conic_feasibility(MatrixSeparationOracle(mat), m)
            cert, rep_m = full_support_image(mat)
            assert rep_o.status == SOLVED
            assert rep_m.status == SOLVED
            assert np.all(mat.T @ y_o > 0)
            assert np.all(mat.T @ cert.y > 0)

    def test_thin_cone_rescale_bound(self):
        mat = np.array([[1.0, -1.0], [0.0, 10.0]])
        rho = goffin_oracle(mat, 1e-4)
        assert rho > 0
        y, report = strict_conic_feasibility(MatrixSeparationOracle(mat), 2)
        assert report.status == SOLVED
        assert np.all(mat.T @ y > 0)
        bound = math.ceil(2.0 * math.log(2.0 / (rho - 1e-4)) / math.log(1.5))
        assert report.rescalings <= bound
        for check in report.bound_checks:
            assert check.passed, check

    def test_ledger_report_matches_image_solver(self):
        # Both solvers rescale through one ledgered step and report it alike.
        rng = np.random.default_rng(0)
        mat, _ = flat_image_cone(rng, 3, 40, 1e-3)
        y, report = strict_conic_feasibility(MatrixSeparationOracle(mat), 3)
        cert, image_report = full_support_image(mat)
        assert report.status == SOLVED and report.rescalings > 0
        ours = {c.name: c for c in report.bound_checks}["det_growth_per_rescale_min"]
        theirs = {c.name: c for c in image_report.bound_checks}["det_growth_per_rescale_min"]
        assert ours.passed
        assert ours.bound == theirs.bound == 16.0 / 9.0

    def test_empty_interior_no_converge(self):
        mat = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        y, report = strict_conic_feasibility(
            MatrixSeparationOracle(mat), 2, Limits(max_rescalings=10, max_iterations=50000)
        )
        assert report.status == NO_CONVERGE

    def test_whole_space_cone(self):
        class YesOracle:
            dim = 2

            def query(self, v):
                return None

        y, report = strict_conic_feasibility(YesOracle(), 2)
        assert report.status == SOLVED
        assert np.allclose(y, 0.0)


ORTHANT_SCRIPT = """\
import sys
for line in sys.stdin:
    v = [float(t) for t in line.split()]
    bad = [i for i, c in enumerate(v) if c <= 0]
    if not bad:
        print("YES", flush=True)
    else:
        out = [0.0] * len(v)
        out[bad[0]] = 1.0
        print(" ".join(repr(c) for c in out), flush=True)
"""

BROKEN_SCRIPT = """\
import sys
for line in sys.stdin:
    print("1.0 0.0", flush=True)
"""


class TestSubprocessOracle:
    def test_solves_orthant_end_to_end(self):
        with SubprocessOracle([sys.executable, "-c", ORTHANT_SCRIPT], dim=2) as oracle:
            y, report = strict_conic_feasibility(oracle, 2)
        assert report.status == SOLVED
        assert np.all(y > 0)
        assert oracle.calls > 0

    def test_fault_from_bad_script(self):
        with SubprocessOracle([sys.executable, "-c", BROKEN_SCRIPT], dim=2) as oracle:
            with pytest.raises(OracleFaultError):
                strict_conic_feasibility(oracle, 2)

    def test_dead_process_detected(self):
        oracle = SubprocessOracle([sys.executable, "-c", "pass"], dim=2)
        import time

        time.sleep(0.3)
        with pytest.raises(OracleFaultError):
            oracle.query(np.zeros(2))
        oracle.close()

    def test_malformed_answer_detected(self):
        script = "import sys\nsys.stdin.readline()\nprint('nonsense', flush=True)\n"
        with SubprocessOracle([sys.executable, "-c", script], dim=2) as oracle:
            with pytest.raises(OracleFaultError):
                oracle.query(np.zeros(2))


class TestMatrixOracleAdapter:
    def test_most_violated_lowest_tie(self):
        mat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        oracle = MatrixSeparationOracle(mat)
        # columns 2 and 3 tie at margin -1; lowest index wins
        out = oracle.query(np.array([1.0, -1.0]))
        assert np.allclose(out, [0.0, 1.0])
        assert oracle.query(np.array([1.0, 1.0])) is None

    def test_normalized_violation_pick(self):
        # unnormalized margins would pick column 2; per unit norm the
        # first column is the worse violation
        mat = np.array([[1.0, 100.0], [0.0, -100.0]])
        oracle = MatrixSeparationOracle(mat)
        out = oracle.query(np.array([-1.0, -6.0]))
        assert np.allclose(out, [1.0, 0.0])

    def test_zero_column_rejected(self):
        with pytest.raises(ContractViolationError):
            MatrixSeparationOracle(np.array([[1.0, 0.0], [0.0, 0.0]]))
