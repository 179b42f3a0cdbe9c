import math
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

from conebench.families import flat_image
from helpers import flat_image_cone
from lincone import firstorder as firstorder_module
from lincone import oracle as oracle_module
from lincone.certify import check_image_certificate
from lincone.conditioning import goffin_oracle
from lincone.errors import ContractViolationError, OracleFaultError
from lincone.firstorder import _DRIFT_INTERVAL, BUDGET_EXHAUSTED, _vn_cap
from lincone.image import ImageCertificate, _grow_metric, full_support_image
from lincone.linalg import SymPosDef
from lincone.oracle import (
    INTERIOR,
    SMALL_NORM,
    MatrixSeparationOracle,
    SubprocessOracle,
    oracle_von_neumann,
    strict_conic_feasibility,
)
from lincone.report import NO_CONVERGE, SOLVED, Limits, SolveReport, rescale_epsilon


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


class FixedOracle:
    """Gives the same answer at every query."""

    dim = 2

    def __init__(self, answer):
        self.answer = np.array(answer)

    def query(self, v):
        return self.answer.copy()


class CancellingOracle:
    """e1 at the origin, e2 at e1, and -v at any other v.

    The exact von Neumann step toward -v / |v| lands w on 0, so a phase ends
    short one step after it leaves e1.
    """

    dim = 2

    def query(self, v):
        if not v.any():
            return np.array([1.0, 0.0])
        if np.array_equal(v, [1.0, 0.0]):
            return np.array([0.0, 1.0])
        return -v


def thin_cone(d):
    """Three unit columns in R^3 whose hull passes about d from 0; no last-row entry is 0."""
    mat = np.array([[1.0, 0.3, 0.1], [0.0, 1.0, d], [0.0, -1.0, d]]).T
    return mat / np.linalg.norm(mat, axis=0)


def assert_convex(coeffs):
    assert coeffs.min() >= 0.0
    assert math.fsum(coeffs.tolist()) == pytest.approx(1.0, abs=1e-10)


def identity_metric(m):
    """The whitening map G of the euclidean metric Q = G^T G = I."""
    return np.eye(m)


class ListActiveSet:
    """Reference active set: Python lists of vectors and coefficients."""

    def __init__(self):
        self.vectors, self.coeffs, self._index = [], [], {}

    def __len__(self):
        return len(self.vectors)

    def slot(self, vec):
        key = vec.tobytes()
        pos = self._index.get(key)
        if pos is None:
            pos = self._index[key] = len(self.vectors)
            self.vectors.append(vec.copy())
            self.coeffs.append(0.0)
        return pos

    def mix(self, pos, lam):
        for i in range(len(self.coeffs)):
            self.coeffs[i] *= 1.0 - lam
        self.coeffs[pos] += lam


def reference_von_neumann(oracle, gmap, eps, budget=None):
    """The lazy oracle loop in the oracle's own coordinates, kept as a reference.

    y is a convex combination of the Q-normalized answers a / |G a|, and each
    round re-maps it by G. A round steps toward the stored answer of least
    Q-cosine with y if that cosine is below half the cosine the oracle's last
    answer had when it was given; otherwise it queries at G^T (G y) and steps
    toward the answer. Returns (active set, y, status, steps, queries).
    """
    m = oracle.dim
    cap = _vn_cap(eps, budget)
    active = ListActiveSet()
    first = oracle.query(np.zeros(m))
    queries = 1
    if first is None:
        return active, np.zeros(m), INTERIOR, 0, queries
    y = first / np.linalg.norm(gmap @ first)
    active.coeffs[active.slot(y)] = 1.0
    steps, half_cosine = 0, 0.0
    while True:
        wy = gmap @ y
        ynorm = float(np.linalg.norm(wy))
        if ynorm <= eps:
            return active, y, SMALL_NORM, steps, queries
        if steps >= cap:
            return active, y, BUDGET_EXHAUSTED, steps, queries
        cosines = [float((gmap @ vec) @ wy) / ynorm for vec in active.vectors]
        pos = int(np.argmin(cosines))
        if cosines[pos] < half_cosine:
            ahat = active.vectors[pos]
            cosine = cosines[pos]
        else:
            answer = oracle.query(gmap.T @ wy)
            queries += 1
            if answer is None:
                return active, y, INTERIOR, steps, queries
            wa = gmap @ answer
            anorm = float(np.linalg.norm(wa))
            ahat = answer / anorm
            pos = active.slot(ahat)
            cosine = min(float(wa @ wy) / (anorm * ynorm), 0.0)
            half_cosine = 0.5 * cosine
        lam = min(max(ynorm * (ynorm - cosine) / (ynorm * ynorm - 2.0 * cosine * ynorm + 1.0), 0.0), 1.0)
        active.mix(pos, lam)
        y = (1.0 - lam) * y + lam * ahat
        steps += 1


def reference_solver(oracle, m):
    """``strict_conic_feasibility`` under default limits, on the reference loop."""
    per_phase = int(math.ceil(1.0 / rescale_epsilon(m) ** 2))
    limits = Limits(max_rescalings=64 * m, max_iterations=per_phase * (64 * m + 1))
    eps = rescale_epsilon(m)
    report = SolveReport(status=NO_CONVERGE)
    gmap = np.eye(m)
    while report.rescalings <= limits.max_rescalings:
        fo_budget = limits.max_iterations - report.fo_iters
        if fo_budget <= 0:
            break
        active, y, status, steps, queries = reference_von_neumann(oracle, gmap, eps, budget=fo_budget)
        report.fo_iters += steps
        report.oracle_calls += queries
        if status == INTERIOR:
            report.status = SOLVED
            return gmap.T @ (gmap @ y), report
        if status != SMALL_NORM or report.rescalings == limits.max_rescalings:
            break
        cols = gmap @ np.stack(active.vectors, axis=1)
        wfac, _ = _grow_metric(cols, np.asarray(active.coeffs), eps)
        gmap = wfac @ gmap
        report.rescalings += 1
    return None, report


class ScalingOracle(MatrixSeparationOracle):
    """Answers like its matrix, scaled by 1, 2, 4, 1, 2, 4, ... in turn."""

    def query(self, v):
        answer = super().query(v)
        return None if answer is None else answer * 2.0 ** (self.calls % 3)


class FarScaledOracle(MatrixSeparationOracle):
    """Answers like its matrix times a fixed power of two, whose a^T a leaves float range."""

    def __init__(self, mat, factor):
        super().__init__(mat)
        self.factor = factor

    def query(self, v):
        answer = super().query(v)
        return None if answer is None else answer * self.factor


class RecordingOracle(MatrixSeparationOracle):
    """Answers like its matrix and keeps a copy of every point it approves."""

    def __init__(self, mat):
        super().__init__(mat)
        self.approved = []

    def query(self, v):
        answer = super().query(v)
        if answer is None:
            self.approved.append(v.copy())
        return answer


class TestOracleVonNeumann:
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_eps_outside_positive_reals(self, eps):
        # Checked before the first query, whatever the budget.
        oracle = MatrixSeparationOracle(np.eye(2))
        for budget in (None, 10):
            with pytest.raises(ContractViolationError, match="eps"):
                oracle_von_neumann(oracle, identity_metric(2), eps, budget=budget)
        assert oracle.calls == 0

    def test_half_line_interior_after_one_query(self):
        vectors, coeffs, y, status, steps, queries = oracle_von_neumann(
            HalfLineOracle(), identity_metric(1), eps=1.0 / 11.0
        )
        assert status == INTERIOR
        assert (steps, queries) == (0, 2)
        assert y[0] == pytest.approx(1.0)

    def test_orthant_mirrors_matrix_trace(self):
        # same trajectory as the identity-matrix von Neumann run at eps=0.8
        oracle = MatrixSeparationOracle(np.eye(2))
        vectors, coeffs, y, status, steps, queries = oracle_von_neumann(oracle, identity_metric(2), eps=0.8)
        assert status == SMALL_NORM
        assert np.allclose(y, [0.5, 0.5])
        assert len(coeffs) == 2
        assert coeffs == pytest.approx([0.5, 0.5])

    def test_alternating_oracle_hits_zero(self):
        vectors, coeffs, y, status, steps, queries = oracle_von_neumann(
            AlternatingOracle(), identity_metric(2), eps=0.1
        )
        assert status == SMALL_NORM
        assert (steps, queries) == (1, 2)
        assert np.allclose(y, 0.0)

    def test_fault_detected(self):
        with pytest.raises(OracleFaultError):
            oracle_von_neumann(LyingOracle(), identity_metric(2), eps=0.1)

    def test_zero_vector_is_a_fault(self):
        with pytest.raises(OracleFaultError):
            oracle_von_neumann(FixedOracle([0.0, 0.0]), identity_metric(2), eps=0.1)

    @pytest.mark.parametrize("answer", [[np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0]])
    def test_non_finite_answer_is_a_fault(self, answer):
        # Rejected by the a^T a test before any other arithmetic touches the
        # answer: no RuntimeWarning (an error here) and no AssertionError.
        with pytest.raises(OracleFaultError, match="a\\^T a"):
            oracle_von_neumann(FixedOracle(answer), identity_metric(2), eps=0.1)

    def test_duplicates_merge(self):
        # A thin cone of three columns: the phase queries again each time the
        # stored rows run out of violation, and the oracle answers with a
        # column it gave before, so the active set stays at three entries
        # however many answers come.
        mat = thin_cone(0.01)
        oracle = MatrixSeparationOracle(mat)
        vectors, coeffs, w, status, steps, queries = oracle_von_neumann(oracle, identity_metric(3), eps=0.02)
        assert status == SMALL_NORM
        assert queries == oracle.calls > 6
        assert len(coeffs) == 3
        assert_convex(coeffs)
        # w really is the stored combination
        recon = sum(c * v for c, v in zip(coeffs, vectors))
        assert np.abs(recon - w).max() <= 1e-8

    def test_growth_keeps_rows_and_weights(self):
        # The 40-dimensional orthant answers each axis once, in order, so one
        # phase outgrows the initial 16 rows twice. Every answer is orthogonal
        # to w, so each step keeps the weights uniform.
        vectors, coeffs, w, status, steps, queries = oracle_von_neumann(
            OrthantOracle(40), identity_metric(40), eps=0.1
        )
        assert (status, steps, queries) == (INTERIOR, 39, 41)
        assert np.array_equal(vectors, np.eye(40))
        assert coeffs == pytest.approx(np.full(40, 1.0 / 40), rel=1e-12)
        assert np.abs(coeffs @ vectors - w).max() <= 1e-12

    def test_metric_changes_normalization(self):
        # Q = G^T G with G lower triangular, like the solver's whitening maps.
        # Each stored vector is the whitened answer G a / |G a|, a unit vector.
        g = np.array([[2.0, 0.0], [1.0, 1.0]])
        mat = np.array([[1.0, -1.0], [0.1, 0.1]])
        vectors, coeffs, w, status, steps, queries = oracle_von_neumann(MatrixSeparationOracle(mat), g, eps=0.05)
        whitened = [g @ a / np.linalg.norm(g @ a) for a in mat.T]
        assert len(coeffs) == 2
        for vec in vectors:
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-15)
            assert any(np.array_equal(vec, u) for u in whitened)

    def test_scaled_repeats_merge(self):
        # a, 2a and 4a whiten to the same bits, so they share one slot
        mat = np.array([[1.0, -1.0, -1.0], [0.0, 0.1, -0.13]])
        g = np.diag([2.0, 1.0])
        plain = oracle_von_neumann(MatrixSeparationOracle(mat), g, eps=0.005)
        scaled = oracle_von_neumann(ScalingOracle(mat), g, eps=0.005)
        assert scaled[3:] == plain[3:]
        assert len(scaled[0]) == len(plain[0]) <= 3
        assert np.array_equal(scaled[0], plain[0])
        assert np.array_equal(scaled[2], plain[2])

    @pytest.mark.parametrize("factor", [2.0**600, 2.0**-600], ids=["2^600", "2^-600"])
    def test_answers_past_float_range_run_as_unscaled_ones(self, factor):
        # 2^600 a and 2^-600 a are valid answers whose a^T a over- and
        # underflows; the loop brings them back by a power of two, bit for bit.
        mat = np.array([[1.0, -1.0, -1.0], [0.0, 0.1, -0.13]])
        g = np.diag([2.0, 1.0])
        plain = oracle_von_neumann(MatrixSeparationOracle(mat), g, eps=0.005)
        scaled = oracle_von_neumann(FarScaledOracle(mat, factor), g, eps=0.005)
        assert scaled[3:] == plain[3:]
        for got, want in zip(scaled[:3], plain[:3]):
            assert np.array_equal(got, want)

    def test_matches_reference_trajectory(self):
        # The whitened loop follows the oracle-coordinate loop step for step:
        # same answers and lazy steps, so same status, step and query counts
        # and active set, and w = G y up to rounding.
        rng = np.random.default_rng(8)
        statuses = set()
        lazy = 0
        for case in range(50):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(m, 41))
            if case % 3 == 0:
                mat = rng.standard_normal((m, n))
            else:
                mat, _ = flat_image_cone(rng, m, n, 10.0 ** rng.uniform(-3, -1))
            gmap = np.eye(m)
            if case % 2:
                gmap = SymPosDef(np.eye(m) + 0.5 * np.cov(rng.standard_normal((m, 2 * m)))).inv_factor
            eps = rescale_epsilon(m)
            ref_active, y, *ref_counts = reference_von_neumann(MatrixSeparationOracle(mat), gmap, eps)
            vectors, coeffs, w, *counts = oracle_von_neumann(MatrixSeparationOracle(mat), gmap, eps)
            assert (*counts, len(coeffs)) == (*ref_counts, len(ref_active)), case
            assert np.abs(coeffs - ref_active.coeffs).max() <= 1e-9, case
            assert np.abs(w - gmap @ y).max() <= 1e-9, case
            statuses.add(counts[0])
            lazy += counts[1] - counts[2] + 1
        assert statuses == {INTERIOR, SMALL_NORM}
        assert lazy > 0

    def test_long_phase_matches_reference(self):
        # The hull of these unit columns lies at distance about 0.003 from the
        # origin, so the phase zigzags for more than two _DRIFT_INTERVAL spans
        # of steps, nearly all of them lazy, before the oracle approves. The
        # coefficients are one lazy scale times a vector, folded here only on
        # return. The seeding row's coefficient is at least that scale, which
        # stays above |w|^2.
        d = 0.003
        mat = np.array([[0.1, 0.3, 1.0], [d, 1.0, 0.0], [d, -1.0, 0.0]]).T
        mat /= np.linalg.norm(mat, axis=0)
        gmap = identity_metric(3)
        eps = d / 2
        ref_active, y, *ref_counts = reference_von_neumann(MatrixSeparationOracle(mat), gmap, eps)
        oracle = MatrixSeparationOracle(mat)
        vectors, coeffs, w, status, steps, queries = oracle_von_neumann(oracle, gmap, eps)
        assert steps > 2 * _DRIFT_INTERVAL
        assert queries == oracle.calls < 100
        assert (status, steps, queries, len(coeffs)) == (*ref_counts, len(ref_active))
        assert (status, len(coeffs)) == (INTERIOR, 3)
        assert np.abs(coeffs - ref_active.coeffs).max() <= 1e-9
        assert_convex(coeffs)
        assert np.abs(coeffs @ vectors - w).max() <= 1e-12
        assert coeffs[0] >= (1.0 - 1e-9) * float(w @ w)


    @pytest.mark.parametrize("budget", [1, 2, 5, 60, 400])
    def test_budget_counts_steps(self, budget):
        # The budget caps steps, lazy ones included. Every query after the
        # seeding one at 0 makes a step, so a phase stopped by its budget
        # asked at most budget + 1 queries.
        oracle = MatrixSeparationOracle(thin_cone(0.003))
        vectors, coeffs, w, status, steps, queries = oracle_von_neumann(
            oracle, identity_metric(3), 0.0015, budget=budget
        )
        assert (status, steps) == (BUDGET_EXHAUSTED, budget)
        assert oracle.calls == queries <= budget + 1
        if budget >= 60:
            assert queries < budget
        # The solver's iteration limit counts the same steps.
        mat, _ = flat_image_cone(np.random.default_rng(3), 6, 60, 1e-3)
        y, report = strict_conic_feasibility(MatrixSeparationOracle(mat), 6, Limits(max_iterations=budget))
        assert (report.status, report.fo_iters) == (NO_CONVERGE, budget)

    def test_every_step_is_on_an_answer_of_the_phase(self, monkeypatch):
        # Each step of a solve, lazy or not, moves w toward a row that is the
        # whitened G a / |G a| of an answer the oracle gave in the same phase.
        mat, _ = flat_image_cone(np.random.default_rng(3), 6, 60, 1e-3)
        phase, daxpy = oracle_module.oracle_von_neumann, oracle_module.daxpy
        metric, given, stepped_on = [], set(), []

        class Recording(MatrixSeparationOracle):
            def query(self, v):
                answer = super().query(v)
                if answer is not None:
                    u = metric[-1] @ answer
                    given.add((u / math.sqrt(u @ u)).tobytes())
                return answer

        def recording_phase(oracle, gmap, *args, **kwargs):
            metric.append(gmap)
            given.clear()
            return phase(oracle, gmap, *args, **kwargs)

        def recording_daxpy(row, w, *args):
            stepped_on.append(row.tobytes() in given)
            return daxpy(row, w, *args)

        monkeypatch.setattr(oracle_module, "oracle_von_neumann", recording_phase)
        monkeypatch.setattr(oracle_module, "daxpy", recording_daxpy)
        y, report = strict_conic_feasibility(Recording(mat), 6)
        assert report.status == SOLVED and len(metric) == report.rescalings + 1 > 1
        assert len(stepped_on) == report.fo_iters > report.oracle_calls
        assert all(stepped_on)


def test_every_step_is_one_vn_step(monkeypatch):
    # _vn_step is the whole step of both von Neumann loops: one call per
    # counted step, in the image loop and in the oracle loop alike.
    calls = []
    vn_step = firstorder_module._vn_step

    def counted(*args):
        calls.append(args)
        return vn_step(*args)

    monkeypatch.setattr(firstorder_module, "_vn_step", counted)
    monkeypatch.setattr(oracle_module, "_vn_step", counted)
    mat = flat_image(8, 40, 1e-3, 0)[0]
    for solve in (full_support_image, lambda a: strict_conic_feasibility(MatrixSeparationOracle(a), 8)):
        calls.clear()
        report = solve(mat)[-1]
        assert report.status == SOLVED and report.rescalings > 0
        assert len(calls) == report.fo_iters


class NudgingOracle(MatrixSeparationOracle):
    """Answers like its matrix, but every third answer has its last entry
    scaled by 1 + 2^-40, so its direction moves by about 1e-12. Keeps every
    answer it gives."""

    def __init__(self, mat):
        super().__init__(mat)
        self.answers = []

    def query(self, v):
        answer = super().query(v)
        if answer is not None:
            if self.calls % 3 == 0:
                answer[-1] *= 1.0 + 2.0**-40
            self.answers.append(answer)
        return answer


class TestActiveSet:
    def test_slot_dedup_by_bits(self):
        # The active set holds one row per distinct bit pattern of the
        # whitened answer G a / |G a|: a bit-identical repeat reuses its row,
        # while a nudge far below any tolerance gets a row of its own. The
        # thin cone makes the oracle repeat its answers.
        g = np.diag([2.0, 1.0, 1.0])
        oracle = NudgingOracle(thin_cone(0.01))
        vectors, coeffs, w, status, steps, queries = oracle_von_neumann(oracle, g, eps=0.02)
        assert status == SMALL_NORM
        whitened = set()
        for a in oracle.answers:
            u = g @ a
            whitened.add((u / math.sqrt(u @ u)).tobytes())
        rows = [vec.tobytes() for vec in vectors]
        assert len(rows) == len(set(rows)) == len(coeffs)
        assert set(rows) == whitened
        assert 3 < len(rows) < len(oracle.answers)
        assert_convex(coeffs)
        assert np.abs(coeffs @ vectors - w).max() <= 1e-8


class TestStrictConicFeasibility:
    def test_orthant(self):
        y, report = strict_conic_feasibility(OrthantOracle(2), 2)
        assert report.status == SOLVED
        assert np.all(y > 0)

    def test_infeasible_cone_stops_at_float_range(self):
        # 0 is in the hull of +-e1, +-e2; past the default 64m rescalings G a
        # shrinks toward underflow, and the run must end with a status.
        mat = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        y, report = strict_conic_feasibility(MatrixSeparationOracle(mat), 2, Limits(2000, None))
        assert report.status == NO_CONVERGE
        assert 0 < report.rescalings < 2000

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
        rho = goffin_oracle(mat)
        assert rho > 0
        y, report = strict_conic_feasibility(MatrixSeparationOracle(mat), 2)
        assert report.status == SOLVED
        assert np.all(mat.T @ y > 0)
        bound = math.ceil(2.0 * math.log(2.0 / rho) / math.log(1.5))
        assert report.rescalings <= bound
        for check in report.bound_checks:
            assert check.passed, check

    @pytest.mark.parametrize("seed", [48, 91, 127])
    def test_no_solved_on_a_boundary_point(self, seed):
        # These integer cones have LP interior margin 0: two columns are
        # antiparallel. On their common hyperplane the rounded unit margins
        # can all read positive; such a point must not be reported solved.
        mat = np.random.default_rng(seed).integers(-3, 4, size=(2, 6)).astype(float)
        y, report = strict_conic_feasibility(MatrixSeparationOracle(mat), 2)
        if report.status == SOLVED:
            cert = ImageCertificate(y=y, support=np.arange(6), min_margin=0.0, residual_zero=0.0)
            assert check_image_certificate(mat, cert).valid

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

    def test_counts_match_reference_solver(self):
        rng = np.random.default_rng(21)
        for m in (2, 3, 3, 4, 5):
            mat, _ = flat_image_cone(rng, m, 40, 1e-3)
            oracle = MatrixSeparationOracle(mat)
            y, report = strict_conic_feasibility(oracle, m)
            y_ref, ref = reference_solver(MatrixSeparationOracle(mat), m)
            assert report.status == ref.status == SOLVED
            counts = (report.fo_iters, report.rescalings, report.oracle_calls)
            assert counts == (ref.fo_iters, ref.rescalings, ref.oracle_calls)
            # every query counts, the seeding one of each phase included
            assert report.oracle_calls == report.as_dict()["oracle_calls"] == oracle.calls
            assert np.all(mat.T @ y > 0)

    def test_counts_match_reference_solver_at_benchmark_dimension(self):
        # m = 15 as in the oracle benchmark, on two fixed flat draws.
        rng = np.random.default_rng(15)
        for _ in range(2):
            mat, _ = flat_image_cone(rng, 15, 300, 1e-3)
            oracle = MatrixSeparationOracle(mat)
            y, report = strict_conic_feasibility(oracle, 15)
            y_ref, ref = reference_solver(MatrixSeparationOracle(mat), 15)
            assert report.status == ref.status == SOLVED
            counts = (report.fo_iters, report.rescalings, report.oracle_calls)
            assert counts == (ref.fo_iters, ref.rescalings, ref.oracle_calls)
            assert report.rescalings > 0
            assert oracle.calls == report.oracle_calls
            assert np.all(mat.T @ y > 0)

    # (status, fo_iters, rescalings, oracle_calls) of the oracle benchmark's
    # first four instances, flat_image(15, 1000, 1e-3, seed): fo_iters counts
    # steps, lazy ones included, oracle_calls the queries.
    @pytest.mark.parametrize(
        "seed, counts",
        [
            (0, (SOLVED, 2526, 35, 553)),
            (1, (SOLVED, 1874, 31, 490)),
            (2, (SOLVED, 2191, 33, 543)),
            (3, (SOLVED, 2073, 32, 526)),
        ],
    )
    def test_benchmark_counts_and_approved_point(self, seed, counts):
        # The counts are pinned, and y is, bit for bit, the point the oracle
        # approved last, so the oracle's own verdict is the certificate.
        oracle = RecordingOracle(flat_image(15, 1000, 1e-3, seed)[0])
        y, report = strict_conic_feasibility(oracle, 15)
        assert (report.status, report.fo_iters, report.rescalings, report.oracle_calls) == counts
        assert y.tobytes() == oracle.approved[-1].tobytes()

    def test_rescale_hook(self):
        rng = np.random.default_rng(0)
        mat, _ = flat_image_cone(rng, 3, 40, 1e-3)
        events = []
        y, report = strict_conic_feasibility(
            MatrixSeparationOracle(mat), 3, hook=lambda kind, **d: events.append((kind, d))
        )
        assert report.status == SOLVED and report.rescalings > 0
        assert len(events) == report.rescalings
        for kind, data in events:
            assert kind == "rescale"
            assert set(data) == {"ratio", "active", "iterations", "queries"}
            assert data["ratio"] >= 16.0 / 9.0 * (1.0 - 1e-8)
            # every stored row is an answer; every query after the seeding one is a step
            assert 1 <= data["active"] <= data["queries"] <= data["iterations"] + 1
        assert sum(d["iterations"] for _, d in events) <= report.fo_iters
        assert sum(d["queries"] for _, d in events) < report.oracle_calls
        assert min(d["ratio"] for _, d in events) == report.bound_checks[0].observed
        # the per-phase step bound comes after the ledger, as in the image solvers
        growth, phase = report.bound_checks
        assert (growth.name, phase.name) == ("det_growth_per_rescale_min", "fo_iters_per_phase")
        assert phase.bound == _vn_cap(rescale_epsilon(3), None)
        assert max(d["iterations"] for _, d in events) <= phase.observed <= phase.bound
        assert phase.passed

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

    @pytest.mark.parametrize("m", [0, -2, 1, 3])
    def test_dimension_must_match_the_oracle(self, m):
        # m = 0 divided by zero in rescale_epsilon, m = -2 hit numpy's negative
        # shape, and m != dim numpy's misaligned product.
        with pytest.raises(ContractViolationError, match="dim"):
            strict_conic_feasibility(MatrixSeparationOracle(np.eye(2)), m)

    def test_zero_dimensional_oracle_rejected(self):
        class EmptyOracle:
            dim = 0

            def query(self, v):
                return None

        with pytest.raises(ContractViolationError):
            strict_conic_feasibility(EmptyOracle(), 0)

    def test_rescale_rejects_non_convex_coefficients(self, monkeypatch):
        # Weights that are not a convex combination, one negative or summing
        # past 1, reach the rescale that consumes them; it must refuse them.
        limits = Limits(max_rescalings=1, max_iterations=100)
        events = []

        def hook(kind, **data):
            events.append(kind)

        y, report = strict_conic_feasibility(CancellingOracle(), 2, limits, hook=hook)
        assert (report.rescalings, events) == (1, ["rescale"])

        def negative(coeffs):
            low, high = coeffs.argmin(), coeffs.argmax()
            coeffs = coeffs.copy()
            coeffs[low] -= 1.0
            coeffs[high] += 1.0
            return coeffs

        phase = oracle_module.oracle_von_neumann
        for forge in (negative, lambda coeffs: 1.5 * coeffs):

            def forged_phase(*args, forge=forge, **kwargs):
                vectors, coeffs, *rest = phase(*args, **kwargs)
                return (vectors, forge(coeffs), *rest)

            monkeypatch.setattr(oracle_module, "oracle_von_neumann", forged_phase)
            with pytest.raises(ContractViolationError, match="convex"):
                strict_conic_feasibility(CancellingOracle(), 2, limits, hook=hook)
        assert events == ["rescale"]


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

NAN_SCRIPT = """\
import sys
for line in sys.stdin:
    print("nan 1 0", flush=True)
"""


class TestSubprocessOracle:
    def test_solves_orthant_end_to_end(self):
        with SubprocessOracle([sys.executable, "-c", ORTHANT_SCRIPT], dim=2) as oracle:
            y, report = strict_conic_feasibility(oracle, 2)
        assert report.status == SOLVED
        assert np.all(y > 0)
        assert oracle.calls > 0

    def test_lazy_steps_save_child_queries(self):
        # The child answers every query the solver counts, and lazy steps
        # make fewer queries than one per step and one per phase.
        mat, _ = flat_image_cone(np.random.default_rng(0), 3, 40, 1e-3)
        src = str(Path(oracle_module.__file__).resolve().parents[1])
        script = MATRIX_ORACLE_SCRIPT.format(src=src, rows=mat.tolist())
        with SubprocessOracle([sys.executable, "-c", script], dim=3) as child:
            y, report = strict_conic_feasibility(child, 3)
        assert report.status == SOLVED
        assert np.all(mat.T @ y > 0)
        assert child.calls == report.oracle_calls < report.fo_iters + report.rescalings + 1

    def test_fault_from_bad_script(self):
        with SubprocessOracle([sys.executable, "-c", BROKEN_SCRIPT], dim=2) as oracle:
            with pytest.raises(OracleFaultError):
                strict_conic_feasibility(oracle, 2)

    def test_nan_answer_is_a_fault(self):
        with SubprocessOracle([sys.executable, "-c", NAN_SCRIPT], dim=3) as oracle:
            with pytest.raises(OracleFaultError):
                strict_conic_feasibility(oracle, 3)
        assert oracle.calls == 1

    def test_dead_process_detected(self):
        oracle = SubprocessOracle([sys.executable, "-c", "pass"], dim=2)
        import time

        time.sleep(0.3)
        with pytest.raises(OracleFaultError):
            oracle.query(np.zeros(2))
        oracle.close()

    def test_close_kills_a_child_that_ignores_sigterm(self, monkeypatch):
        # The child answers one query, so its SIGTERM handler is in place,
        # then sleeps on; close must kill and reap it instead of raising.
        script = (
            "import signal, sys, time\n"
            "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
            "sys.stdin.readline()\n"
            "print('YES', flush=True)\n"
            "while True:\n"
            "    time.sleep(1)\n"
        )
        monkeypatch.setattr(oracle_module, "_CLOSE_GRACE_S", 0.2)
        oracle = SubprocessOracle([sys.executable, "-c", script], dim=2)
        assert oracle.query(np.ones(2)) is None
        oracle.close()
        assert oracle._proc.returncode == -signal.SIGKILL

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


# Serves MatrixSeparationOracle over the line protocol, so the solver sees the
# same answers, bit for bit, as from the in-process adapter.
MATRIX_ORACLE_SCRIPT = """\
import sys
sys.path.insert(0, {src!r})
import numpy as np
from lincone.oracle import MatrixSeparationOracle
oracle = MatrixSeparationOracle(np.array({rows!r}))
for line in sys.stdin:
    answer = oracle.query(np.array([float(t) for t in line.split()]))
    print("YES" if answer is None else " ".join(repr(float(c)) for c in answer), flush=True)
"""


def small_integer_cone(m, n, seed):
    return np.random.default_rng(seed).integers(-3, 4, size=(m, n)).astype(float)


class TestHonestOracleAtZeroMargin:
    # On these draws the unit-column pick and the solver's raw a^T v can
    # round apart at a zero margin; an honest oracle must not be blamed.

    @pytest.mark.parametrize("adapter", ["matrix", "subprocess"])
    @pytest.mark.parametrize("m, seed", [(2, 183), (3, 197), (3, 313)])
    def test_interior_cones_solve_and_cross_accept(self, m, seed, adapter):
        mat = small_integer_cone(m, 6, seed)
        if adapter == "matrix":
            oracle = MatrixSeparationOracle(mat)
        else:
            src = str(Path(oracle_module.__file__).resolve().parents[1])
            script = MATRIX_ORACLE_SCRIPT.format(src=src, rows=mat.tolist())
            oracle = SubprocessOracle([sys.executable, "-c", script], dim=m)
        try:
            y, report = strict_conic_feasibility(oracle, m)
            assert report.status == SOLVED
            stub = ImageCertificate(y=y, support=np.arange(6), min_margin=0.0, residual_zero=0.0)
            assert check_image_certificate(mat, stub).valid
            cert, mrep = full_support_image(mat)
            assert mrep.status == SOLVED
            assert check_image_certificate(mat, cert).valid
            assert oracle.query(cert.y) is None
        finally:
            if adapter == "subprocess":
                oracle.close()

    @pytest.mark.parametrize("m, n, seed", [(2, 6, 186), (2, 6, 190), (3, 10, 151), (3, 10, 356)])
    def test_empty_interior_ends_with_a_status(self, m, n, seed):
        mat = small_integer_cone(m, n, seed)
        y, report = strict_conic_feasibility(MatrixSeparationOracle(mat), m)
        assert report.status in (SOLVED, NO_CONVERGE)
        if report.status == SOLVED:
            stub = ImageCertificate(y=y, support=np.arange(n), min_margin=0.0, residual_zero=0.0)
            assert check_image_certificate(mat, stub).valid
