import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from lincone.conditioning import (
    ConditionReport,
    _is_integral,
    condition_report,
    encoding_length,
    goffin_oracle,
    hadamard_delta,
    hadamard_delta_sq_exact,
    theta,
)
from lincone.errors import ContractViolationError, UnsupportedInstanceError

from helpers import bareiss_rank, brute_force_delta, integer_draw, margin_on_grid, narrow_kernel_cone


def lp_kernel_feasible(mat):
    """LP oracle: is there x > 0 with (normalized) A x = 0?"""
    mat = np.asarray(mat, dtype=float)
    norms = np.linalg.norm(mat, axis=0)
    hat = mat[:, norms > 0] / norms[norms > 0]
    res = linprog(
        c=np.zeros(hat.shape[1]),
        A_eq=hat,
        b_eq=np.zeros(hat.shape[0]),
        bounds=[(1, None)] * hat.shape[1],
        method="highs",
    )
    return res.status == 0


def lp_image_feasible(mat):
    """LP oracle: is there y with A^T y > 0 (strict on every column)?"""
    mat = np.asarray(mat, dtype=float)
    norms = np.linalg.norm(mat, axis=0)
    if np.any(norms == 0):
        return False
    hat = mat / norms
    res = linprog(
        c=np.zeros(hat.shape[0]),
        A_ub=-hat.T,
        b_ub=-np.ones(hat.shape[1]),
        bounds=[(None, None)] * hat.shape[0],
        method="highs",
    )
    return res.status == 0


class TestHadamardDelta:
    def test_identity(self):
        assert hadamard_delta(np.eye(2)) == pytest.approx(1.0)

    def test_two_units_and_long_column(self):
        mat = np.array([[1.0, 0.0, 3.0], [0.0, 1.0, 4.0]])
        assert hadamard_delta(mat) == pytest.approx(5.0)

    def test_single_row(self):
        assert hadamard_delta(np.array([[2.0, 4.0]])) == pytest.approx(4.0)

    def test_matches_exhaustive(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            m = rng.integers(1, 4)
            n = rng.integers(1, 7)
            mat = rng.integers(-6, 7, size=(m, n)).astype(float)
            if not np.any(mat):
                continue
            assert hadamard_delta(mat) == pytest.approx(brute_force_delta(mat), rel=1e-9)

    def test_exact_square_agrees(self):
        # Squared norms of these draws are at most 243, so the exhaustive
        # float product, squared and rounded, is the exact integer.
        rng = np.random.default_rng(102)
        for _ in range(30):
            mat = rng.integers(-9, 10, size=(3, 5)).astype(float)
            if not np.any(mat):
                continue
            assert hadamard_delta_sq_exact(mat) == round(brute_force_delta(mat) ** 2)

    def test_rejects_fractional(self):
        with pytest.raises(UnsupportedInstanceError):
            hadamard_delta(np.array([[0.5, 1.0]]))


def test_integrality_is_read_on_the_floats():
    assert _is_integral(np.array([[2.0**60, -3.0, 0.0]]))
    for bad in (0.5, np.inf, np.nan):
        assert not _is_integral(np.array([[1.0, bad]])), bad


class TestTheta:
    def test_identity(self):
        assert theta(np.eye(2)) == pytest.approx(0.25)

    def test_long_column(self):
        assert theta(np.array([[1.0, 0.0, 3.0], [0.0, 1.0, 4.0]])) == pytest.approx(0.01)

    def test_single_row(self):
        assert theta(np.array([[2.0, 4.0]])) == pytest.approx(1.0 / 16.0)

    def test_rejects_fractional(self):
        with pytest.raises(UnsupportedInstanceError):
            theta(np.array([[0.5, 1.0]]))


class TestEncodingLength:
    def test_zero(self):
        assert encoding_length(np.array([[0.0]])) == 1

    def test_identity(self):
        assert encoding_length(np.eye(2)) == 6

    def test_mixed(self):
        assert encoding_length(np.array([[2.0, 4.0]])) == 7

    def test_sign_independent(self):
        rng = np.random.default_rng(110)
        mat = rng.integers(-9, 10, size=(3, 4)).astype(float)
        assert encoding_length(mat) == encoding_length(-mat)

    def test_rejects_fractional(self):
        with pytest.raises(UnsupportedInstanceError):
            encoding_length(np.array([[0.5]]))

    def test_delta_below_power_of_encoding(self):
        # The bit-size formula must dominate the column-product bound.
        rng = np.random.default_rng(111)
        for _ in range(40):
            m = rng.integers(1, 4)
            n = rng.integers(1, 7)
            mat = rng.integers(-10, 11, size=(m, n)).astype(float)
            if not np.any(mat):
                continue
            bits = encoding_length(mat)
            assert bits >= m
            assert bits >= n
            assert hadamard_delta(mat) <= 2.0 ** bits * (1 + 1e-12)


class TestGoffinOracle:
    def test_opposite_pair(self):
        assert goffin_oracle(np.array([[1.0, -1.0]])) == pytest.approx(-1.0)

    def test_identity_two(self):
        assert goffin_oracle(np.eye(2)) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_boundary_case(self):
        mat = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        assert goffin_oracle(mat) == 0.0

    def test_zero_column_caps_positive_margin(self):
        assert goffin_oracle(np.eye(2)) > 0.0
        assert goffin_oracle(np.hstack([np.eye(2), np.zeros((2, 1))])) == 0.0

    def test_rank_one_embedded(self):
        # Two antipodal columns inside a 3-row matrix exercise the rank-1 path.
        mat = np.array([[2.0, -4.0], [2.0, -4.0], [1.0, -2.0]])
        assert goffin_oracle(mat) == pytest.approx(-1.0)

    def test_matches_sampled_margin(self):
        rng = np.random.default_rng(120)
        for _ in range(12):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(m, 7))
            mat = rng.integers(-10, 11, size=(m, n)).astype(float)
            if np.any(np.linalg.norm(mat, axis=0) == 0):
                continue
            rho = goffin_oracle(mat)
            lo = margin_on_grid(mat, rng=rng)
            assert rho >= lo - 1e-9
            assert rho <= lo + 0.05  # sampling gets within a few hundredths

    def test_sign_matches_lp_feasibility(self):
        rng = np.random.default_rng(121)
        checked = 0
        for _ in range(60):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(2, 7))
            mat = rng.integers(-10, 11, size=(m, n)).astype(float)
            if np.any(np.linalg.norm(mat, axis=0) == 0):
                continue
            rho = goffin_oracle(mat)
            if abs(rho) < 1e-3:
                continue
            checked += 1
            if rho < 0:
                assert lp_kernel_feasible(mat)
            else:
                assert lp_image_feasible(mat)
        assert checked >= 30

    def test_rank_six_simplex(self):
        assert goffin_oracle(np.eye(6)) == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-12)

    def test_high_rank_interior_rejected(self):
        # 0 inside the hull at rank 8: past the hull branch's rank cap.
        with pytest.raises(UnsupportedInstanceError):
            goffin_oracle(np.hstack([np.eye(8), -np.eye(8)]))

    def test_narrow_rank_four_and_five_cones(self):
        # 0 barely inside the hull, where min_j g_j . y is nearly flat over a
        # band of y, at ranks where the hull branch still builds the hull.
        rng = np.random.default_rng(122)
        for i in range(40):
            m = 4 + i % 2
            n = int(rng.integers(20, 41))
            mat = narrow_kernel_cone(rng, m, n, rng.uniform(0.1, 0.3), rng.uniform(0.8, 0.95))
            rho = goffin_oracle(mat)
            assert rho < 0.0
            assert rho >= margin_on_grid(mat, count=20000, rng=rng) - 1e-9

    def test_zero_matrix_rejected(self):
        with pytest.raises(ContractViolationError):
            goffin_oracle(np.zeros((2, 2)))

    def test_rank_four_simplex(self):
        # Regular simplex columns in R^4: margin of the identity-like frame.
        assert goffin_oracle(np.eye(4)) == pytest.approx(0.5, abs=1e-12)


class TestLowerBoundChain:
    def test_margin_dominates_theta_on_integer_corpus(self):
        rng = np.random.default_rng(140)
        checked = 0
        for _ in range(80):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 7))
            mat = rng.integers(-10, 11, size=(m, n)).astype(float)
            if not np.any(mat) or np.any(np.linalg.norm(mat, axis=0) == 0):
                continue
            rho = goffin_oracle(mat)
            if abs(rho) <= 1e-3:
                continue
            checked += 1
            th = Fraction(1, m * m * hadamard_delta_sq_exact(mat))
            bits = encoding_length(mat)
            assert abs(rho) >= float(th) - 1e-12
            assert th >= Fraction(1, 2 ** (4 * bits))
        assert checked >= 40

    def test_report_fields(self):
        rep = condition_report(np.array([[1.0, 0.0, 3.0], [0.0, 1.0, 4.0]]))
        assert isinstance(rep, ConditionReport)
        assert rep.delta == pytest.approx(5.0)
        assert rep.theta == pytest.approx(1.0 / (4 * 25.0))
        assert rep.encoding_length == encoding_length(np.array([[1, 0, 3], [0, 1, 4]]))
        assert rep.theta == pytest.approx(1.0 / (4 * rep.delta**2))

    def test_report_float_input_has_no_bits(self):
        rep = condition_report(np.array([[0.5, -0.25]]))
        assert rep.encoding_length is None
        assert rep.theta is None and rep.delta is None
        assert rep.kernel_feasible_hint


def test_norms_past_float_range_stay_exact():
    # |a_j|^2 = 2^1040 overflows a float: the columns are ranked by their
    # exact squared norms and tested for independence as unit columns.
    mat = np.array([[2.0**520, -(2.0**520), 0.0, 1.0], [0.0, 0.0, 2.0**520, 1.0]])
    assert hadamard_delta_sq_exact(mat) == 2**2080
    assert theta(mat) == 0.0
    assert hadamard_delta(mat) == math.inf


def test_independence_on_ill_scaled_rows():
    # Ranked by exact squared norms, the first two columns differ only in an
    # entry 1e-8 of their unit length; Gram-Schmidt over them left rounding
    # of that size in the third column, which in R^2 depends on them, and
    # counted it.
    mat = np.array([[3e8, 3e8, 0.0], [-3.0, 0.0, -3.0]])
    assert hadamard_delta_sq_exact(mat) == (9 * 10**16 + 9) * 9 * 10**16


def test_integers_past_int64_stay_exact():
    mat = np.array([[2.0**64, 1.0]])
    assert theta(mat) == 2.0**-128
    assert hadamard_delta_sq_exact(mat) == 2**128
    assert encoding_length(mat) == 68


def _greedy_delta_sq_by_bareiss(mat):
    """delta^2 by a greedy scan by decreasing squared norm, each independence test an exact rank."""
    sq = [sum(int(v) ** 2 for v in col) for col in mat.T.tolist()]
    chosen = []
    for j in sorted(range(len(sq)), key=lambda j: -sq[j]):
        if sq[j] > 1 and len(chosen) < mat.shape[0] and bareiss_rank(mat[:, chosen + [j]]) > len(chosen):
            chosen.append(j)
    return math.prod(sq[j] for j in chosen)


@pytest.mark.parametrize("scale", [1.0, 1e8, 1e12])
def test_exact_delta_decides_independence_exactly(scale):
    # Rows alternately times scale and 1: a unit column's small-row entries
    # fall under a float pivot cut at 1e8 on some draws and at 1e12 on all.
    for seed in range(40):
        mat = integer_draw(seed)
        mat[::2] *= scale
        assert hadamard_delta_sq_exact(mat) == _greedy_delta_sq_by_bareiss(mat), seed
