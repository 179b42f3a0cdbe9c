import numpy as np
import pytest

from lincone import linalg as linalg_module
from lincone.errors import ContractViolationError, DegenerateColumnError
from lincone.linalg import (
    SymPosDef,
    kernel_projector,
    normalize_columns,
    orthocomplement_basis,
    pivoted_rank,
    raw_weights,
)

from helpers import bareiss_rank, gs_kernel_projector, householder_orthocomplement, integer_draw


def random_spd(rng, dim, spread=1.0):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + (0.1 + spread) * np.eye(dim)


class TestSymPosDef:
    def test_logdet_matches_slogdet(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            mat = random_spd(rng, 4)
            q = SymPosDef(mat)
            sign, logdet = np.linalg.slogdet(mat)
            assert sign > 0
            assert q.logdet == pytest.approx(logdet, rel=1e-10)

    def test_inverse_identity(self):
        # W = L^{-1} for R = L L^T: W R W^T = I and R^{-1} = W^T W.
        rng = np.random.default_rng(7)
        for dim in (1, 2, 3, 5, 8):
            rmat = random_spd(rng, dim)
            w = SymPosDef(rmat).inv_factor
            assert np.abs(w @ rmat @ w.T - np.eye(dim)).max() < 1e-9
            assert np.abs(w.T @ w @ rmat - np.eye(dim)).max() < 1e-9
            assert np.allclose(w, np.tril(w))

    def test_factor_measures_lengths_in_inverse_metric(self):
        # R = diag(1/4, 1): the inverse metric is diag(4, 1).
        w = SymPosDef(np.diag([0.25, 1.0])).inv_factor
        assert np.linalg.norm(w @ np.array([1.0, 0.0])) == pytest.approx(2.0)
        assert np.linalg.norm(w @ np.array([1.0, 2.0])) ** 2 == pytest.approx(8.0)

    def test_whitened_gram_is_inverse_metric_gram(self):
        # (W A)^T (W A) = A^T R^{-1} A.
        rng = np.random.default_rng(10)
        for dim in (1, 2, 3, 5, 8):
            rmat = random_spd(rng, dim)
            w = SymPosDef(rmat).inv_factor
            a = rng.standard_normal((dim, 7))
            gram = (w @ a).T @ (w @ a)
            assert np.allclose(gram, a.T @ np.linalg.inv(rmat) @ a, atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractViolationError):
            SymPosDef(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ContractViolationError):
            SymPosDef(np.array([[1.0, 0.0], [0.0, -2.0]]))

    @pytest.mark.parametrize(
        "entries",
        [
            [[np.nan, 0.0], [0.0, 1.0]],
            [[1.0, np.nan], [np.nan, 1.0]],
            [[1.0, np.inf], [np.inf, 1.0]],
            [[np.inf, 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, -np.inf]],
            np.zeros((0, 0)),
            np.zeros((2, 2)),
        ],
        ids=["nan-diagonal", "nan-pair", "inf-pair", "inf-diagonal", "minus-inf", "0x0", "zero"],
    )
    def test_rejects_nonfinite_empty_or_zero(self, entries):
        # The finiteness check is the largest |entry| being finite, so no
        # RuntimeWarning (an error in this suite) is raised on the way.
        with pytest.raises(ContractViolationError):
            SymPosDef(np.array(entries, dtype=float))

    def test_rejects_singular_psd(self):
        # positive semidefinite but singular: potrf meets a zero pivot
        with pytest.raises(ContractViolationError):
            SymPosDef(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_inv_factor_upper_triangle_is_exactly_zero(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 5, 8, 15):
            w = SymPosDef(random_spd(rng, dim)).inv_factor
            assert np.count_nonzero(np.triu(w, 1)) == 0
            assert np.all(np.diag(w) > 0.0)

    def test_inverse_identity_on_rescale_steps(self):
        # The solvers' step R' = (I + sum_i w_i c_i c_i^T) / (1+eps) for unit
        # c_i and convex w, eps = 1/(11m): eigenvalues in [1/(1+eps), 2/(1+eps)].
        rng = np.random.default_rng(12)
        for dim in (2, 3, 6, 15, 25):
            eps = 1.0 / (11 * dim)
            for count in (1, dim, 4 * dim):
                cols = rng.standard_normal((dim, count))
                cols /= np.linalg.norm(cols, axis=0)
                weights = rng.dirichlet(np.ones(count))
                rmat = (np.eye(dim) + (cols * weights) @ cols.T) / (1.0 + eps)
                w = SymPosDef(rmat).inv_factor
                assert np.abs(w @ rmat @ w.T - np.eye(dim)).max() <= 1e-12

    def test_rejects_rectangular(self):
        with pytest.raises(ContractViolationError):
            SymPosDef(np.ones((2, 3)))


class TestKernelProjector:
    def test_two_opposite_columns(self):
        proj = kernel_projector(np.array([[1.0, -1.0]]))
        assert np.allclose(proj, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12)

    def test_identity_has_trivial_kernel(self):
        proj = kernel_projector(np.eye(2))
        assert np.allclose(proj, np.zeros((2, 2)), atol=1e-12)
        assert 2 - round(np.trace(proj)) == 2

    def test_fixed_three_column_case(self):
        proj = kernel_projector(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        expect = np.array([[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
        assert np.allclose(proj, expect, atol=1e-12)

    def test_matches_gram_schmidt_construction(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            m = rng.integers(1, 5)
            n = rng.integers(1, 9)
            mat = rng.integers(-5, 6, size=(m, n)).astype(float)
            if not np.any(mat):
                continue
            proj = kernel_projector(mat)
            assert np.abs(proj - gs_kernel_projector(mat)).max() < 1e-9

    def test_annihilates_matrix(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            mat = rng.standard_normal((3, 7))
            proj = kernel_projector(mat)
            assert np.abs(mat @ proj).max() < 1e-9

    def test_rank_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            mat = rng.integers(-3, 4, size=(3, 6)).astype(float)
            if not np.any(mat):
                continue
            proj = kernel_projector(mat)
            assert 6 - round(np.trace(proj)) == np.linalg.matrix_rank(mat)

    def test_row_scaling_leaves_the_projector(self):
        # Row scaling keeps the kernel; the projector is read on unit rows.
        rng = np.random.default_rng(24)
        for seed in range(40):
            mat = integer_draw(seed)
            for _ in range(3):
                scaled = 10.0 ** rng.uniform(-12, 12, size=(mat.shape[0], 1)) * mat
                assert np.abs(kernel_projector(scaled) - kernel_projector(mat)).max() < 1e-12, seed

    def test_zero_rows_are_ignored(self):
        mat = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        assert np.array_equal(kernel_projector(mat), kernel_projector(mat[[0, 2]]))
        assert np.array_equal(kernel_projector(np.zeros((2, 3))), np.eye(3))

    def test_rejects_non_orthonormal_basis(self, monkeypatch):
        qr = linalg_module.qr

        def skewed_qr(mat, **kwargs):
            basis, *rest = qr(mat, **kwargs)
            basis[:, 0] *= 1.5
            return (basis, *rest)

        monkeypatch.setattr(linalg_module, "qr", skewed_qr)
        with pytest.raises(ContractViolationError):
            kernel_projector(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))


class TestRank:
    def test_rank_matches_exact_integer_rank(self):
        assert pivoted_rank(np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 1.0]])) == 2
        rng = np.random.default_rng(32)
        for _ in range(50):
            m = rng.integers(1, 7)
            n = rng.integers(1, 9)
            r = rng.integers(0, min(m, n) + 1)
            mat = rng.integers(-4, 5, size=(m, r)) @ rng.integers(-4, 5, size=(r, n))
            assert pivoted_rank(mat.astype(float)) == bareiss_rank(mat)

    def test_rank_is_exact_on_row_scaled_draws(self):
        # Rows alternately times 1e12 and 1: each draw whole and on a random column subset.
        rng = np.random.default_rng(33)
        for seed in range(200):
            mat = integer_draw(seed)
            mat[::2] *= 1e12
            subset = rng.choice(mat.shape[1], int(rng.integers(1, mat.shape[1] + 1)), replace=False)
            for cols in (mat, mat[:, np.sort(subset)]):
                assert pivoted_rank(cols) == bareiss_rank(cols), seed

    def test_rank_reads_columns_after_rows(self):
        # Unit rows alone are parallel to within 1e-12; unit columns part them.
        assert pivoted_rank(np.array([[1e12, 1.0, 0.0], [1e12, 0.0, 1.0]])) == 2

    def test_zero_rows_and_columns_are_ignored(self):
        assert pivoted_rank(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 2.0], [0.0, 0.0, 0.0]])) == 1
        assert pivoted_rank(np.zeros((3, 2))) == 0

    def test_rank_matches_numpy(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = rng.integers(1, 6)
            n = rng.integers(1, 6)
            r = rng.integers(0, min(m, n) + 1)
            if r == 0:
                mat = np.zeros((m, n))
            else:
                mat = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            assert pivoted_rank(mat) == np.linalg.matrix_rank(mat, tol=1e-9)


class TestOrthocomplementBasis:
    def test_axis_vector(self):
        w = orthocomplement_basis(np.array([1.0, 0.0]))
        assert w.shape == (2, 1)
        assert abs(abs(w[1, 0]) - 1.0) < 1e-12
        assert abs(w[0, 0]) < 1e-12

    def test_one_dimensional(self):
        w = orthocomplement_basis(np.array([3.0]))
        assert w.shape == (1, 0)

    def test_columns_orthonormal_and_orthogonal_to_input(self):
        rng = np.random.default_rng(61)
        for dim in (2, 3, 5, 8):
            for _ in range(10):
                v = rng.standard_normal(dim)
                w = orthocomplement_basis(v)
                assert w.shape == (dim, dim - 1)
                assert np.abs(w.T @ w - np.eye(dim - 1)).max() < 1e-10
                assert np.abs(w.T @ v).max() < 1e-9 * np.linalg.norm(v)

    def test_matches_householder_reflector(self):
        rng = np.random.default_rng(62)
        for dim in range(2, 30):
            for lead in (None, 0.0, -0.0):
                v = rng.standard_normal(dim)
                if lead is not None:
                    v[0] = lead
                assert np.abs(orthocomplement_basis(v) - householder_orthocomplement(v)).max() <= 1e-14

    def test_deterministic(self):
        v = np.array([0.3, -0.4, 1.2])
        assert np.array_equal(orthocomplement_basis(v), orthocomplement_basis(v))

    def test_zero_rejected(self):
        with pytest.raises(DegenerateColumnError):
            orthocomplement_basis(np.zeros(3))


class TestDeterminantFacts:
    # Two scalar facts the rescaling analysis leans on, exercised numerically.

    def test_det_one_plus_trace(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            b = rng.standard_normal((4, 4))
            x = b @ b.T
            assert np.linalg.det(np.eye(4) + x) >= 1.0 + np.trace(x) - 1e-9

    def test_geometric_vs_arithmetic_mean(self):
        rng = np.random.default_rng(72)
        for _ in range(50):
            b = rng.standard_normal((4, 4))
            x = b @ b.T + 1e-6 * np.eye(4)
            d = np.linalg.det(x) ** (1.0 / 4.0)
            assert d <= np.trace(x) / 4.0 + 1e-9


def test_normalize_columns_is_exact_under_power_of_two_scaling():
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((4, 30)) * 10.0 ** rng.integers(-8, 9, size=30)
    unit = normalize_columns(mat)
    assert np.array_equal(unit, mat / np.linalg.norm(mat, axis=0))
    for scale in (2.0**600, 2.0**-600):
        assert np.array_equal(normalize_columns(scale * mat), unit)


def test_raw_weights_undo_the_column_norms():
    mat = np.array([[3.0, 0.0, 0.0], [4.0, 0.0, -2.0]])
    assert np.array_equal(raw_weights(mat, np.array([5.0, 1.0, 4.0])), [1.0, 1.0, 2.0])
    assert np.array_equal(raw_weights(2.0**600 * mat, np.ones(3))[[0, 2]], 2.0**-600 * np.array([0.2, 0.5]))


def test_normalize_columns_rejects_zero():
    with pytest.raises(DegenerateColumnError):
        normalize_columns(np.array([[1.0, 0.0], [0.0, 0.0]]))
