import numpy as np
import pytest

from lincone.errors import ContractViolationError, DegenerateColumnError
from lincone.linalg import (
    SymPosDef,
    Projector,
    independent_rows,
    kernel_projector,
    normalize_columns,
    orthocomplement_basis,
    pivoted_rank,
)

from helpers import gs_kernel_projector


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

    def test_norm_and_quad(self):
        # R = diag(1/4, 1): the inverse metric is diag(4, 1).
        w = SymPosDef(np.diag([0.25, 1.0])).inv_factor
        assert np.linalg.norm(w @ np.array([1.0, 0.0])) == pytest.approx(2.0)
        assert np.linalg.norm(w @ np.array([1.0, 2.0])) ** 2 == pytest.approx(8.0)

    def test_embed_gram(self):
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

    def test_rejects_rectangular(self):
        with pytest.raises(ContractViolationError):
            SymPosDef(np.ones((2, 3)))


class TestKernelProjector:
    def test_two_opposite_columns(self):
        proj = kernel_projector(np.array([[1.0, -1.0]]))
        assert np.allclose(proj.mat, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12)

    def test_identity_has_trivial_kernel(self):
        proj = kernel_projector(np.eye(2))
        assert np.allclose(proj.mat, np.zeros((2, 2)), atol=1e-12)
        assert proj.rank == 0

    def test_fixed_three_column_case(self):
        proj = kernel_projector(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        expect = np.array([[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
        assert np.allclose(proj.mat, expect, atol=1e-12)

    def test_matches_gram_schmidt_construction(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            m = rng.integers(1, 5)
            n = rng.integers(1, 9)
            mat = rng.integers(-5, 6, size=(m, n)).astype(float)
            if not np.any(mat):
                continue
            proj = kernel_projector(mat)
            assert np.abs(proj.mat - gs_kernel_projector(mat)).max() < 1e-9

    def test_annihilates_matrix(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            mat = rng.standard_normal((3, 7))
            proj = kernel_projector(mat)
            assert np.abs(mat @ proj.mat).max() < 1e-9

    def test_rank_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            mat = rng.integers(-3, 4, size=(3, 6)).astype(float)
            if not np.any(mat):
                continue
            proj = kernel_projector(mat)
            assert proj.rank == 6 - np.linalg.matrix_rank(mat)


class TestProjectorValidation:
    def test_rejects_non_idempotent(self):
        with pytest.raises(ContractViolationError):
            Projector(np.array([[0.5, 0.0], [0.0, 1.0]]))


class TestRank:
    def test_independent_rows_known(self):
        mat = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 1.0]])
        rows = independent_rows(mat)
        assert len(rows) == 2
        assert np.linalg.matrix_rank(mat[rows]) == 2

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


def test_normalize_columns_rejects_zero():
    with pytest.raises(DegenerateColumnError):
        normalize_columns(np.array([[1.0, 0.0], [0.0, 0.0]]))
