import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from scipy.linalg import null_space

from conebench.families import flat_image, planted_partition
from helpers import flat_image_cone, integer_draw, sampled_width
from lincone import image as image_module
from lincone.certify import check_image_certificate
from lincone.errors import ContractViolationError, UnsupportedInstanceError
from lincone.image import (
    ImageState,
    _check_decomposition,
    _grow_metric,
    _remove_column,
    full_support_image,
    image_rescale,
    max_support_image,
    short_column_scan,
)
from lincone.instances import gen_degenerate, gen_image_feasible
from lincone.kernel import max_support_kernel
from lincone.report import NO_CONVERGE, SOLVED, Limits, default_limits, rescaling_bound


def image_instance(rng, m, n, rho):
    """Unit columns whose inner product with a hidden unit y* is >= rho."""
    while True:
        y = rng.standard_normal(m)
        y /= np.linalg.norm(y)
        cols = []
        for j in range(n):
            c = rho if j == 0 else float(rng.uniform(rho, 1.0))
            w = rng.standard_normal(m)
            w -= (w @ y) * y
            nw = np.linalg.norm(w)
            if nw < 1e-9:
                break
            w /= nw
            cols.append(c * y + np.sqrt(max(1.0 - c * c, 0.0)) * w)
        else:
            mat = np.stack(cols, axis=1)
            if np.linalg.matrix_rank(mat) == m:
                return mat, y
        continue


def fresh_state(mat, eps=1.0 / 22.0, rmat=None):
    """A state on the columns of mat whose metric so far is rmat (default I).

    The current coordinates whiten rmat: with rmat = L L^T they are W = L^-1
    applied to the euclidean ones, so the current columns are W mat, held
    as their unit columns and log norms, and M = W^T.
    """
    m, n = mat.shape
    wfac = np.eye(m) if rmat is None else np.linalg.inv(np.linalg.cholesky(rmat))
    cur = wfac @ mat
    return ImageState(
        M=wfac.T,
        E=mat.astype(float).copy(),
        E_norms=np.linalg.norm(mat, axis=0),
        gamma=np.zeros(n),
        alpha=1.0,
        B_hat=cur / np.linalg.norm(cur, axis=0),
        log_q=np.log(np.linalg.norm(cur, axis=0)),
        T=np.arange(n),
        theta=0.5,
        eps=eps,
    )


def current(state):
    """The current columns c_j = B_hat_j e^log_q_j."""
    return state.B_hat * np.exp(state.log_q)


def decomposition_hook(log):
    """Hook appending (kind, decomposition error) for every rescale and remove state.

    It also checks the loop's state at every event: B_hat C-ordered with
    unit columns, log_q finite. A state with no active columns logs 0.0:
    W = c E^+ needs E to have columns.
    """

    def hook(kind, state, **_):
        assert state.B_hat.flags.c_contiguous
        assert np.all(np.abs(np.linalg.norm(state.B_hat, axis=0) - 1.0) <= 1e-12)
        assert np.all(np.isfinite(state.log_q))
        log.append((kind, _check_decomposition(state) if state.T.size else 0.0))

    return hook


def metric(state):
    """The metric R in the original coordinates, while nothing is projected out: (M M^T)^-1."""
    return np.linalg.inv(state.M @ state.M.T)


def dense_image_rescale(state, x):
    """The rescale formula on every column, zero weights included: the reference.

    It works on the raw current columns A_cur = B_hat e^log_q, maps them,
    A_cur <- W' A_cur, and only then splits them into unit columns and logs.
    """
    a_cur = current(state)
    qnorm = np.linalg.norm(a_cur, axis=0)
    wfac, ratio = _grow_metric(a_cur / qnorm, x, state.eps)
    eucl2 = np.linalg.norm(state.E, axis=0) ** 2
    gamma = (state.gamma + x * eucl2 / qnorm**2) / (1.0 + state.eps)
    alpha = state.alpha / (1.0 + state.eps)
    a_new = wfac @ a_cur
    norms = np.linalg.norm(a_new, axis=0)
    new = replace(state, M=state.M @ wfac.T, gamma=gamma, alpha=alpha, B_hat=a_new / norms, log_q=np.log(norms))
    return new, ratio


class TestImageRescale:
    def test_support_only_rescale_matches_dense_formula(self):
        rng = np.random.default_rng(17)
        mat = rng.standard_normal((4, 9))
        state = fresh_state(mat, 1.0 / 44.0)
        # Two earlier rescales make gamma, alpha, M and the current columns nontrivial.
        for _ in range(2):
            x = rng.uniform(0.0, 1.0, 9)
            state, _ = image_rescale(state, x / x.sum())
        x = np.zeros(9)
        x[[1, 4, 5, 8]] = rng.uniform(0.0, 1.0, 4)
        x /= x.sum()
        out, ratio = image_rescale(state, x)
        ref, ratio_ref = dense_image_rescale(state, x)
        for name in ("B_hat", "log_q", "M", "gamma"):
            assert np.abs(getattr(out, name) - getattr(ref, name)).max() <= 1e-12
        assert np.abs(current(out) - current(ref)).max() <= 1e-12
        assert ratio == pytest.approx(ratio_ref, rel=1e-12, abs=0.0)
        assert out.alpha == pytest.approx(ref.alpha, rel=1e-12, abs=0.0)
        # A column outside supp(x) only has its gamma divided by 1 + eps.
        idle = x == 0.0
        assert np.array_equal(out.gamma[idle], state.gamma[idle] / (1.0 + 1.0 / 44.0))
        assert np.all(out.gamma[~idle] > state.gamma[~idle] / (1.0 + 1.0 / 44.0))

    def test_solver_retraces_with_dense_rescale(self, monkeypatch):
        # flat_image(8, 40, 1e-3, s) rescales 19-29 times per draw, so every
        # rescale of the run feeds the comparison.
        mats = [flat_image(8, 40, 1e-3, s)[0] for s in range(10)]
        runs = [full_support_image(mat)[1] for mat in mats]
        monkeypatch.setattr(image_module, "image_rescale", dense_image_rescale)
        dense = [full_support_image(mat)[1] for mat in mats]
        assert [(r.status, r.fo_iters, r.rescalings) for r in runs] == [
            (r.status, r.fo_iters, r.rescalings) for r in dense
        ]
        assert min(r.rescalings for r in runs) >= 19

    def test_single_column_example(self):
        eps = 1.0 / 22.0
        state = fresh_state(np.eye(2), eps)
        out, ratio = image_rescale(state, np.array([1.0, 0.0]))
        assert np.allclose(metric(out), np.diag([2.0, 1.0]) / (1 + eps))
        assert np.allclose(current(out), out.M.T)
        assert ratio == pytest.approx(2.0 / (1 + eps) ** 2, rel=1e-12)
        assert ratio >= 16.0 / 9.0

    def test_symmetric_pair_example(self):
        eps = 1.0 / 22.0
        state = fresh_state(np.eye(2), eps)
        out, ratio = image_rescale(state, np.array([0.5, 0.5]))
        assert np.allclose(metric(out), 1.5 * np.eye(2) / (1 + eps))
        assert ratio == pytest.approx(1.5**2 / (1 + eps) ** 2, rel=1e-12)

    def test_gamma_and_alpha_track_decomposition(self):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((3, 5))
        state = fresh_state(mat, 1.0 / 33.0)
        x = rng.uniform(0, 1, 5)
        x /= x.sum()
        for _ in range(4):
            state, _ = image_rescale(state, x)
            rmat = metric(state)
            unit = mat / np.linalg.norm(mat, axis=0)
            recon = state.alpha * np.eye(3) + (unit * state.gamma) @ unit.T
            assert np.abs(recon - rmat).max() <= 1e-10 * max(1.0, np.abs(rmat).max())
            assert _check_decomposition(state) <= 1e-12

    def test_rejects_non_convex_weights(self):
        state = fresh_state(np.eye(2))
        with pytest.raises(ContractViolationError):
            image_rescale(state, np.array([0.7, 0.7]))

    def test_growth_step_rejects_non_convex_weights(self):
        # The weight contract lives in the growth step: nonnegative, summing to 1.
        cols = np.eye(2)
        for weights in ([1.5, -0.5], [0.5, 0.6], [np.nan, 1.0]):
            with pytest.raises(ContractViolationError, match="convex"):
                _grow_metric(cols, np.array(weights), 1.0 / 22.0)
        _, ratio = _grow_metric(cols, np.array([0.25, 0.75]), 1.0 / 22.0)
        assert ratio == pytest.approx(1.25 * 1.75 / (1.0 + 1.0 / 22.0) ** 2, rel=1e-12)

    def test_growth_step_rejects_growth_below_16_9(self):
        # R' = diag(2, 1) / 1.5 grows det by 2 / 2.25 < 16/9: the ledger must refuse it.
        with pytest.raises(ContractViolationError):
            _grow_metric(np.array([[1.0], [0.0]]), np.array([1.0]), 0.5)
        _, ratio = _grow_metric(np.array([[1.0], [0.0]]), np.array([1.0]), 1.0 / 22.0)
        assert ratio == pytest.approx(2.0 / (1.0 + 1.0 / 22.0) ** 2, rel=1e-12)

    def test_growth_step_factor_is_well_conditioned(self):
        # For unit columns and convex weights, R' = (I + sum w_i c_i c_i^T) / (1+eps)
        # has its spectrum in [1/(1+eps), 2/(1+eps)]; the returned W' whitens it
        # and the ratio is det R'.
        rng = np.random.default_rng(61)
        for trial in range(30):
            r = int(rng.integers(1, 8))
            k = int(rng.integers(1, 12))
            eps = 1.0 / (11.0 * r)
            cols = rng.standard_normal((r, k))
            cols /= np.linalg.norm(cols, axis=0)
            w = rng.uniform(0.0, 1.0, k)
            w /= w.sum()
            wfac, ratio = _grow_metric(cols, w, eps)
            rmat = (np.eye(r) + (cols * w) @ cols.T) / (1.0 + eps)
            assert np.abs(wfac @ rmat @ wfac.T - np.eye(r)).max() < 1e-12
            assert np.linalg.cond(rmat) <= 2.0 * (1.0 + 1e-12)
            assert ratio == pytest.approx(np.linalg.det(rmat), rel=1e-12)


class TestFullSupportImage:
    def test_single_positive_column(self):
        cert, report = full_support_image(np.array([[1.0]]))
        assert report.status == SOLVED
        assert report.rescalings == 0
        assert cert.y[0] == pytest.approx(1.0)

    def test_identity_trace(self):
        cert, report = full_support_image(np.eye(2))
        assert report.status == SOLVED
        assert report.rescalings == 0
        assert np.allclose(cert.y, [np.sqrt(0.5), np.sqrt(0.5)])
        assert cert.min_margin > 0

    def test_rank_deficient_solved(self):
        # Nothing in the loop reads rank(A): parallel columns are one ray.
        mat = np.array([[1.0, 2.0], [2.0, 4.0]])
        cert, report = full_support_image(mat)
        assert report.status == SOLVED
        assert check_image_certificate(mat, cert).valid
        assert np.allclose(cert.y, [1.0 / np.sqrt(5.0), 2.0 / np.sqrt(5.0)])

    def test_random_instances_strictly_separated(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(m, m + 8))
            rho = float(rng.uniform(0.05, 0.4))
            mat, _ = image_instance(rng, m, n, rho)
            cert, report = full_support_image(mat)
            assert report.status == SOLVED
            assert report.rescalings <= rescaling_bound(m, rho, image=True)
            assert np.all(mat.T @ cert.y > 0)
            assert np.linalg.norm(cert.y) == pytest.approx(1.0)
            for check in report.bound_checks:
                assert check.passed, check

    def test_narrow_cone_needs_rescales_and_ledger_holds(self):
        # fan spanning almost a half circle: every separator has tiny margin
        delta = 0.01
        angles = np.linspace(-(np.pi / 2 - delta), np.pi / 2 - delta, 12)
        mat = np.vstack([np.cos(angles), np.sin(angles)])
        log = []
        cert, report = full_support_image(mat, hook=decomposition_hook(log))
        assert report.status == SOLVED
        assert report.rescalings >= 1
        assert max(err for _, err in log) <= 1e-8
        growth = [c for c in report.bound_checks if c.name == "det_growth_per_rescale_min"]
        assert growth and growth[0].passed

    def test_feasible_cap_stays_in_ellipsoid(self):
        rng = np.random.default_rng(35)
        mat, _ = flat_image_cone(rng, 2, 10, 1e-2)
        maps = []
        cert, report = full_support_image(mat, hook=lambda kind, **d: maps.append(d["state"].M))
        assert report.status == SOLVED
        assert maps, "the instance must rescale for the containment check to bind"
        # Rejection-sample the feasible cap and test containment in E(R):
        # p^T R p = |M^-1 p|^2 with R = (M M^T)^-1.
        pts = []
        while len(pts) < 300:
            z = rng.standard_normal((2, 4096))
            z = z / np.maximum(np.linalg.norm(z, axis=0), 1.0)
            good = np.all(mat.T @ z >= 0, axis=0)
            pts.extend(z[:, good].T)
        pts = np.array(pts[:300])
        for mmap in maps:
            vals = np.linalg.norm(np.linalg.solve(mmap, pts.T), axis=0) ** 2
            assert vals.max() <= 1.0 + 1e-8

    def test_flat_cone_at_n_20000_stays_within_memory(self):
        # A Gram matrix of this instance alone would take 3.2 GB.
        mat, _ = flat_image_cone(np.random.default_rng(3), 5, 20_000, 1e-2)
        tracemalloc.start()
        try:
            cert, report = full_support_image(mat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.status == SOLVED
        assert check_image_certificate(mat, cert).valid
        assert peak < 64 * 2**20

    def test_budget_fires_on_infeasible_direction(self):
        # 0 is in the hull of +-e1, +-e2, so no strict separator exists.
        mat = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        from lincone.report import Limits

        cert, report = full_support_image(mat, Limits(max_rescalings=40, max_iterations=100000))
        assert report.status == NO_CONVERGE

    def test_infeasible_direction_stops_at_float_range(self):
        # Under default limits the current columns shrink toward underflow
        # before the rescale budget runs out; the run must end with a status.
        mat = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        cert, report = full_support_image(mat)
        assert report.status == NO_CONVERGE
        assert 0 < report.rescalings < default_limits(2, 4).max_rescalings
        assert not cert.y.any()


@pytest.mark.parametrize("seed", range(20))
def test_integer_draws_end_with_a_status(seed):
    mat = integer_draw(seed)
    assert np.linalg.matrix_rank(mat) == mat.shape[0]
    cert, report = full_support_image(mat)
    assert report.status in (SOLVED, NO_CONVERGE)
    if report.status == SOLVED:
        assert check_image_certificate(mat, cert).valid
    cert, support, report = max_support_image(mat)
    assert report.status in (SOLVED, NO_CONVERGE)
    if report.status == SOLVED:
        assert check_image_certificate(mat, cert).valid


class TestMaxSupportImage:
    def test_identity_full(self):
        cert, support, report = max_support_image(np.eye(2, dtype=int))
        assert report.status == SOLVED
        assert list(support) == [0, 1]
        assert np.all(cert.y > 0)

    def test_partial_support_trace(self):
        mat = np.array([[1, -1, 1], [0, 0, 1]])
        cert, support, report = max_support_image(mat)
        assert report.status == SOLVED
        assert list(support) == [2]
        assert cert.y[1] == pytest.approx(1.0, abs=1e-9)
        assert abs(cert.y[0]) <= 1e-9
        assert cert.residual_zero <= 1e-10
        assert cert.min_margin > 0
        assert report.removals >= 1

    def test_antipodal_empty_support(self):
        cert, support, report = max_support_image(np.array([[1, -1]]))
        assert report.status == SOLVED
        assert support.size == 0
        assert np.allclose(cert.y, 0.0)

    def test_zero_column_excluded(self):
        mat = np.array([[0, 1, 0], [0, 0, 1]])
        cert, support, report = max_support_image(mat)
        assert list(support) == [1, 2]
        assert abs(cert.y[0] * 0.0) == 0.0

    def test_medley_complement(self):
        mat = np.array([[1, -1, 3, 0], [0, 0, 1, 1]])
        cert_k, s_sup, _ = max_support_kernel(mat)
        cert_i, t_sup, _ = max_support_image(mat)
        assert sorted(list(s_sup) + list(t_sup)) == [0, 1, 2, 3]
        assert set(s_sup).isdisjoint(set(t_sup))

    def test_complementarity_small_corpus(self):
        cases = [
            np.array([[1, -1, 1], [0, 0, 1]]),
            np.eye(2, dtype=int),
            np.array([[1, -1]]),
            np.array([[1, 2]]),
            np.array([[1, 0, -2, 1], [0, 1, 1, -1]]),
        ]
        for mat in cases:
            _, s_sup, rep_k = max_support_kernel(mat)
            _, t_sup, rep_i = max_support_image(mat)
            assert rep_k.status == SOLVED
            assert rep_i.status == SOLVED
            n = mat.shape[1]
            assert sorted(list(s_sup) + list(t_sup)) == list(range(n))

    def test_fractional_rejected(self):
        with pytest.raises(UnsupportedInstanceError):
            max_support_image(np.array([[0.5, 1.0]]))

    def test_rank_deficient_rejected(self):
        with pytest.raises(ContractViolationError):
            max_support_image(np.array([[1, 1], [1, 1]]))

    @pytest.mark.parametrize("seed", [3, 41, 46, 49, 60, 77, 127, 138, 185, 192])
    def test_deep_degenerate_draws_solve(self, seed):
        # theta is about 1e-14 here, so the metric shrinks the kernel columns
        # by that much before they are removed. Held as one accumulated matrix,
        # it reached condition 1e30 and these draws failed the 16/9 ledger.
        inst = gen_degenerate(6, 40, 20, seed)
        _, t_star = inst.known_supports
        log = []
        cert, support, report = max_support_image(inst.mat, hook=decomposition_hook(log))
        assert report.status == SOLVED
        assert np.array_equal(support, t_star)
        assert max(err for _, err in log) <= 1e-8
        assert check_image_certificate(inst.mat, cert).valid
        assert report.removals > 0
        for check in report.bound_checks:
            assert check.passed, check

    def test_removal_ledger(self):
        mat = np.array([[1, -1, 1], [0, 0, 1]])
        log = []
        cert, support, report = max_support_image(mat, hook=decomposition_hook(log))
        assert "remove" in [kind for kind, _ in log]
        assert max(err for _, err in log) <= 1e-8
        th2 = report.bound_checks
        entry = [c for c in th2 if c.name == "removal_det_ratio_min"]
        assert entry and entry[0].passed


class TestShortColumnScan:
    def test_fresh_state_empty(self):
        state = fresh_state(np.eye(2))
        state.theta = 0.9
        assert short_column_scan(state).size == 0

    def test_detects_shrunk_direction(self):
        state = fresh_state(np.array([[1.0, 0.0], [0.0, 1.0]]), rmat=np.diag([100.0, 1.0]))
        state.theta = 0.5
        found = short_column_scan(state)
        assert list(found) == [0]

    def test_flags_iff_sampled_width_below_theta(self):
        # The width of E(R) = {z : z^T R z <= 1} along a_hat_k is |a_hat_k|_Q.
        # Sampling bounds each width within 5% from below, so with theta inside
        # a gap wider than that, a column is flagged iff its sampled width is
        # below theta.
        rng = np.random.default_rng(42)
        b = rng.standard_normal((3, 3))
        rmat = b @ b.T + 1.1 * np.eye(3)
        mat = rng.standard_normal((3, 8))
        state = fresh_state(mat, rmat=rmat)
        unit = mat / np.linalg.norm(mat, axis=0)
        sampled = np.array([sampled_width(rmat, unit[:, k], rng) for k in range(8)])
        qnorms = np.sqrt(np.einsum("ij,ij->j", unit, np.linalg.inv(rmat) @ unit))
        assert np.all(sampled <= qnorms + 1e-9)
        assert np.all(sampled > 0.95 * qnorms)
        order = np.sort(sampled)
        gaps = [i for i in range(7) if order[i] / 0.95 < order[i + 1]]
        assert gaps
        i = gaps[len(gaps) // 2]
        state.theta = 0.5 * (order[i] / 0.95 + order[i + 1])
        assert sorted(short_column_scan(state)) == list(np.flatnonzero(sampled < state.theta))


class TestRemoveColumn:
    def test_ratio_matches_restricted_form(self):
        # Projecting out a_k restricts R to the hyperplane a_k^perp; the
        # returned det ratio must be det(W^T R W) / det(R) for any orthonormal
        # basis W of that hyperplane. The surviving columns keep their
        # geometry in the restricted metric, (W^T R W)^-1, and the map M
        # still takes each column's current copy to its original one.
        rng = np.random.default_rng(51)
        for _ in range(20):
            b = rng.standard_normal((4, 4))
            rmat = b @ b.T + 1.1 * np.eye(4)
            mat = rng.standard_normal((4, 6))
            state = fresh_state(mat, rmat=rmat)
            pos = int(rng.integers(0, 6))
            new_state, ratio, dropped = _remove_column(state, pos)
            w = null_space(mat[:, pos][None, :])
            direct = np.linalg.det(w.T @ rmat @ w) / np.linalg.det(rmat)
            assert ratio == pytest.approx(direct, rel=1e-8)
            assert list(dropped) == [pos]
            kept = np.delete(mat, pos, axis=1)
            restricted = w.T @ kept
            gram = restricted.T @ np.linalg.solve(w.T @ rmat @ w, restricted)
            cur = current(new_state)
            assert np.allclose(cur.T @ cur, gram, atol=1e-10)
            assert np.allclose(new_state.E.T @ new_state.E, restricted.T @ restricted, atol=1e-10)
            assert np.allclose(new_state.M.T @ kept, cur, atol=1e-10)
            assert np.allclose(new_state.E_norms, np.linalg.norm(new_state.E, axis=0), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("cap", [1, 10, 50])
def test_step_budget_holds_inside_a_phase(cap):
    # The full-support draw separates after 36 steps in its first phase and
    # the max-support draw needs 731, so only the full-support run at cap 50
    # may solve; no run may take more first-order steps than its cap.
    limits = Limits(max_rescalings=1000, max_iterations=cap)
    _, full = full_support_image(gen_image_feasible(10, 200, 1e-3, 0).mat, limits)
    _, _, most = max_support_image(gen_degenerate(6, 40, 20, 0).mat, limits)
    assert full.fo_iters <= cap and most.fo_iters <= cap
    assert full.status == (SOLVED if cap == 50 else NO_CONVERGE)
    assert most.status == NO_CONVERGE


@pytest.mark.parametrize(
    "seed, counts",
    [
        (0, (SOLVED, 190, 17)),
        (1, (SOLVED, 309, 20)),
        (2, (SOLVED, 1539, 15)),
        (3, (SOLVED, 105, 17)),
    ],
)
def test_benchmark_counts(seed, counts):
    mat = flat_image(25, 500, 1e-3, seed)[0]
    cert, report = full_support_image(mat)
    assert (report.status, report.fo_iters, report.rescalings) == counts
    assert check_image_certificate(mat, cert).valid


def test_benchmark_totals():
    # The whole image_flat pool, seeds 0-39: a trajectory that drifts on any
    # instance moves the step or rescale total.
    steps = rescalings = certified = 0
    for seed in range(40):
        mat = flat_image(25, 500, 1e-3, seed)[0]
        cert, report = full_support_image(mat)
        steps += report.fo_iters
        rescalings += report.rescalings
        certified += report.status == SOLVED and check_image_certificate(mat, cert).valid
    assert (steps, rescalings, certified) == (18_766, 682, 40)


def test_warm_phases_on_flat_8x80():
    # Each full-support phase after the first starts from the point the last
    # one ended on. On flat_image(8, 80, 1e-4, s), seeds 0-39, that takes
    # 268,954 steps and 2,641 rescalings (1,674,256 and 2,749 from cold
    # phases), and no phase passes the ceil(1/eps^2) cap of a cold one.
    steps = rescalings = certified = most = 0
    for seed in range(40):
        mat = flat_image(8, 80, 1e-4, seed)[0]
        cert, report = full_support_image(mat)
        steps += report.fo_iters
        rescalings += report.rescalings
        certified += report.status == SOLVED and check_image_certificate(mat, cert).valid
        phase = {c.name: c for c in report.bound_checks}["fo_iters_per_phase"]
        assert phase.passed
        most = max(most, int(phase.observed))
    assert (steps, rescalings, certified, most) == (268_954, 2_641, 40, 917)


@pytest.mark.parametrize(
    "seed, counts",
    [
        (0, (SOLVED, 15_572, 377, 5)),
        (1, (SOLVED, 12_631, 364, 5)),
        (2, (SOLVED, 16_209, 366, 5)),
        (3, (SOLVED, 19_559, 402, 5)),
    ],
)
def test_max_support_phases_start_cold(seed, counts):
    # Max support keeps cold phases (warm starts took 4.6x the steps on this
    # family): the counts are those of phases that each start at column 0.
    mat = planted_partition(6, 40, 20, seed)[0]
    _, _, report = max_support_image(mat)
    assert (report.status, report.fo_iters, report.rescalings, report.removals) == counts


@pytest.mark.parametrize(
    "solve, mat",
    [
        (lambda a: full_support_image(a), flat_image(8, 40, 1e-2, 0)[0]),
        (lambda a: max_support_image(a)[::2], np.eye(3)),
    ],
    ids=["full", "max"],
)
def test_rejected_certificate_is_no_converge(monkeypatch, solve, mat):
    # A separated phase whose y the checker rejects on the caller's matrix
    # must not come back as solved.
    cert, report = solve(mat)
    assert report.status == SOLVED and check_image_certificate(mat, cert).valid
    real = image_module.von_neumann

    def flipped(*args, **kwargs):
        x, y, status, iterations = real(*args, **kwargs)
        return x, -y, status, iterations

    monkeypatch.setattr(image_module, "von_neumann", flipped)
    cert, report = solve(mat)
    assert report.status == NO_CONVERGE
    assert cert.support.size == 0 and not cert.y.any()
