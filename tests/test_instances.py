import numpy as np
import pytest

from helpers import bareiss_rank
from lincone.certify import check_partition_exact
from lincone.conditioning import goffin_oracle
from lincone.errors import (
    ContractViolationError,
    ParseError,
    UnsupportedInstanceError,
)
from lincone.instances import (
    ConicInstance,
    LPFeasibilityProblem,
    gen_degenerate,
    gen_image_feasible,
    gen_kernel_feasible,
    parse_certificate,
    parse_instance,
    recover_lp_point,
    reduce_lp_feasibility,
    write_certificate,
    write_instance,
)
from lincone.image import ImageCertificate, max_support_image
from lincone.kernel import KernelCertificate, max_support_kernel


def exact_pair(mat):
    """Supports of the two max-support solvers, and the exact check of their pair."""
    kcert, s, _ = max_support_kernel(mat)
    icert, t, _ = max_support_image(mat)
    return s, t, check_partition_exact(mat, kcert, icert)


def pair(x, s, y, t):
    """A kernel and an image certificate with the given vectors and supports."""
    kcert = KernelCertificate(x=np.asarray(x, dtype=float), support=np.asarray(s, dtype=int),
                              residual=0.0, min_support_value=0.0)
    icert = ImageCertificate(y=np.asarray(y, dtype=float), support=np.asarray(t, dtype=int),
                             min_margin=0.0, residual_zero=0.0)
    return kcert, icert


class TestGenKernelFeasible:
    def test_line_instance(self):
        inst = gen_kernel_feasible(1, 2, 0.5, seed=0)
        assert sorted(inst.mat.flatten()) == [-1.0, 1.0]
        assert inst.known_rho == pytest.approx(-1.0, abs=1e-3)

    def test_certified_rho(self):
        inst = gen_kernel_feasible(2, 4, 0.3, seed=7)
        assert inst.known_rho is not None and inst.known_rho <= -0.3
        assert goffin_oracle(inst.mat) <= -0.3

    def test_unit_columns_and_witness(self):
        inst = gen_kernel_feasible(3, 6, 0.05, seed=11)
        norms = np.linalg.norm(inst.mat, axis=0)
        assert np.allclose(norms, 1.0)
        # the construction's positive combination: ones on the sampled
        # columns, the dropped sum's length on the last
        total = inst.mat[:, :-1].sum(axis=1)
        w = np.append(np.ones(inst.mat.shape[1] - 1), np.linalg.norm(total))
        assert np.abs(inst.mat @ w).max() <= 1e-10

    def test_beyond_oracle_scale_has_no_rho(self):
        inst = gen_kernel_feasible(5, 9, 0.1, seed=3)
        assert inst.known_rho is None
        w = np.append(
            np.ones(8), np.linalg.norm(inst.mat[:, :-1].sum(axis=1))
        )
        assert np.abs(inst.mat @ w).max() <= 1e-10

    def test_deterministic(self):
        a = gen_kernel_feasible(2, 5, 0.2, seed=42)
        b = gen_kernel_feasible(2, 5, 0.2, seed=42)
        assert np.array_equal(a.mat, b.mat)

    def test_preconditions(self):
        with pytest.raises(ContractViolationError):
            gen_kernel_feasible(3, 3, 0.1, seed=0)
        with pytest.raises(ContractViolationError):
            gen_kernel_feasible(2, 4, 1.5, seed=0)

    def test_unreachable_target_exhausts_budget(self):
        with pytest.raises(UnsupportedInstanceError):
            gen_kernel_feasible(2, 12, 0.99, seed=0)


class TestGenImageFeasible:
    def test_line_instance(self):
        inst = gen_image_feasible(1, 1, 0.5, seed=0)
        assert abs(abs(inst.mat[0, 0]) - 1.0) < 1e-12
        assert goffin_oracle(inst.mat) == pytest.approx(1.0, abs=1e-12)

    def test_margin_lower_bound(self):
        inst = gen_image_feasible(2, 5, 0.1, seed=5)
        assert inst.known_rho == 0.1
        assert goffin_oracle(inst.mat) >= 0.1 - 1e-12
        assert np.allclose(np.linalg.norm(inst.mat, axis=0), 1.0)

    def test_deterministic(self):
        a = gen_image_feasible(3, 7, 0.2, seed=9)
        b = gen_image_feasible(3, 7, 0.2, seed=9)
        assert np.array_equal(a.mat, b.mat)


class TestGenDegenerate:
    def test_prescribed_split(self):
        inst = gen_degenerate(2, 3, 2, seed=1)
        assert inst.is_integer
        s_idx, t_idx = inst.known_supports
        assert list(s_idx) == [0, 1]
        assert list(t_idx) == [2]
        # The generator's witnesses: x = 1_S on the raw columns (the kernel
        # certificate is stated on unit columns) and y = e_h with h = 1.
        x = np.where(np.isin(np.arange(3), s_idx), np.linalg.norm(inst.mat, axis=0), 0.0)
        rep = check_partition_exact(inst.mat, *pair(x, s_idx, [0.0, 1.0], t_idx))
        assert rep.valid, rep.message

    def test_single_kernel_column_is_zero(self):
        inst = gen_degenerate(2, 4, 1, seed=2)
        assert np.all(inst.mat[:, 0] == 0)
        s_idx, t_idx = inst.known_supports
        assert list(s_idx) == [0]

    def test_one_dimensional(self):
        inst = gen_degenerate(1, 3, 1, seed=3)
        assert np.all(inst.mat[:, 0] == 0)
        assert np.all(inst.mat[:, 1:] >= 1)

    def test_full_rank_always(self):
        for seed in range(6):
            inst = gen_degenerate(3, 6, 3, seed=seed)
            assert np.linalg.matrix_rank(inst.mat) == 3

    def test_solver_agrees(self):
        inst = gen_degenerate(3, 6, 3, seed=8)
        cert, support, report = max_support_kernel(inst.mat)
        assert np.array_equal(support, inst.known_supports[0])

    def test_preconditions(self):
        with pytest.raises(ContractViolationError):
            gen_degenerate(2, 3, 3, seed=0)
        with pytest.raises(ContractViolationError):
            gen_degenerate(2, 3, 0, seed=0)


class TestExactSupportOracle:
    """The exact support oracle: ``check_partition_exact`` on a max-support pair."""

    def test_antipodal(self):
        s, t, rep = exact_pair(np.array([[1, -1]]))
        assert rep.valid and list(s) == [0, 1] and list(t) == []

    def test_identity(self):
        s, t, rep = exact_pair(np.eye(2, dtype=int))
        assert rep.valid and list(s) == [] and list(t) == [0, 1]

    def test_worked_example(self):
        s, t, rep = exact_pair(np.array([[1, -1, 1], [0, 0, 1]]))
        assert rep.valid and list(s) == [0, 1] and list(t) == [2]

    def test_zero_column_in_kernel_support(self):
        s, t, rep = exact_pair(np.array([[0, 1]]))
        assert rep.valid and list(s) == [0] and list(t) == [1]

    def test_one_sided(self):
        s, t, rep = exact_pair(np.array([[1, 2]]))
        assert rep.valid and list(s) == [] and list(t) == [0, 1]

    def test_medley(self):
        s, t, rep = exact_pair(np.array([[1, -1, 3, 0], [0, 0, 1, 1]]))
        assert rep.valid and list(s) == [0, 1] and list(t) == [2, 3]

    def test_fractional_rejected(self):
        with pytest.raises(UnsupportedInstanceError):
            check_partition_exact(np.array([[0.5, 1.0]]), *pair([0, 0], [], [1.0], [0, 1]))

    def test_moved_index_rejected(self):
        # Every pair with one index moved across the planted partition fails,
        # even with the exact witnesses of the true pair as hints.
        inst = gen_degenerate(3, 8, 4, seed=5)
        kcert, _, _ = max_support_kernel(inst.mat)
        icert, _, _ = max_support_image(inst.mat)
        s_idx = set(inst.known_supports[0].tolist())
        for j in range(8):
            s_moved = sorted(s_idx ^ {j})
            t_moved = sorted(set(range(8)) - set(s_moved))
            x = np.where(np.isin(np.arange(8), s_moved), np.maximum(kcert.x, 1.0), 0.0)
            rep = check_partition_exact(inst.mat, *pair(x, s_moved, icert.y, t_moved))
            assert not rep.valid, j

    def test_pair_proved_on_a_copy_past_float_range(self):
        # |a_j|^2 overflows on 2^520 A; the hints x_j / |a_j| read 0 there,
        # and the exact x_0 came out 0. The unit columns, and so the pair, are A's.
        inst = gen_degenerate(3, 8, 4, 0)
        kcert, _, _ = max_support_kernel(inst.mat)
        icert, _, _ = max_support_image(inst.mat)
        rep = check_partition_exact(2.0**520 * inst.mat, kcert, icert)
        assert rep.valid, rep.message

    def test_zero_column_in_image_support_rejected(self):
        rep = check_partition_exact(np.array([[0, 1]]), *pair([0, 0], [], [1.0], [0, 1]))
        assert not rep.valid and "a_0^T y" in rep.message

    def test_nonpositive_reconstruction_rejected(self):
        # x is positive but off the kernel; its free entries 3 and 1 force the
        # pivot entry to -3 + 2 = -1.
        rep = check_partition_exact(np.array([[1, 1, -2]]), *pair([1, 3, 2], [0, 1, 2], [1.0], []))
        assert not rep.valid and "x_0" in rep.message

    def test_margin_is_the_least_exact_entry(self):
        # x_S = (3, 3) and A_T^T y = 2 y_1, with y_0 solved to 0 from A_S^T y = 0
        # whatever its hint: the margin is the least of x_S and A_T^T y.
        mat = np.array([[1, -1, 0], [0, 0, 2]])
        for y, margin in (([5.0, 0.25], 0.5), ([0.0, 4.0], 3.0)):
            rep = check_partition_exact(mat, *pair([3, 3, 0], [0, 1], y, [2]))
            assert rep.valid and rep.margin == margin, y

    def test_non_finite_hint_rejected(self):
        rep = check_partition_exact(np.array([[1, -1]]), *pair([np.nan, 1.0], [0, 1], [0.0], []))
        assert not rep.valid

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("m, n, s", [(10, 100, 50), (15, 150, 75)])
    def test_planted_pairs_at_scale(self, m, n, s, seed):
        # Far past any elimination-based oracle: both solvers' pair is proved
        # exactly and equals the planted split.
        inst = gen_degenerate(m, n, s, seed)
        s_found, t_found, rep = exact_pair(inst.mat)
        assert rep.valid, rep.message
        assert np.array_equal(s_found, inst.known_supports[0])

    @pytest.mark.parametrize("m, n, s", [(15, 150, 75), (25, 300, 150)])
    def test_planted_witnesses_proved_at_scale(self, m, n, s):
        # The planted witnesses x = 1_S (x_j = |a_j| on the unit columns) and
        # y = e_h prove the split, and moving one index either way breaks it.
        inst = gen_degenerate(m, n, s, 0)
        s_idx, t_idx = inst.known_supports
        x = np.zeros(n)
        x[s_idx] = np.linalg.norm(inst.mat[:, s_idx], axis=0)
        y = np.eye(m)[min(m - 1, s - 1)]
        rep = check_partition_exact(inst.mat, *pair(x, s_idx, y, t_idx))
        assert rep.valid and rep.margin > 0.0, rep.message
        for j in (s_idx[0], t_idx[0]):
            s_moved = sorted(set(s_idx.tolist()) ^ {int(j)})
            t_moved = sorted(set(range(n)) - set(s_moved))
            x_moved = np.where(np.isin(np.arange(n), s_moved), np.maximum(x, 1.0), 0.0)
            assert not check_partition_exact(inst.mat, *pair(x_moved, s_moved, y, t_moved)).valid, j

    def test_partition_and_sign_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(2, 7))
            mat = rng.integers(-5, 6, size=(m, n))
            # max_support_image needs full row rank (its gamma ledger reads
            # W = c E^+); a maximal independent set of rows has the same
            # kernel and the same image set.
            rows = []
            for i in range(m):
                if bareiss_rank(mat[rows + [i]]) == len(rows) + 1:
                    rows.append(i)
            s, t, rep = exact_pair(mat[rows])
            assert rep.valid, rep.message
            assert sorted(list(s) + list(t)) == list(range(n))
            if np.all(np.any(mat != 0, axis=0)):
                rho = goffin_oracle(mat)
                if rho < -1e-3:
                    assert list(s) == list(range(n))
                elif rho > 1e-3:
                    assert list(t) == list(range(n))


class TestReduceLpFeasibility:
    def test_shapes_and_index(self):
        prob = LPFeasibilityProblem(np.array([[1.0]]), np.array([1.0]))
        big, t_index = reduce_lp_feasibility(prob)
        assert np.array_equal(big, np.array([[1.0, -1.0, 1.0, -1.0]]))
        assert t_index == 3

    def test_feasible_system_routes_to_kernel_support(self):
        prob = LPFeasibilityProblem(np.array([[1.0]]), np.array([1.0]))
        big, t_index = reduce_lp_feasibility(prob)
        s, t, rep = exact_pair(big)
        assert rep.valid and t_index in s

    def test_infeasible_forcing_row(self):
        prob = LPFeasibilityProblem(np.array([[0.0]]), np.array([-1.0]))
        big, t_index = reduce_lp_feasibility(prob)
        assert np.array_equal(big, np.array([[0.0, 0.0, 1.0, 1.0]]))
        s, t, rep = exact_pair(big)
        assert rep.valid and t_index not in s

    def test_contradictory_bounds(self):
        prob = LPFeasibilityProblem(np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0]))
        big, t_index = reduce_lp_feasibility(prob)
        s, t, rep = exact_pair(big)
        assert rep.valid and t_index not in s

    def test_recover_point(self):
        prob = LPFeasibilityProblem(
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
            np.array([2.0, 2.0, 1.0]),
        )
        big, t_index = reduce_lp_feasibility(prob)
        cert, support, report = max_support_kernel(big)
        assert t_index in support
        x = recover_lp_point(prob, cert)
        assert np.all(prob.mat @ x <= prob.rhs + 1e-8)

    def test_recover_point_of_a_scaled_system(self):
        # 2^600 (A, b) has the same unit columns and the same points; its
        # column norms overflow, and x_j / |a_j| read t = 0.
        prob = LPFeasibilityProblem(
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
            np.array([2.0, 2.0, 1.0]),
        )
        cert, _, _ = max_support_kernel(reduce_lp_feasibility(prob)[0])
        scaled = LPFeasibilityProblem(2.0**600 * prob.mat, 2.0**600 * prob.rhs)
        assert np.array_equal(recover_lp_point(scaled, cert), recover_lp_point(prob, cert))

    def test_recover_rejects_zero_t(self):
        prob = LPFeasibilityProblem(np.array([[0.0]]), np.array([-1.0]))
        big, t_index = reduce_lp_feasibility(prob)
        cert, support, report = max_support_kernel(big)
        assert t_index not in support
        with pytest.raises(ContractViolationError):
            recover_lp_point(prob, cert)


class TestInstanceIO:
    def test_parse_identity(self):
        inst = parse_instance("2 2\n1 0\n0 1\n")
        assert np.array_equal(inst.mat, np.eye(2))
        assert inst.is_integer
        assert inst.provenance == "parsed"

    def test_parse_with_comments(self):
        inst = parse_instance("# header comment\n1 2\n1 -1\n# done\n")
        assert np.array_equal(inst.mat, np.array([[1.0, -1.0]]))

    def test_integer_detection_from_values(self):
        inst = parse_instance("1 2\n1.0 -3.0\n")
        assert inst.is_integer
        inst = parse_instance("1 2\n1.5 -3.0\n")
        assert not inst.is_integer

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as info:
            parse_instance("2 2\n1 0\n0\n")
        assert info.value.line == 3
        with pytest.raises(ParseError):
            parse_instance("2\n1 0\n0 1\n")
        with pytest.raises(ParseError) as info:
            parse_instance("1 2\n1 x\n")
        assert info.value.line == 2
        with pytest.raises(ParseError):
            parse_instance("1 2\n1 0\n5 5\n")
        with pytest.raises(ParseError):
            parse_instance("")
        with pytest.raises(ParseError):
            parse_instance("2 2\n1 0\n")

    def test_round_trip_floats(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 7))
            inst = ConicInstance(rng.standard_normal((m, n)), False, "generated")
            again = parse_instance(write_instance(inst))
            assert np.array_equal(again.mat, inst.mat)

    def test_round_trip_integers_print_as_integers(self):
        inst = parse_instance("2 2\n1.0 0\n0 1\n")
        assert write_instance(inst) == "2 2\n1 0\n0 1\n"


class TestCertificateIO:
    def test_kernel_round_trip(self):
        text = write_certificate("kernel", np.array([0.5, 0.5, 0.0]), [0, 1])
        kind, vec, sup = parse_certificate(text)
        assert kind == "kernel"
        assert np.array_equal(vec, [0.5, 0.5, 0.0])
        assert list(sup) == [0, 1]

    def test_support_is_one_based_in_text(self):
        text = write_certificate("image", np.array([1.0]), [0, 2])
        assert text.splitlines()[2] == "1 3"

    def test_empty_support(self):
        text = write_certificate("kernel", np.array([0.0]), [])
        kind, vec, sup = parse_certificate(text)
        assert sup.size == 0

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_certificate("wedge\n1 2\n1\n")
        with pytest.raises(ParseError):
            parse_certificate("kernel\n")
        with pytest.raises(ParseError):
            parse_certificate("kernel\n1 x\n1\n")
        with pytest.raises(ParseError):
            parse_certificate("kernel\n1 2\n0\n")
        with pytest.raises(ContractViolationError):
            write_certificate("wedge", np.array([1.0]), [])
