"""End-to-end acceptance battery.

Each test exercises one headline guarantee on a seeded corpus and prints a
single PASS/FAIL line with the observed statistics, so a verbose run doubles
as an acceptance report. Numeric tolerances and wall-clock budgets are both
asserted; failures accumulate into the printed line instead of stopping at
the first bad instance.
"""

import math
import sys
import time
from fractions import Fraction

import numpy as np

from helpers import flat_image_cone, symmetric_hull_intersection_area
from lincone import (
    ImageCertificate,
    LPFeasibilityProblem,
    MatrixSeparationOracle,
    SubprocessOracle,
    UnsupportedInstanceError,
    check_image_certificate,
    encoding_length,
    exact_support_oracle,
    full_support_image,
    full_support_kernel,
    gen_degenerate,
    gen_image_feasible,
    gen_kernel_feasible,
    goffin_oracle,
    max_support_image,
    max_support_kernel,
    recover_lp_point,
    reduce_lp_feasibility,
    strict_conic_feasibility,
    theta,
)
from lincone.image import _check_decomposition
from lincone.instances import _fm_solve
from lincone.report import SOLVED


def _emit(capsys, ok, label, detail):
    """Print one live PASS/FAIL line, then enforce it."""
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[{tag}] {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def _narrow_kernel_instance(rng, n):
    """m=2 unit columns with 0 barely inside the hull.

    The rescale branch fires only when the worst normalized margin climbs
    above -eps, which needs |rho| below eps. A tight fan with the antipode's
    reflection pushed close to the fan edge keeps |rho| under ~1e-2.
    """
    spread = float(rng.uniform(0.02, 0.12))
    inner = rng.uniform(-spread, spread, n - 3)
    u = float(rng.uniform(0.85, 0.999))
    side = 1.0 if rng.random() < 0.5 else -1.0
    angles = np.concatenate([[-spread, spread], inner, [np.pi + side * u * spread]])
    return np.vstack([np.cos(angles), np.sin(angles)])


def test_kernel_rescale_grows_polygon_area(capsys):
    # Every rescale must multiply the area of conv(A_hat) n -conv(A_hat) by
    # at least 3/2; the polygon is computed from the hooked matrix snapshots.
    rng = np.random.default_rng(7)
    worst = math.inf
    events = 0
    done = 0
    attempts = 0
    t0 = time.perf_counter()
    while done < 50:
        attempts += 1
        assert attempts < 400, "could not draw 50 instances that rescale"
        mat = _narrow_kernel_instance(rng, int(rng.integers(4, 9)))
        pairs = []

        def hook(kind, **data):
            if kind == "rescale":
                pairs.append((data["mat_before"], data["mat_after"]))

        cert, report = full_support_kernel(mat, hook=hook)
        if report.status != SOLVED or not pairs:
            continue
        for before, after in pairs:
            ratio = symmetric_hull_intersection_area(after) / symmetric_hull_intersection_area(before)
            worst = min(worst, ratio)
        events += len(pairs)
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst >= 1.5 - 1e-9 and elapsed < 10.0
    _emit(
        capsys,
        ok,
        "kernel rescale polygon growth",
        f"50 instances, {events} rescales, min area ratio {worst:.6f} (>= 1.5), {elapsed:.2f}s (< 10s)",
    )


def test_full_support_kernel_batch_meets_rho_bound(capsys):
    # 100 instances, m in 2..5 and n <= 20, each certified rho <= -0.05 by the
    # margin oracle. All must solve with small residual, strictly positive x,
    # and rescale counts within ceil(m log_{3/2} 1/|rho|) + m.
    rng = np.random.default_rng(31)
    problems = []
    max_resc = 0
    t0 = time.perf_counter()
    for i in range(100):
        m = 2 + i % 4
        n = int(rng.integers(m + 2, 21))
        target = float(rng.uniform(0.05, 0.2))
        inst = None
        rho = None
        for attempt in range(40):
            try:
                cand = gen_kernel_feasible(m, n, target, seed=1000 + 17 * i + attempt)
            except UnsupportedInstanceError:
                continue
            r = cand.known_rho
            if r is None:
                r = goffin_oracle(cand.mat, 1e-4)
            if r <= -0.05:
                inst, rho = cand, r
                break
        assert inst is not None, f"no certified draw for m={m} n={n}"
        cert, report = full_support_kernel(inst.mat, known_rho=rho)
        tag = f"#{i} m={m} n={n} rho={rho:.3f}"
        if report.status != SOLVED:
            problems.append(f"{tag}: {report.status}")
            continue
        if cert.residual > 1e-8 * n:
            problems.append(f"{tag}: residual {cert.residual:.2e}")
        if cert.x.min() <= 0.0:
            problems.append(f"{tag}: x not strictly positive")
        chk = {c.name: c for c in report.bound_checks}["rescalings_vs_rho"]
        if not chk.passed:
            problems.append(f"{tag}: {chk.observed:.0f} rescalings above bound {chk.bound:.0f}")
        max_resc = max(max_resc, report.rescalings)
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    extra = f"; issues: {problems[:3]}" if problems else ""
    _emit(
        capsys,
        ok,
        "kernel batch vs rho bound",
        f"100/100 solved, max rescalings {max_resc}, {elapsed:.1f}s (< 60s){extra}",
    )


def _fan_instance(delta, k=12):
    """m=2 cone whose feasible cap is a wedge of half-angle delta."""
    angles = np.linspace(-(np.pi / 2 - delta), np.pi / 2 - delta, k)
    return np.vstack([np.cos(angles), np.sin(angles)])


def test_image_det_ledger_and_ellipsoid_cover(capsys):
    # Two checks against the rescale ledger: determinant growth >= 16/9 per
    # rescale, and the feasible cap staying inside every E(R) along the run.
    rng = np.random.default_rng(5)
    mats = [_fan_instance(0.01), _fan_instance(0.02, 10), _fan_instance(0.008, 14), _fan_instance(0.015, 8)]
    problems = []
    min_ratio = math.inf
    rescales = 0
    sampled = 0
    worst_quad = 0.0
    t0 = time.perf_counter()
    for idx, mat in enumerate(mats):
        ledger = []

        def hook(kind, **data):
            if kind == "rescale":
                ledger.append((data["ratio"], data["state"].M))

        cert, report = full_support_image(mat, hook=hook)
        if report.status != SOLVED:
            problems.append(f"fan #{idx}: {report.status}")
            continue
        if not ledger:
            problems.append(f"fan #{idx}: no rescale events")
            continue
        for ratio, _ in ledger:
            min_ratio = min(min_ratio, ratio)
        rescales += len(ledger)
        # rejection-sample the cap {|y| <= 1, A^T y >= 0}
        pts = []
        while len(pts) < 250:
            z = rng.standard_normal((2, 4096))
            z = z / np.maximum(np.linalg.norm(z, axis=0), 1.0)
            good = np.all(mat.T @ z >= 0.0, axis=0)
            pts.extend(z[:, good].T)
        pts = np.asarray(pts[:250])
        sampled += len(pts)
        # p^T R p = |M^-1 p|^2, R being (M M^T)^-1 in the original coordinates
        for _, mmap in ledger:
            quad = np.linalg.norm(np.linalg.solve(mmap, pts.T), axis=0) ** 2
            worst_quad = max(worst_quad, float(quad.max()))
    elapsed = time.perf_counter() - t0
    ok = (
        not problems
        and rescales > 0
        and min_ratio >= (16.0 / 9.0) * (1.0 - 1e-8)
        and sampled >= 1000
        and worst_quad <= 1.0 + 1e-8
    )
    extra = f"; issues: {problems[:3]}" if problems else ""
    _emit(
        capsys,
        ok,
        "image det ledger and ellipsoid cover",
        f"{rescales} rescales, min det ratio {min_ratio:.6f} (>= 16/9), "
        f"{sampled} cap points, max quad {worst_quad:.10f} (<= 1){extra}",
    )


def test_full_support_image_batch_meets_bounds(capsys):
    # 100 construction-certified instances with rho >= 0.05. Strict interior
    # output, rescalings within ceil(m log_{3/2} 2/rho), and no von Neumann
    # phase longer than 121 m^2 iterations.
    rng = np.random.default_rng(73)
    problems = []
    max_resc = 0
    max_phase = 0
    t0 = time.perf_counter()
    for i in range(100):
        m = 2 + i % 4
        n = int(rng.integers(m + 1, 16))
        rho_t = float(rng.uniform(0.05, 0.3))
        inst = gen_image_feasible(m, n, rho_t, seed=4000 + 13 * i)
        cert, report = full_support_image(inst.mat, known_rho=inst.known_rho)
        tag = f"#{i} m={m} n={n} rho={rho_t:.3f}"
        if report.status != SOLVED:
            problems.append(f"{tag}: {report.status}")
            continue
        margins = inst.mat.T @ cert.y
        if margins.min() <= 0.0:
            problems.append(f"{tag}: non-strict margin {margins.min():.2e}")
        checks = {c.name: c for c in report.bound_checks}
        rchk = checks["rescalings_vs_rho"]
        if not rchk.passed:
            problems.append(f"{tag}: {rchk.observed:.0f} rescalings above bound {rchk.bound:.0f}")
        phase = checks["fo_iters_per_phase"]
        if phase.observed > 121 * m * m:
            problems.append(f"{tag}: phase of {phase.observed:.0f} iterations above 121 m^2")
        max_resc = max(max_resc, report.rescalings)
        max_phase = max(max_phase, int(phase.observed))
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 120.0
    extra = f"; issues: {problems[:3]}" if problems else ""
    _emit(
        capsys,
        ok,
        "image batch vs rho bound",
        f"100/100 solved, max rescalings {max_resc}, max phase iters {max_phase}, "
        f"{elapsed:.1f}s (< 120s){extra}",
    )


def test_flat_image_batch_binds_rho_bound(capsys):
    # 20 flat cones with rho_A >= 1e-3 by construction (every column has
    # margin >= rho against the hidden y*). Unlike the rho >= 0.05 batch,
    # these instances rescale, so the rescaling bound is actually exercised.
    rng = np.random.default_rng(211)
    rho = 1e-3
    problems = []
    counts = []
    t0 = time.perf_counter()
    for i in range(20):
        m = 5 + i % 6
        n = int(rng.integers(100, 301))
        mat, _ = flat_image_cone(rng, m, n, rho)
        cert, report = full_support_image(mat, known_rho=rho)
        tag = f"#{i} m={m} n={n}"
        if report.status != SOLVED:
            problems.append(f"{tag}: {report.status}")
            continue
        if not check_image_certificate(mat, cert).valid:
            problems.append(f"{tag}: certificate rejected")
        chk = {c.name: c for c in report.bound_checks}["rescalings_vs_rho"]
        if not chk.passed:
            problems.append(f"{tag}: {chk.observed:.0f} rescalings above bound {chk.bound:.0f}")
        counts.append(report.rescalings)
    elapsed = time.perf_counter() - t0
    median = float(np.median(counts)) if counts else 0.0
    ok = not problems and median >= 1 and elapsed < 20.0
    extra = f"; issues: {problems[:3]}" if problems else ""
    _emit(
        capsys,
        ok,
        "flat image batch vs rho bound",
        f"{len(counts)}/20 solved, median rescalings {median:.0f} (>= 1), max {max(counts, default=0)}, "
        f"{elapsed:.1f}s (< 20s){extra}",
    )


def test_max_support_partition_matches_exact_oracle(capsys):
    # On 50 degenerate integer instances both float solvers must reproduce the
    # exact rational (S*, T*) partition, which must cover [n] without overlap.
    rng = np.random.default_rng(11)
    problems = []
    made = 0
    attempt = 0
    t0 = time.perf_counter()
    while made < 50:
        attempt += 1
        assert attempt < 300, "degenerate generator kept rejecting draws"
        m = 2 + made % 3
        n = int(rng.integers(max(4, m + 1), 11))
        s = int(rng.integers(1, n))
        try:
            inst = gen_degenerate(m, n, s, seed=9000 + attempt)
        except UnsupportedInstanceError:
            continue
        mat = inst.mat
        tag = f"#{made} m={m} n={n} s={s}"
        s_exact, t_exact = exact_support_oracle(mat)
        kcert, s_sol, krep = max_support_kernel(mat)
        icert, t_sol, irep = max_support_image(mat)
        if sorted(s_sol.tolist()) != sorted(s_exact.tolist()):
            problems.append(f"{tag}: kernel support {s_sol} vs exact {s_exact}")
        if sorted(t_sol.tolist()) != sorted(t_exact.tolist()):
            problems.append(f"{tag}: image support {t_sol} vs exact {t_exact}")
        if set(s_sol.tolist()) & set(t_sol.tolist()):
            problems.append(f"{tag}: supports overlap")
        if set(s_sol.tolist()) | set(t_sol.tolist()) != set(range(n)):
            problems.append(f"{tag}: supports do not cover all columns")
        made += 1
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 120.0
    extra = f"; issues: {problems[:3]}" if problems else ""
    _emit(
        capsys,
        ok,
        "max-support partition vs exact oracle",
        f"50 degenerate instances, all partitions exact, {elapsed:.1f}s (< 120s){extra}",
    )


def test_condition_measure_chain(capsys):
    # |rho| >= theta >= 2^(-4L) on random integer matrices whose margin is
    # decisively nonzero. theta is exact rational for integral input; the
    # oracle value carries a 1e-6 additive tolerance, cushioned below.
    rng = np.random.default_rng(99)
    problems = []
    qualifying = 0
    drawn = 0
    tightest = math.inf
    t0 = time.perf_counter()
    while qualifying < 200:
        drawn += 1
        assert drawn < 4000, "not enough matrices with a decisive margin"
        m = 2 + drawn % 2
        n = int(rng.integers(m + 1, 7))
        mat = rng.integers(-10, 11, size=(m, n)).astype(float)
        if np.any(np.linalg.norm(mat, axis=0) == 0.0):
            continue
        rho = goffin_oracle(mat, 1e-6)
        if abs(rho) <= 1e-3:
            continue
        th = theta(mat)
        ell = encoding_length(mat)
        if abs(rho) + 2e-6 < th:
            problems.append(f"|rho|={abs(rho):.2e} below theta={th:.2e}")
        if th < 2.0 ** (-4 * ell):
            problems.append(f"theta={th:.2e} below 2^(-4L) with L={ell}")
        tightest = min(tightest, abs(rho) / th)
        qualifying += 1
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 30.0
    extra = f"; issues: {problems[:3]}" if problems else ""
    _emit(
        capsys,
        ok,
        "condition measure chain",
        f"200 matrices ({drawn} drawn), min |rho|/theta {tightest:.2f}, {elapsed:.1f}s (< 30s){extra}",
    )


_COLUMN_ORACLE_SCRIPT = """\
import sys
cols = {cols}
for line in sys.stdin:
    v = [float(t) for t in line.split()]
    best = None
    best_val = 0.0
    for col in cols:
        s = sum(c * q for c, q in zip(col, v))
        nrm = sum(c * c for c in col) ** 0.5
        if s <= 0.0 and (best is None or s / nrm < best_val):
            best = col
            best_val = s / nrm
    if best is None:
        print("YES", flush=True)
    else:
        print(" ".join(repr(c) for c in best), flush=True)
"""


def test_oracle_and_matrix_solvers_cross_accept(capsys):
    # The oracle-driven solver and the matrix solver must both find strictly
    # interior points, and each point must pass the other side's acceptance
    # test. Two instances run over the line protocol in a subprocess.
    rng = np.random.default_rng(41)
    problems = []
    t0 = time.perf_counter()
    for i in range(30):
        m = 2 + i % 3
        n = int(rng.integers(m + 1, 13))
        rho_t = float(rng.uniform(0.05, 0.25))
        inst = gen_image_feasible(m, n, rho_t, seed=600 + 23 * i)
        mat = inst.mat
        tag = f"#{i} m={m} n={n}"
        mcert, mrep = full_support_image(mat, known_rho=rho_t)
        if mrep.status != SOLVED or (mat.T @ mcert.y).min() <= 0.0:
            problems.append(f"{tag}: matrix solver not strictly interior")
            continue
        if i < 2:
            script = _COLUMN_ORACLE_SCRIPT.format(cols=[[float(v) for v in col] for col in mat.T])
            oracle = SubprocessOracle([sys.executable, "-c", script], dim=m)
        else:
            oracle = MatrixSeparationOracle(mat)
        try:
            ybar, orep = strict_conic_feasibility(oracle, m)
            if orep.status != SOLVED or (mat.T @ ybar).min() <= 0.0:
                problems.append(f"{tag}: oracle solver not strictly interior")
                continue
            stub = ImageCertificate(y=ybar, support=np.arange(n), min_margin=0.0, residual_zero=0.0)
            if not check_image_certificate(mat, stub).valid:
                problems.append(f"{tag}: certificate check rejects oracle point")
            if oracle.query(mcert.y) is not None:
                problems.append(f"{tag}: oracle rejects matrix point")
            if oracle.query(ybar) is not None:
                problems.append(f"{tag}: oracle rejects its own point")
        finally:
            if hasattr(oracle, "close"):
                oracle.close()
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    extra = f"; issues: {problems[:3]}" if problems else ""
    _emit(
        capsys,
        ok,
        "oracle and matrix solver cross-acceptance",
        f"30 cones (2 over subprocess), all cross-accepted, {elapsed:.1f}s (< 60s){extra}",
    )


def test_lp_reduction_matches_exact_elimination(capsys):
    # The homogenization verdict must agree with exact rational elimination on
    # every system, and recovered points must satisfy Ax <= b up to 1e-8.
    rng = np.random.default_rng(17)
    problems = []
    feas = 0
    infeas = 0
    t0 = time.perf_counter()
    for i in range(40):
        d = 1 + i % 3
        mrows = int(rng.integers(2, 5))
        a = rng.integers(-4, 5, size=(mrows, d)).astype(float)
        b = rng.integers(-4, 5, size=mrows).astype(float)
        tag = f"#{i} d={d} rows={mrows}"
        rows = [tuple(Fraction(int(v)) for v in (b[j], *(-a[j]))) for j in range(mrows)]
        exact = _fm_solve(rows, d) is not None
        prob = LPFeasibilityProblem(mat=a, rhs=b)
        big, t_idx = reduce_lp_feasibility(prob)
        cert, support, rep = max_support_kernel(big)
        got = t_idx in set(int(v) for v in support)
        if got != exact:
            problems.append(f"{tag}: exact says {exact}, solver says {got}")
            continue
        if exact:
            x = recover_lp_point(prob, cert)
            viol = float((a @ x - b).max())
            if viol > 1e-8:
                problems.append(f"{tag}: recovered point violates by {viol:.2e}")
            feas += 1
        else:
            infeas += 1
    elapsed = time.perf_counter() - t0
    ok = not problems and feas > 0 and infeas > 0 and elapsed < 60.0
    extra = f"; issues: {problems[:3]}" if problems else ""
    _emit(
        capsys,
        ok,
        "lp reduction vs exact elimination",
        f"40 systems ({feas} feasible, {infeas} infeasible), verdicts agree, {elapsed:.1f}s (< 60s){extra}",
    )


def test_gamma_ledger_on_max_support_runs(capsys):
    # Along every max-support image run: the metric reconstructs from (alpha,
    # gamma) to 1e-8, every gamma_i stays below 2/theta^2, and each column removal
    # shrinks det(R) by no more than the theta^2/(2(n+1)) floor allows.
    rng = np.random.default_rng(23)
    problems = []
    rescale_events = 0
    removal_events = 0
    made = 0
    attempt = 0
    t0 = time.perf_counter()
    while made < 25:
        attempt += 1
        assert attempt < 200, "degenerate generator kept rejecting draws"
        m = 2 + made % 3
        n = int(rng.integers(max(4, m + 1), 11))
        s = int(rng.integers(1, n))
        try:
            inst = gen_degenerate(m, n, s, seed=7000 + attempt)
        except UnsupportedInstanceError:
            continue
        mat = inst.mat
        th = theta(mat)
        cap = 2.0 / (th * th) * (1.0 + 1e-8)
        floor = th * th / (2.0 * (n + 1.0)) * (1.0 - 1e-8)
        tag = f"#{made} m={m} n={n} s={s}"
        states = []
        ratios = []

        def hook(kind, **data):
            if kind == "rescale":
                states.append(data["state"])
            elif kind == "remove":
                states.append(data["state"])
                ratios.append(data["ratio"])

        cert, support, report = max_support_image(mat, debug=True, hook=hook)
        for st in states:
            if st.gamma.size and float(st.gamma.max()) > cap:
                problems.append(f"{tag}: gamma {st.gamma.max():.2e} above 2/theta^2")
            if st.M.shape[1]:
                err = _check_decomposition(st)
                if err > 1e-8:
                    problems.append(f"{tag}: decomposition error {err:.2e}")
        for ratio in ratios:
            if ratio < floor:
                problems.append(f"{tag}: removal ratio {ratio:.2e} below floor")
        if not all(c.passed for c in report.bound_checks):
            problems.append(f"{tag}: a ledger bound check failed")
        rescale_events += report.rescalings
        removal_events += report.removals
        made += 1
    elapsed = time.perf_counter() - t0
    ok = not problems and removal_events > 0
    extra = f"; issues: {problems[:3]}" if problems else ""
    _emit(
        capsys,
        ok,
        "gamma ledger on max-support runs",
        f"25 runs, {rescale_events} rescales, {removal_events} removals, "
        f"all ledgers consistent, {elapsed:.1f}s{extra}",
    )
