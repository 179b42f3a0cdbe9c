"""Closed-loop runner: set up a workload, solve for a fixed time, report.

One client solves one instance after another from a pool of seeded
instances, cycling through the pool until the time is up. Every output is
checked independently after the clock stops, and every failure is counted.
Reported times are at the reference host speed of ``hostspeed.py``.
An untraced run (``--trace 0``) reports the end-to-end metrics; a traced run
(``--trace 1``) solves each instance once untraced and once traced, in
alternating order, and reports the per-layer metrics plus the tracing
overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from lincone.errors import LinconeError

from . import hostspeed
from .trace import Tracer, aggregate
from .workloads import WORKLOADS

SETUP_REPS = 5
IMPORT_REFS = 5  # reference runs whose median scales the one-off import time
REPEATS = 8
# The tail is read over one time per pool instance, so a workload reports the
# same rung on every run: p75 for pools of 40-99, p90 for 100-199.
TAIL_LADDER = (50, 75, 90, 95)
TAIL_MIN_BEYOND = 10


def tail_percentile(samples):
    """Highest TAIL_LADDER percentile with at least TAIL_MIN_BEYOND samples above it.

    The percentile is the nearest-rank order statistic: for p and N samples
    it is the k-th smallest with k = ceil(N p / 100), and N - k samples lie
    beyond it. When no rung qualifies, the median is returned. Returns
    ``(percentile, value, samples_beyond)``.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")

    def rank(p):
        return max(1, math.ceil(n * p / 100))

    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - rank(p) >= TAIL_MIN_BEYOND:
            chosen = p
    k = rank(chosen)
    return chosen, xs[k - 1], n - k


def _blas_threads():
    """Thread count of every OpenBLAS library loaded in this process."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads")
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "clients": 1,
    }


def attempt(workload, inst, tracer=None):
    """Solve one instance, then check it. Returns (solve_s, out, verdict, message).

    verdict is "ok", "status", "rejected" or "raised". The solve is timed
    alone; the check runs after the clock stops.
    """
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = workload.solve(inst)
    except Exception as exc:  # every failure is counted, whatever raised it
        return time.perf_counter() - t0, None, "raised", f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.uninstall()
    t1 = time.perf_counter()
    try:
        verdict, message = workload.check(inst, out)
    except LinconeError as exc:
        verdict, message = "rejected", f"check raised {type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.record("certify", "check", t1, time.perf_counter())
    return t1 - t0, out, verdict, message


class Tally:
    """Operation counts, and per instance its first REPEATS solve times.

    Each time is kept as measured and at reference host speed (the wall time
    times its ``scale``). An instance's time is the median of its timed
    solves; the repeats come one pass apart, spread over the whole run. A
    failed solve makes the instance count as infinitely slow.
    """

    def __init__(self, pool_size):
        self.attempted = 0
        self.certified = 0
        self.rejected = 0
        self.timed = [[] for _ in range(pool_size)]
        self.scales = []
        self.failures = []

    def add(self, idx, solve_s, verdict, message, scale=1.0):
        self.attempted += 1
        ok = verdict == "ok"
        self.certified += ok
        self.rejected += verdict == "rejected"
        if len(self.timed[idx]) < REPEATS:
            self.timed[idx].append((solve_s * scale, solve_s, ok))
            self.scales.append(scale)
        if not ok and len(self.failures) < 5:
            self.failures.append(f"{verdict}: {message}")

    @property
    def failed(self):
        return self.attempted - self.certified

    def instance_times(self, raw=False):
        """Per instance reached: the median of its timed solves, or inf if one failed."""
        col = 1 if raw else 0
        return [
            statistics.median(t[col] for t in ts) if all(t[2] for t in ts) else math.inf for ts in self.timed if ts
        ]

    def busy_s(self, raw=False):
        """Summed per-instance time, counting a failed instance at the median of its attempts."""
        col = 1 if raw else 0
        return sum(statistics.median(t[col] for t in ts) for ts in self.timed if ts)


def setup(workload, seed):
    """Generate the seeded pool and warm up, SETUP_REPS times.

    Returns the pool, its seeds, and each repeat's wall time and scale to
    reference host speed.
    """
    seeds = range(workload.pool * seed, workload.pool * (seed + 1))
    reps = []
    before = hostspeed.reference_s()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        pool = [workload.make(s) for s in seeds]
        workload.solve(pool[0])
        wall = time.perf_counter() - t0
        after = hostspeed.reference_s()
        reps.append((wall, hostspeed.scale(before, after)))
        before = after
    return pool, seeds, reps


def passes(pool_size, seconds):
    """Yield ``(step, pool index)``, cycling through the pool until the deadline."""
    deadline = time.perf_counter() + seconds
    step = 0
    while time.perf_counter() < deadline:
        yield step, step % pool_size
        step += 1


def run_untraced(workload, pool, seconds):
    """Solve the pool in passes; each solve is bracketed by reference runs."""
    tally = Tally(len(pool))
    before = hostspeed.reference_s()
    for _, idx in passes(len(pool), seconds):
        solve_s, _, verdict, message = attempt(workload, pool[idx])
        after = hostspeed.reference_s()
        tally.add(idx, solve_s, verdict, message, hostspeed.scale(before, after))
        before = after
    return tally


def _per_layer(workload, tracer, outs, instances, tally, untraced_s, traced_s):
    agg = aggregate(tracer.spans)

    def calls(name):
        return sum(v["calls"] for (_, n), v in agg.items() if n == name)

    def total(name):
        return sum(v["total_s"] for (_, n), v in agg.items() if n == name)

    def layer_self(layer, names=None):
        return sum(v["self_s"] for (lay, n), v in agg.items() if lay == layer and (names is None or n in names))

    def reported(module, field):
        return sum(getattr(rep, field) for out in outs if (rep := workload.reports(out).get(module)) is not None)

    fo_iters = reported("image", "fo_iters")
    dv_steps = reported("kernel", "fo_iters")

    n = max(instances, 1)
    fo_self = layer_self("firstorder")
    kernel_self = layer_self("kernel")
    phases = calls("von_neumann")
    queries = calls("MatrixSeparationOracle.query")
    oracle_solver_self = layer_self("oracle", {"strict_conic_feasibility", "oracle_von_neumann"})

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "firstorder.iters": (fo_iters / n, "count"),
        "firstorder.self_s": (fo_self / n, "s"),
        "firstorder.iters_per_s": (ratio(fo_iters, fo_self), "1/s"),
        "firstorder.phases": (phases / n, "count"),
        "firstorder.iters_per_phase": (ratio(fo_iters, phases), "count"),
        "image.self_s": (layer_self("image") / n, "s"),
        "image.gram_bytes_computed": (tracer.gram_bytes / n, "B"),
        "image.rescalings": (reported("image", "rescalings") / n, "count"),
        "image.rescale_s": (total("image_rescale") / n, "s"),
        "image.removals": (reported("image", "removals") / n, "count"),
        "linalg.sympd.calls": (calls("SymPosDef") / n, "count"),
        "linalg.sympd_s": (total("SymPosDef") / n, "s"),
        "linalg.kernel_projector_s": (total("kernel_projector") / n, "s"),
        "linalg.pivoted_rank_s": (total("pivoted_rank") / n, "s"),
        "kernel.dv_steps": (dv_steps / n, "count"),
        "kernel.self_s": (kernel_self / n, "s"),
        "kernel.dv_steps_per_s": (ratio(dv_steps, kernel_self), "1/s"),
        "kernel.rescalings": (reported("kernel", "rescalings") / n, "count"),
        "kernel.removals": (reported("kernel", "removals") / n, "count"),
        "conditioning.theta_s": (total("theta") / n, "s"),
        "conditioning.encoding_length.calls": (calls("encoding_length") / n, "count"),
        "oracle.queries": (queries / n, "count"),
        "oracle.query_s": (total("MatrixSeparationOracle.query") / n, "s"),
        "oracle.overhead_us_per_query": (1e6 * ratio(oracle_solver_self, queries), "us"),
        "oracle.rescalings": (reported("oracle", "rescalings") / n, "count"),
        "oracle.active_set_max": (tracer.active_set_max, "count"),
        "certify.check_s": (total("check") / n, "s"),
        "certify.rejected": (tally.rejected, "count"),
        "trace_overhead_frac": (ratio(traced_s - untraced_s, untraced_s), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_traced(workload, pool, seconds):
    """Each instance untraced and traced, alternating which goes first."""
    tally = Tally(len(pool))
    tracer = Tracer()
    outs = []
    untraced_s = traced_s = 0.0
    done = 0
    for i, idx in passes(len(pool), seconds):
        inst = pool[idx]
        tracer.req = i
        results = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            solve_s, out, verdict, message = attempt(workload, inst, tracer if traced else None)
            tally.add(idx, solve_s, verdict, message)
            results[traced] = solve_s, out, verdict
        (u_s, _, u_verdict), (t_s, t_out, t_verdict) = results[False], results[True]
        if t_out is not None:
            outs.append(t_out)
        if u_verdict == t_verdict == "ok":
            untraced_s += u_s
            traced_s += t_s
        done += 1
    return tally, _per_layer(workload, tracer, outs, done, tally, untraced_s, traced_s), tracer


def _timings(tally, seconds, raw):
    # A failed instance counts as slower than anything the run could measure.
    reached = tally.instance_times(raw)
    times = [t if math.isfinite(t) else seconds for t in reached]
    p, tail, beyond = tail_percentile(times)
    busy_s = tally.busy_s(raw)
    per_s = sum(map(math.isfinite, reached)) / busy_s if busy_s else 0.0
    return statistics.median(times), tail, per_s, (len(times), p, beyond)


def end_to_end(tally, setup_s, seconds):
    """End-to-end metrics at reference host speed; the wall-time figures go in the detail."""
    p50, tail, per_s, (timed, p, beyond) = _timings(tally, seconds, raw=False)
    metrics = {
        "solve_s_p50": (p50, "s"),
        "solve_s_tail": (tail, "s"),
        "instances_per_s": (per_s, "1/s"),
        "certified_frac": (tally.certified / tally.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall_p50, wall_tail, wall_per_s, _ = _timings(tally, seconds, raw=True)
    detail = {
        "instances_timed": timed,
        "tail_percentile": p,
        "tail_samples_beyond": beyond,
        "wall_solve_s_p50": wall_p50,
        "wall_solve_s_tail": wall_tail,
        "wall_instances_per_s": wall_per_s,
        "host_scale_quartiles": statistics.quantiles(tally.scales, n=4) if len(tally.scales) > 1 else tally.scales,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv, import_s: float, root: Path) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    hostspeed.reference_s()  # the first call warms numpy's code paths
    ref_s = statistics.median(hostspeed.reference_s() for _ in range(IMPORT_REFS))
    import_scale = hostspeed.scale(ref_s, ref_s)
    pool, seeds, reps = setup(workload, args.seed)
    setup_s = import_s * import_scale + statistics.median(wall * scale for wall, scale in reps)

    tracer = None
    if args.trace:
        tally, metrics, tracer = run_traced(workload, pool, args.seconds)
        _, detail = end_to_end(tally, setup_s, args.seconds)
    else:
        tally = run_untraced(workload, pool, args.seconds)
        metrics, detail = end_to_end(tally, setup_s, args.seconds)

    record = {
        "workload": {
            "name": workload.name,
            "sizes": workload.sizes,
            "pool": workload.pool,
            "seed_range": [seeds.start, seeds.stop - 1],
            "loop": "closed, one client",
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "environment": environment(),
        "detail": dict(
            detail,
            reference_s=hostspeed.REF_S,
            import_s=import_s,
            import_scale=import_scale,
            setup_reps_wall_s_and_scale=reps,
            failures=tally.failures,
        ),
    }
    result = {
        "correct": tally.rejected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(dict(record, result=result), fh, indent=1)
    if tracer is not None:
        tracer.write(out_dir / f"{stem}-spans.jsonl")
    for failure in tally.failures:
        print(failure, file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0
