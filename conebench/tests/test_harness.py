import json
import math
import statistics
import time

import pytest

from conebench import harness


def test_tail_picks_highest_rung_with_ten_beyond():
    xs = list(range(1, 101))  # nearest rank: p90 is 90, with 10 samples beyond
    assert harness.tail_percentile(xs) == (90, 90, 10)
    xs = list(range(1, 201))
    assert harness.tail_percentile(xs) == (95, 190, 10)
    xs = list(range(1, 40))  # p75 would leave 9 beyond
    assert harness.tail_percentile(xs) == (50, 20, 19)


def test_tail_falls_back_to_median_on_few_samples():
    p, value, beyond = harness.tail_percentile([3.0, 1.0, 2.0])
    assert (p, value, beyond) == (50, 2.0, 1)


def test_tail_counts_failures_as_slowest():
    xs = [1.0] * 95 + [math.inf] * 5
    p, value, beyond = harness.tail_percentile(xs)
    assert p == 90 and value == 1.0 and beyond == 10


def test_tally_counts_every_failure_kind():
    tally = harness.Tally(4)
    tally.add(0, 0.1, "ok", "")
    tally.add(1, 0.2, "raised", "boom")
    tally.add(2, 0.3, "status", "no_converge")
    tally.add(3, 0.4, "rejected", "bad certificate")
    assert (tally.attempted, tally.certified, tally.failed, tally.rejected) == (4, 1, 3, 1)
    assert tally.instance_times() == [0.1, math.inf, math.inf, math.inf]
    assert tally.busy_s() == pytest.approx(1.0)


def test_instance_time_is_median_of_first_repeats():
    tally = harness.Tally(2)
    timed = [0.1 * (k + 1) for k in range(harness.REPEATS)]
    for t in timed + [10.0]:  # the last solve is past REPEATS and not timed
        tally.add(0, t, "ok", "")
    tally.add(1, 0.2, "ok", "")
    tally.add(1, 0.4, "raised", "boom")
    median = statistics.median(timed)
    assert tally.instance_times() == [pytest.approx(median), math.inf]
    assert tally.busy_s() == pytest.approx(median + 0.3)
    assert (tally.attempted, tally.failed) == (harness.REPEATS + 3, 1)


def test_times_are_scaled_to_reference_speed():
    tally = harness.Tally(1)
    tally.add(0, 0.2, "ok", "", scale=0.5)
    tally.add(0, 0.4, "ok", "", scale=0.5)
    assert tally.instance_times() == [pytest.approx(0.15)]
    assert tally.instance_times(raw=True) == [pytest.approx(0.3)]
    metrics, detail = harness.end_to_end(tally, 1.0, 30.0)
    assert metrics["solve_s_p50"]["value"] == pytest.approx(0.15)
    assert detail["wall_solve_s_p50"] == pytest.approx(0.3)


@pytest.mark.parametrize("trace_flag", [0, 1])
def test_main_prints_result_last(tmp_path, capsys, trace_flag):
    argv = ["--workload", "kernel_narrow", "--seed", "3", "--seconds", "0.3", "--trace", str(trace_flag)]
    assert harness.main(argv, 0.0, tmp_path) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    pool = harness.WORKLOADS["kernel_narrow"].pool
    assert record["workload"]["seed_range"] == [3 * pool, 4 * pool - 1]
    assert record["environment"]["nproc"] >= 1
    expected = {"solve_s_p50", "setup_s"} if trace_flag == 0 else {"kernel.dv_steps", "trace_overhead_frac"}
    assert expected <= set(result["metrics"])
    assert (tmp_path / ".bench_out" / f"kernel_narrow-seed3-trace{trace_flag}.json").is_file()


def test_failed_instances_count_as_the_whole_run():
    tally = harness.Tally(3)
    tally.add(0, 0.1, "ok", "")
    tally.add(1, 0.2, "raised", "boom")
    tally.add(2, 0.3, "status", "no_converge")
    metrics, _ = harness.end_to_end(tally, 1.0, 30.0)
    json.dumps(metrics, allow_nan=False)
    assert metrics["solve_s_p50"]["value"] == 30.0
    assert metrics["certified_frac"]["value"] == pytest.approx(1 / 3)
    assert metrics["instances_per_s"]["value"] == pytest.approx(1 / 0.6)


def test_passes_cycle_the_pool_until_the_deadline():
    start = time.perf_counter()
    steps = list(harness.passes(3, 0.02))
    assert time.perf_counter() - start >= 0.02
    assert steps and all(idx == step % 3 for step, idx in steps)
