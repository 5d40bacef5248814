"""Tests for the benchmark's own code: tail-percentile choice, span self time,
the scaling of times to the reference speed, and a toy-size smoke run of every workload checking that each metric listed
in BENCHMARK.json is printed with its unit.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import metrics  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    q = harness.tail_percentile(n)
    assert q == expected
    if q is not None:
        assert n - (harness.rank_index(n, q) + 1) >= harness.MIN_BEYOND


def test_tail_reports_value_and_samples_beyond():
    q, value, beyond = harness.tail(list(range(1000, 0, -1)))
    assert (q, value, beyond) == (99.0, 990.0, 10)
    assert harness.tail([1.0] * 5) == (None, 0.0, 0)


def test_self_time_subtracts_direct_children_once():
    spans = [
        ["root", 0, 100, None, "op"],
        ["a", 10, 40, 0, "op"],
        ["a.inner", 15, 20, 1, "op"],
        ["b", 50, 70, 0, "op"],
        ["b.overlap", 60, 90, 0, "op"],  # overlaps b; counted once
    ]
    assert harness.self_times(spans) == [100 - 30 - 40, 30 - 5, 5, 20, 30]


def test_tracer_nests_spans_and_tags_the_op():
    tracer = harness.Tracer()
    tracer.op_id = "op-1"
    inner = tracer.wrap("m.inner", lambda: 7)
    assert tracer.call("m.outer", lambda: inner() + tracer.call("m.other", lambda: 1)) == 8
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["m.outer", "m.inner", "m.other"]
    assert parents == [None, 0, 0]
    assert {s[4] for s in tracer.spans} == {"op-1"}
    assert all(s[2] >= s[1] for s in tracer.spans)
    outer_self = harness.self_times(tracer.spans)[0]
    assert 0 <= outer_self <= tracer.spans[0][2] - tracer.spans[0][1]


def test_speed_scale_is_reference_over_median_calibration():
    ref = harness.REFERENCE_CALIBRATION_NS
    assert harness.speed_scale([ref, ref]) == 1.0
    assert harness.speed_scale([ref, 2 * ref, 9 * ref]) == 0.5


def test_each_op_adds_a_calibration_sample_to_its_pass():
    runner = harness.Runner(ValueError)
    try:
        with runner.new_pass(False) as rec:
            assert runner.op("a", lambda: 1) == 1
            assert runner.op("b", lambda: 2) == 2
    finally:
        runner.close()
    assert len(rec.calibration_ns) == len(rec.calibration_at) == 3
    assert rec.op_calibration == {"a": 0, "b": 1}
    # a fast pass: every sample lies within the window of each op
    assert rec.scale("b") == harness.speed_scale(rec.calibration_ns)


def test_op_scale_uses_only_samples_near_the_op():
    ref = harness.REFERENCE_CALIBRATION_NS
    rec = harness.PassRecord(False)
    rec.calibration_ns = [ref, ref, 2 * ref, 4 * ref]
    rec.calibration_at = [0.0, 0.1, 5.0, 5.2]
    rec.op_calibration = {"short": 0, "long": 1, "last": 2}
    assert rec.scale("short") == 1.0
    assert rec.scale("long") == 1 / 1.5
    assert rec.scale("last") == 1 / 3


def test_end_to_end_sums_per_op_medians_of_scaled_times():
    passes = []
    for load_ns, solve_ns, scale in ((2e9, 4e9, 0.5), (3e9, 8e9, 1.0), (2e9, 6e9, 1.0)):
        rec = harness.PassRecord(False)
        rec.op_ns = {"load.a": load_ns, "solve.x": solve_ns}
        rec.calibration_ns = [harness.REFERENCE_CALIBRATION_NS / scale] * 2
        rec.calibration_at = [0.0, 0.0]
        rec.op_calibration = {"load.a": 0, "solve.x": 0}
        rec.counts["incidences"] = 12.0
        passes.append(rec)
    out = metrics.end_to_end(SimpleNamespace(solve_ops=("solve.",)),
                             {"total_s": [1.0, 3.0, 2.0]}, passes, 50.0)
    # scaled loads 1, 3, 2 s and solves 2, 8, 6 s: medians 2 and 6
    assert out["pass_s"] == (8.0, "s")
    assert out["load_s"] == (2.0, "s")
    assert out["incidences_per_s"] == (2.0, "1/s")
    assert out["setup_s"] == (2.0, "s")
    assert out["peak_rss_mb"] == (50.0, "MB")


def _run(args, cwd):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--scale", "toy"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert result["metrics"]["digest_mismatches"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run(["--workload", "solve-large", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
