"""Smoke test of the benchmark harness: tiny sizes, one solve per workload.

    python3 -m pytest perfbench/test_smoke.py -q

Runs the real command end to end (parent, child processes, checks, JSON
line), checks that a traced run reports every per-layer metric with
repeatable counts, and that the command fails cleanly where the package
sources are missing.  The failure path is exercised in-process: a solve that
raises, and a failed warm-up solve, pass through the harness's metrics and
JSON line.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy.linalg
import pytest

import run
import worker
from tracer import summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("greedy-decoupled", "lp-rounding", "certify-small")
PRINTED = ("setup_s", "solve_s_p50", "solve_s_tail", "solves_per_s", "fail_rate",
           "weight_ratio", "peak_rss_mb")


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=150)
    return proc


def run_ok(*args):
    proc = run_bench(*args)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return "\n".join(lines), result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_solve_per_workload(workload):
    text, result = run_ok("--workload", workload, "--seed", "5", "--seconds", "0", "--tiny")
    assert result["correct"] is True
    # one timed solve, and one warm-up solve in each of the set-up processes
    assert (result["attempted"], result["failed"]) == (1 + run.SETUP_REPEATS, 0)
    spec = {m["name"]: m["unit"] for m in bench_spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name
    for name in PRINTED:
        assert f"  {name} " in text


class RaisingWorkload:
    def solve(self, index):
        raise numpy.linalg.LinAlgError("singular basis")


# One kernel run at the reference time: reference seconds equal wall seconds.
KERNEL = {"type": "kernel", "seconds": run.calib.REFERENCE_S}


def setup_record(seconds, warmup_error=None):
    ref = run.calib.REFERENCE_S
    return {"type": "setup", "seconds": seconds, "phases": [[seconds, ref, ref]],
            "calibrated": True, "warmup_error": warmup_error}


def metrics_of(setups, records):
    result = run.timed_metrics(setups, records, 0)
    result.update(workload="greedy-decoupled", correct=not result["failed_checks"])
    return result, json.loads(run.json_line([result], trace=False, prefix=False))


def test_raising_solve_is_counted_not_fatal():
    record = worker.run_solve(RaisingWorkload(), 0)
    assert (record["ok"], record["error"]) == (False, "LinAlgError")
    result, line = metrics_of([setup_record(1.5)], [KERNEL, record, KERNEL])
    assert result["failures_by_type"] == {"LinAlgError": 1}
    assert (line["attempted"], line["failed"]) == (2, 1)  # the warm-up and the timed solve
    assert line["metrics"]["solve_s_p50"]["value"] is None  # every solve failed: no latency
    assert line["metrics"]["setup_s"]["value"] == 1.5


def test_failed_warmup_is_counted_and_voids_setup_time():
    setups = [setup_record(0.2, "LinAlgError"), setup_record(1.5)]
    solve = {"type": "solve", "index": 1, "latency": 0.5, "ok": True, "error": None,
             "ratio": 2.0, "failed_checks": []}
    result, line = metrics_of(setups, [KERNEL, solve, KERNEL])
    assert result["failures_by_type"] == {"warmup:LinAlgError": 1}
    assert (line["attempted"], line["failed"]) == (3, 1)
    assert line["metrics"]["setup_s"]["value"] is None
    assert line["metrics"]["solve_s_p50"]["value"] == 0.5


def test_trace_reports_every_per_layer_metric_with_repeatable_counts():
    spec = {m["name"]: m["unit"] for m in bench_spec()["per_layer"]}
    counts = []
    for _ in range(2):
        _, result = run_ok("--workload", "certify-small", "--seed", "5", "--seconds", "0",
                           "--tiny", "--trace", "1")
        assert result["correct"] is True
        assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
        counts.append({k: v["value"] for k, v in result["metrics"].items() if spec[k] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["oracles.exact_optimum.calls"] > 0


def test_second_run_compares_digests():
    run_ok("--workload", "certify-small", "--seed", "6", "--seconds", "0", "--tiny")
    text, _ = run_ok("--workload", "certify-small", "--seed", "6", "--seconds", "0", "--tiny")
    compared = int(text.split("outputs compared")[0].rsplit("(", 1)[1])
    assert compared >= 2  # the exact and augmented-greedy edge sets


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "greedy-decoupled", "--seed", "1", "--seconds", "1",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_times_are_scaled_by_the_kernel_runs_on_either_side():
    def solve(latency):
        return {"type": "solve", "latency": latency}

    ref = run.calib.REFERENCE_S
    records = [{"type": "kernel", "seconds": ref}, solve(1.0), solve(2.0),
               {"type": "kernel", "seconds": 3 * ref}, solve(4.0)]
    # the first two sit between kernels of 1x and 3x: the host ran at half speed
    assert run.scaled_latencies(records) == pytest.approx([0.5, 1.0, 4.0 / 3])


def test_tail_is_highest_percentile_with_ten_samples_above():
    assert run.tail_latency(list(range(100))) == (89, 90.0, 10)
    assert run.tail_latency(list(range(11))) == (0, 100.0 / 11, 10)
    value, _, above = run.tail_latency([1.0, 2.0, math.inf])
    assert (value, above) == (math.inf, 0)


def test_self_time_subtracts_direct_children():
    # root [0, 10] > a [1, 5] > b [2, 3]; root > c [6, 8]
    spans = [
        (3, 2, "graph.dijkstra", 2.0, 3.0, None, None),
        (2, 1, "greedy.greedy", 1.0, 5.0, None, None),
        (4, 1, "graph.graph_view", 6.0, 8.0, None, None),
        (1, 0, "pass", 0.0, 10.0, None, None),
    ]
    layers = summarize(spans)["layers"]
    assert layers["pass"]["self_s"] == pytest.approx(4.0)
    assert layers["greedy.greedy"]["self_s"] == pytest.approx(3.0)
    assert summarize(spans)["counts"]["greedy.greedy.dijkstra_calls"] == 1
