"""spannerkit benchmark: seeded closed-loop solver workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload greedy-decoupled --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload in turn

Workloads (one caller, one solve after another, one process each):

greedy-decoupled  augmented_greedy, decoupled weights, rational lengths,
                  freeform bounds, n=60, m=180, |K|=m.  Graph, instance and
                  greedy layers; no LP.
lp-rounding       solve_randomized with default arguments (the LP path the
                  library ships) on a fixed suite of 13 integer-length
                  instances, n=12, m=24, |K|=12.  Extension, mcf and rounding
                  layers; no greedy.
certify-small     one bench.run_experiment per instance of a fixed suite of 63,
                  with greedy, augmented-greedy and exact, exact=True, n=8,
                  m=16, |K|=8.
                  Thousands of tiny feasibility checks, the exact oracle and
                  the batch layer.

Each workload runs in a fresh child process (``worker.py``) whose
environment pins BLAS and OpenMP to one thread.  A solve is timed from
outside through the public API, as ``spannerkit solve`` times it: load the
instance file, validate, solve, verify the result exactly.  Set-up (import,
instance generation and save, one untimed warm-up solve) is measured in three
fresh processes and reported as the median.  On greedy-decoupled and
certify-small, whose solvers are pure Python, every reported time is scaled to
reference seconds by a calibration kernel timed next to it (calib.py), because
the host's speed drifts by more than the bounds; the raw wall times are
printed beside the scaled ones.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload's
fixed trace set with every public spannerkit function wrapped (tracer.py) and
prints per-layer self times, counts and the tracing overhead.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Run artefacts (digests, full results) go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("greedy-decoupled", "lp-rounding", "certify-small")
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0  # every run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "solves_per_s": "1/s",
    "weight_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# fail_rate is printed with the others, but it is 0 on two workloads, so it
# is carried by the result's attempted/failed fields rather than as a metric.

BOUND_NAMES = {
    "greedy-decoupled": "W* (weight threshold)",
    "lp-rounding": "LP optimum",
    "certify-small": "exact OPT",
}

# Layers whose self time is reported in seconds on every workload (each is
# entered on all three); the others are reported as a share of traced time,
# which is 0 where a workload never enters the layer.
TIMED_EVERYWHERE = [
    "instance.validate",
    "generators.random_instance",
    "graph.verify_feasible",
    "graph.shortest_distances",
    "graph.graph_view",
]
SHARE_LAYERS = [
    "instance.load",
    "instance.validate",
    "generators.random_instance",
    "graph.verify_feasible",
    "graph.shortest_distances",
    "graph.dijkstra",
    "graph.graph_view",
    "greedy.weight_threshold_search",
    "greedy.greedy",
    "extension.build_extension",
    "mcf.build_mcf",
    "mcf.solve_lp",
    "rounding.gamma",
    "rounding.round_solution",
    "oracles.exact_optimum",
    "bench.run_experiment",
]
CALL_LAYERS = [
    "graph.verify_feasible",
    "graph.shortest_distances",
    "graph.dijkstra",
    "graph.graph_view",
    "graph.minimum_spanning_tree",
    "rounding.round_solution",
    "oracles.exact_optimum",
]
DERIVED_COUNTS = [
    "greedy.threshold_probes",
    "greedy.threshold_probes_feasible",
    "greedy.greedy.dijkstra_calls",
    "greedy.w_star_edges",
    "extension.arcs",
    "mcf.lp_vars",
    "mcf.lp_rows",
    "mcf.lp_nnz",
    "mcf.solve_lp.failures",
    "rounding.attempts_feasible",
    "oracles.nodes_explored",
]
HARNESS_SPANS = ("setup", "warmup", "pass")


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in TIMED_EVERYWHERE:
        units[f"{layer}.s"] = "s"
    for layer in SHARE_LAYERS:
        units[f"{layer}.self_pct"] = "%"
    for layer in CALL_LAYERS:
        units[f"{layer}.calls"] = "count"
    for name in DERIVED_COUNTS:
        units[name] = "count"
    units["bench.exact_optimum_per_instance"] = "ratio"
    units["trace.overhead_pct"] = "%"
    return units


# ---------------------------------------------------------------------------
# Child processes


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, workload: str, mode: str, workdir: str, deadline: float, tag: str):
    """Run worker.py once; returns (records, exit status or a failure name)."""
    records_path = os.path.join(workdir, f"{tag}.jsonl")
    inst_dir = os.path.join(workdir, f"{tag}-instances")
    os.makedirs(inst_dir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--records", records_path, "--workdir", inst_dir,
           "--digests", digest_path(args, workload)]
    if args.tiny:
        cmd.append("--tiny")
    status: object
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
        status = proc.returncode
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        status = "WorkerTimeout"
    records = []
    if os.path.exists(records_path):
        with open(records_path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    try:
                        records.append(json.loads(line))
                    except json.JSONDecodeError:
                        break  # a line cut short by a crash
    return records, status


def digest_path(args, workload: str) -> str:
    suffix = "-tiny" if args.tiny else ""
    return os.path.join(ROOT, ".perfbench", "digests", f"{workload}-seed{args.seed}{suffix}.json")


# ---------------------------------------------------------------------------
# Metrics


def tail_latency(latencies: list[float]):
    """Latency at the highest percentile with at least 10 samples above it.

    Returns (value, percentile, samples above it); failed solves are +inf.
    With 10 or fewer samples no such percentile exists and the maximum is
    returned, with 0 samples above.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - 11 if n > 10 else n - 1  # 0-based
    return ordered[rank], 100.0 * (rank + 1) / n, n - 1 - rank


def median_or_nan(values):
    return statistics.median(values) if values else float("nan")


def scaled_latencies(records: list[dict]) -> list[float]:
    """Each solve's latency in reference seconds (calib.py), in record order.

    A solve is scaled by the mean of the kernel runs just before and just
    after it; where one side is missing (the worker died), the other is used
    for both.
    """
    kernels = [(i, r["seconds"]) for i, r in enumerate(records) if r["type"] == "kernel"]
    scaled = []
    for i, r in enumerate(records):
        if r["type"] != "solve":
            continue
        before = [k for j, k in kernels if j < i]
        after = [k for j, k in kernels if j > i]
        k0 = before[-1] if before else after[0]
        k1 = after[0] if after else k0
        scaled.append(calib.scale(r["latency"], k0, k1))
    return scaled


def warmup_failures(setups: list[dict]) -> Counter:
    """Failed warm-up solves by type, prefixed ``warmup:``."""
    return Counter(f"warmup:{s['warmup_error']}" for s in setups if s["warmup_error"])


def timed_metrics(setups: list[dict], records: list[dict], status) -> dict:
    """End-to-end metrics from the set-up records and the timed worker's records.

    Each set-up ran one warm-up solve; those count in attempted and failed
    like the timed solves.  If any warm-up failed, set-up did less than its
    usual work, so setup_s is not reported (NaN, printed as null).  Times of
    a calibrated workload are in reference seconds (calib.py), those of the
    others in wall seconds; ``raw`` holds the figures in wall seconds.
    """
    solves = [r for r in records if r["type"] == "solve"]
    calibrated = all(s["calibrated"] for s in setups)
    scaled = scaled_latencies(records) if calibrated else [r["latency"] for r in solves]
    window = next((r for r in records if r["type"] == "window"), None)
    done = next((r for r in records if r["type"] == "done"), None)
    failures = Counter(r["error"] for r in solves if not r["ok"])
    failures.update(warmup_failures(setups))
    attempted = len(solves) + len(setups)
    if status != 0:  # the solve in flight when the child died or timed out
        attempted += 1
        failures[status if isinstance(status, str) else f"WorkerExit{status}"] += 1
    failed = sum(failures.values())
    latencies = [t if r["ok"] else math.inf for r, t in zip(solves, scaled)] or [math.inf]
    raw_latencies = [r["latency"] if r["ok"] else math.inf for r in solves] or [math.inf]
    tail, tail_pct, tail_above = tail_latency(latencies)
    solve_time = sum(scaled)
    setup_times = [sum(calib.scale(*phase) for phase in s["phases"]) if calibrated else s["seconds"]
                   for s in setups]
    ratios = []
    for r in solves:
        value = r.get("ratio")
        if isinstance(value, list):
            ratios.extend(value)
        elif value is not None:
            ratios.append(value)
    failed_checks = [c for r in solves for c in r["failed_checks"]]
    if done:
        failed_checks += done["digest_mismatches"]
    ok = sum(r["ok"] for r in solves)
    setup_valid = not any(s["warmup_error"] for s in setups)
    return {
        "metrics": {
            "setup_s": median_or_nan(setup_times) if setup_valid else math.nan,
            "solve_s_p50": statistics.median(latencies),
            "solve_s_tail": tail,
            "solves_per_s": ok / solve_time if solve_time > 0 else 0.0,
            "weight_ratio": median_or_nan(ratios),
            "peak_rss_mb": done["peak_rss_mb"] if done else float("nan"),
        },
        "fail_rate": failed / attempted if attempted else 0.0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "failures_by_type": dict(failures),
        "tail_percentile": tail_pct,
        "tail_above": tail_above,
        "ratio_values": len(ratios),
        "setups": setup_times,
        "raw": {"setups": [s["seconds"] for s in setups],
                "solve_s_p50": statistics.median(raw_latencies),
                "solve_s_tail": tail_latency(raw_latencies)[0],
                "solve_s": sum(r["latency"] for r in solves),
                "kernel_s_p50": median_or_nan([r["seconds"] for r in records
                                               if r["type"] == "kernel"])},
        "timed_solves": len(solves),
        "calibrated": calibrated,
        "failed_checks": failed_checks,
        "digests_checked": done["digests_checked"] if done else 0,
        "digest": done["digest"] if done else None,
        "passes": window["passes"] if window else None,
        "solves": [[r["index"], r["latency"], t, r["error"]] for r, t in zip(solves, scaled)],
        "solve_time_s": solve_time,
        "timed_wall_s": window["wall"] if window else None,
    }


def trace_metrics(records: list[dict], status) -> dict | None:
    """Per-layer metrics over set-up plus one pass; None if no full pass pair ran."""
    setup = next(r for r in records if r["type"] == "trace_setup")
    setup_records = [r for r in records if r["type"] == "setup"]
    passes = [r for r in records if r["type"] == "pass"]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    if not traced or not plain:
        return None
    first = traced[0]["summary"]
    s_layers, s_counts = setup["summary"]["layers"], setup["summary"]["counts"]

    def layer(summary, name, key):
        return summary["layers"].get(name, {}).get(key, 0)

    self_s = {}
    for name in set(s_layers) | {n for p in traced for n in p["summary"]["layers"]}:
        per_pass = [layer(p["summary"], name, "self_s") for p in traced]
        self_s[name] = s_layers.get(name, {}).get("self_s", 0.0) + statistics.median(per_pass)
    calls = {name: s_layers.get(name, {}).get("calls", 0) + layer(first, name, "calls")
             for name in set(s_layers) | set(first["layers"])}
    counts = {k: s_counts.get(k, 0) + first["counts"].get(k, 0) for k in first["counts"]}
    traced_wall = statistics.median(p["wall"] for p in traced)
    plain_wall = statistics.median(p["wall"] for p in plain)
    total = traced_wall + sum(s_layers.get(n, {}).get("inclusive_s", 0.0) for n in ("setup", "warmup"))

    metrics = {}
    for name in TIMED_EVERYWHERE:
        metrics[f"{name}.s"] = self_s.get(name, 0.0)
    for name in SHARE_LAYERS:
        metrics[f"{name}.self_pct"] = 100.0 * self_s.get(name, 0.0) / total
    for name in CALL_LAYERS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
    for name in DERIVED_COUNTS:
        metrics[name] = counts.get(name, 0)
    experiments = calls.get("bench.run_experiment", 0)
    metrics["bench.exact_optimum_per_instance"] = (
        counts.get("bench.exact_optimum_under_run_experiment", 0) / experiments if experiments else 0.0)
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)

    inclusive = {name: s_layers.get(name, {}).get("inclusive_s", 0.0)
                 + statistics.median(layer(p["summary"], name, "inclusive_s") for p in traced)
                 for name in self_s}
    failed_checks = [c for p in passes for c in p["failed_checks"]]
    done = next((r for r in records if r["type"] == "done"), None)
    if done:
        failed_checks += done["digest_mismatches"]
    errors = Counter(e for p in passes for e in p["errors"])
    errors.update(warmup_failures(setup_records))
    if status != 0:
        errors[status if isinstance(status, str) else f"WorkerExit{status}"] += 1
    attempted = (sum(p["ok"] + len(p["errors"]) for p in passes) + len(setup_records)
                 + (status != 0))
    return {
        "metrics": metrics,
        "attempted": max(attempted, 1),
        "failed": sum(errors.values()),
        "failures_by_type": dict(errors),
        "failed_checks": failed_checks,
        "absent": setup["absent"],
        "self_s": self_s,
        "inclusive_s": inclusive,
        "calls": calls,
        "traced_passes": len(traced),
        "plain_passes": len(plain),
        "traced_pass_s": traced_wall,
        "plain_pass_s": plain_wall,
        "total_traced_s": total,
    }


# ---------------------------------------------------------------------------
# Metadata


def metadata(child_meta: dict | None) -> dict:
    src = os.path.join(ROOT, "src", "spannerkit")
    loc = 0
    sha = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                data = fh.read()
            loc += data.count(b"\n")
            sha.update(name.encode() + b"\0" + data)
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                commit = out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    meta = {"nproc": os.cpu_count(), "commit": commit, "src_loc": loc,
            "src_sha256": sha.hexdigest()[:16]}
    if hasattr(os, "sched_getaffinity"):
        meta["cpus_usable"] = len(os.sched_getaffinity(0))
    if child_meta:
        meta.update({k: child_meta[k] for k in ("python", "numpy", "scipy", "spannerkit")})
    return meta


# ---------------------------------------------------------------------------
# One workload


def run_workload(args, workload: str, deadline: float) -> dict | None:
    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}-{workload}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            records, status = run_child(args, workload, "trace", workdir, deadline, "trace")
            result = None
            if any(r["type"] == "trace_setup" for r in records):
                result = trace_metrics(records, status)
            if result is None:
                print(f"{workload}: traced worker ended before an untraced and a traced pass "
                      f"(status {status})", file=sys.stderr)
                return None
        else:
            setups = []
            for i in range(SETUP_REPEATS - 1):
                recs, status = run_child(args, workload, "setup", workdir, deadline, f"setup{i}")
                setups += [r for r in recs if r["type"] == "setup"]
                if status != 0:
                    print(f"{workload}: set-up process exited with {status}", file=sys.stderr)
                    return None
            records, status = run_child(args, workload, "timed", workdir, deadline, "timed")
            main_setup = [r for r in records if r["type"] == "setup"]
            if not main_setup:
                print(f"{workload}: worker failed before set-up finished (status {status})",
                      file=sys.stderr)
                return None
            result = timed_metrics(setups + main_setup, records, status)
        result["meta"] = metadata(next((r for r in records if r["type"] == "meta"), None))
        result["workload"] = workload
        result["seed"] = args.seed
        result["correct"] = not result["failed_checks"]
        save_result(args, workload, result)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def save_result(args, workload: str, result: dict) -> None:
    out_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{int(args.trace)}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True, default=str)


def print_timed(result: dict) -> None:
    m = result["metrics"]
    w = result["workload"]
    raw = result["raw"]
    unit = (f"reference seconds (calibration kernel {calib.REFERENCE_S} s)" if result["calibrated"]
            else "wall seconds")
    print(f"== {w}  seed={result['seed']}  closed loop, 1 caller, 1 process; times in {unit}, "
          "raw wall seconds in brackets")
    setups = ", ".join(f"{s:.4f}" for s in result["setups"])
    raw_setups = ", ".join(f"{s:.4f}" for s in raw["setups"])
    note = "" if math.isfinite(m["setup_s"]) else "  (not valid: a warm-up solve failed)"
    print(f"  setup_s       {m['setup_s']:.6f} s      median of set-ups [{setups}] "
          f"(raw [{raw_setups}]){note}")
    print(f"  solve_s_p50   {m['solve_s_p50']:.6f} s      over {result['timed_solves']} timed solves "
          f"(raw {raw['solve_s_p50']:.6f})")
    print(f"  solve_s_tail  {m['solve_s_tail']:.6f} s      p{result['tail_percentile']:.1f} "
          f"of {result['timed_solves']} timed solves, {result['tail_above']} above "
          f"(raw {raw['solve_s_tail']:.6f})")
    kernel = f"; kernel median {raw['kernel_s_p50']:.4f} s" if result["calibrated"] else ""
    print(f"  solves_per_s  {m['solves_per_s']:.6f} 1/s    verified solves per second of solve "
          f"time, {result['solve_time_s']:.2f} s (raw {raw['solve_s']:.2f} s{kernel})")
    print(f"  fail_rate     {result['fail_rate']:.6f} ratio  {result['failed']} of "
          f"{result['attempted']} failed, {len(result['setups'])} warm-up solves included; "
          f"by type {result['failures_by_type']}")
    print(f"  weight_ratio  {m['weight_ratio']:.6f} ratio  median w(H) / {BOUND_NAMES[w]} "
          f"over {result['ratio_values']} results")
    print(f"  peak_rss_mb   {m['peak_rss_mb']:.3f} MB")
    print_checks(result)
    print(f"  digest        {result['digest']}  ({result['digests_checked']} outputs compared "
          "with earlier solves of this seed in this checkout)")
    print(f"  meta          {json.dumps(result['meta'], sort_keys=True)}")


def print_trace(result: dict) -> None:
    w = result["workload"]
    print(f"== {w}  seed={result['seed']}  traced: {result['traced_passes']} traced and "
          f"{result['plain_passes']} untraced passes over the trace set")
    print(f"  traced pass {result['traced_pass_s']:.4f} s, untraced pass "
          f"{result['plain_pass_s']:.4f} s, overhead {result['metrics']['trace.overhead_pct']:.2f} %")
    print("  layer                               calls    inclusive_s     self_s  self_%")
    total = result["total_traced_s"]
    for name in sorted(result["self_s"], key=lambda n: -result["self_s"][n]):
        print(f"  {name:34s} {result['calls'].get(name, 0):7d}  {result['inclusive_s'][name]:13.6f}"
              f"  {result['self_s'][name]:9.6f}  {100 * result['self_s'][name] / total:6.2f}")
    for name in result["absent"]:
        print(f"  {name:34s}  absent")
    layers = [n for n in result["self_s"] if n not in HARNESS_SPANS]
    if layers:
        top = max(layers, key=lambda n: result["self_s"][n])
        print(f"  largest self time: {top}")
    greedy = [n for n in layers if n.startswith("greedy.")]
    if greedy:
        print(f"  largest inclusive greedy span: {max(greedy, key=lambda n: result['inclusive_s'][n])}")
    print(f"  failures by type {result['failures_by_type']}")
    print_checks(result)
    print(f"  meta          {json.dumps(result['meta'], sort_keys=True)}")


def print_checks(result: dict) -> None:
    if result["failed_checks"]:
        print(f"  checks        FAILED: {result['failed_checks'][:10]}")
    else:
        print("  checks        passed")


def json_line(results: list[dict], trace: bool, prefix: bool) -> str:
    units = per_layer_units() if trace else END_TO_END
    metrics = {}
    for res in results:
        for name, unit in units.items():
            key = f"{res['workload']}.{name}" if prefix else name
            value = res["metrics"][name]
            # inf/nan only arise when every solve failed; JSON has no such numbers.
            metrics[key] = {"value": value if math.isfinite(value) else None, "unit": unit}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "spannerkit", "__init__.py")):
        print(f"no spannerkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".perfbench", "digests"), exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    results = []
    for name in names:
        # A single workload must finish within the run budget; "all" gets one per workload.
        result = run_workload(args, name, time.monotonic() + RUN_BUDGET_S)
        if result is None:
            return 1
        (print_trace if args.trace else print_timed)(result)
        results.append(result)
    print(f"total wall {time.monotonic() - start:.1f} s", file=sys.stderr)
    print(json_line(results, bool(args.trace), prefix=len(results) > 1), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
