"""One workload in one fresh process: set up, run the closed loop, check outputs.

Started by ``run.py`` with BLAS/OpenMP thread counts already set to 1 in its
environment.  It writes one JSON record per line to ``--records``; ``run.py``
turns those records into metrics.  Record types:

``meta``    interpreter and library versions
``setup``   seconds spent on import, instance generation and save, and the
            untimed warm-up solve, as two phases (import and instances;
            warm-up), each with the calibration kernel's time just before
            and just after it; the warm-up's failure type, if it failed
``kernel``  one run of the calibration kernel (calib.py), timed between solves
            of a calibrated workload
``solve``   one timed solve: latency, outcome, failure type, checks
``window``  wall time, solves and passes of the timed loop
``trace_setup``, ``pass``  (``--mode trace``) per-layer summary of set-up,
            and wall time, outcomes and, when traced, the per-layer summary
            of each pass over the trace set
``done``    peak RSS and the digest comparison

Modes: ``timed`` (set up, then solve whole passes over the instances until
they cover ``--seconds``, with the calibration kernel run between solves at
least every ``CALIB_EVERY_S`` on a calibrated workload),
``setup`` (set up only, to repeat the set-up measurement) and ``trace``
(set up under the tracer, then alternate untraced and traced passes over a
fixed trace set).

Every solve runs under a deadline (SIGALRM).  A solve that raises anything,
hits the deadline, or returns a result whose exact re-verification fails
counts as failed, by type; the loop always continues.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import random
import resource
import signal
import sys
import time
from fractions import Fraction

import calib

# Per-solve deadline in seconds.  The slowest passing solve in any workload
# here takes under 5 s and the bundled simplex's failure in the lp-rounding
# suite surfaces (as LinAlgError) after 10-25 s, depending on machine speed,
# so 60 s sits well clear of both and no verdict depends on machine noise.
DEADLINE_S = 60.0

# The calibration kernel runs before a solve when this many seconds have
# passed since it last ran, and once after the last solve, so each solve's
# time is scaled by the host speed measured at most a solve away on either
# side, for a few percent of the run.
CALIB_EVERY_S = 0.5

# Relative tolerance for "LP objective <= w(H)": the LP value is a float sum
# of at most m terms in [0, 10], so 1e-6 relative is far above rounding error.
LP_TOLERANCE = 1e-6

# Workload sizes; ``tiny`` is for the smoke test only.  greedy-decoupled
# generates ``pool`` timed instances per seed; lp-rounding and certify-small
# solve fixed suites (see their classes).  Every timed run covers whole passes
# over its instances (see run_timed).  ``trace_set`` is the set of instances
# a traced run repeats.  The pools are sized so that one pass takes well over
# half of a 15-second run at reference speed, so a run makes two passes.
SIZES = {
    "greedy-decoupled": {"full": dict(n=60, m=180, pool=16, trace_set=6),
                         "tiny": dict(n=10, m=20, pool=1, trace_set=1)},
    "lp-rounding": {"full": dict(n=12, m=24, k=12, suite=13),
                    "tiny": dict(n=5, m=8, k=4, suite=1)},
    "certify-small": {"full": dict(n=8, m=16, k=8, pool=63, trace_set=40),
                      "tiny": dict(n=5, m=8, k=4, pool=1, trace_set=1)},
}


class DeadlineExceeded(BaseException):
    """Raised by the SIGALRM handler; BaseException so library code can't swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def instance_seed(seed: int, index: int) -> int:
    return seed * 100_000 + index


def digest_edges(edges) -> str:
    text = ",".join(str(e) for e in sorted(edges))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Recorder:
    def __init__(self, path: str):
        self.fh = open(path, "a", encoding="utf-8")

    def write(self, record: dict) -> None:
        self.fh.write(json.dumps(record) + "\n")
        self.fh.flush()

    def close(self) -> None:
        self.fh.close()


class DigestStore:
    """Per-seed digests of deterministic outputs, kept across runs in the work dir.

    Every run compares each output it produces with the digest stored for the
    same (workload, seed, instance, algorithm) by earlier runs in this
    checkout, and with repeats inside the run; a mismatch invalidates the run.
    """

    def __init__(self, path: str):
        self.path = path
        self.known: dict = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                self.known = json.load(fh)
        self.checked = 0
        self.mismatches: list[str] = []

    def check(self, key: str, value: str) -> bool:
        old = self.known.get(key)
        if old is None:
            self.known[key] = value
            return True
        self.checked += 1
        if old != value:
            self.mismatches.append(f"{key}: stored {old}, got {value}")
            return False
        return True

    def combined(self) -> str:
        text = json.dumps(self.known, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def save(self) -> None:
        tmp = self.path + f".{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.known, fh, sort_keys=True)
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """A workload prepares its inputs in ``setup`` and runs one solve per ``solve``.

    ``solve`` returns ``(ok, error_type, ratio, failed_checks)``; it may raise,
    and the caller counts the raise as a failure.  ``calibrated`` says whether
    its times are scaled to reference seconds by the calibration kernel.
    """

    name = ""
    calibrated = True

    def __init__(self, sk, seed: int, size: dict, workdir: str, digests: DigestStore):
        self.sk = sk
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.digests = digests

    def setup(self, pool: int) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def order(self, pass_index: int) -> list[int]:
        """Solve indices for one pass over the timed set."""
        raise NotImplementedError

    def solve(self, index: int):
        raise NotImplementedError


class GreedyDecoupled(Workload):
    """augmented_greedy on decoupled weights, rational lengths, freeform bounds, |K| = m."""

    name = "greedy-decoupled"

    def _generate(self, index: int) -> str:
        sk = self.sk
        inst = sk.random_instance(
            "decoupled", self.size["n"], self.size["m"], instance_seed(self.seed, index),
            demand_family="freeform", demand_pairs="edges",
        )
        path = os.path.join(self.workdir, f"greedy-{index}.json")
        sk.save(inst, path)
        return path

    def setup(self, pool: int) -> None:
        # Index 0 is the warm-up instance, outside the timed set.
        self.paths = [self._generate(i) for i in range(pool + 1)]

    def warmup(self) -> None:
        self._solve_path(self.paths[0])

    def order(self, pass_index: int) -> list[int]:
        return list(range(1, len(self.paths)))

    def _solve_path(self, path: str):
        sk = self.sk
        inst = sk.load(path)
        sk.validate(inst).raise_if_invalid()
        sub, report = sk.augmented_greedy(inst)
        verdict = sk.verify_feasible(sub)
        return inst, sub, report, verdict

    def solve(self, index: int):
        _, sub, report, verdict = self._solve_path(self.paths[index])
        failed = []
        if not verdict.feasible:
            failed.append("augmented-greedy result infeasible")
        bound = report.restricted_edge_count * report.w_star
        if not sub.weight <= bound:
            failed.append(f"w(H)={sub.weight} exceeds |E[W*]|*W*={bound}")
        key = f"{self.name}/seed{self.seed}/{index}/augmented-greedy"
        if not self.digests.check(key, digest_edges(sub.edge_set)):
            failed.append(f"digest mismatch at {key}")
        ratio = float(sub.weight / report.w_star) if report.w_star > 0 else None
        if not verdict.feasible:
            return False, "InfeasibleVerdict", None, failed
        return True, None, ratio, failed


class LpRounding(Workload):
    """solve_randomized with default arguments on a fixed suite of integer-length instances.

    The suite is the first ``suite`` instances of a fixed generator stream, the
    same for every seed; the seed picks the order of each pass and the
    rounding seed for each instance.  The bundled simplex's time per instance
    spans three orders of magnitude and it fails outright on some instances
    (a LinAlgError after 10-20 s on suite instance 1), so with fresh instances
    per seed a run of a few dozen seconds (about 15 solves) measures which
    instances the seed drew rather than the code.  Like every pooled workload
    it runs whole passes, so every run solves the same instances the same
    number of times.  The suite size is odd so that the
    median latency falls on one instance rather than between two.
    """

    name = "lp-rounding"
    # The time here goes to numpy's dense linear algebra, which the pure-Python
    # kernel does not track: over five seeds, scaling widened the spread of
    # the median solve time from 0.075 to 0.093 and of the solve rate from
    # 0.052 to 0.136.  Its times are wall seconds.
    calibrated = False
    SUITE_SEED = 0  # generator seeds SUITE_SEED .. SUITE_SEED + suite; the last is the warm-up

    def _generate(self, gen_seed: int, tag: str) -> str:
        sk = self.sk
        inst = sk.random_instance(
            "decoupled", self.size["n"], self.size["m"], gen_seed,
            demand_family="freeform", demand_pairs="random", num_demands=self.size["k"],
            integer_lengths=True,
        )
        path = os.path.join(self.workdir, f"lp-{tag}.json")
        sk.save(inst, path)
        return path

    def setup(self, pool: int) -> None:
        suite = self.size["suite"]
        self.paths = [self._generate(self.SUITE_SEED + i, str(i)) for i in range(suite)]
        self.warmup_path = self._generate(self.SUITE_SEED + suite, "warmup")

    def warmup(self) -> None:
        sk = self.sk
        inst = sk.load(self.warmup_path)
        sk.validate(inst).raise_if_invalid()
        sub, _ = sk.solve_randomized(inst, seed=self.seed)
        sk.verify_feasible(sub)

    def order(self, pass_index: int) -> list[int]:
        ids = list(range(len(self.paths)))
        random.Random(instance_seed(self.seed, pass_index)).shuffle(ids)
        return ids

    def solve(self, index: int):
        sk = self.sk
        inst = sk.load(self.paths[index])
        sk.validate(inst).raise_if_invalid()
        sub, report = sk.solve_randomized(inst, seed=instance_seed(self.seed, index))
        verdict = sk.verify_feasible(sub)
        failed = []
        if verdict.feasible != report.feasible:
            failed.append("rounding report and exact re-verification disagree")
        lp = report.lp_objective
        weight = float(sub.weight)
        if verdict.feasible and lp > weight + LP_TOLERANCE * max(1.0, abs(weight)):
            failed.append(f"LP objective {lp} exceeds w(H)={weight}")
        if not verdict.feasible:
            return False, "InfeasibleVerdict", None, failed
        ratio = weight / lp if lp > 0 else None
        return True, None, ratio, failed


class CertifySmall(Workload):
    """One bench.run_experiment per instance: greedy, augmented-greedy and exact, exact=True.

    run_experiment generates its instance from the config seed.  The suite is
    config seeds 1 .. ``pool``, the same for every seed (0 is the warm-up);
    the seed picks the order of each pass.  The exact search's time is
    heavy-tailed, so with fresh instances per seed the solve rate and the
    tail spread 0.13 and 0.22 across five seeds, from the draw of instances
    alone.
    """

    name = "certify-small"

    def setup(self, pool: int) -> None:
        self.pool = pool
        self.bench = importlib.import_module("spannerkit.bench")
        self.captured: list = []
        # Capture each cell's subgraph at the bench module's binding so the
        # harness can re-verify it and digest the edge sets; the rows that
        # run_experiment returns carry weights but not edge sets.
        original = self.bench.run_algorithm

        def capture(instance, algorithm, **kwargs):
            sub, info = original(instance, algorithm, **kwargs)
            self.captured.append((algorithm, sub))
            return sub, info

        self.bench.run_algorithm = capture

    def config(self, index: int):
        return self.bench.ExperimentConfig(
            family="decoupled", n=self.size["n"], m=self.size["m"], instances=1,
            seed=index, demand_family="freeform",
            demand_pairs="random", num_demands=self.size["k"],
            algorithms=["greedy", "augmented-greedy", "exact"], exact=True,
        )

    def warmup(self) -> None:
        self.bench.run_experiment(self.config(0))
        self.captured.clear()

    def order(self, pass_index: int) -> list[int]:
        ids = list(range(1, self.pool + 1))
        random.Random(instance_seed(self.seed, pass_index)).shuffle(ids)
        return ids

    def solve(self, index: int):
        sk = self.sk
        self.captured.clear()
        rows = self.bench.run_experiment(self.config(index))
        failed = []
        error = None
        for row in rows:
            if not row.feasible:
                error = row.attempts or "InfeasibleVerdict"
        by_alg = {row.algorithm: row for row in rows}
        opt_row = by_alg.get("exact")
        ratios = []
        if error is None and opt_row is not None:
            opt = Fraction(opt_row.weight)
            for alg in ("greedy", "augmented-greedy"):
                w = Fraction(by_alg[alg].weight)
                if not opt <= w:
                    failed.append(f"{alg}: OPT={opt} exceeds w(H)={w}")
                if opt > 0:
                    ratios.append(float(w / opt))
        for algorithm, sub in self.captured:
            if not sk.verify_feasible(sub).feasible:
                error = error or "InfeasibleVerdict"
                failed.append(f"{algorithm} result infeasible")
            if algorithm in ("augmented-greedy", "exact"):
                key = f"{self.name}/seed{self.seed}/{index}/{algorithm}"
                if not self.digests.check(key, digest_edges(sub.edge_set)):
                    failed.append(f"digest mismatch at {key}")
        if error is not None:
            return False, error, None, failed
        return True, None, ratios, failed


WORKLOADS = {w.name: w for w in (GreedyDecoupled, LpRounding, CertifySmall)}


# ---------------------------------------------------------------------------
# Main loop


# Timed runs cover at least this many whole passes: with the pool of 16
# greedy instances that is 32 solves, which puts solve_s_tail (10 samples
# above it) at p68.75.
MIN_PASSES = 2


def run_solve(workload: Workload, index: int):
    """Time one solve from outside; never raises except on interrupt/exit."""
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        ok, error, ratio, failed = workload.solve(index)
    except DeadlineExceeded:
        ok, error, ratio, failed = False, "DeadlineExceeded", None, []
    except Exception as exc:  # every failure is counted by type, never fatal
        ok, error, ratio, failed = False, type(exc).__name__, None, []
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    latency = time.perf_counter() - t0
    return {"type": "solve", "index": index, "latency": latency, "ok": ok,
            "error": error, "ratio": ratio, "failed_checks": failed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("timed", "setup", "trace"), required=True)
    ap.add_argument("--records", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--digests", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    rec = Recorder(args.records)
    tracer = None
    calibrated = WORKLOADS[args.workload].calibrated

    def kernel_point():
        return calib.kernel_point() if calibrated else None

    kernels = [kernel_point()]
    phase_start = time.perf_counter()
    import numpy
    import scipy

    import spannerkit as sk

    rec.write({"type": "meta", "python": sys.version.split()[0], "numpy": numpy.__version__,
               "scipy": scipy.__version__, "spannerkit": getattr(sk, "__version__", "?")})
    signal.signal(signal.SIGALRM, _on_alarm)
    digests = DigestStore(args.digests)
    size = SIZES[args.workload]["tiny" if args.tiny else "full"]
    workload = WORKLOADS[args.workload](sk, args.seed, size, args.workdir, digests)

    if args.mode == "trace":
        from tracer import Tracer, summarize

        tracer = Tracer()
        tracer.install()

    def phase(name):
        return tracer.root(name) if tracer is not None else contextlib.nullcontext()

    pool = size.get("pool", 0) if args.mode != "trace" else size.get("trace_set", 0)
    warmup_error = None
    with phase("setup"):
        workload.setup(pool)
    phases = [time.perf_counter() - phase_start]
    kernels.append(kernel_point())
    phase_start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with phase("warmup"):
            workload.warmup()
    except DeadlineExceeded:
        warmup_error = "DeadlineExceeded"
    except Exception as exc:
        warmup_error = type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    phases.append(time.perf_counter() - phase_start)
    kernels.append(kernel_point())
    rec.write({"type": "setup", "seconds": sum(phases),
               "phases": [[t, k0, k1] for t, k0, k1 in zip(phases, kernels, kernels[1:])],
               "calibrated": calibrated, "warmup_error": warmup_error})
    if tracer is not None:
        rec.write({"type": "trace_setup", "summary": summarize(tracer.take()),
                   "absent": tracer.absent})
        tracer.uninstall()

    if args.mode == "timed":
        run_timed(workload, args, rec)
    elif args.mode == "trace":
        run_trace(workload, args, rec, tracer)

    digests.save()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rec.write({"type": "done", "peak_rss_mb": rss_kb / 1024.0,
               "digests_checked": digests.checked, "digest_mismatches": digests.mismatches,
               "digest": digests.combined()})
    rec.close()
    return 0


def run_timed(workload: Workload, args, rec: Recorder) -> None:
    """Closed loop, one caller: the next solve starts when the previous one ends.

    The run covers whole passes over the workload's instances, so every run
    solves the same mix: as many passes as fill ``--seconds`` of solving in
    reference seconds (calib.py; wall seconds if the workload is not
    calibrated), so that the count follows the code's speed and not the
    host's, and at least MIN_PASSES so the tail has enough samples.
    """
    t0 = time.perf_counter()
    solves = passes = 0
    passes_wanted = None
    last_kernel_at = -math.inf
    first_pass = 0.0
    while passes_wanted is None or passes < passes_wanted:
        for index in workload.order(passes):
            if workload.calibrated and time.perf_counter() - last_kernel_at >= CALIB_EVERY_S:
                kernel = calib.kernel_seconds()
                rec.write({"type": "kernel", "seconds": kernel})
                last_kernel_at = time.perf_counter()
            record = run_solve(workload, index)
            rec.write(record)
            if passes == 0:
                first_pass += (calib.scale(record["latency"], kernel, kernel)
                               if workload.calibrated else record["latency"])
            solves += 1
        passes += 1
        if passes_wanted is None:
            passes_wanted = (max(MIN_PASSES, math.ceil(args.seconds / first_pass))
                             if args.seconds > 0 else 1)
    if workload.calibrated:
        rec.write({"type": "kernel", "seconds": calib.kernel_seconds()})
    rec.write({"type": "window", "wall": time.perf_counter() - t0, "solves": solves,
               "passes": passes})


def run_trace(workload: Workload, args, rec: Recorder, tracer) -> None:
    """Alternate untraced and traced passes over the fixed trace set.

    Every pass solves the same instances, so per-layer counts repeat exactly
    and the traced/untraced wall-time ratio is the tracing overhead.
    """
    from tracer import summarize

    indices = workload.order(0)
    t0 = time.perf_counter()
    while True:
        for traced in (False, True):
            if traced:
                tracer.install()
            start = time.perf_counter()
            outcomes = []
            with tracer.root("pass"):
                for index in indices:
                    outcomes.append(run_solve(workload, index))
            wall = time.perf_counter() - start
            spans = tracer.take()
            if traced:
                tracer.uninstall()
            rec.write({"type": "pass", "traced": traced, "wall": wall,
                       "summary": summarize(spans) if traced else None,
                       "ok": sum(o["ok"] for o in outcomes),
                       "failed_checks": [c for o in outcomes for c in o["failed_checks"]],
                       "errors": [o["error"] for o in outcomes if o["error"]]})
        if time.perf_counter() - t0 >= args.seconds:
            break


if __name__ == "__main__":
    sys.exit(main())
