"""Randomized rounding of the fractional flow solution.

Each edge joins the spanner independently with probability
``min(1, gamma * x_e)``.  The inflation factor gamma is
``ln(n * C * |K|)`` where C bounds the number of ascending cuts any pair can
have: globally ``(delta_bar + 2)^(n-2)``, or per pair over just the nodes
that can lie on a within-budget path (restricted mode), which is never
larger.  C overflows immediately, so everything is computed in log space.

Randomness is counter-based: the uniform draw for edge e is a keyed hash of
(seed, e), so runs are reproducible bit-for-bit and edges could be sampled in
any order or in parallel.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .extension import build_extension
from .graph import Verdict, verify_feasible
from .instance import SpannerInstance, Subgraph, require_integer_lengths
from .mcf import FractionalSolution, build_mcf, solve_lp
from .oracles import restricted_subgraph


GAMMA_MODES = ("global", "restricted", "custom")


@dataclass(frozen=True)
class GammaSpec:
    mode: str  # one of GAMMA_MODES
    value: float
    n: int
    num_pairs: int
    log_cut_bound: float  # ln of the ascending-cut count bound used
    confidence: float | None = None  # custom mode: replaces n in the union bound


def gamma(instance: SpannerInstance, mode: str = "global", *, confidence: float | None = None) -> GammaSpec:
    """Rounding inflation factor, computed in log space.

    ``global``      uses the cut bound (delta(u,v)+2)^(n-2) maximized over pairs.
    ``restricted``  replaces n by the per-pair reachable-subgraph size n_uv.
    ``custom``      is restricted with a caller-supplied confidence multiplier
                    c replacing n: failure probability at most 1/c per run;
                    c must be finite and above 1.
    """
    if mode not in GAMMA_MODES:
        raise ValueError(f"unknown gamma mode {mode!r}")
    if mode == "custom" and (confidence is None or not 1 < confidence < math.inf):
        raise ValueError("custom mode needs a finite confidence multiplier > 1")
    n = instance.n
    require_integer_lengths(instance)
    bounds = instance.bounds
    k = len(bounds)
    if k == 0:
        return GammaSpec(mode, 0.0, n, 0, 0.0, confidence)
    if mode == "global":
        log_c = max((n - 2) * math.log(b + 2) for b in bounds)
        lead = math.log(n)
    else:
        log_c = 0.0
        for i, b in enumerate(bounds):
            nodes, _ = restricted_subgraph(instance, i)
            log_c = max(log_c, (len(nodes) - 2) * math.log(b + 2))
        lead = math.log(n if mode == "restricted" else confidence)
    return GammaSpec(mode, lead + log_c + math.log(k), n, k, log_c, confidence)


def derive_seed(master: int, stream: bytes, index: int) -> int:
    """The keyed 64-bit hash of ``stream`` and ``index`` under ``master``.

    It gives each attempt's seed and, with an empty stream, each edge's draw.
    """
    key = (master & (2**64 - 1)).to_bytes(8, "little")
    digest = hashlib.blake2b(stream + index.to_bytes(8, "little"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little")


@dataclass
class RoundingRun:
    seed: int
    chosen_edges: tuple[int, ...]
    weight: Fraction
    verdict: Verdict
    attempt: int = 0

    @property
    def feasible(self) -> bool:
        return self.verdict.feasible


def round_solution(solution: FractionalSolution, spec: GammaSpec, seed: int) -> RoundingRun:
    """One independent rounding pass; same (solution, spec, seed) -> same set."""
    inst = solution.model.extension.instance
    chosen = []
    for e in range(inst.m):
        p = min(1.0, spec.value * float(solution.x[e]))
        if derive_seed(seed, b"", e) / 2**64 < p:  # edge e's uniform draw in [0, 1)
            chosen.append(e)
    sub = Subgraph(inst, frozenset(chosen))
    return RoundingRun(seed, tuple(chosen), sub.weight, verify_feasible(sub))


@dataclass
class RandomizedRoundingReport:
    gamma: GammaSpec
    lp_objective: float
    commodities: int  # the LP's commodities: the instance's metric pairs
    lp_iterations: int  # HiGHS's iteration count on the LP
    attempts: list[RoundingRun] = field(default_factory=list)
    accepted_attempt: int | None = None  # index into attempts, None if all failed

    @property
    def feasible(self) -> bool:
        return self.accepted_attempt is not None

    def describe(self) -> str:
        lines = [
            f"gamma ({self.gamma.mode}): {self.gamma.value:.6f}",
            f"LP objective: {self.lp_objective:.6f}",
            f"attempts: {len(self.attempts)}",
        ]
        if self.feasible:
            run = self.attempts[self.accepted_attempt]
            lines.append(f"accepted attempt {self.accepted_attempt}: weight {run.weight}")
        else:
            lines.append("no feasible rounding; last verdict:")
            lines.append(self.attempts[-1].verdict.describe())
        return "\n".join(lines)


def solve_randomized(
    instance: SpannerInstance,
    *,
    mode: str = "global",
    seed: int = 0,
    max_attempts: int = 10,
    confidence: float | None = None,
) -> tuple[Subgraph, RandomizedRoundingReport]:
    """Full pipeline: one LP solve, then up to ``max_attempts`` roundings.

    The LP ships one commodity per metric pair (:func:`build_mcf`); the
    report counts them (``commodities``) and HiGHS's iterations
    (``lp_iterations``).  gamma keeps |K|, every demand of the instance: a
    larger gamma still covers the union bound over the kept pairs.  Attempts
    reuse the single fractional solution with independently derived seeds,
    and each rounding is verified exactly against every demand of the
    instance, implied ones included; the first feasible one is returned.  If
    all fail, the last attempt comes back flagged infeasible with the
    violated pairs in its verdict.  Requires integer lengths.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    spec = gamma(instance, mode, confidence=confidence)
    if not instance.demands:
        report = RandomizedRoundingReport(spec, 0.0, 0, 0)
        empty = RoundingRun(seed, (), Fraction(0), Verdict(True, []))
        report.attempts.append(empty)
        report.accepted_attempt = 0
        return Subgraph(instance, frozenset()), report

    extension = build_extension(instance)
    model = build_mcf(extension)
    solution = solve_lp(model)
    report = RandomizedRoundingReport(spec, solution.objective, len(model.demands), solution.iterations)
    for attempt in range(max_attempts):
        run = round_solution(solution, spec, derive_seed(seed, b"attempt", attempt))
        run.attempt = attempt
        report.attempts.append(run)
        if run.feasible:
            report.accepted_attempt = attempt
            return Subgraph(instance, frozenset(run.chosen_edges)), report
    return Subgraph(instance, frozenset(report.attempts[-1].chosen_edges)), report

