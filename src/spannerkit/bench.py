"""Batch experiments: run (instance x algorithm x trial) cells, collect metrics.

A fully-seeded :class:`ExperimentConfig` determines every instance and every
random decision, so reruns reproduce the same solutions; only the wall-time
column varies between runs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
import types
import typing
from dataclasses import asdict, astuple, dataclass, field, fields

from .errors import ParseError, SpannerError, TooLarge
from .generators import DEMAND_FAMILIES, DEMAND_PAIRS, WEIGHT_FAMILIES, random_instance
from .graph import minimum_spanning_tree, verify_feasible
from .greedy import augmented_greedy, greedy
from .instance import SpannerInstance, Subgraph, _unknown_key, read_json_object, validate
from .oracles import exact_optimum
from .rational import format_rational
from .rounding import GAMMA_MODES, solve_randomized

ALGORITHMS = ("greedy", "augmented-greedy", "randomized-rounding", "exact")

# The config fields that name a choice (each item of a list field), and the
# counts with a least value.
CONFIG_CHOICES = {
    "family": WEIGHT_FAMILIES,
    "demand_family": DEMAND_FAMILIES,
    "demand_pairs": DEMAND_PAIRS,
    "gamma_mode": GAMMA_MODES,
    "algorithms": ALGORITHMS,
}
CONFIG_MINIMUM = {
    "n": 1, "m": 0, "instances": 0, "trials": 0, "max_attempts": 1, "num_demands": 0, "exact_cap": 0,
    "threads": 1,
}


@dataclass
class MetricsRow:
    instance: str
    algorithm: str
    trial: int
    feasible: bool
    weight: str  # exact rational text
    size: int
    lightness: str = ""  # undirected instances only
    ratio: str = ""  # only when the exact optimum was computed
    w_star: str = ""
    high_weight_edges: str = ""
    gamma: str = ""
    attempts: str = ""
    wall_time_s: str = ""

    def as_list(self) -> list:
        return list(astuple(self))


CSV_COLUMNS = [f.name for f in fields(MetricsRow)]


@dataclass
class ExperimentConfig:
    family: str = "decoupled"
    n: int = 7
    m: int = 12
    instances: int = 5
    seed: int = 0
    demand_family: str = "freeform"
    demand_pairs: str = "random"
    num_demands: int | None = None
    alpha: int = 3
    beta: int = 2
    freeform_factor: int = 2
    integer_lengths: bool = True
    directed: bool = False
    algorithms: list[str] = field(default_factory=lambda: ["augmented-greedy"])
    trials: int = 1
    mst_lift: bool = False
    gamma_mode: str = "global"
    confidence: float = 2.0  # used only by gamma_mode == "custom"
    max_attempts: int = 10
    exact: bool = False
    exact_cap: int = 22
    threads: int = 1

    def __post_init__(self):
        for name, hint in _CONFIG_HINTS.items():
            value = getattr(self, name)
            if not _has_type(value, hint):
                expected = self.__dataclass_fields__[name].type
                raise ParseError(f"must be {expected}, got {value!r}", field=name)
        for name, choices in CONFIG_CHOICES.items():
            value = getattr(self, name)
            items = value if isinstance(value, list) else [value]
            if any(x not in choices for x in items):
                raise ParseError(f"must be one of {choices}, got {value!r}", field=name)
        for name, least in CONFIG_MINIMUM.items():
            value = getattr(self, name)
            if value is not None and value < least:
                raise ParseError(f"must be at least {least}, got {value!r}", field=name)
        if self.gamma_mode == "custom" and not 1 < self.confidence < math.inf:  # NaN too
            raise ParseError(
                f"must be a finite number above 1 in custom gamma mode, got {self.confidence!r}",
                field="confidence",
            )

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        doc = read_json_object(path)
        error = _unknown_key(doc, tuple(cls.__dataclass_fields__), "", path)
        if error:
            raise error
        try:
            return cls(**doc)
        except ParseError as exc:  # a check of __post_init__; name the file too
            raise ParseError(exc.reason, path=path, field=exc.field) from None


# Resolved once: the annotations are strings, and resolving them costs far
# more than checking a config against them.
_CONFIG_HINTS = typing.get_type_hints(ExperimentConfig)


def _has_type(value, hint) -> bool:
    """Whether a value fits a config field's type; booleans are not numbers."""
    origin = typing.get_origin(hint)
    if origin is types.UnionType:
        return any(_has_type(value, h) for h in typing.get_args(hint))
    if origin is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_has_type(x, item) for x in value)
    if isinstance(value, bool) or hint is bool:
        return hint is bool and isinstance(value, bool)
    return isinstance(value, (int, float) if hint is float else hint)


def run_algorithm(instance: SpannerInstance, algorithm: str, *, config: ExperimentConfig, seed: int):
    """Dispatch one solver with the config's options; returns (Subgraph, info dict)."""
    info: dict = {}
    if algorithm == "greedy":
        sub = greedy(instance)
    elif algorithm == "augmented-greedy":
        sub, report = augmented_greedy(instance, mst_lift=config.mst_lift)
        info["w_star"] = format_rational(report.w_star)
        info["high_weight_edges"] = str(report.high_weight_edge_count)
    elif algorithm == "randomized-rounding":
        sub, report = solve_randomized(
            instance,
            mode=config.gamma_mode,
            seed=seed,
            max_attempts=config.max_attempts,
            confidence=config.confidence if config.gamma_mode == "custom" else None,
        )
        info["gamma"] = f"{report.gamma.value:.6f}"
        info["attempts"] = str(len(report.attempts))
    elif algorithm == "exact":
        result = exact_optimum(instance, max_edges=config.exact_cap)
        sub = Subgraph(instance, result.edge_set)
    else:
        raise SpannerError(f"unknown algorithm {algorithm!r}; have {ALGORITHMS}")
    return sub, info


def generate(config: ExperimentConfig, seed: int) -> SpannerInstance:
    """The random instance of the config's generator fields at one generator seed."""
    return random_instance(
        config.family,
        config.n,
        config.m,
        seed,
        demand_family=config.demand_family,
        demand_pairs=config.demand_pairs,
        num_demands=config.num_demands,
        alpha=config.alpha,
        beta=config.beta,
        freeform_factor=config.freeform_factor,
        integer_lengths=config.integer_lengths,
        directed=config.directed,
    )


def _run_cell(config, instance, name, index, algorithm, trial):
    """One (algorithm, trial) cell: ``(row, subgraph)``, the subgraph None on failure."""
    t0 = time.perf_counter()
    try:
        seed = config.seed * 100_003 + index * 101 + trial
        sub, info = run_algorithm(instance, algorithm, config=config, seed=seed)
    except SpannerError as exc:
        failed = MetricsRow(
            instance=name,
            algorithm=algorithm,
            trial=trial,
            feasible=False,
            weight="",
            size=0,
            wall_time_s=f"{time.perf_counter() - t0:.4f}",
            attempts=type(exc).__name__,
        )
        return failed, None
    elapsed = time.perf_counter() - t0
    feasible = verify_feasible(sub).feasible  # independent re-check, never trusted
    return metrics_row(name, algorithm, trial, sub, info, feasible, elapsed), sub


def metrics_row(name, algorithm, trial, sub, info, feasible, elapsed) -> MetricsRow:
    """The row of one solved cell; ``info`` is :func:`run_algorithm`'s."""
    return MetricsRow(
        instance=name,
        algorithm=algorithm,
        trial=trial,
        feasible=feasible,
        weight=format_rational(sub.weight),
        size=sub.size,
        wall_time_s=f"{elapsed:.4f}",
        **info,
    )


def lightness(weight, mst_weight) -> str:
    """``weight / w(MST)`` as row text; empty without a positive MST weight."""
    return f"{float(weight / mst_weight):.6f}" if mst_weight else ""


def _optimum_weight(instance: SpannerInstance, cap: int):
    """The exact optimum's weight, or None when the instance is over the cap."""
    try:
        return exact_optimum(instance, max_edges=cap).weight
    except TooLarge:
        return None


def _run_instance(args) -> list[MetricsRow]:
    """Every (algorithm, trial) cell of one instance, in config order.

    ``args`` is ``(config, index, instance)``; the instance is generated
    here when it is None.

    The MST and the exact optimum are computed once per instance: exact
    cells run first, so the optimum they find gives the other cells' ratios.
    """
    config, index, instance = args
    if instance is None:
        instance = generate(config, config.seed * 10_000 + index)
    name = f"{config.family}-{config.n}x{config.m}-s{config.seed}-{index}"
    mst_weight = None if instance.directed else minimum_spanning_tree(instance)[0]
    cells = [(a, t) for a in config.algorithms for t in range(config.trials)]
    rows: list = [None] * len(cells)
    unknown = object()
    optimum = unknown
    for k in sorted(range(len(cells)), key=lambda k: cells[k][0] != "exact"):
        algorithm, trial = cells[k]
        row, sub = _run_cell(config, instance, name, index, algorithm, trial)
        rows[k] = row
        if sub is None:
            continue
        row.lightness = lightness(sub.weight, mst_weight)
        if algorithm == "exact":
            optimum = sub.weight
        elif config.exact:
            if optimum is unknown:
                optimum = _optimum_weight(instance, config.exact_cap)
            if optimum is None:
                continue
            if optimum > 0:
                row.ratio = f"{float(sub.weight / optimum):.6f}"
            else:
                row.ratio = "inf" if sub.weight > 0 else "1.0"
    return rows


def run_experiment(config: ExperimentConfig) -> list[MetricsRow]:
    """The metrics rows of every (instance, algorithm, trial) cell, instance by instance.

    With ``config.threads > 1`` and more than one instance, the instances run
    in a pool of ``min(threads, instances, os.cpu_count())`` worker processes
    (a forked pool starts every worker at once, even one that gets no task),
    and only then is ``multiprocessing`` imported.  Rows keep instance order
    whatever the pool's size.
    """
    if config.trials == 0:
        return []
    # Validate the generator once up front so bad configs fail loudly; that
    # instance is then solved as index 0 instead of being generated again.
    first = generate(config, config.seed * 10_000)  # index 0's generator seed
    validate(first).raise_if_invalid()
    tasks = [(config, index, first if index == 0 else None) for index in range(config.instances)]
    workers = min(config.threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_instance = list(pool.map(_run_instance, tasks))
    else:
        per_instance = [_run_instance(task) for task in tasks]
    return [row for rows in per_instance for row in rows]


def rows_to_csv(rows: list[MetricsRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.as_list())
    return buf.getvalue()


def rows_to_json(rows: list[MetricsRow]) -> str:
    return json.dumps([asdict(r) for r in rows], indent=2)


def summarize(rows: list[MetricsRow]) -> dict:
    """Aggregate feasibility rate, ratio stats, and timings per algorithm."""
    out: dict = {}
    for row in rows:
        agg = out.setdefault(
            row.algorithm,
            {"cells": 0, "feasible": 0, "max_ratio": 0.0, "mean_ratio": 0.0,
             "_ratios": [], "_times": []},
        )
        agg["cells"] += 1
        agg["feasible"] += bool(row.feasible)
        if row.ratio and row.ratio != "inf":
            agg["_ratios"].append(float(row.ratio))
        if row.wall_time_s:
            agg["_times"].append(float(row.wall_time_s))
    for agg in out.values():
        ratios = agg.pop("_ratios")
        times = agg.pop("_times")
        if ratios:
            agg["max_ratio"] = max(ratios)
            agg["mean_ratio"] = sum(ratios) / len(ratios)
        else:
            agg.pop("max_ratio")
            agg.pop("mean_ratio")
        if times:
            agg["mean_time_s"] = sum(times) / len(times)
            agg["max_time_s"] = max(times)
        agg["feasible_rate"] = agg["feasible"] / agg["cells"]
    return out
