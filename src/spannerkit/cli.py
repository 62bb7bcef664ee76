"""Command-line front end.

Subcommands: gen, solve, verify, bench, oracle (exact | cuts | demo |
potential), export-lp.  Exit codes: 0 success, 2 validation failure,
malformed input file, or a file that cannot be opened (missing, unreadable,
a directory), 3 infeasible after retries (or another library error), 4
internal error (lemma violation or any unexpected exception), reported on
one line without a traceback.

``solve``, and ``gen`` for a random family, build from their flags the
:class:`~spannerkit.bench.ExperimentConfig` that ``bench`` reads from its
config file, so a flag outside its field's domain exits 2 naming the field,
as a bad config value does; the solvers read their options off that config.

Solution files are deterministic given identical inputs and seeds; timing
lives only in the metrics CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import bench as bench_mod
from .errors import (
    InvalidInstance,
    LemmaViolation,
    MonotonicityViolation,
    ParseError,
    SpannerError,
)
from .extension import build_extension
from .generators import (
    DEMAND_FAMILIES,
    DEMAND_PAIRS,
    FIXED_INSTANCES,
    WEIGHT_FAMILIES,
    fixed_instance,
)
from .graph import minimum_spanning_tree, verify_feasible
from .greedy import augmented_greedy
from .instance import Subgraph, load, read_json_object, save, validate
from .mcf import build_mcf, export_lp
from .oracles import (
    check_cut_lemma,
    dodis_khanna_demo,
    exact_optimum,
    potential_monitor,
)
from .rational import format_rational
from .rounding import GAMMA_MODES

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_ASSERTION = 4


def _emit(path: str | None, text: str) -> None:
    """Write ``text`` and a newline to the file ``path``, or to stdout when there is none."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _solution_payload(algorithm: str, sub: Subgraph, feasible: bool, params: dict) -> dict:
    return {
        "algorithm": algorithm,
        "feasible": feasible,
        "weight": format_rational(sub.weight),
        "size": sub.size,
        "edge_indices": sorted(sub.edge_set),
        "edges": sub.edge_pairs(),
        "params": params,
    }


def _load_validated(path: str):
    instance = load(path)
    report = validate(instance)
    if not report.ok:
        print(f"validation failed for {path}:", file=sys.stderr)
        print(report.describe(), file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    return instance


def _load_edge_ids(path: str, m: int) -> frozenset[int]:
    """The ``edge_indices`` of a solution file, each an integer in [0, m), none repeated."""
    ids = read_json_object(path).get("edge_indices")
    if not isinstance(ids, list):
        raise ParseError("solution needs an 'edge_indices' list", path=path)
    # bool is a subclass of int, but `true` is not an edge index
    if any(isinstance(e, bool) or not isinstance(e, int) or not 0 <= e < m for e in ids):
        raise ParseError(f"edge indices must be integers in [0,{m})", path=path)
    edge_set = frozenset(ids)
    if len(edge_set) != len(ids):
        raise ParseError("edge indices must not repeat", path=path)
    return edge_set


def cmd_gen(args) -> int:
    if args.family in FIXED_INSTANCES:
        instance = fixed_instance(args.family)
    else:
        config = bench_mod.ExperimentConfig(
            family=args.family,
            n=args.n,
            m=args.m if args.m is not None else 2 * args.n,
            demand_family=args.demands,
            demand_pairs=args.demand_pairs,
            num_demands=args.num_demands,
            alpha=args.alpha,
            beta=args.beta,
            freeform_factor=args.freeform_factor,
            integer_lengths=args.integer_lengths,
            directed=args.directed,
        )
        instance = bench_mod.generate(config, args.seed)
    report = validate(instance)
    if not report.ok:
        print("generated instance failed validation (bad parameters?):", file=sys.stderr)
        print(report.describe(), file=sys.stderr)
        return EXIT_VALIDATION
    save(instance, args.out)
    print(f"wrote {args.out}: n={instance.n} m={instance.m} |K|={len(instance.demands)}")
    return EXIT_OK


def cmd_solve(args) -> int:
    config = bench_mod.ExperimentConfig(
        algorithms=[args.algorithm],
        mst_lift=args.mst_lift,
        gamma_mode=args.gamma_mode,
        confidence=args.confidence,
        max_attempts=args.max_attempts,
        exact_cap=args.exact_cap,
    )
    instance = _load_validated(args.instance)
    t0 = time.perf_counter()
    sub, info = bench_mod.run_algorithm(instance, args.algorithm, config=config, seed=args.seed)
    elapsed = time.perf_counter() - t0
    verdict = verify_feasible(sub)  # exact re-verification, never skipped
    params = {
        "seed": args.seed,
        "mst_lift": config.mst_lift,
        "gamma_mode": config.gamma_mode,
        "max_attempts": config.max_attempts,
    }
    params.update(info)
    payload = _solution_payload(args.algorithm, sub, verdict.feasible, params)
    _emit(args.out, json.dumps(payload, indent=2))
    if args.metrics:
        row = bench_mod.metrics_row(
            args.instance, args.algorithm, 0, sub, info, verdict.feasible, elapsed
        )
        if not instance.directed:
            row.lightness = bench_mod.lightness(sub.weight, minimum_spanning_tree(instance)[0])
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(bench_mod.rows_to_csv([row]))
    if not verdict.feasible:
        print(verdict.describe(), file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_verify(args) -> int:
    instance = _load_validated(args.instance)
    sub = Subgraph(instance, _load_edge_ids(args.solution, instance.m))
    verdict = verify_feasible(sub)
    result = {
        "feasible": verdict.feasible,
        "weight": format_rational(sub.weight),
        "size": sub.size,
        "violations": [
            {
                "u": v.u,
                "v": v.v,
                "delta": str(v.delta),
                "achieved": None if v.achieved is None else str(v.achieved),
            }
            for v in verdict.violations
        ],
    }
    print(json.dumps(result, indent=2))
    return EXIT_OK if verdict.feasible else EXIT_INFEASIBLE


def cmd_bench(args) -> int:
    config = bench_mod.ExperimentConfig.from_json(args.config)
    if args.threads is not None:  # through the config's own checks, as a file value would be
        config = dataclasses.replace(config, threads=args.threads)
    rows = bench_mod.run_experiment(config)
    text = bench_mod.rows_to_csv(rows) if args.format == "csv" else bench_mod.rows_to_json(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    summary = bench_mod.summarize(rows)
    print(json.dumps(summary, indent=2), file=sys.stderr)
    return EXIT_OK


def cmd_oracle(args) -> int:
    for flag, value, least in (  # checked whichever oracle runs, as solve checks its flags
        ("--length", args.length, 1), ("--alpha", args.alpha, 1), ("--exact-cap", args.exact_cap, 0),
        ("--cut-cap", args.cut_cap, 0), ("--beta", args.beta, 2),
    ):
        if value < least:
            raise ParseError(f"must be at least {least}, got {value}", field=flag)
    if args.oracle == "demo":
        report = dodis_khanna_demo(args.length, args.alpha)
        _emit(args.out, report.to_json() if args.format == "json" else report.to_text())
        return EXIT_OK

    if not args.instance:
        print(f"oracle {args.oracle!r} needs an instance file", file=sys.stderr)
        return EXIT_VALIDATION
    instance = _load_validated(args.instance)
    if args.oracle == "exact":
        result = exact_optimum(instance, max_edges=args.exact_cap)
        sub = Subgraph(instance, result.edge_set)
        payload = _solution_payload("exact", sub, True, {"nodes_explored": result.nodes_explored})
        _emit(args.out, json.dumps(payload, indent=2))
        return EXIT_OK
    if args.oracle == "cuts":
        if args.solution:
            edge_ids = _load_edge_ids(args.solution, instance.m)
        else:
            edge_ids = frozenset(range(instance.m))
        report = check_cut_lemma(
            Subgraph(instance, edge_ids), cap=args.cut_cap, seed=args.seed
        )
        payload = {
            "pairs": [
                {
                    "u": p.u,
                    "v": p.v,
                    "delta": p.delta,
                    "cuts": p.cut_count,
                    "satisfied": p.satisfied_count,
                    "within_budget": p.within_budget,
                }
                for p in report.pairs
            ],
            "nonascending_sampled": report.nonascending_sampled,
            "biconditional_holds": report.ok,
        }
        _emit(args.out, json.dumps(payload, indent=2))
        return EXIT_OK
    if args.oracle == "potential":
        trace: list = []
        augmented_greedy(instance, mst_lift=args.mst_lift, trace=trace)
        report = potential_monitor(instance, trace, args.beta)
        _emit(args.out, report.to_json() if args.format == "json" else report.to_text())
        return EXIT_OK
    raise SpannerError(f"unknown oracle {args.oracle!r}")


def cmd_export_lp(args) -> int:
    instance = _load_validated(args.instance)
    extension = build_extension(instance)
    model = build_mcf(extension)
    export_lp(model, args.out)
    print(
        f"wrote {args.out}: {model.num_vars} columns, "
        f"{model.num_ub} coupling + {model.b.shape[0] - model.num_ub} conservation rows, "
        f"{len(model.demands)} of {len(instance.demands)} pairs"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spannerkit",
        description="Spanner approximation algorithms with exact verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = bench_mod.ExperimentConfig  # a dataclass: its fields' defaults are class attributes

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("family", choices=list(WEIGHT_FAMILIES) + list(FIXED_INSTANCES))
    p_gen.add_argument("--n", type=int, default=8)
    p_gen.add_argument("--m", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--demands", choices=DEMAND_FAMILIES, default="multiplicative")
    p_gen.add_argument("--demand-pairs", choices=DEMAND_PAIRS, default="edges")
    p_gen.add_argument("--num-demands", type=int, default=None)
    p_gen.add_argument("--alpha", type=int, default=3)
    p_gen.add_argument("--beta", type=int, default=2)
    p_gen.add_argument("--freeform-factor", type=int, default=2)
    p_gen.add_argument("--integer-lengths", action="store_true")
    p_gen.add_argument("--directed", action="store_true")
    p_gen.add_argument("--out", required=True)

    p_solve = sub.add_parser("solve", help="run one algorithm on an instance")
    p_solve.add_argument("instance")
    p_solve.add_argument(
        "--algorithm", choices=bench_mod.ALGORITHMS, default="augmented-greedy"
    )
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--mst-lift", action="store_true")
    p_solve.add_argument("--gamma-mode", choices=GAMMA_MODES, default=defaults.gamma_mode)
    p_solve.add_argument("--confidence", type=float, default=defaults.confidence,
                         help="failure-odds divisor for --gamma-mode custom")
    p_solve.add_argument("--max-attempts", type=int, default=defaults.max_attempts)
    p_solve.add_argument("--exact-cap", type=int, default=defaults.exact_cap)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--metrics", default=None)

    p_verify = sub.add_parser("verify", help="exactly verify a solution file")
    p_verify.add_argument("instance")
    p_verify.add_argument("--solution", required=True)

    p_bench = sub.add_parser("bench", help="run a batch experiment from a config file")
    p_bench.add_argument("config")
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bench.add_argument("--threads", type=int, default=None)

    p_oracle = sub.add_parser("oracle", help="exact and brute-force reference tools")
    p_oracle.add_argument("oracle", choices=("exact", "cuts", "demo", "potential"))
    p_oracle.add_argument("instance", nargs="?")
    p_oracle.add_argument("--solution", default=None)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--exact-cap", type=int, default=defaults.exact_cap)
    p_oracle.add_argument("--cut-cap", type=int, default=10**6)
    p_oracle.add_argument("--beta", type=int, default=2)
    p_oracle.add_argument("--mst-lift", action="store_true")
    p_oracle.add_argument("--length", type=int, default=3)
    p_oracle.add_argument("--alpha", type=int, default=2)
    p_oracle.add_argument("--format", choices=("text", "json"), default="text")
    p_oracle.add_argument("--out", default=None)

    p_export = sub.add_parser("export-lp", help="write the flow LP in LP text format")
    p_export.add_argument("instance")
    p_export.add_argument("--out", required=True)

    return parser


def _internal_error(exc: BaseException) -> int:
    """A bug, not a user error: one line, no traceback."""
    print(f"internal error: {type(exc).__name__}: {exc}".splitlines()[0], file=sys.stderr)
    return EXIT_ASSERTION


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "solve": cmd_solve,
        "verify": cmd_verify,
        "bench": cmd_bench,
        "oracle": cmd_oracle,
        "export-lp": cmd_export_lp,
    }
    try:
        code = handlers[args.command](args)
    except (InvalidInstance, ParseError) as exc:
        print(str(exc), file=sys.stderr)
        code = EXIT_VALIDATION
    except (LemmaViolation, MonotonicityViolation) as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        code = EXIT_ASSERTION
    except SpannerError as exc:
        print(str(exc), file=sys.stderr)
        code = EXIT_INFEASIBLE
    except OSError as exc:
        if exc.filename is None:
            code = _internal_error(exc)
        else:  # a path from the command line that cannot be opened
            print(f"cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
            code = EXIT_VALIDATION
    except Exception as exc:
        code = _internal_error(exc)
    if code:
        sys.exit(code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
