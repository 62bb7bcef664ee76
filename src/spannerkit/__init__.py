"""spannerkit: approximation algorithms and exact oracles for graph spanners
with independent edge weights, lengths, and per-pair distance bounds.

Two solvers:

* :func:`augmented_greedy` -- find the smallest feasible edge-weight
  threshold (a guard at the second-largest weight, then a record-breaking
  pass over the sources), then greedily sparsify inside it (deterministic,
  any rational lengths, weight at most m times the optimum);
* :func:`solve_randomized` -- round an optimal multicommodity-flow solution
  over a layered length-encoding extension (integer lengths, feasible with
  high probability at an ln-factor expected weight).

Plus the reference machinery that certifies both at desk scale:
:func:`exact_optimum`, ascending-cut enumeration, and exact feasibility
verification on the instance's scaled integers (every length times the lcm
of the length denominators, every bound floored to match).

``import spannerkit`` loads the greedy core: ``errors``, ``rational``,
``instance``, ``graph``, ``greedy`` and ``generators``.  The LP and
exact-oracle modules (``extension``, ``mcf``, ``oracles`` and ``rounding``)
and the names re-exported from them load on first access through the
module's ``__getattr__`` (PEP 562), so a caller that only generates, solves
greedily, verifies and saves never compiles or runs them.  A lazy name is
read from its defining module on every access and never stored here, so it
is always that module's current binding, also while one is patched.
"""

from .errors import (
    DirectedInstance,
    InfeasibleInstance,
    InvalidInstance,
    LemmaViolation,
    MonotonicityViolation,
    NonIntegerLength,
    ParseError,
    SolverFailure,
    SpannerError,
    TooLarge,
    TooManyCuts,
    UnsatisfiableDemand,
)
from .generators import (
    dk_edge,
    example5,
    fixed_instance,
    nonmetric_triangle,
    random_instance,
)
from .graph import (
    Verdict,
    graph_view,
    lex_shortest_path,
    minimum_spanning_tree,
    shortest_distances,
    verify_feasible,
)
from .greedy import (
    AugmentedGreedyReport,
    WeightThresholdResult,
    augmented_greedy,
    greedy,
    weight_threshold_search,
)
from .instance import (
    Demand,
    Edge,
    SpannerInstance,
    Subgraph,
    ValidationReport,
    load,
    require_integer_lengths,
    save,
    validate,
)
from .rational import Rational, format_rational, parse_rational

__version__ = "0.1.0"

# The names loaded on first access, each -> its defining submodule; a
# submodule's own name maps to itself.
_LAZY = {
    "extension": "extension",
    "DeltaExtension": "extension",
    "build_extension": "extension",
    "mcf": "mcf",
    "FractionalSolution": "mcf",
    "McfModel": "mcf",
    "build_mcf": "mcf",
    "export_lp": "mcf",
    "solve_lp": "mcf",
    "oracles": "oracles",
    "CutLabeling": "oracles",
    "ExactResult": "oracles",
    "check_cut_lemma": "oracles",
    "dodis_khanna_demo": "oracles",
    "enumerate_ascending_cuts": "oracles",
    "exact_optimum": "oracles",
    "potential_monitor": "oracles",
    "restricted_subgraph": "oracles",
    "rounding": "rounding",
    "GammaSpec": "rounding",
    "RandomizedRoundingReport": "rounding",
    "RoundingRun": "rounding",
    "derive_seed": "rounding",
    "gamma": "rounding",
    "round_solution": "rounding",
    "solve_randomized": "rounding",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    home = import_module(f"{__name__}.{module}")
    return home if name == module else getattr(home, name)


def __dir__() -> list[str]:
    return sorted(set(globals()).union(_LAZY).difference(("_LAZY", "__getattr__", "__dir__")))


__all__ = [
    "AugmentedGreedyReport",
    "CutLabeling",
    "DeltaExtension",
    "Demand",
    "DirectedInstance",
    "Edge",
    "ExactResult",
    "FractionalSolution",
    "GammaSpec",
    "InfeasibleInstance",
    "InvalidInstance",
    "LemmaViolation",
    "McfModel",
    "MonotonicityViolation",
    "NonIntegerLength",
    "ParseError",
    "RandomizedRoundingReport",
    "Rational",
    "RoundingRun",
    "SolverFailure",
    "SpannerError",
    "SpannerInstance",
    "Subgraph",
    "TooLarge",
    "TooManyCuts",
    "UnsatisfiableDemand",
    "ValidationReport",
    "Verdict",
    "WeightThresholdResult",
    "augmented_greedy",
    "build_extension",
    "build_mcf",
    "check_cut_lemma",
    "derive_seed",
    "dk_edge",
    "dodis_khanna_demo",
    "enumerate_ascending_cuts",
    "exact_optimum",
    "example5",
    "export_lp",
    "fixed_instance",
    "format_rational",
    "gamma",
    "graph_view",
    "greedy",
    "lex_shortest_path",
    "load",
    "minimum_spanning_tree",
    "nonmetric_triangle",
    "parse_rational",
    "potential_monitor",
    "random_instance",
    "require_integer_lengths",
    "restricted_subgraph",
    "round_solution",
    "save",
    "shortest_distances",
    "solve_lp",
    "solve_randomized",
    "validate",
    "verify_feasible",
    "weight_threshold_search",
]
