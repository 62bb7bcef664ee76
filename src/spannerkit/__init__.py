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
verification on rational arithmetic.
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
from .extension import DeltaExtension, build_extension
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
    reduce_to_metric_pairs,
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
    IntegerInstance,
    SpannerInstance,
    Subgraph,
    ValidationReport,
    load,
    require_integer_lengths,
    save,
    validate,
)
from .mcf import FractionalSolution, McfModel, build_mcf, export_lp, solve_lp
from .oracles import (
    CutLabeling,
    ExactResult,
    check_cut_lemma,
    dodis_khanna_demo,
    enumerate_ascending_cuts,
    exact_optimum,
    potential_monitor,
    restricted_subgraph,
)
from .rational import Rational, format_rational, parse_rational
from .rounding import (
    GammaSpec,
    RandomizedRoundingReport,
    RoundingRun,
    derive_seed,
    gamma,
    round_solution,
    solve_randomized,
)

__version__ = "0.1.0"

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
    "IntegerInstance",
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
    "reduce_to_metric_pairs",
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
