"""Multicommodity-flow LP over the layered extension, solving, and export.

One commodity is shipped from ``u_0`` to ``v_delta(u,v)`` per metric pair:
each demand that no chain of other demands implies
(:attr:`IntegerInstance.metric`), in demand order, so commodity k is the
k-th kept pair.  A subgraph meets every demand iff it meets the kept ones, so
the spanner problem's optimum OPT is unchanged, and LP(metric) <= LP(all
pairs) <= OPT: the rounding analysis holds on the smaller LP.  An instance
with no implied pair gets the model of all its pairs.
A pair gets a flow variable only for the arcs on some ``u_0 -> v_delta``
path: the extension is acyclic, so every feasible flow decomposes into such
paths and any other arc carries zero flow, which leaves the optimum unchanged.
Those arcs are read off the pair's budget window in the base graph (one
forward search from u and one reverse search to v, each bounded at delta),
one pass over the extension's arc runs: the arc ``s_i -> t_{i+L}`` of a run
is kept iff ``d(u,s) <= i <= delta - L - d(t,v)``, and a node's waiting arcs
are the runs with ``s == t`` and ``L == 1``.  The kept arcs of a run are
consecutive, and the runs are in arc-id order, so a pair's columns are its
kept runs laid end to end.  One edge variable per original edge follows (a
single shared variable per undirected edge).  Each kept edge run is one
coupling row, forcing its edge variable active whenever any of its arcs
carries that pair's flow; conservation rows are written for every extension
node a pair's columns touch.  A pair with no route keeps its empty
source and sink rows, so its model stays infeasible.  All variables live in
[0,1]; edge variables of edges too long to ever help are fixed to 0.

The flow LP is one concrete model, :class:`McfModel`, with one solve and one
export: ``solve_lp`` hands its sparse matrices to scipy's HiGHS, and
``export_lp`` writes it in CPLEX LP text format for external solvers.

numpy and scipy are imported inside ``build_mcf``, ``solve_lp`` and
``export_lp``, not at module level: numpy and
scipy.sparse take about 0.4 s and 35 MB to import in a fresh interpreter, which
the greedy solvers, the exact oracle and the verifier never need.  Importing
this module loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import SolverFailure, TooLarge
from .extension import DeltaExtension
from .graph import budget_window
from .instance import Demand

if TYPE_CHECKING:
    import numpy as np
    import scipy.sparse as sp

# The most flow columns build_mcf builds; over it, it raises TooLarge before
# allocating any.  Measured on a 2-core host: a model takes about 1.4 KB of
# memory per column once HiGHS holds it, and HiGHS time grows faster than the
# columns (300,003 columns: 13 s and 576 MB).  The cap admits every pinned
# model and rejects the triangle of length-10^6 edges (3,000,003 columns),
# which used to run into HiGHS's bad_alloc.  An admitted model can still be
# slow: coupled all-pairs n=40 at the CLI's default alpha had 902,797 columns
# on all 780 pairs and ran for over 9 minutes at 1.3 GB; on its 74 metric
# pairs it has 5,778 and solves in well under a second.
MAX_FLOW_COLUMNS = 1_000_000


@dataclass
class McfModel:
    """The flow LP ``min c'x  s.t.  a_ub x <= b_ub,  a_eq x = b_eq,  0 <= x <= upper``.

    Columns are each commodity's flow columns, then the edge variables.
    ``demands`` are the commodities: the instance's own demand records at
    the indices :attr:`IntegerInstance.metric` keeps, with their bounds in
    instance units; each commodity's sink layer is the demand's scaled
    bound, ``floor(delta)`` at the extension's scale 1 (``scaled.bounds``).
    ``a_ub`` holds the coupling rows ``sum_i f_(pair,arc_i) - x_e <= 0`` and
    ``a_eq`` the conservation rows, one per (pair, touched extension node);
    both are sparse.  Every upper bound is 1, or 0 for an edge too long to
    help.
    """

    c: np.ndarray
    a_ub: sp.csr_matrix
    b_ub: np.ndarray
    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    upper: np.ndarray
    extension: DeltaExtension
    demands: tuple[Demand, ...]  # one per commodity, in demand order
    flow_arcs: tuple[tuple[int, ...], ...]  # per commodity: the arc id of each flow column
    num_edge_vars: int

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]

    @property
    def num_flow_vars(self) -> int:
        return sum(map(len, self.flow_arcs))

    def var_names(self) -> list[str]:
        names = [f"f_k{k}_a{a}" for k, arcs in enumerate(self.flow_arcs) for a in arcs]
        names += [f"x_e{e}" for e in range(self.num_edge_vars)]
        return names


def build_mcf(extension: DeltaExtension) -> McfModel:
    """Assemble the flow LP for the extension's instance, one commodity per metric pair.

    The commodities are the demands no chain of other demands implies
    (:attr:`IntegerInstance.metric`, computed once per instance): budget
    windows, flow columns, coupling and conservation rows are built for them
    only.  Every subgraph that meets them meets every demand, so the
    spanner problem's optimum is unchanged and the LP still bounds it from
    below.  The extension is as deep as the instance's largest bound, so
    every pair's sink layer ``v_delta`` exists.  Raises :class:`TooLarge` when the
    kept runs hold more than :data:`MAX_FLOW_COLUMNS` columns, counted
    before any column is built.
    """
    import numpy as np
    import scipy.sparse as sp

    inst = extension.instance.scaled
    demands = tuple(inst.demands[i] for i in inst.metric)
    bounds = tuple(inst.bounds[i] for i in inst.metric)
    kept_runs = []  # per pair: (run, lo, hi) for each run whose arcs lo .. hi-1 are kept
    for i, bound in zip(inst.metric, bounds):
        from_u, to_v = budget_window(inst, i)
        runs = []
        for g in extension.groups:
            if from_u[g.tail] is not None and to_v[g.head] is not None:
                lo, hi = from_u[g.tail], bound - g.length - to_v[g.head] + 1
                if lo < hi:
                    runs.append((g, lo, hi))
        kept_runs.append(runs)
    num_flow = sum(hi - lo for runs in kept_runs for _, lo, hi in runs)
    if num_flow > MAX_FLOW_COLUMNS:
        raise TooLarge(f"the flow LP needs {num_flow} flow columns, over the cap of {MAX_FLOW_COLUMNS}")
    flow_arcs = tuple(
        tuple(a for g, lo, hi in runs for a in range(g.first + lo, g.first + hi))
        for runs in kept_runs
    )
    num_vars = num_flow + inst.m

    layers = extension.delta_bar + 1
    rows_ub: list[int] = []
    cols_ub: list[int] = []
    vals_ub: list[float] = []
    rows_eq: list[int] = []
    cols_eq: list[int] = []
    vals_eq: list[float] = []
    b_eq: list[float] = []
    num_ub = 0
    col = 0
    for d, bound, runs in zip(demands, bounds, kept_runs):
        source = extension.node_id(d.u, 0)
        sink = extension.node_id(d.v, bound)
        rhs = {source: 1.0}
        rhs[sink] = rhs.get(sink, 0.0) - 1.0
        nodes = {q for q, value in rhs.items() if value}
        for g, lo, hi in runs:
            tail, head = g.tail * layers, g.head * layers + g.length  # arc i: tail+i -> head+i
            nodes.update(range(tail + lo, tail + hi), range(head + lo, head + hi))
        row_of = {}
        for q in sorted(nodes):
            row_of[q] = len(b_eq)
            b_eq.append(rhs.get(q, 0.0))
        for g, lo, hi in runs:
            cols = range(col, col + hi - lo)
            col += hi - lo
            # Each kept edge run is one coupling row; waiting arcs couple to nothing.
            if g.edge is not None:
                rows_ub += [num_ub] * (len(cols) + 1)
                cols_ub += [*cols, num_flow + g.edge]
                vals_ub += [1.0] * len(cols) + [-1.0]
                num_ub += 1
            tail, head = g.tail * layers, g.head * layers + g.length
            for i, j in zip(range(lo, hi), cols):
                rows_eq += (row_of[tail + i], row_of[head + i])
                cols_eq += (j, j)
                vals_eq += (1.0, -1.0)

    c = np.zeros(num_vars)
    upper = np.ones(num_vars)
    for e, edge in enumerate(inst.edges):
        c[num_flow + e] = float(edge.weight)
        if inst.lengths[e] > extension.delta_bar:
            upper[num_flow + e] = 0.0  # cannot appear in any within-budget path
    return McfModel(
        c=c,
        a_ub=sp.csr_matrix((vals_ub, (rows_ub, cols_ub)), shape=(num_ub, num_vars)),
        b_ub=np.zeros(num_ub),
        a_eq=sp.csr_matrix((vals_eq, (rows_eq, cols_eq)), shape=(len(b_eq), num_vars)),
        b_eq=np.array(b_eq),
        upper=upper,
        extension=extension,
        demands=demands,
        flow_arcs=flow_arcs,
        num_edge_vars=inst.m,
    )


_HIGHS_STATUS = {1: "iteration_limit", 2: "infeasible", 3: "unbounded"}


@dataclass
class FractionalSolution:
    model: McfModel
    objective: float
    x: np.ndarray  # per edge variable, clamped into [0,1]
    f: np.ndarray  # per flow column, in the model's column order
    primal_residual: float
    iterations: int  # HiGHS's iteration count (``res.nit``)


def solve_lp(model: McfModel) -> FractionalSolution:
    """Solve the model with scipy's HiGHS.

    Raises :class:`SolverFailure` carrying the solver's status on anything but
    an optimum, and wraps any exception the solver raises.  numpy and
    scipy.optimize are imported here rather than at module level: with
    scipy.sparse they take about 0.8 s and 60 MB to import in a fresh
    interpreter, which callers that never solve an LP should not pay.
    """
    import numpy as np
    from scipy.optimize import linprog

    try:
        res = linprog(
            model.c,
            A_ub=model.a_ub,
            b_ub=model.b_ub,
            A_eq=model.a_eq,
            b_eq=model.b_eq,
            bounds=np.column_stack((np.zeros(model.num_vars), model.upper)),
            method="highs",
        )
    except Exception as exc:
        raise SolverFailure("failed", f"{type(exc).__name__}: {exc}") from exc
    if res.status != 0 or res.x is None:
        raise SolverFailure(_HIGHS_STATUS.get(res.status, "failed"), res.message)
    values = res.x
    num_flow = model.num_flow_vars
    x_edges = np.clip(values[num_flow:], 0.0, 1.0) + 0.0  # + 0.0 turns HiGHS's -0.0 into 0.0
    resid_eq = float(np.max(np.abs(model.a_eq @ values - model.b_eq), initial=0.0))
    resid_ub = float(np.max(model.a_ub @ values - model.b_ub, initial=0.0))
    objective = float(model.c[num_flow:] @ x_edges)
    return FractionalSolution(
        model, objective, x_edges, values[:num_flow], max(resid_eq, resid_ub), int(res.nit)
    )


# ---------------------------------------------------------------------------
# LP text format (CPLEX-style) export


def _fmt_coef(value: float, name: str, first: bool) -> str:
    sign = "-" if value < 0 else ("" if first else "+")
    mag = abs(value)
    coef = "" if mag == 1.0 else f"{mag:.12g} "
    sep = "" if first and sign == "" else " "
    return f"{sign}{sep}{coef}{name}".strip()


def export_lp(model: McfModel, path: str) -> None:
    """Write the model in CPLEX LP text format (Minimize/Subject To/Bounds/End)."""
    import numpy as np

    names = model.var_names()
    lines = ["\\ spannerkit flow model", "Minimize"]
    terms = [
        _fmt_coef(model.c[j], names[j], first=(i == 0))
        for i, j in enumerate(np.flatnonzero(model.c != 0))
    ]
    if not terms and names:
        terms = [f"0 {names[0]}"]
    lines.append(" obj: " + " ".join(terms))
    lines.append("Subject To")
    row_id = 0
    for a_mat, rhs, op in ((model.a_ub, model.b_ub, "<="), (model.a_eq, model.b_eq, "=")):
        for r in range(a_mat.shape[0]):
            row = slice(a_mat.indptr[r], a_mat.indptr[r + 1])
            terms = [
                _fmt_coef(value, names[j], first=(i == 0))
                for i, (j, value) in enumerate(zip(a_mat.indices[row], a_mat.data[row]))
            ]
            if not terms:
                terms = [f"0 {names[0]}"]
            lines.append(f" c{row_id}: " + " ".join(terms) + f" {op} {rhs[r]:.12g}")
            row_id += 1
    lines.append("Bounds")
    for j, name in enumerate(names):
        lines.append(f" 0 <= {name} <= {model.upper[j]:.12g}")
    lines.append("End")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
