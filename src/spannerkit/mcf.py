"""Multicommodity-flow LP over the layered extension, solving, and export.

One commodity is shipped from ``u_0`` to ``v_delta(u,v)`` per metric pair:
each demand that no chain of other demands implies
(:attr:`SpannerInstance.metric`), in demand order, so commodity k is the
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
export.  ``build_mcf`` writes its rows, the coupling rows over the
conservation rows, as the three column-wise arrays HiGHS reads (column
starts, row indices, values); ``solve_lp`` passes them as they are to HiGHS
through scipy's bundled bindings (``scipy.optimize._highspy._core``, loaded
from its file), with the options scipy's ``linprog`` would set, and
``export_lp`` writes the model in CPLEX LP text format for external solvers.

numpy is imported inside ``build_mcf``, ``solve_lp`` and ``export_lp``, and
the HiGHS extension inside ``solve_lp``, not at module level: numpy takes
about 0.1 s and 11 MB to import in a fresh interpreter, which the greedy
solvers, the exact oracle and the verifier never need.  Importing this
module loads neither, and no function here loads ``scipy.optimize`` or
``scipy.sparse`` (``McfModel.a_ub``/``a_eq`` load the latter when read).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
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
    the indices :attr:`SpannerInstance.metric` keeps, with their bounds in
    instance units; each commodity's sink layer is the demand's scaled
    bound, ``floor(delta)`` at the extension's scale 1 (``instance.bounds``).
    The rows are one column-wise matrix with right-hand sides ``b``: first
    the ``num_ub`` coupling rows ``sum_i f_(pair,arc_i) - x_e <= 0`` (``b``
    is 0 there), then the conservation rows, one per (pair, touched
    extension node).  The matrix is held as canonical CSC arrays: column j's
    entries are ``index[start[j]:start[j+1]]`` (row indices, ascending) and
    ``value[start[j]:start[j+1]]``, with ``int32`` starts and indices, HiGHS's
    own index type.  ``a_ub``/``b_ub`` and ``a_eq``/``b_eq`` read the two
    blocks off it (``a_ub`` and ``a_eq`` as scipy CSR arrays, importing
    ``scipy.sparse`` when read).  Every upper bound is 1, or 0 for an edge
    too long to help.
    """

    c: np.ndarray
    start: np.ndarray  # int32, num_vars + 1 column starts
    index: np.ndarray  # int32, the row of each entry
    value: np.ndarray  # float64, each entry's coefficient
    b: np.ndarray
    num_ub: int
    upper: np.ndarray
    extension: DeltaExtension
    demands: tuple[Demand, ...]  # one per commodity, in demand order
    flow_arcs: tuple[tuple[int, ...], ...]  # per commodity: the arc id of each flow column
    num_edge_vars: int

    def _rows(self, rows: slice) -> sp.csr_array:
        import scipy.sparse as sp

        a = sp.csc_array((self.value, self.index, self.start), shape=(self.b.shape[0], self.num_vars))
        return a[rows].tocsr()

    @property
    def a_ub(self) -> sp.csr_array:
        return self._rows(slice(None, self.num_ub))

    @property
    def b_ub(self) -> np.ndarray:
        return self.b[: self.num_ub]

    @property
    def a_eq(self) -> sp.csr_array:
        return self._rows(slice(self.num_ub, None))

    @property
    def b_eq(self) -> np.ndarray:
        return self.b[self.num_ub :]

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
    (:attr:`SpannerInstance.metric`, computed once per instance): budget
    windows, flow columns, coupling and conservation rows are built for them
    only.  Every subgraph that meets them meets every demand, so the
    spanner problem's optimum is unchanged and the LP still bounds it from
    below.  The extension is as deep as the instance's largest bound, so
    every pair's sink layer ``v_delta`` exists.  Raises :class:`TooLarge` when the
    kept runs hold more than :data:`MAX_FLOW_COLUMNS` columns, counted
    before any column is built.
    """
    import numpy as np

    inst = extension.instance
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
    num_ub = sum(g.edge is not None for runs in kept_runs for g, _, _ in runs)
    # The matrix in canonical CSC form, written column by column in ascending
    # row order: HiGHS's own arrays, which solve_lp passes on as they are.
    start: list[int] = []
    index: list[int] = []
    value: list[float] = []
    edge_rows: list[list[int]] = [[] for _ in range(inst.m)]  # each edge column's coupling rows
    b = [0.0] * num_ub  # each conservation row k is row num_ub + k
    coupling = 0
    for d, bound, runs in zip(demands, bounds, kept_runs):
        source = extension.node_id(d.u, 0)
        sink = extension.node_id(d.v, bound)
        rhs = {source: 1.0}
        rhs[sink] = rhs.get(sink, 0.0) - 1.0
        nodes = {q for q, net in rhs.items() if net}
        for g, lo, hi in runs:
            tail, head = g.tail * layers, g.head * layers + g.length  # arc i: tail+i -> head+i
            nodes.update(range(tail + lo, tail + hi), range(head + lo, head + hi))
        row_of = {}
        for q in sorted(nodes):
            row_of[q] = len(b)
            b.append(rhs.get(q, 0.0))
        for g, lo, hi in runs:
            tail, head = g.tail * layers, g.head * layers + g.length
            out = [row_of[q] for q in range(tail + lo, tail + hi)]  # +1 in arc i's column
            into = [row_of[q] for q in range(head + lo, head + hi)]  # -1 in arc i's column
            # Rows follow node order, so one comparison orders a whole run's two conservation rows.
            first, second, signs = (out, into, (1.0, -1.0)) if tail < head else (into, out, (-1.0, 1.0))
            # Each kept edge run is one coupling row, above every conservation row; waiting
            # arcs couple to nothing.
            if g.edge is not None:
                edge_rows[g.edge].append(coupling)
                signs = (1.0, *signs)
            width = len(signs)
            entries = [coupling] * (width * (hi - lo))
            entries[width - 2 :: width] = first
            entries[width - 1 :: width] = second
            start += range(len(index), len(index) + len(entries), width)
            index += entries
            value += signs * (hi - lo)
            coupling += g.edge is not None
    for rows in edge_rows:
        start.append(len(index))
        index += rows
        value += [-1.0] * len(rows)
    start.append(len(index))

    c = np.zeros(num_vars)
    upper = np.ones(num_vars)
    for e, edge in enumerate(inst.edges):
        c[num_flow + e] = float(edge.weight)
        if inst.lengths[e] > extension.delta_bar:
            upper[num_flow + e] = 0.0  # cannot appear in any within-budget path
    return McfModel(
        c=c,
        start=np.array(start, dtype=np.int32),
        index=np.array(index, dtype=np.int32),
        value=np.array(value),
        b=np.array(b),
        num_ub=num_ub,
        upper=upper,
        extension=extension,
        demands=demands,
        flow_arcs=flow_arcs,
        num_edge_vars=inst.m,
    )


# HiGHS's model status -> SolverFailure.status, as scipy's linprog mapped it;
# every other status but kOptimal is "failed".  HiGHS reports a model it
# refuses to load (say, an upper bound of -inf) as kModelError.
_FAILURE_STATUS = {
    "kInfeasible": "infeasible",
    "kModelError": "infeasible",
    "kUnbounded": "unbounded",
    "kTimeLimit": "iteration_limit",
    "kIterationLimit": "iteration_limit",
}
# How far an optimum may miss a row or a bound before it counts as a failure:
# linprog's check of HiGHS's answer, 10 * sqrt(1e-9).
_FEASIBILITY_TOL = 10 * 1e-9**0.5


@dataclass
class FractionalSolution:
    model: McfModel
    objective: float
    x: np.ndarray  # per edge variable, clamped into [0,1]
    f: np.ndarray  # per flow column, in the model's column order
    primal_residual: float
    iterations: int  # HiGHS's simplex (or, failing that, IPM) iteration count


_HIGHS = "scipy.optimize._highspy._core"  # the extension module solve_lp calls


def _highs_bindings():
    """scipy's HiGHS extension module, loaded without running ``scipy/optimize/__init__.py``.

    The module already in ``sys.modules`` under its name, if any; otherwise
    the extension file in scipy's ``optimize/_highspy`` directory, entered in
    ``sys.modules`` so that a later ``import scipy.optimize._highspy._core``
    (``linprog``'s among them) returns the same module.  Importing
    ``scipy.optimize`` would also import every optimizer, ``scipy.sparse``
    and ``scipy.linalg``: 0.37 s and 40 MB once numpy is loaded, against
    0.02-0.03 s and 5 MB here, on a shared 2-core host.  Raises
    :class:`ImportError` when scipy or the extension is missing.
    """
    if _HIGHS in sys.modules:
        return importlib.import_module(_HIGHS)  # raises ModuleNotFoundError for a None entry
    import scipy

    folder = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(_HIGHS, [folder])
    if spec is None:
        raise ModuleNotFoundError(f"No module named {_HIGHS!r} in {folder}", name=_HIGHS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_HIGHS] = module
    return module


def solve_lp(model: McfModel) -> FractionalSolution:
    """Solve the model with HiGHS's dual simplex, through scipy's bundled bindings.

    HiGHS gets the model's column-wise arrays as they are, the row bounds
    ``-inf <= a_ub x <= b_ub`` and ``b_eq <= a_eq x <= b_eq``, the column
    bounds ``0 <= x <= upper`` and the five options ``linprog(method="highs")``
    sets: presolve on, dual simplex, no debug checks, no log, no output.

    Raises :class:`SolverFailure` carrying the solver's status on anything
    but an optimum within :data:`_FEASIBILITY_TOL` of every row and bound.
    It also raises one on a non-finite cost (which linprog rejected and
    HiGHS would solve) or a NaN upper bound, when scipy lacks the bindings,
    and in place of any exception the solver raises.  numpy and the bindings
    (:func:`_highs_bindings`) are imported here rather than at module level:
    about 0.1 s and 16 MB in a fresh interpreter, which callers that never
    solve an LP should not pay.
    """
    import numpy as np

    try:
        highspy = _highs_bindings()
    except ImportError as exc:
        raise SolverFailure("failed", f"{type(exc).__name__}: {exc}") from exc
    if not np.isfinite(model.c).all() or np.isnan(model.upper).any():
        raise SolverFailure("failed", "ValueError: a cost is not finite or an upper bound is NaN")
    num_rows, num_vars = model.b.shape[0], model.num_vars
    row_lower = model.b.copy()
    row_lower[: model.num_ub] = -highspy.kHighsInf  # the coupling rows: -inf <= a_ub x <= b_ub
    try:
        lp = highspy.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = num_vars
        lp.num_row_ = lp.a_matrix_.num_row_ = num_rows
        lp.a_matrix_.format_ = highspy.MatrixFormat.kColwise
        lp.a_matrix_.start_ = model.start
        lp.a_matrix_.index_ = model.index
        lp.a_matrix_.value_ = model.value
        lp.col_cost_ = model.c
        lp.col_lower_ = np.zeros(num_vars)
        lp.col_upper_ = model.upper
        lp.row_lower_ = row_lower
        lp.row_upper_ = model.b
        options = highspy.HighsOptions()
        options.presolve = "on"
        options.highs_debug_level = highspy.HighsDebugLevel.kHighsDebugLevelNone
        options.log_to_console = False
        options.output_flag = False
        options.simplex_strategy = highspy.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        highs = highspy._Highs()
        if highs.passOptions(options) == highspy.HighsStatus.kError:
            status = highs.getModelStatus()
        elif highs.passModel(lp) == highspy.HighsStatus.kError:
            status = highspy.HighsModelStatus.kModelError
        else:
            highs.run()
            status = highs.getModelStatus()
        message = highs.modelStatusToString(status)
        if status == highspy.HighsModelStatus.kOptimal:
            values = np.array(highs.getSolution().col_value)
            info = highs.getInfo()
            iterations = info.simplex_iteration_count or info.ipm_iteration_count
    except Exception as exc:
        raise SolverFailure("failed", f"{type(exc).__name__}: {exc}") from exc
    if status != highspy.HighsModelStatus.kOptimal:
        raise SolverFailure(_FAILURE_STATUS.get(status.name, "failed"), message)
    num_flow = model.num_flow_vars
    x_edges = np.clip(values[num_flow:], 0.0, 1.0) + 0.0  # + 0.0 turns HiGHS's -0.0 into 0.0
    # a @ values, adding each row's entries in column order as scipy's CSC product does
    products = np.repeat(values, np.diff(model.start)) * model.value
    rows = np.bincount(model.index, weights=products, minlength=num_rows) - model.b
    residual = max(
        float(np.max(np.abs(rows[model.num_ub :]), initial=0.0)),
        float(np.max(rows[: model.num_ub], initial=0.0)),
    )
    tol = _FEASIBILITY_TOL
    if not (residual <= tol and np.all((-tol <= values) & (values <= model.upper + tol))):
        raise SolverFailure("failed", f"the optimum misses a row or a bound by more than {tol:.2e}")
    objective = float(model.c[num_flow:] @ x_edges)
    return FractionalSolution(model, objective, x_edges, values[:num_flow], residual, int(iterations))


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
    # The rows off the column-wise arrays: a stable sort by row keeps each row's
    # entries in column order, as a CSR copy of the matrix would hold them.
    num_rows = model.b.shape[0]
    order = np.argsort(model.index, kind="stable")
    cols = np.repeat(np.arange(model.num_vars), np.diff(model.start))[order]
    values = model.value[order]
    ends = np.cumsum(np.bincount(model.index, minlength=num_rows))
    for r in range(num_rows):
        row = slice(ends[r - 1] if r else 0, ends[r])
        terms = [
            _fmt_coef(value, names[j], first=(i == 0))
            for i, (j, value) in enumerate(zip(cols[row], values[row]))
        ]
        if not terms:
            terms = [f"0 {names[0]}"]
        op = "<=" if r < model.num_ub else "="
        lines.append(f" c{r}: " + " ".join(terms) + f" {op} {model.b[r]:.12g}")
    lines.append("Bounds")
    for j, name in enumerate(names):
        lines.append(f" 0 <= {name} <= {model.upper[j]:.12g}")
    lines.append("End")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
