"""Span tracer that wraps spannerkit's public functions at every module binding.

A function such as ``graph.verify_feasible`` is reachable under several
names: ``spannerkit.graph.verify_feasible``, ``spannerkit.greedy.verify_feasible``
(bound by ``from .graph import verify_feasible``), ``spannerkit.verify_feasible``
and so on.  ``Tracer.install`` replaces every binding that is the original
function object with one wrapper, so each call is recorded once whichever
name the caller used.  ``uninstall`` restores the originals.

Each call becomes a span ``(id, parent_id, name, start, end, error, attr)``;
``attr`` holds one small fact about the result (e.g. whether a feasibility
check passed), used for the derived counters.  Spans stay in memory; the
aggregate is computed by ``summarize``.  A function missing from the package
(deleted or renamed by a later change) is reported in ``absent`` instead of
failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

PACKAGE = "spannerkit"


def _feasible(result):
    return bool(result.feasible)


def _num_restricted(result):
    return len(result.restricted_edges)


def _num_arcs(result):
    return len(result.arcs)


def _lp_shape(result):
    rows = result.a_ub.shape[0] + result.a_eq.shape[0]
    return (int(result.num_vars), int(rows), int(result.a_ub.nnz + result.a_eq.nnz))


def _nodes_explored(result):
    return int(result.nodes_explored)


# (defining module, function name) -> extractor of the span attribute, or None.
TRACED = {
    ("instance", "load"): None,
    ("instance", "validate"): None,
    ("generators", "random_instance"): None,
    ("graph", "verify_feasible"): _feasible,
    ("graph", "shortest_distances"): None,
    ("graph", "dijkstra"): None,
    ("graph", "graph_view"): None,
    ("graph", "minimum_spanning_tree"): None,
    ("greedy", "weight_threshold_search"): _num_restricted,
    ("greedy", "greedy"): None,
    ("extension", "build_extension"): _num_arcs,
    ("mcf", "build_mcf"): _lp_shape,
    ("mcf", "solve_lp"): None,
    ("rounding", "gamma"): None,
    ("rounding", "round_solution"): _feasible,
    ("oracles", "exact_optimum"): _nodes_explored,
    ("bench", "run_experiment"): None,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        homes = {}
        for mod_name, _ in TRACED:
            try:
                homes[mod_name] = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                homes[mod_name] = None
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        self.absent = []
        for (mod_name, fn_name), extract in TRACED.items():
            original = getattr(homes[mod_name], fn_name, None)
            if not callable(original):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}", extract)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, extract):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, type(exc).__name__, None))
                raise
            end = clock()
            stack.pop()
            attr = None
            if extract is not None:
                try:
                    attr = extract(result)
                except (AttributeError, TypeError):
                    attr = None
            spans.append((sid, parent, name, start, end, None, attr))
            return result

        return wrapper

    @contextlib.contextmanager
    def root(self, name: str):
        """Span for one of the harness's own phases (set-up, warm-up, a pass)."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        start = time.perf_counter()
        error = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            self.spans.append((sid, parent, name, start, time.perf_counter(), error, None))

    def take(self) -> list[tuple]:
        """Return the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(spans: list[tuple]) -> dict:
    """Per-name calls, inclusive and self seconds, plus derived counters.

    Self time is a span's duration minus the durations of its direct child
    spans; the process is single-threaded, so children never overlap.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for sid, parent, _name, start, end, _err, _attr in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def has_ancestor(span, wanted: str) -> bool:
        parent = span[1]
        while parent:
            anc = by_id.get(parent)
            if anc is None:
                return False
            if anc[2] == wanted:
                return True
            parent = anc[1]
        return False

    layers: dict[str, dict] = {}
    counts = {
        "greedy.threshold_probes": 0,
        "greedy.threshold_probes_feasible": 0,
        "greedy.greedy.dijkstra_calls": 0,
        "greedy.w_star_edges": 0,
        "extension.arcs": 0,
        "mcf.lp_vars": 0,
        "mcf.lp_rows": 0,
        "mcf.lp_nnz": 0,
        "mcf.solve_lp.failures": 0,
        "rounding.attempts_feasible": 0,
        "oracles.nodes_explored": 0,
        "bench.exact_optimum_under_run_experiment": 0,
    }
    for span in spans:
        sid, parent, name, start, end, err, attr = span
        dur = end - start
        entry = layers.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "errors": 0})
        entry["calls"] += 1
        entry["inclusive_s"] += dur
        entry["self_s"] += dur - child_time.get(sid, 0.0)
        if err is not None:
            entry["errors"] += 1
        if name == "graph.verify_feasible" and has_ancestor(span, "greedy.weight_threshold_search"):
            counts["greedy.threshold_probes"] += 1
            counts["greedy.threshold_probes_feasible"] += bool(attr)
        elif name == "graph.dijkstra" and has_ancestor(span, "greedy.greedy"):
            counts["greedy.greedy.dijkstra_calls"] += 1
        elif name == "greedy.weight_threshold_search" and attr is not None:
            counts["greedy.w_star_edges"] += attr
        elif name == "extension.build_extension" and attr is not None:
            counts["extension.arcs"] += attr
        elif name == "mcf.build_mcf" and attr is not None:
            counts["mcf.lp_vars"] += attr[0]
            counts["mcf.lp_rows"] += attr[1]
            counts["mcf.lp_nnz"] += attr[2]
        elif name == "mcf.solve_lp" and err is not None:
            counts["mcf.solve_lp.failures"] += 1
        elif name == "rounding.round_solution" and attr:
            counts["rounding.attempts_feasible"] += 1
        elif name == "oracles.exact_optimum":
            if attr is not None:
                counts["oracles.nodes_explored"] += attr
            if has_ancestor(span, "bench.run_experiment"):
                counts["bench.exact_optimum_under_run_experiment"] += 1
    return {"layers": layers, "counts": counts}
