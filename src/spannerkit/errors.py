"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SpannerError(Exception):
    """Base class for every error raised by spannerkit."""


class ParseError(SpannerError):
    """Malformed instance, solution, or LP file."""

    def __init__(self, message: str, *, path: str | None = None, field: str | None = None):
        self.reason = message  # without the location suffix
        self.path = path
        self.field = field
        where = []
        if path is not None:
            where.append(path)
        if field is not None:
            where.append(f"field {field!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class InvalidInstance(SpannerError):
    """Instance failed validation; carries the full report."""

    def __init__(self, report):
        self.report = report
        super().__init__("instance failed validation:\n" + report.describe())


class NonIntegerLength(SpannerError):
    """An operation requiring integer edge lengths met a fractional one."""

    def __init__(self, edge_index: int, length):
        self.edge_index = edge_index
        self.length = length
        super().__init__(f"edge {edge_index} has non-integer length {length}")


class DirectedInstance(SpannerError):
    """Operation defined only for undirected instances."""


class UnsatisfiableDemand(SpannerError):
    """A demand pair cannot meet its bound even in the full (restricted) graph."""

    def __init__(self, u: int, v: int, delta, achieved=None):
        self.pair = (u, v)
        self.delta = delta
        self.achieved = achieved
        got = "unreachable" if achieved is None else str(achieved)
        super().__init__(f"demand ({u},{v}) with bound {delta} unsatisfiable (best: {got})")


class InfeasibleInstance(SpannerError):
    """Even the full edge set does not satisfy the demands."""


class SolverFailure(SpannerError):
    """The LP solver did not return an optimal solution."""

    def __init__(self, status: str, message: str = ""):
        self.status = status
        super().__init__(f"LP solve failed with status {status!r}" + (f": {message}" if message else ""))


class TooLarge(SpannerError):
    """Input exceeds a hard size cap: the exact search's, the flow LP's, the generator's or the demo's."""


class TooManyCuts(SpannerError):
    """Ascending-cut enumeration would exceed the configured cap."""


class LemmaViolation(SpannerError):
    """A proven invariant failed (e.g. the cut/feasibility biconditional) -- an implementation bug."""


class MonotonicityViolation(SpannerError):
    """A potential-function step increased -- an implementation bug."""
