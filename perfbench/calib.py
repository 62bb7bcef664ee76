"""Host-speed calibration: a fixed pure-Python kernel timed between solves.

The benchmark runs on shared hosts whose CPU speed, as seen by one process,
drifts by half or more within minutes while nothing in the process changes.
On a shared 2-vCPU Xeon cloud host with Python 3.11 the same augmented-greedy
solve took 0.51-0.84 s within ten seconds, and 30-second medians of a fixed
set of solves moved from 0.19 to 0.13 s over three minutes.  Wall-clock
medians of a pure-Python solver therefore measure the host, not the code.

The kernel here is harness code that no change to spannerkit can touch: a
Dijkstra over a fixed random graph with ``Fraction`` weights, the same mix
of heap, dict, set and rational arithmetic as the solvers' hot paths.  It is
timed next to the solves, and the times of a calibrated workload are scaled
by ``REFERENCE_S / kernel time``: seconds on a host where the kernel takes
``REFERENCE_S``.  On the host above, the interquartile spread of 30-second
medians of augmented-greedy solve times was 0.30 of the median in wall
seconds and 0.02 in reference seconds.  Raw wall times are printed and saved
beside the scaled ones.
"""

from __future__ import annotations

import heapq
import random
import time
from fractions import Fraction

# Kernel seconds that define one reference second: about the kernel's median
# on the host above (0.029-0.037 s), so reference seconds read close to wall
# seconds there.
REFERENCE_S = 0.035

_NODES = 300
_GRAPH_SEED = 7


def _graph() -> list[list[tuple[int, Fraction]]]:
    rng = random.Random(_GRAPH_SEED)
    adj: list[list[tuple[int, Fraction]]] = [[] for _ in range(_NODES)]
    for _ in range(3 * _NODES):
        u, v = rng.randrange(_NODES), rng.randrange(_NODES)
        w = Fraction(rng.randint(1, 50), rng.randint(1, 7))
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


_ADJ = _graph()


def kernel_seconds() -> float:
    """Time one run of the calibration kernel (about REFERENCE_S on an idle host)."""
    start = time.perf_counter()
    for source in (0, 1):
        dist = {source: Fraction(0)}
        heap = [(Fraction(0), source)]
        done = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in _ADJ[u]:
                nd = d + w
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
    return time.perf_counter() - start


def kernel_point(runs: int = 3) -> float:
    """Median of a few kernel runs, for a phase too long to calibrate inside."""
    return sorted(kernel_seconds() for _ in range(runs))[runs // 2]


def scale(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """Wall seconds -> reference seconds, using the kernel times on either side."""
    return seconds * REFERENCE_S / ((kernel_before + kernel_after) / 2.0)
