"""Host-speed calibration: a fixed pure-Python kernel timed next to the work.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes, while a run lasts seconds: two runs of the same code far apart
in time differ by more than a regression worth catching.  The kernel is a
small Bellman-Ford relaxation over a fixed random graph, the same kind of
interpreter work (list indexing, small-int arithmetic, comparisons) the
solver does, and it touches no treelift code.  It runs after every solve and
every set-up game, and each measured time is divided by the median kernel
time around it.  A slower host slows both; a slower treelift slows only the
solves, so every regression still shows in full.

Times scaled this way are *reference* times: ``REF_KERNEL_MS`` is about what
one kernel run takes on the shared 2-CPU x86-64 host the benchmark was tuned
on (3.7 to 6.6 ms as its speed drifted), so reference ms read close to wall
ms there.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

REF_KERNEL_MS = 5.0
WINDOW = 21         # kernel times a measured time is scaled by (centred median)
_NODES, _DEGREE, _SEED = 500, 3, 5
_INF = 10 ** 9


def _graph():
    rng = random.Random(_SEED)
    return [[(rng.randrange(_NODES), rng.randrange(-3, 10)) for _ in range(_DEGREE)]
            for _ in range(_NODES)]


_ADJ = _graph()


def kernel_ms() -> float:
    """Run the kernel once; its wall time in ms."""
    adj = _ADJ
    t0 = perf_counter()
    dist = [_INF] * _NODES
    dist[0] = 0
    for _ in range(30):
        changed = False
        for u in range(_NODES):
            du = dist[u]
            if du == _INF:
                continue
            for v, w in adj[u]:
                nd = du + w
                if nd < dist[v] and nd > -_INF:
                    dist[v] = nd
                    changed = True
        if not changed:
            break
    return (perf_counter() - t0) * 1000.0


def scale(kernel_times) -> float:
    """Factor from wall time to reference time over a stretch of kernel runs."""
    return REF_KERNEL_MS / statistics.median(kernel_times)


def to_reference(times, kernel_times) -> list:
    """Each wall time times the scale of the ``WINDOW`` kernel runs centred
    on it; ``times[i]`` and ``kernel_times[i]`` were measured back to back."""
    half = WINDOW // 2
    return [t * scale(kernel_times[max(0, i - half):i + half + 1])
            for i, t in enumerate(times)]
