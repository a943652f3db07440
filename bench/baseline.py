#!/usr/bin/env python3
"""One-shot reproduction of the ROADMAP baseline; not part of the gated runs.

    python3 bench/baseline.py

Solves ``gen_random(1000, 12, 3, seed=2)`` with ``strategy_iteration_solve``
under perfect/Dijkstra, perfect/lc, succinct and strahler trees (default
capacity, as ``treelift solve`` builds them) and with Zielonka's algorithm,
``RUNS`` times each in one process, checks every winner set against
Zielonka and prints one JSON line per configuration with the median and min
wall time.  ``tighten_target``'s cache is warm from a configuration's second
run on, as it is for a library user solving the same game again.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time

from run import load_treelift

CONFIGS = (
    ("perfect/dijkstra", "perfect", "auto"),
    ("perfect/lc", "perfect", "lc"),
    ("succinct", "succinct", "auto"),
    ("strahler", "strahler", "auto"),
)
RUNS = 3


def main() -> int:
    tl, _ = load_treelift()
    game = tl["game"].gen_random(1000, 12, 3, 2)
    print(json.dumps({"game": "gen_random(1000, 12, 3, seed=2)", "n": game.n, "m": game.m,
                      "python": platform.python_version(), "machine": platform.machine(),
                      "runs": RUNS}))

    def row(name, times, **extra):
        print(json.dumps({"config": name, "median_s": statistics.median(times),
                          "min_s": min(times), "runs_s": times, **extra}), flush=True)

    times = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        want = tl["oracle"].zielonka_solve(game)
        times.append(time.perf_counter() - t0)
    row("zielonka", times)

    wrong = 0
    for name, kind, engine in CONFIGS:
        spec = tl["cli"].build_spec(game, kind)
        times = []
        for _ in range(RUNS):
            t0 = time.perf_counter()
            res = tl["solver"].strategy_iteration_solve(game, spec, engine=engine,
                                                        record_phases=False)
            times.append(time.perf_counter() - t0)
            wrong += frozenset(res.even_wins) != want.even_wins
        row(name, times, phases=res.phases, drops=res.drops)
    if wrong:
        print(f"error: {wrong} solve(s) disagree with Zielonka", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
