"""Per-layer tracing of a treelift solve from outside the package.

``Tracer.install`` replaces public functions of the treelift modules with
wrappers that record one span per call: (name, start, end, parent span index,
game id).  Only functions called at most a few thousand times per solve are
wrapped; the hot inner loops (``_bf``, ``tighten_target``) are measured
through counters instead, because a wrapper there would swamp the trace.
Spans are kept in memory and written out by the caller when the run ends.

Each per-layer metric names the end-to-end metric it should move, and on
which workload (see ``README.md``).
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  The attribute is looked up on the module
# that *calls* the function, so internal calls go through the wrapper too.
SPAN_TARGETS = (
    ("cli", "main", "cli.main"),
    ("game", "parse_pgsolver", "game.parse_pgsolver"),
    ("solver", "strategy_iteration_solve", "solver.strategy_iteration_solve"),
    ("solver", "StrategySubgraph", "game.StrategySubgraph"),
    ("solver", "admissible_arcs", "solver.admissible_arcs"),
    ("solver", "pivot", "solver.pivot"),
    ("solver", "is_feasible", "solver.checks"),
    ("solver", "extract_even_strategy", "solver.extract_even_strategy"),
    ("one_player", "require_no_loose", "one_player.require_no_loose"),
    ("one_player", "least_fixed_point_lc", "one_player.least_fixed_point"),
    ("one_player", "least_fixed_point_perfect", "one_player.least_fixed_point"),
    ("one_player", "find_base_nodes", "one_player.find_base_nodes"),
    ("one_player", "compute_phi", "one_player.compute_phi"),
    ("one_player", "dijkstra", "one_player.dijkstra"),
    ("one_player", "arc_costs_generic", "one_player.arc_costs_generic"),
    ("one_player", "arc_costs_succinct", "one_player.arc_costs_succinct"),
    ("one_player", "min_bottleneck_cycle_costs", "one_player.min_bottleneck_cycle_costs"),
    ("one_player", "bellman_ford", "one_player.bellman_ford"),
)

# Counted, not timed: called once per base node, chain and phase.
COUNT_TARGETS = (
    ("trees", "raise_leaf", "trees.raise_leaf"),
)


class Tracer:
    """Wraps the span and count targets of the given treelift modules while
    installed."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []          # index -> (name, start, end, parent, game)
        self.calls = defaultdict(int)
        self.counters = []       # one_player.Counters instances created
        self.game = None
        self.missing = set()     # target names this commit does not define
        self._stack = []
        self._saved = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent, parent_name = stack[-1] if stack else (-1, None)
            # The solver's own require_no_loose is one of its per-phase checks.
            recorded = ("solver.checks" if name == "one_player.require_no_loose"
                        and parent_name == "solver.strategy_iteration_solve" else name)
            idx = len(spans)
            spans.append(None)
            stack.append((idx, recorded))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (recorded, start, end, parent, self.game)

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        present = set()
        for targets, make in ((SPAN_TARGETS, self._span), (COUNT_TARGETS, self._count)):
            for mod_name, attr, name in targets:
                module = self.modules[mod_name]
                fn = getattr(module, attr, None)
                if fn is not None:
                    present.add(name)
                    self._patch(module, attr, make(name, fn))
        if "one_player.require_no_loose" in present:
            present.add("solver.checks")
        self.missing = {name for _, _, name in SPAN_TARGETS + COUNT_TARGETS} - present
        one_player = self.modules["one_player"]
        base = getattr(one_player, "Counters", None)
        if base is None:
            return
        created = self.counters

        class RecordedCounters(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        self._patch(one_player, "Counters", RecordedCounters)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def counter_total(self, field: str):
        """Sum of one Counters field over every instance created, or None
        when no instance with that field was created at this commit."""
        if not self.counters or not all(hasattr(c, field) for c in self.counters):
            return None
        return sum(getattr(c, field) for c in self.counters)

    def self_ms(self) -> dict:
        """Summed self time per span name in ms: each span's duration minus
        the part its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1000.0
        return out

    def span_calls(self) -> dict:
        out = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def write(self, path) -> None:
        """One JSON object per line: name, start, end (s), parent, game."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, game in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "game": game}) + "\n")
