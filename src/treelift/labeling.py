"""Node labelings over a universal tree and the operators acting on them.

An arc vw is *violated* when the tail label is below the unique tight value
against the head label, *tight* when equal, *loose* when above.  Lifting an
arc raises the tail to the tight value (never lowers), dropping caps it at
the tight value (never raises); both are monotone in the head label.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from itertools import compress
from operator import is_not

from . import trees
from .errors import LiftBudgetExceeded, UsageError
from .game import EVEN
from .trees import TOP, TreeSpec, tighten_target


class ArcStatus(enum.Enum):
    VIOLATED = "violated"
    TIGHT = "tight"
    LOOSE = "loose"


class NodeLabeling:
    """Total map node -> leaf-or-TOP, bound to one tree spec."""

    __slots__ = ("spec", "values")

    def __init__(self, spec: TreeSpec, values):
        self.spec = spec
        self.values = list(values)

    @classmethod
    def all_min(cls, spec: TreeSpec, n: int) -> "NodeLabeling":
        return cls(spec, [trees.min_leaf(spec)] * n)

    @classmethod
    def all_top(cls, spec: TreeSpec, n: int) -> "NodeLabeling":
        return cls(spec, [TOP] * n)

    def copy(self) -> "NodeLabeling":
        return NodeLabeling(self.spec, self.values)

    def __getitem__(self, v):
        return self.values[v]

    def __setitem__(self, v, label):
        self.values[v] = label

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        return (isinstance(other, NodeLabeling)
                and self.spec == other.spec and self.values == other.values)

    def leq(self, other: "NodeLabeling") -> bool:
        # an identical label is skipped at C speed: most of them, after a phase
        a, b = self.values, other.values
        return all(x <= y for x, y in compress(zip(a, b), map(is_not, a, b)))


def arc_status(graph, labeling: NodeLabeling, v: int, w: int) -> ArcStatus:
    """Classify arc vw against the labeling; (TOP, TOP) counts as tight."""
    target = tighten_target(labeling.spec, labeling[w], graph.priorities[v])
    lab = labeling[v]
    if lab is target or lab == target:
        return ArcStatus.TIGHT
    return ArcStatus.VIOLATED if lab < target else ArcStatus.LOOSE


def lift_arc(graph, labeling: NodeLabeling, v: int, w: int):
    """Smallest label >= mu(v) making vw non-violated: max(mu(v), tight)."""
    target = tighten_target(labeling.spec, labeling[w], graph.priorities[v])
    lab = labeling[v]
    return lab if target < lab else target


@dataclass
class ProgressResult:
    labeling: NodeLabeling
    lifts: int


def progress_measure_solve(game, spec: TreeSpec, budget=None) -> ProgressResult:
    """Least simultaneous fixed point of all Lift operators above the
    all-minimum labeling.

    FIFO worklist seeded with every node; a strictly increasing application of
    Lift_v (Even) or Lift_vw (Odd) counts as one lift.  ``game`` may also be
    a ``StrategySubgraph``, a 1-player game for Even.  Raises
    LiftBudgetExceeded carrying the partial labeling when ``budget`` lift
    applications are not enough, and UsageError for a negative ``budget``.
    """
    if budget is not None and budget < 0:
        raise UsageError(f"lift budget must be >= 0, got {budget}")
    succ, pred, n = game.succ, game.pred, game.n
    labeling = NodeLabeling.all_min(spec, n)
    lifts = 0
    queue = deque(range(n))
    queued = [True] * n

    def target_for(v):
        picks = [tighten_target(spec, labeling[w], game.priorities[v]) for w in succ[v]]
        return min(picks) if game.owners[v] == EVEN else max(picks)

    while queue:
        v = queue.popleft()
        queued[v] = False
        old = labeling[v]
        if game.owners[v] == EVEN:
            new = target_for(v)
            if new > old:
                if budget is not None and lifts + 1 > budget:
                    raise LiftBudgetExceeded(labeling, lifts)
                lifts += 1
                labeling[v] = new
        else:
            for w in succ[v]:
                t = tighten_target(spec, labeling[w], game.priorities[v])
                if t > labeling[v]:
                    if budget is not None and lifts + 1 > budget:
                        raise LiftBudgetExceeded(labeling, lifts)
                    lifts += 1
                    labeling[v] = t
        if labeling[v] > old:
            for u in pred[v]:
                if not queued[u] and arc_status(game, labeling, u, v) == ArcStatus.VIOLATED:
                    queued[u] = True
                    queue.append(u)
    return ProgressResult(labeling, lifts)
