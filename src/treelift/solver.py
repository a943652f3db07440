"""Strategy iteration with tree labels.

Odd maintains a strategy and the labeling is repeatedly replaced by the least
fixed point of the 1-player game for Even that is pointwise at least the
current labeling.  Pivots switch Odd nodes onto violated (admissible) arcs.
The final labeling is the pointwise minimal one feasible in the whole game,
so with capacity >= n the non-top nodes are exactly Even's winning set.

The solve ends because every phase after the first raises a label and none
falls.  ``is_feasible`` rejects a labeling in which a label fell.  A pivot
switches Odd onto arcs that the current labels violate, so those labels are
not a fixed point of the new strategy subgraph, and the next phase's least
fixed point above them must change some label.  A node's label only rises
through the finitely many leaves of the tree and TOP, so the phases are
finitely many.  A phase after a pivot that changes no label breaks this
argument (a pivot rule that selects nothing would repeat forever), and the
solver raises ``InvariantError`` on it.

Only the first phase solves the whole strategy subgraph.  A later phase
re-solves only the nodes R that reach a switched node: the rest of the game
is closed under successors and keeps its arcs, so the previous labels are
still its least fixed point above themselves, and R's least fixed point is
taken with those labels pinned at R's boundary (``game.Region``).

A phase is the engine's fixed point and three functions: ``is_feasible``
checks it, ``admissible_arcs`` lists the arcs to pivot on, and ``pivot``
switches Odd onto the ones the rule selects.  ``extract_even_strategy``
reads Even's strategy off the last phase's check.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import compress
from operator import is_not

from . import one_player, trees
from .errors import InvariantError, UsageError
from .game import EVEN, ODD, ParityGame, Region, StrategySubgraph, default_strategy
from .labeling import NodeLabeling, lift_arc
from .trees import _NO_ROW, TOP, TreeSpec, _fill_row, _rows


class SwitchAll:
    """Switch every Odd node that has an admissible arc to its best one
    (largest lift target, ties to the lowest head id)."""

    name = "all"

    def select(self, game, labeling, admissible):
        best = {}
        for v, w in admissible:
            lifted = lift_arc(game, labeling, v, w)
            if v not in best or lifted > best[v][0]:
                best[v] = (lifted, w)
        return {v: w for v, (_, w) in best.items()}


class SwitchFirst(SwitchAll):
    """Switch only the lowest-id Odd node that has an admissible arc."""

    name = "first"

    def select(self, game, labeling, admissible):
        v = min(t for t, _ in admissible)
        return super().select(game, labeling, [a for a in admissible if a[0] == v])


class SwitchRandom:
    """Switch a random nonempty subset of switchable nodes to random
    admissible arcs; deterministic for a fixed seed."""

    name = "random"

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def select(self, game, labeling, admissible):
        per_node = {}
        for v, w in admissible:
            per_node.setdefault(v, []).append(w)
        nodes = sorted(per_node)
        count = self.rng.randint(1, len(nodes))
        chosen = self.rng.sample(nodes, count)
        return {v: self.rng.choice(per_node[v]) for v in sorted(chosen)}


def is_feasible(game: ParityGame, tau: dict, old: NodeLabeling, new: NodeLabeling,
                heads: list, dirty: set) -> list:
    """The solver's per-phase check; returns the nodes whose label changed
    from ``old`` to ``new``, in increasing order.

    It raises ``InvariantError`` if the phase's labeling ``new`` lies below
    the previous one, or if it is infeasible or has a loose arc in the
    strategy subgraph of ``tau``. Every strategy arc must be tight. Every
    Even arc must be tight or violated, with at least one tight arc per Even
    node.

    ``heads[v]`` is the per-tail result, kept across the phases of a solve:
    the violated heads of an Odd tail, which are its admissible arcs, or the
    first tight head of an Even tail. An arc's status depends only on the two
    labels, the tail's priority and whether the arc is the tail's strategy
    arc. So a call re-classifies only the dirty tails: ``dirty`` holds the
    tails the pivot switched (every node on the first phase), and the call
    adds to it the nodes whose label changed and their game predecessors.
    Every other tail passed last phase with the same inputs, so
    re-classifying the dirty tails in increasing order raises the error a
    full scan would."""
    olds, values = old.values, new.values
    # whole-game on purpose: a label the engine moved outside its region
    # still makes its node and the node's predecessors dirty; identical
    # labels, most of them, are skipped at C speed
    changed = []
    for v in compress(range(len(values)), map(is_not, olds, values)):
        a, b = olds[v], values[v]
        if a != b:
            if not a < b:
                raise InvariantError("labeling decreased across a phase")
            changed.append(v)
            dirty.add(v)
            dirty.update(game.pred[v])
    spec, prio, owners, succ = new.spec, game.priorities, game.owners, game.succ
    rows = _rows(spec)
    for v in sorted(dirty):
        p, lab = prio[v], values[v]
        odd = owners[v] == ODD
        chosen = tau[v] if odd else None
        adm, tight = [], None  # successors are sorted
        for w in succ[v]:
            # arc_status's comparisons, inlined, and the tight target read
            # from the head's row (see trees._ROWS)
            head = values[w]
            try:
                target = rows.get(head, _NO_ROW)[p]
            except KeyError:
                target = _fill_row(spec, head, p)[p]
            if lab is target or lab == target:
                if tight is None:
                    tight = w
            elif lab < target:
                if w == chosen:
                    raise InvariantError(f"phase labeling violates strategy arc {v}->{w}")
                adm.append(w)
            elif not odd or w == chosen:
                raise InvariantError(f"phase labeling has a loose arc {v}->{w}")
        if not odd and tight is None:
            raise InvariantError(f"phase labeling leaves even node {v} without a tight arc")
        heads[v] = adm if odd else tight
    return changed


def admissible_arcs(game: ParityGame, heads: list) -> list:
    """The admissible arcs, sorted by (tail, head): the Odd-owned arcs that
    ``is_feasible`` last found violated, read off its ``heads``."""
    return [(v, w) for v in game.odd_nodes() for w in heads[v]]


def pivot(sub: StrategySubgraph, labeling: NodeLabeling, admissible: list, rule):
    """Switch Odd onto the arcs ``rule`` selects among ``admissible``:
    (the switches {tail: head}, the switched strategy subgraph, the
    ``Region`` of it that the next phase re-solves)."""
    switches = rule.select(sub.game, labeling, admissible)
    sub = sub.switch(switches)
    return switches, sub, Region(sub, switches)


def extract_even_strategy(game: ParityGame, heads: list, labeling: NodeLabeling) -> dict:
    """Even's strategy once no arc is admissible: for each Even node below
    TOP, the tight out-arc of lowest head that ``is_feasible`` recorded in
    ``heads``."""
    values = labeling.values
    return {v: heads[v] for v in range(game.n)
            if game.owners[v] == EVEN and values[v] is not TOP}


@dataclass
class SolveResult:
    labeling: NodeLabeling
    strategy_odd: dict
    even_wins: tuple
    odd_wins: tuple
    even_strategy: dict
    phases: int
    lifts: int
    drops: int
    wall_ms: float
    phase_labels: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def _engine_for(spec: TreeSpec, engine: str, n: int):
    if engine == "auto":
        engine = "perfect" if spec.kind == trees.PERFECT and spec.capacity >= n else "lc"
    if engine in ("perfect", "dijkstra"):
        if spec.kind != trees.PERFECT:
            raise UsageError(f"engine {engine!r} requires a perfect tree")
        return one_player.least_fixed_point_perfect
    if engine == "lc":
        return one_player.least_fixed_point_lc
    raise UsageError(f"unknown engine {engine!r}")


def strategy_iteration_solve(game: ParityGame, spec: TreeSpec, tau1=None,
                             rule=None, engine: str = "auto",
                             record_phases: bool = True,
                             counters=None) -> SolveResult:
    """Run strategy iteration to the pointwise minimal feasible labeling.

    ``engine`` picks the 1-player fixed point routine ('auto' uses the
    label-setting engine for perfect trees of capacity >= n, label-correcting
    otherwise).
    ``record_phases`` keeps every phase's labeling in ``phase_labels`` (not
    copies: the first phase's is the engine's own result).
    ``counters`` is the ``one_player.Counters`` observer of the solve (a
    fresh one when not given): the engines tally into it and call its hooks,
    and its ``phase`` hook sees every phase before the solver checks it.
    ``drops`` in the result counts this solve's drops only, so one observer
    can watch several solves.
    """
    t0 = time.perf_counter()
    warnings = []
    if spec.height * 2 < game.d:
        raise UsageError(
            f"tree height {spec.height} too small for priorities up to {game.d}")
    if spec.capacity < game.n:
        warnings.append(
            f"tree capacity {spec.capacity} < n = {game.n}: the winner "
            "characterisation needs capacity for every node")
    lfp = _engine_for(spec, engine, game.n)
    rule = rule or SwitchAll()
    counters = counters or one_player.Counters()
    drops0 = counters.drops
    tau = dict(tau1) if tau1 is not None else default_strategy(game)
    mu = NodeLabeling.all_min(spec, game.n)
    phase_labels = [mu] if record_phases else []
    lifts = 0
    phases = 0

    # the first phase's region is the whole strategy subgraph
    sub = region = StrategySubgraph(game, tau)
    heads = [()] * game.n
    dirty = set(range(game.n))
    while True:
        new = lfp(region, mu, spec, counters)
        counters.phase(sub, mu, new)
        phases += 1
        changed = is_feasible(game, sub.tau, mu, new, heads, dirty)
        if phases > 1 and not changed:
            raise InvariantError(f"phase {phases} changed no label after a pivot")
        lifts += len(changed)
        mu = new
        if record_phases:
            phase_labels.append(mu)
        adm = admissible_arcs(game, heads)
        if not adm:
            break
        switches, sub, region = pivot(sub, mu, adm, rule)
        dirty = set(switches)

    even_wins = tuple(v for v in range(game.n) if mu[v] is not TOP)
    odd_wins = tuple(v for v in range(game.n) if mu[v] is TOP)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return SolveResult(
        labeling=mu,
        strategy_odd=sub.tau,
        even_wins=even_wins,
        odd_wins=odd_wins,
        even_strategy=extract_even_strategy(game, heads, mu),
        phases=phases,
        lifts=lifts,
        drops=counters.drops - drops0,
        wall_ms=wall_ms,
        phase_labels=phase_labels,
        warnings=warnings,
    )
