"""Strategy iteration with tree labels.

Odd maintains a strategy and the labeling is repeatedly replaced by the least
fixed point of the 1-player game for Even that is pointwise at least the
current labeling.  Pivots switch Odd nodes onto violated (admissible) arcs;
termination is by label monotonicity.  The final labeling is the pointwise
minimal one feasible in the whole game, so with capacity >= n the non-top
nodes are exactly Even's winning set.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import one_player, trees
from .errors import InvariantError, UsageError
from .game import EVEN, ODD, ParityGame, StrategySubgraph, default_strategy
from .labeling import ArcStatus, NodeLabeling, arc_status, lift_arc
from .trees import TOP, TreeSpec, tighten_target


class SwitchAll:
    """Switch every Odd node that has an admissible arc to its best one
    (largest lift target, ties to the lowest head id)."""

    name = "all"

    def select(self, game, labeling, admissible, rng=None):
        best = {}
        for v, w in admissible:
            lifted = lift_arc(game, labeling, v, w)
            if v not in best or lifted > best[v][0]:
                best[v] = (lifted, w)
        return {v: w for v, (_, w) in best.items()}


class SwitchFirst(SwitchAll):
    """Switch only the lowest-id Odd node that has an admissible arc."""

    name = "first"

    def select(self, game, labeling, admissible, rng=None):
        v = min(t for t, _ in admissible)
        return super().select(game, labeling, [a for a in admissible if a[0] == v])


class SwitchRandom:
    """Switch a random nonempty subset of switchable nodes to random
    admissible arcs; deterministic for a fixed seed."""

    name = "random"

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def select(self, game, labeling, admissible, rng=None):
        per_node = {}
        for v, w in admissible:
            per_node.setdefault(v, []).append(w)
        nodes = sorted(per_node)
        count = self.rng.randint(1, len(nodes))
        chosen = self.rng.sample(nodes, count)
        return {v: self.rng.choice(per_node[v]) for v in sorted(chosen)}


def admissible_arcs(game: ParityGame, labeling: NodeLabeling):
    """All Odd-owned arcs violated by the labeling, sorted by (tail, head)."""
    out = []
    for v in game.odd_nodes():
        for w in game.succ[v]:
            if arc_status(game, labeling, v, w) == ArcStatus.VIOLATED:
                out.append((v, w))
    return out


def _check_phase(game: ParityGame, tau: dict, labeling: NodeLabeling):
    """Classify every arc of the game once against a phase's labeling.

    Raises ``InvariantError`` unless the labeling is feasible and has no
    loose arc in the strategy subgraph of ``tau``: every strategy arc tight,
    every Even arc tight or violated and at least one tight per Even node.
    Returns the admissible arcs, the same list as ``admissible_arcs``."""
    spec, values, prio, owners = labeling.spec, labeling.values, game.priorities, game.owners
    adm = []
    for v, outs in enumerate(game.succ):
        p, lab = prio[v], values[v]
        odd = owners[v] == ODD
        chosen = tau[v] if odd else None
        tight = False
        for w in outs:
            # arc_status's comparisons, inlined: this runs on every arc of
            # every phase, and the call and enum cost about a tenth of a solve
            target = tighten_target(spec, values[w], p)
            if lab is target or lab == target:
                tight = True
            elif lab < target:
                if w == chosen:
                    raise InvariantError(f"phase labeling violates strategy arc {v}->{w}")
                if odd:
                    adm.append((v, w))
            elif not odd or w == chosen:
                raise InvariantError(f"phase labeling has a loose arc {v}->{w}")
        if not (odd or tight):
            raise InvariantError(f"phase labeling leaves even node {v} without a tight arc")
    return adm


def pivot(game: ParityGame, tau: dict, labeling: NodeLabeling, rule):
    adm = admissible_arcs(game, labeling)
    if not adm:
        raise UsageError("pivot called without admissible arcs")
    switches = rule.select(game, labeling, adm)
    new = dict(tau)
    new.update(switches)
    return new


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

    def to_json_dict(self, game: ParityGame, spec: TreeSpec) -> dict:
        lab = lambda v: str(game.label_of(v))
        return {
            "tree": spec.as_dict(),
            "winners": {
                "even": [lab(v) for v in self.even_wins],
                "odd": [lab(v) for v in self.odd_wins],
            },
            "strategy_odd": {lab(v): lab(w) for v, w in sorted(self.strategy_odd.items())},
            "strategy_even": {lab(v): lab(w) for v, w in sorted(self.even_strategy.items())},
            "labels": self.labeling.as_dict(game),
            "phases": self.phases,
            "lifts": self.lifts,
            "drops": self.drops,
            "wall_ms": self.wall_ms,
            "warnings": list(self.warnings),
        }


def extract_even_strategy(game: ParityGame, labeling: NodeLabeling) -> dict:
    """Tight out-arc (lowest head id) per Even node in the non-top region."""
    sigma = {}
    for v in range(game.n):
        if game.owners[v] != EVEN or labeling[v] is TOP:
            continue
        for w in game.succ[v]:
            if arc_status(game, labeling, v, w) == ArcStatus.TIGHT:
                sigma[v] = w
                break
        else:
            raise InvariantError(f"even node {v} in the winning set has no tight arc")
    return sigma


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
    ``record_phases`` keeps every phase's labeling in ``phase_labels`` (the
    engines' own results, not copies).
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
    phase_cap = game.n * trees.leaf_count(spec) + 1
    lifts = 0
    phases = 0

    while True:
        sub = StrategySubgraph(game, tau)
        new = lfp(sub, mu, spec, counters)
        counters.phase(sub, mu, new)
        phases += 1
        if not mu.leq(new):
            raise InvariantError("labeling decreased across a phase")
        adm = _check_phase(game, tau, new)
        lifts += sum(1 for v in range(game.n) if new[v] > mu[v])
        mu = new
        if record_phases:
            phase_labels.append(mu)
        if not adm:
            break
        if phases > phase_cap:
            raise InvariantError("phase cap exceeded; monotonicity must be broken")
        tau = {**tau, **rule.select(game, mu, adm)}

    even_wins = tuple(v for v in range(game.n) if mu[v] is not TOP)
    odd_wins = tuple(v for v in range(game.n) if mu[v] is TOP)
    sigma = extract_even_strategy(game, mu)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return SolveResult(
        labeling=mu,
        strategy_odd=tau,
        even_wins=even_wins,
        odd_wins=odd_wins,
        even_strategy=sigma,
        phases=phases,
        lifts=lifts,
        drops=counters.drops - drops0,
        wall_ms=wall_ms,
        phase_labels=phase_labels,
        warnings=warnings,
    )
